"""Streaming transceiver: buffering, latency, finality, loss behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import counted_model, flip
from scalar_reference import ReferenceStreamReceiver, ReferenceStreamSender

from tokenwire import streaming
from tokenwire.context import Targets, UniformModel, train_count_model
from tokenwire.dependency import stream_coarse, stream_step
from tokenwire.errors import DecodeError
from tokenwire.grid import GosConfig, StreamConfig, TokenGrid, TokenState
from tokenwire.streaming import StreamReceiver, StreamSender
from tokenwire.transport import Packet, pack_bits

GOS = GosConfig(6, 3, 1, 3)
STREAM = StreamConfig(stride=3, lookahead=3, coding_context=12)

R = int(TokenState.RECEIVED)
L = int(TokenState.LOST)
I = int(TokenState.INVALID)
C = int(TokenState.CONCEALED)


def make_tokens(seed: int, n_frames: int, vocab: int = 16) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, vocab, size=(n_frames, 3)).astype(np.int32)


def drive(tokens, keep=None, model=None, level=None, gos=GOS,
          stream=STREAM, ends=(StreamSender, StreamReceiver)):
    """Push one frame at a time through a sender/receiver pair.

    ``keep(emission, packet)`` decides delivery; default keeps everything.
    """
    model = UniformModel(16) if model is None else model
    tx = ends[0](gos, stream, model, level=level)
    rx = ends[1](gos, stream, model, level=level)
    keep = keep if keep is not None else (lambda em, p: True)
    releases = []
    for t in range(len(tokens)):
        for em in tx.push(tokens[t:t + 1]):
            releases.append(rx.step([p for p in em.packets if keep(em, p)]))
    tail, total = tx.flush()
    releases += rx.finish(
        [[p for p in em.packets if keep(em, p)] for em in tail], total)
    grid, states = rx.result()
    return grid, states, releases, tx, rx


def run_steps(steps, n_live, total, model=None, level=None, gos=GOS,
              stream=STREAM):
    """Feed a fresh receiver one packet list per step: the first
    ``n_live`` steps as live pushes, the rest as the flushed tail of a
    ``total``-frame stream. Returns (receiver, releases)."""
    rx = StreamReceiver(gos, stream, model or UniformModel(16), level=level)
    releases = [rx.step(packets, total=None if i < n_live else total)
                for i, packets in enumerate(steps)]
    rx.finish([], total)
    return rx, releases


def assert_dropped_like_lost(got, want, n_dropped):
    """``got`` and ``want`` are run_steps results: the same releases,
    result and counters, except that ``got`` dropped ``n_dropped`` more
    packets."""
    (rx, releases), (want_rx, want_releases) = got, want
    for a, b in zip(releases, want_releases, strict=True):
        assert a.due == b.due
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.valid_depth, b.valid_depth)
    (grid, states), (want_grid, want_states) = rx.result(), want_rx.result()
    np.testing.assert_array_equal(grid.tokens, want_grid.tokens)
    np.testing.assert_array_equal(grid.level, want_grid.level)
    np.testing.assert_array_equal(states, want_states)
    assert (rx.n_predicted, rx.fec_recovered) == \
        (want_rx.n_predicted, want_rx.fec_recovered)
    assert rx.n_dropped == want_rx.n_dropped + n_dropped


def emissions(tokens, model=None, level=None, gos=GOS, stream=STREAM):
    """(packet list per step, number of live steps, total frames) of a
    sender fed ``tokens`` at once and flushed."""
    tx = StreamSender(gos, stream, model or UniformModel(16), level=level)
    live = list(tx.push(tokens))
    tail, total = tx.flush()
    return [list(em.packets) for em in live + tail], len(live), total


def test_push_buffers_until_lookahead_is_covered():
    tokens = make_tokens(40, 12)
    tx = StreamSender(GOS, STREAM, UniformModel(16))
    assert tx.max_latency is None
    for t in range(5):
        assert tx.push(tokens[t:t + 1]) == []
    ems = tx.push(tokens[5:6])
    assert len(ems) == 1
    em = ems[0]
    assert em.step == 0 and em.due == (0, 3) and em.horizon == 5
    # one coarse packet up to the horizon, then one fine packet holding
    # the three due frames
    assert [(p.group, p.first_frame, p.n_frames) for p in em.packets] == \
        [(0, 0, 6), (1, 0, 3)]
    assert tx.push(tokens[6:7]) == [] and tx.push(tokens[7:8]) == []
    ems = tx.push(tokens[8:9])
    assert len(ems) == 1 and ems[0].step == 1
    assert ems[0].due == (3, 6) and ems[0].horizon == 8
    assert [(p.group, p.first_frame, p.n_frames) for p in ems[0].packets] \
        == [(0, 6, 3), (1, 3, 3)]


def test_block_push_matches_per_frame_push():
    tokens = make_tokens(41, 20)
    tx_a = StreamSender(GOS, STREAM, UniformModel(16))
    ems_a = []
    for t in range(len(tokens)):
        ems_a.extend(tx_a.push(tokens[t:t + 1]))
    tail_a, total_a = tx_a.flush()
    ems_a.extend(tail_a)

    tx_b = StreamSender(GOS, STREAM, UniformModel(16))
    ems_b = list(tx_b.push(tokens))
    tail_b, total_b = tx_b.flush()
    ems_b.extend(tail_b)

    assert total_a == total_b == 20
    assert [e.due for e in ems_a] == [e.due for e in ems_b]
    assert [e.horizon for e in ems_a] == [e.horizon for e in ems_b]
    flat_a = [p for e in ems_a for p in e.packets]
    flat_b = [p for e in ems_b for p in e.packets]
    assert flat_a == flat_b
    assert tx_a.report.total_bits == tx_b.report.total_bits


def test_flush_emits_the_clamped_tail():
    tokens = make_tokens(42, 10)
    tx = StreamSender(GOS, STREAM, UniformModel(16))
    live = []
    for t in range(len(tokens)):
        live.extend(tx.push(tokens[t:t + 1]))
    tail, total = tx.flush()
    assert total == 10
    ems = live + tail
    assert len(ems) == 4  # ceil(10 / 3) steps in all
    assert [e.due for e in ems] == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert [e.horizon for e in ems] == [5, 8, 9, 9]
    # coarse frames are emitted exactly once across the whole stream, and
    # the last step, whose horizon adds no frame, sends no coarse packet
    coarse = [[(p.first_frame, p.n_frames) for p in e.packets if p.group == 0]
              for e in ems]
    assert coarse == [[(0, 6)], [(6, 3)], [(9, 1)], []]
    # each step sends one fine packet over its due frames
    fine = [[(p.group, p.first_frame, p.n_frames) for p in e.packets
             if p.group > 0] for e in ems]
    assert fine == [[(1, lo, hi - lo)] for lo, hi in (e.due for e in ems)]


def test_latency_bounded_by_stride_plus_lookahead():
    tokens = make_tokens(43, 10)
    _, _, _, tx, _ = drive(tokens)
    assert tx.max_latency == STREAM.stride + STREAM.lookahead == 6


def test_lossless_stream_reproduces_the_input():
    tokens = make_tokens(44, 24)
    grid, states, releases, tx, rx = drive(tokens)
    np.testing.assert_array_equal(grid.tokens, tokens)
    assert np.all(states == R)
    assert np.all(grid.level == 3)
    assert [r.due for r in releases] == [(0, 3), (3, 6), (6, 9), (9, 12),
                                         (12, 15), (15, 18), (18, 21),
                                         (21, 24)]
    stitched = np.concatenate([r.tokens for r in releases])
    np.testing.assert_array_equal(stitched, tokens)
    assert rx.n_predicted == 0 and rx.fec_recovered == 0


def test_level_truncation_drops_upper_groups():
    tokens = make_tokens(45, 12)
    grid, states, releases, tx, _ = drive(tokens, level=2)
    assert tx.report.n_fine_tokens == 12  # one fine layer per frame
    assert tx.report.n_fine_packets == 4  # one per step
    np.testing.assert_array_equal(grid.tokens[:, :2], tokens[:, :2])
    assert np.all(grid.tokens[:, 2] == 0)
    assert np.all(grid.level == 2)
    assert all(r.states.shape == (3, 3) for r in releases)


def test_coarse_only_stream_has_no_fine_packets():
    tokens = make_tokens(46, 8)
    grid, states, _, tx, _ = drive(tokens, level=1)
    assert tx.report.n_fine_packets == 0
    np.testing.assert_array_equal(grid.tokens[:, 0], tokens[:, 0])
    assert np.all(grid.level == 1)
    assert np.all(states[:, 0] == R)


def test_fine_loss_concealed_at_release_then_context_stays_clean():
    # Fine slices are coded against no other cell, so one lost fine
    # packet costs its own cells, those of its step's due frames, and no
    # later frame's. The lost cells are left out, not guessed.
    T = 18
    tokens = make_tokens(47, T)

    def keep(em, p):
        return not (p.group == 1 and em.step == 1)

    grid, states, releases, _, rx = drive(tokens, keep=keep)
    r1 = releases[1]
    assert r1.due == (3, 6)
    assert r1.states.tolist() == [[R, L, I]] * 3
    assert r1.valid_depth.tolist() == [1, 1, 1]
    # the released copy is final: the result never rewrites those rows
    np.testing.assert_array_equal(grid.tokens[3:6], r1.tokens)
    assert np.all(states[:3] == R) and np.all(states[6:] == R)
    np.testing.assert_array_equal(grid.tokens[:3], tokens[:3])
    np.testing.assert_array_equal(grid.tokens[6:], tokens[6:])
    assert rx.n_predicted == 0


def test_mangled_fine_payload_is_left_out_like_a_drop():
    # The streaming twin of the batch refused-payload test: a fine packet
    # whose payload does not decode leaves its cells LOST, exactly as if
    # the packet had been dropped. No canonical payload ends in a zero
    # byte.
    tokens = make_tokens(47, 18)

    def hit(p):
        return p.group == 1 and p.first_frame == 0

    dropped = drive(tokens, keep=lambda em, p: not hit(p))
    model = UniformModel(16)
    tx = StreamSender(GOS, STREAM, model)
    rx = StreamReceiver(GOS, STREAM, model)

    def carry(em):
        return [Packet(p.group, p.first_frame, p.n_frames,
                       p.payload + b"\x00") if hit(p) else p
                for p in em.packets]

    releases = [rx.step(carry(em)) for t in range(len(tokens))
                for em in tx.push(tokens[t:t + 1])]
    tail, total = tx.flush()
    releases += rx.finish([carry(em) for em in tail], total)
    grid, states = rx.result()
    assert releases[0].states.tolist() == [[R, L, I]] * 3
    assert rx.n_predicted == 0
    np.testing.assert_array_equal(states, dropped[1])
    np.testing.assert_array_equal(grid.tokens, dropped[0].tokens)
    assert rx.n_predicted == dropped[4].n_predicted


def test_receiver_accepts_and_ignores_conceal_fine_layers():
    # The knob is accepted and changes nothing: fine cells are never
    # predicted, so every setting releases the same frames.
    tokens = make_tokens(52, 18)
    model = UniformModel(16)

    def carry(em):
        return [p for p in em.packets if (em.step + p.group) % 3 != 1]

    runs = []
    for k in (0, 2, 7):
        tx = StreamSender(GOS, STREAM, model)
        rx = StreamReceiver(GOS, STREAM, model, conceal_fine_layers=k)
        releases = [rx.step(carry(em)) for t in range(len(tokens))
                    for em in tx.push(tokens[t:t + 1])]
        tail, total = tx.flush()
        releases += rx.finish([carry(em) for em in tail], total)
        grid, states = rx.result()
        runs.append((grid, states, releases, rx))
    grid, states, releases, rx = runs[0]
    assert np.any(states != R)
    for other_grid, other_states, other_releases, other_rx in runs[1:]:
        np.testing.assert_array_equal(other_grid.tokens, grid.tokens)
        np.testing.assert_array_equal(other_grid.level, grid.level)
        np.testing.assert_array_equal(other_states, states)
        for a, b in zip(other_releases, releases, strict=True):
            assert a.due == b.due
            np.testing.assert_array_equal(a.tokens, b.tokens)
            np.testing.assert_array_equal(a.states, b.states)
        assert other_rx.n_predicted == rx.n_predicted


def test_foreign_packets_are_rejected_without_growing_the_buffer():
    tokens = make_tokens(55, 12)
    steps, n_live, total = emissions(tokens)
    coarse = next(p for p in steps[1] if p.group == 0)
    # the same coarse packet 20000 groups-of-slices later
    far = Packet(0, coarse.first_frame + 20000 * GOS.gos_len,
                 coarse.n_frames, coarse.payload)
    rx = StreamReceiver(GOS, STREAM, UniformModel(16))
    rx.step(steps[0])
    rx.step(steps[1] + [far])
    # the window reaches step 1's horizon, frame 8, and no further, and
    # holds no more than one step's window of frames, its due frames
    # through its horizon
    held = rx._frames
    assert (held.lo, held.hi) == (3, 9)
    assert rx.n_dropped == 1
    # The dropped packet changes nothing: the stream carries on losslessly.
    dirty = [list(p) for p in steps]
    dirty[1].append(far)
    got = run_steps(dirty, n_live, total)
    assert_dropped_like_lost(got, run_steps(steps, n_live, total), 1)
    grid, states = got[0].result()
    np.testing.assert_array_equal(grid.tokens, tokens)
    assert np.all(states == R)


def test_long_group_of_slices_streams_past_frame_256():
    """No header field bounds the frame offset inside a group-of-slices:
    a 300-frame one streams over the wire bit-exactly."""
    tokens = make_tokens(59, 270)
    gos = GosConfig(300, 1, 1, 3)
    model = UniformModel(16)
    tx = StreamSender(gos, STREAM, model)
    rx = StreamReceiver(gos, STREAM, model)

    def wire(em):
        return [Packet.from_bytes(p.to_bytes()) for p in em.packets]

    for em in tx.push(tokens):
        rx.step(wire(em))
    tail, total = tx.flush()
    rx.finish([wire(em) for em in tail], total)
    grid, states = rx.result()
    np.testing.assert_array_equal(grid.tokens, tokens)
    assert np.all(states == R)


def split(em):
    """(the coarse packet, the fine packets) of one emission."""
    coarse = [p for p in em.packets if p.group == 0]
    assert len(coarse) == 1
    return coarse[0], [p for p in em.packets if p.group > 0]


def test_out_of_vocabulary_coarse_is_dropped_like_a_loss():
    tokens = make_tokens(56, 15, vocab=10)
    model = UniformModel(10)  # 4-bit coarse tokens: 10..15 do not exist
    steps, n_live, total = emissions(tokens, model)

    def run(**changes):
        return run_steps([changes.get(f"s{i}", packets)
                          for i, packets in enumerate(steps)],
                         n_live, total, model)

    (c0, *fine0), (c1, *fine1), (c2, *fine2) = steps[:3]
    assert c0.group == c1.group == c2.group == 0
    # a bad payload: the packet is dropped, as if lost
    bad = Packet(0, 0, 6, pack_bits(np.array([15] * 6), 4))
    assert_dropped_like_lost(run(s0=[bad] + fine0), run(s0=fine0), 1)
    # step 1's coarse packet is lost; step 2's repairs it, but a bad
    # payload takes its good repair copy down with it
    bad = Packet(0, 9, 3, pack_bits(np.array([15] * 3), 4), c2.fec)
    assert_dropped_like_lost(run(s1=fine1, s2=[bad] + fine2),
                             run(s1=fine1, s2=fine2), 1)
    # a bad repair copy is ignored, as if the packet carried none; the
    # packet itself is placed, so nothing is dropped
    bad = Packet(0, 9, 3, c2.payload, pack_bits(np.array([15] * 3), 4))
    got = run(s1=fine1, s2=[bad] + fine2)
    assert_dropped_like_lost(
        got, run(s1=fine1, s2=[Packet(0, 9, 3, c2.payload)] + fine2), 0)
    assert got[0].fec_recovered == 0
    # With the good copy, frames 6-8 come back from step 2's repair copy
    # before they are released.
    rx, releases = run(s1=fine1)
    assert rx.fec_recovered == 1 and rx.n_dropped == 0
    assert releases[2].due == (6, 9) and np.all(releases[2].states == R)
    grid, states = rx.result()
    # step 1's due frames 3-5 rest on coarse cells step 0 carried, so
    # losing step 1's coarse packet cost nothing
    np.testing.assert_array_equal(grid.tokens, tokens)
    assert np.all(states == R)


def test_single_coarse_loss_repaired_before_release():
    # At stride 3 and lookahead 3 the next step's repair copy brings a lost
    # coarse packet's frames back before any of them is due, so nothing is
    # lost with it.
    tokens = make_tokens(48, 15)

    def keep(em, p):
        return not (p.group == 0 and em.step == 2)

    grid, states, releases, _, rx = drive(tokens, keep=keep)
    assert releases[2].due == (6, 9) and np.all(releases[2].states == R)
    assert releases[3].due == (9, 12) and np.all(releases[3].states == R)
    np.testing.assert_array_equal(grid.tokens, tokens)
    assert rx.fec_recovered == 1
    assert rx.n_predicted == 0
    assert np.all(states == R)


def test_stride_one_packets_hold_one_frame():
    stream = StreamConfig(stride=1, lookahead=0, coding_context=4)
    tokens = make_tokens(57, 10)
    grid, states, _, tx, _ = drive(tokens, stream=stream)
    ems = list(StreamSender(GOS, stream, UniformModel(16)).push(tokens))
    assert all(p.n_frames == 1 for em in ems for p in em.packets)
    assert all(len(em.packets) == 2 for em in ems)
    np.testing.assert_array_equal(grid.tokens, tokens)
    assert np.all(states == R) and tx.max_latency == 1


def test_wrong_extent_is_dropped_like_a_loss():
    tokens = make_tokens(58, 15)
    steps, n_live, total = emissions(tokens)
    (c0, _), (c1, f1) = steps[:2]

    def coarse(first, n, fec=c1.fec):
        return Packet(0, first, n, c1.payload, fec)

    def fine(first, n):
        return Packet(1, first, n, f1.payload)

    def run(*extra):
        return run_steps([steps[0], [c1, f1, *extra]] + steps[2:],
                         n_live, total)

    clean = run()
    for bad in (
            # coarse frames that are no step's: too few, too many, shifted
            coarse(6, 2), coarse(5, 4), coarse(7, 2),
            # the next step's coarse frames lie beyond this horizon
            coarse(9, 3),
            # fine frames other than the due ones; (0, 3) arrives late
            fine(3, 2), fine(3, 4), fine(0, 3),
            # a second packet for a head the step already has
            c1, f1):
        assert_dropped_like_lost(run(bad), clean, 1)
    # at the coarse depth a step sends no fine packet and places none
    coarse_only = emissions(tokens, level=1)
    extra = [list(p) for p in coarse_only[0]]
    extra[1].append(fine(3, 3))
    assert_dropped_like_lost(run_steps(extra, *coarse_only[1:], level=1),
                             run_steps(*coarse_only, level=1), 1)
    # an earlier step's coarse packet, replayed, is placed; a repair copy
    # on the first coarse packet has no predecessor and is ignored
    for late in (c0, Packet(0, 0, 6, c0.payload, c1.payload)):
        assert_dropped_like_lost(run(late), clean, 0)
    grid, states = clean[0].result()
    np.testing.assert_array_equal(grid.tokens[:3], tokens[:3])
    np.testing.assert_array_equal(grid.tokens[6:], tokens[6:])


def test_total_outage_releases_the_layer_modes():
    # Every packet is lost: each step releases its coarse cells CONCEALED
    # at their layer's mode and its fine cells INVALID.
    tokens = make_tokens(49, 9)
    model = counted_model(16, 3)
    mode = int(model.predict(Targets(np.array([[0, 0]])))[0])
    grid, states, releases, _, rx = drive(tokens, model=model,
                                          keep=lambda em, p: False)
    assert [r.due for r in releases] == [(0, 3), (3, 6), (6, 9)]
    for r in releases:
        assert r.states.tolist() == [[C, I, I]] * 3
        assert r.tokens[:, 0].tolist() == [mode] * 3
        assert r.valid_depth.tolist() == [1] * 3
    assert np.all(grid.tokens[:, 0] == mode)
    assert np.all(grid.level == 1)
    assert rx.n_predicted == 9 and rx.fec_recovered == 0


def test_tail_outage_keeps_received_coarse_and_conceals_the_rest():
    tokens = make_tokens(50, 9)

    def keep(em, p):
        return em.step == 0

    grid, states, releases, _, rx = drive(tokens, keep=keep)
    # frames 0..2 arrived intact before the outage
    assert np.all(states[0:3] == R)
    # frames 3..5: coarse rode step 0, fine was lost with step 1: the
    # first fine layer is left out as lost, the one above it is invalid
    assert np.all(states[3:6, 0] == R)
    assert np.all(states[3:6, 1] == L)
    assert np.all(states[3:6, 2] == I)
    # frames 6..8: coarse lost and never repaired, predicted
    assert np.all(states[6:9, 0] == C)
    assert np.all(states[6:9, 1:] == I)
    assert rx.n_predicted == 3
    assert grid.level.tolist() == [3, 3, 3, 1, 1, 1, 1, 1, 1]
    np.testing.assert_array_equal(grid.tokens[3:6, 0], tokens[3:6, 0])


def test_replayed_coarse_never_rewrites_released_frames():
    T = 12
    tokens = make_tokens(51, T)
    tokens[1, 0] = 7  # distinguishable from the concealed guess
    model = UniformModel(16)
    tx = StreamSender(GOS, STREAM, model)
    rx = StreamReceiver(GOS, STREAM, model)
    ems = []
    for t in range(T):
        ems.extend(tx.push(tokens[t:t + 1]))
    tail, total = tx.flush()
    ems.extend(tail)

    held = [p for p in ems[0].packets if p.group == 0]
    assert [(p.first_frame, p.n_frames) for p in held] == [(0, 6)]
    r0 = rx.step([p for p in ems[0].packets if p not in held])
    # frames 0..2 lost their coarse layer: it is released CONCEALED at the
    # layer's mode, and the fine layers that arrived are cut
    assert r0.states.tolist() == [[C, I, I]] * 3
    assert rx.n_predicted == 3 and rx.fec_recovered == 0
    guess = int(r0.tokens[1, 0])
    assert guess != 7
    # step 1's repair copy brings frames 3..5 back before their release
    r1 = rx.step(ems[1].packets)
    assert np.all(r1.states[:, 0] == R)
    assert rx.fec_recovered == 1

    # the held packet arrives two steps late, with a replay of step 1's
    # coarse packet, after frames 0..5 were released
    replay = [p for p in ems[1].packets if p.group == 0]
    rx.step(list(held) + replay + list(ems[2].packets))
    rx.finish([ems[3].packets], total)
    grid, states = rx.result()
    # released rows are final regardless of what arrives afterwards
    assert grid.tokens[1, 0] == guess
    assert states[1, 0] == C
    # the late duplicate's repair targeted released frames: not counted
    assert rx.fec_recovered == 1
    # the late packets are placed, not dropped
    assert rx.n_dropped == 0


def test_replay_from_before_the_window_is_placed_like_a_lost_packet():
    # Coarse packets of steps 1 and 2, and the repair copies they carry,
    # name frames released long before step 15's window: replayed there,
    # they are placed, change nothing and are not dropped.
    tokens = make_tokens(64, 60)
    steps, n_live, total = emissions(tokens)
    dirty = [list(p) for p in steps]
    dirty[15] += [p for p in steps[1] + steps[2] if p.group == 0]
    # step 2's coarse frames end at frame 12, and step 15's window starts
    # at its first due frame
    assert 12 <= stream_step(15, STREAM)[0].start
    assert_dropped_like_lost(run_steps(dirty, n_live, total),
                             run_steps(steps, n_live, total), 0)


def test_sender_guards():
    tokens = make_tokens(52, 12)
    tx = StreamSender(GOS, STREAM, UniformModel(16))
    with pytest.raises(ValueError, match="n_layers"):
        tx.push(tokens[:, :2])
    bad = tokens.copy()
    bad[0, 0] = 16
    with pytest.raises(ValueError, match="vocabulary"):
        tx.push(bad)
    bad[0, 0] = -1
    with pytest.raises(ValueError, match="vocabulary"):
        tx.push(bad)
    # the layers at and above the level are never sent, so a level-limited
    # sender takes any values there and sends what it sends with zeros
    junk = tokens.copy()
    junk[:, 2] = [-1, 16, 99, -7] * 3
    zeroed = tokens.copy()
    zeroed[:, 2] = 0

    def sent(frames):
        limited = StreamSender(GOS, STREAM, UniformModel(16), level=2)
        return limited.push(frames) + limited.flush()[0]

    assert sent(junk) == sent(zeroed)
    bad = junk.copy()
    bad[0, 1] = 16  # layer 1 is below the level
    with pytest.raises(ValueError, match="vocabulary"):
        StreamSender(GOS, STREAM, UniformModel(16), level=2).push(bad)
    tx.push(tokens)
    tx.flush()
    with pytest.raises(RuntimeError, match="flushed"):
        tx.push(tokens[:1])
    with pytest.raises(RuntimeError, match="flushed"):
        tx.flush()
    with pytest.raises(ValueError, match="level"):
        StreamSender(GOS, STREAM, UniformModel(16), level=0)
    with pytest.raises(ValueError, match="level"):
        StreamSender(GOS, STREAM, UniformModel(16), level=4)


def test_receiver_guards():
    tokens = make_tokens(53, 12)
    model = UniformModel(16)
    tx = StreamSender(GOS, STREAM, model)
    ems = list(tx.push(tokens))
    tail, total = tx.flush()

    with pytest.raises(ValueError, match="level"):
        StreamReceiver(GOS, STREAM, model, level=5)

    rx = StreamReceiver(GOS, STREAM, model)
    with pytest.raises(RuntimeError, match="not finished"):
        rx.result()
    # a fine packet of step 1 in step 0 is outside the due batch: dropped
    stray = next(p for p in (ems + tail)[1].packets if p.group > 0)
    release = rx.step(list(ems[0].packets) + [stray])
    assert rx.n_dropped == 1
    assert np.all(release.states == R)
    np.testing.assert_array_equal(release.tokens, tokens[:3])

    # a total short of the frames the live steps carried, up to step 0's
    # horizon, frame 5
    with pytest.raises(ValueError, match="total"):
        rx.step([], total=5)

    rx2 = StreamReceiver(GOS, STREAM, model)
    all_ems = ems + tail
    with pytest.raises(DecodeError, match="before all frames"):
        rx2.finish([e.packets for e in all_ems[:-1]], total)

    rx3 = StreamReceiver(GOS, STREAM, model)
    rx3.finish([e.packets for e in all_ems], total)
    with pytest.raises(RuntimeError, match="finished"):
        rx3.step([])


def test_stream_with_trained_model_decodes_bit_exactly():
    # a non-uniform model must agree between sender and receiver
    rng = np.random.default_rng(54)
    T = 18
    tokens = np.zeros((T, 3), dtype=np.int32)
    tokens[:, 0] = rng.integers(0, 16, size=T)
    tokens[:, 1] = (tokens[:, 0] + 1) % 16
    tokens[:, 2] = 3
    model = train_count_model([TokenGrid(tokens, np.full(T, 3), 16)], 16, 3)
    grid, states, _, tx, _ = drive(tokens, model=model)
    np.testing.assert_array_equal(grid.tokens, tokens)
    assert np.all(states == R)


def test_a_cadence_past_the_default_coding_context_streams():
    """coding_context and conceal_context have no effect, so a cadence
    whose stride + lookahead passes their default of 12 builds and streams
    bit-exactly; a lost step is concealed."""
    stream = StreamConfig(stride=10, lookahead=5)
    assert stream.coding_context == stream.conceal_context == 12
    tokens = make_tokens(55, 47)
    grid, states, releases, tx, _ = drive(tokens, stream=stream)
    np.testing.assert_array_equal(grid.tokens, tokens)
    assert np.all(states == R)
    assert [r.due for r in releases] == [(0, 10), (10, 20), (20, 30),
                                         (30, 40), (40, 47)]
    assert tx.max_latency <= 15
    _, states, _, _, rx = drive(tokens, stream=stream,
                                keep=lambda em, p: em.step != 2)
    assert (states == C).any() and rx.n_predicted > 0


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_step_packing(data):
    """Whatever the cadence, level and drops: a step sends at most one
    coarse packet and one fine packet, the coarse extents tile the stream
    once, the fine extent is the due frames whenever the level is above
    the coarse depth, a lossless stream is bit-exact, every RECEIVED cell
    is the sent token, and the latency bound holds."""
    gos = data.draw(st.sampled_from([GOS, GosConfig(4, 2, 2, 5),
                                     GosConfig(5, 1, 1, 4)]))
    stride = data.draw(st.integers(1, 4))
    lookahead = data.draw(st.integers(0, 3))
    cfg = StreamConfig(stride, lookahead)
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers))
    n_frames = data.draw(st.integers(1, 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tokens = rng.integers(0, 16, size=(n_frames, gos.n_layers))
    tokens[:, level:] = 0
    lossless = data.draw(st.booleans())

    def keep(em, p):
        return lossless or data.draw(st.booleans())

    grid, states, _, tx, _ = drive(tokens, keep=keep, level=level,
                                   gos=gos, stream=cfg)
    # drive() hands the packets to the receiver; replay the sender alone
    # for the emissions themselves
    replay = StreamSender(gos, cfg, UniformModel(16), level=level)
    ems = list(replay.push(tokens))
    ems += replay.flush()[0]
    groups = [1] if level > gos.n_coarse else []
    covered = []
    for em in ems:
        assert len(em.packets) <= 2
        coarse = [p for p in em.packets if p.group == 0]
        fine = [p for p in em.packets if p.group > 0]
        assert len(coarse) <= 1
        extent = stream_coarse(em.step, cfg, n_frames)
        assert [range(p.first_frame, p.first_frame + p.n_frames)
                for p in coarse] == ([extent] if len(extent) else [])
        covered += list(extent)
        due = stream_step(em.step, cfg, n_frames)[0]
        assert (due.start, due.stop) == em.due
        assert [(p.group, p.first_frame, p.n_frames) for p in fine] == \
            [(j, due.start, len(due)) for j in groups]
    assert covered == list(range(n_frames))
    enc = states[:, :level]
    rec = enc == R
    np.testing.assert_array_equal(grid.tokens[:, :level][rec],
                                  tokens[:, :level][rec])
    if lossless:
        assert rec.all()
        np.testing.assert_array_equal(grid.tokens[:, :level],
                                      tokens[:, :level])
    assert tx.max_latency <= stride + lookahead


def test_unreadable_copy_does_not_hide_its_coarse_packet():
    # A coarse packet claims its head only once its payload reads, so an
    # unreadable copy that arrives first is dropped and the packet after
    # it is still placed.
    cfg = StreamConfig(1, 1)
    tokens = make_tokens(57, 8, vocab=10)
    tokens[:, 2:] = 0
    model = UniformModel(10)  # 4-bit coarse tokens: 10..15 do not exist
    steps, n_live, total = emissions(tokens, model, level=2, stream=cfg)
    kw = dict(model=model, level=2, stream=cfg)
    clean = run_steps(steps, n_live, total, **kw)
    # step 1 carries frame 2's coarse layer, under its first due frame's
    # fine layer
    coarse = steps[1][0]
    assert (coarse.group, coarse.first_frame, coarse.n_frames) == (0, 2, 1)
    for payload in (b"", pack_bits([15], 4)):
        dirty = [list(packets) for packets in steps]
        dirty[1].insert(0, Packet(0, 2, 1, payload, coarse.fec))
        assert_dropped_like_lost(run_steps(dirty, n_live, total, **kw),
                                 clean, 1)


def test_unreadable_fine_copy_does_not_hide_its_fine_packet():
    # Every fine copy is kept until one decodes, so an unreadable copy
    # that arrives first is dropped and the packet after it still fills
    # the step's fine slice. No canonical payload ends in a zero byte.
    tokens = make_tokens(60, 12)
    steps, n_live, total = emissions(tokens)
    clean = run_steps(steps, n_live, total)
    fine = steps[1][1]
    assert (fine.group, fine.first_frame, fine.n_frames) == (1, 3, 3)
    copy = Packet(1, 3, 3, fine.payload + b"\x00")
    for at in (0, 2):
        dirty = [list(packets) for packets in steps]
        dirty[1].insert(at, copy)
        got = run_steps(dirty, n_live, total)
        assert_dropped_like_lost(got, clean, 1)
        np.testing.assert_array_equal(got[0].result()[0].tokens, tokens)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_unusable_packets_are_dropped_like_losses(data):
    """Whatever the cadence, level, drops and order of arrival within a
    step: duplicates, foreign heads, wrong extents, late fine packets,
    out-of-vocabulary coarse payloads and unreadable copies of the step's
    fine packet, delivered or lost, added to the steps never raise, leave
    every release and the result as they were without them, and are each
    counted once in ``n_dropped``."""
    gos = data.draw(st.sampled_from([GOS, GosConfig(4, 2, 2, 5)]))
    stride = data.draw(st.integers(1, 4), label="stride")
    lookahead = data.draw(st.integers(0, 3), label="lookahead")
    cfg = StreamConfig(stride, lookahead)
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers), label="level")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tokens = rng.integers(0, 10, size=(data.draw(st.integers(1, 30)),
                                       gos.n_layers))
    tokens[:, level:] = 0
    model = UniformModel(10)  # 4-bit coarse tokens: 10..15 do not exist
    steps, n_live, total = emissions(tokens, model, gos=gos, stream=cfg,
                                     level=level)
    clean, dirty, n_junk = [], [], 0
    for i, packets in enumerate(steps):
        due, horizon = stream_step(i, cfg, None if i < n_live else total)
        keep = [p for p in packets if data.draw(st.booleans())]
        lost_coarse = [p for p in packets if p.group == 0 and p not in keep]
        late_fine = [p for earlier in steps[:i] for p in earlier if p.group]
        junk = []
        for _ in range(data.draw(st.integers(0, 3))):
            kind = data.draw(st.sampled_from(("dup", "foreign", "extent",
                                              "late", "oov", "fine")))
            if kind == "dup" and keep:
                junk.append(data.draw(st.sampled_from(keep)))
            elif kind == "foreign":
                # a fine packet is foreign at the coarse depth only
                junk.append(data.draw(st.sampled_from([
                    Packet(0, horizon + 1, 1, b""),
                    Packet(int(level == gos.n_coarse), due.start + len(due),
                           1, b"")
                ])))
            elif kind == "extent" and packets:
                p = data.draw(st.sampled_from(packets))
                junk.append(Packet(p.group, p.first_frame, p.n_frames + 1,
                                   p.payload, p.fec))
            elif kind == "late" and late_fine:
                junk.append(data.draw(st.sampled_from(late_fine)))
            elif kind == "oov" and lost_coarse:
                p = lost_coarse[0]
                junk.append(Packet(0, p.first_frame, p.n_frames, pack_bits(
                    [15] * (p.n_frames * gos.n_coarse), 4), p.fec))
            elif kind == "fine" and any(p.group for p in packets):
                # no canonical payload ends in a zero byte; every copy is
                # read
                p = next(p for p in packets if p.group)
                junk.append(Packet(1, p.first_frame, p.n_frames,
                                   p.payload + b"\x00"))
        clean.append(keep)
        dirty.append(data.draw(st.permutations(keep + junk)))
        n_junk += len(junk)
    kw = dict(model=model, level=level, gos=gos, stream=cfg)
    want = run_steps(clean, n_live, total, **kw)
    assert want[0].n_dropped == 0
    assert_dropped_like_lost(run_steps(dirty, n_live, total, **kw), want,
                             n_junk)


def test_long_streams_hold_one_window():
    """Neither end keeps the stream's history: after 5 000 frames, pushed
    one at a time or in blocks, the sender holds at most one step's
    window, of stride + lookahead frames, and the frames pushed past its
    last horizon, the receiver at most one window, each in at most
    2 * stride + lookahead rows, and the streams added no step plan after
    frame 500."""
    W = STREAM.stride + STREAM.lookahead
    model = UniformModel(16)
    tokens = make_tokens(61, 5000)
    streaming._step_plan.cache_clear()
    for blocks in ([1] * 5000, [7, 500, 1, 1493, 2999]):
        tx = StreamSender(GOS, STREAM, model)
        rx = StreamReceiver(GOS, STREAM, model)
        pushed, horizon, n_plans = 0, -1, None
        for n in blocks:
            for em in tx.push(tokens[pushed:pushed + n]):
                rx.step(em.packets)
                horizon = em.horizon
            pushed += n
            held = tx._frames
            assert held.hi == pushed
            assert held.hi - held.lo <= W + pushed - (horizon + 1)
            held = rx._frames
            assert held.hi == horizon + 1 and held.hi - held.lo <= W
            if n_plans is None and pushed >= 500:
                n_plans = streaming._step_plan.cache_info().currsize
        assert streaming._step_plan.cache_info().currsize == n_plans
        for frames in (tx._frames, rx._frames):
            assert all(len(a) <= W + STREAM.stride for a in frames.arrays)
        tail, total = tx.flush()
        rx.finish([em.packets for em in tail], total)
        grid, states = rx.result()
        np.testing.assert_array_equal(grid.tokens, tokens)
        assert np.all(states == R)
    # a 500-frame stream flushes into the same tail plans
    n_plans = streaming._step_plan.cache_info().currsize
    drive(tokens[:500])
    assert streaming._step_plan.cache_info().currsize == n_plans


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_windowed_ends_match_the_full_history_reference(data):
    """Whatever the cadence, level, pushes and delivery, the windowed ends
    emit byte-identical packets, make the same releases, counts and
    result as the full-history reference ends. Deliveries lose packets,
    duplicate them, hand them over a step late or a step early, replay
    packets of released steps and flip their bytes."""
    gos = data.draw(st.sampled_from([GOS, GosConfig(4, 2, 2, 5),
                                     GosConfig(5, 1, 1, 4)]))
    stride = data.draw(st.integers(1, 4), label="stride")
    lookahead = data.draw(st.integers(0, 3), label="lookahead")
    cfg = StreamConfig(stride, lookahead)
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers), label="level")
    model = counted_model(10, gos.n_layers)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_frames = data.draw(st.integers(1, 60), label="n_frames")
    tokens = rng.integers(0, 10, size=(n_frames, gos.n_layers))
    tokens[:, 1:] = (tokens[:, :1] + np.arange(1, gos.n_layers)) % 10
    tokens[rng.random(tokens.shape) < 0.3] = 0
    blocks = data.draw(st.sampled_from(["frame", "random", "all"]))
    cuts = {"frame": np.arange(1, n_frames),
            "random": np.cumsum(rng.integers(1, 9, size=n_frames)),
            "all": []}[blocks]

    ems = []
    for ends in ((StreamSender, StreamReceiver),
                 (ReferenceStreamSender, ReferenceStreamReceiver)):
        tx = ends[0](gos, cfg, model, level=level)
        live = [em for block in np.split(tokens, cuts)
                for em in tx.push(block)]
        tail, total = tx.flush()
        ems.append((live, tail, tx))
    (live, tail, tx), (ref_live, ref_tail, ref_tx) = ems
    assert len(live) == len(ref_live) and len(tail) == len(ref_tail)
    for a, b in zip(live + tail, ref_live + ref_tail):
        assert (a.step, a.due, a.horizon) == (b.step, b.due, b.horizon)
        assert [p.to_bytes() for p in a.packets] == \
            [p.to_bytes() for p in b.packets]
    assert tx.report == ref_tx.report
    assert tx.max_latency == ref_tx.max_latency

    # one delivery, handed to both receivers
    loss = data.draw(st.sampled_from([0.0, 0.1, 0.4, 0.9]), label="loss")
    sent = [list(em.packets) for em in live + tail]
    steps = [[] for _ in sent]
    for i, packets in enumerate(sent):
        for p in packets:
            fate = rng.random()
            if fate < loss:
                continue
            to = i
            if fate > 0.9 and i + 1 < len(steps):
                to = i + 1  # a step late
            elif 0.8 < fate <= 0.85 and i:
                to = i - 1  # a step early
            steps[to].append(p)
            if 0.85 < fate <= 0.9:
                steps[to].append(p)  # duplicated
        if i >= 2 and rng.random() < 0.3:  # a replay of a released step
            old = sent[int(rng.integers(i - 1))]
            if old:
                steps[i].append(old[int(rng.integers(len(old)))])
    for packets in steps:
        for k, p in enumerate(packets):
            if rng.random() < 0.1:
                packets[k] = flip(p, rng)
        rng.shuffle(packets)

    rxs, releases = [], []
    for ends in ((StreamSender, StreamReceiver),
                 (ReferenceStreamSender, ReferenceStreamReceiver)):
        rx = ends[1](gos, cfg, model, level=level)
        got = [rx.step(packets) for packets in steps[:len(live)]]
        got += rx.finish(steps[len(live):], total)
        rxs.append(rx)
        releases.append(got)
    (rx, ref_rx), (got, want) = rxs, releases
    for a, b in zip(got, want, strict=True):
        assert a.due == b.due
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.valid_depth, b.valid_depth)
    for name in ("n_dropped", "fec_recovered", "n_predicted"):
        assert getattr(rx, name) == getattr(ref_rx, name), name
    (grid, states), (ref_grid, ref_states) = rx.result(), ref_rx.result()
    np.testing.assert_array_equal(grid.tokens, ref_grid.tokens)
    np.testing.assert_array_equal(grid.level, ref_grid.level)
    np.testing.assert_array_equal(states, ref_states)

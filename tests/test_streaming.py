"""Streaming transceiver: buffering, latency, finality, loss behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenwire.context import CountModel, UniformModel
from tokenwire.dependency import stream_coarse, stream_step
from tokenwire.errors import DecodeError
from tokenwire.grid import GosConfig, StreamConfig, TokenState
from tokenwire.streaming import StreamReceiver, StreamSender
from tokenwire.transport import Packet, pack_bits

GOS = GosConfig(6, 3, (0, 1, 2, 3))
STREAM = StreamConfig(stride=3, lookahead=3, coding_context=12,
                      conceal_context=12)

R = int(TokenState.RECEIVED)
L = int(TokenState.LOST)
I = int(TokenState.INVALID)
C = int(TokenState.CONCEALED)


def make_tokens(seed: int, n_frames: int, vocab: int = 16) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, vocab, size=(n_frames, 3)).astype(np.int32)


def drive(tokens, keep=None, model=None, level=None, cfl=2,
          gos=GOS, stream=STREAM):
    """Push one frame at a time through a sender/receiver pair.

    ``keep(emission, packet)`` decides delivery; default keeps everything.
    """
    model = UniformModel(16) if model is None else model
    tx = StreamSender(gos, stream, model, level=level)
    rx = StreamReceiver(gos, stream, model, level=level,
                        conceal_fine_layers=cfl)
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
    # one coarse packet up to the horizon, then one packet per fine group
    # holding the three due frames
    assert [(p.group, p.first_frame, p.n_frames) for p in em.packets] == \
        [(0, 0, 6), (1, 0, 3), (2, 0, 3)]
    assert tx.push(tokens[6:7]) == [] and tx.push(tokens[7:8]) == []
    ems = tx.push(tokens[8:9])
    assert len(ems) == 1 and ems[0].step == 1
    assert ems[0].due == (3, 6) and ems[0].horizon == 8
    assert [(p.group, p.first_frame, p.n_frames) for p in ems[0].packets] \
        == [(0, 6, 3), (1, 3, 3), (2, 3, 3)]


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
    # each step sends one packet per fine group over its due frames
    fine = [[(p.group, p.first_frame, p.n_frames) for p in e.packets
             if p.group > 0] for e in ems]
    assert fine == [[(1, lo, hi - lo), (2, lo, hi - lo)]
                    for lo, hi in (e.due for e in ems)]


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
    assert rx.case_counts == {} and rx.n_blackouts == 0
    assert rx.fec_recovered == 0


def test_level_truncation_drops_upper_groups():
    tokens = make_tokens(45, 12)
    grid, states, releases, tx, _ = drive(tokens, level=2)
    assert tx.report.n_fine_tokens == 12  # one fine layer per frame
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
    # Fine slices are coded against coarse cells only, so one lost fine
    # packet costs its own cells, those of its step's due frames, and no
    # later frame's.
    T = 18
    tokens = make_tokens(47, T)

    def keep(em, p):
        return not (p.group == 1 and em.step == 1)

    grid, states, releases, _, rx = drive(tokens, keep=keep)
    r1 = releases[1]
    assert r1.due == (3, 6)
    assert r1.states.tolist() == [[R, C, I]] * 3
    assert r1.valid_depth.tolist() == [2, 2, 2]
    # the released copy is final: the result never rewrites those rows
    np.testing.assert_array_equal(grid.tokens[3:6], r1.tokens)
    assert np.all(states[:3] == R) and np.all(states[6:] == R)
    np.testing.assert_array_equal(grid.tokens[:3], tokens[:3])
    np.testing.assert_array_equal(grid.tokens[6:], tokens[6:])
    assert rx.case_counts == {3: 3}
    assert rx.n_blackouts == 0


def test_mangled_fine_payload_is_concealed_like_a_drop():
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
        return [Packet(p.gos_id, p.unit, p.group, p.first_frame, p.n_frames,
                       p.payload + b"\x00") if hit(p) else p
                for p in em.packets]

    releases = [rx.step(carry(em)) for t in range(len(tokens))
                for em in tx.push(tokens[t:t + 1])]
    tail, total = tx.flush()
    releases += rx.finish([carry(em) for em in tail], total)
    grid, states = rx.result()
    assert releases[0].states.tolist() == [[R, C, I]] * 3
    np.testing.assert_array_equal(states, dropped[1])
    np.testing.assert_array_equal(grid.tokens, dropped[0].tokens)
    assert rx.case_counts == dropped[4].case_counts


def test_foreign_packets_are_rejected_without_growing_the_buffer():
    tokens = make_tokens(55, 12)
    model = UniformModel(16)
    tx = StreamSender(GOS, STREAM, model)
    ems = list(tx.push(tokens))
    tail, total = tx.flush()
    rx = StreamReceiver(GOS, STREAM, model)
    rx.step(ems[0].packets)
    rows = len(rx._tokens)
    coarse = next(p for p in ems[1].packets if p.group == 0)
    far = Packet(20000, coarse.unit, 0, 20000 * GOS.gos_len + coarse.unit - 1,
                 coarse.n_frames, coarse.payload)
    with pytest.raises(DecodeError, match="horizon"):
        rx.step(list(ems[1].packets) + [far])
    bad_unit = Packet(0, GOS.gos_len + 1, 0, 6, 3, coarse.payload)
    with pytest.raises(DecodeError, match="unit"):
        rx.step(list(ems[1].packets) + [bad_unit])
    assert len(rx._tokens) == rows
    # A rejected step changes nothing: the stream carries on losslessly.
    for em in ems[1:]:
        rx.step(em.packets)
    rx.finish([e.packets for e in tail], total)
    grid, states = rx.result()
    np.testing.assert_array_equal(grid.tokens, tokens)
    assert np.all(states == R)


def unapplied(rx, step_packets, match):
    """Assert that stepping ``rx`` with ``step_packets`` raises a
    DecodeError matching ``match`` and leaves the receiver as it was."""
    before = (rx._next_step, rx._released, rx.fec_recovered,
              rx._tokens.copy(), rx._states.copy(), dict(rx.case_counts))
    with pytest.raises(DecodeError, match=match):
        rx.step(step_packets)
    assert (rx._next_step, rx._released, rx.fec_recovered) == before[:3]
    np.testing.assert_array_equal(rx._tokens, before[3])
    np.testing.assert_array_equal(rx._states, before[4])
    assert rx.case_counts == before[5]


def split(em):
    """(the coarse packet, the fine packets) of one emission."""
    coarse = [p for p in em.packets if p.group == 0]
    assert len(coarse) == 1
    return coarse[0], [p for p in em.packets if p.group > 0]


def test_out_of_vocabulary_coarse_leaves_the_step_unapplied():
    tokens = make_tokens(56, 15, vocab=10)
    model = UniformModel(10)  # 4-bit coarse tokens: 10..15 do not exist
    tx = StreamSender(GOS, STREAM, model)
    ems = list(tx.push(tokens))
    tail, total = tx.flush()
    rx = StreamReceiver(GOS, STREAM, model)
    c0, fine0 = split(ems[0])
    bad = pack_bits(np.array([15] * 6), 4)
    # a bad payload
    unapplied(rx, [Packet(c0.gos_id, c0.unit, 0, 0, 6, bad)] + fine0,
              "vocabulary")
    rx.step(ems[0].packets)
    # step 1's coarse packet is lost; step 2's packet repairs it, unless
    # its repair copy is bad
    rx.step(split(ems[1])[1])
    c2, fine2 = split(ems[2])
    unapplied(rx, [Packet(c2.gos_id, c2.unit, 0, 9, 3, c2.payload,
                          pack_bits(np.array([15] * 3), 4))] + fine2,
              "vocabulary")
    # The same step with the good copy goes through; frames 6-8 come back
    # from step 2's repair copy before they are released.
    r2 = rx.step(ems[2].packets)
    assert rx.fec_recovered == 1
    assert r2.due == (6, 9) and np.all(r2.states == R)
    for em in ems[3:]:
        rx.step(em.packets)
    rx.finish([e.packets for e in tail], total)
    grid, states = rx.result()
    np.testing.assert_array_equal(grid.tokens[:, 0], tokens[:, 0])
    # step 1's fine slices were coded against the lost coarse frames
    assert states[3:6].tolist() == [[R, I, I]] * 3
    assert np.all(np.delete(states, range(3, 6), axis=0) == R)
    np.testing.assert_array_equal(np.delete(grid.tokens, range(3, 6), axis=0),
                                  np.delete(tokens, range(3, 6), axis=0))


def test_single_coarse_loss_repaired_before_release():
    # At stride 3 and lookahead 3 the next step's repair copy brings a lost
    # coarse packet's frames back before any of them is due. Only the fine
    # slices of the step that lost it, coded against those frames, are
    # lost with it.
    tokens = make_tokens(48, 15)

    def keep(em, p):
        return not (p.group == 0 and em.step == 2)

    grid, states, releases, _, rx = drive(tokens, keep=keep)
    assert releases[3].due == (9, 12) and np.all(releases[3].states == R)
    np.testing.assert_array_equal(grid.tokens[9:12], tokens[9:12])
    assert rx.fec_recovered == 1
    assert rx.case_counts == {}
    assert states[6:9].tolist() == [[R, I, I]] * 3
    assert np.all(np.delete(states, range(6, 9), axis=0) == R)


def test_stride_one_packets_hold_one_frame():
    stream = StreamConfig(stride=1, lookahead=0, coding_context=4,
                          conceal_context=4)
    tokens = make_tokens(57, 10)
    grid, states, _, tx, _ = drive(tokens, stream=stream)
    ems = list(StreamSender(GOS, stream, UniformModel(16)).push(tokens))
    assert all(p.n_frames == 1 for em in ems for p in em.packets)
    assert all(len(em.packets) == 1 + GOS.n_fine_groups for em in ems)
    np.testing.assert_array_equal(grid.tokens, tokens)
    assert np.all(states == R) and tx.max_latency == 1


def test_wrong_extent_is_refused_and_leaves_the_receiver_unchanged():
    tokens = make_tokens(58, 15)
    model = UniformModel(16)
    tx = StreamSender(GOS, STREAM, model)
    ems = list(tx.push(tokens))
    tail, total = tx.flush()
    rx = StreamReceiver(GOS, STREAM, model)
    rx.step(ems[0].packets)
    c1, fine1 = split(ems[1])
    f1 = fine1[0]

    def coarse(first, n, fec=c1.fec):
        return Packet(first // 6, first % 6 + 1, 0, first, n, c1.payload,
                      fec)

    def fine(first, n, group=f1.group):
        return Packet(first // 6, first % 6 + 1, group, first, n, f1.payload)

    for bad, match in (
            # coarse frames that are no step's: too few, too many, shifted
            (coarse(6, 2), "coarse frames"),
            (coarse(5, 4), "coarse frames"),
            (coarse(7, 2), "coarse frames"),
            # the next step's coarse frames lie beyond this horizon
            (coarse(9, 3), "horizon"),
            # the first coarse packet has no predecessor to repair
            (Packet(0, 1, 0, 0, 6, ems[0].packets[0].payload, c1.payload),
             "first coarse packet"),
            # fine frames other than the due ones
            (fine(3, 2), "due batch"),
            (fine(3, 4), "due batch"),
            (fine(0, 3), "due batch"),
            # a layer group the level does not send
            (fine(3, 3, group=3), "layer group"),
            # (gos_id, unit) naming another frame than first_frame
            (Packet(0, 5, 0, 6, 3, c1.payload, c1.fec), "first frame")):
        unapplied(rx, [c1] + fine1[1:] + [bad], match)
    # an earlier step's coarse packet, replayed, is accepted
    rx.step(list(ems[1].packets) + [ems[0].packets[0]])
    for em in ems[2:]:
        rx.step(em.packets)
    rx.finish([e.packets for e in tail], total)
    grid, states = rx.result()
    np.testing.assert_array_equal(grid.tokens, tokens)
    assert np.all(states == R)


def test_total_blackout_releases_zeros_then_holds():
    tokens = make_tokens(49, 9)
    grid, states, releases, _, rx = drive(tokens, keep=lambda em, p: False)
    assert rx.n_blackouts == 3
    assert np.all(states == C)
    assert np.all(grid.tokens == 0)
    assert np.all(grid.level == 3)
    assert rx.case_counts == {} and rx.fec_recovered == 0


def test_tail_outage_keeps_received_coarse_and_conceals_the_rest():
    tokens = make_tokens(50, 9)

    def keep(em, p):
        return em.step == 0

    grid, states, releases, _, rx = drive(tokens, keep=keep)
    # frames 0..2 arrived intact before the outage
    assert np.all(states[0:3] == R)
    # frames 3..5: coarse rode step 0, fine was lost with step 1; the due
    # window still contains the lost coarse of 6..8 so fine stays invalid
    assert np.all(states[3:6, 0] == R)
    assert np.all(states[3:6, 1:] == I)
    # frames 6..8: coarse lost and never repaired, concealed as Case 1
    assert np.all(states[6:9, 0] == C)
    assert np.all(states[6:9, 1:] == I)
    assert rx.case_counts == {1: 3}
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
    # frames 0..2 have no coarse in the window: a blackout, held at zeros
    assert np.all(r0.states == C) and rx.n_blackouts == 1
    assert rx.fec_recovered == 0
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


def test_sender_guards():
    tokens = make_tokens(52, 12)
    tx = StreamSender(GOS, STREAM, UniformModel(16))
    with pytest.raises(ValueError, match="n_layers"):
        tx.push(tokens[:, :2])
    bad = tokens.copy()
    bad[0, 0] = 16
    with pytest.raises(ValueError, match="vocabulary"):
        tx.push(bad)
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
    stray = next(p for p in (ems + tail)[1].packets if p.group > 0)
    with pytest.raises(DecodeError, match="due batch"):
        rx.step(list(ems[0].packets) + [stray])

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
    model = CountModel(vocab=16, n_layers=3)
    fit = np.concatenate([tokens, tokens])
    from tokenwire.context import MaskedQuery, View
    for t in range(len(fit)):
        lo, hi = max(0, t - 6), min(len(fit), t + 4)
        vis = np.full(hi - lo, 3, dtype=np.int64)
        vis[t - lo] = 1
        cells = np.array([(t, 1), (t, 2)], dtype=np.int64)
        q = MaskedQuery(fit, [View(lo, vis, cells)])
        model.observe(q, fit[cells[:, 0], cells[:, 1]])
    grid, states, _, tx, _ = drive(tokens, model=model)
    np.testing.assert_array_equal(grid.tokens, tokens)
    assert np.all(states == R)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_step_packing(data):
    """Whatever the cadence, level and drops: a step sends at most one
    coarse packet and one packet per fine group, the coarse extents tile
    the stream once, the fine extents are the due frames, a lossless
    stream is bit-exact, every RECEIVED cell is the sent token, and the
    latency bound holds."""
    gos = data.draw(st.sampled_from([GOS, GosConfig(4, 2, (0, 2, 3, 5)),
                                     GosConfig(5, 1, (0, 1, 4))]))
    stride = data.draw(st.integers(1, 4))
    lookahead = data.draw(st.integers(0, 3))
    span = stride + lookahead
    cfg = StreamConfig(stride, lookahead,
                       data.draw(st.integers(span, span + 6)),
                       data.draw(st.integers(span, span + 6)))
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
    groups = [j for j in range(1, gos.n_fine_groups + 1)
              if len(gos.group_layers(j, level))]
    covered = []
    for em in ems:
        assert len(em.packets) <= 1 + gos.n_fine_groups
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
        for p in em.packets:
            assert p.first_frame == p.gos_id * gos.gos_len + p.unit - 1
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

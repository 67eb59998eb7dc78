"""Streaming transceiver: buffering, latency, finality, loss behavior."""

import numpy as np
import pytest

from tokenwire.context import CountModel, UniformModel
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
    coarse = [p for p in em.packets if p.group == 0]
    fine = [p for p in em.packets if p.group > 0]
    assert [p.first_frame for p in coarse] == [0, 1, 2, 3, 4, 5]
    # three due frames, two fine groups each
    assert len(fine) == 6
    assert sorted({p.first_frame for p in fine}) == [0, 1, 2]
    assert tx.push(tokens[6:7]) == [] and tx.push(tokens[7:8]) == []
    ems = tx.push(tokens[8:9])
    assert len(ems) == 1 and ems[0].step == 1
    assert ems[0].due == (3, 6) and ems[0].horizon == 8
    assert [p.first_frame for p in ems[0].packets if p.group == 0] == [6, 7, 8]


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
    # coarse frames are emitted exactly once across the whole stream
    coarse = [p.first_frame for e in ems for p in e.packets if p.group == 0]
    assert coarse == list(range(10))
    fine = [p.first_frame for e in ems for p in e.packets if p.group > 0]
    assert sorted(set(fine)) == list(range(10))
    assert all(fine.count(f) == 2 for f in range(10))


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
    # packet costs its own frame's cells and no later frame's.
    T = 18
    tokens = make_tokens(47, T)

    def keep(em, p):
        return not (p.group == 1 and p.first_frame == 1)

    grid, states, releases, _, rx = drive(tokens, keep=keep)
    r0 = releases[0]
    assert r0.states[0].tolist() == [R, R, R]
    assert r0.states[1].tolist() == [R, C, I]
    assert r0.states[2].tolist() == [R, R, R]
    assert r0.valid_depth.tolist() == [3, 2, 3]
    # the released copy is final: the result never rewrites those rows
    np.testing.assert_array_equal(grid.tokens[0:3], r0.tokens)
    assert np.all(states[0] == R) and np.all(states[2:] == R)
    np.testing.assert_array_equal(grid.tokens[2:], tokens[2:])
    assert rx.case_counts == {3: 1}
    assert rx.n_blackouts == 0


def test_mangled_fine_payload_is_concealed_like_a_drop():
    # The streaming twin of the batch truncated-payload test: a fine packet
    # whose payload does not decode leaves its cells LOST, exactly as if
    # the packet had been dropped.
    tokens = make_tokens(47, 18)

    def hit(p):
        return p.group == 1 and p.first_frame == 1

    dropped = drive(tokens, keep=lambda em, p: not hit(p))
    model = UniformModel(16)
    tx = StreamSender(GOS, STREAM, model)
    rx = StreamReceiver(GOS, STREAM, model)

    def carry(em):
        return [Packet(p.gos_id, p.unit, p.group, p.first_frame, p.n_frames,
                       b"") if hit(p) else p for p in em.packets]

    releases = [rx.step(carry(em)) for t in range(len(tokens))
                for em in tx.push(tokens[t:t + 1])]
    tail, total = tx.flush()
    releases += rx.finish([carry(em) for em in tail], total)
    grid, states = rx.result()
    assert releases[0].states[1].tolist() == [R, C, I]
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
    far = Packet(20000, coarse.unit, 0, coarse.first_frame, 1, coarse.payload)
    with pytest.raises(DecodeError, match="horizon"):
        rx.step(list(ems[1].packets) + [far])
    bad_unit = Packet(0, GOS.gos_len + 1, 0, 6, 1, coarse.payload)
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


def test_out_of_vocabulary_coarse_leaves_the_step_unapplied():
    tokens = make_tokens(56, 12, vocab=10)
    model = UniformModel(10)  # 4-bit coarse tokens: 10..15 do not exist
    tx = StreamSender(GOS, STREAM, model)
    ems = list(tx.push(tokens))
    tail, total = tx.flush()
    rx = StreamReceiver(GOS, STREAM, model)
    first = list(ems[0].packets)
    i3 = next(i for i, p in enumerate(first)
              if p.group == 0 and p.first_frame == 3)
    p3, p4 = first[i3], first[i3 + 1]
    bad = pack_bits(np.array([15]), 4)
    # a bad payload; then, with frame 3's packet lost, a bad repair copy
    for damaged in (
            [Packet(p3.gos_id, p3.unit, 0, 3, 1, bad, p3.fec), p4],
            [Packet(p4.gos_id, p4.unit, 0, 4, 1, p4.payload, bad)]):
        before = (rx._next_step, rx._tokens.copy(), rx._states.copy())
        with pytest.raises(DecodeError, match="vocabulary"):
            rx.step(first[:i3] + damaged + first[i3 + 2:])
        assert rx._next_step == before[0]
        np.testing.assert_array_equal(rx._tokens, before[1])
        np.testing.assert_array_equal(rx._states, before[2])
    # The same step without the bad packet goes through; frame 3's coarse
    # comes back from frame 4's repair copy.
    rx.step(first[:i3] + first[i3 + 1:])
    assert rx.fec_recovered == 1
    for em in ems[1:]:
        rx.step(em.packets)
    rx.finish([e.packets for e in tail], total)
    grid, states = rx.result()
    np.testing.assert_array_equal(grid.tokens, tokens)
    assert np.all(states == R)


def test_single_coarse_loss_repaired_in_batch():
    tokens = make_tokens(48, 12)

    def keep(em, p):
        return not (p.group == 0 and p.first_frame == 2)

    grid, states, _, _, rx = drive(tokens, keep=keep)
    np.testing.assert_array_equal(grid.tokens, tokens)
    assert np.all(states == R)
    assert rx.fec_recovered == 1
    assert rx.case_counts == {}


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

    held = [p for p in ems[0].packets
            if p.group == 0 and p.first_frame in (1, 2)]
    assert len(held) == 2
    r0 = rx.step([p for p in ems[0].packets if p not in held])
    # frame 1 unrepairable (frame 2's packet held back), frame 2 repaired
    assert r0.states[1, 0] == C and r0.states[2, 0] == R
    assert rx.fec_recovered == 1
    guess = int(r0.tokens[1, 0])
    assert guess != 7

    # the held packets arrive one step late, after frames 0..2 were released
    rx.step(list(held) + list(ems[1].packets))
    rx.step(ems[2].packets)
    rx.finish([ems[3].packets], total)
    grid, states = rx.result()
    # released rows are final regardless of what arrives afterwards
    assert grid.tokens[1, 0] == guess
    assert states[1, 0] == C
    # the late duplicate's repair targeted a released frame: not counted
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

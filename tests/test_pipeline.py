"""Batch send/receive: round trips, repair, concealment plumbing."""

import numpy as np
import pytest

from tokenwire.context import CountModel, MaskedQuery, UniformModel
from tokenwire.dependency import slice_conditions
from tokenwire.errors import DecodeError
from tokenwire.grid import (
    GosConfig,
    SliceId,
    TokenGrid,
    TokenState,
    build_slice_grid,
)
from tokenwire.pipeline import receive, receive_tokens, send, send_tokens
from tokenwire.transport import Packet
from conftest import random_grid

R = int(TokenState.RECEIVED)
L = int(TokenState.LOST)
I = int(TokenState.INVALID)
C = int(TokenState.CONCEALED)

GOS = GosConfig(6, 3, (0, 1, 2, 3))


def reship(packets):
    """Serialize and reparse, as the wire would."""
    return [Packet.from_bytes(p.to_bytes()) for p in packets]


def drop(packets, *sids):
    gone = set(sids)
    return [p for p in packets
            if SliceId(p.gos_id, p.unit, p.group) not in gone]


def test_lossless_round_trip():
    rng = np.random.default_rng(20)
    grid = random_grid(rng, 12, 3, 16)
    sg = build_slice_grid(12, GOS, 3)
    model = UniformModel(16)
    packets, rep = send_tokens(grid, sg, model)
    assert rep.n_packets == len(sg.slices) == len(packets)
    out, states, rrep = receive_tokens(reship(packets), sg, model)
    np.testing.assert_array_equal(out.tokens, grid.tokens)
    np.testing.assert_array_equal(out.level, grid.level)
    assert (states[:, :3] == R).all()
    assert rrep.state_counts == {"received": 36, "lost": 0, "invalid": 0,
                                 "concealed": 0}
    assert rrep.n_windows == 0 and rrep.case_counts == {}


def test_lossless_with_tail_gos_and_partial_level():
    rng = np.random.default_rng(21)
    gos = GosConfig(6, 3, (0, 2, 4, 6))
    grid = random_grid(rng, 9, 6, 8, level=5)
    sg = build_slice_grid(9, gos, 5)
    model = UniformModel(8)
    packets, _ = send_tokens(grid, sg, model)
    out, states, _ = receive_tokens(reship(packets), sg, model)
    live = np.arange(6)[None, :] < grid.level[:, None]
    np.testing.assert_array_equal(out.tokens[live], grid.tokens[live])
    assert (out.level == 5).all()


def test_fec_recovers_dropped_coarse():
    rng = np.random.default_rng(22)
    grid = random_grid(rng, 12, 3, 16)
    sg = build_slice_grid(12, GOS, 3)
    model = UniformModel(16)
    packets, rep = send_tokens(grid, sg, model, fec=True)
    assert rep.fec_bits > 0
    # Drop one coarse packet; its successor's repair copy saves it, even
    # across the group-of-slices boundary.
    for victim in (SliceId(0, 2, 0), SliceId(0, 3, 0)):
        got, _, rrep = receive_tokens(drop(packets, victim), sg, model)
        assert rrep.fec_recovered == 1
        np.testing.assert_array_equal(got.tokens, grid.tokens)
        assert rrep.state_counts["received"] == 36


def test_last_coarse_has_no_repair():
    rng = np.random.default_rng(23)
    grid = random_grid(rng, 12, 3, 16)
    sg = build_slice_grid(12, GOS, 3)
    model = UniformModel(16)
    packets, _ = send_tokens(grid, sg, model, fec=True)
    got, states, rrep = receive_tokens(drop(packets, SliceId(1, 3, 0)),
                                       sg, model)
    assert rrep.fec_recovered == 0
    # Unit 3 of the second group covers frames 8 and 11; their coarse is
    # gone for good and concealment steps in.
    assert rrep.case_counts.get(1, 0) == 2
    assert states[8, 0] == C and states[11, 0] == C


def test_fec_off_leaves_coarse_lost():
    rng = np.random.default_rng(24)
    grid = random_grid(rng, 6, 3, 16)
    sg = build_slice_grid(6, GOS, 3)
    model = UniformModel(16)
    packets, rep = send_tokens(grid, sg, model, fec=False)
    assert rep.fec_bits == 0
    assert all(p.fec == b"" for p in packets)
    got, states, rrep = receive_tokens(drop(packets, SliceId(0, 2, 0)),
                                       sg, model)
    assert rrep.fec_recovered == 0
    # Unit 2 covers frames 1 and 4: coarse concealed, fine unusable.
    for t in (1, 4):
        assert states[t, 0] == C
        assert (states[t, 1:] == I).all()
        assert got.level[t] == 1
    # Remaining frames decoded their coarse but their fine slices were
    # conditioned on the lost coarse, so they are invalid too.
    assert got.level[0] == 1


def test_lost_fine_slice_costs_only_its_own_cells():
    rng = np.random.default_rng(25)
    grid = random_grid(rng, 6, 3, 16)
    sg = build_slice_grid(6, GOS, 3)
    model = UniformModel(16)
    packets, _ = send_tokens(grid, sg, model)
    got, states, rrep = receive_tokens(drop(packets, SliceId(0, 1, 1)),
                                       sg, model)
    # Unit 1 holds frames 0 and 3: their layer 1 is concealed, and layer 2,
    # delivered but stacked on a concealed cell, stays out of the prefix.
    for t in (0, 3):
        assert states[t].tolist() == [R, C, I]
        assert got.level[t] == 2
    # Every other frame decodes in full: no fine slice is coded against
    # another's cells.
    for t in (1, 2, 4, 5):
        assert (states[t] == R).all()
        np.testing.assert_array_equal(got.tokens[t], grid.tokens[t])
    assert rrep.case_counts == {3: 2}


def test_blackout_repeats_last_good_frame():
    rng = np.random.default_rng(26)
    grid = random_grid(rng, 12, 3, 16)
    sg = build_slice_grid(12, GOS, 3)
    model = UniformModel(16)
    packets, _ = send_tokens(grid, sg, model)
    survivors = [p for p in packets if p.gos_id == 0]
    got, states, rrep = receive_tokens(survivors, sg, model,
                                       conceal_window=6)
    assert rrep.n_blackouts == 1
    assert (states[6:12] == C).all()
    for t in range(6, 12):
        np.testing.assert_array_equal(got.tokens[t], grid.tokens[5])
    # Concealed cells count as usable depth.
    assert (got.level == 3).all()


def test_blackout_with_no_history_holds_silence():
    rng = np.random.default_rng(27)
    grid = random_grid(rng, 6, 3, 16)
    sg = build_slice_grid(6, GOS, 3)
    model = UniformModel(16)
    got, states, rrep = receive_tokens([], sg, model)
    assert rrep.n_blackouts == rrep.n_windows == 1
    assert (states[:, :3] == C).all()
    assert not got.tokens.any()


def test_receive_rejects_bad_packets():
    rng = np.random.default_rng(28)
    grid = random_grid(rng, 6, 3, 16)
    sg = build_slice_grid(6, GOS, 3)
    model = UniformModel(16)
    packets, _ = send_tokens(grid, sg, model)
    with pytest.raises(DecodeError, match="layout"):
        receive_tokens(packets + [Packet(9, 1, 0, 0, 2, b"")], sg, model)
    with pytest.raises(DecodeError, match="duplicate"):
        receive_tokens(packets + [packets[0]], sg, model)
    moved = Packet(0, 1, 0, 1, 2, packets[0].payload)
    with pytest.raises(DecodeError, match="extent"):
        receive_tokens([moved] + packets[1:], sg, model)


def test_refused_fine_payload_is_concealed():
    rng = np.random.default_rng(29)
    grid = random_grid(rng, 6, 3, 16)
    sg = build_slice_grid(6, GOS, 3)
    model = UniformModel(16)
    packets, _ = send_tokens(grid, sg, model)
    out = []
    for p in packets:
        if SliceId(p.gos_id, p.unit, p.group) == SliceId(0, 2, 1):
            # no canonical payload ends in a zero byte
            p = Packet(p.gos_id, p.unit, p.group, p.first_frame,
                       p.n_frames, p.payload + b"\x00")
        out.append(p)
    got, states, rrep = receive_tokens(out, sg, model)
    # The broken slice's cells end up concealed, not silently wrong, and
    # the layers stacked on top of them stay out of the usable prefix.
    assert states[1, 1] == C and states[4, 1] == C
    assert rrep.state_counts["concealed"] >= 2
    assert got.level[1] == 2 and got.level[4] == 2


def test_sender_report_accounting():
    rng = np.random.default_rng(30)
    grid = random_grid(rng, 12, 3, 16)
    sg = build_slice_grid(12, GOS, 3)
    packets, rep = send_tokens(grid, sg, UniformModel(16))
    assert rep.n_packets == rep.n_coarse_packets + rep.n_fine_packets
    assert rep.total_bits == (rep.header_bits + rep.coarse_bits +
                              rep.fec_bits + rep.fine_bits)
    assert rep.header_bits == 24 * 8 * len(packets)
    assert rep.n_coarse_tokens == 12 and rep.n_fine_tokens == 24
    assert rep.fine_bits >= rep.ideal_fine_bits
    assert sum(rep.per_layer_ideal_bits.values()) == \
        pytest.approx(rep.ideal_fine_bits)
    assert rep.fallback_counts == {"uniform": 24}
    assert rep.fine_bits_per_token == rep.fine_bits / 24
    # Uniform vocab 16 costs exactly 4 bits per token before overhead.
    assert rep.ideal_fine_bits == pytest.approx(4.0 * 24)


def test_state_counts_partition_cells():
    rng = np.random.default_rng(31)
    grid = random_grid(rng, 12, 3, 16)
    sg = build_slice_grid(12, GOS, 3)
    model = UniformModel(16)
    packets, _ = send_tokens(grid, sg, model)
    kept = [p for i, p in enumerate(packets) if i % 3 != 1]
    _, _, rrep = receive_tokens(kept, sg, model)
    assert sum(rrep.state_counts.values()) == 12 * 3
    assert set(rrep.case_counts) <= {1, 2, 3}


def test_trained_model_beats_uniform_on_structured_tokens():
    """A count model fitted to the token stream should shrink fine payloads
    well below the uniform baseline on highly regular grids."""
    rng = np.random.default_rng(32)
    T = 60
    tokens = np.zeros((T, 3), dtype=np.int64)
    # a periodic coarse motif; the fine layers follow from the coarse cells
    # the coding view shows
    tokens[:, 0] = rng.integers(0, 16, size=4)[np.arange(T) % 4]
    tokens[:, 1] = (tokens[:, 0] + 1) % 16
    tokens[:, 2] = (3 * tokens[:, 0]) % 16
    grid = TokenGrid(tokens, np.full(T, 3), 16)
    sg = build_slice_grid(T, GOS, 3)

    model = CountModel(vocab=16, n_layers=3)
    conds = slice_conditions(sg)
    for sid, cells in sg.slices.items():
        if sid.group > 0:
            q = MaskedQuery(grid.tokens,
                            [conds[int(cells[0, 0])].view(cells)])
            model.observe(q, grid.tokens[cells[:, 0], cells[:, 1]])

    _, rep_count = send_tokens(grid, sg, model)
    _, rep_uni = send_tokens(grid, sg, UniformModel(16))
    # Payloads are whole bytes, so the model's gain shows up cleanly in
    # ideal bits and only partially in packed bits: each 2-symbol slice
    # costs the uniform model exactly its 8 ideal bits, one byte, and no
    # payload this model codes here is empty, so the two tie. With one
    # unit per group-of-slices, under the same conditions, a slice holds
    # 6 symbols and the model must save whole bytes.
    assert rep_count.ideal_fine_bits < 0.5 * rep_uni.ideal_fine_bits
    assert rep_count.fine_bits <= rep_uni.fine_bits
    assert rep_count.fallback_counts.get("conditional", 0) > 0
    sg1 = build_slice_grid(T, GosConfig(6, 1, GOS.layer_bounds), 3)
    _, rep_count1 = send_tokens(grid, sg1, model)
    _, rep_uni1 = send_tokens(grid, sg1, UniformModel(16))
    assert rep_count1.fine_bits < rep_uni1.fine_bits

    # The receiver decodes against the same model bit-exactly.
    packets, _ = send_tokens(grid, sg, model)
    out, _, _ = receive_tokens(reship(packets), sg, model)
    np.testing.assert_array_equal(out.tokens, grid.tokens)


def test_send_tokens_validation():
    rng = np.random.default_rng(33)
    sg = build_slice_grid(6, GOS, 3)
    with pytest.raises(ValueError, match="shape"):
        send_tokens(random_grid(rng, 7, 3, 16), sg, UniformModel(16))
    ragged = random_grid(rng, 6, 3, 16)
    ragged.level[2] = 2
    with pytest.raises(ValueError, match="uniformly"):
        send_tokens(ragged, sg, UniformModel(16))
    with pytest.raises(ValueError, match="vocab"):
        send_tokens(random_grid(rng, 6, 3, 8), sg, UniformModel(16))


def test_audio_wrappers_lossless(mini_stack, mini_cfg):
    from tokenwire.audio import analyze
    from tokenwire.synthetic import synth_audio
    clip = synth_audio(mini_cfg.clip_frames * mini_cfg.frame_len, 99,
                       mini_cfg.sample_rate)
    feats = analyze(clip, mini_stack.codec_cfg)
    packets, _ = send(feats, mini_stack.codec, mini_stack.count_model,
                      mini_stack.gos)
    audio, grid, rrep = receive(
        packets, np.ones(len(packets), dtype=bool), mini_stack.codec,
        mini_stack.codec_cfg, mini_stack.count_model, mini_stack.gos,
        level=mini_cfg.n_layers, n_frames=mini_cfg.clip_frames,
        sample_rate=mini_cfg.sample_rate)
    assert rrep.state_counts["received"] == sum(rrep.state_counts.values())
    assert audio.samples.shape == clip.samples.shape
    assert audio.sample_rate == mini_cfg.sample_rate
    # Lossless transport: reconstruction equals the codec round trip.
    from tokenwire.audio import synthesize
    from tokenwire.rvq import dequantize, quantize
    direct = synthesize(
        dequantize(quantize(feats, mini_stack.codec, mini_cfg.n_layers),
                   mini_stack.codec),
        mini_stack.codec_cfg, mini_cfg.sample_rate)
    np.testing.assert_allclose(audio.samples, direct.samples, atol=1e-12)


def test_receive_trace_mismatch(mini_stack, mini_cfg):
    with pytest.raises(ValueError, match="trace"):
        receive([], [True], mini_stack.codec, mini_stack.codec_cfg,
                mini_stack.count_model, mini_stack.gos, level=3,
                n_frames=6)

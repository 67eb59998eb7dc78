"""Batch send/receive: round trips, repair, concealment plumbing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenwire.context import CountModel, Targets, train_count_model
from tokenwire.grid import (
    GosConfig,
    SliceId,
    StreamConfig,
    TokenGrid,
    TokenState,
    build_slice_grid,
    initial_states,
)
from tokenwire.pipeline import (SliceSender, _layout, decode, receive,
                                receive_tokens, send, send_tokens)
from tokenwire.streaming import StreamSender, _Steps, stream_step
from tokenwire.transport import Packet, pack_bits
from conftest import counted_model, flip, random_grid, slice_of
from scalar_reference import reference_decode, reference_send

R = int(TokenState.RECEIVED)
L = int(TokenState.LOST)
I = int(TokenState.INVALID)
C = int(TokenState.CONCEALED)

GOS = GosConfig(6, 3, 1, 3)


def reship(packets):
    """Serialize and reparse, as the wire would."""
    return [Packet.from_bytes(p.to_bytes()) for p in packets]


def drop(sg, packets, *sids):
    gone = set(sids)
    return [p for p in packets if slice_of(sg, p) not in gone]


def test_lossless_round_trip():
    rng = np.random.default_rng(20)
    grid = random_grid(rng, 12, 3, 16)
    sg = build_slice_grid(12, GOS, 3)
    model = CountModel(16, 3)
    packets, rep = send_tokens(grid, sg, model)
    assert rep.n_packets == len(sg.slices) == len(packets)
    out, states, rrep = receive_tokens(reship(packets), sg, model)
    np.testing.assert_array_equal(out.tokens, grid.tokens)
    np.testing.assert_array_equal(out.level, grid.level)
    assert (states[:, :3] == R).all()
    assert rrep.state_counts == {"received": 36, "lost": 0, "invalid": 0,
                                 "concealed": 0}
    assert rrep.n_predicted == 0


def test_lossless_with_tail_gos_and_partial_level():
    rng = np.random.default_rng(21)
    gos = GosConfig(6, 3, 2, 6)
    grid = random_grid(rng, 9, 6, 8, level=5)
    sg = build_slice_grid(9, gos, 5)
    model = CountModel(8, gos.n_layers)
    packets, _ = send_tokens(grid, sg, model)
    out, states, _ = receive_tokens(reship(packets), sg, model)
    live = np.arange(6)[None, :] < grid.level[:, None]
    np.testing.assert_array_equal(out.tokens[live], grid.tokens[live])
    assert (out.level == 5).all()


def test_long_group_of_slices_round_trips():
    """No header field bounds the unit count: 300 units of one frame
    each cross the wire and decode bit-exactly."""
    rng = np.random.default_rng(32)
    grid = random_grid(rng, 300, 3, 16)
    sg = build_slice_grid(300, GosConfig(300, 300, 1, 3), 3)
    model = CountModel(16, 3)
    packets, _ = send_tokens(grid, sg, model)
    out, states, _ = receive_tokens(reship(packets), sg, model)
    np.testing.assert_array_equal(out.tokens, grid.tokens)
    assert (states == R).all()


def test_fec_recovers_dropped_coarse():
    rng = np.random.default_rng(22)
    grid = random_grid(rng, 12, 3, 16)
    sg = build_slice_grid(12, GOS, 3)
    model = CountModel(16, 3)
    packets, rep = send_tokens(grid, sg, model, fec=True)
    assert rep.fec_bits > 0
    # Drop one coarse packet; its successor's repair copy saves it, even
    # across the group-of-slices boundary.
    for victim in (SliceId(0, 2, 0), SliceId(0, 3, 0)):
        got, _, rrep = receive_tokens(drop(sg, packets, victim), sg, model)
        assert rrep.fec_recovered == 1
        np.testing.assert_array_equal(got.tokens, grid.tokens)
        assert rrep.state_counts["received"] == 36


def test_last_coarse_has_no_repair():
    rng = np.random.default_rng(23)
    grid = random_grid(rng, 12, 3, 16)
    sg = build_slice_grid(12, GOS, 3)
    model = CountModel(16, 3)
    packets, _ = send_tokens(grid, sg, model, fec=True)
    got, states, rrep = receive_tokens(drop(sg, packets, SliceId(1, 3, 0)),
                                       sg, model)
    assert rrep.fec_recovered == 0
    # Unit 3 of the second group covers frames 8 and 11; their coarse is
    # gone for good and concealment predicts it. Only those two frames are
    # damaged, and their fine layers are cut.
    assert rrep.n_predicted == 2
    assert states[8, 0] == C and states[11, 0] == C
    assert (states[[8, 11], 1:] == I).all()
    assert (np.delete(states, [8, 11], axis=0) == R).all()


def test_fec_off_leaves_coarse_lost():
    rng = np.random.default_rng(24)
    grid = random_grid(rng, 6, 3, 16)
    sg = build_slice_grid(6, GOS, 3)
    model = CountModel(16, 3)
    packets, rep = send_tokens(grid, sg, model, fec=False)
    assert rep.fec_bits == 0
    assert all(p.fec == b"" for p in packets)
    got, states, rrep = receive_tokens(drop(sg, packets, SliceId(0, 2, 0)),
                                       sg, model)
    assert rrep.fec_recovered == 0
    # Unit 2 covers frames 1 and 4: coarse concealed, fine unusable.
    for t in (1, 4):
        assert states[t, 0] == C
        assert (states[t, 1:] == I).all()
        assert got.level[t] == 1
    # The other frames' slices depend on no cell of unit 2: they decode
    # in full.
    for t in (0, 2, 3, 5):
        assert (states[t] == R).all()
        assert got.level[t] == 3
        np.testing.assert_array_equal(got.tokens[t], grid.tokens[t])


def test_lost_fine_slice_costs_only_its_own_cells():
    rng = np.random.default_rng(25)
    grid = random_grid(rng, 6, 3, 16)
    sg = build_slice_grid(6, GOS, 3)
    model = CountModel(16, 3)
    packets, _ = send_tokens(grid, sg, model)
    got, states, rrep = receive_tokens(drop(sg, packets, SliceId(0, 1, 1)),
                                       sg, model)
    # Unit 1 holds frames 0 and 3: their lost fine layers are left out,
    # not guessed; the first is lost, and the one stacked on it is out of
    # the prefix.
    for t in (0, 3):
        assert states[t].tolist() == [R, L, I]
        assert got.level[t] == 1
    # Every other frame decodes in full: no fine slice is coded against
    # another's cells.
    for t in (1, 2, 4, 5):
        assert (states[t] == R).all()
        np.testing.assert_array_equal(got.tokens[t], grid.tokens[t])
    assert rrep.n_predicted == 0


def test_coarse_outage_takes_the_layer_modes():
    """Frames with no packet at all, however many in a row and from the
    clip's first frame on, take their coarse layer's mode; their fine
    layers are cut. Nothing is repeated from a frame before them."""
    rng = np.random.default_rng(26)
    grid = random_grid(rng, 12, 3, 16)
    sg = build_slice_grid(12, GOS, 3)
    model = counted_model(16, 3)
    mode = int(model.predict(Targets(np.array([[0, 0]])))[0])
    packets, _ = send_tokens(grid, sg, model)
    survivors = [p for p in packets if p.first_frame < GOS.gos_len]
    for kept, lost in ((survivors, range(6, 12)), ([], range(12))):
        got, states, rrep = receive_tokens(kept, sg, model)
        assert rrep.n_predicted == len(lost)
        assert (states[lost.start:, 0] == C).all()
        assert (states[lost.start:, 1:] == I).all()
        assert (got.tokens[lost.start:, 0] == mode).all()
        assert (got.level[lost.start:] == 1).all()
        assert (states[:lost.start] == R).all()


def assert_dropped_like_lost(got, want, n_dropped):
    """``got`` and ``want`` are receive_tokens results: the same tokens,
    levels, states and report, except that ``got`` dropped ``n_dropped``
    more packets (and so saw that many more)."""
    (grid, states, rep), (want_grid, want_states, want_rep) = got, want
    np.testing.assert_array_equal(grid.tokens, want_grid.tokens)
    np.testing.assert_array_equal(grid.level, want_grid.level)
    np.testing.assert_array_equal(states, want_states)
    fields = ("n_frames", "level", "fec_recovered", "state_counts",
              "n_predicted")
    assert [getattr(rep, f) for f in fields] == \
        [getattr(want_rep, f) for f in fields]
    assert rep.n_dropped == want_rep.n_dropped + n_dropped
    assert rep.n_packets_seen == want_rep.n_packets_seen + n_dropped


def test_receive_rejects_bad_packets():
    # A packet the layout cannot place, or whose payload does not unpack,
    # is dropped and counted, and the clip decodes as if it were lost.
    rng = np.random.default_rng(28)
    grid = random_grid(rng, 6, 3, 16)
    sg = build_slice_grid(6, GOS, 3)
    model = CountModel(16, 3)
    packets, _ = send_tokens(grid, sg, model)
    clean = receive_tokens(packets, sg, model)
    assert clean[2].n_dropped == 0
    # foreign slices: past the clip, at offset n_units of a
    # group-of-slices (no unit starts there), in the middle of a unit
    for foreign in (Packet(0, 54, 2, b""), Packet(0, 3, 2, b""),
                    Packet(1, 4, 1, b"")):
        assert_dropped_like_lost(
            receive_tokens(packets + [foreign], sg, model), clean, 1)
    # a fine packet where the level sends none
    sg1 = build_slice_grid(6, GOS, 1)
    packets1, _ = send_tokens(random_grid(rng, 6, 3, 16, level=1), sg1,
                              model)
    assert_dropped_like_lost(
        receive_tokens(packets1 + [Packet(1, 0, 2, b"")], sg1, model),
        receive_tokens(packets1, sg1, model), 1)
    # a duplicate, before or after its original
    assert_dropped_like_lost(
        receive_tokens(packets + [packets[5]], sg, model), clean, 1)
    assert_dropped_like_lost(
        receive_tokens(packets[5:6] + packets, sg, model), clean, 1)
    # unit 1's coarse slice holds frames 0 and 3, not 0 to 2; unit 2's
    # packet repairs it
    wide = Packet(0, 0, 3, packets[0].payload)
    without = receive_tokens(packets[1:], sg, model)
    assert without[2].fec_recovered == 1
    assert_dropped_like_lost(receive_tokens([wide] + packets[1:], sg, model),
                             without, 1)
    # unit 2's coarse payload is too short to unpack, so its packet goes
    # with the repair copy of unit 1's lost slice, which stays lost; unit
    # 3's packet repairs unit 2's slice
    assert packets[1].group == 0 and packets[1].fec
    short = Packet(0, 1, 2, b"", packets[1].fec)
    without = receive_tokens(packets[2:], sg, model)
    assert without[2].n_predicted == 2
    assert without[2].fec_recovered == 1
    assert_dropped_like_lost(
        receive_tokens([short] + packets[2:], sg, model), without, 1)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_unusable_packets_are_dropped_like_losses(data):
    """Whatever the model, the drop mask and the order of arrival:
    duplicates, foreign heads, wrong extents, out-of-vocabulary coarse
    payloads, unreadable copies of any sent fine packet, delivered or
    lost, and records that do not parse (None) added to a delivery never
    raise, leave the decode as it was without them, and are each counted
    once in ``n_dropped``. Records damaged under a recomputed CRC parse and may
    decode to wrong tokens, but the receiver takes them without raising
    and its states still partition the encoded cells."""
    n_frames = data.draw(st.integers(1, 20), label="n_frames")
    level = data.draw(st.integers(1, 3), label="level")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    grid = random_grid(rng, n_frames, 3, 10, level=level)
    sg = build_slice_grid(n_frames, GOS, level)
    # 4-bit coarse tokens: 10..15 do not exist
    model = data.draw(st.sampled_from([CountModel(10, 3),
                                       counted_model(10, 3)]),
                      label="model")
    packets, _ = send_tokens(grid, sg, model, fec=data.draw(st.booleans()))
    keep = data.draw(st.lists(st.booleans(), min_size=len(packets),
                              max_size=len(packets)), label="keep")
    arrived = [p for p, k in zip(packets, keep) if k]
    coarse = [p for p in packets if p.group == 0]
    sent_fine = [p for p in packets if p.group]
    junk = []
    for _ in range(data.draw(st.integers(0, 6))):
        kind = data.draw(st.sampled_from(("dup", "foreign", "extent",
                                          "oov", "fine", "garbled")))
        if kind == "dup" and arrived:
            junk.append(data.draw(st.sampled_from(arrived)))
        elif kind == "foreign":
            # past the clip; at the coarse depth, any fine packet
            fine = data.draw(st.booleans())
            first = 0 if fine and level == 1 else n_frames
            junk.append(Packet(int(fine), first + data.draw(
                st.integers(0, 50)), 1, b""))
        elif kind == "extent":
            p = data.draw(st.sampled_from(packets))
            junk.append(Packet(p.group, p.first_frame,
                               p.n_frames + data.draw(st.integers(1, 3)),
                               p.payload, p.fec))
        elif kind == "oov":
            # a lost coarse packet, or a copy of a delivered one
            p = data.draw(st.sampled_from(coarse))
            junk.append(Packet(0, p.first_frame, p.n_frames,
                               pack_bits([15] * p.n_frames, 4), p.fec))
        elif kind == "fine" and sent_fine:
            # no canonical payload ends in a zero byte; every copy is read
            p = data.draw(st.sampled_from(sent_fine))
            junk.append(Packet(1, p.first_frame, p.n_frames,
                               p.payload + b"\x00"))
        elif kind == "garbled":
            # the CRC catches every flipped byte: a record that does not
            # parse arrives as None
            garbled = flip(data.draw(st.sampled_from(packets)), rng,
                           crc=False)
            assert garbled is None
            junk.append(garbled)
    delivery = data.draw(st.permutations(arrived + junk), label="delivery")
    want = receive_tokens(arrived, sg, model)
    assert want[2].n_dropped == 0
    assert_dropped_like_lost(receive_tokens(delivery, sg, model), want,
                             len(junk))

    damaged = [flip(p, rng, crc=True)
               if p is not None and data.draw(st.booleans()) else p
               for p in delivery]
    _, states, rep = receive_tokens(damaged, sg, model)
    encoded = states[:, :level]
    assert np.isin(encoded, [R, L, I, C]).all()
    assert sum(rep.state_counts.values()) == encoded.size
    assert rep.n_packets_seen == len(damaged)


def report_fields(rep) -> dict:
    """Every field of a ``SenderReport``, each float as its ``repr``, so
    that two reports compare equal only when their sums agree to the
    last bit."""
    fields = dataclasses.asdict(rep)
    fields["ideal_fine_bits"] = repr(rep.ideal_fine_bits)
    fields["per_layer_ideal_bits"] = {
        k: repr(v) for k, v in rep.per_layer_ideal_bits.items()}
    return fields


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_send_matches_the_reference_send(data):
    """Whatever the plans, a clip or two of a batch layout, or a stream's
    live steps 0-5 with or without its flushed tail, with FEC on or off
    and any vocabulary from 2 to 1024: ``SliceSender.send`` through each
    plan's send map writes the bytes the reference send writes from the
    raw slices, and keeps the same report, floats to the last bit."""
    gos = data.draw(st.sampled_from([GOS, GosConfig(4, 2, 2, 5),
                                     GosConfig(5, 1, 1, 4)]), label="gos")
    vocab = data.draw(st.one_of(st.sampled_from([2, 3, 1000, 1024]),
                                st.integers(2, 1024)), label="vocab")
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers), label="level")
    fec = data.draw(st.booleans(), label="fec")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # layers from the trained depth up stay unobserved, priced uniform
    trained = data.draw(st.integers(1, gos.n_layers), label="trained")
    model = train_count_model(
        [random_grid(rng, 24, gos.n_layers, vocab, trained)], vocab,
        gos.n_layers)
    if data.draw(st.booleans(), label="stream"):
        cfg = StreamConfig(data.draw(st.integers(1, 4), label="stride"),
                           data.draw(st.integers(0, 3), label="lookahead"))
        # the stream's length leaves exactly ``n_live`` steps live; a
        # frame makes step 0 live at stride 1 and lookahead 0
        n_live = data.draw(st.integers(int(stream_step(0, cfg)[1] < 1), 6),
                           label="live steps")
        total = data.draw(st.integers(
            stream_step(n_live - 1, cfg)[1] + 1 if n_live else 1,
            stream_step(n_live, cfg)[1]), label="total")
        flushed = not n_live or data.draw(st.booleans(), label="flushed")
        stream = rng.integers(0, vocab, size=(total, gos.n_layers))
        steps = _Steps(gos, cfg, level)
        plans = [steps(i, None) for i in range(n_live)]
        if flushed:
            plans += [steps(i, total) for i in range(
                n_live, -(-total // cfg.stride))]
        calls = [(stream[base:base + plan.span].astype(np.int32), plan, base)
                 for base, plan in plans]
    else:
        n_frames = data.draw(st.integers(1, 20), label="n_frames")
        plan = _layout(build_slice_grid(n_frames, gos, level))
        calls = [(random_grid(rng, n_frames, gos.n_layers, vocab,
                              level).tokens, plan, 0)
                 for _ in range(data.draw(st.integers(1, 2), label="clips"))]
    tx, ref = SliceSender(model, fec), SliceSender(model, fec)
    for tokens, plan, base in calls:
        got = tx.send(tokens, plan, base)
        want = reference_send(ref, tokens, plan.slices, base)
        assert [p.to_bytes() for p in got] == [p.to_bytes() for p in want]
    assert report_fields(tx.report) == report_fields(ref.report)


@pytest.mark.parametrize("group", [0, 1])
@pytest.mark.parametrize("bad", [-1, 10, 12, 2**31 - 1])
def test_send_refuses_a_token_outside_the_vocabulary(group, bad):
    # A coarse token is refused as a fine one is, by one check over the
    # sent values: 12 at vocab 10 fits the 4 bits a coarse token is packed
    # in, and would reach the receiver as an unreadable slice. The refused
    # send leaves the report and the repair chain as they were.
    rng = np.random.default_rng(35)
    grid = random_grid(rng, 6, 3, 10)
    plan = _layout(build_slice_grid(6, GOS, 3))
    model = CountModel(10, 3)
    tx, fresh = SliceSender(model), SliceSender(model)
    first = tx.send(grid.tokens, plan)
    assert fresh.send(grid.tokens, plan) == first
    tokens = grid.tokens.copy()
    sent = [c for head, c in plan.slices if head[0] == group]
    tokens[tuple(sent[-1][-1])] = bad
    before = dataclasses.asdict(tx.report)
    with pytest.raises(ValueError, match="vocabulary"):
        tx.send(tokens, plan)
    assert dataclasses.asdict(tx.report) == before
    assert tx.send(grid.tokens, plan) == fresh.send(grid.tokens, plan)
    # a value above the level is never sent, so it is never checked
    level2 = grid.tokens.copy()
    level2[:, 2] = bad
    plan2 = _layout(build_slice_grid(6, GOS, 2))
    assert (SliceSender(model).send(level2, plan2)
            == SliceSender(model).send(grid.tokens, plan2))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_decode_matches_the_reference_decode(data):
    """Whatever the plan, a batch layout's or a live stream step's,
    whatever cells are already received, and whatever arrives, in any
    order: any of the plan's packets, a stream step's also any from up to
    three steps earlier, each any number of times, Nones and copies with
    a flipped byte, ``decode`` through the plan's compiled head map
    returns the counts of the reference decode over the raw map and
    leaves the same tokens and states."""
    gos = data.draw(st.sampled_from([GOS, GosConfig(4, 2, 2, 5),
                                     GosConfig(5, 1, 1, 4)]), label="gos")
    vocab = data.draw(st.sampled_from([10, 16]), label="vocab")
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers), label="level")
    model = counted_model(vocab, gos.n_layers)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans(), label="stream"):
        cfg = StreamConfig(data.draw(st.integers(1, 4), label="stride"),
                           data.draw(st.integers(0, 3), label="lookahead"))
        n_frames = data.draw(st.integers(cfg.stride + cfg.lookahead, 30))
        grid = random_grid(rng, n_frames, gos.n_layers, vocab, level)
        steps = StreamSender(gos, cfg, model, level).push(grid.tokens)
        # the first steps' plans, and the steady one from the step on
        # whose window step 0's coarse frames have left
        i = data.draw(st.integers(0, min(len(steps) - 1, 5)), label="step")
        base, plan = _Steps(gos, cfg, level)(i, None)
        sent = [p for em in steps[max(i - 3, 0):i + 1] for p in em.packets]
        n_rows = plan.span
    else:
        n_frames = data.draw(st.integers(1, 20), label="n_frames")
        grid = random_grid(rng, n_frames, gos.n_layers, vocab, level)
        sg = build_slice_grid(n_frames, gos, level)
        sent, _ = send_tokens(grid, sg, model, fec=data.draw(st.booleans()))
        base, plan, n_rows = 0, _layout(sg), n_frames
    packets = [p for p in sent if data.draw(st.booleans())]
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(["dup", "none", "flip"]))
        p = data.draw(st.sampled_from(sent))
        packets.append(p if kind == "dup" else None if kind == "none"
                       else flip(p, rng, crc=True))
    packets = data.draw(st.permutations(packets))
    tokens = rng.integers(0, vocab, size=(n_rows, gos.n_layers))
    states = initial_states(n_rows, gos.n_layers, level)
    received = rng.random(states.shape) < data.draw(
        st.sampled_from([0.0, 0.2, 0.6]))
    states[received & (np.arange(gos.n_layers) < level)] = R
    want_tokens, want_states = tokens.copy(), states.copy()
    want = reference_decode(model, want_tokens, want_states, packets,
                            plan.by_head, base)
    assert decode(model, tokens, states, packets, plan.heads, base) == want
    np.testing.assert_array_equal(tokens, want_tokens)
    np.testing.assert_array_equal(states, want_states)


def test_only_the_filling_copy_repairs():
    # A repair copy is read only from the copy that filled its slice: an
    # unreadable copy's, or a duplicate's, is dropped with its copy, even
    # when the predecessor it repairs was lost.
    rng = np.random.default_rng(34)
    grid = random_grid(rng, 6, 3, 10)
    sg = build_slice_grid(6, GOS, 3)
    model = CountModel(10, 3)  # 4-bit coarse tokens: 10..15 do not exist
    packets, _ = send_tokens(grid, sg, model)
    first, second = [p for p in packets if p.group == 0][:2]
    rest = [p for p in packets if p not in (first, second)]
    assert second.fec == first.payload
    bare = Packet(0, second.first_frame, second.n_frames, second.payload)
    oov = Packet(0, second.first_frame, second.n_frames,
                 pack_bits([15] * second.n_frames, 4), second.fec)
    assert receive_tokens([second] + rest, sg, model)[2].fec_recovered == 1
    lost_both = receive_tokens(rest, sg, model)
    assert_dropped_like_lost(receive_tokens([oov] + rest, sg, model),
                             lost_both, 1)
    unrepaired = receive_tokens([bare] + rest, sg, model)
    assert unrepaired[2].fec_recovered == 0
    assert_dropped_like_lost(receive_tokens([bare, second] + rest, sg, model),
                             unrepaired, 1)


def test_unreadable_copy_does_not_hide_its_slice():
    # A slice takes the first of its copies whose payload reads, so an
    # unreadable copy that arrives first is dropped and the packet after
    # it still fills the slice.
    rng = np.random.default_rng(31)
    grid = random_grid(rng, 6, 3, 10)
    sg = build_slice_grid(6, GOS, 3)
    model = CountModel(10, 3)  # 4-bit coarse tokens: 10..15 do not exist
    packets, _ = send_tokens(grid, sg, model)
    clean = receive_tokens(packets, sg, model)
    last = [p for p in packets if p.group == 0][-1]
    for payload in (b"", pack_bits([15] * last.n_frames, 4)):
        copy = Packet(0, last.first_frame, last.n_frames, payload, last.fec)
        assert_dropped_like_lost(
            receive_tokens([copy] + packets, sg, model), clean, 1)


def test_unreadable_fine_copy_does_not_hide_its_slice():
    # Every fine copy is kept until one decodes, so an unreadable copy
    # that arrives first is dropped and the packet after it still fills
    # the slice. No canonical payload ends in a zero byte.
    rng = np.random.default_rng(31)
    grid = random_grid(rng, 6, 3, 10)
    sg = build_slice_grid(6, GOS, 3)
    model = CountModel(10, 3)
    packets, _ = send_tokens(grid, sg, model)
    clean = receive_tokens(packets, sg, model)
    first = next(p for p in packets if p.group)
    copy = Packet(1, first.first_frame, first.n_frames,
                  first.payload + b"\x00")
    got = receive_tokens([copy] + packets, sg, model)
    assert_dropped_like_lost(got, clean, 1)
    np.testing.assert_array_equal(got[0].tokens, grid.tokens)
    # after the readable one, the copy is never read, and dropped as well
    assert_dropped_like_lost(receive_tokens(packets + [copy], sg, model),
                             clean, 1)


def test_refused_fine_payload_is_left_out():
    rng = np.random.default_rng(29)
    grid = random_grid(rng, 6, 3, 16)
    sg = build_slice_grid(6, GOS, 3)
    model = CountModel(16, 3)
    packets, _ = send_tokens(grid, sg, model)
    out = []
    for p in packets:
        if slice_of(sg, p) == SliceId(0, 2, 1):
            # no canonical payload ends in a zero byte
            p = Packet(p.group, p.first_frame, p.n_frames,
                       p.payload + b"\x00")
        out.append(p)
    got, states, rrep = receive_tokens(out, sg, model)
    # The broken slice's cells end up lost like a drop, not silently
    # wrong, and the layers stacked on top of them stay out of the usable
    # prefix.
    for t in (1, 4):
        assert states[t].tolist() == [R, L, I]
        assert got.level[t] == 1
    assert rrep.n_predicted == 0
    assert_dropped_like_lost(
        (got, states, rrep),
        receive_tokens(drop(sg, packets, SliceId(0, 2, 1)), sg, model), 1)


def test_sender_report_accounting():
    rng = np.random.default_rng(30)
    grid = random_grid(rng, 12, 3, 16)
    sg = build_slice_grid(12, GOS, 3)
    packets, rep = send_tokens(grid, sg, CountModel(16, 3))
    assert rep.n_packets == rep.n_coarse_packets + rep.n_fine_packets
    assert rep.payload_bits == rep.coarse_bits + rep.fec_bits + rep.fine_bits
    assert rep.total_bits == rep.header_bits + rep.payload_bits
    assert rep.header_bits == 8 * sum(p.header_bytes for p in packets)
    assert rep.total_bits == 8 * sum(len(p.to_bytes()) for p in packets)
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
    model = CountModel(16, 3)
    packets, _ = send_tokens(grid, sg, model)
    kept = [p for i, p in enumerate(packets) if i % 3 != 1]
    _, _, rrep = receive_tokens(kept, sg, model)
    assert sum(rrep.state_counts.values()) == 12 * 3
    # every concealed cell was predicted
    assert rrep.n_predicted == rrep.state_counts["concealed"]


def test_trained_model_beats_uniform_on_structured_tokens():
    """A count model fitted to the token stream should shrink fine payloads
    well below the uniform baseline when each fine layer keeps to a few
    tokens, which its layer row prices."""
    rng = np.random.default_rng(32)
    T = 60
    tokens = np.zeros((T, 3), dtype=np.int64)
    tokens[:, 0] = rng.integers(0, 16, size=4)[np.arange(T) % 4]
    tokens[:, 1] = np.where(np.arange(T) % 4 == 0, 6, 5)
    tokens[:, 2] = np.where(np.arange(T) % 2 == 0, 3, 11)
    grid = TokenGrid(tokens, np.full(T, 3), 16)
    sg = build_slice_grid(T, GOS, 3)
    model = train_count_model([grid], 16, 3)

    _, rep_count = send_tokens(grid, sg, model)
    _, rep_uni = send_tokens(grid, sg, CountModel(16, 3))
    # Payloads are whole bytes, so the model's gain shows up cleanly in
    # ideal bits and only partially in packed bits: each 4-symbol slice
    # costs the uniform model exactly its 16 ideal bits, two bytes, and
    # the model must save whole bytes. With one unit per group-of-slices
    # a slice holds 12 symbols.
    assert rep_count.ideal_fine_bits < 0.5 * rep_uni.ideal_fine_bits
    assert rep_count.fine_bits < rep_uni.fine_bits
    assert rep_count.fallback_counts == {"marginal": 2 * T}
    sg1 = build_slice_grid(T, GosConfig(6, 1, 1, 3), 3)
    _, rep_count1 = send_tokens(grid, sg1, model)
    _, rep_uni1 = send_tokens(grid, sg1, CountModel(16, 3))
    assert rep_count1.fine_bits < rep_uni1.fine_bits

    # The receiver decodes against the same model bit-exactly.
    packets, _ = send_tokens(grid, sg, model)
    out, _, _ = receive_tokens(reship(packets), sg, model)
    np.testing.assert_array_equal(out.tokens, grid.tokens)


def test_send_tokens_validation():
    rng = np.random.default_rng(33)
    sg = build_slice_grid(6, GOS, 3)
    with pytest.raises(ValueError, match="shape"):
        send_tokens(random_grid(rng, 7, 3, 16), sg, CountModel(16, 3))
    ragged = random_grid(rng, 6, 3, 16)
    ragged.level[2] = 2
    with pytest.raises(ValueError, match="uniformly"):
        send_tokens(ragged, sg, CountModel(16, 3))
    with pytest.raises(ValueError, match="vocab"):
        send_tokens(random_grid(rng, 6, 3, 8), sg, CountModel(16, 3))


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


def test_receive_accepts_and_ignores_conceal_fine_layers(mini_stack,
                                                        mini_cfg):
    """``conceal_window`` and ``conceal_fine_layers``, passed as the 10th
    and 11th positional arguments, are accepted and change nothing:
    concealment reads no window, and fine cells are never predicted."""
    from tokenwire.audio import analyze
    from tokenwire.synthetic import synth_audio
    clip = synth_audio(mini_cfg.clip_frames * mini_cfg.frame_len, 98,
                       mini_cfg.sample_rate)
    st = mini_stack
    packets, _ = send(analyze(clip, st.codec_cfg), st.codec, st.count_model,
                      st.gos)
    trace = np.arange(len(packets)) % 3 != 1
    outs = [receive(packets, trace, st.codec, st.codec_cfg, st.count_model,
                    st.gos, mini_cfg.n_layers, mini_cfg.clip_frames,
                    mini_cfg.sample_rate, w, k)
            for w, k in ((12, 0), (1, 2), (99, 7))]
    audio, grid, rrep = outs[0]
    assert rrep.state_counts["lost"] + rrep.state_counts["invalid"] > 0
    for other_audio, other_grid, other_rep in outs[1:]:
        np.testing.assert_array_equal(other_audio.samples, audio.samples)
        np.testing.assert_array_equal(other_grid.tokens, grid.tokens)
        np.testing.assert_array_equal(other_grid.level, grid.level)
        assert other_rep.state_counts == rrep.state_counts
        assert other_rep.n_predicted == rrep.n_predicted


def test_receive_trace_mismatch(mini_stack, mini_cfg):
    with pytest.raises(ValueError, match="trace"):
        receive([], [True], mini_stack.codec, mini_stack.codec_cfg,
                mini_stack.count_model, mini_stack.gos, level=3,
                n_frames=6)

"""Stream step geometry, the prefix rule, loss classification,
concealment."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenwire.context import CountModel, UniformModel
from tokenwire.dependency import (
    classify_loss,
    prefix_depth,
    propagate_invalid,
    stream_coarse,
    stream_step,
    usable_depth,
)
from tokenwire.grid import (
    GosConfig,
    SliceId,
    StreamConfig,
    TokenGrid,
    TokenState,
    build_slice_grid,
)
from tokenwire.pipeline import conceal, receive_tokens, send_tokens
from tokenwire.streaming import StreamReceiver, StreamSender, _Steps
from conftest import counted_model, slice_of

R = int(TokenState.RECEIVED)
L = int(TokenState.LOST)
I = int(TokenState.INVALID)
C = int(TokenState.CONCEALED)


def small_layout(level=3, n_frames=6):
    return build_slice_grid(n_frames, GosConfig(6, 3, 1, 3), level)


def test_stream_step_hand_cases():
    cfg = StreamConfig(stride=3, lookahead=3, coding_context=12)
    assert stream_step(0, cfg) == (range(0, 3), 5)
    assert stream_coarse(0, cfg) == range(0, 6)
    assert stream_coarse(2, cfg) == range(9, 12)
    # Step 4 ends at frame 14, horizon 17; its coarse packet carries the
    # frames after h_3 = 14.
    assert stream_step(4, cfg) == (range(12, 15), 17)
    assert stream_coarse(4, cfg) == range(15, 18)
    # Due frames, horizon and coarse frames clamp at the last frame, and a
    # step after the horizon reached it carries no coarse frames.
    assert stream_step(3, cfg, 10) == (range(9, 10), 9)
    assert stream_coarse(2, cfg, 10) == range(9, 10)
    assert len(stream_coarse(3, cfg, 10)) == 0
    # With lookahead < stride the horizon is lookahead frames past the
    # last due frame, and the coarse packet holds the frames since h_1.
    short = StreamConfig(stride=3, lookahead=1, coding_context=6)
    assert stream_step(2, short) == (range(6, 9), 9)
    assert stream_coarse(2, short) == range(7, 10)


def test_periodic_dependency_structure():
    """A fine slice depends only on the coarse cells below it, which the
    coarse slice of its own unit carries: losing one unit's coarse slice
    cuts that unit's fine cells and no other unit's."""
    sg = small_layout(n_frames=9)
    coarse_of = {}  # frame -> the coarse slice holding its coarse layer
    for sid, cells in sg.slices.items():
        if sid.group == 0:
            coarse_of.update(dict.fromkeys(cells[:, 0].tolist(), sid))
    assert sorted(coarse_of) == list(range(9))
    for sid, cells in sg.slices.items():
        if sid.group:
            assert {coarse_of[t] for t in cells[:, 0].tolist()} == \
                {sid._replace(group=0)}

    rng = np.random.default_rng(3)
    tokens = rng.integers(0, 4, size=(9, 3))
    model = UniformModel(4)
    packets, _ = send_tokens(TokenGrid(tokens, np.full(9, 3), 4), sg, model,
                             fec=False)
    lost = SliceId(0, 2, 0)  # frames 1 and 4
    _, states, _ = receive_tokens(
        [p for p in packets if slice_of(sg, p) != lost], sg, model)
    for t in range(9):
        assert (states[t, 1:] == I).all() == (t in (1, 4)), t
        assert (states[t, 1:] == R).all() == (t not in (1, 4)), t


def gos_strategy():
    return st.builds(
        lambda gos_len, units, n_coarse, n_fine: GosConfig(
            gos_len, min(units, gos_len), n_coarse, n_coarse + n_fine),
        st.integers(1, 8), st.integers(1, 4), st.integers(1, 2),
        st.integers(0, 6))


def stream_emission_order(gos, cfg, n_frames, level):
    """((frame, group), index of its packet in emission order) of every
    frame each packet of a StreamSender carries."""
    tx = StreamSender(gos, cfg, UniformModel(2), level=level)
    ems = tx.push(np.zeros((n_frames, gos.n_layers), dtype=np.int32))
    tail, _ = tx.flush()
    packets = [p for em in ems + tail for p in em.packets]
    return [((f, p.group), i) for i, p in enumerate(packets)
            for f in range(p.first_frame, p.first_frame + p.n_frames)]


@given(gos_strategy(), st.integers(1, 20), st.data())
@settings(max_examples=60, deadline=None)
def test_dependency_is_topological(gos, n_frames, data):
    """The coarse cells under every fine cell, the only cells it depends
    on, are emitted in an earlier packet."""
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers))
    if data.draw(st.sampled_from(["periodic", "streaming"])) == "periodic":
        sg = build_slice_grid(n_frames, gos, level)
        pos = {}  # (frame, group) -> index of its slice in emission order
        for i, (sid, cells) in enumerate(sg.slices.items()):
            pos.update(dict.fromkeys(
                ((t, sid.group) for t in cells[:, 0].tolist()), i))
    else:
        stream = StreamConfig(stride=2, lookahead=1, coding_context=6)
        ordered = stream_emission_order(gos, stream, n_frames, level)
        pos = dict(ordered)
        assert len(pos) == len(ordered)
    assert {t for t, _ in pos} == set(range(n_frames))
    for t, j in pos:
        if j:
            assert pos[(t, 0)] < pos[(t, j)]


def test_streaming_dependency_window():
    """A step reads one window: its due frames through its horizon, which
    hold the frames its coarse packet carries. The step before's coarse
    frames may start before the window."""
    stream = StreamConfig(stride=2, lookahead=1, coding_context=4)
    steps = _Steps(GosConfig(6, 3, 1, 3), stream, 3)
    for i, total in ((0, None), (1, None), (3, None), (4, 10), (6, 13)):
        base, plan = steps(i, total)
        due, horizon = stream_step(i, stream, total)
        assert base == due.start
        assert base + plan.span == horizon + 1
        assert range(base + plan.due.start, base + plan.due.stop) == due
        own = stream_coarse(i, stream, total)
        assert range(base + plan.coarse.start, base + plan.coarse.stop) == own
        assert plan.coarse.start >= 0 and plan.due.start == 0
    # Step 3: frames 6 and 7, horizon 8: the window is [6, 8]. Its coarse
    # packet carries frames 7 and 8 and, as repair, step 2's frames 5 and
    # 6, the first of which lies a row below the window.
    base, plan = steps(3, None)
    assert base == 6 and plan.span == 3
    assert plan.coarse == range(1, 3)
    assert plan.prev[:, 0].tolist() == [-1, 0]


def fine_payloads(packets) -> dict:
    return {(p.first_frame, p.n_frames): p.payload
            for p in packets if p.group}


def two_grids(seed: int, n_frames: int, n_layers: int) -> np.ndarray:
    """Two token grids of 8 symbols whose layers follow the first, as
    ``counted_model`` was trained on, so that their layer rows are
    skewed."""
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, 8, size=(2, n_frames, 1))
    return (tokens + np.arange(n_layers)) % 8


def test_coding_visibility_periodic():
    """The coder of a fine slice sees no cell but the slice's own: under a
    trained model, its payload is the same whatever every other cell of
    the clip holds."""
    gos = GosConfig(6, 3, 2, 6)
    sg = build_slice_grid(12, gos, 5)
    model = counted_model(8, 6)
    a, b = two_grids(5, 12, 6)
    a[:, 5:] = b[:, 5:] = 0
    want = fine_payloads(send_tokens(
        TokenGrid(a, np.full(12, 5), 8), sg, model)[0])
    for sid in (SliceId(1, 1, 1), SliceId(1, 2, 1), SliceId(0, 3, 1)):
        t, k = sg.slices[sid].T
        mixed = b.copy()
        mixed[t, k] = a[t, k]
        got = fine_payloads(send_tokens(
            TokenGrid(mixed, np.full(12, 5), 8), sg, model)[0])
        head = (int(t[0]), len(set(t.tolist())))
        assert got[head] == want[head]


def test_coding_visibility_streaming():
    """The coder of a stream step's fine slice sees no cell but the
    slice's own, the fine layers of the due frames: under a trained
    model, its payload is the same whatever every other cell holds."""
    stream = StreamConfig(stride=3, lookahead=2, coding_context=6)
    gos = GosConfig(6, 3, 1, 3)
    model = counted_model(8, 3)
    a, b = two_grids(6, 20, 3)

    def fine(tokens):
        tx = StreamSender(gos, stream, model)
        ems = tx.push(tokens) + tx.flush()[0]
        return fine_payloads([p for em in ems for p in em.packets])

    want = fine(a)
    for first in (0, 6, 18):
        mixed = b.copy()
        mixed[first:first + 3, 1:] = a[first:first + 3, 1:]
        head = (first, min(3, 20 - first))
        assert fine(mixed)[head] == want[head]


class RecordingModel(UniformModel):
    """A uniform model that keeps every query and every list of layers it
    prices."""

    def __init__(self, vocab):
        super().__init__(vocab)
        self.queries, self.layers = [], []

    def pmf(self, query):
        self.queries.append(query)
        return super().pmf(query)

    def layer_pmf(self, layers):
        self.layers.append(np.asarray(layers).tolist())
        return super().layer_pmf(layers)


@given(gos_strategy(), st.integers(1, 16), st.data())
@settings(max_examples=50, deadline=None)
def test_fine_slices_are_priced_by_their_layers_alone(gos, n_frames, data):
    """Lossless, batch or streaming: the sender prices every fine token,
    and the receiver decodes it, by its layer alone, and no fine token is
    priced through a query."""
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers))
    tokens = np.zeros((n_frames, gos.n_layers), dtype=np.int32)
    model = RecordingModel(2)
    if data.draw(st.sampled_from(["periodic", "streaming"])) == "periodic":
        sg = build_slice_grid(n_frames, gos, level)
        packets, _ = send_tokens(
            TokenGrid(tokens, np.full(n_frames, level), 2), sg, model)
        receive_tokens(packets, sg, model)
        # one call per send and one per receive, over the whole clip
        fine = [c for sid, c in sg.slices.items() if sid.group]
        want = [np.concatenate(fine)[:, 1].tolist()] * 2 if fine else []
    else:
        stride = data.draw(st.integers(1, 4))
        lookahead = data.draw(st.integers(0, 3))
        cfg = StreamConfig(stride, lookahead)
        tx = StreamSender(gos, cfg, model, level=level)
        rx = StreamReceiver(gos, cfg, model, level=level)
        live = tx.push(tokens)
        for em in live:
            rx.step(em.packets)
        tail, total = tx.flush()
        rx.finish([em.packets for em in tail], total)
        # one call per step at each end, over the step's due frames
        fine = list(range(gos.n_coarse, level))
        want = [fine * (em.due[1] - em.due[0])
                for em in live + tail if fine] * 2
    assert model.queries == []
    assert sorted(model.layers) == sorted(want)


@given(gos_strategy(), st.integers(1, 16), st.data())
@settings(max_examples=80, deadline=None)
def test_fine_cell_decodes_when_its_own_packets_arrive(gos, n_frames, data):
    """Under any drop mask, coarse packets included, batch or streaming:
    a fine cell ends RECEIVED exactly when the fine packet of its own
    frame arrived and every layer below it in its frame is RECEIVED. No
    other cell, and no other packet, is a condition. Every RECEIVED cell
    equals the sent token."""
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tokens = rng.integers(0, 4, size=(n_frames, gos.n_layers))
    tokens[:, level:] = 0
    model = UniformModel(4)
    lossy = data.draw(st.booleans(), label="coarse lossy")

    def keep(p):
        return (p.group == 0 and not lossy) or data.draw(st.booleans())

    arrived = set()  # frames whose fine packet was delivered
    if data.draw(st.sampled_from(["periodic", "streaming"])) == "periodic":
        sg = build_slice_grid(n_frames, gos, level)
        packets, _ = send_tokens(
            TokenGrid(tokens, np.full(n_frames, level), 4), sg, model,
            fec=data.draw(st.booleans()))
        kept = [p for p in packets if keep(p)]
        got, states, _ = receive_tokens(kept, sg, model)
        for p in kept:
            if p.group:
                arrived.update(sg.slices[slice_of(sg, p)][:, 0].tolist())
    else:
        stride = data.draw(st.integers(1, 4))
        lookahead = data.draw(st.integers(0, 3))
        cfg = StreamConfig(stride, lookahead)
        tx = StreamSender(gos, cfg, model, level=level)
        rx = StreamReceiver(gos, cfg, model, level=level)

        def carry(em):
            kept = [p for p in em.packets if keep(p)]
            arrived.update(f for p in kept if p.group for f in
                           range(p.first_frame, p.first_frame + p.n_frames))
            return kept

        for em in tx.push(tokens):
            rx.step(carry(em))
        tail, total = tx.flush()
        rx.finish([carry(em) for em in tail], total)
        got, states = rx.result()
    for t in range(n_frames):
        for k in range(gos.n_coarse, level):
            assert (states[t, k] == R) == \
                (t in arrived and (states[t, :k] == R).all()), (t, k)
    received = states == R
    np.testing.assert_array_equal(got.tokens[received], tokens[received])


@given(gos_strategy(), st.integers(1, 16), st.data())
@settings(max_examples=80, deadline=None)
def test_fine_cells_are_never_concealed(gos, n_frames, data):
    """Under any drop mask, batch or streaming, no fine cell ends
    CONCEALED, and a CONCEALED coarse cell is its frame's first cell not
    RECEIVED: every cell above it is INVALID. Every RECEIVED cell equals
    the sent token."""
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tokens = rng.integers(0, 4, size=(n_frames, gos.n_layers))
    tokens[:, level:] = 0
    model = UniformModel(4)

    def carry(packets):
        return [p for p in packets if data.draw(st.booleans())]

    if data.draw(st.sampled_from(["periodic", "streaming"])) == "periodic":
        sg = build_slice_grid(n_frames, gos, level)
        packets, _ = send_tokens(
            TokenGrid(tokens, np.full(n_frames, level), 4), sg, model)
        got, states, _ = receive_tokens(carry(packets), sg, model)
    else:
        stride = data.draw(st.integers(1, 4))
        lookahead = data.draw(st.integers(0, 3))
        cfg = StreamConfig(stride, lookahead)
        tx = StreamSender(gos, cfg, model, level=level)
        rx = StreamReceiver(gos, cfg, model, level=level)
        for em in tx.push(tokens):
            rx.step(carry(em.packets))
        tail, total = tx.flush()
        rx.finish([carry(em.packets) for em in tail], total)
        got, states = rx.result()
    assert not (states[:, gos.n_coarse:] == C).any()
    t, k = np.nonzero(states == C)
    assert (prefix_depth(states[t] == R) == k).all()
    above = np.arange(gos.n_layers) > k[:, None]
    assert (states[t][above] == I).all()
    received = states == R
    np.testing.assert_array_equal(got.tokens[received], tokens[received])


@given(gos_strategy().filter(lambda g: g.n_coarse < g.n_layers),
       st.integers(1, 16), st.data())
@settings(max_examples=80, deadline=None)
def test_a_predicted_cell_takes_its_layers_mode(gos, n_frames, data):
    """Under any drop mask, batch or streaming, every cell concealment
    predicts, a CONCEALED cell, holds its layer row's most probable
    token, whatever the cells around it hold. There are as many as the
    receiver reports."""
    level = data.draw(st.integers(gos.n_coarse + 1, gos.n_layers))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vocab = 6
    counts = rng.integers(0, 3, size=(gos.n_layers, vocab))
    counts[np.arange(gos.n_layers), (2 * np.arange(gos.n_layers) + 1)
           % vocab] += 5  # layer k's mode is 2k + 1 (mod vocab)
    model = CountModel(vocab, gos.n_layers, counts)
    tokens = rng.integers(0, vocab, size=(n_frames, gos.n_layers))
    tokens[:, level:] = 0

    def carry(packets):
        return [p for p in packets if data.draw(st.booleans())]

    if data.draw(st.sampled_from(["periodic", "streaming"])) == "periodic":
        sg = build_slice_grid(n_frames, gos, level)
        packets, _ = send_tokens(
            TokenGrid(tokens, np.full(n_frames, level), vocab), sg, model)
        got, states, report = receive_tokens(carry(packets), sg, model)
        n_predicted = report.n_predicted
    else:
        stride = data.draw(st.integers(1, 4))
        lookahead = data.draw(st.integers(0, 3))
        cfg = StreamConfig(stride, lookahead)
        tx = StreamSender(gos, cfg, model, level=level)
        rx = StreamReceiver(gos, cfg, model, level=level)
        for em in tx.push(tokens):
            rx.step(carry(em.packets))
        tail, total = tx.flush()
        rx.finish([carry(em.packets) for em in tail], total)
        got, states = rx.result()
        n_predicted = rx.n_predicted
    t, k = np.nonzero(states == C)
    assert len(t) == n_predicted
    np.testing.assert_array_equal(got.tokens[t, k], (2 * k + 1) % vocab)
    received = states == R
    np.testing.assert_array_equal(got.tokens[received], tokens[received])


@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 6),
       st.data())
@settings(max_examples=100, deadline=None)
def test_concealment_reads_each_frame_alone(seed, n_frames, n_layers, data):
    """Over any tokens and any states the prefix rule has cut: concealing
    every frame in one call fills the same cells with the same tokens as
    concealing consecutive chunks of any lengths, one call each, as the
    stream receiver does step by step. Each LOST coarse cell ends
    CONCEALED, and every other cell is left as it was."""
    level = data.draw(st.integers(1, n_layers), label="level")
    n_coarse = data.draw(st.integers(1, level), label="n_coarse")
    rng = np.random.default_rng(seed)
    vocab = 6
    model = CountModel(vocab, n_layers,
                       rng.integers(0, 4, size=(n_layers, vocab)))
    tokens = rng.integers(0, vocab, size=(n_frames, n_layers)).astype(np.int32)
    states = rng.choice([R, L, I, C], size=(n_frames, n_layers),
                        p=[0.6, 0.25, 0.1, 0.05]).astype(np.int8)
    states[:, level:] = I
    propagate_invalid(states)
    cuts = sorted(data.draw(st.lists(st.integers(0, n_frames), max_size=8),
                            label="cuts"))
    edges = [0, *cuts, n_frames]

    whole = tokens.copy(), states.copy()
    n_whole = conceal(model, *whole, range(n_frames), n_coarse)
    chunked = tokens.copy(), states.copy()
    n_chunked = sum(conceal(model, *chunked, range(a, b), n_coarse)
                    for a, b in zip(edges, edges[1:]))
    assert n_chunked == n_whole
    np.testing.assert_array_equal(chunked[0], whole[0])
    np.testing.assert_array_equal(chunked[1], whole[1])

    target = np.zeros(states.shape, dtype=bool)
    target[:, :n_coarse] = states[:, :n_coarse] == L
    assert n_whole == target.sum()
    assert (whole[1][target] == C).all()
    np.testing.assert_array_equal(whole[0][~target], tokens[~target])
    np.testing.assert_array_equal(whole[1][~target], states[~target])


def test_propagate_invalid():
    states = np.array([[R, L, R, R], [R, R, R, R], [L, R, C, R]], dtype=np.int8)
    propagate_invalid(states)
    np.testing.assert_array_equal(states[0], [R, L, I, I])
    np.testing.assert_array_equal(states[1], [R, R, R, R])
    np.testing.assert_array_equal(states[2], [L, I, I, I])
    # Encoded at level 3: the receiver's layer 3 starts out INVALID and
    # stays so above a received prefix.
    states = np.array([[R, R, R, I], [R, L, R, I]], dtype=np.int8)
    propagate_invalid(states)
    np.testing.assert_array_equal(states, [[R, R, R, I], [R, L, I, I]])


def plain_prefix(row, level, ok):
    """Length of a row's leading run of ``ok`` states below ``level``."""
    d = 0
    while d < level and row[d] in ok:
        d += 1
    return d


@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 6),
       st.data())
@settings(max_examples=100, deadline=None)
def test_prefix_rule_matches_a_per_row_reading(seed, n_frames, n_layers,
                                               data):
    """Invalidation and the usable depth, read from states that are
    INVALID from the encode level up, agree with reading each row below
    an explicitly given level."""
    level = data.draw(st.integers(1, n_layers))
    rng = np.random.default_rng(seed)
    states = rng.choice([R, L, I, C], size=(n_frames, n_layers),
                        p=[0.7, 0.1, 0.1, 0.1]).astype(np.int8)
    states[:, level:] = I
    rows = states.tolist()

    depth = usable_depth(states)
    assert depth.dtype == np.int16
    assert depth.tolist() == [plain_prefix(r, level, (R, C)) for r in rows]

    want = states.copy()
    for r in want:
        r[plain_prefix(r.tolist(), level, (R,)) + 1:level] = I
    propagate_invalid(states)
    np.testing.assert_array_equal(states, want)


def fresh_states(sg):
    states = np.full((sg.n_frames, sg.n_layers), R, dtype=np.int8)
    states[:, sg.level:] = I
    return states


def test_classify_lost_coarse():
    sg = small_layout()
    states = fresh_states(sg)
    states[2, 0] = L
    states[2, 1:3] = I
    targets = classify_loss(states, range(0, 6), sg.gos.n_coarse)
    assert targets.shape == (1, 2) and targets.tolist() == [[2, 0]]


def test_classify_lost_fine_non_key():
    sg = small_layout()
    states = fresh_states(sg)
    # Unit 2 group 1 lost: frames 1 and 4, layer 1; nothing else is hit.
    # Lost fine cells are left out, not predicted.
    for t in (1, 4):
        states[t, 1] = L
        states[t, 2] = I
    assert classify_loss(states, range(0, 6), sg.gos.n_coarse).shape == \
        (0, 2)


def test_classify_coarse_lost_outside_window():
    sg = small_layout()
    states = fresh_states(sg)
    # Unit 1 coarse lost -> frames 0 and 3, whose fine cells are invalid;
    # unit 2's fine packet lost -> frames 1 and 4.
    for t in (0, 3):
        states[t, 0] = L
        states[t, 1:3] = I
    for t in (1, 4):
        states[t, 1] = L
        states[t, 2] = I
    # Frames that exclude the lost coarse frames give no targets: their
    # lost fine cells are left out.
    assert classify_loss(states, range(1, 3), sg.gos.n_coarse).shape == \
        (0, 2)
    # Frames that hold a lost coarse cell give that cell alone, in
    # absolute frame numbers.
    targets = classify_loss(states, range(0, 3), sg.gos.n_coarse)
    assert targets.tolist() == [[0, 0]]
    assert classify_loss(states, range(3, 6), sg.gos.n_coarse).tolist() == \
        [[3, 0]]

"""Coding conditions and views, damage windows, loss classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenwire.context import MaskedQuery, UniformModel
from tokenwire.dependency import (
    Conditions,
    build_conceal_mask,
    build_windows,
    classify_loss,
    decodable,
    propagate_invalid,
    slice_conditions,
    stream_coarse,
    stream_conditions,
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
from tokenwire.pipeline import receive_tokens, send_tokens
from tokenwire.streaming import StreamReceiver, StreamSender
from conftest import slice_of, stream_conditions_of

R = int(TokenState.RECEIVED)
L = int(TokenState.LOST)
I = int(TokenState.INVALID)
C = int(TokenState.CONCEALED)


def small_layout(level=3, n_frames=6):
    gos = GosConfig(6, 3, 1, 3)
    sg = build_slice_grid(n_frames, gos, level)
    return sg, slice_conditions(sg)


def cells_of(cond):
    """The (frame, layer) cells a Conditions names, frame-major."""
    return [[t, k] for t in range(cond.lo, cond.hi)
            for k in range(cond.n_coarse)]


def conditioned_slices(sg, cond):
    """The slices whose cells ``cond`` names; each is named whole or not
    at all, and no named cell lies outside them."""
    named = set(map(tuple, cells_of(cond)))
    out = set()
    for sid, cells in sg.slices.items():
        hit = [tuple(c) in named for c in cells.tolist()]
        assert all(hit) or not any(hit)
        if all(hit):
            out.add(sid)
            named -= set(map(tuple, cells.tolist()))
    assert not named
    return out


def fine_slice_conditions(sg):
    conds = slice_conditions(sg)
    return {sid: conds[int(cells[0, 0])]
            for sid, cells in sg.slices.items() if sid.group > 0}


def test_window_validation():
    sg, _ = small_layout()
    states = fresh_states(sg)
    states[2, 1] = L
    targets = np.array([[2, 1]])
    for bad in (range(3, 3), range(-1, 2), range(0, 7), range(0, 6, 2),
                range(5, 0, -1)):
        with pytest.raises(ValueError):
            build_conceal_mask(targets, states, bad)
    with pytest.raises(ValueError):
        build_windows(states, 3, 0)
    w, = build_windows(states, 3, 3)
    assert len(w) == 3 and 2 in w and w.stop not in w


def test_stream_step_hand_cases():
    cfg = StreamConfig(stride=3, lookahead=3, coding_context=12)

    def context(i, total=None):
        """First and last frame that the fine tokens of step i of a stream
        of ``total`` frames are coded against."""
        cond = stream_conditions(i, cfg, 1, total)
        return cond.lo, cond.hi - 1

    assert stream_step(0, cfg) == (range(0, 3), 5)
    assert stream_coarse(0, cfg) == range(0, 6)
    # Step 0 codes against its horizon; step i >= 1 against the later of
    # the previous horizon and its last due frame, here h_{i-1}.
    assert context(0) == (0, 5)
    assert context(1) == (0, 5)
    assert context(2) == (0, 8)
    assert stream_coarse(2, cfg) == range(9, 12)
    # Step 4 ends at frame 14, horizon 17; its window ends at h_3 = 14 and
    # reaches back to 3; its coarse packet carries the frames after h_3.
    assert stream_step(4, cfg) == (range(12, 15), 17)
    assert context(4) == (3, 14)
    assert stream_coarse(4, cfg) == range(15, 18)
    # Due frames, horizon and coarse frames clamp at the last frame, and a
    # step after the horizon reached it carries no coarse frames.
    assert stream_step(3, cfg, 10) == (range(9, 10), 9)
    assert context(3, 10) == (0, 9)
    assert stream_coarse(2, cfg, 10) == range(9, 10)
    assert len(stream_coarse(3, cfg, 10)) == 0
    # With lookahead < stride the last due frame is the later end, and the
    # window still stops short of the horizon.
    short = StreamConfig(stride=3, lookahead=1, coding_context=6)
    assert stream_step(2, short) == (range(6, 9), 9)
    assert stream_conditions(2, short, 1) == Conditions(3, 9, 1)


def test_periodic_dependency_structure():
    sg, conds = small_layout(n_frames=9)
    phi = fine_slice_conditions(sg)
    coarse = {g: {sid for sid in sg.slices if sid.gos == g and sid.group == 0}
              for g in (0, 1)}
    # Coarse slices are sent uncoded and condition on nothing.
    assert set(phi) == set(sg.slices) - coarse[0] - coarse[1]
    # Every fine slice conditions on exactly the coarse slices of its
    # group-of-slices, whatever its unit.
    for sid, cond in phi.items():
        assert conditioned_slices(sg, cond) == coarse[sid.gos]
    # The per-frame lookup names the coarse cells of those slices.
    assert cells_of(conds[5]) == [[t, 0] for t in range(6)]
    assert cells_of(conds[6]) == [[t, 0] for t in range(6, 9)]
    assert sorted(conds) == list(range(9))


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
    """Every condition precedes its dependent in emission order, which also
    proves the relation is acyclic and never self-referential."""
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers))
    if data.draw(st.sampled_from(["periodic", "streaming"])) == "periodic":
        sg = build_slice_grid(n_frames, gos, level)
        pos = {sid: i for i, sid in enumerate(sg.slices)}
        for sid, cond in fine_slice_conditions(sg).items():
            for dep in conditioned_slices(sg, cond):
                assert pos[dep] < pos[sid]
                assert dep != sid
        return
    stream = StreamConfig(stride=2, lookahead=1, coding_context=6,
                          conceal_context=6)
    ordered = stream_emission_order(gos, stream, n_frames, level)
    pos = dict(ordered)
    assert len(pos) == len(ordered)
    conds = stream_conditions_of(stream, n_frames, gos.n_coarse)
    assert set(conds) == set(range(n_frames))
    for t, j in pos:
        if j == 0:
            continue
        # a fine slice conditions on coarse cells only
        for f, _ in cells_of(conds[t]):
            assert pos[(f, 0)] < pos[(t, j)]


def test_streaming_dependency_window():
    stream = StreamConfig(stride=2, lookahead=1, coding_context=4,
                          conceal_context=4)
    # Step 3: frames 6 and 7, horizon 8; the previous horizon is 6, so the
    # window ends at the last due frame, 7: context [4, 7], coarse cells
    # only: the fine cells of frames 4 to 6 are no conditions. Both due
    # frames share the step's one window.
    due, horizon = stream_step(3, stream)
    assert (due, horizon) == (range(6, 8), 8)
    cond = stream_conditions(3, stream, n_coarse=1)
    assert cells_of(cond) == [[4, 0], [5, 0], [6, 0], [7, 0]]
    assert stream_conditions_of(stream, 10, 1)[6] == cond


def coding_view(cond, n_rows, n_layers, cells):
    """(full-length visible row, frame range) of the query coding
    ``cells`` against cond."""
    q = MaskedQuery(np.zeros((n_rows, n_layers), dtype=np.int32),
                    [cond.view(cells)])
    lo, visible, _ = q.views[0]
    full = np.zeros(n_rows, dtype=np.int64)
    full[lo:lo + len(visible)] = visible
    return full, (lo, lo + len(visible))


def test_coding_visibility_periodic():
    gos = GosConfig(6, 3, 2, 6)
    sg = build_slice_grid(12, gos, 5)
    phi = fine_slice_conditions(sg)

    # Every fine slice, of any unit: the whole group-of-slices shows its
    # coarse prefix, and nothing else shows.
    for sid in (SliceId(1, 1, 1), SliceId(1, 2, 1), SliceId(1, 3, 1)):
        vis, rng = coding_view(phi[sid], 12, 6, sg.slices[sid])
        assert rng == (6, 12)
        np.testing.assert_array_equal(vis, [0] * 6 + [2] * 6)
    # Coarse slices are sent uncoded: they have no coding conditions.
    assert SliceId(1, 1, 0) not in phi


def test_coding_visibility_streaming():
    stream = StreamConfig(stride=3, lookahead=2, coding_context=6,
                          conceal_context=6)
    cond = stream_conditions(2, stream, n_coarse=1, total=20)
    target = np.array([[7, 1]])
    vis, rng = coding_view(cond, 20, 3, target)
    # Step 2 ends at frame 8, horizon 10; the previous horizon is 7, so the
    # window is [3, 8]; frame 7 sees the whole window, and every frame
    # shows only its coarse layer.
    assert rng == (3, 9)
    np.testing.assert_array_equal(vis[3:9], [1, 1, 1, 1, 1, 1])
    assert vis[:3].sum() == 0 and vis[9:].sum() == 0
    # A buffer that ends with the window is exposed over the same rows.
    vis, _ = coding_view(cond, 9, 3, target)
    np.testing.assert_array_equal(vis, [0, 0, 0, 1, 1, 1, 1, 1, 1])


class RecordingModel(UniformModel):
    """A uniform model that keeps every query it prices."""

    def __init__(self, vocab):
        super().__init__(vocab)
        self.queries = []

    def pmf(self, query):
        self.queries.append(query)
        return super().pmf(query)


def assert_view_shows_the_gated_cells(query, index, cond):
    """The decode gate checks exactly the cells one view of the coding
    query shows, and every neighbor that prices its targets is one of
    them."""
    lo, visible, targets = query.views[index]
    shown = np.zeros(query.tokens.shape, dtype=bool)
    shown[lo:lo + len(visible)] = (np.arange(shown.shape[1])
                                   < np.asarray(visible)[:, None])
    states = np.where(shown, R, L).astype(np.int8)
    assert decodable(states, cond)
    for t, k in np.argwhere(shown):
        states[t, k] = L
        assert not decodable(states, cond)
        states[t, k] = R
    first = sum(len(v.targets) for v in query.views[:index])
    for f, k in query.sources[first:first + len(targets)].reshape(-1, 2):
        assert f < 0 or shown[f, k]


@given(gos_strategy(), st.integers(1, 16), st.data())
@settings(max_examples=50, deadline=None)
def test_coding_queries_show_exactly_the_gated_cells(gos, n_frames, data):
    """Every view the sender or the receiver codes a fine slice with shows
    the cells its Conditions gate on, no more and no fewer, and its
    targets' neighbors read only those cells."""
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers))
    tokens = np.zeros((n_frames, gos.n_layers), dtype=np.int32)
    model = RecordingModel(2)
    if data.draw(st.sampled_from(["periodic", "streaming"])) == "periodic":
        sg = build_slice_grid(n_frames, gos, level)
        packets, _ = send_tokens(
            TokenGrid(tokens, np.full(n_frames, level), 2), sg, model)
        receive_tokens(packets, sg, model)
        conds = slice_conditions(sg)
        n_slices = sum(1 for sid in sg.slices if sid.group > 0)
        # one query per send and one per receive, over the whole clip
        n_queries = 2
        horizons = None
    else:
        stride = data.draw(st.integers(1, 4))
        lookahead = data.draw(st.integers(0, 3))
        context = stride + lookahead + data.draw(st.integers(0, 4))
        cfg = StreamConfig(stride, lookahead, context, context)
        tx = StreamSender(gos, cfg, model, level=level)
        rx = StreamReceiver(gos, cfg, model, level=level)
        live = tx.push(tokens)
        for em in live:
            rx.step(em.packets)
        tail, total = tx.flush()
        rx.finish([em.packets for em in tail], total)
        conds = stream_conditions_of(cfg, n_frames, gos.n_coarse)
        n_steps = -(-n_frames // stride)
        n_slices = n_steps * (level > gos.n_coarse)
        # one query per step at each end, over the frames of the step's
        # window, which ends at its horizon; the sender codes the live
        # steps, the receiver decodes them, and then the same for the tail
        n_queries = 2 * n_steps
        horizons = [em.horizon for ems in (live, live, tail, tail)
                    for em in ems]
    if not n_slices:
        n_queries = 0
    # lossless: the sender and the receiver each code every fine slice once
    assert len(model.queries) == n_queries
    assert sum(len(q.views) for q in model.queries) == 2 * n_slices
    for n, q in enumerate(model.queries):
        # the frame of the query's first row
        base = 0 if horizons is None else horizons[n] + 1 - len(q.tokens)
        assert base >= 0
        for i, view in enumerate(q.views):
            frames = (view.targets[:, 0] + base).tolist()
            cond = conds[frames[0]]
            assert all(conds[t] == cond for t in frames)
            rows = cond._replace(lo=cond.lo - base, hi=cond.hi - base)
            assert rows.lo >= 0
            assert_view_shows_the_gated_cells(q, i, rows)


@given(gos_strategy(), st.integers(1, 16), st.data())
@settings(max_examples=80, deadline=None)
def test_fine_cell_decodes_when_its_own_packets_arrive(gos, n_frames, data):
    """With every coarse packet delivered and any fine packets dropped, a
    fine cell is RECEIVED whenever the fine packet of its own frame
    arrived: no other fine packet is a condition."""
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tokens = rng.integers(0, 4, size=(n_frames, gos.n_layers))
    tokens[:, level:] = 0
    model = UniformModel(4)

    def keep(p):
        return p.group == 0 or data.draw(st.booleans())

    arrived = set()  # (frame, group) pairs delivered
    if data.draw(st.sampled_from(["periodic", "streaming"])) == "periodic":
        sg = build_slice_grid(n_frames, gos, level)
        packets, _ = send_tokens(
            TokenGrid(tokens, np.full(n_frames, level), 4), sg, model)
        kept = [p for p in packets if keep(p)]
        _, states, _ = receive_tokens(kept, sg, model)
        for p in kept:
            cells = sg.slices[slice_of(sg, p)]
            arrived |= {(t, p.group) for t in cells[:, 0].tolist()}
    else:
        stride = data.draw(st.integers(1, 4))
        lookahead = data.draw(st.integers(0, 3))
        context = stride + lookahead + data.draw(st.integers(0, 4))
        cfg = StreamConfig(stride, lookahead, context, context)
        tx = StreamSender(gos, cfg, model, level=level)
        rx = StreamReceiver(gos, cfg, model, level=level)

        def carry(em):
            kept = [p for p in em.packets if keep(p)]
            arrived.update((f, p.group) for p in kept for f in
                           range(p.first_frame, p.first_frame + p.n_frames))
            return kept

        for em in tx.push(tokens):
            rx.step(carry(em))
        tail, total = tx.flush()
        rx.finish([carry(em) for em in tail], total)
        states = rx.result()[1]
    for t in range(n_frames):
        if (t, 1) in arrived:
            for k in range(gos.n_coarse, level):
                assert states[t, k] == R, (t, k)


@given(gos_strategy(), st.integers(1, 16), st.data())
@settings(max_examples=80, deadline=None)
def test_only_a_blackout_hold_conceals_fine_cells(gos, n_frames, data):
    """Under any drop mask, batch or streaming, a fine cell is CONCEALED
    only in a frame that received no coarse cell, where the blackout hold
    repeats a whole frame; lost fine cells are never predicted. Every
    RECEIVED cell equals the sent token."""
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
        context = stride + lookahead + data.draw(st.integers(0, 4))
        cfg = StreamConfig(stride, lookahead, context, context)
        tx = StreamSender(gos, cfg, model, level=level)
        rx = StreamReceiver(gos, cfg, model, level=level)
        for em in tx.push(tokens):
            rx.step(carry(em.packets))
        tail, total = tx.flush()
        rx.finish([carry(em.packets) for em in tail], total)
        got, states = rx.result()
    held = ~(states[:, :gos.n_coarse] == R).any(axis=1)
    assert not (states[~held, gos.n_coarse:] == C).any()
    received = states == R
    np.testing.assert_array_equal(got.tokens[received], tokens[received])


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
    """Invalidation, the usable depth and the damaged frames, read from
    states that are INVALID from the encode level up, agree with reading
    each row below an explicitly given level."""
    level = data.draw(st.integers(1, n_layers))
    rng = np.random.default_rng(seed)
    states = rng.choice([R, L, I, C], size=(n_frames, n_layers),
                        p=[0.7, 0.1, 0.1, 0.1]).astype(np.int8)
    states[:, level:] = I
    rows = states.tolist()

    depth = usable_depth(states)
    assert depth.dtype == np.int16
    assert depth.tolist() == [plain_prefix(r, level, (R, C)) for r in rows]

    damaged = [t for t, r in enumerate(rows)
               if any(c != R for c in r[:level])]
    windows = build_windows(states, level, 1)  # no padding at length 1
    assert [w.start for w in windows] == damaged

    want = states.copy()
    for r in want:
        r[plain_prefix(r.tolist(), level, (R,)) + 1:level] = I
    propagate_invalid(states)
    np.testing.assert_array_equal(states, want)


def window_spans(windows):
    return [(w.start, w.stop) for w in windows]


def test_build_windows_hand_cases():
    states = np.full((20, 2), R, dtype=np.int8)
    assert build_windows(states, 2, 5) == []

    states[5, 1] = L
    assert window_spans(build_windows(states, 2, 5)) == [(3, 8)]

    # Two nearby single-frame runs with a tight cap stay centered.
    states = np.full((6, 2), R, dtype=np.int8)
    states[1, 0] = L
    states[4, 1] = L
    assert window_spans(build_windows(states, 2, 3)) == \
        [(0, 3), (3, 6)]

    # A 24-frame clip, three units per 12-frame group-of-slices: frame 11
    # lost a fine cell, and of frames 12-23 only the coarse of 12, 15, 18
    # and 21 arrived. Cut from its start, the 13-frame run [11, 24) left
    # [23, 24) as a window with no received coarse, held as a blackout.
    states = np.full((24, 2), R, dtype=np.int8)
    states[11, 1] = L
    states[12:, :] = L
    states[12::3, 0] = R
    windows = build_windows(states, 2, 12)
    assert window_spans(windows) == [(6, 18), (18, 24)]
    for w in windows:
        assert (states[w.start:w.stop, 0] == R).any()


def test_build_windows_chunks_long_runs():
    states = np.full((30, 1), L, dtype=np.int8)
    assert window_spans(build_windows(states, 1, 12)) == \
        [(0, 10), (10, 20), (20, 30)]
    assert window_spans(build_windows(states, 1, 8)) == \
        [(0, 8), (8, 16), (16, 23), (23, 30)]
    with pytest.raises(ValueError):
        build_windows(states, 1, 0)


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_build_windows_properties(seed, n_frames, max_len):
    rng = np.random.default_rng(seed)
    states = rng.choice([R, L], size=(n_frames, 2), p=[0.7, 0.3]).astype(np.int8)
    windows = build_windows(states, 2, max_len)
    damaged = {t for t in range(n_frames) if (states[t] != R).any()}
    covered = set()
    prev_stop = 0
    for w in windows:
        # a non-empty forward frame range
        assert isinstance(w, range) and w.step == 1
        assert 0 <= w.start < w.stop <= n_frames
        assert len(w) <= max_len
        assert w.start >= prev_stop  # disjoint and ordered
        prev_stop = w.stop
        span = set(range(w.start, w.stop))
        assert span & damaged  # no window without damage
        covered |= span
    assert damaged <= covered


def fresh_states(sg):
    states = np.full((sg.n_frames, sg.n_layers), R, dtype=np.int8)
    states[:, sg.level:] = I
    return states


def test_classify_lost_coarse():
    sg, _ = small_layout()
    states = fresh_states(sg)
    states[2, 0] = L
    states[2, 1:3] = I
    targets = classify_loss(states, range(0, 6), sg.gos.n_coarse)
    assert targets.shape == (1, 2) and targets.tolist() == [[2, 0]]


def test_classify_lost_fine_non_key():
    sg, _ = small_layout()
    states = fresh_states(sg)
    # Unit 2 group 1 lost: frames 1 and 4, layer 1; nothing else is hit.
    # Lost fine cells are left out, not predicted.
    for t in (1, 4):
        states[t, 1] = L
        states[t, 2] = I
    assert classify_loss(states, range(0, 6), sg.gos.n_coarse).shape == \
        (0, 2)


def test_classify_coarse_lost_outside_window():
    sg, _ = small_layout()
    states = fresh_states(sg)
    # Unit 1 coarse lost -> frames 0 and 3; all fine in the GoS undecodable.
    for t in (0, 3):
        states[t, 0] = L
        states[t, 1:3] = I
    for t in (1, 2, 4, 5):
        states[t, 1:3] = I
    # Frames that exclude the lost coarse frames give no targets: their
    # invalid fine cells are left out.
    assert classify_loss(states, range(1, 3), sg.gos.n_coarse).shape == \
        (0, 2)
    # Frames that hold a lost coarse cell give that cell alone, in
    # absolute frame numbers.
    targets = classify_loss(states, range(0, 3), sg.gos.n_coarse)
    assert targets.tolist() == [[0, 0]]
    assert classify_loss(states, range(3, 6), sg.gos.n_coarse).tolist() == \
        [[3, 0]]


def test_conceal_mask_shapes_and_errors():
    sg, _ = small_layout()
    states = fresh_states(sg)
    states[2, 1] = L
    states[2, 2] = I
    win = range(0, 6)
    targets = np.array([[2, 1]])
    lo, visible, cells = build_conceal_mask(targets, states, win)
    assert lo == 0
    np.testing.assert_array_equal(visible, [2, 2, 1, 2, 2, 2])
    np.testing.assert_array_equal(cells, [[2, 1]])
    # a window that starts later is read from its own first frame
    lo, visible, _ = build_conceal_mask(targets, states, range(1, 4))
    assert lo == 1
    np.testing.assert_array_equal(visible, [2, 1, 2])
    with pytest.raises(ValueError):
        build_conceal_mask(np.empty((0, 2), dtype=np.int64), states, win)
    for outside in ([[9, 1]], [[2, 1], [6, 0]], [[0, 0]]):
        with pytest.raises(ValueError):
            build_conceal_mask(np.array(outside), states, range(1, 6))


def test_conceal_mask_excludes_concealed_cells():
    sg, _ = small_layout()
    states = fresh_states(sg)
    states[1, 1] = C  # previously concealed: usable output, not context
    states[2, 1] = L
    states[2, 2] = I
    _, visible, _ = build_conceal_mask(np.array([[2, 1]]), states,
                                       range(0, 6))
    assert visible[1] == 1


def test_conceal_mask_level_cap():
    sg, _ = small_layout(level=2)
    states = fresh_states(sg)
    states[2, 1] = L
    _, visible, _ = build_conceal_mask(np.array([[2, 1]]), states,
                                       range(0, 6))
    np.testing.assert_array_equal(visible, [2, 2, 1, 2, 2, 2])

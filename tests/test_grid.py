"""Token grids, frame units, and the slice partition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenwire.grid import (
    GosConfig,
    SliceId,
    StreamConfig,
    TokenGrid,
    TokenState,
    build_slice_grid,
    initial_states,
    periodic_slicing,
)
from tokenwire.context import UniformModel
from tokenwire.errors import ConfigError
from tokenwire.streaming import StreamSender


def assert_partition(sg):
    """Every cell below the encode level belongs to exactly one non-empty
    slice, and no slice mixes coarse and fine layers."""
    seen = np.zeros((sg.n_frames, sg.n_layers), dtype=np.int32)
    for sid, cells in sg.slices.items():
        assert cells.shape[0] > 0, sid
        assert np.all(cells[:, 1] < sg.level), sid
        assert np.all((cells[:, 1] < sg.gos.n_coarse) == (sid.group == 0)), sid
        np.add.at(seen, (cells[:, 0], cells[:, 1]), 1)
    expect = np.zeros_like(seen)
    expect[:, :sg.level] = 1
    np.testing.assert_array_equal(seen, expect)


def test_token_grid_validation():
    with pytest.raises(ValueError):
        TokenGrid(np.zeros(4, dtype=int), np.zeros(4, dtype=int), 4)
    with pytest.raises(ValueError):
        TokenGrid(np.zeros((2, 3), dtype=int), np.array([4, 0]), 4)
    with pytest.raises(ValueError):
        TokenGrid(np.zeros((2, 3), dtype=int), np.array([3, 3]), 1)
    # Out-of-range tokens only matter below the frame's level.
    tokens = np.array([[0, 99, 0], [0, 0, 0]])
    TokenGrid(tokens, np.array([1, 3]), 4)
    with pytest.raises(ValueError):
        TokenGrid(tokens, np.array([2, 3]), 4)


def test_state_grid_initial_marks_dead_cells():
    states = initial_states(3, 4, 2)
    assert states.dtype == np.int8 and states.shape == (3, 4)
    assert (states[:, :2] == TokenState.LOST).all()
    assert (states[:, 2:] == TokenState.INVALID).all()
    # Encoded at full depth, nothing starts out INVALID.
    assert (initial_states(2, 3, 3) == TokenState.LOST).all()


def test_gos_config_validation():
    with pytest.raises(ValueError):
        GosConfig(0, 1, 1, 1)
    with pytest.raises(ValueError):
        GosConfig(4, 5, 1, 1)
    with pytest.raises(ValueError):
        GosConfig(4, 2, 0, 2)
    with pytest.raises(ValueError):
        GosConfig(4, 2, 3, 2)
    # A coarse-only layout is legal, and its fine group is empty.
    cfg = GosConfig(4, 2, 1, 1)
    assert cfg.n_coarse == 1 and cfg.n_layers == 1
    assert list(cfg.group_layers(1)) == []


def test_group_layers():
    cfg = GosConfig(6, 3, 2, 6)
    assert list(cfg.group_layers(0)) == [1, 2]
    assert list(cfg.group_layers(1)) == [3, 4, 5, 6]
    assert list(cfg.group_layers(0, level=1)) == [1]
    assert list(cfg.group_layers(1, level=4)) == [3, 4]
    assert list(cfg.group_layers(1, level=2)) == []
    with pytest.raises(ValueError, match="no layer group 2"):
        cfg.group_layers(2)


def test_periodic_slicing_hand_cases():
    assert periodic_slicing(6, 3) == {1: [1, 4], 2: [2, 5], 3: [3, 6]}
    assert periodic_slicing(5, 2) == {1: [1, 3, 5], 2: [2, 4]}
    assert periodic_slicing(3, 1) == {1: [1, 2, 3]}
    with pytest.raises(ValueError):
        periodic_slicing(3, 4)


@given(st.integers(1, 30), st.data())
@settings(max_examples=60, deadline=None)
def test_periodic_slicing_partitions(gos_len, data):
    n_units = data.draw(st.integers(1, gos_len))
    units = periodic_slicing(gos_len, n_units)
    all_frames = sorted(f for fs in units.values() for f in fs)
    assert all_frames == list(range(1, gos_len + 1))
    for u, fs in units.items():
        assert fs[0] == u
        assert all(b - a == n_units for a, b in zip(fs, fs[1:]))


def gos_configs():
    return st.builds(
        lambda gos_len, units, n_coarse, n_fine: GosConfig(
            gos_len, min(units, gos_len), n_coarse, n_coarse + n_fine),
        st.integers(1, 8),
        st.integers(1, 4),
        st.integers(1, 2),
        st.integers(0, 6),
    )


@given(gos_configs(), st.integers(1, 25), st.data())
@settings(max_examples=80, deadline=None)
def test_slice_grid_is_a_partition(gos, n_frames, data):
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers))
    if data.draw(st.sampled_from(["periodic", "streaming"])) == "periodic":
        assert_partition(build_slice_grid(n_frames, gos, level))
        return
    # A stream's packets cover every encoded cell exactly once: the frames
    # of one step per packet, the coarse layers or the fine layers below the
    # level.
    packets = stream_packets(gos, StreamConfig(stride=2, lookahead=1,
                                               coding_context=4),
                             n_frames, level)
    seen = np.zeros((n_frames, gos.n_layers), dtype=np.int32)
    for p in packets:
        layers = gos.group_layers(p.group, level)
        assert len(layers) > 0
        frames = np.arange(p.first_frame, p.first_frame + p.n_frames)
        seen[np.ix_(frames, [k - 1 for k in layers])] += 1
    expect = np.zeros_like(seen)
    expect[:, :level] = 1
    np.testing.assert_array_equal(seen, expect)


@given(gos_configs(), st.integers(1, 25), st.data())
@settings(max_examples=60, deadline=None)
def test_one_fine_slice_per_unit_and_per_step(gos, n_frames, data):
    """Each unit of a group-of-slices and each stream step sends one fine
    slice when the level is above the coarse depth and none otherwise, and
    it holds every fine layer below the level of each of its frames."""
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers))
    has_fine = level > gos.n_coarse
    sg = build_slice_grid(n_frames, gos, level)
    coarse = [s[:2] for s in sg.slices if s.group == 0]
    fine = [s[:2] for s in sg.slices if s.group == 1]
    assert fine == (coarse if has_fine else [])
    for sid, cells in sg.slices.items():
        if sid.group:
            layers = np.arange(gos.n_coarse, level)
            frames = np.unique(cells[:, 0])
            np.testing.assert_array_equal(
                cells, np.stack([np.repeat(frames, len(layers)),
                                 np.tile(layers, len(frames))], axis=1))
    cfg = StreamConfig(stride=2, lookahead=1, coding_context=4)
    tx = StreamSender(gos, cfg, UniformModel(2), level=level)
    ems = tx.push(np.zeros((n_frames, gos.n_layers), dtype=np.int32))
    ems += tx.flush()[0]
    for em in ems:
        fine = [(p.first_frame, p.n_frames) for p in em.packets if p.group]
        assert fine == ([(em.due[0], em.due[1] - em.due[0])] if has_fine
                        else [])
    assert tx.report.n_fine_tokens == n_frames * (level - gos.n_coarse)


def stream_packets(gos, cfg, n_frames, level):
    tx = StreamSender(gos, cfg, UniformModel(2), level=level)
    ems = tx.push(np.zeros((n_frames, gos.n_layers), dtype=np.int32))
    tail, _ = tx.flush()
    return [p for em in ems + tail for p in em.packets]


def test_emission_order_periodic():
    gos = GosConfig(4, 2, 1, 3)
    sg = build_slice_grid(8, gos, 3)
    sids = list(sg.slices)
    # GoS 0 precedes GoS 1 entirely.
    assert sids[: len(sids) // 2] == [s for s in sids if s.gos == 0]
    gos0 = [s for s in sids if s.gos == 0]
    # Coarse slices first, then one fine slice per unit.
    assert [(s.unit, s.group) for s in gos0] == [(1, 0), (2, 0), (1, 1), (2, 1)]
    assert sg.slices[SliceId(0, 1, 1)].tolist() == [[0, 1], [0, 2],
                                                    [2, 1], [2, 2]]


def test_emission_order_streaming():
    gos = GosConfig(3, 1, 1, 3)
    cfg = StreamConfig(stride=3, lookahead=3, coding_context=12)
    packets = stream_packets(gos, cfg, 5, 3)
    # Step 0 sends one coarse packet for every frame up to its horizon,
    # then one fine packet for its due frames; step 1, whose horizon adds
    # no frame, only the fine packet of the remaining due frames.
    assert [(p.first_frame, p.n_frames, p.group) for p in packets] == \
        [(0, 5, 0), (0, 3, 1), (3, 2, 1)]


def test_level_truncation_drops_upper_groups():
    gos = GosConfig(4, 2, 2, 6)
    sg = build_slice_grid(4, gos, 3)
    assert {s.group for s in sg.slices} == {0, 1}
    # The fine group holds layers 3..6 but level 3 truncates it to layer 3.
    cells = sg.slices[SliceId(0, 1, 1)]
    assert set(cells[:, 1].tolist()) == {2}
    assert_partition(sg)
    # At the coarse depth the fine group is dropped.
    sg = build_slice_grid(4, gos, 2)
    assert {s.group for s in sg.slices} == {0}
    assert_partition(sg)


def test_tail_gos_is_shorter():
    gos = GosConfig(4, 2, 1, 2)
    sg = build_slice_grid(6, gos, 2)
    assert {s.gos for s in sg.slices} == {0, 1}
    tail = [s for s in sg.slices if s.gos == 1]
    assert sorted({t for s in tail for t in sg.slices[s][:, 0]}) == [4, 5]
    # Tail GoS has 2 frames: units 1 and 2 cover one frame each.
    tail_coarse = [s for s in tail if s.group == 0]
    assert len(tail_coarse) == 2
    assert_partition(sg)


def test_slice_of_and_key_lookup():
    """A slice's cells, looked up by its id."""
    gos = GosConfig(6, 3, 1, 3)
    sg = build_slice_grid(9, gos, 3)
    assert sg.slices[SliceId(0, 1, 0)].tolist() == [[0, 0], [3, 0]]
    assert sg.slices[SliceId(0, 2, 1)].tolist() == [[1, 1], [1, 2],
                                                    [4, 1], [4, 2]]
    # the tail group-of-slices holds frames 6-8, one per unit
    assert sg.slices[SliceId(1, 3, 1)].tolist() == [[8, 1], [8, 2]]


def test_build_slice_grid_validation():
    gos = GosConfig(4, 2, 2, 4)
    with pytest.raises(ValueError):
        build_slice_grid(0, gos, 4)
    with pytest.raises(ValueError):
        build_slice_grid(4, gos, 1)  # below coarse depth
    with pytest.raises(ValueError):
        build_slice_grid(4, gos, 5)


def test_slice_grid_is_built_once_and_read_only():
    gos = GosConfig(4, 2, 2, 4)
    sg = build_slice_grid(10, gos, 3)
    assert build_slice_grid(10, gos, 3) is sg
    assert build_slice_grid(10, gos, 4) is not sg
    cells = sg.slices[SliceId(0, 1, 0)]
    with pytest.raises(ValueError):
        cells[0, 0] = 1
    with pytest.raises(TypeError):
        sg.slices[SliceId(0, 1, 0)] = cells.copy()
    with pytest.raises(AttributeError):
        sg.level = 4
    assert all(not c.flags.writeable for c in sg.slices.values())


def test_stream_config_validation():
    StreamConfig(stride=3, lookahead=3, coding_context=12, conceal_context=6)
    with pytest.raises(ValueError):
        StreamConfig(stride=0)
    with pytest.raises(ValueError):
        StreamConfig(stride=3, lookahead=-1)
    with pytest.raises(ConfigError, match="stride"):
        StreamConfig(stride=0, lookahead=3)
    # coding_context and conceal_context have no effect and are not
    # checked, whatever the cadence.
    StreamConfig(stride=5, lookahead=0, conceal_context=4)
    StreamConfig(stride=3, lookahead=3, coding_context=1, conceal_context=1)

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
    default_layer_bounds,
    initial_states,
    periodic_slicing,
)
from tokenwire.context import UniformModel
from tokenwire.dependency import slice_conditions
from tokenwire.errors import ConfigError
from tokenwire.streaming import StreamSender
from conftest import stream_conditions_of


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
        GosConfig(0, 1, (0, 1))
    with pytest.raises(ValueError):
        GosConfig(4, 5, (0, 1))
    with pytest.raises(ValueError):
        GosConfig(4, 2, (1, 2))
    with pytest.raises(ValueError):
        GosConfig(4, 2, (0, 2, 2))
    # A coarse-only layout is legal.
    cfg = GosConfig(4, 2, (0, 1))
    assert cfg.n_fine_groups == 0 and cfg.n_coarse == 1 and cfg.n_layers == 1


def test_group_layers():
    cfg = GosConfig(6, 3, (0, 2, 4, 6))
    assert list(cfg.group_layers(0)) == [1, 2]
    assert list(cfg.group_layers(1)) == [3, 4]
    assert list(cfg.group_layers(2)) == [5, 6]
    assert list(cfg.group_layers(2, level=5)) == [5]
    assert list(cfg.group_layers(2, level=4)) == []


def test_default_layer_bounds():
    assert default_layer_bounds(8, 2, 3) == (0, 2, 4, 6, 8)
    # Uneven split: earlier fine groups take the extra layer.
    assert default_layer_bounds(6, 2, 3) == (0, 2, 4, 5, 6)
    # More groups than fine layers collapses to one layer per group.
    assert default_layer_bounds(3, 1, 5) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        default_layer_bounds(2, 2, 1)


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
        lambda gos_len, units, bounds: GosConfig(
            gos_len, min(units, gos_len), bounds),
        st.integers(1, 8),
        st.integers(1, 4),
        st.lists(st.integers(1, 2), min_size=1, max_size=4).map(
            lambda steps: tuple(np.cumsum([0] + steps).tolist())),
    )


@given(gos_configs(), st.integers(1, 25), st.data())
@settings(max_examples=80, deadline=None)
def test_slice_grid_is_a_partition(gos, n_frames, data):
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers))
    if data.draw(st.sampled_from(["periodic", "streaming"])) == "periodic":
        assert_partition(build_slice_grid(n_frames, gos, level))
        return
    # A stream's packets cover every encoded cell exactly once: the frames
    # of one step per packet, the coarse group or one truncated fine group
    # of layers.
    packets = stream_packets(gos, StreamConfig(stride=2, lookahead=1,
                                               coding_context=4,
                                               conceal_context=4),
                             n_frames, level)
    seen = np.zeros((n_frames, gos.n_layers), dtype=np.int32)
    for p in packets:
        assert p.first_frame == p.gos_id * gos.gos_len + p.unit - 1
        layers = gos.group_layers(p.group, level)
        assert len(layers) > 0
        frames = np.arange(p.first_frame, p.first_frame + p.n_frames)
        seen[np.ix_(frames, [k - 1 for k in layers])] += 1
    expect = np.zeros_like(seen)
    expect[:, :level] = 1
    np.testing.assert_array_equal(seen, expect)


def stream_packets(gos, cfg, n_frames, level):
    tx = StreamSender(gos, cfg, UniformModel(2), level=level)
    ems = tx.push(np.zeros((n_frames, gos.n_layers), dtype=np.int32))
    tail, _ = tx.flush()
    return [p for em in ems + tail for p in em.packets]


def test_emission_order_periodic():
    gos = GosConfig(4, 2, (0, 1, 2, 3))
    sg = build_slice_grid(8, gos, 3)
    sids = list(sg.slices)
    # GoS 0 precedes GoS 1 entirely.
    assert sids[: len(sids) // 2] == [s for s in sids if s.gos == 0]
    gos0 = [s for s in sids if s.gos == 0]
    # Coarse slices first, then the fine slices by unit and layer group.
    assert [(s.unit, s.group) for s in gos0] == [
        (1, 0), (2, 0), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_emission_order_streaming():
    gos = GosConfig(3, 1, (0, 1, 3))
    cfg = StreamConfig(stride=3, lookahead=3, coding_context=12,
                       conceal_context=12)
    packets = stream_packets(gos, cfg, 5, 3)
    # Step 0 sends one coarse packet for every frame up to its horizon,
    # then one fine packet for its due frames; step 1, whose horizon adds
    # no frame, only the fine packet of the remaining due frames.
    assert [(p.first_frame, p.n_frames, p.group) for p in packets] == \
        [(0, 5, 0), (0, 3, 1), (3, 2, 1)]
    # (gos_id, unit) names a packet's first frame.
    assert [(p.gos_id, p.unit) for p in packets] == [(0, 1), (0, 1), (1, 1)]
    # Each step's fine slices are coded against coarse layers only.
    assert {c.n_coarse for c in stream_conditions_of(cfg, 5, 1).values()} \
        == {1}


def test_level_truncation_drops_upper_groups():
    gos = GosConfig(4, 2, (0, 2, 4, 6))
    sg = build_slice_grid(4, gos, 3)
    groups = {s.group for s in sg.slices}
    assert groups == {0, 1}
    # Group 1 holds layers 3..4 but level 3 truncates it to layer 3 only.
    cells = sg.slices[SliceId(0, 1, 1)]
    assert set(cells[:, 1].tolist()) == {2}
    assert_partition(sg)


def test_tail_gos_is_shorter():
    gos = GosConfig(4, 2, (0, 1, 2))
    sg = build_slice_grid(6, gos, 2)
    assert {s.gos for s in sg.slices} == {0, 1}
    tail = [s for s in sg.slices if s.gos == 1]
    assert sorted({t for s in tail for t in sg.slices[s][:, 0]}) == [4, 5]
    # Tail GoS has 2 frames: units 1 and 2 cover one frame each.
    tail_coarse = [s for s in tail if s.group == 0]
    assert len(tail_coarse) == 2
    assert_partition(sg)


def test_slice_of_and_key_lookup():
    """A slice's cells, and its Conditions looked up by frame."""
    gos = GosConfig(6, 3, (0, 1, 3))
    sg = build_slice_grid(9, gos, 3)
    assert sg.slices[SliceId(0, 1, 0)].tolist() == [[0, 0], [3, 0]]
    assert sg.slices[SliceId(0, 2, 1)].tolist() == [[1, 1], [1, 2],
                                                    [4, 1], [4, 2]]
    conds = slice_conditions(sg)
    # Every frame's fine slices are coded against the coarse layer of its
    # group-of-slices, the tail one included; one group shares one value.
    assert sorted(conds) == list(range(9))
    assert {conds[t] for t in range(6)} == {(0, 6, 1)}
    assert {conds[t] for t in range(6, 9)} == {(6, 9, 1)}


def test_build_slice_grid_validation():
    gos = GosConfig(4, 2, (0, 2, 4))
    with pytest.raises(ValueError):
        build_slice_grid(0, gos, 4)
    with pytest.raises(ValueError):
        build_slice_grid(4, gos, 1)  # below coarse depth
    with pytest.raises(ValueError):
        build_slice_grid(4, gos, 5)


def test_stream_config_validation():
    StreamConfig(stride=3, lookahead=3, coding_context=12, conceal_context=6)
    with pytest.raises(ValueError):
        StreamConfig(stride=0)
    with pytest.raises(ValueError):
        StreamConfig(stride=3, lookahead=-1)
    with pytest.raises(ValueError):
        StreamConfig(stride=5, lookahead=0, coding_context=4)
    with pytest.raises(ValueError):
        StreamConfig(stride=3, lookahead=3, coding_context=12, conceal_context=5)
    # Both contexts must cover stride + lookahead frames; exactly is enough.
    StreamConfig(stride=3, lookahead=3, coding_context=6, conceal_context=6)
    with pytest.raises(ConfigError, match="stride 3 \\+ lookahead 3"):
        StreamConfig(stride=3, lookahead=3, coding_context=5)

"""Token grids, group-of-slices configuration, and slice partitioning.

Frames and layers are 0-based throughout the arrays. The slicing math that
assigns frames to units speaks 1-based frame and unit ids, matching the
usual presentation of periodic interleaving; `build_slice_grid` translates
to array coordinates.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from enum import IntEnum
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import ConfigError


class TokenState(IntEnum):
    """Per-cell receiver state."""

    RECEIVED = 0   # delivered or recovered bit-exactly
    LOST = 1       # carried by a lost packet
    INVALID = 2    # delivered or undefined but unusable (broken dependency)
    CONCEALED = 3  # filled in by the concealment predictor


# the unsigned integer dtype of each width, in bytes
_UNSIGNED = {n: np.dtype(f"u{n}") for n in (1, 2, 4, 8)}


def outside_range(values: np.ndarray, stop: int) -> bool:
    """Whether any of ``values`` lies outside [0, ``stop``), read as given,
    before any cast. An integer array takes one reduction: a signed one
    is read as the unsigned integers of its width, or as int64 first when
    ``stop`` passes its largest value or its byte order is not the
    machine's, so that every negative value reads as at least ``stop``."""
    a = np.asarray(values)
    if not a.size:
        return False
    if a.dtype.kind == "i":
        if stop > 1 << 8 * a.itemsize - 1 or not a.dtype.isnative:
            a = a.astype(np.int64)
        a = a.view(_UNSIGNED[a.itemsize])
    elif a.dtype.kind != "u":
        return not ((a >= 0) & (a < stop)).all()
    return int(a.max()) >= stop


@dataclass
class TokenGrid:
    """Token indices for T frames by n_layers quantizer layers.

    ``level[t]`` is the number of encoded layers for frame t; token values
    at layers >= level[t] are meaningless. ``vocab`` bounds every token.
    """

    tokens: np.ndarray
    level: np.ndarray
    vocab: int

    def __post_init__(self):
        tokens, level = np.asarray(self.tokens), np.asarray(self.level)
        if tokens.ndim != 2:
            raise ValueError("tokens must be 2-d (frames by layers)")
        if tokens.dtype.kind not in "iu":  # no float, bool or object
            raise ValueError("tokens must be integers")
        if level.shape != (tokens.shape[0],):
            raise ValueError("level must have one entry per frame")
        if self.vocab < 2:
            raise ValueError("vocab must be at least 2")
        # both are checked as given: a cast first could wrap a value in
        if outside_range(level, tokens.shape[1] + 1):
            raise ValueError("level out of range")
        self.level = np.ascontiguousarray(level, dtype=np.int16)
        live = np.arange(tokens.shape[1]) < self.level[:, None]
        if outside_range(tokens[live], self.vocab):
            raise ValueError("token value outside vocabulary")
        self.tokens = np.ascontiguousarray(tokens, dtype=np.int32)

    @property
    def n_frames(self) -> int:
        return self.tokens.shape[0]

    @property
    def n_layers(self) -> int:
        return self.tokens.shape[1]


def initial_states(n_frames: int, n_layers: int, level: int) -> np.ndarray:
    """Receiver states before any packet arrives: LOST below the encode
    level, INVALID at and above it.

    The encode level is stated only here; every prefix rule downstream
    reads it back from the INVALID cells.
    """
    states = np.full((n_frames, n_layers), int(TokenState.LOST), dtype=np.int8)
    states[:, level:] = int(TokenState.INVALID)
    return states


@dataclass(frozen=True)
class GosConfig:
    """Group-of-slices layout.

    gos_len: frames per group.
    n_units: number of interleaved frame units per group.
    n_coarse: layers 1..n_coarse form the coarse group, group 0.
    n_layers: layers n_coarse+1..n_layers form the fine group, group 1,
        which is empty in a coarse-only layout (n_coarse == n_layers).
    """

    gos_len: int
    n_units: int
    n_coarse: int
    n_layers: int

    def __post_init__(self):
        if self.gos_len < 1:
            raise ValueError("gos_len must be at least 1")
        if not 1 <= self.n_units <= self.gos_len:
            raise ValueError("n_units must be in [1, gos_len]")
        if not 1 <= self.n_coarse <= self.n_layers:
            raise ValueError("need 1 <= n_coarse <= n_layers")

    def group_layers(self, group: int, level: int | None = None) -> range:
        """1-based layer range of group 0 (coarse) or 1 (fine), truncated
        at ``level`` if given."""
        if group not in (0, 1):
            raise ValueError(f"no layer group {group}")
        lo = 1 if group == 0 else self.n_coarse + 1
        hi = self.n_coarse if group == 0 else self.n_layers
        if level is not None:
            hi = min(hi, level)
        return range(lo, hi + 1)


@dataclass(frozen=True)
class StreamConfig:
    """Streaming cadence: stride and lookahead in frames.

    A step finalizes ``stride`` frames and carries coarse tokens
    ``lookahead`` frames past them; both stream ends hold the step's
    window, its due frames through its horizon.

    ``coding_context`` and ``conceal_context`` are accepted and have no
    effect: fine tokens are priced by their layers alone, and concealment
    reads only the frames it fills, so no cell is coded or concealed
    against a context window. Both are kept only because the benchmark's
    workloads (``perfbench/workloads.py``) still pass them; the benchmark
    change of ROADMAP item 1 deletes them.
    """

    stride: int = 3
    lookahead: int = 3
    coding_context: int = 12
    conceal_context: int = 12

    def __post_init__(self):
        if self.stride < 1:
            raise ConfigError("stride", "must be at least 1")
        if self.lookahead < 0:
            raise ConfigError("lookahead", "must be non-negative")


def periodic_slicing(gos_len: int, n_units: int) -> dict[int, list[int]]:
    """Assign 1-based frames 1..gos_len to units 1..n_units periodically.

    Unit u takes frames {u, u + n_units, u + 2*n_units, ...} up to gos_len.
    """
    if gos_len < 1:
        raise ValueError("gos_len must be at least 1")
    if not 1 <= n_units <= gos_len:
        raise ValueError("n_units must be in [1, gos_len]")
    return {u: list(range(u, gos_len + 1, n_units)) for u in range(1, n_units + 1)}


class SliceId(NamedTuple):
    gos: int
    unit: int
    group: int  # 0 coarse, 1 fine


@dataclass(frozen=True, eq=False)
class SliceGrid:
    """Partition of all encoded cells (t, k) into slices.

    ``slices`` is keyed in canonical emission order: per group-of-slices,
    the coarse slice of each unit, then the fine slice of each unit, which
    holds the unit's fine layers below the level. ``cells`` arrays are
    (n, 2) int32 of 0-based (frame, layer), sorted by frame then layer.
    Immutable: the mapping and its arrays are read-only, so one layout can
    serve every clip, and it hashes by identity.
    """

    n_frames: int
    n_layers: int
    level: int
    gos: GosConfig
    slices: Mapping[SliceId, np.ndarray]


@functools.lru_cache(maxsize=64)
def build_slice_grid(n_frames: int, gos: GosConfig, level: int) -> SliceGrid:
    """Partition cells (t, k < level) of a T-frame grid into periodic slices.

    The fine slices stop at ``level``, and there are none when ``level`` is
    the coarse depth. Frames past the last full group form a shorter final
    group. Memoized: a layout is built once and shared.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    if level < gos.n_coarse:
        raise ValueError(f"encode level {level} is below the coarse depth {gos.n_coarse}")
    if level > gos.n_layers:
        raise ValueError(f"encode level {level} exceeds the layer count {gos.n_layers}")

    slices = {}
    n_full, tail = divmod(n_frames, gos.gos_len)
    # every full group-of-slices is the first one shifted in time
    shift = np.zeros((n_full, 1, 2), dtype=np.int32)
    shift[:, 0, 0] = np.arange(n_full) * gos.gos_len
    full = [(u, j, _read_only(cells + shift))
            for u, j, cells in _gos_cells(gos, gos.gos_len, level)]
    for g in range(n_full):
        for u, j, cells in full:
            slices[SliceId(g, u, j)] = cells[g]
    if tail:
        start = np.array([n_full * gos.gos_len, 0], dtype=np.int32)
        for u, j, cells in _gos_cells(gos, tail, level):
            slices[SliceId(n_full, u, j)] = _read_only(cells + start)
    return SliceGrid(n_frames, gos.n_layers, level, gos,
                     MappingProxyType(slices))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def cells_of(frames, layers) -> np.ndarray:
    """Cells (t, k) of ``layers`` of ``frames``, frame then layer, as a
    read-only (n, 2) int32 array."""
    frames = np.asarray(frames, dtype=np.int32)
    layers = np.asarray(layers, dtype=np.int32)
    return _read_only(np.stack([np.repeat(frames, len(layers)),
                                np.tile(layers, len(frames))], axis=1))


@functools.lru_cache(maxsize=64)
def _gos_cells(gos: GosConfig, span: int, level: int) -> tuple:
    """(unit, group, cells) of a ``span``-frame group-of-slices starting at
    frame 0, in emission order, empty slices left out. Shared: callers
    shift copies."""
    units = periodic_slicing(gos.gos_len, gos.n_units)
    out = []
    for j in (0, 1):
        layers = np.array(gos.group_layers(j, level)) - 1
        for u in units:
            frames = [t1 - 1 for t1 in units[u] if t1 <= span]
            if frames and len(layers):
                out.append((u, j, cells_of(frames, layers)))
    return tuple(out)

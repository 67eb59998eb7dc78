"""Dependency structure between slices, loss classification, concealment masks.

The coding dependency decides which cells must be recovered bit-exactly
before a fine slice can be entropy-decoded. Both layouts express it as a
per-cell lookup of ``Conditions``: the periodic batch layout derives it
from its slice grid, the streaming layout in closed form from
``stream_geometry``. The concealing dependency is looser: it reads any
received token at or below the damaged layer, both earlier and later in
time, because prediction does not need bit-exact context.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .grid import SliceGrid, SliceId, StreamConfig, TokenState

R = int(TokenState.RECEIVED)
L = int(TokenState.LOST)
I = int(TokenState.INVALID)
C = int(TokenState.CONCEALED)


class LossCase(IntEnum):
    """Damage patterns the receiver distinguishes inside a window."""

    COARSE = 1          # coarse cells carried by a lost packet
    COARSE_CONTEXT = 2  # fine undecodable: a condition coarse slice was lost
                        # outside this window
    FINE = 3            # lost fine cells in a non-key slice
    KEY_CONTEXT = 4     # fine invalidated by a lost key slice


@dataclass(frozen=True)
class ConcealmentWindow:
    """Half-open frame range [start, stop) handled as one unit."""

    start: int
    stop: int

    def __post_init__(self):
        if not 0 <= self.start < self.stop:
            raise ValueError("window must be a non-empty forward range")

    def __len__(self) -> int:
        return self.stop - self.start

    def contains(self, t: int) -> bool:
        return self.start <= t < self.stop


class Conditions(NamedTuple):
    """What one fine slice was entropy-coded against.

    ``coarse`` and ``fine`` are (n, 2) arrays of 0-based (frame, layer)
    cells; the slice decodes only once all of them are RECEIVED.
    """

    key: bool            # a key slice anchors the periodic dependency
    coarse: np.ndarray
    fine: np.ndarray


def decodable(states: np.ndarray, cond: Conditions) -> bool:
    """Whether every cell ``cond`` names has been recovered bit-exactly."""
    c, f = cond.coarse, cond.fine
    return bool((states[c[:, 0], c[:, 1]] == R).all()
                and (states[f[:, 0], f[:, 1]] == R).all())


def stream_geometry(t: int, cfg: StreamConfig, n_frames: int) -> tuple:
    """(window_start, last_context_frame) for encoding frame t's fine tokens.

    The frame is encoded in the step covering it; context runs over up to
    ``coding_context`` frames ending at the step's lookahead horizon, and a
    target at frame t never draws on frames beyond t + lookahead.
    """
    step = t // cfg.stride
    horizon = min((step + 1) * cfg.stride - 1 + cfg.lookahead, n_frames - 1)
    w_start = max(0, horizon - cfg.coding_context + 1)
    t_hi = min(t + cfg.lookahead, n_frames - 1)
    return w_start, t_hi


def stream_conditions(frames: range, cfg: StreamConfig, n_frames: int,
                      n_coarse: int, level: int) -> dict:
    """Per fine cell (t, k) of ``frames``, its Conditions in a stream of
    ``n_frames``.

    Frame t's fine slices were coded against the coarse cells of every
    frame in its context window and the fine cells of the window's frames
    before t; streaming has no key slices.
    """
    if not frames or level <= n_coarse:
        return {}
    # window starts and ends never decrease with t
    lo = stream_geometry(frames.start, cfg, n_frames)[0]
    hi = stream_geometry(frames.stop - 1, cfg, n_frames)[1]
    # one block of cells per kind, frame-major; each frame's share is a view
    coarse = _block(range(lo, hi + 1), range(n_coarse))
    fine = _block(range(lo, frames.stop), range(n_coarse, level))
    nc, nf = n_coarse, level - n_coarse
    lookup: dict = {}
    for t in frames:
        w, t_hi = stream_geometry(t, cfg, n_frames)
        # a context shorter than stride + lookahead can start after t
        cond = Conditions(False, coarse[(w - lo) * nc:(t_hi + 1 - lo) * nc],
                          fine[(w - lo) * nf:(max(w, t) - lo) * nf])
        for k in range(n_coarse, level):
            lookup[(t, k)] = cond
    return lookup


def _block(frames: range, layers: range) -> np.ndarray:
    """(frame, layer) cells of a rectangle, frame-major."""
    m = len(layers)
    f, k = np.divmod(np.arange(frames.start * m, frames.stop * m), m)
    return np.array((f, k + layers.start)).T


def stream_visibility(t: int, n_rows: int, cfg: StreamConfig, n_frames: int,
                      n_coarse: int, level: int) -> tuple:
    """(visible depths over ``n_rows`` buffered frames, frame_range) for
    coding frame t's fine slices in a stream of ``n_frames``.

    Sender and receiver both build their queries from it so their PMFs
    agree bit for bit: full depth before t inside the context window,
    coarse only from t up to the lookahead.
    """
    w_start, t_hi = stream_geometry(t, cfg, n_frames)
    visible = np.zeros(n_rows, dtype=np.int64)
    visible[w_start:t] = level
    visible[t:t_hi + 1] = n_coarse
    return visible, (w_start, t_hi + 1)


def build_coding_dependency(sg: SliceGrid) -> dict:
    """Map each slice to the slices whose exact recovery it requires.

    Coarse slices are unconditioned; the key unit's fine slices condition
    only on the coarse slices of their group-of-slices; every other fine
    slice additionally conditions on the key unit's fine slices up to its
    own layer group.
    """
    phi: dict = {}
    for gos_id in sg.gos_ids():
        coarse = sg.coarse_slices(gos_id)
        key = {}
        for sid in sg.fine_slices(gos_id):
            if sg.is_key(sid):
                key[sid.group] = sid
        for sid in sg.coarse_slices(gos_id):
            phi[sid] = []
        for sid in sg.fine_slices(gos_id):
            if sg.is_key(sid):
                phi[sid] = list(coarse)
            else:
                keys = [key[j] for j in sorted(key) if j <= sid.group]
                phi[sid] = list(coarse) + keys
    return phi


def slice_conditions(sg: SliceGrid) -> dict:
    """Per fine cell (t, k) of a periodic layout, its slice's Conditions."""
    phi = build_coding_dependency(sg)
    none = [np.zeros((0, 2), dtype=np.int64)]
    lookup: dict = {}
    for sid in sg.fine_slices():
        coarse = [sg.slices[c] for c in phi[sid] if c.group == 0]
        keys = [sg.slices[c] for c in phi[sid] if c.group > 0]
        cond = Conditions(sg.is_key(sid), np.concatenate(none + coarse),
                          np.concatenate(none + keys))
        for t, k in sg.slices[sid].tolist():
            lookup[(t, k)] = cond
    return lookup


def coding_visibility(sg: SliceGrid, sid: SliceId) -> tuple:
    """(visible depths over all frames, frame_range) for coding slice ``sid``.

    This is the single source of truth for what a periodic entropy-coding
    query may read; sender and receiver both build their queries from it so
    their PMFs agree bit for bit.
    """
    if sid.group == 0:
        raise ValueError("coarse slices are sent uncoded")
    visible = np.zeros(sg.n_frames, dtype=np.int64)
    n_coarse = sg.gos.n_coarse
    frames = sg.gos_frames(sid.gos)
    visible[frames.start:frames.stop] = n_coarse
    if not sg.is_key(sid):
        key_depth = min(sg.gos.layer_bounds[sid.group + 1], sg.level)
        for k_sid in sg.fine_slices(sid.gos):
            if sg.is_key(k_sid) and k_sid.group <= sid.group:
                cells = sg.slices[k_sid]
                for t in np.unique(cells[:, 0]):
                    visible[t] = key_depth
    return visible, (frames.start, frames.stop)


def propagate_invalid(states: np.ndarray, level) -> None:
    """Mark every cell above a frame's lowest non-received cell as INVALID.

    Later layers refine the residual left by earlier ones, so once a layer
    is missing nothing above it can be applied, delivered or not.
    """
    level = np.asarray(level)
    for t in range(states.shape[0]):
        lvl = int(level[t])
        col = states[t, :lvl]
        bad = np.flatnonzero(col != R)
        if len(bad):
            col[bad[0] + 1:] = I


def build_windows(states: np.ndarray, level, max_len: int) -> list:
    """Group damaged frames into concealment windows of at most max_len.

    Each maximal run of damaged frames is chunked to the length cap, then
    padded as symmetrically as the neighboring clean frames allow. Windows
    never share frames.
    """
    if max_len < 1:
        raise ValueError("window length cap must be at least 1")
    level = np.asarray(level)
    T = states.shape[0]
    damaged = np.array([
        bool((states[t, : int(level[t])] != R).any()) for t in range(T)
    ])
    runs = []
    t = 0
    while t < T:
        if damaged[t]:
            s = t
            while t < T and damaged[t]:
                t += 1
            runs.append((s, t))
        else:
            t += 1

    windows = []
    next_free = 0
    for ri, (rs, re) in enumerate(runs):
        next_damage = runs[ri + 1][0] if ri + 1 < len(runs) else T
        chunk = rs
        while chunk < re:
            chunk_end = min(chunk + max_len, re)
            spare = max_len - (chunk_end - chunk)
            left_avail = chunk - next_free if chunk == rs else 0
            right_avail = next_damage - re if chunk_end == re else 0
            lt = min(left_avail, (spare + 1) // 2)
            rt = min(right_avail, spare - lt)
            lt = min(left_avail, spare - rt)
            win = ConcealmentWindow(chunk - lt, chunk_end + rt)
            windows.append(win)
            next_free = win.stop
            chunk = chunk_end
    return windows


def classify_loss(states: np.ndarray, window: ConcealmentWindow,
                  conditions: dict, n_coarse: int, level: int,
                  conceal_fine_layers: int = 2) -> list:
    """List (frame, layer, LossCase) concealment targets inside a window.

    ``conditions`` maps a fine cell (t, k) to its slice's Conditions; a
    frame without an entry gets no fine targets. Lost coarse cells are
    targets outright. For frames whose coarse survived, the lowest
    non-received fine cell decides: a lost cell in a non-key slice is
    concealed alone; cells invalidated by a coarse slice lost outside the
    window or by a lost key slice are concealed up to the configured number
    of leading fine layers. Cells above a target stay invalid and are not
    concealed.
    """
    coarse_hi = min(n_coarse, level)
    cfl_hi = min(n_coarse + conceal_fine_layers, level)
    targets = []
    for t in range(window.start, window.stop):
        col = states[t]
        lost_coarse = [k for k in range(coarse_hi) if col[k] == L]
        if lost_coarse:
            targets.extend((t, k, LossCase.COARSE) for k in lost_coarse)
            continue
        if any(col[k] != R for k in range(coarse_hi)):
            continue  # coarse concealed earlier or otherwise unusable
        fine_bad = [k for k in range(n_coarse, level) if col[k] != R]
        if not fine_bad:
            continue
        k0 = fine_bad[0]
        cond = conditions.get((t, k0))
        if cond is None:
            continue
        if col[k0] == L:
            if cond.key:
                continue  # the lost key cells themselves stay lost
            targets.append((t, k0, LossCase.FINE))
            continue
        # INVALID: look through this slice's conditions for the root cause
        cc = cond.coarse
        lost = cc[states[cc[:, 0], cc[:, 1]] == L]
        if len(lost):
            if not np.any((lost[:, 0] >= window.start) &
                          (lost[:, 0] < window.stop)):
                targets.extend(
                    (t, k, LossCase.COARSE_CONTEXT) for k in range(k0, cfl_hi))
            continue
        fc = cond.fine
        key_broken = bool(np.any(states[fc[:, 0], fc[:, 1]] != R))
        if key_broken and k0 < cfl_hi:
            targets.extend((t, k, LossCase.KEY_CONTEXT) for k in range(k0, cfl_hi))
    return targets


def build_conceal_mask(targets: list, states: np.ndarray,
                       window: ConcealmentWindow, level) -> tuple:
    """(visible depths, frame_range) for a concealment query.

    Conditions are received cells inside the window, bi-directional in time
    but capped at the highest target layer; within a frame that has targets
    nothing at or above its lowest target is exposed. Everything else in
    the window at or below the cap counts as masked.
    """
    if not targets:
        raise ValueError("no targets to conceal")
    level = np.asarray(level)
    cap = max(k for _, k, _ in targets) + 1
    lowest: dict = {}
    for t, k, _ in targets:
        if not window.contains(t):
            raise ValueError(f"target frame {t} outside the window")
        lowest[t] = min(lowest.get(t, k), k)
    visible = np.zeros(states.shape[0], dtype=np.int64)
    for t in range(window.start, window.stop):
        limit = min(cap, int(level[t]), lowest.get(t, cap))
        d = 0
        while d < limit and states[t, d] == R:
            d += 1
        visible[t] = d
    return visible, (window.start, window.stop)

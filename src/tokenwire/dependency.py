"""Stream step geometry, the prefix rule, loss classification, concealment.

No cell is coded against another: a fine slice is priced by its layers
alone (``context.CountModel.layer_pmf``), so a fine packet decodes
whenever it arrives, and a lost fine packet costs only its own cells.
What ties the layers together is the prefix rule, ``prefix_depth``: a
layer refines the residual left by those below it, so a frame is usable
up to its first failing cell, and ``propagate_invalid`` cuts every layer
above a frame's first cell that is not RECEIVED. The receiver's states
start INVALID at and above the encode level, so no depth read from them
passes the level: invalidation, damage windows, the concealment context,
the usable depth and the blackout source need no per-frame level.

A stream step's geometry, its due frames, its horizon and its coarse
frames, is stated once, by ``stream_step`` and ``stream_coarse``, for
both stream ends.

Concealment predicts lost coarse cells only (``classify_loss``): a lost or
invalid fine cell ends its frame's usable depth, because a guessed fine
token does more harm than one left out. A frame's targets depend on its
own states alone, so concealment windows, plain frame ``range``s, never
read each other's damage. The concealing view reads any received token
at or below the damaged layer, both earlier and later in time. Which
arrived packet fills which slice is not decided here but in
``pipeline.admit``.
"""

from __future__ import annotations

import numpy as np

from .context import View
from .grid import StreamConfig, TokenState

R = int(TokenState.RECEIVED)
L = int(TokenState.LOST)
I = int(TokenState.INVALID)
C = int(TokenState.CONCEALED)


def stream_step(i: int, cfg: StreamConfig, total: int | None = None) -> tuple:
    """(due frames, horizon) of stream step ``i``.

    Step i finalizes frames [i * stride, (i + 1) * stride) and carries the
    coarse tokens of every frame up to its lookahead horizon. Once the
    stream's ``total`` length is known, both clamp at its last frame.
    """
    stop = (i + 1) * cfg.stride
    horizon = stop - 1 + cfg.lookahead
    if total is not None:
        stop, horizon = min(stop, total), min(horizon, total - 1)
    return range(i * cfg.stride, stop), horizon


def stream_coarse(i: int, cfg: StreamConfig,
                  total: int | None = None) -> range:
    """Frames whose coarse layers stream step ``i`` newly carries.

    Step i's coarse packet holds the frames its horizon h_i newly reaches:
    (h_{i-1}, h_i], or [0, h_0] for the first step. The ranges tile the
    stream once each, in step order. Once the stream's ``total`` length is
    known the horizons clamp at its last frame, so the steps after the one
    that reaches it carry no coarse frames.
    """
    lo = stream_step(i - 1, cfg, total)[1] + 1 if i else 0
    return range(lo, stream_step(i, cfg, total)[1] + 1)


def prefix_depth(ok: np.ndarray) -> np.ndarray:
    """Per frame (row), the length of its leading run of cells where ``ok``
    holds: the index of its first failing cell, or the row length."""
    return np.logical_and.accumulate(ok, axis=1).sum(axis=1)


def usable_depth(states: np.ndarray) -> np.ndarray:
    """Per frame, its usable prefix of received or concealed cells."""
    return prefix_depth((states == R) | (states == C)).astype(np.int16)


def propagate_invalid(states: np.ndarray) -> None:
    """Mark every cell above a frame's lowest non-received cell as INVALID.

    Later layers refine the residual left by earlier ones, so once a layer
    is missing nothing above it can be applied, delivered or not.
    """
    depth = prefix_depth(states == R)
    states[np.arange(states.shape[1]) > depth[:, None]] = I


def build_windows(states: np.ndarray, level: int, max_len: int) -> list:
    """Group damaged frames into concealment windows, frame ``range``s of
    at most max_len.

    A frame is damaged when its received prefix stops below ``level``.
    Each maximal run of damaged frames is cut into the fewest chunks that
    fit the length cap, with lengths differing by at most one (earlier
    chunks take the extra frame), so no chunk is a short remainder. The
    run's first chunk is padded into the clean frames before it and its
    last chunk into those after it, as symmetrically as they allow.
    Windows never share frames.
    """
    if max_len < 1:
        raise ValueError("window length cap must be at least 1")
    T = states.shape[0]
    damaged = (prefix_depth(states == R) < level).tolist()
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
        n_chunks = -(-(re - rs) // max_len)
        base, extra = divmod(re - rs, n_chunks)
        chunk = rs
        for i in range(n_chunks):
            chunk_end = chunk + base + (i < extra)
            spare = max_len - (chunk_end - chunk)
            left_avail = chunk - next_free if chunk == rs else 0
            right_avail = next_damage - re if chunk_end == re else 0
            lt = min(left_avail, (spare + 1) // 2)
            rt = min(right_avail, spare - lt)
            lt = min(left_avail, spare - rt)
            win = range(chunk - lt, chunk_end + rt)
            windows.append(win)
            next_free = win.stop
            chunk = chunk_end
    return windows


def classify_loss(states: np.ndarray, frames: range,
                  n_coarse: int) -> np.ndarray:
    """The (frame, layer) concealment targets of ``frames``, an (n, 2)
    array: their LOST coarse cells, in frame-then-layer order.

    Only coarse cells are predicted. A lost or invalid fine cell ends its
    frame's usable depth: left out, it costs less than a guess.
    """
    lost = np.argwhere(states[frames.start:frames.stop, :n_coarse] == L)
    lost[:, 0] += frames.start
    return lost


def build_conceal_mask(targets: np.ndarray, states: np.ndarray,
                       window: range) -> View:
    """The concealment view of the (n, 2) ``targets`` over the window.

    The context is the received cells inside the window, bi-directional
    in time but capped at the highest target layer; within a frame that
    has targets nothing at or above its lowest target is exposed.
    Everything else in the window at or below the cap counts as masked.
    """
    if not (window.step == 1 and 0 <= window.start < window.stop
            <= len(states)):
        raise ValueError(f"window {window} is not a non-empty forward "
                         "frame range inside the grid")
    if not len(targets):
        raise ValueError("no targets to conceal")
    cells = targets.tolist()
    limit = [max(k for _, k in cells) + 1] * len(window)
    for t, k in cells:
        if t not in window:
            raise ValueError(f"target frame {t} outside the window")
        limit[t - window.start] = min(limit[t - window.start], k)
    visible = np.minimum(
        prefix_depth(states[window.start:window.stop] == R), limit)
    return View(window.start, visible, targets)

"""Dependency structure between slices, loss classification, concealment masks.

The coding dependency decides which cells must be recovered bit-exactly
before a fine slice can be entropy-decoded. It is one rule for batch and
streaming: a fine slice is coded against the coarse layers of a frame
range, and only those. In batch the range is the slice's group-of-slices
(``slice_conditions``); in streaming it is the step's coding window, which
ends at the later of the previous step's horizon and the step's last due
frame, in closed form from the step geometry ``stream_step``
(``stream_conditions``). The rule is stated once per frame
or once per stream step, as ``Conditions``: the coder's view shows exactly
its cells, and the receiver decodes the fine slices only once all of them
are RECEIVED, so sender, receiver and decode gate cannot disagree. No fine
cell is ever a condition, so a lost fine packet costs only its own cells.

Concealment predicts lost coarse cells only (``classify_loss``): a lost or
invalid fine cell ends its frame's usable depth, because a guessed fine
token does more harm than one left out. A frame's targets depend on its
own states alone, so concealment windows never read each other's damage.
The concealing view is looser than the coding one: it reads any received
token at or below the damaged layer, both earlier and later in time,
because prediction does not need bit-exact context.

Which cells the receiver can trust is one prefix rule, ``prefix_depth``: a
layer refines the residual left by those below it, so a frame is usable up
to its first failing cell. The receiver's states start INVALID at and
above the encode level, so no depth read from them passes the level:
invalidation, damage windows, the concealment context, the usable depth
and the blackout source need no per-frame level.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .context import View
from .grid import SliceGrid, StreamConfig, TokenState

R = int(TokenState.RECEIVED)
L = int(TokenState.LOST)
I = int(TokenState.INVALID)
C = int(TokenState.CONCEALED)


class LossCase(IntEnum):
    """Damage patterns the receiver conceals by prediction."""

    COARSE = 1  # coarse cells carried by a lost packet


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
    """What the fine slices of one frame were entropy-coded against: the
    first ``n_coarse`` layers of the frames ``[lo, hi)``.

    The coding query shows exactly these cells, and the slices decode only
    once all of them are RECEIVED.
    """

    lo: int
    hi: int
    n_coarse: int

    def view(self, targets: np.ndarray) -> View:
        """The coding view of ``targets``, showing the condition cells."""
        return View(self.lo, np.full(self.hi - self.lo, self.n_coarse),
                    targets)


def decodable(states: np.ndarray, cond: Conditions) -> bool:
    """Whether every cell ``cond`` names has been recovered bit-exactly."""
    return bool((states[cond.lo:cond.hi, :cond.n_coarse] == R).all())


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


def stream_conditions(i: int, cfg: StreamConfig, n_coarse: int,
                      total: int | None = None) -> Conditions:
    """The Conditions of every fine slice of stream step ``i``: the coarse
    layers of the step's coding window, the up to ``coding_context``
    frames that end at frame e_i.

    e_0 is the horizon h_0; for i >= 1, e_i = max(h_{i-1}, last due
    frame), with the horizons and the due frames clamped at ``total`` as
    ``stream_step`` clamps them. The window then never needs step i's own
    coarse packet unless a due frame's coarse layers travel in it (when
    lookahead < stride), and a lost step i-1 coarse packet is repaired by
    step i's repair copy before step i decodes. ``StreamConfig`` makes the
    window cover stride + lookahead frames, so it starts at or before the
    step's first due frame.
    """
    due, end = stream_step(i, cfg, total)
    if i:
        end = max(stream_step(i - 1, cfg, total)[1], due.stop - 1)
    return Conditions(max(0, end - cfg.coding_context + 1), end + 1,
                      n_coarse)


def slice_conditions(sg: SliceGrid) -> dict:
    """Per frame t of a periodic layout, the Conditions of its fine slices:
    the coarse layers of its group-of-slices, shared by all its frames."""
    gl = sg.gos.gos_len
    out: dict = {}
    for lo in range(0, sg.n_frames, gl):
        hi = min(lo + gl, sg.n_frames)
        out.update(dict.fromkeys(range(lo, hi),
                                 Conditions(lo, hi, sg.gos.n_coarse)))
    return out


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
    """Group damaged frames into concealment windows of at most max_len.

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
            win = ConcealmentWindow(chunk - lt, chunk_end + rt)
            windows.append(win)
            next_free = win.stop
            chunk = chunk_end
    return windows


def classify_loss(states: np.ndarray, frames: range, n_coarse: int) -> list:
    """List (frame, layer, LossCase) concealment targets: the LOST coarse
    cells of ``frames``, in frame-then-layer order.

    Only coarse cells are predicted. A lost or invalid fine cell ends its
    frame's usable depth: left out, it costs less than a guess.
    """
    lost = np.argwhere(states[frames.start:frames.stop, :n_coarse] == L)
    return [(frames.start + t, k, LossCase.COARSE) for t, k in lost.tolist()]


def build_conceal_mask(targets: list, states: np.ndarray,
                       window: ConcealmentWindow) -> View:
    """The concealment view of ``targets`` over the window.

    Conditions are received cells inside the window, bi-directional in time
    but capped at the highest target layer; within a frame that has targets
    nothing at or above its lowest target is exposed. Everything else in
    the window at or below the cap counts as masked.
    """
    if not targets:
        raise ValueError("no targets to conceal")
    limit = np.full(len(window), max(k for _, k, _ in targets) + 1)
    for t, k, _ in targets:
        if not window.contains(t):
            raise ValueError(f"target frame {t} outside the window")
        limit[t - window.start] = min(limit[t - window.start], k)
    visible = np.minimum(
        prefix_depth(states[window.start:window.stop] == R), limit)
    return View(window.start, visible,
                np.array([(t, k) for t, k, _ in targets], dtype=np.int64))

"""Streaming transceiver: fixed stride, bounded lookahead, bounded latency.

Frames arrive continuously. Every ``stride`` frames the sender emits one
step: the coarse tokens of the frames its lookahead horizon newly reaches,
then the entropy-coded fine tokens of the frames now due. A frame's fine
tokens are on the wire once the horizon frame has been captured, so
end-to-end latency never exceeds stride + lookahead frames. A step, not a
frame, is the unit that travels: it sends at most one coarse packet,
carrying the coarse layers of its new frames and, as repair, the previous
coarse packet's payload, and at most one fine packet, carrying the fine
layers below the encode level of every due frame in frame-then-layer
order. A packet names whether it is coarse or fine and its frames,
(first_frame, n_frames), and nothing else. At stride 1 every packet after
the first coarse one holds one frame.

Both ends run on the transceiver core in ``pipeline`` and take a step's
geometry, its due frames, its horizon and its coarse frames, from
``stream_step`` and ``stream_coarse``. A step's fine tokens are priced by
their layers alone, so a step's fine packet decodes whenever it arrives
and a lost fine packet costs its own cells only. The receiver's buffered
states start INVALID from the encode level up. Its step geometry names
the heads a step can place, and ``pipeline.admit`` claims them as the
batch receiver does, dropping and counting the rest as if lost. The
receiver then finalizes the due frames: decode what arrived, cut each
frame's layers above its first missing cell, fill each lost coarse cell
with its layer's most probable token, release. A lost or invalid fine
cell is not guessed; it ends its frame's usable depth. Released frames
are never revisited.

Neither end keeps the stream's history. Concealment reads only the
frames it fills, so a step reads only its window: its due frames
through its horizon. Each end holds that window in preallocated rows
(``_Frames``), the sender also the frames pushed past its last horizon,
and forgets every frame before it. Every step's geometry relative to
its window is one memoized ``_Step`` plan: its coarse cells and its
predecessor's, and its due frames' fine cells. From the third step on
every live step has the same plan, so a stream uses a handful of plans:
the first steps', the steady one and the flushed tail's. The releases
are the receiver's output; ``result`` joins them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dependency import (propagate_invalid, stream_coarse, stream_step,
                         usable_depth)
from .errors import DecodeError
# build_slice_grid is not used here; the benchmark's span tracer
# (perfbench/tracing.py, install_layers) hooks it on this module.
from .grid import (GosConfig, StreamConfig, TokenGrid,
                   build_slice_grid, initial_states)  # noqa: F401
from .pipeline import SliceSender, admit, conceal, decode_fine, place_coarse


def _shift(frames: range, by: int) -> range:
    return range(frames.start + by, frames.stop + by)


def _cells(rows: range, layers: range) -> np.ndarray:
    """Cells of the 0-based ``layers`` of ``rows``, frame then layer."""
    return np.stack([np.repeat(np.arange(rows.start, rows.stop), len(layers)),
                     np.tile(np.arange(layers.start, layers.stop), len(rows))],
                    axis=1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Step(NamedTuple):
    """One step's geometry relative to its window, the ``span`` frames
    from its first due frame through its horizon: a row is a frame less
    the window's start. The step before's coarse rows may lie before the
    window, below 0."""

    span: int
    due: range           # rows the step finalizes
    coarse: range        # rows whose coarse layers the step carries
    cells: np.ndarray    # their coarse cells
    prev: np.ndarray | None  # the step before's coarse cells; None first
    fine: np.ndarray | None  # the due rows' fine cells; None without any


@functools.lru_cache(maxsize=256)
def _step_plan(n_coarse: int, level: int, span: int, due: range,
               coarse: range, prev: range | None) -> _Step:
    """The plan of one relative step geometry, shared by every step and
    stream that has it. Its own cache, so that nothing else evicts it."""
    layers = range(n_coarse)
    cells = _read_only(_cells(coarse, layers))
    if prev is not None:
        prev = _read_only(_cells(prev, layers))
    fine = (_read_only(_cells(due, range(n_coarse, level)))
            if level > n_coarse else None)
    return _Step(span, due, coarse, cells, prev, fine)


class _Steps:
    """Step plans of one stream end, each with the first frame of its
    window, its first due frame.

    From the third step on, once the step before's coarse frames are
    those of a steady step, no frame range is clamped at either end, so
    every later live step is the same plan ``stride`` frames on."""

    def __init__(self, gos: GosConfig, cfg: StreamConfig, level: int):
        self.gos, self.cfg, self.level = gos, cfg, level
        self._steady = None  # (step, window start, plan) once steady

    def __call__(self, i: int, total: int | None) -> tuple:
        """(window start, plan) of step ``i``."""
        cfg = self.cfg
        if total is None and self._steady and i >= self._steady[0]:
            j, base, plan = self._steady
            return base + (i - j) * cfg.stride, plan
        due, horizon = stream_step(i, cfg, total)
        base = due.start
        plan = _step_plan(
            self.gos.n_coarse, self.level, horizon + 1 - base,
            _shift(due, -base),
            _shift(stream_coarse(i, cfg, total), -base),
            _shift(stream_coarse(i - 1, cfg, total), -base) if i else None)
        if total is None and i >= 2:
            self._steady = i, base, plan
        return base, plan


class _Frames:
    """Frames ``[lo, hi)`` of a stream in the first rows of preallocated
    ``arrays``: frames enter at ``hi``, and those before ``lo`` are
    forgotten, so holding a window never grows with the stream. There are
    2 * stride + lookahead rows: a sender holds at most one window, of
    stride + lookahead frames, and fewer than ``stride`` pushed past its
    horizon, so one row is left to take the next frame in."""

    def __init__(self, cfg: StreamConfig, n_layers: int, *dtypes):
        cap = 2 * cfg.stride + cfg.lookahead
        self.arrays = [np.zeros((cap, n_layers), dtype=d) for d in dtypes]
        self.lo = self.hi = 0

    def forget(self, lo: int) -> None:
        """Forget the frames before ``lo``, a held frame or ``hi``."""
        if lo != self.lo:
            for a in self.arrays:
                a[:self.hi - lo] = a[lo - self.lo:self.hi - self.lo]
            self.lo = lo

    def enter(self, n: int) -> slice:
        """Take up to ``n`` frames in at ``hi``, as many as there are rows
        left; returns their rows, ``hi`` moving past them."""
        first = self.hi - self.lo
        n = min(n, len(self.arrays[0]) - first)
        self.hi += n
        return slice(first, first + n)

    def rows(self, lo: int, hi: int) -> list:
        """Views of the held frames ``[lo, hi)``, one per array."""
        return [a[lo - self.lo:hi - self.lo] for a in self.arrays]


@dataclass(frozen=True)
class StepEmission:
    """Everything one sender step put on the wire."""

    step: int
    packets: tuple
    due: tuple      # (start, stop) frames finalized by this step
    horizon: int    # last frame whose coarse tokens have been sent


@dataclass
class StreamRelease:
    """Frames finalized by one receiver step."""

    due: tuple
    tokens: np.ndarray
    states: np.ndarray
    valid_depth: np.ndarray


class StreamSender:
    """Incremental encoder; pair each emission with a StreamReceiver step.

    Holds the window of its last step and the frames pushed past that
    step's horizon; a long push is taken in a few frames at a time."""

    def __init__(self, gos: GosConfig, stream: StreamConfig, model,
                 level: int | None = None, fec: bool = True):
        level = gos.n_layers if level is None else level
        if not gos.n_coarse <= level <= gos.n_layers:
            raise ValueError("level out of range for the layout")
        self.gos = gos
        self.stream = stream
        self.model = model
        self.level = level
        self.fec = fec
        self.vocab = model.vocab
        self._tx = SliceSender(model, fec)
        self.report = self._tx.report  # SenderReport over all emissions
        self._steps = _Steps(gos, stream, level)
        self._frames = _Frames(stream, gos.n_layers, np.int32)
        self._next_step = 0
        # largest (frames captured when emitted) - (frame index) over all
        # due frames, None before the first; the protocol bound is
        # stride + lookahead
        self.max_latency: int | None = None
        self._done = False

    def push(self, tokens: np.ndarray) -> list:
        """Take in frames; emit every step whose lookahead is now covered.

        Only the layers below the level are sent and checked; the values
        above it are never read."""
        if self._done:
            raise RuntimeError("sender already flushed")
        tokens = np.asarray(tokens, dtype=np.int32)
        if tokens.ndim != 2 or tokens.shape[1] != self.gos.n_layers:
            raise ValueError("frames must be (n, n_layers)")
        sent = tokens[:, :self.level]
        if sent.size and (sent.min() < 0 or int(sent.max()) >= self.vocab):
            raise ValueError("token outside vocabulary")
        frames = self._frames
        out = []
        while len(tokens):
            rows = frames.enter(len(tokens))
            n = rows.stop - rows.start
            frames.arrays[0][rows] = tokens[:n]
            tokens = tokens[n:]
            while True:
                base, plan = self._steps(self._next_step, None)
                if base + plan.span > frames.hi:
                    break
                out.append(self._emit(base, plan))
        return out

    def flush(self) -> tuple:
        """Emit the remaining steps with the horizon clamped at the end.

        Returns (emissions, total_frames).
        """
        if self._done:
            raise RuntimeError("sender already flushed")
        self._done = True
        total = self._frames.hi
        out = []
        n_steps = math.ceil(total / self.stream.stride)
        while self._next_step < n_steps:
            out.append(self._emit(*self._steps(self._next_step, total)))
        return out, total

    def _emit(self, base: int, plan: _Step) -> StepEmission:
        i = self._next_step
        self._next_step += 1
        frames = self._frames
        frames.forget(base)
        horizon = base + plan.span - 1
        tokens, = frames.rows(base, horizon + 1)
        packets = []
        if len(plan.coarse):
            c = plan.coarse
            packets.append(self._tx.coarse(
                (0, base + c.start, len(c)),
                tokens[c.start:c.stop, :self.gos.n_coarse].ravel()))
        due = range(base + plan.due.start, base + plan.due.stop)
        if plan.fine is not None:
            packets += self._tx.fine(tokens,
                                     [((1, due.start, len(due)), plan.fine)])
        if len(due):  # the first due frame waited longest, at least 1
            self.max_latency = max(self.max_latency or 0,
                                   horizon + 1 - due.start)
        return StepEmission(i, tuple(packets), (due.start, due.stop), horizon)


class StreamReceiver:
    """Mirrors StreamSender step by step; frames come out finalized.

    Holds the window of its last step, at most stride + lookahead
    frames, and the releases, which ``result`` joins.
    ``conceal_fine_layers`` is accepted and has no effect: fine cells are
    never predicted.
    """

    def __init__(self, gos: GosConfig, stream: StreamConfig, model,
                 level: int | None = None, conceal_fine_layers: int = 2):
        level = gos.n_layers if level is None else level
        if not gos.n_coarse <= level <= gos.n_layers:
            raise ValueError("level out of range for the layout")
        self.gos = gos
        self.stream = stream
        self.model = model
        self.level = level
        self.vocab = model.vocab
        self._steps = _Steps(gos, stream, level)
        self._frames = _Frames(stream, gos.n_layers, np.int32, np.int8)
        self._blank = initial_states(1, gos.n_layers, level)
        self._releases: list = []
        self._released = 0
        self._next_step = 0
        self._finished = False
        self.n_predicted = 0  # lost coarse cells predicted by concealment
        self.fec_recovered = 0
        self.n_dropped = 0  # packets that arrived but could not be used

    def step(self, packets, total: int | None = None) -> StreamRelease:
        """Process one step's arrived packets and finalize its due frames.

        A step can place two kinds of head: a coarse one over some step's
        coarse frames up to the horizon, with a repair copy of the step
        before's (ignored on the first), and a fine one over the due frames
        when the level sends fine layers. ``admit`` claims them; any other
        packet, a copy of a head already filled, or one whose payload
        cannot be read is dropped and counted in ``n_dropped``."""
        if self._finished:
            raise RuntimeError("receiver already finished")
        buf = self._frames
        if total is not None and total < buf.hi:
            raise ValueError("total is short of the frames earlier steps "
                             "carried")
        cfg, n_coarse = self.stream, self.gos.n_coarse
        base, plan = self._steps(self._next_step, total)
        self._next_step += 1
        horizon = base + plan.span - 1
        buf.forget(base)
        new = buf.enter(horizon + 1 - buf.hi)
        buf.arrays[0][new] = 0
        buf.arrays[1][new] = self._blank
        tokens, states = buf.rows(base, horizon + 1)
        due = range(base + plan.due.start, base + plan.due.stop)
        own = range(base + plan.coarse.start, base + plan.coarse.stop)
        fine_head = (1, due.start, len(due))

        def slot_of(p):
            frames = range(p.first_frame, p.first_frame + p.n_frames)
            if p.group:
                ok = plan.fine is not None and frames == due
                return (plan.fine, None) if ok else None
            if len(own) and frames == own:
                return plan.cells, plan.prev
            # the one step whose coarse frames can start there: step j >= 1
            # starts after h_{j-1} = j * stride - 1 + lookahead
            j = max(0, (frames.start - cfg.lookahead) // cfg.stride)
            if (frames.stop - 1 > horizon
                    or frames != stream_coarse(j, cfg, total)):
                return None
            return (_cells(_shift(frames, -base), range(n_coarse)),
                    _cells(_shift(stream_coarse(j - 1, cfg, total), -base),
                           range(n_coarse)) if j else None)

        links, copies, n_dropped = admit(packets, slot_of, self.vocab)
        self.n_dropped += n_dropped
        # the window starts at the first due frame, so every row below 0
        # is a released frame, and final
        self.fec_recovered += place_coarse(
            tokens, states, links, self.vocab, 0)

        if plan.fine is not None:
            self.n_dropped += decode_fine(
                self.model, tokens, states,
                [(copies.get(fine_head, ()), plan.fine)])

        sl = slice(plan.due.start, plan.due.stop)
        propagate_invalid(states[sl])
        self.n_predicted += conceal(self.model, tokens, states, plan.due,
                                    n_coarse)
        self._released = due.stop
        release = StreamRelease((due.start, due.stop), tokens[sl].copy(),
                                states[sl].copy(), usable_depth(states[sl]))
        self._releases.append(release)
        return release

    @property
    def n_blackouts(self) -> int:
        """Always 0: concealment holds no frame through a blackout. Kept
        only because the benchmark's workloads still read it; the
        benchmark change of ROADMAP item 1 deletes it."""
        return 0

    def finish(self, emissions, total: int) -> list:
        """Process the sender's flush emissions; returns their releases."""
        releases = [self.step(packets, total=total) for packets in emissions]
        if self._released < total:
            raise DecodeError("stream ended before all frames were released")
        self._finished = True
        return releases

    def result(self) -> tuple:
        """(grid, states) after finish, the releases joined; grid.level
        is the usable depth."""
        if not self._finished:
            raise RuntimeError("stream not finished")
        K = self.gos.n_layers
        rel = self._releases
        tokens = np.concatenate([np.zeros((0, K), np.int32)]
                                + [r.tokens for r in rel])
        states = np.concatenate([np.zeros((0, K), np.int8)]
                                + [r.states for r in rel])
        depth = np.concatenate([np.zeros(0, np.int16)]
                               + [r.valid_depth for r in rel])
        return TokenGrid(tokens, depth, self.vocab), states

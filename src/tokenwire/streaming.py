"""Streaming transceiver: fixed stride, bounded lookahead, bounded latency.

Frames arrive continuously. Every ``stride`` frames the sender emits one
step. Step i finalizes its due frames [i * stride, (i + 1) * stride) and
carries the coarse tokens of every frame up to its horizon h_i, lookahead
frames past its last due frame (``stream_step``). Its coarse packet holds
the frames its horizon newly reaches, (h_{i-1}, h_i] or [0, h_0] for the
first step, so the steps' coarse frames tile the stream once each
(``stream_coarse``). Once the stream's length is known, both clamp at its
last frame. A frame's fine tokens are on the wire once the horizon frame
has been captured, so end-to-end latency never exceeds stride +
lookahead frames. A step, not a frame, is the unit that travels: it
sends at most one coarse packet, carrying the coarse layers of its new
frames and, as repair, the previous coarse packet's payload, and at most
one fine packet, carrying the fine layers below the encode level of
every due frame in frame-then-layer order. A packet names whether it is
coarse or fine and its frames, (first_frame, n_frames), and nothing
else. At stride 1 every packet after the first coarse one holds one
frame.

Both ends run on the transceiver core in ``pipeline``, as the batch ends
do, and check their model's layers once, on construction. The sender
hands each step's plan to ``SliceSender.send``. A step's fine tokens
are priced by their layers alone, so its fine packet decodes whenever
it arrives and a lost one costs its own cells only. The receiver reads
the arrived packets against its step's heads with ``pipeline.decode``,
dropping and counting one it cannot place or read, or that arrives
after its frames were released or received, and ``pipeline.finalize``
cuts each due frame at its first missing cell before release. Released
frames are never revisited.

Neither end keeps the stream's history. Finalizing reads only the
frames it releases, so a step reads only its window: its due frames
through its horizon. Each end holds that window in preallocated rows
(``_Frames``), the sender also the frames pushed past its last horizon,
and forgets every frame before it. Every step's geometry relative to
its window is one memoized ``pipeline.Plan``, built by
``pipeline.build_plan`` as the batch layout's is. Once step 0's coarse
frames have left the window every live step has the same plan, so a
stream uses a handful of plans: the first steps', the steady one and
the flushed tail's. The releases are the receiver's output; ``result``
joins them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DecodeError
# build_slice_grid is not used here; the benchmark's span tracer
# (perfbench/tracing.py, install_layers) hooks it on this module.
from .grid import (GosConfig, StreamConfig, TokenGrid, build_slice_grid,
                   cells_of, initial_states, outside_range)  # noqa: F401
from .pipeline import (Plan, SliceSender, build_plan, check_layers, decode,
                       finalize)


def stream_step(i: int, cfg: StreamConfig, total: int | None = None) -> tuple:
    """(due frames, horizon) of stream step ``i``, clamped at the last
    frame once the stream's ``total`` length is known."""
    stop = (i + 1) * cfg.stride
    horizon = stop - 1 + cfg.lookahead
    if total is not None:
        stop, horizon = min(stop, total), min(horizon, total - 1)
    return range(i * cfg.stride, stop), horizon


def stream_coarse(i: int, cfg: StreamConfig,
                  total: int | None = None) -> range:
    """Frames whose coarse layers stream step ``i`` newly carries: those
    after the step before's horizon up to its own. The steps after the
    one whose horizon reaches the last frame carry none."""
    lo = stream_step(i - 1, cfg, total)[1] + 1 if i else 0
    return range(lo, stream_step(i, cfg, total)[1] + 1)


@functools.lru_cache(maxsize=256)
def _step_plan(n_coarse: int, n_layers: int, level: int, span: int,
               n_due: int, coarse: tuple, own: bool) -> Plan:
    """The plan of one step geometry relative to its window, the ``span``
    frames from its first due frame through its horizon, shared by every
    step and stream that has it. Its own cache, so that nothing else
    evicts it.

    ``coarse`` holds the rows of each step's coarse frames that reach
    the window, in step order, the step's own last when ``own``; the
    step places them all, and sends its own, then its fine slice over
    its ``n_due`` due rows when ``level`` sends fine layers. The first
    one's predecessor lies before the window, where no repair copy can
    write, so ``build_plan`` gives it none."""
    runs = [(0, cells_of(rows, range(n_coarse))) for rows in coarse]
    if level > n_coarse:
        runs.append((1, cells_of(range(n_due), range(n_coarse, level))))
    return build_plan(span, n_due, runs, n_layers, len(coarse) - own)


class _Steps:
    """Step plans of one stream end, each with the first frame of its
    window, its first due frame.

    Once step 0's coarse frames have left the window, no frame range the
    plan holds is clamped at either end, and step 0, the one step
    without a predecessor, is not among them, so every later live step
    is the same plan ``stride`` frames on."""

    def __init__(self, gos: GosConfig, cfg: StreamConfig, level: int):
        if not gos.n_coarse <= level <= gos.n_layers:
            raise ValueError("level out of range for the layout")
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
        coarse = []
        for j in range(i, -1, -1):
            frames = stream_coarse(j, cfg, total)
            if frames.stop <= base:
                break
            if len(frames):
                coarse.insert(0, range(frames.start - base,
                                       frames.stop - base))
        plan = _step_plan(self.gos.n_coarse, self.gos.n_layers, self.level,
                          horizon + 1 - base, len(due), tuple(coarse),
                          bool(stream_coarse(i, cfg, total)))
        if total is None and stream_coarse(0, cfg).stop <= base:
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

    Every coarse packet after the first carries its predecessor's payload
    as a repair copy. Holds the window of its last step and the frames
    pushed past that step's horizon; a long push is taken in a few frames
    at a time."""

    def __init__(self, gos: GosConfig, stream: StreamConfig, model,
                 level: int | None = None):
        level = gos.n_layers if level is None else level
        check_layers(model, gos.n_layers)
        self._steps = _Steps(gos, stream, level)
        self.gos = gos
        self.stream = stream
        self.model = model
        self.level = level
        self.vocab = model.vocab
        self._tx = SliceSender(model)
        self.report = self._tx.report  # SenderReport over all emissions
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
        tokens = np.asarray(tokens)
        if tokens.ndim != 2 or tokens.shape[1] != self.gos.n_layers:
            raise ValueError("frames must be (n, n_layers)")
        if tokens.dtype.kind not in "iu":
            raise ValueError("tokens must be integers")
        # checked as given, before the frames' int32 rows take them in
        if outside_range(tokens[:, :self.level], self.vocab):
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

    def _emit(self, base: int, plan: Plan) -> StepEmission:
        i = self._next_step
        self._next_step += 1
        frames = self._frames
        frames.forget(base)
        horizon = base + plan.span - 1
        tokens, = frames.rows(base, horizon + 1)
        n_due = plan.due.stop
        packets = self._tx.send(tokens, plan, base)
        if n_due:  # the first due frame waited longest, at least 1
            self.max_latency = max(self.max_latency or 0, horizon + 1 - base)
        return StepEmission(i, tuple(packets), (base, base + n_due), horizon)


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
        check_layers(model, gos.n_layers)
        self._steps = _Steps(gos, stream, level)
        self.gos = gos
        self.stream = stream
        self.model = model
        self.level = level
        self.vocab = model.vocab
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

        The step's plan names every head it can place: a coarse one for
        each step up to this one whose coarse frames reach the window,
        with a repair copy of the one before's, and a fine one over the
        due frames when the level sends fine layers. ``decode`` reads the
        packets against it; any other packet, a copy that finds no cell
        of its slice open, or one whose payload cannot be read is dropped
        and counted in ``n_dropped``."""
        if self._finished:
            raise RuntimeError("receiver already finished")
        buf = self._frames
        if total is not None and total < buf.hi:
            raise ValueError("total is short of the frames earlier steps "
                             "carried")
        base, plan = self._steps(self._next_step, total)
        self._next_step += 1
        horizon = base + plan.span - 1
        buf.forget(base)
        new = buf.enter(horizon + 1 - buf.hi)
        buf.arrays[0][new] = 0
        buf.arrays[1][new] = self._blank
        tokens, states = buf.rows(base, horizon + 1)
        # the window starts at the first due frame, so every row below 0
        # is a released frame, and final
        n_dropped, fec_recovered = decode(self.model, tokens, states,
                                          packets, plan.heads, base)
        self.n_dropped += n_dropped
        self.fec_recovered += fec_recovered

        n_predicted, depth = finalize(self.model, tokens, states, plan.due,
                                      self.gos.n_coarse)
        self.n_predicted += n_predicted
        n_due = plan.due.stop
        self._released = base + n_due
        release = StreamRelease((base, base + n_due),
                                tokens[:n_due].copy(),
                                states[:n_due].copy(), depth)
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

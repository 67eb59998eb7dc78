"""Streaming transceiver: fixed stride, bounded lookahead, bounded latency.

Frames arrive continuously. Every ``stride`` frames the sender emits one
step: coarse tokens for all frames up to the lookahead horizon, then
entropy-coded fine tokens for the frames now due. A frame's fine tokens
are on the wire once the horizon frame has been captured, so end-to-end
latency never exceeds stride + lookahead frames. Each frame is its own
slice: packet (gos_id, unit) names frame gos_id * gos_len + unit - 1.

Both ends run on the transceiver core in ``pipeline``. A step's geometry,
its due frames and its horizon, comes from ``stream_step`` on both ends.
A frame's fine slices are coded against the coarse layers of its coding
window up to its lookahead and nothing else: each step, sender and
receiver alike derive the ``Conditions`` of its due frames from that
horizon with ``stream_conditions``, and the coding view, the decoding
view and the decode gate all come from them. No fine cell is a condition,
so a lost fine packet costs its own frame only, and each end prices a
whole step's fine slices in one model query. A step never looks beyond
its own due frames. The receiver's buffered states start INVALID from the
encode level up, so the prefix rules read the level from them. The
receiver checks and unpacks every packet of a step before it changes any
state, then finalizes the due frames: decode what arrived, conceal the
rest inside a window ending at the horizon, release. Released frames are
never revisited, and concealed cells never serve as coding context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dependency import (ConcealmentWindow, propagate_invalid,
                         stream_conditions, stream_step, usable_depth)
from .errors import DecodeError
# build_slice_grid is not used here; the benchmark's span tracer
# (perfbench/tracing.py, install_layers) hooks it on this module.
from .grid import (GosConfig, StreamConfig, TokenGrid, TokenState,
                   build_slice_grid, initial_states)  # noqa: F401
from .pipeline import (SliceSender, conceal_in_window, decode_fine,
                       unpack_coarse)

_R = int(TokenState.RECEIVED)


def _frame_head(gos: GosConfig, f: int, group: int) -> tuple:
    """Packet head of frame f's slice of ``group``."""
    return f // gos.gos_len, f % gos.gos_len + 1, group, f, 1


def _fine_slices(gos: GosConfig, f: int, level: int) -> list:
    """(group, cells) of frame f's fine slices below ``level``."""
    out = []
    for j in range(1, gos.n_fine_groups + 1):
        layers = gos.group_layers(j, level)
        if len(layers):
            out.append((j, np.array([(f, k - 1) for k in layers],
                                    dtype=np.int64)))
    return out


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
    """Incremental encoder; pair each emission with a StreamReceiver step."""

    def __init__(self, gos: GosConfig, stream: StreamConfig, model,
                 level: int | None = None, fec: bool = True):
        level = gos.n_layers if level is None else level
        if not gos.n_coarse <= level <= gos.n_layers:
            raise ValueError("level out of range for the layer bounds")
        self.gos = gos
        self.stream = stream
        self.model = model
        self.level = level
        self.fec = fec
        self.vocab = model.vocab
        self._tx = SliceSender(model, fec)
        self.report = self._tx.report  # SenderReport over all emissions
        self._buf = np.zeros((0, gos.n_layers), dtype=np.int32)
        self._next_step = 0
        self._coarse_sent = 0
        self._latency: list = []
        self._done = False

    @property
    def max_latency(self) -> int | None:
        """Largest (frames captured when emitted) - (frame index) over all
        due frames; the protocol bound is stride + lookahead."""
        return max(self._latency) if self._latency else None

    def push(self, tokens: np.ndarray) -> list:
        """Buffer frames; emit every step whose lookahead is now covered."""
        if self._done:
            raise RuntimeError("sender already flushed")
        tokens = np.asarray(tokens, dtype=np.int32)
        if tokens.ndim != 2 or tokens.shape[1] != self.gos.n_layers:
            raise ValueError("frames must be (n, n_layers)")
        if tokens.size and (tokens.min() < 0 or
                            int(tokens[:, :self.level].max()) >= self.vocab):
            raise ValueError("token outside vocabulary")
        self._buf = np.concatenate([self._buf, tokens])
        out = []
        while stream_step(self._next_step, self.stream)[1] < len(self._buf):
            out.append(self._emit(self._next_step, total=None))
            self._next_step += 1
        return out

    def flush(self) -> tuple:
        """Emit the remaining steps with the horizon clamped at the end.

        Returns (emissions, total_frames).
        """
        if self._done:
            raise RuntimeError("sender already flushed")
        self._done = True
        total = len(self._buf)
        out = []
        n_steps = math.ceil(total / self.stream.stride)
        while self._next_step < n_steps:
            out.append(self._emit(self._next_step, total=total))
            self._next_step += 1
        return out, total

    def _emit(self, i: int, total: int | None) -> StepEmission:
        due, horizon = stream_step(i, self.stream, total)
        packets = []
        for f in range(self._coarse_sent, horizon + 1):
            packets.append(self._tx.coarse(_frame_head(self.gos, f, 0),
                                           self._buf[f, :self.gos.n_coarse]))
        self._coarse_sent = max(self._coarse_sent, horizon + 1)
        gos = self.gos
        conditions = stream_conditions(due, self.stream, horizon,
                                       gos.n_coarse)
        packets += self._tx.fine(self._buf, [
            (_frame_head(gos, f, j), cells, conditions[f])
            for f in due for j, cells in _fine_slices(gos, f, self.level)])
        self._latency.extend(horizon + 1 - f for f in due)
        return StepEmission(i, tuple(packets), (due.start, due.stop), horizon)


class StreamReceiver:
    """Mirrors StreamSender step by step; frames come out finalized."""

    def __init__(self, gos: GosConfig, stream: StreamConfig, model,
                 level: int | None = None, conceal_fine_layers: int = 2):
        level = gos.n_layers if level is None else level
        if not gos.n_coarse <= level <= gos.n_layers:
            raise ValueError("level out of range for the layer bounds")
        self.gos = gos
        self.stream = stream
        self.model = model
        self.level = level
        self.vocab = model.vocab
        self.conceal_fine_layers = conceal_fine_layers
        self._tokens = np.zeros((0, gos.n_layers), dtype=np.int32)
        self._states = np.zeros((0, gos.n_layers), dtype=np.int8)
        self._released = 0
        self._next_step = 0
        self._finished = False
        self.case_counts: dict = {}
        self.n_blackouts = 0
        self.fec_recovered = 0

    def _grow(self, n: int) -> None:
        cur = len(self._tokens)
        if n <= cur:
            return
        K = self.gos.n_layers
        self._tokens = np.concatenate(
            [self._tokens, np.zeros((n - cur, K), dtype=np.int32)])
        self._states = np.concatenate(
            [self._states, initial_states(n - cur, K, self.level)])

    def step(self, packets, total: int | None = None) -> StreamRelease:
        """Process one step's surviving packets and finalize its due frames.

        Raises DecodeError, leaving the receiver as it was, on a packet
        that names no frame of its group-of-slices, a coarse packet beyond
        the step's horizon, a coarse payload or needed repair copy that
        does not unpack into the vocabulary, or a fine packet outside the
        due batch. A repair copy is needed when its frame is not yet
        released and its coarse tokens have not arrived before it.
        """
        if self._finished:
            raise RuntimeError("receiver already finished")
        due, horizon = stream_step(self._next_step, self.stream, total)

        gl, n_coarse = self.gos.gos_len, self.gos.n_coarse
        coarse, fine, repaired = {}, {}, 0  # coarse: frame -> its tokens
        for p in packets:
            f = p.gos_id * gl + p.unit - 1
            if not 1 <= p.unit <= gl:
                raise DecodeError("packet unit outside the group-of-slices")
            if p.group == 0:
                if f > horizon:
                    raise DecodeError("coarse packet beyond the step horizon")
                vals = unpack_coarse(p.payload, self.vocab, n_coarse)
                if f >= self._released:  # released frames are final
                    coarse[f] = vals
                g = f - 1
                if (p.fec and g >= self._released and g not in coarse
                        and not (g < len(self._states) and np.all(
                            self._states[g, :n_coarse] == _R))):
                    coarse[g] = unpack_coarse(p.fec, self.vocab, n_coarse)
                    repaired += 1
            elif f not in due:
                raise DecodeError("fine packet outside the due batch")
            else:
                fine[(f, p.group)] = p.payload
        self._next_step += 1
        self._grow(horizon + 1)

        for f, vals in coarse.items():
            self._tokens[f, :n_coarse] = vals
            self._states[f, :n_coarse] = _R
        self.fec_recovered += repaired

        gos, level, cfg = self.gos, self.level, self.stream
        conditions = stream_conditions(due, cfg, horizon, n_coarse)
        decode_fine(self.model, self._tokens, self._states, [
            (cells, fine.get((f, j)), conditions[f])
            for f in due for j, cells in _fine_slices(gos, f, level)])

        sl = slice(due.start, due.stop)
        propagate_invalid(self._states[sl])
        win = ConcealmentWindow(max(0, horizon + 1 - cfg.conceal_context),
                                horizon + 1)
        self.n_blackouts += conceal_in_window(
            self.model, self._tokens, self._states, win, due, conditions,
            n_coarse, level, self.conceal_fine_layers, self.case_counts)
        self._released = due.stop
        return StreamRelease(
            (due.start, due.stop), self._tokens[sl].copy(),
            self._states[sl].copy(), usable_depth(self._states[sl]))

    def finish(self, emissions, total: int) -> list:
        """Process the sender's flush emissions; returns their releases."""
        releases = [self.step(packets, total=total) for packets in emissions]
        if self._released < total:
            raise DecodeError("stream ended before all frames were released")
        self._finished = True
        self._tokens = self._tokens[:total]
        self._states = self._states[:total]
        return releases

    def result(self) -> tuple:
        """(grid, states) after finish; grid.level is the usable depth."""
        if not self._finished:
            raise RuntimeError("stream not finished")
        return TokenGrid(self._tokens.copy(), usable_depth(self._states),
                         self.vocab), self._states.copy()

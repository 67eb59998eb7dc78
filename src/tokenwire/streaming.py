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
``stream_step`` and ``stream_coarse``. A step's fine slice is coded
against the coarse layers of the step's coding window and nothing else.
The window ends at the later of the previous step's horizon and the
step's last due frame, so with lookahead >= stride a lost coarse packet
is repaired by the next step's copy before that step decodes. Both ends
derive that one ``Conditions`` with ``stream_conditions``. No fine cell
is a condition, so a lost fine packet costs its own cells only. The
receiver's buffered states start INVALID from the encode level up. Its
step geometry names the heads a step can place, and ``pipeline.admit``
claims them as the batch receiver does, dropping and counting the rest
as if lost. The receiver then finalizes the due frames: decode what
arrived, conceal the lost coarse cells inside a window ending at the
horizon, release. A lost or invalid fine cell is not guessed; it ends its
frame's usable depth. Released frames are never revisited, and concealed
cells never serve as coding context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .context import MaskedQuery
from .dependency import (propagate_invalid, stream_coarse,
                         stream_conditions, stream_step, usable_depth)
from .errors import DecodeError
# build_slice_grid is not used here; the benchmark's span tracer
# (perfbench/tracing.py, install_layers) hooks it on this module.
from .grid import (GosConfig, StreamConfig, TokenGrid,
                   build_slice_grid, initial_states)  # noqa: F401
from .pipeline import SliceSender, admit, conceal, decode_fine, place_coarse


def _head(frames: range, group: int) -> tuple:
    """Packet head of the slice of ``group`` over ``frames``."""
    return group, frames.start, len(frames)


def _cells(frames: range, layers: range) -> np.ndarray:
    """Cells of the 0-based ``layers`` of ``frames``, frame then layer."""
    return np.array([(f, k) for f in frames for k in layers], dtype=np.int64)


def _fine_cells(gos: GosConfig, frames: range, level: int):
    """Cells of the fine slice of ``frames``, the fine layers below
    ``level`` in frame-then-layer order; None when there are none."""
    if level == gos.n_coarse:
        return None
    return _cells(frames, range(gos.n_coarse, level))


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
            raise ValueError("level out of range for the layout")
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
        # largest (frames captured when emitted) - (frame index) over all
        # due frames, None before the first; the protocol bound is
        # stride + lookahead
        self.max_latency: int | None = None
        self._done = False

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
        gos, cfg = self.gos, self.stream
        due, horizon = stream_step(i, cfg, total)
        coarse = stream_coarse(i, cfg, total)
        packets = []
        if len(coarse):
            packets.append(self._tx.coarse(
                _head(coarse, 0),
                self._buf[coarse.start:coarse.stop, :gos.n_coarse].ravel()))
        fine = _fine_cells(gos, due, self.level)
        if fine is not None:
            cond = stream_conditions(i, cfg, gos.n_coarse, total)
            packets += self._tx.fine(MaskedQuery(self._buf, [cond.view(fine)]),
                                     [_head(due, 1)])
        if len(due):  # the first due frame waited longest, at least 1
            self.max_latency = max(self.max_latency or 0,
                                   horizon + 1 - due.start)
        return StepEmission(i, tuple(packets), (due.start, due.stop), horizon)


class StreamReceiver:
    """Mirrors StreamSender step by step; frames come out finalized.

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
        self._tokens = np.zeros((0, gos.n_layers), dtype=np.int32)
        self._states = np.zeros((0, gos.n_layers), dtype=np.int8)
        self._released = 0
        self._next_step = 0
        self._finished = False
        self.n_predicted = 0  # lost coarse cells predicted by concealment
        self.n_blackouts = 0
        self.fec_recovered = 0
        self.n_dropped = 0  # packets that arrived but could not be used

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
        """Process one step's arrived packets and finalize its due frames.

        A step can place two kinds of head: a coarse one over some step's
        coarse frames up to the horizon, with a repair copy of the step
        before's (ignored on the first), and a fine one over the due frames
        when the level sends fine layers. ``admit`` claims them; any other
        packet, a copy of a head already filled, or one whose payload
        cannot be read is dropped and counted in ``n_dropped``."""
        if self._finished:
            raise RuntimeError("receiver already finished")
        cfg, n_coarse = self.stream, self.gos.n_coarse
        i = self._next_step
        due, horizon = stream_step(i, cfg, total)
        fine = _fine_cells(self.gos, due, self.level)
        self._next_step += 1
        self._grow(horizon + 1)

        def slot_of(p):
            frames = range(p.first_frame, p.first_frame + p.n_frames)
            if p.group:
                ok = fine is not None and frames == due
                return (fine, None) if ok else None
            # the one step whose coarse frames can start there: step j >= 1
            # starts after h_{j-1} = j * stride - 1 + lookahead
            j = max(0, (frames.start - cfg.lookahead) // cfg.stride)
            if (frames.stop - 1 > horizon
                    or frames != stream_coarse(j, cfg, total)):
                return None
            return (_cells(frames, range(n_coarse)),
                    _cells(stream_coarse(j - 1, cfg, total), range(n_coarse))
                    if j else None)

        links, copies, n_dropped = admit(packets, slot_of, self.vocab)
        self.n_dropped += n_dropped
        self.fec_recovered += place_coarse(
            self._tokens, self._states, links, self.vocab, self._released)

        if fine is not None:
            cond = stream_conditions(i, cfg, n_coarse, total)
            self.n_dropped += decode_fine(
                self.model, MaskedQuery(self._tokens, [cond.view(fine)]),
                self._states, [(copies.get(_head(due, 1), ()), cond)])

        sl = slice(due.start, due.stop)
        propagate_invalid(self._states[sl])
        win = range(max(0, horizon + 1 - cfg.conceal_context), horizon + 1)
        n_predicted, n_blackouts = conceal(
            self.model, self._tokens, self._states, [(win, due)], n_coarse,
            self.level)
        self.n_predicted += n_predicted
        self.n_blackouts += n_blackouts
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

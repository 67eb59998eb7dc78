"""Scalar references for the library's vectorised paths.

For the count model's pricing path: a layer's row built by hand, its
counts summed one token at a time, plus ALPHA, and quantized by the
one-vector largest-remainder quantizer, or uniform where the layer holds
no count.

For the cepstral metrics: the per-scale ``mfcc``, which frames, windows,
transforms and builds its filterbank on every call, and the
``mfcc_distance`` that calls it once per scale and signal. The shared
front end in ``tokenwire.metrics`` must equal them exactly.

For bit packing: the numpy ``pack_bits`` and ``unpack_bits`` that spread
each value into a bit array; the integer packers in ``tokenwire.transport``
must give the same bytes and values and refuse the same input.

For the range coder: the byte-at-a-time coder with a 32-bit ``low``, a
cache byte and a count of held-back 0xFF bytes that a carry may still
reach, and the decoder that bisects each row as a Python list. The
library's coder must write the same payloads and read the same symbols.

For the streaming ends: the sender and receiver that keep the whole
stream, the sender every frame pushed and the receiver every frame up to
its last horizon, and build each step's cells afresh.
The windowed ends in ``tokenwire.streaming`` must emit the same packets
and make the same releases, counts and result.
"""

import math
from bisect import bisect_right

import numpy as np
import scipy.fft

from tokenwire.context import ALPHA, PMF_TOTAL, uniform_pmf
from tokenwire.dependency import (propagate_invalid, stream_coarse,
                                  stream_step, usable_depth)
from tokenwire.errors import DecodeError
from tokenwire.grid import GosConfig, StreamConfig, TokenGrid, initial_states
from tokenwire.pipeline import (SliceSender, admit, conceal, decode_fine,
                                place_coarse)
from tokenwire.rangecoder import CodedSlice
from tokenwire.streaming import StepEmission, StreamRelease


def quantize_vector(weights, total=PMF_TOTAL) -> np.ndarray:
    """Largest-remainder rounding of one weight vector, floor of 1."""
    w = np.asarray(weights, dtype=np.float64)
    s = float(w.sum())
    target = (w / s) * total
    freq = np.floor(target).astype(np.int64)
    rem = total - int(freq.sum())
    if rem > 0:
        frac = target - freq
        order = np.lexsort((np.arange(len(w)), -frac))
        freq[order[:rem]] += 1
    elif rem < 0:
        order = np.argsort(-freq, kind="stable")
        for i in order[: -rem]:
            freq[i] -= 1
    short = np.flatnonzero(freq == 0)
    if len(short):
        freq[short] = 1
        deficit = len(short)
        while deficit > 0:
            top = int(np.argmax(freq))
            take = min(deficit, int(freq[top]) - 1)
            if take <= 0:
                raise ValueError("cannot satisfy the minimum-frequency floor")
            freq[top] -= take
            deficit -= take
    return freq.astype(np.uint32)


def reference_layer_pmf(model, layer: int) -> tuple:
    """(frequencies, fallback name) of a cell priced by its layer: the
    layer's counts, summed here token by token, plus ALPHA, or uniform
    where the layer has none."""
    marginal = np.zeros(model.vocab, dtype=np.int64)
    for token, n in enumerate(model.counts[layer].tolist()):
        marginal[token] += n
    if int(marginal.sum()) > 0:
        return quantize_vector(marginal + ALPHA), "marginal"
    return uniform_pmf(model.vocab), "uniform"


def reference_filterbank(n_mels: int, n_fft: int,
                         sample_rate: int) -> np.ndarray:
    """Triangular mel filters, one per row, built fresh on every call."""
    def mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    def mel_inv(m):
        return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0)
                        - 1.0)

    freqs = np.linspace(0.0, sample_rate / 2.0, n_fft // 2 + 1)
    pts = mel_inv(np.linspace(mel(0.0), mel(sample_rate / 2.0), n_mels + 2))
    fb = np.zeros((n_mels, freqs.size))
    for m in range(n_mels):
        lo, mid, hi = pts[m], pts[m + 1], pts[m + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


def reference_mfcc(x, sample_rate: int, n_coef: int,
                   n_mels: int | None = None) -> np.ndarray:
    """(frames, n_coef) cepstra of one sample array, one scale per call:
    25 ms Hann frames at a 10 ms hop, mel filterbank, log, DCT-II."""
    x = np.asarray(x, dtype=np.float64)
    win_len = int(round(0.025 * sample_rate))
    hop = int(round(0.010 * sample_rate))
    if n_mels is None:
        n_mels = max(40, n_coef)
    n_fft = 1
    while n_fft < win_len:
        n_fft *= 2
    window = np.hanning(win_len)
    starts = range(0, x.size - win_len + 1, hop)
    frames = np.stack([x[s:s + win_len] * window for s in starts])
    power = np.abs(np.fft.rfft(frames, n_fft, axis=1)) ** 2
    fb = reference_filterbank(n_mels, n_fft, sample_rate)
    logmel = np.log(power @ fb.T + 1e-10)
    return scipy.fft.dct(logmel, type=2, norm="ortho", axis=1)[:, :n_coef]


def reference_mfcc_distance(ref, est, sample_rate: int) -> float:
    """Mean over the scales of the squared cepstral difference, with each
    scale computed from scratch for each signal."""
    scales = (8, 16, 32, 64)
    total = 0.0
    for n_coef in scales:
        a = reference_mfcc(ref, sample_rate, n_coef)
        b = reference_mfcc(est, sample_rate, n_coef)
        total += float(np.sum((a - b) ** 2))
    return total / len(scales)


_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF


def reference_encode_symbols(cum_lo, freq) -> tuple:
    """(CodedSlice, carries) of the symbols whose intervals are
    ``[cum_lo[i], cum_lo[i] + freq[i])``, emitted a byte at a time;
    ``carries`` counts the carries that rippled through held-back 0xFF
    bytes."""
    if len(cum_lo) != len(freq):
        raise ValueError("one frequency per interval start is required")
    low, rng, cache, pending, carries = 0, _MASK32, 0, 0, 0
    out = bytearray()

    def shift_low(low):
        """Move the top byte of ``low`` out, holding back 0xFF bytes a
        carry may still reach; returns the new ``low``."""
        nonlocal cache, pending, carries
        if low < 0xFF000000 or low > _MASK32:
            carry = low >> 32
            if carry and pending:
                carries += 1
            out.append((cache + carry) & 0xFF)
            out.extend(bytes(((0xFF + carry) & 0xFF,)) * pending)
            pending = 0
            cache = (low >> 24) & 0xFF
        else:
            pending += 1
        return (low << 8) & _MASK32

    for c, f in zip(cum_lo, freq):
        r = rng >> 16
        low += r * c
        rng = r * f
        while rng < _TOP:
            rng <<= 8
            low = shift_low(low)
    # the value in [low, low + rng) with the most trailing zero bytes; at
    # most its top byte is non-zero, so two shifts move out all the rest
    v = -(-low >> 32) << 32
    if v >= low + rng:
        v = -(-low >> 24) << 24
    low = v
    for _ in range(2):
        low = shift_low(low)
    # out[0] is the initial cache byte, always 0
    return CodedSlice(bytes(out[1:]).rstrip(b"\0"), len(freq)), carries


def reference_decode_symbols(coded: CodedSlice, cum) -> list:
    """Invert ``reference_encode_symbols``, bisecting each cumulative row
    as a Python list."""
    rows = np.asarray(cum).tolist()
    if len(rows) != coded.n_symbols:
        raise DecodeError("PMF count does not match the symbol count")
    data = coded.payload
    n = len(data)
    if n and data[-1] == 0:
        raise DecodeError("payload ends in a zero byte")
    code = int.from_bytes(data[:4].ljust(4, b"\0"), "big")
    pos = 4 if rows else 0  # bytes read, counting zeros past the end
    rng = _MASK32
    out = []
    for row in rows:
        r = rng >> 16
        v = code // r
        if v >= PMF_TOTAL:
            v = PMF_TOTAL - 1
        s = bisect_right(row, v) - 1
        c = row[s]
        code -= r * c
        rng = r * (row[s + 1] - c)
        while rng < _TOP:
            code = (code << 8) | (data[pos] if pos < n else 0)
            pos += 1
            rng <<= 8
        out.append(s)
    if n > pos:
        raise DecodeError("payload holds bytes past its last symbol")
    return out


def reference_pack_bits(values, width: int) -> bytes:
    """Pack integers into a big-endian bitstream, MSB of each value first,
    through a numpy bit array."""
    if not 1 <= width <= 16:
        raise ValueError("width out of range")
    values = np.asarray(values, dtype=np.uint32).ravel()
    if values.size and int(values.max()) >> width:
        raise ValueError("value does not fit in width")
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    bits = ((values[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def reference_unpack_bits(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of reference_pack_bits; trailing pad bits are ignored."""
    if not 1 <= width <= 16:
        raise ValueError("width out of range")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if bits.size < count * width:
        raise DecodeError("bit payload shorter than expected")
    bits = bits[: count * width].reshape(count, width).astype(np.uint32)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    return (bits << shifts).sum(axis=1).astype(np.int32)


def _cells(frames: range, layers: range) -> np.ndarray:
    """Cells of the 0-based ``layers`` of ``frames``, frame then layer."""
    return np.array([(f, k) for f in frames for k in layers], dtype=np.int64)


def _fine_cells(gos: GosConfig, frames: range, level: int):
    """Cells of the fine slice of ``frames``, the fine layers below
    ``level`` in frame-then-layer order; None when there are none."""
    if level == gos.n_coarse:
        return None
    return _cells(frames, range(gos.n_coarse, level))


class ReferenceStreamSender:
    """The full-history stream sender: its buffer keeps every frame pushed."""

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
                (0, coarse.start, len(coarse)),
                self._buf[coarse.start:coarse.stop, :gos.n_coarse].ravel()))
        fine = _fine_cells(gos, due, self.level)
        if fine is not None:
            packets += self._tx.fine(self._buf,
                                     [((1, due.start, len(due)), fine)])
        if len(due):  # the first due frame waited longest, at least 1
            self.max_latency = max(self.max_latency or 0,
                                   horizon + 1 - due.start)
        return StepEmission(i, tuple(packets), (due.start, due.stop), horizon)


class ReferenceStreamReceiver:
    """The full-history stream receiver: its buffer keeps every frame up
    to the last horizon, and ``result`` reads it."""

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
            self.n_dropped += decode_fine(
                self.model, self._tokens, self._states,
                [(copies.get((1, due.start, len(due)), ()), fine)])

        sl = slice(due.start, due.stop)
        propagate_invalid(self._states[sl])
        self.n_predicted += conceal(self.model, self._tokens, self._states,
                                    due, n_coarse)
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

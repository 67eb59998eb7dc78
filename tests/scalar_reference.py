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

For the burst channel: ``reference_markov_sample``, the chain walked on
numpy floats, one ``searchsorted`` a packet.
``tokenwire.transport.MarkovChannel.sample``, which walks it on Python
floats, must draw the same mask from the same generator.

For the range coder: ``reference_code_ranges``, which reads each
symbol's interval from the cumulative array itself; the byte-at-a-time
coder with a 32-bit ``low``, a cache byte and a count of held-back 0xFF
bytes that a carry may still reach; and the decoder that bisects each
row as a Python list. The library's coder must write the same payloads
and read the same symbols, and its sender price the same intervals
from the per-row lists of the model's compiled table.

For the receiver's read rule: ``reference_decode``, which assembles its
cells, their flat indices and the repair spans from the raw map of heads
to cells on every call, and decodes fine payloads with the scalar
decoder above. ``tokenwire.pipeline.decode``, which reads a map compiled
once per plan, must return the same counts and leave the same tokens and
states.

For the prefix rule: ``reference_finalize``, the three passes that
``tokenwire.pipeline.finalize`` fuses, each of which derives a frame's
prefix again. ``finalize`` must leave the same tokens and states and
return the same count and depths.

For the sender: ``reference_send``, which gathers, prices and packs each
slice's cells from the raw (head, cells) slices on every call.
``tokenwire.pipeline.SliceSender.send``, which reads a send map compiled
once per plan, must write the same packets and the same report.

For the codec trainer: ``reference_assign``, which doubles the vectors
and evaluates ``|v|^2 - 2v . e + |e|^2`` as one expression, and
``reference_train_codebooks``, which scatters each epoch's per-entry sums
with ``np.add.at`` and takes the residual's norms on every assignment.
``tokenwire.rvq.train_codebooks`` must fit the same entries, byte for
byte, and ``tokenwire.rvq.quantize`` pick the tokens that
``reference_assign`` picks.

For the streaming ends: the sender and receiver that keep the whole
stream, the sender every frame pushed and the receiver every frame up to
its last horizon, and build each step's cells afresh, the sender
sending them through ``reference_send``.
The windowed ends in ``tokenwire.streaming`` must emit the same packets
and make the same releases, counts and result.
"""

import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import scipy.fft

from tokenwire.context import (ALPHA, FALLBACKS, PMF_TOTAL, Targets,
                               uniform_pmf)
from tokenwire.errors import DecodeError
from tokenwire.grid import (GosConfig, StreamConfig, TokenGrid, TokenState,
                            initial_states)
from tokenwire.pipeline import (SliceSender, coarse_values, decode, finalize,
                                head_map)
from tokenwire.rangecoder import CodedSlice, encode_symbols
from tokenwire.rvq import Codebook, RvqCodec
from tokenwire.streaming import (StepEmission, StreamRelease, stream_coarse,
                                 stream_step)
from tokenwire.transport import Packet, pack_bits

R = int(TokenState.RECEIVED)
L = int(TokenState.LOST)
I = int(TokenState.INVALID)
C = int(TokenState.CONCEALED)


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


def reference_code_ranges(cum, rows, symbols) -> tuple:
    """(cum_lo, freq) lists: the interval of symbols[i] in row rows[i] of
    the cumulative table ``cum``, read from the array one symbol at a
    time."""
    rows, symbols = list(rows), list(symbols)
    if len(rows) != len(symbols):
        raise ValueError("one PMF row per symbol is required")
    cum_lo = [int(cum[r, s]) for r, s in zip(rows, symbols)]
    return cum_lo, [int(cum[r, s + 1]) - c
                    for r, s, c in zip(rows, symbols, cum_lo)]


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


def reference_decode(model, tokens: np.ndarray, states: np.ndarray, packets,
                     by_head, base: int = 0) -> tuple:
    """``tokenwire.pipeline.decode`` over the raw map ``by_head``, each
    head it can place, (group, first frame less ``base``, n_frames), to
    the slice's cells and its coarse predecessor's or None, rows counted
    from ``base``. Returns (how many packets were dropped, how many
    repair copies were used)."""
    slots, n_dropped = {}, 0
    for p in packets:
        head = None if p is None else (p.group, p.first_frame - base,
                                       p.n_frames)
        if head not in by_head:
            n_dropped += 1
            continue
        if head not in slots:
            slots[head] = (p.group, *by_head[head], [])
        slots[head][3].append((p.payload, p.fec))
    if not slots:
        return n_dropped, 0
    slots = list(slots.values())
    prevs = [prev for _, _, prev, _ in slots if prev is not None]
    arrays = [s[1] for s in slots] + prevs
    starts = list(accumulate([len(c) for c in arrays[:-1]], initial=0))
    t, k = np.concatenate(arrays).T
    flat = t * states.shape[1] + k
    # a row below 0 clips to a real cell, whose state the mask ignores
    is_open = (t >= 0) & (states.take(flat, mode="clip") != R)
    prev_spans = iter([slice(a, a + len(prev))
                       for a, prev in zip(starts[len(slots):], prevs)])
    vocab = model.vocab
    fine = [cells for group, cells, _, _ in slots if group]
    if fine:
        cum, rows, _ = model.layer_pmf(np.concatenate(fine)[:, 1])
    filled = np.zeros(len(flat), dtype=bool)
    values = np.empty(len(flat), dtype=tokens.dtype)
    repairs = []
    a = 0
    for (group, cells, prev, copies), start, hit in zip(
            slots, starts, np.logical_or.reduceat(is_open, starts).tolist()):
        n = len(cells)
        if prev is not None:
            prev = next(prev_spans)
        # a slice with no open cell reads none of its copies
        for payload, fec in copies if hit else ():
            if group:
                try:
                    vals = reference_decode_symbols(CodedSlice(payload, n),
                                                    cum[rows[a:a + n]])
                except DecodeError:
                    continue
            else:
                vals = coarse_values(payload, vocab, n)
                if vals is None:
                    continue
            filled[start:start + n] = True
            values[start:start + n] = vals
            if fec and prev is not None:
                repairs.append((fec, prev))
            n_dropped += len(copies) - 1
            break
        else:
            n_dropped += len(copies)
        if group:
            a += n
    keep = filled & is_open
    tokens.put(flat[keep], values[keep])
    states.put(flat[keep], R)
    if not repairs:
        return n_dropped, 0
    # a predecessor's cell still open once the slices are filled
    need = is_open & (states.take(flat, mode="clip") != R)
    repaired = 0
    for fec, span in repairs:
        mask = need[span]
        if mask.any():
            v = coarse_values(fec, vocab, span.stop - span.start)
            if v is not None:
                cells = flat[span][mask]
                tokens.put(cells, np.asarray(v)[mask])
                states.put(cells, R)
                repaired += 1
    return n_dropped, repaired


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


def reference_markov_sample(channel, n: int, rng) -> np.ndarray:
    """``MarkovChannel.sample`` on numpy floats: the boolean delivery
    mask of length n, starting from stationarity, each packet's next
    state found by one ``searchsorted`` of its row's boundaries but its
    last, so that a draw past a row that sums short of 1 is its last
    state."""
    if n == 0:
        return np.zeros(0, dtype=bool)
    P = np.asarray(channel.transition, dtype=np.float64)
    cum = np.cumsum(P, axis=1)[:, :-1]
    l = np.asarray(channel.loss_probs, dtype=np.float64)
    s = int(rng.choice(channel.n_states, p=channel.stationary()))
    u_loss = rng.random(n)
    u_step = rng.random(n)
    delivered = np.empty(n, dtype=bool)
    for i in range(n):
        delivered[i] = u_loss[i] >= l[s]
        s = int(np.searchsorted(cum[s], u_step[i], side="right"))
    return delivered


def prefix_depth(ok: np.ndarray) -> np.ndarray:
    """Per frame (row), the length of its leading run of cells where ``ok``
    holds: the index of its first failing cell, or the row length."""
    return np.logical_and.accumulate(ok, axis=1).sum(axis=1)


def reference_finalize(model, tokens: np.ndarray, states: np.ndarray,
                       frames: range, n_coarse: int) -> tuple:
    """The prefix rule as three passes over ``frames``, each deriving the
    prefix again: cut every cell above a frame's first one not RECEIVED,
    then fill every LOST coarse cell left with its layer's mode, then
    read each frame's usable prefix of received or concealed cells.
    Returns (how many cells were filled, the usable depths)."""
    rows = states[frames.start:frames.stop]
    # cut every cell above a frame's first one not received
    depth = prefix_depth(rows == R)
    rows[np.arange(rows.shape[1]) > depth[:, None]] = I
    # the LOST coarse cells left, in frame-then-layer order
    cells = np.argwhere(states[frames.start:frames.stop, :n_coarse] == L)
    cells[:, 0] += frames.start
    if len(cells):
        tokens[cells[:, 0], cells[:, 1]] = model.predict(Targets(cells))
        states[cells[:, 0], cells[:, 1]] = C
    return len(cells), prefix_depth((rows == R) | (rows == C)).astype(
        np.int16)


def _cells(frames: range, layers: range) -> np.ndarray:
    """Cells of the 0-based ``layers`` of ``frames``, frame then layer."""
    return np.array([(f, k) for f in frames for k in layers], dtype=np.int64)


def _fine_cells(gos: GosConfig, frames: range, level: int):
    """Cells of the fine slice of ``frames``, the fine layers below
    ``level`` in frame-then-layer order; None when there are none."""
    if level == gos.n_coarse:
        return None
    return _cells(frames, range(gos.n_coarse, level))


def reference_send(self, tokens: np.ndarray, slices, base: int = 0) -> list:
    """``SliceSender.send`` on the sender ``self``, from the raw
    slices: it gathers, prices and packs each slice's cells afresh on
    every call. Packets of the slices of ``tokens`` given as (head, cells)
    pairs, in their order, each head's first frame and each cell's row
    counted from frame ``base``. A coarse slice (group 0) is bit-packed
    and carries the previous coarse payload as repair. Every fine token
    is priced by its layer's row, all in one ``layer_pmf``, and each fine
    slice is range-coded on its own."""
    rep = self.report
    fine = [cells for head, cells in slices if head[0]]
    if fine:
        cells = np.concatenate(fine)
        layers = cells[:, 1]
        cum, rows, kinds = self.model.layer_pmf(layers)
        cum_lo, freq = reference_code_ranges(cum, rows,
                                             tokens[cells[:, 0], layers])
        per_layer = rep.per_layer_ideal_bits
        for k, f in zip(layers.tolist(), freq):
            b = -math.log2(f / PMF_TOTAL)
            rep.ideal_fine_bits += b
            per_layer[k] = per_layer.get(k, 0.0) + b
        for fb, n in zip(FALLBACKS, np.bincount(kinds).tolist()):
            if n:
                rep.fallback_counts[fb] = (rep.fallback_counts.get(fb, 0)
                                           + n)
    packets = []
    a = 0
    for (group, first, n_frames), cells in slices:
        if group:
            b = a + len(cells)
            payload = encode_symbols(cum_lo[a:b], freq[a:b]).payload
            fec_field = b""
            rep.n_fine_packets += 1
            rep.fine_bits += len(payload) * 8
            rep.n_fine_tokens += b - a
            a = b
        else:
            payload = pack_bits(tokens[cells[:, 0], cells[:, 1]],
                                self.width)
            fec_field = (self._prev_coarse if self.fec
                         and self._prev_coarse is not None else b"")
            self._prev_coarse = payload
            rep.n_coarse_packets += 1
            rep.coarse_bits += len(payload) * 8
            rep.fec_bits += len(fec_field) * 8
            rep.n_coarse_tokens += len(cells)
        packet = Packet(group, first + base, n_frames, payload,
                        fec_field)
        rep.n_packets += 1
        rep.header_bits += packet.header_bytes * 8
        packets.append(packet)
    return packets


class ReferenceStreamSender:
    """The full-history stream sender: its buffer keeps every frame pushed."""

    def __init__(self, gos: GosConfig, stream: StreamConfig, model,
                 level: int | None = None):
        level = gos.n_layers if level is None else level
        if not gos.n_coarse <= level <= gos.n_layers:
            raise ValueError("level out of range for the layout")
        self.gos = gos
        self.stream = stream
        self.model = model
        self.level = level
        self.vocab = model.vocab
        self._tx = SliceSender(model)
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
        slices = []
        if len(coarse):
            slices.append(((0, coarse.start, len(coarse)),
                           _cells(coarse, range(gos.n_coarse))))
        fine = _fine_cells(gos, due, self.level)
        if fine is not None:
            slices.append(((1, due.start, len(due)), fine))
        packets = reference_send(self._tx, self._buf, slices)
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

        A step can place two kinds of head: a coarse one for each step
        up to this one whose coarse frames reach past its last released
        frame, with a repair copy of the step before's (none for step 0),
        and a fine one over the due frames when the level sends fine
        layers. The step's map of them is built afresh from
        ``stream_coarse``, and ``decode`` reads the packets against it,
        handed the rows from the first due frame on; any other packet, a
        copy that finds no cell of its slice open, or one whose payload
        cannot be read is dropped and counted in ``n_dropped``."""
        if self._finished:
            raise RuntimeError("receiver already finished")
        cfg, n_coarse = self.stream, self.gos.n_coarse
        i = self._next_step
        due, horizon = stream_step(i, cfg, total)
        self._next_step += 1
        self._grow(horizon + 1)

        def rows(frames):
            return _cells(range(frames.start - due.start,
                                frames.stop - due.start), range(n_coarse))

        by_head = {}
        for j in range(i + 1):
            frames = stream_coarse(j, cfg, total)
            if len(frames) and frames.stop > due.start:
                by_head[0, frames.start - due.start, len(frames)] = (
                    rows(frames),
                    rows(stream_coarse(j - 1, cfg, total)) if j else None)
        fine = _fine_cells(self.gos, range(len(due)), self.level)
        if fine is not None:
            by_head[1, 0, len(due)] = fine, None
        n_dropped, fec_recovered = decode(
            self.model, self._tokens[due.start:], self._states[due.start:],
            packets, head_map(by_head, self.gos.n_layers), due.start)
        self.n_dropped += n_dropped
        self.fec_recovered += fec_recovered

        n_predicted, depth = finalize(self.model, self._tokens, self._states,
                                      due, n_coarse)
        self.n_predicted += n_predicted
        self._released = due.stop
        sl = slice(due.start, due.stop)
        return StreamRelease((due.start, due.stop), self._tokens[sl].copy(),
                             self._states[sl].copy(), depth)

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
        states = self._states
        depth = prefix_depth((states == R) | (states == C)).astype(np.int16)
        return TokenGrid(self._tokens.copy(), depth,
                         self.vocab), states.copy()


def reference_assign(vectors: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Nearest entry per vector in squared L2, lowest index on ties."""
    d2 = (
        np.sum(vectors * vectors, axis=1)[:, None]
        - 2.0 * vectors @ entries.T
        + np.sum(entries * entries, axis=1)[None, :]
    )
    return np.argmin(d2, axis=1)


def reference_train_codebooks(corpus, n_layers: int, vocab: int,
                              n_coarse: int, epochs: int, seed: int = 0,
                              decay: float = 0.99) -> RvqCodec:
    """EMA k-means, one codebook per layer, summing by ``np.add.at``."""
    corpus = np.asarray(corpus, dtype=np.float64)
    n, dim = corpus.shape
    rng = np.random.default_rng(seed)
    residual = corpus.copy()
    books = []
    for layer in range(n_layers):
        entries = np.zeros((vocab, dim))
        seed_idx = rng.choice(n, size=vocab - 1, replace=False)
        entries[1:] = residual[seed_idx]
        ema_size = np.ones(vocab)
        ema_sum = entries.copy()
        for _ in range(epochs):
            z = reference_assign(residual, entries)
            counts = np.bincount(z, minlength=vocab).astype(np.float64)
            sums = np.zeros((vocab, dim))
            np.add.at(sums, z, residual)
            ema_size = decay * ema_size + (1.0 - decay) * counts
            ema_sum = decay * ema_sum + (1.0 - decay) * sums
            entries[1:] = ema_sum[1:] / ema_size[1:, None]
            unused = np.flatnonzero(counts[1:] == 0) + 1
            if len(unused):
                err = np.sum((residual - entries[z]) ** 2, axis=1)
                worst = np.argsort(-err)[: len(unused)]
                entries[unused] = residual[worst]
                ema_size[unused] = 1.0
                ema_sum[unused] = entries[unused]
        books.append(Codebook(entries, layer))
        z = reference_assign(residual, entries)
        residual = residual - entries[z]
    return RvqCodec(books, n_coarse)

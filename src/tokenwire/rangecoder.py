"""Byte-oriented renormalizing range coder over 16-bit-total PMFs.

Integer-only arithmetic on a 32-bit range with carry propagation through a
cache byte, so encoder and decoder agree bit-for-bit on any platform. The
coder itself is stateless across slices: each payload is self-contained
and the symbol count travels out of band.

A payload carries no lead byte: the first byte the cache would emit is
always 0, because the coded interval never leaves [0, 2**32) of the
initial range, so no carry can reach it. The flush picks the value in the
final interval with the most trailing zero bytes, a multiple of 2**32 if
one lies in it and else a multiple of 2**24 (the range is at least 2**24),
and the payload ends at its last non-zero byte; the decoder reads zeros
past the end. Every payload is canonical: the decoder refuses one that
ends in a zero byte or holds bytes it never reads. A payload cut short
can still decode to wrong symbols, so truncation on the wire is left to
the packet's length fields and checksum.

PMFs come as cumulative rows, as the context models price them: symbol s
of row ``cum`` owns ``[cum[s], cum[s + 1])`` of PMF_TOTAL. The sender
looks up every symbol's interval for a whole batch of slices at once
(``code_ranges``), and the encoder loop then runs on Python ints; the
decoder bisects each row as a Python list.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .context import PMF_TOTAL
from .errors import DecodeError

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF


@dataclass(frozen=True)
class CodedSlice:
    """Entropy-coded payload plus the symbol count needed to decode it."""

    payload: bytes
    n_symbols: int


def code_ranges(cum: np.ndarray, symbols) -> tuple:
    """(cum_lo, freq) lists: the interval of symbols[i] in row cum[i]."""
    symbols = np.asarray(symbols, dtype=np.int64).reshape(-1)
    if len(symbols) != len(cum):
        raise ValueError("one PMF row per symbol is required")
    bad = (symbols < 0) | (symbols >= cum.shape[1] - 1)
    if bad.any():
        raise ValueError(f"symbol {int(symbols[bad.argmax()])} outside the "
                         f"PMF alphabet")
    rows = np.arange(len(symbols))
    lo = cum[rows, symbols].astype(np.int64)
    return lo.tolist(), (cum[rows, symbols + 1] - lo).tolist()


def _shift_low(low: int, cache: int, pending: int, out: bytearray) -> tuple:
    """Move the top byte of ``low`` out, holding back 0xFF bytes a carry
    may still reach; returns the new (low, cache, pending)."""
    if low < 0xFF000000 or low > _MASK32:
        carry = low >> 32
        out.append((cache + carry) & 0xFF)
        out += bytes(((0xFF + carry) & 0xFF,)) * pending
        pending = 0
        cache = (low >> 24) & 0xFF
    else:
        pending += 1
    return (low << 8) & _MASK32, cache, pending


def encode_symbols(cum_lo, freq) -> CodedSlice:
    """Encode the symbols whose intervals are ``[cum_lo[i], cum_lo[i] +
    freq[i])`` of PMF_TOTAL, in order; both are sequences of ints."""
    if len(cum_lo) != len(freq):
        raise ValueError("one frequency per interval start is required")
    low, rng, cache, pending = 0, _MASK32, 0, 0
    out = bytearray()
    for c, f in zip(cum_lo, freq):
        r = rng >> 16
        low += r * c
        rng = r * f
        while rng < _TOP:
            rng <<= 8
            low, cache, pending = _shift_low(low, cache, pending, out)
    # the value in [low, low + rng) with the most trailing zero bytes; at
    # most its top byte is non-zero, so two shifts move out all the rest
    v = -(-low >> 32) << 32
    if v >= low + rng:
        v = -(-low >> 24) << 24
    low = v
    for _ in range(2):
        low, cache, pending = _shift_low(low, cache, pending, out)
    # out[0] is the initial cache byte, always 0
    return CodedSlice(bytes(out[1:]).rstrip(b"\0"), len(freq))


def decode_symbols(coded: CodedSlice, cum) -> list:
    """Invert `encode_symbols` given the cumulative rows the symbols were
    coded under, one per symbol, in order."""
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

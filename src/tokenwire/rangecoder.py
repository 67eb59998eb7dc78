"""Byte-oriented renormalizing range coder over 16-bit-total PMFs.

Integer-only arithmetic on a 32-bit range, so encoder and decoder agree
bit-for-bit on any platform. The coder itself is stateless across slices:
each payload is self-contained and the symbol count travels out of band.

The encoder keeps ``low`` as one unbounded integer that every
renormalization shifts left by a byte, so a carry is plain integer
addition and no byte is emitted before the end: the payload is the final
value written out in one call. An addition costs time in proportion to
the bytes coded so far, which is negligible at the tens of bytes of a
slice.

A payload carries no lead byte: the coded interval never leaves [0, 2**32)
of the initial range, so its top byte above that range is always 0. The
flush picks the value in the final interval with the most trailing zero
bytes, a multiple of 2**32 if one lies in it and else a multiple of 2**24
(the range is at least 2**24), and the payload ends at its last non-zero
byte; the decoder reads zeros past the end. Every payload is canonical:
the decoder refuses one that ends in a zero byte or holds bytes it never
reads. A payload cut short can still decode to wrong symbols, so
truncation on the wire is left to the packet's length fields and
checksum.

PMFs come as row indices into one table of cumulative rows, as the
context models price them: symbol s of row r of ``cum`` owns
``[cum[r, s], cum[r, s + 1])`` of PMF_TOTAL. The table is compiled once,
with the model that owns it (``decoder_table``), into Python lists per
row: the row's cumulative list, and its bucket index of 2**8 entries,
the symbol whose interval holds the first of each run of 2**8 values.
The sender prices each symbol from its row's list, and the encoder loop
runs on the resulting Python ints. The decoder finds a symbol by its
value's bucket in the coded row's index and a forward scan over the few
intervals that start inside it. A full lookup of all 2**16 values per
row would save a little more per symbol, at 2**16 entries a row.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DecodeError

PMF_TOTAL = 1 << 16
_BUCKET = 8  # a bucket holds the 2**8 values that share their top byte
_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF


class CodedSlice(NamedTuple):
    """Entropy-coded payload plus the symbol count needed to decode it, as
    a tuple: the decoder builds one for every fine copy it reads."""

    payload: bytes
    n_symbols: int


def encode_symbols(cum_lo, freq) -> CodedSlice:
    """Encode the symbols whose intervals are ``[cum_lo[i], cum_lo[i] +
    freq[i])`` of PMF_TOTAL, in order; both are sequences of ints."""
    if len(cum_lo) != len(freq):
        raise ValueError("one frequency per interval start is required")
    low, rng, shifts = 0, _MASK32, 0
    for c, f in zip(cum_lo, freq):
        r = rng >> 16
        low += r * c
        rng = r * f
        while rng < _TOP:
            rng <<= 8
            low <<= 8
            shifts += 1
    # the value in [low, low + rng) with the most trailing zero bytes
    v = -(-low >> 32) << 32
    if v >= low + rng:
        v = -(-low >> 24) << 24
    return CodedSlice(v.to_bytes(shifts + 4, "big").rstrip(b"\0"), len(freq))


class DecoderTable(NamedTuple):
    """A cumulative table compiled for pricing and ``decode_symbols``, per
    row: ``cum[r]`` row r as a list of ints, and ``start[r]`` its bucket
    index, entry b the symbol of row r whose interval holds the value
    ``b * 2**8``."""

    cum: list
    start: list


def decoder_table(cum: np.ndarray) -> DecoderTable:
    """Compile the (rows, symbols + 1) cumulative table ``cum`` for
    pricing and ``decode_symbols``. Every row must start at 0, never
    decrease and end at PMF_TOTAL, so that each value lies in exactly one
    symbol's interval and the search's forward scan ends within its
    row."""
    table = np.asarray(cum, dtype=np.int64)
    if table.ndim != 2 or table.shape[1] < 2:
        raise ValueError("a cumulative table is a 2-D array of rows of at "
                         "least two entries")
    if np.any(table[:, 0] != 0) or np.any(table[:, -1] != PMF_TOTAL) \
            or np.any(np.diff(table, axis=1) < 0):
        raise ValueError("every cumulative row must rise from 0 to "
                         "PMF_TOTAL")
    n_rows, width = table.shape
    # offset each row past the one before, so one sorted search of the
    # flat table finds every row's bucket starts at once
    offset = np.arange(n_rows)[:, None] * (PMF_TOTAL + 1)
    values = np.arange(0, PMF_TOTAL, 1 << _BUCKET)
    start = np.searchsorted((table + offset).reshape(-1),
                            (values + offset).reshape(-1), side="right")
    start = (start.reshape(n_rows, len(values)) - 1
             - np.arange(n_rows)[:, None] * width)
    return DecoderTable([row.tolist() for row in table], start.tolist())


def decode_symbols(coded: CodedSlice, table: DecoderTable, rows) -> list:
    """Invert `encode_symbols` given the compiled table (``decoder_table``)
    and the row of it each symbol was coded under, in order."""
    rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
    if len(rows) != coded.n_symbols:
        raise DecodeError("PMF count does not match the symbol count")
    cum, start = table.cum, table.start
    if rows and (min(rows) < 0 or max(rows) >= len(cum)):
        raise ValueError("PMF row outside the table")
    data = coded.payload
    n = len(data)
    if n and data[-1] == 0:
        raise DecodeError("payload ends in a zero byte")
    code = int.from_bytes(data[:4].ljust(4, b"\0"), "big")
    pos = 4 if coded.n_symbols else 0  # bytes read, counting zeros past end
    rng = _MASK32
    out = []
    for row in rows:
        r = rng >> 16
        v = code // r
        if v >= PMF_TOTAL:
            v = PMF_TOTAL - 1
        c_row = cum[row]
        s = start[row][v >> _BUCKET]
        while c_row[s + 1] <= v:
            s += 1
        c = c_row[s]
        code -= r * c
        rng = r * (c_row[s + 1] - c)
        while rng < _TOP:
            code = (code << 8) | (data[pos] if pos < n else 0)
            pos += 1
            rng <<= 8
        out.append(s)
    if n > pos:
        raise DecodeError("payload holds bytes past its last symbol")
    return out

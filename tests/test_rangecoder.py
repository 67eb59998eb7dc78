"""Range coder: lossless round trips and size behavior over cumulative rows."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenwire.context import PMF_TOTAL, cumulative, quantize_weights, uniform_pmf
from tokenwire.errors import DecodeError
from tokenwire.rangecoder import (CodedSlice, code_ranges, decode_symbols,
                                  encode_symbols)


def random_row(rng, vocab):
    w = rng.uniform(0.0, 1.0, size=vocab) ** 4 + 1e-9
    return cumulative(quantize_weights(w)[None])[0]


def uniform_rows(vocab, n):
    return np.repeat(cumulative(uniform_pmf(vocab)[None]), n, axis=0)


def encode(symbols, cum):
    return encode_symbols(*code_ranges(cum, symbols))


def ideal_bits(symbols, cum):
    _, freq = code_ranges(cum, symbols)
    return sum(-math.log2(f / PMF_TOTAL) for f in freq)


@given(st.integers(0, 2**32 - 1), st.integers(2, 64), st.integers(0, 400))
@settings(max_examples=120, deadline=None)
def test_round_trip_is_lossless(seed, vocab, n):
    rng = np.random.default_rng(seed)
    rows = [random_row(rng, vocab) for _ in range(min(n, 8))]
    cum = np.array([rows[i % len(rows)] for i in range(n)]).reshape(
        n, vocab + 1)
    symbols = [int(rng.integers(0, vocab)) for _ in range(n)]
    coded = encode(symbols, cum)
    assert coded.n_symbols == n
    assert decode_symbols(coded, cum) == symbols


@given(st.integers(0, 2**32 - 1), st.integers(2, 32), st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_size_close_to_ideal(seed, vocab, n):
    rng = np.random.default_rng(seed)
    row = random_row(rng, vocab)
    # Draw symbols from the row itself so the ideal reflects the true cost.
    p = np.diff(row) / PMF_TOTAL
    symbols = rng.choice(vocab, size=n, p=p).tolist()
    cum = np.repeat(row[None], n, axis=0)
    coded = encode(symbols, cum)
    assert len(coded.payload) <= math.ceil(ideal_bits(symbols, cum) / 8) + 8


def test_empty_slice():
    coded = encode_symbols([], [])
    assert coded.n_symbols == 0
    assert decode_symbols(coded, np.zeros((0, 5), dtype=np.uint32)) == []


def test_determinism():
    cum = uniform_rows(10, 3)
    a = encode([1, 2, 3], cum)
    b = encode([1, 2, 3], cum)
    assert a.payload == b.payload


def test_skewed_pmf_compresses():
    w = np.full(16, 1e-6)
    w[3] = 1.0
    n = 2000
    cum = np.repeat(cumulative(quantize_weights(w)[None]), n, axis=0)
    coded = encode([3] * n, cum)
    # Near-certain symbols cost well under a bit each.
    assert len(coded.payload) * 8 < 0.1 * n


def test_encode_validation():
    cum = uniform_rows(4, 1)
    with pytest.raises(ValueError, match="one PMF row per symbol"):
        code_ranges(cum, [0, 1])
    with pytest.raises(ValueError, match="symbol 4 outside"):
        code_ranges(cum, [4])
    with pytest.raises(ValueError, match="symbol -1 outside"):
        code_ranges(cum, [-1])
    with pytest.raises(ValueError):
        encode_symbols([0, 16384], [16384])


def test_truncated_payload_raises():
    cum = uniform_rows(256, 200)
    symbols = list(range(200))
    coded = encode(symbols, cum)
    clipped = CodedSlice(coded.payload[: len(coded.payload) // 2], 200)
    with pytest.raises(DecodeError, match="truncated"):
        decode_symbols(clipped, cum)
    with pytest.raises(DecodeError, match="truncated"):
        decode_symbols(CodedSlice(coded.payload[:4], 200), cum)


def test_pmf_count_mismatch_raises():
    coded = encode([1, 2], uniform_rows(4, 2))
    with pytest.raises(DecodeError):
        decode_symbols(coded, uniform_rows(4, 3))


def test_ideal_bits_uniform_is_log2():
    cum = uniform_rows(1024, 7)
    cum_lo, freq = code_ranges(cum, [5] * 7)
    assert cum_lo == [5 * 64] * 7 and freq == [64] * 7
    assert ideal_bits([5] * 7, cum) == pytest.approx(70.0)

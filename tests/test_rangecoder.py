"""Range coder: lossless round trips and size behavior over rows of one
cumulative table."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_reference import (reference_code_ranges, reference_decode_symbols,
                              reference_encode_symbols)

from tokenwire.context import PMF_TOTAL, cumulative, quantize_weights, uniform_pmf
from tokenwire.errors import DecodeError
from tokenwire.rangecoder import (CodedSlice, decode_symbols, decoder_table,
                                  encode_symbols)


def random_row(rng, vocab):
    w = rng.uniform(0.0, 1.0, size=vocab) ** 4 + 1e-9
    return cumulative(quantize_weights(w)[None])[0]


def uniform_table(vocab):
    """The one-row table of the uniform PMF."""
    return cumulative(uniform_pmf(vocab)[None])


def encode(symbols, cum, rows):
    return encode_symbols(*reference_code_ranges(cum, rows, symbols))


def ideal_bits(symbols, cum, rows):
    _, freq = reference_code_ranges(cum, rows, symbols)
    return sum(-math.log2(f / PMF_TOTAL) for f in freq)


@given(st.integers(0, 2**32 - 1), st.integers(2, 64), st.integers(0, 400))
@settings(max_examples=120, deadline=None)
def test_round_trip_is_lossless(seed, vocab, n):
    rng = np.random.default_rng(seed)
    cum = np.array([random_row(rng, vocab) for _ in range(min(n, 8))]
                   ).reshape(-1, vocab + 1)
    rows = [i % len(cum) for i in range(n)]
    symbols = [int(rng.integers(0, vocab)) for _ in range(n)]
    coded = encode(symbols, cum, rows)
    assert coded.n_symbols == n
    assert decode_symbols(coded, decoder_table(cum), rows) == symbols


@given(st.integers(0, 2**32 - 1), st.integers(2, 32), st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_size_close_to_ideal(seed, vocab, n):
    rng = np.random.default_rng(seed)
    row = random_row(rng, vocab)
    # Draw symbols from the row itself so the ideal reflects the true cost.
    p = np.diff(row) / PMF_TOTAL
    symbols = rng.choice(vocab, size=n, p=p).tolist()
    cum, rows = row[None], [0] * n
    coded = encode(symbols, cum, rows)
    assert len(coded.payload) <= \
        math.ceil(ideal_bits(symbols, cum, rows) / 8) + 8


def test_empty_slice():
    coded = encode_symbols([], [])
    assert coded.n_symbols == 0 and coded.payload == b""
    empty = decoder_table(np.zeros((0, 5), dtype=np.uint32))
    assert decode_symbols(coded, empty, []) == []
    assert decode_symbols(coded, decoder_table(uniform_table(4)), []) == []


def test_determinism():
    cum = uniform_table(10)
    a = encode([1, 2, 3], cum, [0] * 3)
    b = encode([1, 2, 3], cum, [0] * 3)
    assert a.payload == b.payload


def test_skewed_pmf_compresses():
    w = np.full(16, 1e-6)
    w[3] = 1.0
    n = 2000
    cum = cumulative(quantize_weights(w)[None])
    coded = encode([3] * n, cum, [0] * n)
    # Near-certain symbols cost well under a bit each.
    assert len(coded.payload) * 8 < 0.1 * n


def test_encode_validation():
    # the sender's refusals of a token outside the vocabulary are
    # pinned in test_pipeline.py::test_send_refuses_a_token_outside_the_vocabulary
    with pytest.raises(ValueError, match="one frequency per interval"):
        encode_symbols([0, 16384], [16384])


def test_decode_refuses_a_row_outside_the_table():
    cum = uniform_table(4)
    coded = encode([1, 2], cum, [0, 0])
    for row in (1, -1):
        with pytest.raises(ValueError, match="row outside the table"):
            decode_symbols(coded, decoder_table(cum), [0, row])


def test_decoder_table_refuses_a_row_that_is_not_cumulative():
    # The search's forward scan stays within a row, and finds the symbol
    # a bisection would, only over rows that start at 0, never decrease
    # and end at PMF_TOTAL.
    good = uniform_table(4).astype(np.int64)  # [0, 16384, ..., 65536]
    decoder_table(good)
    for at, value in ((0, 1), (1, 40000), (4, PMF_TOTAL - 1),
                      (4, PMF_TOTAL + 1)):
        bad = np.concatenate([good, good])
        bad[1, at] = value
        with pytest.raises(ValueError, match="rise from 0 to PMF_TOTAL"):
            decoder_table(bad)
    with pytest.raises(ValueError, match="2-D array"):
        decoder_table(good[0])


def test_non_canonical_payload_raises():
    # A payload cut short may still decode, so the coder cannot refuse
    # every truncation (the packet checksum does). It refuses every payload
    # it would never emit: one ending in a zero byte, and one holding bytes
    # past what its symbols read. 200 uniform 8-bit symbols read exactly
    # 4 + 200 bytes, one per renormalization after the first four.
    cum, rows = uniform_table(256), [0] * 200
    symbols = list(range(200))
    coded = encode(symbols, cum, rows)
    table = decoder_table(cum)
    assert len(coded.payload) <= 204
    for tail in (b"\x00", b"\x01\x00"):
        with pytest.raises(DecodeError, match="zero byte"):
            decode_symbols(CodedSlice(coded.payload + tail, 200), table,
                           rows)
    with pytest.raises(DecodeError, match="past its last symbol"):
        decode_symbols(CodedSlice(coded.payload.ljust(205, b"\x01"), 200),
                       table, rows)
    with pytest.raises(DecodeError, match="past its last symbol"):
        decode_symbols(CodedSlice(b"\x01", 0), table, [])


def test_all_low_interval_is_the_empty_payload():
    cum = uniform_table(10)
    coded = encode([0, 0, 0], cum, [0] * 3)
    assert coded.payload == b""
    assert decode_symbols(coded, decoder_table(cum), [0] * 3) == [0, 0, 0]


# Per symbol the coder narrows its range to r * freq with r = rng >> 16,
# dropping rng mod 2**16 < 2**16 of a range that is at least 2**24 after
# renormalization: at most a 2**-8 share, so -log2(1 - 2**-8) bits.
TRUNCATION_SLACK = -math.log2(1 - 2**-8)


@st.composite
def coded_rows(draw):
    """(cumulative table, symbols): one random row per symbol."""
    seed = draw(st.integers(0, 2**32 - 1))
    vocab = draw(st.integers(2, 300))
    n = draw(st.integers(0, 60))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.0, 1.0, size=(n, vocab)) ** draw(
        st.sampled_from([1, 4, 16])) + 1e-9
    cum = cumulative(quantize_weights(w)).reshape(n, vocab + 1)
    p = np.diff(cum, axis=1) / PMF_TOTAL
    symbols = [int(rng.choice(vocab, p=row)) if draw(st.booleans())
               else int(rng.integers(0, vocab)) for row in p]
    return cum, symbols


@given(coded_rows())
@settings(max_examples=200, deadline=None)
def test_canonical_payload_round_trips_within_the_bound(case):
    cum, symbols = case
    rows = range(len(symbols))
    coded = encode(symbols, cum, rows)
    assert decode_symbols(coded, decoder_table(cum), rows) == symbols
    assert not coded.payload.endswith(b"\x00")
    # The flush ends within 8 bits of the final interval's width; the
    # initial range of 2**32 - 1 costs under 1e-9 bit.
    bound = (ideal_bits(symbols, cum, rows) + 8
             + len(symbols) * TRUNCATION_SLACK + 1e-9)
    assert len(coded.payload) * 8 <= bound


def test_pmf_count_mismatch_raises():
    coded = encode([1, 2], uniform_table(4), [0, 0])
    with pytest.raises(DecodeError):
        decode_symbols(coded, decoder_table(uniform_table(4)), [0, 0, 0])


def test_ideal_bits_uniform_is_log2():
    cum, rows = uniform_table(1024), [0] * 7
    row = decoder_table(cum).cum[0]
    assert row[5] == 5 * 64 and row[6] - row[5] == 64
    assert ideal_bits([5] * 7, cum, rows) == pytest.approx(70.0)


@st.composite
def reference_cases(draw):
    """(cumulative table, row per symbol, symbols, an arbitrary payload)
    over vocab 2-1024 and 0-400 symbols. Rows are random, or skewed so that
    all symbols but one have frequency 1. The table holds one row per
    symbol, as uint32, as int64 or as one uint32 row broadcast to every
    symbol; or a few uint32 rows that the symbols share in random order;
    or one row every symbol reads."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vocab = draw(st.integers(2, 1024))
    n = draw(st.integers(0, 400))
    layout = draw(st.sampled_from(["uint32", "int64", "broadcast",
                                   "shared", "one"]))
    m = {"broadcast": 1, "one": 1,
         "shared": draw(st.integers(1, 8))}.get(layout, n)
    if draw(st.booleans()):
        w = np.full((m, vocab), 1e-9)
        w[np.arange(m), rng.integers(0, vocab, size=m)] = 1.0
    else:
        w = rng.uniform(0.0, 1.0, size=(m, vocab)) ** 4 + 1e-9
    cum = cumulative(quantize_weights(w)).reshape(m, vocab + 1)
    if layout == "broadcast":
        cum, m = np.broadcast_to(cum, (n, vocab + 1)), n
    elif layout == "int64":
        cum = cum.astype(np.int64)
    rows = np.arange(n) if m == n else rng.integers(0, m, size=n)
    p = np.diff(cum[rows], axis=1) / PMF_TOTAL
    symbols = [int(rng.choice(vocab, p=row)) if draw(st.booleans())
               else int(rng.integers(0, vocab)) for row in p]
    # a payload led by 0xFFFF reads a value past PMF_TOTAL, which no
    # coded payload does and the decoder must clamp
    junk = draw(st.binary(max_size=12)
                | st.binary(max_size=8).map(lambda b: b"\xff\xff" + b))
    return cum, rows, symbols, junk


def outcome(decode, coded, *pmf):
    """The symbols ``decode`` reads, or the reason it refuses."""
    try:
        return decode(coded, *pmf)
    except DecodeError as exc:
        return str(exc)


@given(reference_cases())
@settings(max_examples=150, deadline=None)
def test_payloads_and_symbols_equal_the_reference_coder(case):
    cum, rows, symbols, junk = case
    cum_lo, freq = reference_code_ranges(cum, rows, symbols)
    want, _ = reference_encode_symbols(cum_lo, freq)
    coded = encode_symbols(cum_lo, freq)
    assert coded == want
    table = decoder_table(cum)
    assert decode_symbols(coded, table, rows) == symbols
    assert reference_decode_symbols(coded, cum[rows]) == symbols
    # any other payload reads as the same symbols or the same refusal
    other = CodedSlice(junk, len(symbols))
    assert outcome(decode_symbols, other, table, rows) == \
        outcome(reference_decode_symbols, other, cum[rows])


def test_a_carry_through_held_back_bytes_codes_like_the_reference():
    # The first symbol leaves low at 0xFF55 << 16 with the byte 0xAA still
    # held; the second shifts out 0xFF, which is held back, and the flush
    # rounds low up to 2**32, so the carry turns 0xAA 0xFF into 0xAB 0x00.
    cum = uniform_table(256)
    cum_lo, freq = reference_code_ranges(cum, [0, 0], [171, 0])
    want, carries = reference_encode_symbols(cum_lo, freq)
    assert carries == 1
    assert want.payload == encode_symbols(cum_lo, freq).payload == b"\xab"
    assert decode_symbols(want, decoder_table(cum), [0, 0]) == [171, 0]

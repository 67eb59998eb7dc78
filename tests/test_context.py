"""PMF quantization, the per-layer count model, its training and its
model file."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenwire.context import (
    FALLBACKS,
    PMF_TOTAL,
    CountModel,
    Targets,
    UniformModel,
    cumulative,
    load_count_model,
    model_digest,
    quantize_weights,
    save_count_model,
    train_count_model,
    uniform_pmf,
)
from tokenwire.grid import TokenGrid
from scalar_reference import quantize_vector


def cells(*layers) -> Targets:
    """The query of one cell per entry of ``layers``, all in frame 0."""
    return Targets(np.array([(0, k) for k in layers],
                            dtype=np.int64).reshape(-1, 2))


def priced(model, query) -> tuple:
    """(each target's cumulative row, each target's fallback name)."""
    cum, rows, kinds = model.pmf(query)
    return cum[rows], [FALLBACKS[c] for c in kinds.tolist()]


# --- PMF quantization --------------------------------------------------------

def test_quantize_weights_hand_cases():
    np.testing.assert_array_equal(
        quantize_weights(np.array([1.0, 1.0, 2.0])), [16384, 16384, 32768])
    freq = quantize_weights(np.array([1.0, 0.0]))
    assert freq[1] == 1 and freq.sum() == PMF_TOTAL


@given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=300)
       .filter(lambda w: sum(w) > 0))
@settings(max_examples=150, deadline=None)
def test_quantize_weights_contract(weights):
    w = np.array(weights)
    freq = quantize_weights(w)
    assert freq.sum() == PMF_TOTAL
    assert freq.min() >= 1
    # Quantization stays close to the exact proportion except where the
    # minimum-frequency floor or the deficit repair interferes.
    exact = (w / w.sum()) * PMF_TOTAL
    slack = 1 + len(w)
    assert np.all(np.abs(freq - np.maximum(exact, 1)) <= slack)


def test_quantize_weights_validation():
    with pytest.raises(ValueError):
        quantize_weights(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        quantize_weights(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        quantize_weights(np.ones(PMF_TOTAL + 1))


def test_pmf_validation_and_cum():
    cum = cumulative(np.array([[1, 3, PMF_TOTAL - 4]], dtype=np.uint32))
    np.testing.assert_array_equal(cum, [[0, 1, 4, PMF_TOTAL]])
    assert cum.dtype == np.uint32
    # every row a model prices is a valid cumulative row: 0 to PMF_TOTAL,
    # strictly increasing, whichever fallback it comes from
    m = CountModel(vocab=4, n_layers=3, counts=[[0, 5, 0, 1], [0] * 4,
                                                [10**6, 0, 0, 0]])
    rows, fb = priced(m, cells(0, 1, 2))
    assert fb == ["marginal", "uniform", "marginal"]
    assert rows.shape == (3, 5)
    assert np.all(rows[:, 0] == 0) and np.all(rows[:, -1] == PMF_TOTAL)
    assert np.all(np.diff(rows.astype(np.int64), axis=1) >= 1)
    # ... and so is every row of the table, one per layer, which callers
    # cannot write
    cum = m.pmf(cells(0))[0]
    assert cum.shape == (m.n_layers, 5)
    assert np.all(cum[:, 0] == 0) and np.all(cum[:, -1] == PMF_TOTAL)
    assert np.all(np.diff(cum.astype(np.int64), axis=1) >= 1)
    assert not cum.flags.writeable


def test_uniform_pmf_remainder():
    p = uniform_pmf(48)
    assert p.sum() == PMF_TOTAL
    assert p.max() - p.min() <= 1
    # 2^16 / 48 leaves remainder 16: the first 16 entries get the extra unit.
    assert np.all(p[:16] == p[0])
    assert p[0] == p[-1] + 1


def reference_rows(rng, n_rows, vocab):
    """Count rows like a trained table's plus rows that hit the floor."""
    counts = rng.integers(0, 40, size=(n_rows, vocab)) * (
        rng.random((n_rows, vocab)) < 0.3)
    spike = rng.random(n_rows) < 0.3  # one huge count squeezes the rest
    counts[spike, rng.integers(0, vocab, size=spike.sum())] = 10**6
    return counts + 0.5


@given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_table_rows_match_quantize_weights_row_by_row(seed, vocab, n_rows):
    """Row-wise quantization, as the table compiler runs it, gives each
    row exactly what one-vector quantization gives, the minimum-frequency
    floor included."""
    rng = np.random.default_rng(seed)
    weights = reference_rows(rng, n_rows, vocab)
    if seed % 3 == 0:  # arbitrary real weights, zeros included
        weights = rng.uniform(0, 1, size=(n_rows, vocab)) ** 6
        weights[rng.random((n_rows, vocab)) < 0.2] = 0.0
        weights[:, 0] += 1e-3
    rows = quantize_weights(weights)
    for w, row in zip(weights, rows):
        np.testing.assert_array_equal(row, quantize_vector(w))
        np.testing.assert_array_equal(row, quantize_weights(w))


def test_table_rows_hit_the_floor():
    w = np.full((2, 64), 0.5)
    w[0, 7] = 10**6
    rows = quantize_weights(w)
    assert np.all(rows[0, np.arange(64) != 7] == 1)
    assert rows[0, 7] == PMF_TOTAL - 63
    np.testing.assert_array_equal(rows[0], quantize_vector(w[0]))
    np.testing.assert_array_equal(rows[1], uniform_pmf(64))


# --- models ------------------------------------------------------------------

def test_uniform_model():
    m = UniformModel(5)
    q = cells(0, 3)
    rows, fb = priced(m, q)
    assert fb == ["uniform", "uniform"]
    assert m.pmf(q)[0].shape == (1, 6)
    np.testing.assert_array_equal(rows, cumulative(np.stack([uniform_pmf(5)] * 2)))
    np.testing.assert_array_equal(m.predict(q), [0, 0])
    with pytest.raises(ValueError):
        UniformModel(1)


def test_count_model_fallback_chain():
    """A layer never observed is priced uniform; once counted, by its
    marginal, whose mode ``predict`` gives."""
    q = cells(0, 1)
    empty = CountModel(vocab=4, n_layers=2)
    assert priced(empty, q)[1] == ["uniform", "uniform"]
    m = CountModel(vocab=4, n_layers=2, counts=[[0, 0, 0, 1], [0] * 4])
    rows, fb = priced(m, q)
    assert fb == ["marginal", "uniform"]
    assert int(np.argmax(np.diff(rows[0]))) == 3
    np.testing.assert_array_equal(rows[1], cumulative(uniform_pmf(4)[None])[0])
    np.testing.assert_array_equal(m.predict(q), [3, 0])


def test_predict_is_argmax_lowest_index():
    m = CountModel(vocab=4, n_layers=1, counts=[[0, 0, 1, 1]])
    assert m.predict(cells(0))[0] == 2  # tie between 2 and 3 -> lowest


# --- training ----------------------------------------------------------------

def make_grid(rng, T, n_layers, vocab, level=None):
    level = n_layers if level is None else level
    tokens = rng.integers(0, vocab, size=(T, n_layers))
    tokens[:, level:] = 0
    return TokenGrid(tokens, np.full(T, level, dtype=np.int16), vocab)


def test_train_count_model_determinism():
    rng = np.random.default_rng(13)
    grids = [make_grid(rng, 30, 4, 8) for _ in range(3)]
    a = train_count_model(grids, 8, 4)
    b = train_count_model(grids, 8, 4)
    assert a.n_observed == b.n_observed == 3 * 30 * 4
    np.testing.assert_array_equal(a.counts, b.counts)
    assert a.counts.dtype == np.int64 and not a.counts.flags.writeable


def test_train_count_model_validation():
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError, match="empty"):
        train_count_model([], 8, 4)
    with pytest.raises(ValueError, match="shape"):
        train_count_model([make_grid(rng, 4, 3, 8)], 8, 4)
    with pytest.raises(ValueError, match="shape"):
        train_count_model([make_grid(rng, 4, 4, 8)], 16, 4)


@st.composite
def training_corpora(draw):
    """(corpus, vocab, n_layers): ragged grid lengths, each frame encoded
    at a level of its own, tokens above it arbitrary."""
    vocab = draw(st.one_of(st.integers(2, 8), st.just(256)))
    n_layers = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    corpus = []
    for T in draw(st.lists(st.integers(0, 16), min_size=1, max_size=4)):
        level = rng.integers(0, n_layers + 1, size=T)
        tokens = rng.integers(0, vocab, size=(T, n_layers))
        tokens[np.arange(n_layers) >= level[:, None]] = vocab + 7
        corpus.append(TokenGrid(tokens, level, vocab))
    return corpus, vocab, n_layers


@given(training_corpora())
@settings(max_examples=80, deadline=None)
def test_train_count_model_matches_reference(setup):
    """Training counts each encoded cell once: layer k's row is the
    bincount of the layer-k tokens of every frame encoded above k."""
    corpus, vocab, n_layers = setup
    want = [np.bincount(np.concatenate([g.tokens[g.level > k, k]
                                        for g in corpus]).astype(np.int64),
                        minlength=vocab)
            for k in range(n_layers)]
    model = train_count_model(corpus, vocab, n_layers)
    np.testing.assert_array_equal(model.counts, want)
    assert model.n_observed == sum(int(g.level.sum()) for g in corpus)


# --- serialization -----------------------------------------------------------

def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    grids = [make_grid(rng, 40, 3, 8) for _ in range(2)]
    model = train_count_model(grids, 8, 3)
    path = tmp_path / "model.ctx"
    save_count_model(path, model)
    back = load_count_model(path)
    assert back.vocab == 8 and back.n_layers == 3
    assert back.counts.dtype == np.int64
    np.testing.assert_array_equal(back.counts, model.counts)
    np.testing.assert_array_equal(back.pmf(cells(0, 1, 2))[0],
                                  model.pmf(cells(0, 1, 2))[0])
    again = tmp_path / "again.ctx"
    save_count_model(again, back)
    assert again.read_bytes() == path.read_bytes()
    assert len(path.read_bytes()) == 37 + 4 + 8 * 3 * 8
    assert len(model_digest(path)) == 64


def test_model_file_round_trip_at_the_largest_vocab(tmp_path):
    # vocab is a 16-bit field
    model = CountModel(vocab=65535, n_layers=2)
    path = tmp_path / "big.ctx"
    save_count_model(path, model)
    back = load_count_model(path)
    assert (back.vocab, back.n_layers) == (65535, 2)
    assert back.counts.shape == (2, 65535) and back.n_observed == 0


def test_model_file_integrity_check(tmp_path):
    model = CountModel(vocab=4, n_layers=2)
    path = tmp_path / "m.ctx"
    save_count_model(path, model)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="integrity"):
        load_count_model(path)


def write_body(path, body: bytes, version: int = 3) -> None:
    """A model file of ``body`` under a valid digest."""
    path.write_bytes(b"CTX1" + bytes([version])
                     + hashlib.sha256(body).digest() + body)


def test_model_file_version_and_magic(tmp_path):
    path = tmp_path / "m.ctx"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        load_count_model(path)
    model = CountModel(vocab=4, n_layers=2)
    save_count_model(path, model)
    raw = bytearray(path.read_bytes())
    assert raw[4] == 3
    for version in (9, 1):
        raw[4] = version
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_count_model(path)
    # a version 2 file, which held a context key table: vocab, n_layers,
    # alpha, a record count and one (key, counts) record
    body = (np.array([4, 2], "<u2").tobytes() + np.array([0.5]).tobytes()
            + np.array([1], "<u4").tobytes() + np.array([7], "<i8").tobytes()
            + np.arange(4, dtype="<u8").tobytes())
    write_body(path, body, version=2)
    with pytest.raises(ValueError, match="version"):
        load_count_model(path)


def test_model_file_truncated_body_is_refused(tmp_path):
    """A body shorter than its declared sizes is refused even when the
    digest covers exactly that body."""
    model = CountModel(vocab=4, n_layers=2, counts=[np.arange(4), [1] * 4])
    path = tmp_path / "m.ctx"
    save_count_model(path, model)
    body = path.read_bytes()[37:]
    for cut in (0, 3, 10, len(body) - 8, len(body) - 1):
        write_body(path, body[:cut])
        with pytest.raises(ValueError, match="truncated"):
            load_count_model(path)


def test_model_file_with_trailing_bytes_is_refused(tmp_path):
    model = CountModel(vocab=4, n_layers=2, counts=[np.arange(4), [1] * 4])
    path = tmp_path / "m.ctx"
    save_count_model(path, model)
    body = path.read_bytes()[37:]
    for extra in (b"\x00", b"\x01" * 8):
        write_body(path, body + extra)
        with pytest.raises(ValueError, match="trailing"):
            load_count_model(path)


def test_count_model_table_validation(tmp_path):
    """The constructor refuses a count table that is not one vocab-wide
    row per layer, or that holds a negative count, which is how a file's
    u64 count past the int64 range reads."""
    with pytest.raises(ValueError, match="one row"):
        CountModel(vocab=4, n_layers=2, counts=[[0, 1, 0, 0]])
    with pytest.raises(ValueError, match="one row"):
        CountModel(vocab=4, n_layers=2, counts=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-negative"):
        CountModel(vocab=4, n_layers=2, counts=[[0, -1, 0, 0], [0] * 4])
    with pytest.raises(ValueError, match="n_layers"):
        CountModel(vocab=4, n_layers=0)
    path = tmp_path / "m.ctx"
    write_body(path, np.array([4, 1], "<u2").tobytes()
               + np.array([0, 2**63, 0, 0], "<u8").tobytes())
    with pytest.raises(ValueError, match="non-negative"):
        load_count_model(path)
    counts = np.array([[0, 1, 2, 0], [0] * 4])
    model = CountModel(vocab=4, n_layers=2, counts=counts)
    assert model.n_observed == 3
    counts[0, 0] = 9  # the model holds its own read-only copy
    np.testing.assert_array_equal(model.counts, [[0, 1, 2, 0], [0] * 4])
    with pytest.raises(ValueError):
        model.counts[0, 0] = 1
    with pytest.raises(AttributeError):
        model.n_observed = 4

"""Residual quantizer: assignment, refinement, training, serialization."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenwire.context import CountModel
from tokenwire.grid import GosConfig, TokenGrid
from tokenwire.pipeline import send
from tokenwire.rvq import (
    Codebook,
    RvqCodec,
    _assign,
    dequantize,
    load_codec,
    quantize,
    save_codec,
    train_codebooks,
)
from scalar_reference import (reference_assign, reference_dequantize,
                              reference_train_codebooks)


def handmade_codec():
    # Two layers over a 2-d space. Layer entries chosen so assignments are
    # easy to reason about by hand.
    cb0 = Codebook(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), 0)
    cb1 = Codebook(np.array([[0.0, 0.0], [0.25, 0.0], [0.0, 0.25], [-0.25, 0.0]]), 1)
    return RvqCodec([cb0, cb1], n_coarse=1)


def test_entry_zero_must_be_zero():
    with pytest.raises(ValueError):
        Codebook(np.array([[0.1, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        Codebook(np.array([[0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_refused(tmp_path, bad):
    """A codebook with a NaN or infinite entry, built or loaded, is
    refused: it would quantize every frame to garbage."""
    with pytest.raises(ValueError, match="must be finite"):
        Codebook([[0.0, 0.0], [bad, 1.0]])
    codec = RvqCodec([Codebook(np.vstack([np.zeros(2), np.eye(2)]), k)
                      for k in range(2)], 1)
    path = tmp_path / "codec.rvq"
    save_codec(path, codec)
    raw = bytearray(path.read_bytes())
    # layer 1, entry 2, coordinate 0: after the 12-byte header and the
    # 6 float32 values of layer 0 and the 4 of layer 1's first entries
    raw[12 + 4 * 10:12 + 4 * 11] = np.array([bad], "<f4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="must be finite"):
        load_codec(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_are_refused(bad):
    """A feature row holding NaN or an infinity has no nearest codeword:
    ``quantize`` refuses it, and so does ``pipeline.send``, which
    quantizes through it, rather than send the tokens it would pick."""
    codec = handmade_codec()
    feats = np.array([[0.9, 0.1], [0.0, 1.2], [-1.0, 0.2]])
    good = quantize(feats, codec, 2)
    gos = GosConfig(3, 1, 1, 2)
    model = CountModel(codec.vocab, 2)
    assert len(send(feats, codec, model, gos)[0]) == 2
    for damaged in ((1, 0), (2, 1), (1, slice(None))):
        bad_feats = feats.copy()
        bad_feats[damaged] = bad
        with pytest.raises(ValueError, match="must be finite"):
            quantize(bad_feats, codec, 2)
        with pytest.raises(ValueError, match="must be finite"):
            send(bad_feats, codec, model, gos)
    np.testing.assert_array_equal(quantize(feats, codec, 2).tokens,
                                  good.tokens)


def test_codec_validation():
    cb = Codebook(np.zeros((4, 2)) * 0.0)
    good = Codebook(np.vstack([np.zeros(2), np.eye(2), -np.eye(2)]))
    with pytest.raises(ValueError):
        RvqCodec([], 1)
    with pytest.raises(ValueError):
        RvqCodec([cb, good], 1)  # vocab mismatch 4 vs 5
    with pytest.raises(ValueError):
        RvqCodec([good, good], 2)  # n_coarse == n_layers


def test_assign_nearest_with_low_index_ties():
    entries = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    vecs = np.array([
        [0.1, 0.0],   # nearest entry 0
        [1.9, 0.0],   # nearest entry 1
        [1.5, 1.5],   # ties between 1 and 2 -> lowest index wins
        [1.0, 0.0],   # ties between 0 and 1 -> entry 0
    ])
    np.testing.assert_array_equal(_assign(vecs, entries), [0, 1, 1, 0])


def test_quantize_greedy_per_layer():
    codec = handmade_codec()
    feats = np.array([[1.2, 0.0], [-0.8, 0.05]])
    grid = quantize(feats, codec, level=2)
    # Frame 0: layer 0 picks [1,0]; residual [0.2, 0] picks [0.25, 0].
    assert grid.tokens[0, 0] == 1 and grid.tokens[0, 1] == 1
    # Frame 1: layer 0 picks [-1,0]; residual [0.2, 0.05] picks [0.25, 0].
    assert grid.tokens[1, 0] == 3 and grid.tokens[1, 1] == 1
    recon = dequantize(grid, codec)
    np.testing.assert_allclose(recon[0], [1.25, 0.0])


def test_quantize_zero_fills_beyond_level():
    codec = handmade_codec()
    feats = np.array([[1.2, 0.0]])
    grid = quantize(feats, codec, level=1)
    assert grid.tokens[0, 1] == 0
    assert grid.level[0] == 1
    with pytest.raises(ValueError):
        quantize(feats, codec, level=0)
    with pytest.raises(ValueError):
        quantize(feats, codec, level=3)
    with pytest.raises(ValueError):
        quantize(np.zeros((2, 3)), codec, level=1)


def test_level_prefix_is_stable():
    """Tokens below any level match the full-depth encoding (greedy has no
    lookahead, so truncating the cascade never changes earlier choices)."""
    rng = np.random.default_rng(6)
    corpus = rng.normal(size=(300, 8))
    codec = train_codebooks(corpus, n_layers=4, vocab=16, n_coarse=1,
                            epochs=4, seed=0)
    feats = rng.normal(size=(50, 8))
    full = quantize(feats, codec, level=4)
    for lvl in (1, 2, 3):
        part = quantize(feats, codec, level=lvl)
        np.testing.assert_array_equal(part.tokens[:, :lvl], full.tokens[:, :lvl])


def test_deeper_levels_never_increase_error():
    rng = np.random.default_rng(7)
    corpus = rng.normal(size=(400, 6))
    codec = train_codebooks(corpus, n_layers=5, vocab=12, n_coarse=2,
                            epochs=5, seed=1)
    feats = rng.normal(size=(200, 6))
    grid = quantize(feats, codec, level=5)
    prev = None
    for k in range(1, 6):
        recon = dequantize(grid, codec, valid=np.full(200, k))
        err = np.sum((feats - recon) ** 2, axis=1)
        if prev is not None:
            assert np.all(err <= prev + 1e-12)
        prev = err


def test_dequantize_validation():
    codec = handmade_codec()
    grid = quantize(np.zeros((3, 2)), codec, level=2)
    with pytest.raises(ValueError):
        dequantize(grid, codec, valid=np.zeros(2, dtype=int))
    with pytest.raises(ValueError):
        dequantize(grid, codec, valid=np.full(3, 9))
    # valid=0 frames reconstruct to silence.
    out = dequantize(grid, codec, valid=np.array([0, 1, 2]))
    np.testing.assert_array_equal(out[0], [0.0, 0.0])


def test_codebook_keeps_a_read_only_copy_and_its_norms():
    raw = np.vstack([np.zeros(2), np.eye(2), -np.eye(2)])
    cb = Codebook(raw)
    raw[1, 0] = 5.0  # the caller's array is not the codebook's
    np.testing.assert_array_equal(cb.entries[1], [1.0, 0.0])
    with pytest.raises(ValueError):
        cb.entries[1, 0] = 2.0
    with pytest.raises(ValueError):
        cb.norms[1] = 0.0
    np.testing.assert_array_equal(cb.norms, np.sum(cb.entries ** 2, axis=1))


@functools.lru_cache(maxsize=None)
def small_codec(signed_zero: bool) -> RvqCodec:
    """A trained 3-layer codec over 4-d features; with ``signed_zero``,
    its middle layer's entry 0 is the zero vector written as -0.0."""
    corpus = np.random.default_rng(4).normal(size=(200, 4))
    codec = train_codebooks(corpus, n_layers=3, vocab=8, n_coarse=1,
                            epochs=3, seed=2)
    if signed_zero:
        entries = codec.codebooks[1].entries.copy()
        entries[0] = -0.0
        codec.codebooks[1] = Codebook(entries, 1)
    return codec


@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.booleans())
@settings(max_examples=100, deadline=None)
def test_quantize_and_dequantize_match_the_layer_loops(seed, n, signed_zero):
    """Quantizing with the codebooks' cached norms and doubled entries
    picks the tokens that the one-expression distance of
    ``reference_assign`` picks, and dequantizing adds, byte for byte, what
    a sum over each layer's frames within their depth adds."""
    codec = small_codec(signed_zero)
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n, 4)) * rng.choice([0.1, 1.0, 3.0])
    level = int(rng.integers(1, 4))
    residual = feats.copy()
    want = np.zeros((n, 3), dtype=np.int32)
    for k, cb in enumerate(codec.codebooks[:level]):
        want[:, k] = reference_assign(residual, cb.entries)
        residual -= cb.entries[want[:, k]]
    np.testing.assert_array_equal(quantize(feats, codec, level).tokens, want)

    grid = TokenGrid(rng.integers(0, 8, size=(n, 3)),
                     np.full(n, 3, dtype=np.int16), 8)
    depth = rng.integers(0, 4, size=n)
    out = np.zeros((n, 4))
    for k, cb in enumerate(codec.codebooks):
        rows = depth > k
        out[rows] += cb.entries[grid.tokens[rows, k]]
    assert dequantize(grid, codec, depth).tobytes() == out.tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(0, 40),
       st.sampled_from(["small", "signed-zero", "wide"]), st.data())
@settings(max_examples=100, deadline=None)
def test_dequantize_matches_the_per_layer_where_loop(seed, n, which, data):
    """One depth mask for every layer adds, byte for byte, what masking
    each layer's column on its own adds, at every depth from 0 (no
    codeword) to the codec's, and at the grid's own level."""
    codec = wide_codec() if which == "wide" else small_codec(
        which == "signed-zero")
    rng = np.random.default_rng(seed)
    grid = TokenGrid(rng.integers(0, codec.vocab, size=(n, 3)),
                     rng.integers(0, 4, size=n), codec.vocab)
    depth = data.draw(st.sampled_from(["random", "zero", "full", "level"]))
    valid = {"random": rng.integers(0, 4, size=n), "zero": np.zeros(n, int),
             "full": np.full(n, 3), "level": None}[depth]
    want = reference_dequantize(grid, codec,
                                grid.level if valid is None else valid)
    assert dequantize(grid, codec, valid).tobytes() == want.tobytes()


@functools.lru_cache(maxsize=None)
def wide_codec() -> RvqCodec:
    """A trained 3-layer codec of the default config's width: 64 entries
    of 64 coordinates."""
    corpus = np.random.default_rng(5).normal(size=(300, 64))
    return train_codebooks(corpus, n_layers=3, vocab=64, n_coarse=1,
                           epochs=2, seed=3)


@given(st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 40), min_size=1, max_size=8),
       st.sampled_from(["small", "signed-zero", "wide"]))
@settings(max_examples=100, deadline=None)
def test_quantizing_concatenated_features_matches_its_chunks(seed, sizes,
                                                             which):
    """Quantizing features in one call gives the tokens and levels of
    quantizing any split of them into consecutive chunks, stacked: each
    row's tokens depend on that row alone. ``train_context`` quantizes
    its held-out clips in one call on this."""
    codec = wide_codec() if which == "wide" else small_codec(
        which == "signed-zero")
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(sum(sizes), codec.dim)) * rng.choice(
        [0.1, 1.0, 3.0])
    level = int(rng.integers(1, codec.n_layers + 1))
    whole = quantize(feats, codec, level)
    bounds = np.cumsum([0, *sizes])
    parts = [quantize(feats[a:b], codec, level)
             for a, b in zip(bounds[:-1], bounds[1:])]
    assert whole.tokens.tobytes() == np.concatenate(
        [g.tokens for g in parts]).tobytes()
    assert whole.level.tobytes() == np.concatenate(
        [g.level for g in parts]).tobytes()


@st.composite
def training_problems(draw):
    """A codec training problem whose corpus repeats rows, so clusters go
    empty and are reseeded, and holds signed zeros and exact ties."""
    vocab = draw(st.integers(2, 32))
    dim = draw(st.integers(1, 8))
    n_layers = draw(st.integers(2, 4))
    epochs = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(vocab - 1, 80))
    n_distinct = draw(st.integers(1, n))
    if draw(st.booleans()):
        # coarse steps: many equal distances, so ties decide assignments
        pool = rng.integers(-3, 4, size=(n_distinct, dim)) * 0.5
    else:
        pool = rng.normal(size=(n_distinct, dim)) * rng.choice(
            [1e-3, 1.0, 1e3])
    zeros = rng.random(pool.shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    pool[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    corpus = pool[rng.integers(0, n_distinct, size=n)]
    seed = draw(st.integers(0, 2**16))
    return corpus, n_layers, vocab, epochs, seed


@given(training_problems())
@settings(max_examples=100, deadline=None)
def test_training_matches_the_reference_trainer(problem):
    """The trainer, which sums each epoch's clusters by one ``bincount``
    and assigns with cached norms and doubled entries, fits every layer's
    entries byte for byte as the trainer that sums by ``np.add.at`` and
    assigns with one distance expression."""
    corpus, n_layers, vocab, epochs, seed = problem
    got = train_codebooks(corpus, n_layers, vocab, 1, epochs=epochs,
                          seed=seed)
    want = reference_train_codebooks(corpus, n_layers, vocab, 1, epochs,
                                     seed=seed)
    for a, b in zip(got.codebooks, want.codebooks, strict=True):
        assert a.entries.tobytes() == b.entries.tobytes()


def test_training_invariants():
    rng = np.random.default_rng(8)
    corpus = rng.normal(size=(200, 4))
    codec = train_codebooks(corpus, n_layers=3, vocab=10, n_coarse=1,
                            epochs=3, seed=42)
    assert codec.n_layers == 3 and codec.vocab == 10 and codec.dim == 4
    for cb in codec.codebooks:
        np.testing.assert_array_equal(cb.entries[0], np.zeros(4))
        assert np.all(np.isfinite(cb.entries))
    again = train_codebooks(corpus, n_layers=3, vocab=10, n_coarse=1,
                            epochs=3, seed=42)
    for a, b in zip(codec.codebooks, again.codebooks):
        np.testing.assert_array_equal(a.entries, b.entries)


def test_training_reduces_error_over_single_layer():
    rng = np.random.default_rng(9)
    corpus = rng.normal(size=(500, 6))
    codec = train_codebooks(corpus, n_layers=4, vocab=16, n_coarse=1, epochs=6)
    grid = quantize(corpus, codec, level=4)
    full = np.mean((corpus - dequantize(grid, codec)) ** 2)
    top = np.mean((corpus - dequantize(grid, codec, valid=np.ones(500, int))) ** 2)
    assert full < top


def test_training_corpus_floor():
    with pytest.raises(ValueError):
        train_codebooks(np.zeros((14, 4)), n_layers=2, vocab=16, n_coarse=1)
    # vocab - 1 rows is exactly enough.
    rng = np.random.default_rng(10)
    train_codebooks(rng.normal(size=(15, 4)), n_layers=2, vocab=16, n_coarse=1,
                    epochs=1)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    codec = train_codebooks(rng.normal(size=(64, 4)), n_layers=3, vocab=8,
                            n_coarse=2, epochs=2)
    path = tmp_path / "codec.rvq"
    save_codec(path, codec)
    back = load_codec(path)
    assert back.n_coarse == 2 and back.n_layers == 3
    # Entries are stored as float32, so the round trip is float32-exact.
    for a, b in zip(codec.codebooks, back.codebooks):
        np.testing.assert_array_equal(a.entries.astype("<f4"),
                                      b.entries.astype("<f4"))
        np.testing.assert_array_equal(b.entries[0], np.zeros(4))


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.rvq"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_codec(path)
    rng = np.random.default_rng(12)
    codec = train_codebooks(rng.normal(size=(64, 4)), n_layers=2, vocab=8,
                            n_coarse=1, epochs=1)
    good = tmp_path / "good.rvq"
    save_codec(good, codec)
    raw = good.read_bytes()
    good.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError):
        load_codec(good)
    good.write_bytes(raw[:8])  # magic, then a header cut short
    with pytest.raises(ValueError, match="not a codebook file"):
        load_codec(good)

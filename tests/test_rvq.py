"""Residual quantizer: assignment, refinement, training, serialization."""

import numpy as np
import pytest

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

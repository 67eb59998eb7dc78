"""Synthetic token sources and audio: stationary laws, sampled chains."""

import numpy as np
import pytest

from tokenwire.synthetic import (TokenSource, random_transition,
                                 sample_tokens, stationary, synth_audio)

P2 = np.array([[0.9, 0.1], [0.5, 0.5]])


def sticky(vocab: int, stay: float) -> np.ndarray:
    """Stay with probability ``stay``, otherwise move uniformly."""
    return stay * np.eye(vocab) + (1.0 - stay) / (vocab - 1) * (
        1 - np.eye(vocab))


def test_stationary_two_state_hand_case():
    pi = stationary(P2)
    np.testing.assert_allclose(pi, [5 / 6, 1 / 6], atol=1e-12)


def test_stationary_properties():
    for seed in range(4):
        P = random_transition(6, np.random.default_rng(seed))
        pi = stationary(P)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pi >= 0)
        np.testing.assert_allclose(pi @ P, pi, atol=1e-10)
    # sticky chains are doubly stochastic, so the law is uniform
    np.testing.assert_allclose(stationary(sticky(16, 0.7)),
                               np.full(16, 1 / 16), atol=1e-12)
    # absorbing state: all mass collapses onto it
    np.testing.assert_allclose(stationary([[1.0, 0.0], [0.5, 0.5]]),
                               [1.0, 0.0], atol=1e-12)
    # identity has no unique law; the solver settles on uniform
    np.testing.assert_allclose(stationary(np.eye(4)),
                               np.full(4, 0.25), atol=1e-12)


def test_transition_builders():
    R = random_transition(6, np.random.default_rng(3))
    np.testing.assert_allclose(R.sum(axis=1), 1.0, atol=1e-12)
    assert R.shape == (6, 6) and np.all(R >= 0)
    R2 = random_transition(6, np.random.default_rng(3))
    np.testing.assert_array_equal(R, R2)


def test_token_source_validation():
    with pytest.raises(ValueError, match="at least one layer"):
        TokenSource(())
    with pytest.raises(ValueError, match="one vocabulary"):
        TokenSource((sticky(4, 0.5), sticky(5, 0.5)))
    with pytest.raises(ValueError, match="distributions"):
        TokenSource((np.eye(3) * 2.0,))

    src = TokenSource((sticky(8, 0.6), sticky(8, 0.9), sticky(8, 1 / 8)))
    assert src.vocab == 8 and src.n_layers == 3


def test_sample_tokens_reproduces_the_chain():
    src = TokenSource((sticky(4, 0.8),))
    grid = sample_tokens(src, 20000, np.random.default_rng(5))
    assert grid.tokens.shape == (20000, 1) and grid.vocab == 4
    seq = grid.tokens[:, 0]
    # empirical transition frequencies approach the true kernel
    emp = np.zeros((4, 4))
    for a, b in zip(seq[:-1], seq[1:]):
        emp[a, b] += 1
    emp /= emp.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(emp, sticky(4, 0.8), atol=0.02)
    counts = np.bincount(seq, minlength=4) / len(seq)
    np.testing.assert_allclose(counts, 0.25, atol=0.02)


def test_sample_tokens_determinism_and_validation():
    src = TokenSource((sticky(4, 0.8), sticky(4, 0.2)))
    a = sample_tokens(src, 64, np.random.default_rng(6))
    b = sample_tokens(src, 64, np.random.default_rng(6))
    np.testing.assert_array_equal(a.tokens, b.tokens)
    c = sample_tokens(src, 64, np.random.default_rng(7))
    assert np.any(a.tokens != c.tokens)
    with pytest.raises(ValueError, match="at least one frame"):
        sample_tokens(src, 0, np.random.default_rng(0))


def test_synth_audio():
    a = synth_audio(4000, seed=21)
    b = synth_audio(4000, seed=21)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert np.any(a.samples != synth_audio(4000, seed=22).samples)
    assert a.sample_rate == 16000 and a.samples.size == 4000
    assert np.abs(a.samples).max() <= 0.9 + 1e-12
    pure = synth_audio(1000, seed=1, noise=0.0)
    assert np.abs(pure.samples).max() <= 0.9 + 1e-12
    hiss = synth_audio(1000, seed=1, n_tones=0)
    assert np.any(hiss.samples != 0.0)
    with pytest.raises(ValueError, match="at least one sample"):
        synth_audio(0, seed=0)

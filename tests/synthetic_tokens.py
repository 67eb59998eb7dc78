"""Synthetic token sources for the tests: each layer an independent
first-order Markov chain over the vocabulary, started from its stationary
law."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tokenwire.grid import TokenGrid


def stationary(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix.

    Solved by least squares so chains with several stationary laws (e.g.
    the identity) still yield one instead of raising; for ergodic chains
    this is the unique exact solution.
    """
    P = np.asarray(P, dtype=np.float64)
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(A, b, rcond=None)[0]
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def random_transition(vocab: int, rng: np.random.Generator,
                      concentration: float = 1.0) -> np.ndarray:
    """Dirichlet rows; low concentration gives peaky, compressible chains."""
    return rng.dirichlet(np.full(vocab, concentration), size=vocab)


@dataclass(frozen=True)
class TokenSource:
    """Independent per-layer first-order Markov chains."""

    transitions: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(P, dtype=np.float64) for P in self.transitions)
        object.__setattr__(self, "transitions", mats)
        if not mats:
            raise ValueError("need at least one layer")
        M = mats[0].shape[0]
        for P in mats:
            if P.shape != (M, M):
                raise ValueError("all layers must share one vocabulary")
            if (P < 0).any() or not np.allclose(P.sum(axis=1), 1.0, atol=1e-9):
                raise ValueError("transition rows must be distributions")

    @property
    def vocab(self) -> int:
        return self.transitions[0].shape[0]

    @property
    def n_layers(self) -> int:
        return len(self.transitions)


def sample_tokens(source: TokenSource, n_frames: int,
                  rng: np.random.Generator) -> TokenGrid:
    """Draw one grid; each layer starts from its stationary law."""
    if n_frames < 1:
        raise ValueError("need at least one frame")
    K, M = source.n_layers, source.vocab
    tokens = np.zeros((n_frames, K), dtype=np.int32)
    for k, P in enumerate(source.transitions):
        cum = np.cumsum(P, axis=1)
        u = rng.random(n_frames)
        z = int(np.searchsorted(np.cumsum(stationary(P)), u[0], side="right"))
        z = min(z, M - 1)
        tokens[0, k] = z
        for t in range(1, n_frames):
            z = int(np.searchsorted(cum[z], u[t], side="right"))
            z = min(z, M - 1)
            tokens[t, k] = z
    return TokenGrid(tokens, np.full(n_frames, K, dtype=np.int16), M)

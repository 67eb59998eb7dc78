"""Synthetic evaluation sources.

Token mode: each layer is an independent first-order Markov chain over the
vocabulary. Audio mode: seeded sinusoid mixtures plus AR(1) noise,
bounded to [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.signal

from .audio import AudioSignal
from .grid import TokenGrid


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


def synth_audio(n_samples: int, seed: int, sample_rate: int = 16000,
                n_tones: int = 3, noise: float = 0.05) -> AudioSignal:
    """Seeded sinusoid mixture plus AR(1) noise, peak-limited to [-1, 1].

    Tone frequencies sit on a 100 Hz grid so frames of 10 ms and up hold
    whole cycles; the mixture is stationary at those frame sizes. Amplitude
    decays by rank, like partials of a harmonic source.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / sample_rate
    x = np.zeros(n_samples)
    for rank in range(n_tones):
        freq = 100.0 * np.round(rng.uniform(1.0, 30.0))
        amp = rng.uniform(0.2, 1.0) * 0.35 ** rank
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x += amp * np.sin(2.0 * np.pi * freq * t + phase)
    if n_tones:
        x /= n_tones
    if noise > 0.0:
        e = rng.normal(0.0, noise, n_samples)
        x = x + scipy.signal.lfilter([1.0], [1.0, -0.9], e)
    peak = np.abs(x).max()
    if peak > 0.0:
        x = 0.9 * x / max(peak, 0.9)
    return AudioSignal(np.clip(x, -1.0, 1.0), sample_rate)

"""Synthetic evaluation audio: seeded sinusoid mixtures plus AR(1) noise,
bounded to [-1, 1]."""

from __future__ import annotations

import numpy as np
import scipy.signal

from .audio import AudioSignal


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

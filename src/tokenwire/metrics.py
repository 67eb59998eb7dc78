"""Waveform and token fidelity metrics.

Ratios are reported in dB and clamped to [-100, +100] so downstream CSVs
stay finite and comparisons stay total.

The cepstral metrics share one front end: ``_power`` frames and
transforms a signal once, and ``_cepstra`` turns that power spectrum into
the full DCT-II of its log-mel energies through a memoised filterbank.
``mfcc`` keeps a prefix of one cepstrum. ``mfcc_distance`` reads one
cepstrum per filterbank size and signal, and every scale with that size
reads a prefix of it. ``mfcc_reference`` computes the reference signal's
cepstra on their own, read-only, so a caller that scores many estimates
against one reference (the experiment's paired trials) computes them
once and passes them in; the distance is the same float bit for bit.

A metric taking two signals refuses two ``AudioSignal``s whose sample
rates differ, and otherwise takes the rate from whichever argument
carries one.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioSignal
from .grid import TokenGrid, TokenState

DB_CAP = 100.0

# multi-resolution cepstral comparison: four coefficient counts, shared
# 25 ms window / 10 ms hop front end
MFCC_SCALES = (8, 16, 32, 64)
# a scale of n_coef reads the cepstrum of max(40, n_coef) mel bands
_BANDS = tuple(sorted({max(40, n) for n in MFCC_SCALES}))
_WIN_SEC = 0.025
_HOP_SEC = 0.010


def _samples(x) -> np.ndarray:
    if isinstance(x, AudioSignal):
        return x.samples
    return np.asarray(x, dtype=np.float64)


def _pair(ref, est, sample_rate: int | None = None) -> tuple:
    """(ref samples, est samples, rate); the rate is that of whichever
    argument is an AudioSignal, else ``sample_rate``."""
    rates = {x.sample_rate for x in (ref, est) if isinstance(x, AudioSignal)}
    if len(rates) > 1:
        raise ValueError("signals must share one sample rate")
    r, e = _samples(ref), _samples(est)
    if r.shape != e.shape:
        raise ValueError("signals must have equal length")
    if not np.any(r):
        raise ValueError("reference signal has zero energy")
    return r, e, (rates.pop() if rates else sample_rate)


def _ratio_db(num: float, den: float) -> float:
    # checked first so a silent estimate (num == den == 0) floors
    if num == 0.0:
        return -DB_CAP
    if den == 0.0:
        return DB_CAP
    return float(np.clip(10.0 * np.log10(num / den), -DB_CAP, DB_CAP))


def si_snr(ref, est) -> float:
    """Scale-invariant SNR: est is compared against its own projection of
    ref, so si_snr(x, c*x) hits the cap for every c > 0."""
    r, e, _ = _pair(ref, est)
    alpha = float(np.dot(e, r) / np.dot(r, r))
    target = alpha * r
    residual = target - e
    return _ratio_db(float(np.dot(target, target)),
                     float(np.dot(residual, residual)))


def sdr(ref, est) -> float:
    r, e, _ = _pair(ref, est)
    residual = r - e
    return _ratio_db(float(np.dot(r, r)),
                     float(np.dot(residual, residual)))


def _mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_inv(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=64)
def _filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """(n_mels, n_fft // 2 + 1) triangular mel filters; shared and read-only."""
    freqs = np.linspace(0.0, sample_rate / 2.0, n_fft // 2 + 1)
    pts = _mel_inv(np.linspace(_mel(0.0), _mel(sample_rate / 2.0), n_mels + 2))
    fb = np.zeros((n_mels, freqs.size))
    for m in range(n_mels):
        lo, mid, hi = pts[m], pts[m + 1], pts[m + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    fb.flags.writeable = False
    return fb


def _power(x: np.ndarray, sample_rate: int) -> tuple:
    """(|rfft|² of every Hann-windowed 25 ms frame at a 10 ms hop, n_fft)."""
    win_len = int(round(_WIN_SEC * sample_rate))
    hop = int(round(_HOP_SEC * sample_rate))
    if x.size < win_len:
        raise ValueError("signal shorter than one analysis window")
    n_fft = 1
    while n_fft < win_len:
        n_fft *= 2
    frames = sliding_window_view(x, win_len)[::hop] * np.hanning(win_len)
    return np.abs(np.fft.rfft(frames, n_fft, axis=1)) ** 2, n_fft


def _cepstra(power: np.ndarray, n_fft: int, sample_rate: int,
             n_mels: int) -> np.ndarray:
    """(frames, n_mels) ortho DCT-II of the log-mel energies. Coefficient j
    does not depend on how many are kept, so any scale up to n_mels is a
    column prefix of this one array."""
    fb = _filterbank(n_mels, n_fft, sample_rate)
    logmel = np.log(power @ fb.T + 1e-10)
    return scipy.fft.dct(logmel, type=2, norm="ortho", axis=1)


def mfcc(signal, sample_rate: int = 16000, n_coef: int = 16,
         n_mels: int | None = None) -> np.ndarray:
    """(frames, n_coef) cepstra: Hann window, mel filterbank, log, DCT-II."""
    if isinstance(signal, AudioSignal):
        sample_rate = signal.sample_rate
    power, n_fft = _power(_samples(signal), sample_rate)
    if n_mels is None:
        n_mels = max(40, n_coef)
    if n_coef > n_mels:
        raise ValueError("n_coef cannot exceed n_mels")
    return _cepstra(power, n_fft, sample_rate, n_mels)[:, :n_coef]


def _band_cepstra(x: np.ndarray, sample_rate: int) -> dict:
    """{n_mels: cepstrum} of ``x`` for each filterbank size in ``_BANDS``,
    from one power spectrum."""
    power, n_fft = _power(x, sample_rate)
    return {n_mels: _cepstra(power, n_fft, sample_rate, n_mels)
            for n_mels in _BANDS}


def mfcc_reference(ref, sample_rate: int = 16000):
    """The reference half of ``mfcc_distance``: a read-only {n_mels:
    cepstrum} mapping of ``ref``, to pass as its ``reference``."""
    r = _samples(ref)
    if isinstance(ref, AudioSignal):
        sample_rate = ref.sample_rate
    cepstra = _band_cepstra(r, sample_rate)
    for c in cepstra.values():
        c.flags.writeable = False
    return MappingProxyType(cepstra)


def mfcc_distance(ref, est, sample_rate: int = 16000,
                  reference=None) -> float:
    """Mean over four coefficient scales of the squared cepstral difference
    summed over frames and coefficients.

    Each signal is framed and transformed once. A scale of n_coef uses
    n_mels = max(40, n_coef) bands, and scales with the same n_mels are
    column prefixes of one cepstrum, so 8, 16 and 32 share the 40-band
    cepstrum and 64 has its own: two cepstra per signal, not four.
    ``reference``, when given, must be ``mfcc_reference(ref,
    sample_rate)``; the reference's cepstra are then read from it rather
    than computed, and the result is the same float.
    """
    r, e, sample_rate = _pair(ref, est, sample_rate)
    if reference is None:
        reference = _band_cepstra(r, sample_rate)
    estimate = _band_cepstra(e, sample_rate)
    total = 0.0
    for n_coef in MFCC_SCALES:
        n_mels = max(40, n_coef)
        a, b = reference[n_mels], estimate[n_mels]
        if a.shape != b.shape:
            raise ValueError("reference cepstra do not match the signals")
        total += float(np.sum((a[:, :n_coef] - b[:, :n_coef]) ** 2))
    return total / len(MFCC_SCALES)


def token_accuracy(truth: TokenGrid, recovered: TokenGrid,
                   states: np.ndarray) -> float | None:
    """Fraction of concealed cells that were predicted exactly.

    Concealed cells are the model's predictions of lost coarse cells plus
    the cells a blackout hold repeats from the last fully usable frame;
    lost fine cells are left out, so they never count. Returns None when
    nothing was concealed; 0.0 would misread as "all wrong".
    """
    states = np.asarray(states)
    if truth.tokens.shape != recovered.tokens.shape or \
            states.shape != truth.tokens.shape:
        raise ValueError("grids and states must share one shape")
    mask = states == int(TokenState.CONCEALED)
    if not np.any(mask):
        return None
    return float(np.mean(truth.tokens[mask] == recovered.tokens[mask]))

"""Scalar references for the library's vectorised paths.

For the context model's pricing path: the per-cell definitions the
planned, table-driven path must reproduce: the nearest-deepest neighbor
scan over a full-length visibility row bounded by a frame range, the
per-key fallback chain, and the one-vector largest-remainder quantizer.

For count-model training: the masking curriculum with the neighbor rule of
a masking sample written out by hand from its masked and unmasked frames,
which ``train_count_model``, counting through ``CountModel.observe``, must
reproduce count for count.

For the cepstral metrics: the per-scale ``mfcc``, which frames, windows,
transforms and builds its filterbank on every call, and the
``mfcc_distance`` that calls it once per scale and signal. The shared
front end in ``tokenwire.metrics`` must equal them exactly.
"""

import numpy as np
import scipy.fft

from tokenwire.context import (PMF_TOTAL, SENTINEL, CountModel, MaskedQuery,
                               TrainSchedule, View, beta, encode_key,
                               uniform_pmf)


def scan(tokens, visible, t, k, lo, hi, step) -> int:
    """Nearest-deepest neighbor token on one side of frame t for layer k.

    Candidate frames are scanned outward from t; a frame with visible depth
    d contributes its token at layer min(k+1, d). Deeper wins, nearest
    breaks ties. Returns SENTINEL when no frame shows anything.
    """
    want = k + 1
    best_d = 0
    best_t = -1
    t2 = t + step
    while lo <= t2 < hi:
        d = min(int(visible[t2]), want)
        if d > best_d:
            best_d = d
            best_t = t2
            if best_d == want:
                break
        t2 += step
    if best_t < 0:
        return SENTINEL
    return int(tokens[best_t, best_d - 1])


def context_key_parts(tokens, visible, t, k, lo=0, hi=None) -> tuple:
    """(layer, left, below, right) for one target cell."""
    hi = len(tokens) if hi is None else hi
    left = scan(tokens, visible, t, k, lo, hi, -1)
    below = int(tokens[t, k - 1]) if k >= 1 and visible[t] >= k else SENTINEL
    right = scan(tokens, visible, t, k, lo, hi, +1)
    return k, left, below, right


def quantize_vector(weights, total=PMF_TOTAL) -> np.ndarray:
    """Largest-remainder rounding of one weight vector, floor of 1."""
    w = np.asarray(weights, dtype=np.float64)
    s = float(w.sum())
    target = (w / s) * total
    freq = np.floor(target).astype(np.int64)
    rem = total - int(freq.sum())
    if rem > 0:
        frac = target - freq
        order = np.lexsort((np.arange(len(w)), -frac))
        freq[order[:rem]] += 1
    elif rem < 0:
        order = np.argsort(-freq, kind="stable")
        for i in order[: -rem]:
            freq[i] -= 1
    short = np.flatnonzero(freq == 0)
    if len(short):
        freq[short] = 1
        deficit = len(short)
        while deficit > 0:
            top = int(np.argmax(freq))
            take = min(deficit, int(freq[top]) - 1)
            if take <= 0:
                raise ValueError("cannot satisfy the minimum-frequency floor")
            freq[top] -= take
            deficit -= take
    return freq.astype(np.uint32)


def reference_pmf(model, key: int, layer: int) -> tuple:
    """(frequencies, fallback name) of one context key, per key."""
    counts = model.tables.get(key)
    if counts is not None:
        return quantize_vector(counts + model.alpha), "conditional"
    if int(model.marginals[layer].sum()) > 0:
        return quantize_vector(model.marginals[layer] + model.alpha), "marginal"
    return uniform_pmf(model.vocab), "uniform"


def full_query(tokens, visible, targets, frame_range=None) -> MaskedQuery:
    """A one-view query from a full-length visibility row and an optional
    (lo, hi) frame range."""
    visible = np.asarray(visible)
    lo, hi = (0, len(visible)) if frame_range is None else frame_range
    return MaskedQuery(tokens, [View(lo, visible[lo:hi], targets)])


def reference_key(model, tokens, visible, t, k, lo, hi) -> tuple:
    """(key, frequencies, fallback name) of one target, cell by cell."""
    parts = context_key_parts(tokens, visible, t, k, lo, hi)
    key = encode_key(model.vocab, *parts)
    return (key, *reference_pmf(model, key, k))


def reference_train_count_model(corpus, vocab: int, n_layers: int,
                                n_coarse: int,
                                schedule: TrainSchedule | None = None
                                ) -> CountModel:
    """The masking curriculum, counted sample by sample by hand.

    Draws tau, the encode depth K, the lowest masked layer and the masked
    frames in the same order as ``train_count_model``. Unmasked frames are
    visible through layer K and masked frames through k_low - 1, so the
    nearest unmasked frame on a side wins the neighbor scan, and the
    adjacent masked frame, at layer k_low - 2, is the fallback when that
    side has no unmasked frame. Tokens are cast to int64 on entry, so the
    key arithmetic cannot wrap at any vocab.
    """
    schedule = schedule or TrainSchedule()
    grids = list(corpus)
    rng = np.random.default_rng(schedule.seed)
    model = CountModel(vocab=vocab, n_layers=n_layers)
    for _ in range(schedule.epochs):
        for g in grids:
            T = g.n_frames
            tau = schedule.fixed_tau if schedule.fixed_tau is not None \
                else float(rng.random())
            K = min(int(rng.integers(n_coarse, n_layers + 1)), int(g.level[0]))
            k_low = int(rng.integers(1, K + 1))
            n_masked = int(T * beta(tau))
            if n_masked == 0:
                continue
            masked = np.sort(rng.choice(T, size=n_masked, replace=False))
            _count_sample(model, g.tokens.astype(np.int64), masked, K, k_low)
    return model


def _count_sample(model, tokens, masked, K, k_low) -> None:
    """Count (context -> token) over the hidden cells of one sample."""
    T = tokens.shape[0]
    vocab = model.vocab
    m1 = vocab + 1
    is_masked = np.zeros(T, dtype=bool)
    is_masked[masked] = True
    unmasked = np.flatnonzero(~is_masked)
    if len(unmasked):
        li = np.searchsorted(unmasked, masked) - 1
        ri = np.searchsorted(unmasked, masked, side="right")
        has_l = li >= 0
        has_r = ri < len(unmasked)
        lf = np.where(has_l, unmasked[np.clip(li, 0, None)], 0)
        rf = np.where(has_r, unmasked[np.clip(ri, None, len(unmasked) - 1)], 0)
    else:
        has_l = has_r = np.zeros(len(masked), dtype=bool)
        lf = rf = np.zeros(len(masked), dtype=np.int64)
    fall_ok_l = (masked - 1 >= 0) & (k_low >= 2)
    fall_ok_r = (masked + 1 < T) & (k_low >= 2)
    for k0 in range(k_low - 1, K):
        left = np.where(
            has_l, tokens[lf, k0],
            np.where(fall_ok_l, tokens[np.clip(masked - 1, 0, None), k_low - 2],
                     vocab))
        right = np.where(
            has_r, tokens[rf, k0],
            np.where(fall_ok_r,
                     tokens[np.clip(masked + 1, None, T - 1), k_low - 2],
                     vocab))
        if k0 == k_low - 1 and k0 >= 1:
            below = tokens[masked, k0 - 1]
        else:
            below = np.full(len(masked), vocab)
        keys = ((k0 * m1 + left) * m1 + below) * m1 + right
        for key, tok in zip(keys.tolist(), tokens[masked, k0].tolist()):
            row = model.tables.setdefault(key, np.zeros(vocab, dtype=np.int64))
            row[tok] += 1
            model.marginals[k0, tok] += 1
            model.n_observed += 1


def reference_filterbank(n_mels: int, n_fft: int,
                         sample_rate: int) -> np.ndarray:
    """Triangular mel filters, one per row, built fresh on every call."""
    def mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    def mel_inv(m):
        return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0)
                        - 1.0)

    freqs = np.linspace(0.0, sample_rate / 2.0, n_fft // 2 + 1)
    pts = mel_inv(np.linspace(mel(0.0), mel(sample_rate / 2.0), n_mels + 2))
    fb = np.zeros((n_mels, freqs.size))
    for m in range(n_mels):
        lo, mid, hi = pts[m], pts[m + 1], pts[m + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


def reference_mfcc(x, sample_rate: int, n_coef: int,
                   n_mels: int | None = None) -> np.ndarray:
    """(frames, n_coef) cepstra of one sample array, one scale per call:
    25 ms Hann frames at a 10 ms hop, mel filterbank, log, DCT-II."""
    x = np.asarray(x, dtype=np.float64)
    win_len = int(round(0.025 * sample_rate))
    hop = int(round(0.010 * sample_rate))
    if n_mels is None:
        n_mels = max(40, n_coef)
    n_fft = 1
    while n_fft < win_len:
        n_fft *= 2
    window = np.hanning(win_len)
    starts = range(0, x.size - win_len + 1, hop)
    frames = np.stack([x[s:s + win_len] * window for s in starts])
    power = np.abs(np.fft.rfft(frames, n_fft, axis=1)) ** 2
    fb = reference_filterbank(n_mels, n_fft, sample_rate)
    logmel = np.log(power @ fb.T + 1e-10)
    return scipy.fft.dct(logmel, type=2, norm="ortho", axis=1)[:, :n_coef]


def reference_mfcc_distance(ref, est, sample_rate: int) -> float:
    """Mean over the scales of the squared cepstral difference, with each
    scale computed from scratch for each signal."""
    scales = (8, 16, 32, 64)
    total = 0.0
    for n_coef in scales:
        a = reference_mfcc(ref, sample_rate, n_coef)
        b = reference_mfcc(est, sample_rate, n_coef)
        total += float(np.sum((a - b) ** 2))
    return total / len(scales)

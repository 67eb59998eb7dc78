"""Scalar reference for the context model's vectorised pricing path.

These are the per-cell definitions the planned, table-driven path must
reproduce: the nearest-deepest neighbor scan over a full-length
visibility row bounded by a frame range, the per-key fallback chain, and
the one-vector largest-remainder quantizer.
"""

import numpy as np

from tokenwire.context import (PMF_TOTAL, SENTINEL, MaskedQuery, View,
                               encode_key, uniform_pmf)


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

"""Context models that turn masked token grids into per-cell PMFs.

A query exposes a token grid where every frame is visible only up to some
prefix depth; the model returns, for each requested cell, a probability
mass function quantized to a fixed 16-bit total so that encoder and
decoder arithmetic is integer-only and bit-identical.

The count model keys each cell on at most three neighbors: the nearest
frame to the left carrying a token at (or deepest below) the cell's layer,
the token directly below in the same frame, and the symmetric right
neighbor. Neighbor selection prefers the deepest usable frame and breaks
ties toward the nearest one, so a far frame that is visible at the cell's
own layer beats an adjacent frame that only shows shallow layers.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .grid import TokenGrid

PMF_TOTAL = 1 << 16


def beta(tau: float) -> float:
    """Cosine masking ratio: 1 at tau=0 decaying smoothly to 0 at tau=1.

    Evaluated through the sine identity so the endpoints and the midpoint
    land exactly on 1, 0.5, and 0 in floating point.
    """
    return 0.5 * (1.0 + math.sin((0.5 - tau) * math.pi))


def quantize_weights(weights: np.ndarray, total: int = PMF_TOTAL) -> np.ndarray:
    """Round positive weights to integer frequencies summing to ``total``.

    Largest-remainder rounding; every frequency is forced to at least 1 and
    the deficit is taken from the largest entries.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or len(w) < 2:
        raise ValueError("weights must be a vector of at least two entries")
    if len(w) > total:
        raise ValueError("more symbols than frequency budget")
    s = float(w.sum())
    if not np.isfinite(s) or s <= 0 or np.any(w < 0):
        raise ValueError("weights must be non-negative with a positive sum")
    # divide before scaling: total/s overflows when s is subnormal
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


@dataclass
class Pmf:
    """Integer PMF over the vocabulary; frequencies sum to PMF_TOTAL."""

    freq: np.ndarray

    def __post_init__(self):
        self.freq = np.ascontiguousarray(self.freq, dtype=np.uint32)
        if self.freq.ndim != 1:
            raise ValueError("freq must be a vector")
        if int(self.freq.sum()) != PMF_TOTAL:
            raise ValueError("frequencies must sum to the fixed total")
        if int(self.freq.min()) < 1:
            raise ValueError("every symbol needs a nonzero frequency")
        self._cum = None

    @property
    def cum(self) -> np.ndarray:
        """Inclusive cumulative frequencies, cached."""
        if self._cum is None:
            self._cum = np.cumsum(self.freq, dtype=np.uint32)
        return self._cum

    def bits(self, symbol: int) -> float:
        return -math.log2(self.freq[symbol] / PMF_TOTAL)


def uniform_pmf(vocab: int) -> Pmf:
    base, rem = divmod(PMF_TOTAL, vocab)
    freq = np.full(vocab, base, dtype=np.uint32)
    freq[:rem] += 1
    return Pmf(freq)


@dataclass
class MaskedQuery:
    """A grid with per-frame visible prefix depths plus target cells.

    tokens: (T, n_layers) token values; only cells below ``visible`` are read.
    visible: per-frame count of visible layers (prefix).
    targets: (n, 2) int array of 0-based (frame, layer) cells to predict.
    frame_range: optional (lo, hi) half-open frame window bounding all
        context scans, e.g. a group-of-slices or concealment window.
    """

    tokens: np.ndarray
    visible: np.ndarray
    targets: np.ndarray
    frame_range: tuple | None = None

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens)
        self.visible = np.asarray(self.visible, dtype=np.int64)
        self.targets = np.asarray(self.targets, dtype=np.int64).reshape(-1, 2)
        if self.visible.shape != (self.visible.size,) or \
                self.tokens.shape[0] != self.visible.size:
            raise ValueError("visible must have one entry per frame")
        shown = self.visible[self.targets[:, 0]] > self.targets[:, 1]
        if shown.any():
            t, k = self.targets[int(shown.argmax())]
            raise ValueError(f"target cell ({t},{k}) is visible")

    def bounds(self) -> tuple:
        if self.frame_range is None:
            return 0, self.tokens.shape[0]
        lo, hi = self.frame_range
        return max(0, int(lo)), min(self.tokens.shape[0], int(hi))


SENTINEL = -1  # encoded as `vocab` in context keys


def _scan(tokens, visible, t, k, lo, hi, step) -> int:
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
        d = visible[t2]
        if d > want:
            d = want
        if d > best_d:
            best_d = d
            best_t = t2
            if best_d == want:
                break
        t2 += step
    if best_t < 0:
        return SENTINEL
    return int(tokens[best_t, best_d - 1])


def context_key_parts(query: MaskedQuery, t: int, k: int) -> tuple:
    """(layer, left, below, right) for one target cell."""
    lo, hi = query.bounds()
    left = _scan(query.tokens, query.visible, t, k, lo, hi, -1)
    below = int(query.tokens[t, k - 1]) if k >= 1 and query.visible[t] >= k \
        else SENTINEL
    right = _scan(query.tokens, query.visible, t, k, lo, hi, +1)
    return k, left, below, right


def encode_key(vocab: int, layer: int, left: int, below: int, right: int) -> int:
    m = vocab + 1
    l = vocab if left == SENTINEL else left
    b = vocab if below == SENTINEL else below
    r = vocab if right == SENTINEL else right
    return ((layer * m + l) * m + b) * m + r


@dataclass
class UniformModel:
    """Context-free baseline: every cell gets the uniform PMF."""

    vocab: int

    def __post_init__(self):
        if self.vocab < 2:
            raise ValueError("vocab must be at least 2")
        self._pmf = uniform_pmf(self.vocab)

    def pmf(self, query: MaskedQuery):
        n = len(query.targets)
        return [self._pmf] * n, ["uniform"] * n

    def predict(self, query: MaskedQuery) -> np.ndarray:
        pmfs, _ = self.pmf(query)
        return np.array([int(np.argmax(p.freq)) for p in pmfs], dtype=np.int64)


@dataclass
class CountModel:
    """Neighbor-context count table with Laplace smoothing.

    Falls back from the exact context to the per-layer marginal, then to
    uniform, when a key was never observed in training.
    """

    vocab: int
    n_layers: int
    alpha: float = 0.5
    tables: dict = field(default_factory=dict)
    marginals: np.ndarray | None = None
    n_observed: int = 0

    def __post_init__(self):
        if self.vocab < 2:
            raise ValueError("vocab must be at least 2")
        if self.n_layers < 1:
            raise ValueError("n_layers must be at least 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.marginals is None:
            self.marginals = np.zeros((self.n_layers, self.vocab), dtype=np.int64)
        self._uniform = uniform_pmf(self.vocab)
        self._pmf_cache: dict = {}

    def _pmf_for_key(self, key: int, layer: int):
        hit = self._pmf_cache.get(key)
        if hit is not None:
            return hit
        counts = self.tables.get(key)
        if counts is not None:
            out = (Pmf(quantize_weights(counts + self.alpha)), "conditional")
        elif int(self.marginals[layer].sum()) > 0:
            out = (Pmf(quantize_weights(self.marginals[layer] + self.alpha)),
                   "marginal")
        else:
            out = (self._uniform, "uniform")
        self._pmf_cache[key] = out
        return out

    def pmf(self, query: MaskedQuery):
        pmfs = []
        fallbacks = []
        for t, k in query.targets:
            layer, left, below, right = context_key_parts(query, int(t), int(k))
            key = encode_key(self.vocab, layer, left, below, right)
            p, fb = self._pmf_for_key(key, layer)
            pmfs.append(p)
            fallbacks.append(fb)
        return pmfs, fallbacks

    def predict(self, query: MaskedQuery) -> np.ndarray:
        """Maximum-likelihood token per target cell."""
        pmfs, _ = self.pmf(query)
        return np.array([int(np.argmax(p.freq)) for p in pmfs], dtype=np.int64)

    def observe(self, query: MaskedQuery, symbols) -> None:
        """Accumulate (context, token) pairs from one query.

        Uses the same key computation as pmf, so a model can be fitted on
        whatever visibility pattern it will later be queried with, e.g.
        causal streaming contexts that the masking curriculum rarely hits.
        """
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.shape != (len(query.targets),):
            raise ValueError("one symbol per target required")
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.vocab):
            raise ValueError("symbol outside vocabulary")
        for (t, k), sym in zip(query.targets, symbols):
            layer, left, below, right = context_key_parts(query, int(t), int(k))
            key = encode_key(self.vocab, layer, left, below, right)
            counts = self.tables.get(key)
            if counts is None:
                counts = np.zeros(self.vocab, dtype=np.int64)
                self.tables[key] = counts
            counts[int(sym)] += 1
            self.marginals[layer, int(sym)] += 1
            self.n_observed += 1
        self._pmf_cache.clear()


@dataclass
class TrainSchedule:
    """Masking curriculum for count-model training.

    Each sample draws tau (mask ratio via ``beta``), an encode depth, and
    the lowest masked layer; ``fixed_tau`` pins the mask ratio, which the
    experiment config exposes and the tests use to carve out degenerate
    schedules.
    """

    epochs: int = 1
    seed: int = 0
    fixed_tau: float | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.fixed_tau is not None and not 0.0 <= self.fixed_tau <= 1.0:
            raise ValueError("fixed_tau must be in [0, 1]")


def train_count_model(corpus, vocab: int, n_layers: int, n_coarse: int,
                      schedule: TrainSchedule | None = None) -> CountModel:
    """Fit a CountModel by masking random frame suffixes of layer stacks.

    Per sample: draw tau and mask floor(T * beta(tau)) frames; draw an
    encode depth K uniformly from [n_coarse, n_layers] and a lowest masked
    layer uniformly from [1, K]; hide layers k..K of the masked frames and
    count (context -> token) over every hidden cell.
    """
    schedule = schedule or TrainSchedule()
    if not 1 <= n_coarse < n_layers:
        raise ValueError("need 1 <= n_coarse < n_layers")
    grids = list(corpus)
    if not grids:
        raise ValueError("training corpus is empty")
    for g in grids:
        if g.vocab != vocab or g.n_layers != n_layers:
            raise ValueError("corpus grid shape does not match the model")
        if int(g.level.min()) != int(g.level.max()):
            raise ValueError("training corpus grids must be uniformly encoded")

    rng = np.random.default_rng(schedule.seed)
    model = CountModel(vocab=vocab, n_layers=n_layers)
    m1 = vocab + 1

    for _ in range(schedule.epochs):
        for g in grids:
            T = g.n_frames
            depth_cap = int(g.level[0])
            tau = schedule.fixed_tau if schedule.fixed_tau is not None \
                else float(rng.random())
            K = min(int(rng.integers(n_coarse, n_layers + 1)), depth_cap)
            k_low = int(rng.integers(1, K + 1))
            n_masked = int(T * beta(tau))
            if n_masked == 0:
                continue
            masked = np.sort(rng.choice(T, size=n_masked, replace=False))
            _accumulate_sample(model, g.tokens, masked, K, k_low, m1)
    model._pmf_cache = {}
    return model


def _accumulate_sample(model: CountModel, tokens: np.ndarray,
                       masked: np.ndarray, K: int, k_low: int, m1: int) -> None:
    """Count (context -> token) pairs for one masking sample.

    Unmasked frames are visible through layer K, masked frames through
    k_low - 1, so the nearest unmasked frame always wins the deepest-first
    neighbor scan; the adjacent masked frame is the fallback when a side
    has no unmasked frame at all.
    """
    T = tokens.shape[0]
    is_masked = np.zeros(T, dtype=bool)
    is_masked[masked] = True
    unmasked = np.flatnonzero(~is_masked)
    vocab = model.vocab

    if len(unmasked):
        li = np.searchsorted(unmasked, masked) - 1
        ri = np.searchsorted(unmasked, masked, side="right")
        has_l = li >= 0
        has_r = ri < len(unmasked)
        lf = np.where(has_l, unmasked[np.clip(li, 0, None)], 0)
        rf = np.where(has_r, unmasked[np.clip(ri, None, len(unmasked) - 1)], 0)
    else:
        # every frame masked: both sides fall back to the adjacent frame
        has_l = has_r = np.zeros(len(masked), dtype=bool)
        lf = rf = np.zeros(len(masked), dtype=np.int64)

    # fallback side neighbors: adjacent frames are masked with prefix k_low-1
    fall_ok_l = (masked - 1 >= 0) & (k_low >= 2)
    fall_ok_r = (masked + 1 < T) & (k_low >= 2)

    all_keys = []
    all_tokens = []
    for kc in range(k_low, K + 1):
        k0 = kc - 1  # 0-based target layer
        left = np.where(
            has_l, tokens[lf, k0],
            np.where(fall_ok_l, tokens[np.clip(masked - 1, 0, None), k_low - 2],
                     vocab))
        right = np.where(
            has_r, tokens[rf, k0],
            np.where(fall_ok_r, tokens[np.clip(masked + 1, None, T - 1), k_low - 2],
                     vocab))
        if kc == k_low and k0 >= 1:
            below = tokens[masked, k0 - 1]
        else:
            below = np.full(len(masked), vocab)
        keys = ((k0 * m1 + left) * m1 + below) * m1 + right
        truth = tokens[masked, k0]
        all_keys.append(keys)
        all_tokens.append(truth)
        np.add.at(model.marginals[k0], truth, 1)

    keys = np.concatenate(all_keys)
    truth = np.concatenate(all_tokens)
    combo, counts = np.unique(keys * vocab + truth, return_counts=True)
    model.n_observed += len(keys)
    tables = model.tables
    for c, n in zip(combo.tolist(), counts.tolist()):
        key, tok = divmod(c, vocab)
        row = tables.get(key)
        if row is None:
            row = np.zeros(vocab, dtype=np.int64)
            tables[key] = row
        row[tok] += n


# Model file format: magic "CTX1", u8 version, 32-byte SHA-256 of the body,
# then body: u16 vocab, u16 n_layers, f64 alpha, u64 observed count,
# marginals as n_layers*vocab u64, u32 record count, and per record a
# little-endian i64 key followed by vocab u64 counts, sorted by key.

_CTX_MAGIC = b"CTX1"


def save_count_model(path: str | Path, model: CountModel) -> None:
    body = bytearray()
    body += struct.pack("<HHdQ", model.vocab, model.n_layers, model.alpha,
                        model.n_observed)
    body += model.marginals.astype("<u8").tobytes()
    keys = sorted(model.tables)
    body += struct.pack("<I", len(keys))
    for key in keys:
        body += struct.pack("<q", key)
        body += model.tables[key].astype("<u8").tobytes()
    digest = hashlib.sha256(bytes(body)).digest()
    Path(path).write_bytes(_CTX_MAGIC + b"\x01" + digest + bytes(body))


def load_count_model(path: str | Path) -> CountModel:
    data = Path(path).read_bytes()
    if data[:4] != _CTX_MAGIC or len(data) < 37:
        raise ValueError("not a context model file")
    if data[4] != 1:
        raise ValueError("unsupported context model version")
    digest, body = data[5:37], data[37:]
    if hashlib.sha256(body).digest() != digest:
        raise ValueError("context model file failed its integrity check")
    vocab, n_layers, alpha, n_observed = struct.unpack_from("<HHdQ", body, 0)
    off = struct.calcsize("<HHdQ")
    marg = np.frombuffer(body, dtype="<u8", count=n_layers * vocab, offset=off)
    off += 8 * n_layers * vocab
    (n_rec,) = struct.unpack_from("<I", body, off)
    off += 4
    tables = {}
    for _ in range(n_rec):
        (key,) = struct.unpack_from("<q", body, off)
        off += 8
        row = np.frombuffer(body, dtype="<u8", count=vocab, offset=off)
        off += 8 * vocab
        tables[key] = row.astype(np.int64)
    if off != len(body):
        raise ValueError("context model file has trailing bytes")
    return CountModel(vocab=vocab, n_layers=n_layers, alpha=alpha,
                      tables=tables,
                      marginals=marg.reshape(n_layers, vocab).astype(np.int64),
                      n_observed=n_observed)


def model_digest(path: str | Path) -> str:
    """Hex SHA-256 of a model or codebook file, for manifest cross-checks."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()

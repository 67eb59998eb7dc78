"""Context models that turn masked token grids into per-cell PMFs.

A query exposes a token grid through views: each view shows the first
``visible[i]`` layers of the frames of one window and names the target
cells it prices there. The model returns, for every target, a row of
cumulative frequencies over a fixed 16-bit total, so that encoder and
decoder arithmetic is integer-only and bit-identical.

The count model keys each cell on at most three neighbors: the nearest
frame to the left carrying a token at (or deepest below) the cell's layer,
the token directly below in the same frame, and the symmetric right
neighbor. Neighbor selection prefers the deepest usable frame and breaks
ties toward the nearest one, so a far frame that is visible at the cell's
own layer beats an adjacent frame that only shows shallow layers.

Which cells the neighbors are depends on the visibility alone, never on
token values, so a query computes them once per distinct view shape (a
fixed-size cache; a periodic layout or a stream cadence has a handful)
and reads a whole query's context with one gather. The count model
compiles its counts, when first priced after a change, into one dense
table: sorted conditional keys with their cumulative rows, plus one
marginal-or-uniform fallback row per layer. It prices a query with one
key search. Callers put every slice they can price together into one
query.

Training reads contexts the same way: each masking sample is one query
counted through ``observe``. So ``encode_key`` over ``MaskedQuery.context``
is the one place a visibility pattern becomes a context key, for training,
pricing and concealment alike.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .grid import TokenGrid

PMF_TOTAL = 1 << 16


def beta(tau: float) -> float:
    """Cosine masking ratio: 1 at tau=0 decaying smoothly to 0 at tau=1.

    Evaluated through the sine identity so the endpoints and the midpoint
    land exactly on 1, 0.5, and 0 in floating point.
    """
    return 0.5 * (1.0 + math.sin((0.5 - tau) * math.pi))


def _ranks(key: np.ndarray) -> np.ndarray:
    """Per row, each entry's position in a stable ascending sort of ``key``."""
    order = np.argsort(key, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order,
                      np.broadcast_to(np.arange(key.shape[1]), key.shape),
                      axis=1)
    return ranks


def quantize_weights(weights: np.ndarray, total: int = PMF_TOTAL) -> np.ndarray:
    """Round positive weights to integer frequencies summing to ``total``.

    ``weights`` is one vector, or a (rows, symbols) array quantized row by
    row. Largest-remainder rounding, ties to the lower index; every
    frequency is forced to at least 1 and the deficit is taken from the
    largest entry, the lowest-indexed one on ties.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim not in (1, 2) or w.shape[-1] < 2:
        raise ValueError("weights must be a vector of at least two entries")
    if w.shape[-1] > total:
        raise ValueError("more symbols than frequency budget")
    rows = w.reshape(-1, w.shape[-1])
    s = rows.sum(axis=1)
    if not np.all(np.isfinite(s)) or np.any(s <= 0) or np.any(rows < 0):
        raise ValueError("weights must be non-negative with a positive sum")
    # divide before scaling: total/s overflows when s is subnormal
    target = (rows / s[:, None]) * total
    freq = np.floor(target).astype(np.int64)
    rem = total - freq.sum(axis=1)
    if np.any(rem > 0):  # largest remainders take the spare units
        freq += _ranks(freq - target) < rem[:, None]
    if np.any(rem < 0):  # largest frequencies give up the excess
        freq -= _ranks(-freq) < -rem[:, None]
    short = freq == 0
    deficit = short.sum(axis=1)
    freq[short] = 1
    while np.any(deficit > 0):
        r = np.flatnonzero(deficit > 0)
        top = freq[r].argmax(axis=1)
        take = np.minimum(deficit[r], freq[r, top] - 1)
        if np.any(take <= 0):
            raise ValueError("cannot satisfy the minimum-frequency floor")
        freq[r, top] -= take
        deficit[r] -= take
    return freq.astype(np.uint32).reshape(w.shape)


def uniform_pmf(vocab: int) -> np.ndarray:
    """Near-uniform frequencies over ``vocab`` symbols summing to
    PMF_TOTAL; the first ``PMF_TOTAL % vocab`` symbols get one unit more."""
    base, rem = divmod(PMF_TOTAL, vocab)
    freq = np.full(vocab, base, dtype=np.uint32)
    freq[:rem] += 1
    return freq


def cumulative(freq: np.ndarray) -> np.ndarray:
    """(rows, symbols + 1) uint32 cumulative rows of (rows, symbols)
    frequencies: symbol s owns ``[row[s], row[s + 1])``."""
    cum = np.zeros((freq.shape[0], freq.shape[1] + 1), dtype=np.uint32)
    np.cumsum(freq, axis=1, dtype=np.uint32, out=cum[:, 1:])
    return cum


def _mode(cum: np.ndarray) -> np.ndarray:
    """Most probable symbol of each cumulative row, lowest index on ties."""
    return np.diff(cum, axis=1).argmax(axis=1).astype(np.int64)


class View(NamedTuple):
    """Target cells seen through one window of visible prefixes.

    The first ``visible[i]`` layers of frame ``lo + i`` are visible, for
    the frames ``[lo, lo + len(visible))``. Every target lies in the window
    and is itself hidden; context scans never leave the window.
    """

    lo: int
    visible: np.ndarray
    targets: np.ndarray


SENTINEL = -1  # a missing neighbor; encoded as `vocab` in context keys
_NONE = (-1, 0)  # the source cell of a missing neighbor


def _nearest_deepest(visible: list, t: int, k: int, step: int) -> tuple:
    """(frame, layer) of the neighbor of frame t for layer k on one side.

    Candidate frames are scanned outward from t; a frame with visible depth
    d offers its cell at layer min(k+1, d) - 1. Deeper wins, nearest
    breaks ties. Returns (-1, 0) when no frame shows anything.
    """
    want = k + 1
    best_d = 0
    best_t = -1
    t2 = t + step
    while 0 <= t2 < len(visible):
        d = visible[t2]
        if d > want:
            d = want
        if d > best_d:
            best_d = d
            best_t = t2
            if best_d == want:
                break
        t2 += step
    return (best_t, best_d - 1) if best_t >= 0 else _NONE


@functools.lru_cache(maxsize=4096)
def _plan(visible: bytes, targets: bytes) -> np.ndarray:
    """Neighbor plan of one view shape, relative to its window.

    ``visible`` and ``targets`` are the int64 bytes of the window's depths
    and of the targets with frames counted from the window start. Returns
    (n, 3, 2): per target the (frame, layer) of its left, below and right
    neighbor, frame -1 where there is none. Read-only, as it is shared.
    Raises ``ValueError(index, reason)`` for a target it cannot plan.
    """
    vis = np.frombuffer(visible, dtype=np.int64).tolist()
    out = []
    for i, (t, k) in enumerate(
            np.frombuffer(targets, dtype=np.int64).reshape(-1, 2).tolist()):
        if not (0 <= t < len(vis) and k >= 0):
            raise ValueError(i, "lies outside its window")
        if vis[t] > k:
            raise ValueError(i, "is visible")
        below = (t, k - 1) if k >= 1 and vis[t] >= k else _NONE
        out.append((_nearest_deepest(vis, t, k, -1), below,
                    _nearest_deepest(vis, t, k, +1)))
    plan = np.array(out, dtype=np.int64).reshape(-1, 3, 2)
    plan.flags.writeable = False
    return plan


class MaskedQuery:
    """Target cells of one token grid, each priced through its view.

    tokens: (T, n_layers) token values; only visible cells are read.
    views: ``View``s over frames of ``tokens``.
    targets: (n, 2) int64 (frame, layer) of every view's targets, in order.
    sources: (n, 3, 2) int64, per target the (frame, layer) of its left,
        below and right neighbor; frame -1 where there is none.

    Raises ``ValueError`` for a view outside the grid, or a target outside
    its window or visible in it.
    """

    def __init__(self, tokens: np.ndarray, views):
        self.tokens = np.asarray(tokens)
        self.views = list(views)
        if self.tokens.ndim != 2:
            raise ValueError("tokens must be 2-d (frames by layers)")
        if not self.views:
            raise ValueError("a query needs at least one view")
        tg = [np.asarray(v.targets).reshape(-1, 2) for v in self.views]
        counts = [len(t) for t in tg]
        widths = [len(v.visible) for v in self.views]
        self.targets = np.concatenate(tg).astype(np.int64, copy=False)
        lo = np.repeat(np.array([v.lo for v in self.views], dtype=np.int64),
                       counts)
        rel = self.targets.copy()
        rel[:, 0] -= lo
        vis = np.concatenate([v.visible for v in self.views]).astype(
            np.int64, copy=False).tobytes()
        rel = rel.tobytes()
        plans = []
        a = b = 0
        for v, n, w in zip(self.views, counts, widths):
            if not 0 <= v.lo <= len(self.tokens) - w:
                raise ValueError(f"window [{v.lo}, {v.lo + w}) lies outside "
                                 f"the {len(self.tokens)}-frame grid")
            try:
                plans.append(_plan(vis[8 * a:8 * (a + w)],
                                   rel[16 * b:16 * (b + n)]))
            except ValueError as bad:
                i, reason = bad.args
                t, k = self.targets[b + i].tolist()
                raise ValueError(f"target cell ({t},{k}) {reason}") from None
            a += w
            b += n
        self.sources = np.concatenate(plans)
        frames = self.sources[..., 0]
        frames += np.where(frames >= 0, lo[:, None], 0)

    def context(self) -> tuple:
        """(layer, left, below, right) per target, as int64 arrays; a
        missing neighbor reads SENTINEL. Tokens are read now, so cells
        decoded after the query was built count."""
        frames = self.sources[..., 0]
        near = self.tokens[np.maximum(frames, 0),
                           self.sources[..., 1]].astype(np.int64)
        near[frames < 0] = SENTINEL
        return self.targets[:, 1], near[:, 0], near[:, 1], near[:, 2]


def encode_key(vocab: int, layer, left, below, right):
    """Integer key of a context, elementwise on arrays; SENTINEL (-1)
    codes as ``vocab`` (``-1 % (vocab + 1)``)."""
    m = vocab + 1
    return ((layer * m + left % m) * m + below % m) * m + right % m


@dataclass
class UniformModel:
    """Context-free baseline: every cell gets the uniform PMF."""

    vocab: int

    def __post_init__(self):
        if self.vocab < 2:
            raise ValueError("vocab must be at least 2")
        self._cum = cumulative(uniform_pmf(self.vocab)[None])

    def pmf(self, query: MaskedQuery) -> tuple:
        """(cumulative rows, fallback names), one per target."""
        n = len(query.targets)
        return np.broadcast_to(self._cum, (n, self.vocab + 1)), ["uniform"] * n

    def predict(self, query: MaskedQuery) -> np.ndarray:
        return _mode(self.pmf(query)[0])


FALLBACKS = ("conditional", "marginal", "uniform")


class _Table(NamedTuple):
    """A count model compiled for pricing.

    ``keys`` holds the sorted conditional keys and one key above them all;
    ``cum`` their cumulative rows, then one fallback row per layer; and
    ``kind`` each row's index into FALLBACKS.
    """

    keys: np.ndarray
    cum: np.ndarray
    kind: np.ndarray


@dataclass
class CountModel:
    """Neighbor-context count table with Laplace smoothing.

    Falls back from the exact context to the per-layer marginal, then to
    uniform, when a key was never observed in training. The counts are
    compiled into one dense table when first priced; ``observe`` discards
    it.
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
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and positive")
        if self.marginals is None:
            self.marginals = np.zeros((self.n_layers, self.vocab), dtype=np.int64)
        self._table: _Table | None = None

    def _compiled(self) -> _Table:
        if self._table is None:
            keys = sorted(self.tables)
            counts = np.array([self.tables[k] for k in keys],
                              dtype=np.float64).reshape(-1, self.vocab)
            seen = self.marginals.sum(axis=1) > 0
            freq = quantize_weights(np.concatenate([counts, self.marginals])
                                    + self.alpha)
            freq[len(keys) + np.flatnonzero(~seen)] = uniform_pmf(self.vocab)
            kind = np.concatenate([np.zeros(len(keys), dtype=np.int64),
                                   np.where(seen, 1, 2)])
            self._table = _Table(
                np.array(keys + [np.iinfo(np.int64).max], dtype=np.int64),
                cumulative(freq), kind)
        return self._table

    def pmf(self, query: MaskedQuery) -> tuple:
        """(cumulative rows, fallback names), one per target.

        Row i is an (vocab + 1) uint32 row: target i's symbol s owns
        ``[row[s], row[s + 1])`` of PMF_TOTAL.
        """
        layer, left, below, right = query.context()
        keys = encode_key(self.vocab, layer, left, below, right)
        table = self._compiled()
        pos = np.searchsorted(table.keys, keys)
        rows = np.where(table.keys[pos] == keys, pos,
                        len(table.keys) - 1 + layer)
        return table.cum[rows], [FALLBACKS[c] for c in table.kind[rows].tolist()]

    def predict(self, query: MaskedQuery) -> np.ndarray:
        """Maximum-likelihood token per target cell."""
        return _mode(self.pmf(query)[0])

    def observe(self, query: MaskedQuery, symbols) -> None:
        """Accumulate (context, token) pairs from one query.

        Uses the same key computation as pmf; ``train_count_model`` counts
        every masking sample through here, and a model can be fitted the
        same way on any other visibility pattern it will be queried with.
        """
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.shape != (len(query.targets),):
            raise ValueError("one symbol per target required")
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.vocab):
            raise ValueError("symbol outside vocabulary")
        layer, left, below, right = query.context()
        keys = encode_key(self.vocab, layer, left, below, right)
        for key, k, sym in zip(keys.tolist(), layer.tolist(), symbols.tolist()):
            counts = self.tables.get(key)
            if counts is None:
                counts = np.zeros(self.vocab, dtype=np.int64)
                self.tables[key] = counts
            counts[sym] += 1
            self.marginals[k, sym] += 1
            self.n_observed += 1
        self._table = None


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
    count (context -> token) over every hidden cell. A sample is one
    ``observe`` of a one-view query, unmasked frames visible through K and
    masked ones through k - 1, so training reads the views pricing reads.
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
            visible = np.full(T, K, dtype=np.int64)
            visible[masked] = k_low - 1
            layers = np.arange(k_low - 1, K)
            targets = np.column_stack([np.repeat(masked, len(layers)),
                                       np.tile(layers, n_masked)])
            model.observe(MaskedQuery(g.tokens, [View(0, visible, targets)]),
                          g.tokens[targets[:, 0], targets[:, 1]])
    return model


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
    off = struct.calcsize("<HHdQ")
    if len(body) < off:
        raise ValueError("context model file is truncated")
    vocab, n_layers, alpha, n_observed = struct.unpack_from("<HHdQ", body, 0)
    if len(body) < off + 8 * n_layers * vocab + 4:
        raise ValueError("context model file is truncated")
    marg = np.frombuffer(body, dtype="<u8", count=n_layers * vocab, offset=off)
    off += 8 * n_layers * vocab
    (n_rec,) = struct.unpack_from("<I", body, off)
    off += 4
    if len(body) < off + n_rec * 8 * (1 + vocab):
        raise ValueError("context model file is truncated")
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

"""Context models that price tokens as rows of one compiled table.

A model prices cells as one compiled table of cumulative frequency rows
over a fixed 16-bit total, plus each cell's row index in it, so that
encoder and decoder arithmetic is integer-only and bit-identical and no
caller copies a row. It prices a cell in one of two ways. ``layer_pmf``
reads the cell's layer alone: the fine tokens are range-coded this way,
so a fine slice reads no other cell and decodes whenever its packet
arrives. ``pmf`` reads a query: a query exposes a token grid through
views, each showing the first ``visible[i]`` layers of the frames of one
window and naming the target cells it prices there. Concealment predicts
lost coarse cells through ``predict`` over such a query, and training
counts its contexts through one.

The count model keys each query target on at most three neighbors: the
nearest frame to the left carrying a token at (or deepest below) the
cell's layer, the token directly below in the same frame, and the
symmetric right neighbor. Neighbor selection prefers the deepest usable
frame and breaks ties toward the nearest one, so a far frame that is
visible at the cell's own layer beats an adjacent frame that only shows
shallow layers.

Which cells the neighbors are depends on the visibility alone, never on
token values, so a query computes them once per distinct view shape (a
fixed-size cache; a periodic layout or a stream cadence has a handful),
turns them into flat cell indices once, and reads a whole query's context
with one ``take``. The count model keeps one count table, its observed
keys in increasing order with one row of token counts each; the layer
marginals and the observed total are read from it. When first priced
after a change, it compiles that table into the keys' cumulative rows
plus one marginal-or-uniform row per layer, with each row's fallback
kind and most probable token. ``layer_pmf`` hands over those per-layer
rows; ``pmf`` is one key search that hands over a key's own row, or its
layer's row for a key never observed. The range coder reads two entries
of a row per coded symbol and bisects it to decode, and concealment
reads a row's mode.

Training reads contexts the same way: each masking sample is one view of
the schedule's one query over the concatenated corpus, counted through one
``observe``. So ``encode_key`` over ``MaskedQuery.context`` is the one
place a visibility pattern becomes a context key, for training and
concealment alike.
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
    near_cells: (n, 3) int64 flat index into ``tokens`` of each neighbor,
        0 where there is none.
    missing: (n, 3) bool, where there is no neighbor.

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
        self.missing = frames < 0
        cells = frames * self.tokens.shape[1] + self.sources[..., 1]
        self.near_cells = np.where(self.missing, 0, cells)

    def context(self) -> tuple:
        """(layer, neighbors) of every target: its (n,) int64 layers and
        the (n, 3) int64 tokens of its left, below and right neighbor, a
        missing one read as SENTINEL. Tokens are read now, so cells
        decoded after the query was built count."""
        near = np.where(self.missing, np.int64(SENTINEL),
                        self.tokens.take(self.near_cells))
        return self.targets[:, 1], near


def encode_key(vocab: int, layer, near):
    """Integer key of a context: ``layer`` and the (left, below, right)
    tokens ``near`` along its last axis, elementwise on arrays, as the
    digits of one base ``vocab + 1`` number. SENTINEL (-1) codes as
    ``vocab`` (``-1 % (vocab + 1)``)."""
    m = vocab + 1
    return layer * m ** 3 + (np.asarray(near) % m) @ (m * m, m, 1)


FALLBACKS = ("conditional", "marginal", "uniform")
_UNIFORM = FALLBACKS.index("uniform")


class _Table(NamedTuple):
    """A model compiled for pricing.

    ``keys`` holds the sorted conditional keys and one key above them all;
    ``cum`` their read-only cumulative rows, then one fallback row per
    layer; ``kind`` each row's index into FALLBACKS; and ``mode`` each
    row's most probable symbol, the lowest-indexed one on ties.
    """

    keys: np.ndarray
    cum: np.ndarray
    kind: np.ndarray
    mode: np.ndarray


def _compile(keys: np.ndarray, freq: np.ndarray, kind: np.ndarray) -> _Table:
    """The pricing table of ``keys`` and the (rows, vocab) frequencies of
    their rows and the fallback rows after them."""
    cum = cumulative(freq)
    cum.flags.writeable = False
    return _Table(np.append(keys, np.iinfo(np.int64).max), cum, kind,
                  _mode(cum))


@dataclass
class UniformModel:
    """Context-free baseline: every cell gets the uniform PMF, the one row
    of its table."""

    vocab: int

    def __post_init__(self):
        if self.vocab < 2:
            raise ValueError("vocab must be at least 2")
        self._table = _compile(np.zeros(0, np.int64),
                               uniform_pmf(self.vocab)[None],
                               np.array([_UNIFORM]))

    def layer_pmf(self, layers) -> tuple:
        """(cumulative table, row per cell, FALLBACKS index per cell) of
        cells on ``layers``, as ``CountModel.layer_pmf``; every row index
        is 0."""
        n = len(layers)
        return (self._table.cum, np.zeros(n, dtype=np.int64),
                np.full(n, _UNIFORM))

    def pmf(self, query: MaskedQuery) -> tuple:
        """(cumulative table, row per target, FALLBACKS index per target),
        as ``CountModel.pmf``; every row index is 0."""
        return self.layer_pmf(query.targets[:, 1])

    def predict(self, query: MaskedQuery) -> np.ndarray:
        return self._table.mode[self.pmf(query)[1]]


@dataclass
class CountModel:
    """Neighbor-context count table with Laplace smoothing.

    ``keys`` holds the observed context keys, strictly increasing, and
    ``counts`` their (len(keys), vocab) int64 token counts. A key's layer
    is its leading digit, as ``encode_key`` builds it, so each layer's
    rows form one run; ``marginals`` and ``n_observed`` are read from that
    table. Pricing falls back from the exact context to the per-layer
    marginal, then to uniform, when a key was never observed in training.
    The table is compiled for pricing when first priced; ``observe``
    discards the compiled form.
    """

    vocab: int
    n_layers: int
    alpha: float = 0.5
    keys: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    counts: np.ndarray | None = None

    def __post_init__(self):
        if self.vocab < 2:
            raise ValueError("vocab must be at least 2")
        if self.n_layers < 1:
            raise ValueError("n_layers must be at least 1")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be finite and positive")
        self.keys = np.asarray(self.keys, dtype=np.int64)
        if self.counts is None:
            self.counts = np.zeros((len(self.keys), self.vocab), np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.keys.ndim != 1 or \
                self.counts.shape != (len(self.keys), self.vocab):
            raise ValueError("counts must hold one row of vocab counts per key")
        if np.any(self.keys[1:] <= self.keys[:-1]):
            raise ValueError("context model keys are not strictly increasing")
        if len(self.keys) and (self.keys[0] < 0 or
                               self._layers()[-1] >= self.n_layers):
            raise ValueError("context model has a key outside its layers")
        self._table: _Table | None = None

    def _layers(self) -> np.ndarray:
        return self.keys // (self.vocab + 1) ** 3

    @property
    def marginals(self) -> np.ndarray:
        """(n_layers, vocab) token counts of each layer: its rows' sums."""
        runs = np.searchsorted(self._layers(), np.arange(self.n_layers + 1))
        total = np.zeros((len(self.keys) + 1, self.vocab), dtype=np.int64)
        np.cumsum(self.counts, axis=0, out=total[1:])
        return total[runs[1:]] - total[runs[:-1]]

    @property
    def n_observed(self) -> int:
        """Number of (context, token) pairs counted."""
        return int(self.counts.sum())

    def _compiled(self) -> _Table:
        if self._table is None:
            marginals = self.marginals
            seen = marginals.sum(axis=1) > 0
            freq = quantize_weights(np.concatenate([self.counts, marginals])
                                    + self.alpha)
            freq[len(self.keys) + np.flatnonzero(~seen)] = \
                uniform_pmf(self.vocab)
            kind = np.concatenate([np.zeros(len(self.keys), dtype=np.int64),
                                   np.where(seen, 1, _UNIFORM)])
            self._table = _compile(self.keys, freq, kind)
        return self._table

    def layer_pmf(self, layers) -> tuple:
        """(cum, rows, kinds) of cells priced by their layer alone, one
        per entry of ``layers``: the table ``pmf`` returns, each cell's
        layer row, its layer marginal or uniform where the layer was never
        observed, and that row's FALLBACKS index."""
        table = self._compiled()
        rows = len(self.keys) + np.asarray(layers, dtype=np.int64)
        return table.cum, rows, table.kind[rows]

    def pmf(self, query: MaskedQuery) -> tuple:
        """(cum, rows, kinds): the compiled table and, per target, its
        row and that row's FALLBACKS index.

        ``cum`` is the read-only (n_rows, vocab + 1) uint32 table, the
        same array until the next ``observe``: target i's symbol s owns
        ``[cum[rows[i], s], cum[rows[i], s + 1])`` of PMF_TOTAL. Its row
        is the key's own when the key was observed, else its layer's
        row, as ``layer_pmf`` gives it.
        """
        table = self._compiled()
        keys = encode_key(self.vocab, *query.context())
        pos = table.keys.searchsorted(keys)
        rows = np.where(table.keys[pos] == keys, pos,
                        len(self.keys) + query.targets[:, 1])
        return table.cum, rows, table.kind[rows]

    def predict(self, query: MaskedQuery) -> np.ndarray:
        """Maximum-likelihood token per target cell."""
        return self._compiled().mode[self.pmf(query)[1]]

    def observe(self, query: MaskedQuery, symbols) -> None:
        """Accumulate (context, token) pairs from one query.

        Uses the same key computation as pmf; ``train_count_model`` counts
        a whole schedule through here, and a model can be fitted the same
        way on any other visibility pattern it will be queried with. The
        table's keys and the query's are merged with one ``np.unique``,
        the query is counted with one bincount over the merged keys, and
        the old rows are added at their new positions.
        """
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.shape != (len(query.targets),):
            raise ValueError("one symbol per target required")
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.vocab):
            raise ValueError("symbol outside vocabulary")
        layer, near = query.context()
        if layer.size and layer.max() >= self.n_layers:
            raise ValueError("target layer outside the model")
        keys = encode_key(self.vocab, layer, near)
        n_old = len(self.keys)
        uniq, inv = np.unique(np.concatenate([self.keys, keys]),
                              return_inverse=True)
        counts = np.bincount(inv[n_old:] * self.vocab + symbols,
                             minlength=len(uniq) * self.vocab)
        counts = counts.astype(np.int64, copy=False).reshape(-1, self.vocab)
        counts[inv[:n_old]] += self.counts  # old keys are distinct
        self.keys, self.counts = uniq, counts
        self._table = None


def train_count_model(corpus, vocab: int, n_layers: int, n_coarse: int, *,
                      epochs: int = 1, seed: int = 0,
                      fixed_tau: float | None = None) -> CountModel:
    """Fit a CountModel by masking random frame suffixes of layer stacks.

    Per sample: draw tau and mask floor(T * beta(tau)) frames; draw an
    encode depth K uniformly from [n_coarse, n_layers] and a lowest masked
    layer uniformly from [1, K]; hide layers k..K of the masked frames and
    count (context -> token) over every hidden cell. ``epochs`` passes
    over the corpus draw from one generator seeded with ``seed``;
    ``fixed_tau`` pins the mask ratio, which the experiment config exposes
    and the tests use to carve out degenerate schedules. Each sample is one
    view of the schedule's one query over the concatenated corpus, its
    grid's window with unmasked frames visible through K and masked ones
    through k - 1, and that query is counted with one ``observe``, so
    training reads the views pricing reads.
    """
    if epochs < 1:
        raise ValueError("epochs must be at least 1")
    if fixed_tau is not None and not 0.0 <= fixed_tau <= 1.0:
        raise ValueError("fixed_tau must be in [0, 1]")
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

    rng = np.random.default_rng(seed)
    model = CountModel(vocab=vocab, n_layers=n_layers)
    tokens = np.concatenate([g.tokens for g in grids])
    starts = np.cumsum([0] + [g.n_frames for g in grids]).tolist()
    views = []
    for _ in range(epochs):
        for g, lo in zip(grids, starts):
            T = g.n_frames
            depth_cap = int(g.level[0])
            tau = fixed_tau if fixed_tau is not None else float(rng.random())
            K = min(int(rng.integers(n_coarse, n_layers + 1)), depth_cap)
            k_low = int(rng.integers(1, K + 1))
            n_masked = int(T * beta(tau))
            if n_masked == 0:
                continue
            masked = np.sort(rng.choice(T, size=n_masked, replace=False))
            visible = np.full(T, K, dtype=np.int64)
            visible[masked] = k_low - 1
            layers = np.arange(k_low - 1, K)
            targets = np.column_stack([np.repeat(masked + lo, len(layers)),
                                       np.tile(layers, n_masked)])
            views.append(View(lo, visible, targets))
    if views:
        query = MaskedQuery(tokens, views)
        model.observe(query, tokens[query.targets[:, 0], query.targets[:, 1]])
    return model


# Model file format, version 2: magic "CTX1", u8 version, 32-byte SHA-256
# of the body, then body: u16 vocab, u16 n_layers, f64 alpha, u32 record
# count, and per record a little-endian i64 key followed by vocab u64
# counts, in strictly increasing key order. Version 1 also stored the
# observed total and the per-layer marginals, which the records determine.

_CTX_MAGIC = b"CTX1"
_CTX_VERSION = 2
_CTX_HEAD = "<HHdI"


def _record_dtype(vocab: int) -> np.dtype:
    """One packed model-file record: the key, then its vocab counts."""
    return np.dtype([("key", "<i8"), ("counts", "<u8", (vocab,))])


def save_count_model(path: str | Path, model: CountModel) -> None:
    records = np.empty(len(model.keys), dtype=_record_dtype(model.vocab))
    records["key"] = model.keys
    records["counts"] = model.counts
    body = struct.pack(_CTX_HEAD, model.vocab, model.n_layers, model.alpha,
                       len(records)) + records.tobytes()
    digest = hashlib.sha256(body).digest()
    Path(path).write_bytes(_CTX_MAGIC + bytes([_CTX_VERSION]) + digest + body)


def load_count_model(path: str | Path) -> CountModel:
    """Read a model file; ``CountModel`` refuses keys that are not strictly
    increasing or that lie outside the model's layers."""
    data = Path(path).read_bytes()
    if data[:4] != _CTX_MAGIC or len(data) < 37:
        raise ValueError("not a context model file")
    if data[4] != _CTX_VERSION:
        raise ValueError("unsupported context model version")
    digest, body = data[5:37], data[37:]
    if hashlib.sha256(body).digest() != digest:
        raise ValueError("context model file failed its integrity check")
    off = struct.calcsize(_CTX_HEAD)
    if len(body) < off:
        raise ValueError("context model file is truncated")
    vocab, n_layers, alpha, n_rec = struct.unpack_from(_CTX_HEAD, body, 0)
    rec = _record_dtype(vocab)
    if len(body) < off + n_rec * rec.itemsize:
        raise ValueError("context model file is truncated")
    if len(body) != off + n_rec * rec.itemsize:
        raise ValueError("context model file has trailing bytes")
    records = np.frombuffer(body, dtype=rec, count=n_rec, offset=off)
    return CountModel(vocab=vocab, n_layers=n_layers, alpha=alpha,
                      keys=records["key"].astype(np.int64),
                      counts=records["counts"].astype(np.int64))


def model_digest(path: str | Path) -> str:
    """Hex SHA-256 of a model or codebook file, for manifest cross-checks."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()

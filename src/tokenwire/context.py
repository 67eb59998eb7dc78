"""Token models that price cells as rows of one compiled table.

A model prices cells as one compiled table of cumulative frequency rows
over a fixed 16-bit total, plus each cell's row index in it, so that
encoder and decoder arithmetic is integer-only and bit-identical and no
caller copies a row.

The count model's table is per layer: ``train_count_model`` counts every
encoded cell of its corpus once, by layer, and the compiled table holds
one row per layer, the layer's smoothed counts or uniform where the
layer was never observed, with each row's kind and mode and the rows
compiled for the range coder (``decoder``): each row's cumulative list
and bucket index, Python lists from which the sender prices a fine
token's interval and the decoder finds its symbol. Both of the model's
jobs read a cell's layer row and nothing else. The range coder prices
every fine token by it (``layer_pmf``), so a fine slice reads no other
cell and decodes whenever its packet arrives. Concealment fills a lost
coarse cell with its row's mode (``predict``).

The model stands in for the paper's masked token model. On this corpus
a neighbour-context table was measured to be too sparse to carry
context: it priced fine tokens no better than the layer row, and
predicted lost coarse cells no better than the layer's mode.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .rangecoder import PMF_TOTAL, DecoderTable, decoder_table


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


FALLBACKS = ("marginal", "uniform")
_MARGINAL, _UNIFORM = range(len(FALLBACKS))
ALPHA = 0.5  # added to every count before a layer's row is quantized


class Targets(NamedTuple):
    """The (n, 2) int64 (frame, layer) cells that ``pmf`` and ``predict``
    price, in order.

    Only the layer column is read. The cells travel in this wrapper
    because the benchmark's span tracer counts ``len(args[1].targets)``
    of each ``pmf`` and ``predict`` call; it goes once that tracer counts
    the cells itself (ROADMAP item 4).
    """

    targets: np.ndarray


class _Table(NamedTuple):
    """A model compiled for pricing: ``cum`` its read-only cumulative
    rows, one per layer, ``kind`` each row's index into FALLBACKS,
    ``mode`` each row's most probable symbol, the lowest-indexed one on
    ties, and ``decoder`` the rows compiled into per-row lists for the
    range coder's two ends."""

    cum: np.ndarray
    kind: np.ndarray
    mode: np.ndarray
    decoder: DecoderTable


def _compile(freq: np.ndarray, kind: np.ndarray) -> _Table:
    """The pricing table of (rows, vocab) frequencies."""
    cum = cumulative(freq)
    cum.flags.writeable = False
    return _Table(cum, kind, _mode(cum), decoder_table(cum))


@dataclass
class CountModel:
    """Per-layer token counts with additive smoothing.

    ``counts`` holds each layer's (n_layers, vocab) int64 token counts,
    read-only. Layer k's row is its counts plus ALPHA, quantized, or
    uniform where the layer was never observed. The table is compiled
    once, on construction.
    """

    vocab: int
    n_layers: int
    counts: np.ndarray | None = None

    def __post_init__(self):
        if self.vocab < 2:
            raise ValueError("vocab must be at least 2")
        if self.n_layers < 1:
            raise ValueError("n_layers must be at least 1")
        shape = (self.n_layers, self.vocab)
        self.counts = (np.zeros(shape, np.int64) if self.counts is None
                       else np.array(self.counts, dtype=np.int64))
        if self.counts.shape != shape:
            raise ValueError("counts must hold one row of vocab counts "
                             "per layer")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")
        self.counts.flags.writeable = False
        seen = self.counts.sum(axis=1) > 0
        freq = quantize_weights(self.counts + ALPHA)
        freq[~seen] = uniform_pmf(self.vocab)
        self._table = _compile(freq, np.where(seen, _MARGINAL, _UNIFORM))

    @property
    def n_observed(self) -> int:
        """Number of tokens counted."""
        return int(self.counts.sum())

    def layer_pmf(self, layers) -> tuple:
        """(cum, rows, kinds) of cells priced by their layer, one per
        entry of ``layers``: the read-only (n_layers, vocab + 1) uint32
        table, the same array on every call, in which cell i's symbol s
        owns ``[cum[rows[i], s], cum[rows[i], s + 1])`` of PMF_TOTAL;
        each cell's row, its layer; and that row's FALLBACKS index."""
        rows = np.asarray(layers, dtype=np.int64)
        return self._table.cum, rows, self._table.kind[rows]

    @property
    def decoder(self) -> DecoderTable:
        """The table ``layer_pmf`` returns, compiled once, with the model,
        into each row's cumulative list and bucket index
        (``rangecoder.decoder_table``): the sender prices fine tokens
        from the row lists and ``rangecoder.decode_symbols`` reads
        both."""
        return self._table.decoder

    def pmf(self, query: Targets) -> tuple:
        """``layer_pmf`` of the query's target layers."""
        return self.layer_pmf(query.targets[:, 1])

    def predict(self, query: Targets) -> np.ndarray:
        """Most probable token per target: its layer row's mode."""
        return self._table.mode[self.pmf(query)[1]]


def train_count_model(corpus, vocab: int, n_layers: int) -> CountModel:
    """Count every encoded cell of each grid of ``corpus`` once, by layer:
    one bincount of layer * vocab + token over the encoded cells."""
    grids = list(corpus)
    if not grids:
        raise ValueError("training corpus is empty")
    cells = []
    for g in grids:
        if g.vocab != vocab or g.n_layers != n_layers:
            raise ValueError("corpus grid shape does not match the model")
        encoded = np.arange(n_layers) < g.level[:, None]
        cells.append(np.nonzero(encoded)[1] * vocab + g.tokens[encoded])
    counts = np.bincount(np.concatenate(cells), minlength=n_layers * vocab)
    return CountModel(vocab, n_layers, counts.reshape(n_layers, vocab))


# Model file format, version 3: magic "CTX1", u8 version, 32-byte SHA-256
# of the body, then body: u16 vocab, u16 n_layers, then n_layers rows of
# vocab little-endian u64 token counts. Version 2 stored a context key
# table, which pricing no longer reads.

_CTX_MAGIC = b"CTX1"
_CTX_VERSION = 3
_CTX_HEAD = "<HH"


def save_count_model(path: str | Path, model: CountModel) -> None:
    body = (struct.pack(_CTX_HEAD, model.vocab, model.n_layers)
            + model.counts.astype("<u8").tobytes())
    digest = hashlib.sha256(body).digest()
    Path(path).write_bytes(_CTX_MAGIC + bytes([_CTX_VERSION]) + digest + body)


def load_count_model(path: str | Path) -> CountModel:
    """Read a model file; ``CountModel`` refuses a count past the int64
    range, which reads as negative."""
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
    vocab, n_layers = struct.unpack_from(_CTX_HEAD, body, 0)
    size = off + 8 * n_layers * vocab
    if len(body) < size:
        raise ValueError("context model file is truncated")
    if len(body) != size:
        raise ValueError("context model file has trailing bytes")
    counts = np.frombuffer(body, dtype="<u8", offset=off)
    return CountModel(vocab, n_layers,
                      counts.astype(np.int64).reshape(n_layers, vocab))


def model_digest(path: str | Path) -> str:
    """Hex SHA-256 of a model or codebook file, for manifest cross-checks."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()

"""Residual vector quantization with a reserved zero codeword.

Layer k quantizes the residual left by layers 1..k-1; decoding sums the
selected codewords. Entry 0 of every codebook is pinned to the zero vector,
so deeper layers can only refine a frame, never degrade it: selecting entry
0 leaves the running reconstruction untouched and the greedy search will
never pick an entry that increases the residual norm beyond that.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import TokenGrid


@dataclass
class Codebook:
    """One quantizer layer: ``entries`` is (vocab, dim), entry 0 all-zero.

    The codebook keeps its own read-only copy of the entries, their
    squared norms ``norms`` and the doubled entries ``doubled`` that
    ``_assign`` multiplies by, each computed once, so they cannot drift.
    Doubling a float is exact short of overflow, so ``doubled`` is
    ``2 * entries`` to the bit. Non-finite entries are refused: they
    would quantize every frame to garbage.
    """

    entries: np.ndarray
    layer: int = 0

    def __post_init__(self):
        self.entries = np.array(self.entries, dtype=np.float64, order="C")
        if self.entries.ndim != 2 or self.entries.shape[0] < 2:
            raise ValueError("codebook needs at least two entries")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("codebook entries must be finite")
        if np.any(self.entries[0] != 0.0):
            raise ValueError("entry 0 must be the zero vector")
        self.entries.flags.writeable = False
        self.norms = _norms(self.entries)
        self.doubled = self.entries + self.entries
        self.norms.flags.writeable = False
        self.doubled.flags.writeable = False

    @property
    def vocab(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


@dataclass
class RvqCodec:
    codebooks: list
    n_coarse: int

    def __post_init__(self):
        if not self.codebooks:
            raise ValueError("codec needs at least one codebook")
        dims = {cb.dim for cb in self.codebooks}
        vocabs = {cb.vocab for cb in self.codebooks}
        if len(dims) != 1 or len(vocabs) != 1:
            raise ValueError("codebooks must share vocab and dim")
        if not 1 <= self.n_coarse < len(self.codebooks):
            raise ValueError("need 1 <= n_coarse < n_layers")

    @property
    def n_layers(self) -> int:
        return len(self.codebooks)

    @property
    def vocab(self) -> int:
        return self.codebooks[0].vocab

    @property
    def dim(self) -> int:
        return self.codebooks[0].dim


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row."""
    return np.sum(vectors * vectors, axis=1)


def _assign(vectors: np.ndarray, entries: np.ndarray,
            norms: np.ndarray | None = None, *,
            doubled: np.ndarray | None = None,
            vector_norms: np.ndarray | None = None) -> np.ndarray:
    """Nearest entry per vector in squared L2; ties go to the lowest index.

    ``norms`` are the entries' squared norms, ``doubled`` is
    ``2 * entries`` and ``vector_norms`` the vectors' squared norms; each
    is computed here when None. The distance is
    ``|v|^2 - v . (2e) + |e|^2``, evaluated left to right and in place.
    It equals ``|v|^2 - (2v) . e + |e|^2`` to the bit: doubling is exact,
    so every product ``v * 2e`` is the float ``2v * e`` is, and the
    matmul, of the same shape, sums them in the same order.
    """
    if norms is None:
        norms = _norms(entries)
    if doubled is None:
        doubled = entries + entries
    if vector_norms is None:
        vector_norms = _norms(vectors)
    d2 = vectors @ doubled.T
    np.subtract(vector_norms[:, None], d2, out=d2)
    d2 += norms
    return np.argmin(d2, axis=1)


def quantize(features: np.ndarray, codec: RvqCodec, level: int) -> TokenGrid:
    """Greedy layer-by-layer quantization of feature rows.

    ``level`` selects how many layers to encode (1..n_layers); transmission
    additionally requires level >= n_coarse, enforced where grids meet the
    slice layout rather than here. Features holding NaN or an infinity are
    refused.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != codec.dim:
        raise ValueError(f"features must be (n, {codec.dim})")
    # a NaN or infinite row has no nearest codeword
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    if not 1 <= level <= codec.n_layers:
        raise ValueError(f"level must be in [1, {codec.n_layers}], got {level}")
    n = features.shape[0]
    tokens = np.zeros((n, codec.n_layers), dtype=np.int32)
    residual = features.copy()
    for k, cb in enumerate(codec.codebooks[:level]):
        z = _assign(residual, cb.entries, cb.norms, doubled=cb.doubled)
        tokens[:, k] = z
        residual -= cb.entries[z]
    return TokenGrid(tokens, np.full(n, level, dtype=np.int16), codec.vocab)


def dequantize(grid: TokenGrid, codec: RvqCodec,
               valid: np.ndarray | None = None) -> np.ndarray:
    """Sum codewords over each frame's valid layer prefix.

    ``valid`` defaults to the grid's encoded level; the receiver passes the
    per-frame usable depth instead.
    """
    if grid.vocab != codec.vocab:
        raise ValueError("grid and codec vocabularies differ")
    if grid.n_layers != codec.n_layers:
        raise ValueError("grid and codec layer counts differ")
    depth = grid.level if valid is None else np.asarray(valid)
    if depth.shape != (grid.n_frames,):
        raise ValueError("valid must have one entry per frame")
    if np.any((depth < 0) | (depth > codec.n_layers)):
        raise ValueError("valid depth out of range")
    # frames past their depth add entry 0, the zero vector: adding +0.0
    # or -0.0 leaves every sum as it was, as ``out`` is never -0.0
    out = np.zeros((grid.n_frames, codec.dim))
    for k in range(int(depth.max(initial=0))):
        out += codec.codebooks[k].entries[
            np.where(depth > k, grid.tokens[:, k], 0)]
    return out


def train_codebooks(corpus: np.ndarray, n_layers: int, vocab: int,
                    n_coarse: int, epochs: int = 10, seed: int = 0,
                    decay: float = 0.99) -> RvqCodec:
    """Fit one codebook per layer on the corpus residuals.

    Non-reserved entries are seeded from distinct residual rows, then
    refined by full-batch EMA k-means. Entries that attract nothing for a
    whole epoch are reseeded from the residual with the largest current
    quantization error.

    The residual does not change within a layer, so its squared row norms
    are taken once per layer. Each epoch's per-entry sums are one
    ``bincount`` over the flat (entry, coordinate) bins: every bin starts
    at +0.0 and adds its rows' values in row order, the order in which
    ``np.add.at(sums, z, residual)`` adds them, so the sums are the same
    floats. (A sorted ``reduceat`` adds in another order and is not.)
    """
    corpus = np.asarray(corpus, dtype=np.float64)
    if corpus.ndim != 2:
        raise ValueError("corpus must be (n, dim)")
    n, dim = corpus.shape
    if n < vocab - 1:
        raise ValueError(
            f"corpus of {n} rows cannot seed {vocab - 1} trainable entries"
        )
    if not 1 <= n_coarse < n_layers:
        raise ValueError("need 1 <= n_coarse < n_layers")
    if epochs < 1:
        raise ValueError("epochs must be at least 1")

    rng = np.random.default_rng(seed)
    residual = corpus.copy()
    columns = np.arange(dim)
    books = []
    for layer in range(n_layers):
        entries = np.zeros((vocab, dim))
        seed_idx = rng.choice(n, size=vocab - 1, replace=False)
        entries[1:] = residual[seed_idx]
        ema_size = np.ones(vocab)
        ema_sum = entries.copy()
        row_norms = _norms(residual)
        flat_residual = residual.ravel()
        for _ in range(epochs):
            z = _assign(residual, entries, vector_norms=row_norms)
            counts = np.bincount(z, minlength=vocab).astype(np.float64)
            bins = (z[:, None] * dim + columns).ravel()
            sums = np.bincount(bins, weights=flat_residual,
                               minlength=vocab * dim).reshape(vocab, dim)
            ema_size = decay * ema_size + (1.0 - decay) * counts
            ema_sum = decay * ema_sum + (1.0 - decay) * sums
            entries[1:] = ema_sum[1:] / ema_size[1:, None]
            unused = np.flatnonzero(counts[1:] == 0) + 1
            if len(unused):
                err = np.sum((residual - entries[z]) ** 2, axis=1)
                worst = np.argsort(-err)[: len(unused)]
                entries[unused] = residual[worst]
                ema_size[unused] = 1.0
                ema_sum[unused] = entries[unused]
        books.append(Codebook(entries, layer))
        z = _assign(residual, entries, vector_norms=row_norms)
        residual = residual - entries[z]
    return RvqCodec(books, n_coarse)


# Codebook file format: magic "RVQ1", little-endian u16 vocab, u16 dim,
# u16 n_layers, u16 n_coarse, then float32 entries layer-major, entry-major.

_RVQ_MAGIC = b"RVQ1"


def save_codec(path: str | Path, codec: RvqCodec) -> None:
    out = bytearray(_RVQ_MAGIC)
    out += struct.pack("<HHHH", codec.vocab, codec.dim, codec.n_layers, codec.n_coarse)
    for cb in codec.codebooks:
        out += cb.entries.astype("<f4").tobytes()
    Path(path).write_bytes(bytes(out))


def load_codec(path: str | Path) -> RvqCodec:
    data = Path(path).read_bytes()
    if data[:4] != _RVQ_MAGIC or len(data) < 12:
        raise ValueError("not a codebook file")
    vocab, dim, n_layers, n_coarse = struct.unpack_from("<HHHH", data, 4)
    need = 12 + 4 * vocab * dim * n_layers
    if len(data) != need:
        raise ValueError("codebook file is truncated or has trailing bytes")
    flat = np.frombuffer(data, dtype="<f4", offset=12).astype(np.float64)
    books = []
    for layer in range(n_layers):
        entries = flat[layer * vocab * dim:(layer + 1) * vocab * dim]
        books.append(Codebook(entries.reshape(vocab, dim), layer))
    return RvqCodec(books, n_coarse)

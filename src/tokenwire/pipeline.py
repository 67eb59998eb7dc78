"""The transceiver core, and the batch sender and receiver built on it.

The core is shared with the streaming transceiver: ``SliceSender`` turns
coarse slices into bit-packed packets with chained repair copies and fine
slices into range-coded packets, each fine token priced by its layer's
row of the model's table (``layer_pmf``), keeping the sender's bit
accounting; ``admit`` decides which arrived packet fills which slice,
the one claim rule of both receivers, each of which passes only its own
geometry; ``place_coarse`` writes the admitted coarse slices and their
repair copies; ``decode_fine`` decodes every fine slice that arrived
from its first copy that decodes; ``conceal`` fills each lost coarse
cell with its layer's most probable token; a lost or invalid fine cell
is never guessed and ends its frame's usable depth. A packet the
receiver cannot place or read is dropped and counted, as if lost. No
slice is coded against another cell, and no concealed cell reads
another, so neither waits on anything: each end prices all the fine
slices it handles at once, and conceals all the frames it finalizes in
one call. The encode level is stated once, in the receiver's initial
states (INVALID from the level up); which cells can be trusted then
follows from the states by the one prefix rule in ``dependency``.

Every clip of one layout shares one plan of it, built on the first clip
and memoized like the layout itself (``build_slice_grid``): each slice's
packet head and cells, and the map from a head back to its cells and its
coarse predecessor's, so neither end rebuilds any of it per clip.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .audio import CodecConfig, synthesize
from .context import FALLBACKS, PMF_TOTAL, Targets
from .dependency import classify_loss, propagate_invalid, usable_depth
from .errors import DecodeError
from .grid import (GosConfig, SliceGrid, TokenGrid, TokenState,
                   build_slice_grid, initial_states)
from .rangecoder import CodedSlice, code_ranges, decode_symbols, encode_symbols
from .rvq import RvqCodec, dequantize, quantize
from .transport import Packet, pack_bits, token_bits, unpack_bits

_R = int(TokenState.RECEIVED)
_C = int(TokenState.CONCEALED)
_I = int(TokenState.INVALID)


@dataclass
class SenderReport:
    """Bit accounting for one batch send or one whole stream."""

    n_packets: int = 0
    n_coarse_packets: int = 0
    n_fine_packets: int = 0
    header_bits: int = 0
    coarse_bits: int = 0
    fec_bits: int = 0
    fine_bits: int = 0
    ideal_fine_bits: float = 0.0
    n_coarse_tokens: int = 0
    n_fine_tokens: int = 0
    per_layer_ideal_bits: dict = field(default_factory=dict)
    fallback_counts: dict = field(default_factory=dict)

    @property
    def total_bits(self) -> int:
        return self.header_bits + self.payload_bits

    @property
    def payload_bits(self) -> int:
        """Everything but the headers: coarse, FEC and coded fine bits."""
        return self.coarse_bits + self.fec_bits + self.fine_bits

    @property
    def fine_bits_per_token(self) -> float | None:
        if self.n_fine_tokens == 0:
            return None
        return self.fine_bits / self.n_fine_tokens


@dataclass
class ReceiverReport:
    """What the receiver saw and how it classified the damage."""

    n_frames: int
    level: int
    n_packets_seen: int
    n_dropped: int  # packets that arrived but could not be placed or read
    fec_recovered: int
    state_counts: dict
    n_predicted: int  # lost coarse cells predicted by concealment

    @property
    def n_blackouts(self) -> int:
        """Always 0: concealment holds no frame through a blackout. Kept
        only because the benchmark's workloads still read it; the
        benchmark change of ROADMAP item 1 deletes it."""
        return 0


class SliceSender:
    """Transmit half of the transceiver core.

    Turns slices into packets in the order it is handed them, chains each
    coarse packet's repair copy to its predecessor when ``fec`` is on, and
    keeps the ``SenderReport``. A packet's ``head`` is its (group,
    first_frame, n_frames). The report charges each packet's own
    ``Packet.header_bytes`` to ``header_bits``, which varies with the
    header's varint fields, so ``total_bits`` is exactly eight times the
    packets' serialised length.
    """

    def __init__(self, model, fec: bool = True):
        self.model = model
        self.fec = fec
        self.width = token_bits(model.vocab)
        self.report = SenderReport()
        self._prev_coarse: bytes | None = None

    def _packet(self, head: tuple, payload: bytes,
                fec_field: bytes = b"") -> Packet:
        packet = Packet(*head, payload, fec_field)
        self.report.n_packets += 1
        self.report.header_bits += packet.header_bytes * 8
        return packet

    def coarse(self, head: tuple, vals: np.ndarray) -> Packet:
        """Bit-pack a coarse slice's tokens; carries the previous coarse
        slice as repair."""
        rep = self.report
        payload = pack_bits(vals, self.width)
        fec_field = (self._prev_coarse
                     if (self.fec and self._prev_coarse is not None) else b"")
        self._prev_coarse = payload
        rep.n_coarse_packets += 1
        rep.coarse_bits += len(payload) * 8
        rep.fec_bits += len(fec_field) * 8
        rep.n_coarse_tokens += len(vals)
        return self._packet(head, payload, fec_field)

    def fine(self, tokens: np.ndarray, slices) -> list:
        """Range-code fine slices, given as (head, cells) pairs, of
        ``tokens``, each token priced by its layer's row; returns their
        packets, in order."""
        if not slices:
            return []
        rep = self.report
        cells = np.concatenate([c for _, c in slices])
        layers = cells[:, 1]
        cum, rows, kinds = self.model.layer_pmf(layers)
        cum_lo, freq = code_ranges(cum, rows, tokens[cells[:, 0], layers])
        per_layer = rep.per_layer_ideal_bits
        for k, f in zip(layers.tolist(), freq):
            b = -math.log2(f / PMF_TOTAL)
            rep.ideal_fine_bits += b
            per_layer[k] = per_layer.get(k, 0.0) + b
        for fb, n in zip(FALLBACKS, np.bincount(kinds).tolist()):
            if n:
                rep.fallback_counts[fb] = rep.fallback_counts.get(fb, 0) + n
        packets = []
        a = 0
        for head, c in slices:
            b = a + len(c)
            coded = encode_symbols(cum_lo[a:b], freq[a:b])
            rep.n_fine_packets += 1
            rep.fine_bits += len(coded.payload) * 8
            rep.n_fine_tokens += b - a
            packets.append(self._packet(head, coded.payload))
            a = b
        return packets


def decode_fine(model, tokens: np.ndarray, states: np.ndarray,
                slices) -> int:
    """Decode, in place into ``tokens`` and ``states``, fine slices given
    as (copies, cells) pairs, where ``copies`` holds the slice's arrived
    payloads in arrival order.

    Each token is priced by its layer's row, as the sender priced it, so
    a slice reads no other cell and every slice that arrived is read. The
    first copy that decodes fills its slice, and a slice none of whose
    copies decodes keeps its cells LOST, like a drop. Returns how many
    copies filled nothing: every copy but the one that filled its slice.
    """
    arrived = [(copies, cells) for copies, cells in slices if copies]
    if not arrived:
        return 0
    cum, rows, _ = model.layer_pmf(
        np.concatenate([cells for _, cells in arrived])[:, 1])
    done, syms = [], []
    n_dropped = 0
    a = 0
    for copies, cells in arrived:
        b = a + len(cells)
        for payload in copies:
            try:
                syms += decode_symbols(CodedSlice(payload, b - a), cum,
                                       rows[a:b])
            except DecodeError:
                continue
            done.append(cells)
            n_dropped += len(copies) - 1
            break
        else:
            n_dropped += len(copies)
        a = b
    if done:
        cells = np.concatenate(done)
        tokens[cells[:, 0], cells[:, 1]] = syms
        states[cells[:, 0], cells[:, 1]] = _R
    return n_dropped


def coarse_values(payload: bytes, vocab: int, count: int):
    """The ``count`` tokens packed in a coarse payload, or None unless it
    holds that many and all are in ``vocab``."""
    width = token_bits(vocab)
    try:
        vals = unpack_bits(payload, width, count)
    except DecodeError:
        return None
    # every width-bit value is a token when vocab is a power of two
    if vocab == 1 << width or int(vals.max(initial=0)) < vocab:
        return vals
    return None


def admit(packets, slot_of, vocab: int) -> tuple:
    """Sort arrived packets into the slices they fill: the one claim rule
    of both receivers.

    ``slot_of(packet)`` is the receiver's own geometry: the (cells,
    cells of its coarse predecessor or None) of the slice the packet's
    head names, or None when no slice has that head. A None in
    ``packets`` stands for a packet that arrived but did not parse. A
    coarse packet claims its head only once its payload reads
    (``coarse_values``), so an unreadable copy never hides a readable
    one; a fine payload is read only by decoding it, so every fine copy
    is kept for ``decode_fine``, which tries them in arrival order.
    Returns (``place_coarse`` links, {head: fine payloads in arrival
    order}, how many packets were dropped).
    """
    links, fine, claimed = [], {}, set()
    n_dropped = 0
    for p in packets:
        slot = None if p is None else slot_of(p)
        if slot is None:
            n_dropped += 1
            continue
        head = p.group, p.first_frame, p.n_frames
        cells, prev = slot
        if p.group:
            fine.setdefault(head, []).append(p.payload)
            continue
        vals = (None if head in claimed
                else coarse_values(p.payload, vocab, len(cells)))
        if vals is None:
            n_dropped += 1
        else:
            claimed.add(head)
            links.append((cells, vals, p.fec, prev))
    return links, fine, n_dropped


def place_coarse(tokens: np.ndarray, states: np.ndarray, links: list,
                 vocab: int, first_open: int) -> int:
    """Write, in place, coarse slices given as (cells, values, repair
    copy, cells of its predecessor or None) links, as ``admit`` returns
    them; frames before ``first_open`` are final.

    Every link's cells and every repair copy's predecessor cells become
    flat indices in one pass, and the values are written in one ``put``.
    Then an open predecessor cell not RECEIVED takes the repair copy, if
    it unpacks into ``vocab``. Links name distinct predecessors, so one
    read of all their states tells which copies are needed. A row below
    ``first_open`` is never written, and its state read is masked, so
    cells may name rows below 0 (frames before a stream receiver's
    window). Returns how many repair copies were used."""
    if not links:
        return 0
    copies = [(fec, prev) for _, _, fec, prev in links
              if fec and prev is not None]
    n = sum(len(cells) for cells, _, _, _ in links)
    t, k = np.concatenate([cells for cells, _, _, _ in links]
                          + [prev for _, prev in copies]).T
    flat = t * tokens.shape[1] + k
    is_open = t >= first_open
    keep = is_open[:n]
    cells = flat[:n][keep]
    tokens.put(cells, np.concatenate([v for _, v, _, _ in links])[keep])
    states.put(cells, _R)
    if not copies:
        return 0
    # a row below 0 clips to a real cell, whose state the mask ignores
    prev_cells = flat[n:]
    need = is_open[n:] & (states.take(prev_cells, mode="clip") != _R)
    starts = list(accumulate([len(prev) for _, prev in copies[:-1]],
                             initial=0))
    repaired = 0
    for i, hit in enumerate(np.logical_or.reduceat(need, starts).tolist()):
        if not hit:
            continue
        fec, prev = copies[i]
        v = coarse_values(fec, vocab, len(prev))
        if v is not None:
            span = slice(starts[i], starts[i] + len(prev))
            mask = need[span]
            cells = prev_cells[span][mask]
            tokens.put(cells, v[mask])
            states.put(cells, _R)
            repaired += 1
    return repaired


def conceal(model, tokens: np.ndarray, states: np.ndarray, frames: range,
            n_coarse: int) -> int:
    """Fill in place each LOST coarse cell of ``frames`` with its layer's
    most probable token, all in one ``predict``, and mark it CONCEALED;
    returns how many cells were filled.

    Every other cell is left as it is: a lost or invalid fine cell ends
    its frame's usable depth, and, once ``propagate_invalid`` has cut the
    states, a coarse cell above a frame's first lost one is INVALID and
    stays cut. A frame's fill reads nothing but its own states, so
    concealing frames in one call or in any run of consecutive chunks
    gives the same cells."""
    cells = classify_loss(states, frames, n_coarse)
    if len(cells):
        tokens[cells[:, 0], cells[:, 1]] = model.predict(Targets(cells))
        states[cells[:, 0], cells[:, 1]] = _C
    return len(cells)


class _Layout(NamedTuple):
    """What both batch ends derive from one slice layout, once."""

    slices: tuple   # (packet head, cells) per slice, in emission order
    by_head: dict   # packet head -> (cells, coarse predecessor's or None)
    fine: tuple     # (packet head, cells) per fine slice, in emission order


@functools.lru_cache(maxsize=64)
def _layout(sg: SliceGrid) -> _Layout:
    """The plan of layout ``sg``."""
    slices, by_head = [], {}
    prev = None
    for sid, cells in sg.slices.items():
        frames = cells[:, 0].tolist()
        head = (sid.group, frames[0], len(set(frames)))
        slices.append((head, cells))
        if sid.group == 0:
            by_head[head] = cells, prev
            prev = cells
        else:
            by_head[head] = cells, None
    return _Layout(tuple(slices), by_head,
                   tuple((head, cells) for head, cells in slices if head[0]))


def send_tokens(grid: TokenGrid, sg: SliceGrid, model,
                fec: bool = True) -> tuple:
    """Encode a uniformly quantized grid into packets.

    Packets come out in the layout's slice order: within each
    group-of-slices the coarse slices, then the fine slices, each token of
    which is priced by its layer's row. Every coarse packet after the
    first carries a packed copy of its predecessor when ``fec`` is on.
    """
    if grid.n_frames != sg.n_frames or grid.n_layers != sg.n_layers:
        raise ValueError("grid shape does not match the slice layout")
    if np.any(grid.level != sg.level):
        raise ValueError("grid must be uniformly encoded at the layout level")
    if model.vocab != grid.vocab:
        raise ValueError("model and grid vocabularies differ")

    plan = _layout(sg)
    tx = SliceSender(model, fec)
    tokens = grid.tokens
    fine = iter(tx.fine(tokens, plan.fine))
    return [tx.coarse(head, tokens[cells[:, 0], cells[:, 1]])
            if head[0] == 0 else next(fine)
            for head, cells in plan.slices], tx.report


def receive_tokens(packets, sg: SliceGrid, model) -> tuple:
    """Decode arrived packets back into a (grid, states, report) triple.

    ``admit`` places the packets against the layout's heads: one that
    names no slice of the layout, a copy of one already filled, or one
    whose payload cannot be read is dropped and counted, as if lost, and
    so is a None in ``packets``, which stands for a packet that arrived
    but did not parse (see ``transport.read_packets``). Every fine slice
    that arrived decodes, all in one call; the prefix rule then marks
    every cell above a frame's first missing one invalid, and
    concealment fills each lost coarse cell with its layer's mode. The
    grid's level is the per-frame usable depth.
    """
    vocab = model.vocab
    T, K = sg.n_frames, sg.n_layers
    tokens = np.zeros((T, K), dtype=np.int32)
    states = initial_states(T, K, sg.level)

    plan = _layout(sg)
    by_head = plan.by_head
    links, fine, n_dropped = admit(
        packets, lambda p: by_head.get((p.group, p.first_frame, p.n_frames)),
        vocab)
    fec_recovered = place_coarse(tokens, states, links, vocab, 0)
    n_dropped += decode_fine(
        model, tokens, states,
        [(fine.get(head, ()), cells) for head, cells in plan.fine])

    propagate_invalid(states)

    n_predicted = conceal(model, tokens, states, range(T), sg.gos.n_coarse)

    grid = TokenGrid(tokens, usable_depth(states), vocab)
    names = {_R: "received", int(TokenState.LOST): "lost",
             _I: "invalid", _C: "concealed"}
    encoded = states[:, :sg.level]
    state_counts = {name: int(np.count_nonzero(encoded == code))
                    for code, name in names.items()}
    return grid, states, ReceiverReport(
        n_frames=T, level=sg.level, n_packets_seen=len(packets),
        n_dropped=n_dropped, fec_recovered=fec_recovered,
        state_counts=state_counts, n_predicted=n_predicted)


def send(features: np.ndarray, codec: RvqCodec, model, gos: GosConfig,
         level: int | None = None, fec: bool = True) -> tuple:
    """Feature-level convenience: quantize, lay out slices, send.

    Returns (packets, SenderReport). The receiver rebuilds the layout from
    (n_frames, gos, level), normally recorded in a manifest.
    """
    level = codec.n_layers if level is None else level
    grid = quantize(features, codec, level)
    sg = build_slice_grid(grid.n_frames, gos, level)
    return send_tokens(grid, sg, model, fec=fec)


def receive(packets, trace, codec: RvqCodec, codec_cfg: CodecConfig, model,
            gos: GosConfig, level: int, n_frames: int,
            sample_rate: int = 16000, conceal_window: int = 12,
            conceal_fine_layers: int = 2) -> tuple:
    """Audio-level convenience: filter by the delivery trace, decode,
    conceal, dequantize the usable prefixes, synthesize.

    ``conceal_window`` and ``conceal_fine_layers`` are accepted and have
    no effect: concealment reads no window, and fine cells are never
    predicted. Both are kept only because the benchmark's workloads still
    pass them; the benchmark change of ROADMAP item 1 deletes them.
    Returns (AudioSignal, TokenGrid, ReceiverReport).
    """
    packets = list(packets)
    if len(trace) != len(packets):
        raise ValueError("trace length must equal the packet count")
    survivors = [p for p, d in zip(packets, trace) if d]
    sg = build_slice_grid(n_frames, gos, level)
    grid, states, report = receive_tokens(survivors, sg, model)
    feats = dequantize(grid, codec, grid.level)
    audio = synthesize(feats, codec_cfg, sample_rate)
    return audio, grid, report

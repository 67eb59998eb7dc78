"""The transceiver core, and the batch sender and receiver built on it.

The core is shared with the streaming transceiver: ``SliceSender`` turns
coarse slices into bit-packed packets with chained repair copies and fine
slices into range-coded packets priced by model PMFs, keeping the sender's
bit accounting; ``admit`` decides which arrived packet fills which slice,
the one claim rule of both receivers, each of which passes only its own
geometry; ``place_coarse`` writes the admitted coarse slices and their
repair copies; ``decode_fine`` decodes a fine slice from its first copy
that decodes, once the coarse cells it was coded against are bit-exact;
``conceal`` holds the last usable frame through a coarse blackout and
otherwise predicts the lost coarse cells; a lost or invalid fine cell is
never guessed and ends its frame's usable depth. A packet the receiver
cannot place or read is dropped and counted, as if lost. Both ends of a
fine slice take its ``Conditions``, from which the coding view, the
decoding view and the decode gate all derive. No fine slice waits on
another, so each end prices all the fine slices it handles in one model
query, and the batch receiver conceals every window of a clip in one
more. The encode level is stated once, in the receiver's initial states
(INVALID from the level up); which cells can be trusted then follows
from the states by the one prefix rule in ``dependency``.

Every clip of one layout shares one plan of it, built on the first clip
and memoized like the layout itself (``build_slice_grid``): each slice's
packet head, the map from a head back to its cells and its coarse
predecessor's, each fine slice's ``Conditions``, and one coding query
over all fine slices. A clip binds that query to its own tokens
(``MaskedQuery.over``), so neither end rebuilds any of it per clip.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .audio import CodecConfig, synthesize
from .context import PMF_TOTAL, MaskedQuery
from .dependency import (build_conceal_mask, build_windows, classify_loss,
                         decodable, propagate_invalid, slice_conditions,
                         usable_depth)
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
    n_windows: int
    n_blackouts: int


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

    def fine(self, query: MaskedQuery, heads) -> list:
        """Range-code the fine slices of ``query``, one per view, priced
        in one model query; returns their packets, under ``heads``."""
        rep = self.report
        cum, fallbacks = self.model.pmf(query)
        targets = query.targets
        cum_lo, freq = code_ranges(
            cum, query.tokens[targets[:, 0], targets[:, 1]])
        per_layer = rep.per_layer_ideal_bits
        for k, f in zip(targets[:, 1].tolist(), freq):
            b = -math.log2(f / PMF_TOTAL)
            rep.ideal_fine_bits += b
            per_layer[k] = per_layer.get(k, 0.0) + b
        for fb, n in Counter(fallbacks).items():
            rep.fallback_counts[fb] = rep.fallback_counts.get(fb, 0) + n
        packets = []
        bounds = query.bounds
        for head, a, b in zip(heads, bounds, bounds[1:]):
            coded = encode_symbols(cum_lo[a:b], freq[a:b])
            rep.n_fine_packets += 1
            rep.fine_bits += len(coded.payload) * 8
            rep.n_fine_tokens += b - a
            packets.append(self._packet(head, coded.payload))
        return packets


def decode_fine(model, query: MaskedQuery, states: np.ndarray,
                slices: list) -> int:
    """Decode, in place into ``query.tokens``, the fine slices of
    ``query``, one per view, given as (copies, Conditions) pairs, where
    ``copies`` holds the slice's arrived payloads in arrival order.

    Conditions name coarse cells only, which decoding never changes. A
    slice whose conditions are not all RECEIVED becomes INVALID and reads
    none of its copies. Otherwise the first copy that decodes fills it,
    and a slice none of whose copies decodes keeps its cells LOST, like a
    drop. The query is priced once and each ready slice reads its own
    rows. Returns how many copies filled nothing: all but one of an
    INVALID slice's, which count as duplicates, and every other copy that
    did not fill its slice.
    """
    bounds, targets = query.bounds, query.targets
    ready, invalid = [], []
    n_dropped = 0
    gate: dict = {}  # one check per distinct Conditions
    for i, (copies, cond) in enumerate(slices):
        ok = gate.get(cond)
        if ok is None:
            ok = gate[cond] = decodable(states, cond)
        if not ok:
            invalid.append(targets[bounds[i]:bounds[i + 1]])
            n_dropped += max(len(copies) - 1, 0)
        elif copies:
            ready.append((copies, bounds[i], bounds[i + 1]))
    if invalid:
        cells = np.concatenate(invalid)
        states[cells[:, 0], cells[:, 1]] = _I
    if not ready:
        return n_dropped
    cum, _ = model.pmf(query)
    done, syms = [], []
    for copies, a, b in ready:
        for payload in copies:
            try:
                syms += decode_symbols(CodedSlice(payload, b - a), cum[a:b])
            except DecodeError:
                continue
            done.append(targets[a:b])
            n_dropped += len(copies) - 1
            break
        else:
            n_dropped += len(copies)
    if done:
        cells = np.concatenate(done)
        query.tokens[cells[:, 0], cells[:, 1]] = syms
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
    one; a fine payload can be read only against its conditions, so every
    fine copy is kept for ``decode_fine``, which tries them in arrival
    order. Returns (``place_coarse`` links, {head: fine payloads in
    arrival order}, how many packets were dropped).
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

    The values are written in one scatter.
    Then an open predecessor cell not RECEIVED takes the repair copy, if
    it unpacks into ``vocab``. Links name distinct predecessors, so one
    read of all their states tells which copies are needed. Returns how
    many repair copies were used."""
    if not links:
        return 0
    cells = np.concatenate([c for c, _, _, _ in links])
    vals = np.concatenate([v for _, v, _, _ in links])
    keep = cells[:, 0] >= first_open
    t, k = cells[keep].T
    tokens[t, k] = vals[keep]
    states[t, k] = _R
    copies = [(fec, prev) for _, _, fec, prev in links
              if fec and prev is not None]
    if not copies:
        return 0
    starts = np.cumsum([0] + [len(prev) for _, prev in copies[:-1]])
    t, k = np.concatenate([prev for _, prev in copies]).T
    need = (states[t, k] != _R) & (t >= first_open)
    repaired = 0
    for i in np.flatnonzero(np.logical_or.reduceat(need, starts)).tolist():
        fec, prev = copies[i]
        v = coarse_values(fec, vocab, len(prev))
        if v is not None:
            mask = need[starts[i]:starts[i] + len(prev)]
            pt, pk = prev[mask].T
            tokens[pt, pk] = v[mask]
            states[pt, pk] = _R
            repaired += 1
    return repaired


def conceal(model, tokens: np.ndarray, states: np.ndarray, jobs: list,
            n_coarse: int, level: int) -> tuple:
    """Conceal in place the damaged cells of the frames ``fill`` of each
    (window, fill) job of frame ranges; returns (how many cells were
    predicted, how many jobs were blackouts).

    In a window with no coarse cell received, every non-received cell of
    ``fill`` repeats the last fully usable frame before it (zeros without
    one). Otherwise the lost coarse cells of ``fill`` are predicted from
    the window, all jobs in one model query; damaged fine cells stay as
    they are. Predictions see RECEIVED cells only, and a hold reads the
    frames before it, so holds run last, in job order."""
    views, holds = [], []
    for win, fill in jobs:
        if not np.any(states[fill.start:fill.stop, :level] != _R):
            continue
        if not np.any(states[win.start:win.stop, :n_coarse] == _R):
            holds.append(fill)
            continue
        targets = classify_loss(states, fill, n_coarse)
        if len(targets):
            views.append(build_conceal_mask(targets, states, win))
    n_predicted = 0
    if views:
        query = MaskedQuery(tokens, views)
        cells = query.targets
        tokens[cells[:, 0], cells[:, 1]] = model.predict(query)
        states[cells[:, 0], cells[:, 1]] = _C
        n_predicted = len(cells)
    for fill in holds:
        usable = np.flatnonzero(usable_depth(states[:fill.start]) == level)
        cut = (slice(fill.start, fill.stop), slice(0, level))
        hole = states[cut] != _R
        tokens[cut] = np.where(hole, tokens[usable[-1], :level]
                               if len(usable) else 0, tokens[cut])
        states[cut][hole] = _C
    return n_predicted, len(holds)


class _Layout(NamedTuple):
    """What both batch ends derive from one slice layout, once."""

    slices: tuple   # (packet head, cells) per slice, in emission order
    by_head: dict   # packet head -> (cells, coarse predecessor's or None)
    fine: tuple     # (packet head, Conditions) per view of ``query``
    query: MaskedQuery | None  # coding query of all fine slices


@functools.lru_cache(maxsize=64)
def _layout(sg: SliceGrid) -> _Layout:
    """The plan of layout ``sg``; ``query`` is built over read-only zeros
    and bound to each clip's tokens with ``MaskedQuery.over``."""
    conditions = slice_conditions(sg)
    slices, by_head, fine, views = [], {}, [], []
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
            cond = conditions[frames[0]]
            fine.append((head, cond))
            views.append(cond.view(cells))
    zeros = np.broadcast_to(np.int32(0), (sg.n_frames, sg.n_layers))
    query = MaskedQuery(zeros, views) if views else None
    return _Layout(tuple(slices), by_head, tuple(fine), query)


def send_tokens(grid: TokenGrid, sg: SliceGrid, model,
                fec: bool = True) -> tuple:
    """Encode a uniformly quantized grid into packets.

    Packets come out in the layout's slice order: within each
    group-of-slices the coarse slices, then the fine slices, each coded
    against the coarse layers of its group-of-slices. Every coarse packet
    after the first carries a packed copy of its predecessor when ``fec``
    is on.
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
    fine = iter(tx.fine(plan.query.over(tokens),
                        [head for head, _ in plan.fine])
                if plan.query else ())
    return [tx.coarse(head, tokens[cells[:, 0], cells[:, 1]])
            if head[0] == 0 else next(fine)
            for head, cells in plan.slices], tx.report


def receive_tokens(packets, sg: SliceGrid, model,
                   conceal_window: int = 12) -> tuple:
    """Decode arrived packets back into a (grid, states, report) triple.

    ``admit`` places the packets against the layout's heads: one that
    names no slice of the layout, a copy of one already filled, or one
    whose payload cannot be read is dropped and counted, as if lost, and
    so is a None in ``packets``, which stands for a packet that arrived
    but did not parse (see ``transport.read_packets``). Fine slices
    decode, all in one call, only once the coarse cells they were coded
    against are bit-exact; anything else is marked lost or invalid.
    Windowed concealment then predicts the lost coarse cells and holds
    blackouts. The grid's level is the per-frame usable depth.
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
    if plan.query:
        n_dropped += decode_fine(
            model, plan.query.over(tokens), states,
            [(fine.get(head, ()), cond) for head, cond in plan.fine])

    propagate_invalid(states)

    windows = build_windows(states, sg.level, conceal_window)
    n_predicted, n_blackouts = conceal(
        model, tokens, states, [(w, w) for w in windows], sg.gos.n_coarse,
        sg.level)

    grid = TokenGrid(tokens, usable_depth(states), vocab)
    names = {_R: "received", int(TokenState.LOST): "lost",
             _I: "invalid", _C: "concealed"}
    encoded = states[:, :sg.level]
    state_counts = {name: int(np.count_nonzero(encoded == code))
                    for code, name in names.items()}
    return grid, states, ReceiverReport(
        n_frames=T, level=sg.level, n_packets_seen=len(packets),
        n_dropped=n_dropped, fec_recovered=fec_recovered,
        state_counts=state_counts, n_predicted=n_predicted,
        n_windows=len(windows), n_blackouts=n_blackouts)


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

    ``conceal_fine_layers`` is accepted and has no effect: fine cells are
    never predicted. Returns (AudioSignal, TokenGrid, ReceiverReport).
    """
    packets = list(packets)
    if len(trace) != len(packets):
        raise ValueError("trace length must equal the packet count")
    survivors = [p for p, d in zip(packets, trace) if d]
    sg = build_slice_grid(n_frames, gos, level)
    grid, states, report = receive_tokens(
        survivors, sg, model, conceal_window=conceal_window)
    feats = dequantize(grid, codec, grid.level)
    audio = synthesize(feats, codec_cfg, sample_rate)
    return audio, grid, report

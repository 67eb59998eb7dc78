"""The transceiver core, and the batch sender and receiver built on it.

The core is shared with the streaming transceiver: ``SliceSender`` turns
coarse slices into bit-packed packets with chained repair copies and fine
slices into range-coded packets priced by model PMFs, keeping the sender's
bit accounting; ``place_coarse`` writes coarse packets and their repair
copies; ``decode_fine`` decodes a fine slice once the coarse cells it was
coded against are bit-exact; ``conceal`` holds the last usable frame
through a coarse blackout and otherwise predicts the lost coarse cells; a
lost or invalid fine cell is never guessed and ends its frame's usable
depth. A packet the receiver cannot place or read is dropped and counted,
as if lost. Both ends of a fine slice take its ``Conditions``, from which
the coding view, the decoding view and the decode gate all derive. No
fine slice waits on another, so each end prices all the fine slices it
handles in one model query, and the batch receiver conceals every window
of a clip in one more. The encode level is stated once, in the receiver's
initial states (INVALID from the level up); which cells can be trusted
then follows from the states by the one prefix rule in ``dependency``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    case_counts: dict
    n_windows: int
    n_blackouts: int
    valid_depth: np.ndarray


def _packet_extent(cells: np.ndarray) -> tuple:
    """(first frame, number of frames) of cells sorted by frame."""
    frames = cells[:, 0].tolist()
    return frames[0], len(set(frames))


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

    def fine(self, tokens: np.ndarray, slices: list) -> list:
        """Range-code fine slices, given as (head, cells, Conditions)
        triples, priced in one model query; returns their packets."""
        if not slices:
            return []
        rep = self.report
        query = MaskedQuery(tokens, [cond.view(cells)
                                     for _, cells, cond in slices])
        cum, fallbacks = self.model.pmf(query)
        targets = query.targets
        cum_lo, freq = code_ranges(
            cum, tokens[targets[:, 0], targets[:, 1]])
        per_layer = rep.per_layer_ideal_bits
        for k, f in zip(targets[:, 1].tolist(), freq):
            b = -math.log2(f / PMF_TOTAL)
            rep.ideal_fine_bits += b
            per_layer[k] = per_layer.get(k, 0.0) + b
        for fb in fallbacks:
            rep.fallback_counts[fb] = rep.fallback_counts.get(fb, 0) + 1
        packets = []
        a = 0
        for head, cells, _ in slices:
            coded = encode_symbols(cum_lo[a:a + len(cells)],
                                   freq[a:a + len(cells)])
            a += len(cells)
            rep.n_fine_packets += 1
            rep.fine_bits += len(coded.payload) * 8
            rep.n_fine_tokens += len(cells)
            packets.append(self._packet(head, coded.payload))
        return packets


def decode_fine(model, tokens: np.ndarray, states: np.ndarray,
                slices: list) -> int:
    """Decode, in place, fine slices given as (cells, payload or None,
    Conditions) triples, priced in one model query.

    Conditions name coarse cells only, which decoding never changes. A
    slice whose conditions are not all RECEIVED becomes INVALID. A missing
    payload, or one that does not decode, leaves its cells LOST, like a
    drop. Returns how many payloads did not decode.
    """
    ready, invalid = [], []
    gate: dict = {}  # one check per distinct Conditions
    for cells, payload, cond in slices:
        ok = gate.get(cond)
        if ok is None:
            ok = gate[cond] = decodable(states, cond)
        if not ok:
            invalid.append(cells)
        elif payload is not None:
            ready.append((cells, payload, cond))
    if invalid:
        cells = np.concatenate(invalid)
        states[cells[:, 0], cells[:, 1]] = _I
    if not ready:
        return 0
    cum, _ = model.pmf(MaskedQuery(tokens, [cond.view(cells)
                                            for cells, _, cond in ready]))
    done, syms = [], []
    a = 0
    for cells, payload, _ in ready:
        rows = cum[a:a + len(cells)]
        a += len(cells)
        try:
            syms += decode_symbols(CodedSlice(payload, len(cells)), rows)
        except DecodeError:
            continue
        done.append(cells)
    if done:
        cells = np.concatenate(done)
        tokens[cells[:, 0], cells[:, 1]] = syms
        states[cells[:, 0], cells[:, 1]] = _R
    return len(ready) - len(done)


def _unpack_coarse(data: bytes, vocab: int, count: int):
    """``count`` tokens in ``data``, or None unless all are in ``vocab``."""
    try:
        vals = unpack_bits(data, token_bits(vocab), count)
    except DecodeError:
        return None
    return vals if int(vals.max(initial=0)) < vocab else None


def place_coarse(tokens: np.ndarray, states: np.ndarray, links: list,
                 vocab: int, first_open: int) -> tuple:
    """Write, in place, coarse packets given as (cells, packet, cells of
    its predecessor or None) links; frames before ``first_open`` are final.

    A packet whose payload does not unpack into ``vocab`` is dropped with
    its repair copy; the rest are written in one scatter. Then an open
    predecessor cell not RECEIVED takes the repair copy, if it unpacks.
    Links name distinct predecessors, so one read of all their states
    tells which copies are needed. Returns (repair copies used, packets
    dropped)."""
    copies, cells, vals = [], [], []
    for c, p, prev in links:
        v = _unpack_coarse(p.payload, vocab, len(c))
        if v is not None:
            cells.append(c)
            vals.append(v)
            if p.fec and prev is not None:
                copies.append((p.fec, prev))
    n_dropped = len(links) - len(cells)
    if cells:
        cells, vals = np.concatenate(cells), np.concatenate(vals)
        keep = cells[:, 0] >= first_open
        t, k = cells[keep].T
        tokens[t, k] = vals[keep]
        states[t, k] = _R
    if not copies:
        return 0, n_dropped
    starts = np.cumsum([0] + [len(prev) for _, prev in copies[:-1]])
    t, k = np.concatenate([prev for _, prev in copies]).T
    need = (states[t, k] != _R) & (t >= first_open)
    repaired = 0
    for i in np.flatnonzero(np.logical_or.reduceat(need, starts)).tolist():
        fec, prev = copies[i]
        v = _unpack_coarse(fec, vocab, len(prev))
        if v is not None:
            mask = need[starts[i]:starts[i] + len(prev)]
            pt, pk = prev[mask].T
            tokens[pt, pk] = v[mask]
            states[pt, pk] = _R
            repaired += 1
    return repaired, n_dropped


def conceal(model, tokens: np.ndarray, states: np.ndarray, jobs: list,
            n_coarse: int, level: int, case_counts: dict) -> int:
    """Conceal in place the damaged cells of the frames ``fill`` of each
    (ConcealmentWindow, fill) job; returns how many were blackouts.

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
        if targets:
            views.append(build_conceal_mask(targets, states, win))
            for _, _, case in targets:
                case_counts[int(case)] = case_counts.get(int(case), 0) + 1
    if views:
        query = MaskedQuery(tokens, views)
        cells = query.targets
        tokens[cells[:, 0], cells[:, 1]] = model.predict(query)
        states[cells[:, 0], cells[:, 1]] = _C
    for fill in holds:
        usable = np.flatnonzero(usable_depth(states[:fill.start]) == level)
        cut = (slice(fill.start, fill.stop), slice(0, level))
        hole = states[cut] != _R
        tokens[cut] = np.where(hole, tokens[usable[-1], :level]
                               if len(usable) else 0, tokens[cut])
        states[cut][hole] = _C
    return len(holds)


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

    tx = SliceSender(model, fec)
    conditions = slice_conditions(sg)
    fine = iter(tx.fine(grid.tokens, [
        ((sid.group, *_packet_extent(cells)), cells,
         conditions[int(cells[0, 0])])
        for sid, cells in sg.slices.items() if sid.group > 0]))
    packets = []
    for sid, cells in sg.slices.items():
        if sid.group == 0:
            vals = grid.tokens[cells[:, 0], cells[:, 1]]
            packets.append(tx.coarse((0, *_packet_extent(cells)), vals))
        else:
            packets.append(next(fine))
    return packets, tx.report


def receive_tokens(packets, sg: SliceGrid, model,
                   conceal_window: int = 12) -> tuple:
    """Decode arrived packets back into a (grid, states, report) triple.

    A packet that names no slice of the layout or one already filled, or
    whose payload cannot be read, is dropped and counted, as if lost, and
    so is a None in ``packets``, which stands for a packet that arrived
    but did not parse (see ``transport.read_packets``). Fine
    slices decode, all in one call, only once the coarse cells they were
    coded against are bit-exact; anything else is marked lost or invalid.
    Windowed concealment then predicts the lost coarse cells and holds
    blackouts. The grid's level is the per-frame usable depth.
    """
    vocab = model.vocab
    T, K = sg.n_frames, sg.n_layers
    tokens = np.zeros((T, K), dtype=np.int32)
    states = initial_states(T, K, sg.level)

    extents = {}  # (group, first frame) -> (slice, its frame count)
    for sid, cells in sg.slices.items():
        first_frame, n_frames = _packet_extent(cells)
        extents[sid.group, first_frame] = sid, n_frames
    by_sid: dict = {}
    n_dropped = 0
    for p in packets:
        if p is None:
            n_dropped += 1
            continue
        sid, n_frames = extents.get((p.group, p.first_frame), (None, 0))
        if p.n_frames != n_frames or sid in by_sid:
            n_dropped += 1
        else:
            by_sid[sid] = p

    coarse = [sid for sid in sg.slices if sid.group == 0]
    fec_recovered, dropped = place_coarse(tokens, states, [
        (sg.slices[sid], by_sid[sid], sg.slices[coarse[i - 1]] if i else None)
        for i, sid in enumerate(coarse) if sid in by_sid], vocab, 0)

    conditions = slice_conditions(sg)
    n_dropped += dropped + decode_fine(model, tokens, states, [
        (cells, by_sid[sid].payload if sid in by_sid else None,
         conditions[int(cells[0, 0])])
        for sid, cells in sg.slices.items() if sid.group > 0])

    propagate_invalid(states)

    windows = build_windows(states, sg.level, conceal_window)
    case_counts: dict = {}
    n_blackouts = conceal(
        model, tokens, states, [(w, range(w.start, w.stop)) for w in windows],
        sg.gos.n_coarse, sg.level, case_counts)

    depth = usable_depth(states)
    grid = TokenGrid(tokens, depth, vocab)
    names = {_R: "received", int(TokenState.LOST): "lost",
             _I: "invalid", _C: "concealed"}
    encoded = states[:, :sg.level]
    state_counts = {name: int(np.count_nonzero(encoded == code))
                    for code, name in names.items()}
    return grid, states, ReceiverReport(
        n_frames=T, level=sg.level, n_packets_seen=len(packets),
        n_dropped=n_dropped, fec_recovered=fec_recovered,
        state_counts=state_counts, case_counts=case_counts,
        n_windows=len(windows), n_blackouts=n_blackouts,
        valid_depth=depth.copy())


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

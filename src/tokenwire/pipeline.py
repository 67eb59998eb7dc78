"""The transceiver core, and the batch sender and receiver built on it.

The core is shared with the streaming transceiver, one path per end.
``SliceSender.send`` turns every slice a plan sends into a packet,
reading the plan's send map, compiled once per plan (``send_map``): a
coarse slice is bit-packed and carries its predecessor's payload as a
repair copy, and a fine slice is range-coded, each fine token priced by
its layer's row of the model's table (``layer_pmf``), read from the
row's list in the table's compiled form (``decoder``). ``decode`` looks
each arrived packet up in its receiver's map from packet heads to
slices, the one claim rule of both receivers, each of which passes only
its own geometry, compiled once per plan (``head_map``). It reads every
slice from the first of its copies that reads, a fine one through the
coded rows' lists in the model's compiled table, writing only cells not
yet received, and a repair copy is one more copy of its predecessor:
only the filling copy's is read, and only where the predecessor did not
arrive. ``finalize`` applies the prefix rule in one scan of the frames'
state bytes, one byte a cell and RECEIVED the zero byte: a frame is
usable up to its first cell not RECEIVED, the end of its run of leading
zero bytes, every cell above that one is cut, and that cell takes its
layer's most probable token when it is a lost coarse cell; a lost or
invalid fine cell is never guessed. Only the frames it changes are
written back, in one write. A packet the receiver cannot place or read,
or that fills nothing, is dropped and counted, as if lost. No slice is coded
against another cell, and no concealed cell reads another, so neither
waits on anything: each end prices all the fine slices it handles at
once, and finalizes all the frames it releases in one call. The encode
level is stated once, in the receiver's initial states (INVALID from
the level up), so no usable depth passes it.

Both ends of both modes read one kind of plan, ``Plan``, and one
function builds every plan (``build_plan``): from a batch layout's
slices, or from a stream step's coarse runs and its fine one, it
derives each slice's packet head and its coarse predecessor, the slice
before it in the repair chain, and compiles both ends' halves of it
once: the map from a head back to its cells and its predecessor's, as
the flat state indices, spans and layers that ``decode`` reads, and the
sent cells in emission order, as the flat token indices, slice spans
and fine layers that ``send`` reads. Every clip of one layout shares
one plan of it, built on the first clip and memoized like the layout
itself (``build_slice_grid``), so neither end rebuilds any of it per
clip. ``send`` then reads a clip's or step's tokens in one ``take``,
checks them against the vocabulary in one reduction, prices its fine
cells in one ``layer_pmf``, reading each one's interval from its row's
list in the model's compiled table (``decoder``) in the Python pass that
sums the ideal bits, and packs each coarse slice from a slice of one
list. ``decode`` reads the plan's states once, finds the slices with an
open cell in one ``reduceat``, loops over the arrived heads only, and
writes the cells it read in one ``put``; its repair pass finds the
predecessors still open in one more ``reduceat`` and reads only their
repair copies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import accumulate, compress
from typing import NamedTuple

import numpy as np

from .audio import CodecConfig, synthesize
from .context import FALLBACKS, PMF_TOTAL, Targets
from .errors import DecodeError
from .grid import (GosConfig, SliceGrid, TokenGrid, TokenState, _read_only,
                   build_slice_grid, initial_states, outside_range)
from .rangecoder import CodedSlice, decode_symbols, encode_symbols
from .rvq import RvqCodec, dequantize, quantize
from .transport import Packet, pack_bits, token_bits, unpack_bits

_R = int(TokenState.RECEIVED)
_L = int(TokenState.LOST)
_I = int(TokenState.INVALID)
_C = int(TokenState.CONCEALED)
# one cell's state byte, as ``finalize`` reads and writes it
_I_BYTE, _C_BYTE = bytes([_I]), bytes([_C])
# the report's name of each state, by its code
_STATE_NAMES = tuple(state.name.lower() for state in TokenState)


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
    n_dropped: int  # packets that arrived but were not placed, read or used
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

    Turns the slices a plan sends into packets, in emission order, from
    the plan's send map, compiled with the plan, so no call gathers or
    concatenates a slice's cells. Chains each coarse packet's repair copy
    to its predecessor when ``fec`` is on (across calls, so a stream's
    steps chain too), and keeps the ``SenderReport``. A packet's
    ``head`` is its (group, first_frame, n_frames). The report charges
    each packet's own ``Packet.header_bytes`` to ``header_bits``, which
    varies with the header's varint fields, so ``total_bits`` is exactly
    eight times the packets' serialised length.
    """

    def __init__(self, model, fec: bool = True):
        self.model = model
        self.fec = fec
        self.width = token_bits(model.vocab)
        self.report = SenderReport()
        self._prev_coarse: bytes | None = None

    def send(self, tokens: np.ndarray, plan: Plan, base: int = 0) -> list:
        """Packets of the slices ``plan`` sends, cut from ``tokens``, in
        emission order, each head's first frame and each cell's row
        counted from frame ``base``. The plan's send map (``send_map``)
        names every sent cell, so the tokens are read in one ``take``,
        and one check over them refuses a token outside the model's
        vocabulary, coarse or fine. A coarse slice (group 0) is
        bit-packed and carries the previous coarse payload as repair.
        Every fine token is priced by its layer's row, all rows in one
        ``layer_pmf``, its interval read from the row's list of the
        model's compiled table (``decoder``) in the pass that sums its
        ideal bits, and each fine slice is range-coded on its own."""
        rep, sends, model = self.report, plan.sends, self.model
        taken = tokens.take(sends.flat)
        if outside_range(taken, model.vocab):
            raise ValueError("token outside vocabulary")
        values = taken.tolist()
        n_fine = len(sends.layers)
        if n_fine:
            _, rows, kinds = model.layer_pmf(sends.layers)
            table = model.decoder.cum
            cum_lo, freq = [], []
            per_layer, ideal = rep.per_layer_ideal_bits, rep.ideal_fine_bits
            # the fine tokens lead the sent ones
            for k, r, v in zip(sends.layers.tolist(), rows.tolist(), values):
                row = table[r]
                c = row[v]
                f = row[v + 1] - c
                cum_lo.append(c)
                freq.append(f)
                b = -math.log2(f / PMF_TOTAL)
                ideal += b
                per_layer[k] = per_layer.get(k, 0.0) + b
            rep.ideal_fine_bits = ideal
            for fb, n in zip(FALLBACKS, np.bincount(kinds).tolist()):
                if n:
                    rep.fallback_counts[fb] = (rep.fallback_counts.get(fb, 0)
                                               + n)
            rep.n_fine_tokens += n_fine
        rep.n_coarse_tokens += len(values) - n_fine
        packets = []
        for group, first, n_frames, a, b in sends.slices:
            if group:
                payload = encode_symbols(cum_lo[a:b], freq[a:b]).payload
                fec_field = b""
                rep.n_fine_packets += 1
                rep.fine_bits += len(payload) * 8
            else:
                payload = pack_bits(values[a:b], self.width)
                fec_field = (self._prev_coarse if self.fec
                             and self._prev_coarse is not None else b"")
                self._prev_coarse = payload
                rep.n_coarse_packets += 1
                rep.coarse_bits += len(payload) * 8
                rep.fec_bits += len(fec_field) * 8
            packet = Packet(group, first + base, n_frames, payload,
                            fec_field)
            rep.n_packets += 1
            rep.header_bits += packet.header_bytes * 8
            packets.append(packet)
        return packets


def coarse_values(payload: bytes, vocab: int, count: int):
    """The list of the ``count`` tokens packed in a coarse payload, or
    None unless it holds that many and all are in ``vocab``."""
    width = token_bits(vocab)
    try:
        vals = unpack_bits(payload, width, count)
    except DecodeError:
        return None
    # every width-bit value is a token when vocab is a power of two
    if vocab == 1 << width or max(vals, default=0) < vocab:
        return vals
    return None


class HeadMap(NamedTuple):
    """A receiver's geometry compiled for ``decode`` once per plan
    (``head_map``). Its cells are every slice's, then every coarse
    predecessor's, in one run: ``flat`` holds each one's ``t * n_layers +
    k``, rows counted from the receiver's base, ``cells`` the same as a
    list, ``live`` whether its row is 0 or above, and ``layers`` its
    layer; ``starts`` is where each slice, then each predecessor, begins.
    ``spans`` maps each head to its slice's number in ``starts``, its
    (start, stop) in the run, and its predecessor's (number, start, stop)
    or None."""

    spans: dict
    flat: np.ndarray
    cells: list
    live: np.ndarray
    starts: np.ndarray
    layers: np.ndarray


def head_map(by_head: dict, n_layers: int) -> HeadMap:
    """Compile a receiver's map from each head it can place to its
    slice's cells and its coarse predecessor's, or None, rows counted from
    the receiver's base, for ``decode`` on states of ``n_layers``
    columns. A predecessor's cells come again after every slice's, even
    where it is a slice of the map too, so that each repair copy reads
    one span of its own."""
    prevs = [prev for _, prev in by_head.values() if prev is not None]
    runs = [cells for cells, _ in by_head.values()] + prevs
    bounds = list(accumulate(map(len, runs), initial=0))
    spans, p = {}, len(by_head)
    for i, (head, (_, prev)) in enumerate(by_head.items()):
        spans[head] = i, bounds[i], bounds[i + 1], (
            None if prev is None else (p, bounds[p], bounds[p + 1]))
        p += prev is not None
    t, k = np.concatenate(runs or [np.zeros((0, 2), np.int64)]).T
    flat = _read_only(t * n_layers + k)
    return HeadMap(spans, flat, flat.tolist(), _read_only(t >= 0),
                   _read_only(np.array(bounds[:-1])), _read_only(k))


def decode(model, tokens: np.ndarray, states: np.ndarray, packets,
           heads: HeadMap, base: int = 0) -> tuple:
    """Fill, in place, the slices that ``packets`` name: the one claim
    and read rule of both receivers.

    ``heads`` is the receiver's own geometry, compiled once per plan
    (``head_map``): each head it can place, (group, first frame less
    ``base``, n_frames), names a slice's cells and its coarse
    predecessor's, rows counted from ``base``; a row below 0 is a frame
    before a stream receiver's window. Any other packet, or a None, which
    stands for one that arrived but did not parse
    (``transport.read_packets``), is dropped and counted.

    Only open cells are written: rows from 0 on not yet RECEIVED. Every
    copy of a slice with none is dropped. Any other slice takes the
    first of its copies that reads: a coarse payload that unpacks into
    the vocabulary (``coarse_values``), or a fine one that range-decodes
    through the model's compiled table, every arrived fine cell priced by
    its layer's row in one ``layer_pmf``. Its other copies are dropped.
    The open cells of the copies read are gathered as lists of cells and
    values, a whole slice's at once where all its cells are open, and
    written in one ``put`` per array. Then an open predecessor cell takes
    the repair copy of the copy that filled its successor, if it unpacks;
    no other copy's repair is read. Slices name distinct cells and
    predecessors, so one read of the plan's states tells which cells are
    open, and how many of each slice's, and, where a filling copy's
    predecessor had one, one more which of them are still open; only a
    predecessor still holding one has its repair copy unpacked. Returns
    (how many packets were dropped, how many repair copies were
    used)."""
    spans, copies, n_dropped = heads.spans, {}, 0
    for p in packets:
        head = None if p is None else (p.group, p.first_frame - base,
                                       p.n_frames)
        if head in spans:
            copies.setdefault(head, []).append((p.payload, p.fec))
        else:
            n_dropped += 1
    if not copies:
        return n_dropped, 0
    flat, cell_list = heads.flat, heads.cells
    # a row below 0 clips to a real cell, whose state the mask ignores
    is_open = heads.live & (states.take(flat, mode="clip") != _R)
    n_open = np.add.reduceat(is_open, heads.starts).tolist()
    open_list = None  # is_open as a list, once a slice is partly open
    fine = [spans[head] for head in copies if head[0]]
    if fine:
        rows = model.layer_pmf(np.concatenate(
            [heads.layers[a:b] for _, a, b, _ in fine]))[1].tolist()
        table = model.decoder
    vocab = model.vocab
    cells, got, repairs = [], [], []  # the open cells read, their values
    o = 0  # the next arrived fine cell's position in ``rows``
    for head, found in copies.items():
        i, a, b, prev = spans[head]
        n = b - a
        # a slice with no open cell reads none of its copies
        for payload, fec in found if n_open[i] else ():
            if head[0]:
                try:
                    vals = decode_symbols(CodedSlice(payload, n), table,
                                          rows[o:o + n])
                except DecodeError:
                    continue
            else:
                vals = coarse_values(payload, vocab, n)
                if vals is None:
                    continue
            if n_open[i] == n:
                cells.extend(cell_list[a:b])
                got.extend(vals)
            else:
                if open_list is None:
                    open_list = is_open.tolist()
                cells.extend(compress(cell_list[a:b], open_list[a:b]))
                got.extend(compress(vals, open_list[a:b]))
            # a predecessor with no open cell needs no repair
            if fec and prev is not None and n_open[prev[0]]:
                repairs.append((fec, prev))
            n_dropped += len(found) - 1
            break
        else:
            n_dropped += len(found)
        if head[0]:
            o += n
    tokens.put(cells, got)
    states.put(cells, _R)
    if not repairs:
        return n_dropped, 0
    # a predecessor's cell still open once the slices are filled, and
    # the predecessors that hold one
    need = is_open & (states.take(flat, mode="clip") != _R)
    still = np.logical_or.reduceat(need, heads.starts).tolist()
    repaired = 0
    for fec, (i, a, b) in repairs:
        if still[i]:
            v = coarse_values(fec, vocab, b - a)
            if v is not None:
                mask = need[a:b]
                cells = flat[a:b][mask]
                tokens.put(cells, np.array(v, dtype=tokens.dtype)[mask])
                states.put(cells, _R)
                repaired += 1
    return n_dropped, repaired


def finalize(model, tokens: np.ndarray, states: np.ndarray, frames: range,
             n_coarse: int) -> tuple:
    """Apply the prefix rule to ``frames``, in place, in one scan of their
    state bytes; returns (how many cells were concealed, each frame's
    usable depth).

    Later layers refine the residual left by earlier ones, so a frame is
    usable up to its first cell not RECEIVED, and every cell above that
    one is marked INVALID, delivered or not. Where the first failing cell
    is a LOST coarse cell, it takes its layer's most probable token, all
    in one ``predict``, and is marked CONCEALED. A lost or invalid fine
    cell is never guessed: left out, it costs less than a guess. The
    usable depth counts the first failing cell too when it ends
    CONCEALED, now or on arrival. The receiver's states start INVALID
    from the encode level up, so no depth passes the level. A frame's
    result reads nothing but its own states, so finalizing frames in one
    call or in any run of consecutive chunks gives the same cells.

    ``states`` must be int8, one byte per cell. RECEIVED is 0, so a
    frame's received prefix is its run of leading zero bytes, and one
    Python pass over the frames' bytes, ``states[frames].tobytes()`` cut
    into one bytes object a frame, finds each frame's depth and first
    failing cell. Frames with the same bytes share one reading, so a
    clip of mostly whole frames reads few. Only a frame that conceals a
    cell or holds a cell not INVALID above its first failing one is
    written back, all such frames in one write. A batch clip and a
    stream step take this one path: at a step's few frames the pass
    costs less than the per-call overhead of the dozen or so numpy
    calls that a vectorized rule makes."""
    if states.dtype != np.int8:
        raise TypeError(f"finalize reads one byte per state: states must "
                        f"be int8, not {states.dtype}")
    start = frames.start
    block = states[start:frames.stop]
    n = block.shape[1]
    # each frame's state bytes, one bytes object a frame
    rows = np.frombuffer(block.tobytes(), dtype=f"V{n}").tolist()
    invalid = _I_BYTE * n
    depth, fixed, lost = {}, {}, {}
    for row in set(rows):  # frames with the same states share a result
        rest = row.lstrip(b"\0")
        d = n - len(rest)
        # the first failing cell on, bar the INVALID cells at its top
        tail = rest.rstrip(_I_BYTE)
        if not tail:  # received in full, or INVALID from the first failure
            depth[row] = d
        elif tail[0] == _L and d < n_coarse:
            lost[row], depth[row] = d, d + 1
            fixed[row] = row[:d] + _C_BYTE + invalid[d + 1:]
        else:
            depth[row] = d + (tail[0] == _C)
            if len(tail) > 1:  # a cell not INVALID above the failure
                fixed[row] = row[:d + 1] + invalid[d + 1:]
    cells = []
    if fixed:
        moved = [t for t, row in enumerate(rows) if row in fixed]
        new = b"".join([fixed[rows[t]] for t in moved])
        block[moved] = np.frombuffer(new, dtype=np.int8).reshape(-1, n)
        cells = [(start + t, lost[rows[t]]) for t in moved if rows[t] in lost]
    if cells:
        cells = np.array(cells, dtype=np.int64)
        tokens[cells[:, 0], cells[:, 1]] = model.predict(Targets(cells))
    return len(cells), np.array([depth[row] for row in rows], dtype=np.int16)


class SendMap(NamedTuple):
    """A sender's slices compiled for ``SliceSender.send`` once per plan
    (``send_map``). ``flat`` holds every sent cell's ``t * n_layers + k``,
    rows counted from the plan's first frame: the fine cells first, in
    emission order, then the coarse ones, in emission order; ``slices``
    each sent slice's (group, first row, n_frames, start, stop), where
    (start, stop) is its span of ``flat``; and ``layers`` the fine
    cells' layers."""

    flat: np.ndarray
    slices: tuple
    layers: np.ndarray


def send_map(slices, n_layers: int) -> SendMap:
    """Compile the (head, cells) ``slices`` a sender sends, in order, for
    ``SliceSender.send`` on tokens of ``n_layers`` columns."""
    fine = [cells for (group, _, _), cells in slices if group]
    coarse = [cells for (group, _, _), cells in slices if not group]
    n_fine = sum(map(len, fine))
    spans, fine_at, coarse_at = [], 0, n_fine
    for (group, first, n_frames), cells in slices:
        n = len(cells)
        if group:
            a, fine_at = fine_at, fine_at + n
        else:
            a, coarse_at = coarse_at, coarse_at + n
        spans.append((group, first, n_frames, a, a + n))
    t, k = np.concatenate(fine + coarse
                          or [np.zeros((0, 2), np.int64)]).T
    return SendMap(_read_only(t * n_layers + k), tuple(spans),
                   _read_only(k[:n_fine].astype(np.int64)))


class Plan(NamedTuple):
    """One receiver's geometry and one sender's slices, the same kind for
    a batch layout and a stream step (``build_plan``). Rows count from
    the plan's first frame, and so does a head's first frame; a stream
    step's earlier coarse rows may lie before it, below 0. Both ends'
    halves are compiled once per plan: ``heads`` is ``by_head`` compiled
    for ``decode`` and ``sends`` is ``slices`` compiled for
    ``SliceSender.send``, so no clip or step assembles either."""

    span: int       # rows the plan covers
    due: range      # rows it finalizes, from row 0
    slices: tuple   # (head, cells) it sends, in emission order
    by_head: dict   # head it can place -> (cells, coarse predecessor's)
    heads: HeadMap  # by_head compiled for decode
    sends: SendMap  # slices compiled for SliceSender.send


def build_plan(span: int, n_due: int, runs, n_layers: int,
               unsent: int = 0) -> Plan:
    """The plan of ``span`` rows, the first ``n_due`` of them due, whose
    slices are ``runs``, each (group, cells), in emission order; the
    first ``unsent`` of them are placed but not sent. A slice's head is
    (group, first row, number of rows), and a coarse slice's predecessor
    is the coarse slice before it, none for the first. Both halves are
    compiled here, once: the receiver's map of heads (``head_map``) and
    the sender's map of sent cells (``send_map``)."""
    slices, by_head, prev = [], {}, None
    for group, cells in runs:
        rows = cells[:, 0].tolist()
        head = (group, rows[0], len(set(rows)))
        slices.append((head, cells))
        if group:
            by_head[head] = cells, None
        else:
            by_head[head], prev = (cells, prev), cells
    sent = tuple(slices[unsent:])
    return Plan(span, range(n_due), sent, by_head,
                head_map(by_head, n_layers), send_map(sent, n_layers))


@functools.lru_cache(maxsize=64)
def _layout(sg: SliceGrid) -> Plan:
    """The plan of layout ``sg``: every frame due, every slice sent."""
    return build_plan(sg.n_frames, sg.n_frames,
                      [(sid.group, cells) for sid, cells in sg.slices.items()],
                      sg.n_layers)


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

    tx = SliceSender(model, fec)
    return tx.send(grid.tokens, _layout(sg)), tx.report


def receive_tokens(packets, sg: SliceGrid, model) -> tuple:
    """Decode arrived packets back into a (grid, states, report) triple.

    ``decode`` reads the packets against the layout's heads: one that
    names no slice of the layout, a copy of one already filled, or one
    whose payload cannot be read is dropped and counted, as if lost, and
    so is a None in ``packets``, which stands for a packet that arrived
    but did not parse (see ``transport.read_packets``). Every slice that
    arrived is read, all its fine cells priced in one call; ``finalize``
    then cuts each frame above its first missing cell and fills that
    cell with its layer's mode when it is a lost coarse cell. The grid's
    level is the per-frame usable depth.
    """
    plan = _layout(sg)
    tokens = np.zeros((plan.span, sg.n_layers), dtype=np.int32)
    states = initial_states(plan.span, sg.n_layers, sg.level)

    n_dropped, fec_recovered = decode(model, tokens, states, packets,
                                      plan.heads)

    n_predicted, depth = finalize(model, tokens, states, plan.due,
                                  sg.gos.n_coarse)

    grid = TokenGrid(tokens, depth, model.vocab)
    counts = np.bincount(states[:, :sg.level].ravel(),
                         minlength=len(_STATE_NAMES))
    return grid, states, ReceiverReport(
        n_frames=plan.span, level=sg.level, n_packets_seen=len(packets),
        n_dropped=n_dropped, fec_recovered=fec_recovered,
        state_counts=dict(zip(_STATE_NAMES, counts.tolist())),
        n_predicted=n_predicted)


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
    finalize, dequantize the usable prefixes, synthesize.

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

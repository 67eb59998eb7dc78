"""Packetization, forward error correction for coarse tokens, loss channels.

One slice travels in one packet. Coarse slices are bit-packed verbatim so
they can never suffer error propagation; fine slices carry range-coder
output. Each coarse packet may additionally carry a bit-packed copy of the
previous coarse slice, which lets the receiver ride out a single lost
coarse packet whenever its successor arrives.

A packet's bytes, in order:

- one byte: the format version in the high nibble, the flags in the low
  one: ``_FLAG_FEC`` marks a repair copy, and ``_FLAG_FINE`` a fine packet
  (``group`` 1) rather than a coarse one (``group`` 0);
- ``first_frame`` and ``n_frames``, each an unsigned LEB128 varint: seven
  value bits per byte, least significant seven first, the high bit set on
  every byte but the last, and no redundant trailing zero byte (so 0 is
  one 0x00 byte). With the fine flag they name the packet's slice by its
  group and its frames alone; the layout maps them to a slice;
- the FEC length as a varint, present only when ``_FLAG_FEC`` is set, and
  then never 0;
- the payload, then the FEC bytes. The payload has no length field: it is
  whatever the datagram holds between the header and the FEC bytes;
- a CRC-32 (zlib, little-endian) of every byte before it.

Every ``Packet`` has exactly one encoding, and ``Packet.from_bytes``
refuses anything else with ``DecodeError``.

A ``Packet`` is a validated tuple of its fields: it refuses assignment,
every way of making one checks its fields, and it compares equal to the
plain tuple of them. Nothing in the library relies on that equality:
it reads a packet by field.
"""

from __future__ import annotations

import json
import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DecodeError

# 5 is skipped: version 3 packets began with the magic b"SP", and byte
# 0's high nibble reads that 0x53 as version 5
_VERSION = 7
_FLAG_FEC = 0x01
_FLAG_FINE = 0x02
_CRC_BYTES = 4
# version byte, two one-byte varints, no FEC length, the CRC
_MIN_BYTES = 1 + 2 + _CRC_BYTES


def token_bits(vocab: int) -> int:
    """Bits needed for one token index."""
    if vocab < 2:
        raise ValueError("vocab must be at least 2")
    return (vocab - 1).bit_length()


def pack_bits(values, width: int) -> bytes:
    """Pack integers into a big-endian bitstream, MSB of each value first,
    zero-padded to whole bytes."""
    if not 1 <= width <= 16:
        raise ValueError("width out of range")
    if isinstance(values, np.ndarray):
        values = values.ravel().tolist()
    else:
        values = list(map(int, values))
    if values and (max(values) >> width or min(values) < 0):
        raise ValueError("value does not fit in width")
    acc = 0
    for v in values:
        acc = acc << width | v
    n_bits = len(values) * width
    pad = -n_bits % 8
    return (acc << pad).to_bytes((n_bits + pad) // 8, "big")


def unpack_bits(data: bytes, width: int, count: int) -> list:
    """Inverse of pack_bits, as a list of ints; trailing pad bits and
    bytes are ignored."""
    if not 1 <= width <= 16:
        raise ValueError("width out of range")
    n_bits = count * width
    if len(data) * 8 < n_bits:
        raise DecodeError("bit payload shorter than expected")
    n_bytes = -(-n_bits // 8)
    acc = int.from_bytes(data[:n_bytes], "big") >> (n_bytes * 8 - n_bits)
    mask = (1 << width) - 1
    return [acc >> s & mask for s in range(n_bits - width, -1, -width)]


def _varint_bytes(v: int) -> int:
    """Bytes of ``v`` as an unsigned LEB128 varint: seven bits a byte, and
    one byte for 0."""
    return (v.bit_length() + 6) // 7 or 1


class _PacketFields(NamedTuple):
    """A packet's fields, in order, unchecked; ``Packet`` checks them."""

    group: int
    first_frame: int
    n_frames: int
    payload: bytes
    fec: bytes = b""


class Packet(_PacketFields):
    """One slice on the wire: ``group`` 0 is coarse, 1 fine. fec, when
    present, repeats the previous coarse slice's packed tokens. A
    validated tuple: every way of making one, ``_replace`` too, checks
    its fields."""

    __slots__ = ()

    def __new__(cls, group: int, first_frame: int, n_frames: int,
                payload: bytes, fec: bytes = b""):
        if group not in (0, 1):
            raise ValueError("group must be 0 (coarse) or 1 (fine)")
        if not 0 <= first_frame < 1 << 32:
            raise ValueError("first_frame out of range")
        if not 0 < n_frames < 1 << 16:
            raise ValueError("n_frames out of range")
        if len(payload) >= 1 << 16 or len(fec) >= 1 << 16:
            raise ValueError("payload too large for one packet")
        return tuple.__new__(cls, (group, first_frame, n_frames, payload,
                                   fec))

    @classmethod
    def _make(cls, iterable) -> "Packet":
        return cls(*iterable)

    @property
    def flags(self) -> int:
        """The header's flag nibble; ``to_bytes`` writes the same bits."""
        return (_FLAG_FEC if self.fec else 0) | _FLAG_FINE * self.group

    @property
    def header_bytes(self) -> int:
        """Bytes on the wire besides the payload and FEC: the version
        byte, the varints and the CRC."""
        _, first, n_frames, _, fec = self
        n = 1 + _CRC_BYTES + _varint_bytes(first) + _varint_bytes(n_frames)
        return n + _varint_bytes(len(fec)) if fec else n

    @property
    def wire_bytes(self) -> int:
        return self.header_bytes + len(self.payload) + len(self.fec)

    def to_bytes(self) -> bytes:
        group, first, n_frames, payload, fec = self
        head = [_VERSION << 4 | (_FLAG_FEC if fec else 0) | _FLAG_FINE * group]
        for v in (first, n_frames, len(fec)) if fec else (first, n_frames):
            while v > 0x7F:
                head.append(v & 0x7F | 0x80)
                v >>= 7
            head.append(v)
        body = bytes(head) + payload + fec
        return body + zlib.crc32(body).to_bytes(_CRC_BYTES, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        """Parse one packet; raises ``DecodeError`` on any byte string that
        is not some packet's ``to_bytes``."""
        if len(data) < _MIN_BYTES:
            raise DecodeError("packet shorter than its header")
        version, flags = data[0] >> 4, data[0] & 0x0F
        if version != _VERSION:
            raise DecodeError(f"unsupported packet version {version}")
        end = len(data) - _CRC_BYTES
        if zlib.crc32(data[:end]) != int.from_bytes(data[end:], "little"):
            raise DecodeError("packet checksum mismatch")
        if flags & ~(_FLAG_FEC | _FLAG_FINE):
            raise DecodeError(f"unknown packet flags {flags:#04x}")
        has_fec = flags & _FLAG_FEC
        fields = [1 if flags & _FLAG_FINE else 0]
        pos = 1
        for _ in range(3 if has_fec else 2):
            if pos == end:
                raise DecodeError("unterminated varint in packet header")
            value = byte = data[pos]
            pos += 1
            if byte > 0x7F:
                value &= 0x7F
                shift = 0
                while byte > 0x7F:
                    if pos == end:
                        raise DecodeError("unterminated varint in packet "
                                          "header")
                    shift += 7
                    if shift > 28:
                        raise DecodeError("varint longer than 5 bytes")
                    byte = data[pos]
                    pos += 1
                    value |= (byte & 0x7F) << shift
                if not byte:
                    raise DecodeError("overlong varint in packet header")
            fields.append(value)
        fec_len = fields.pop() if has_fec else 0
        if has_fec and not fec_len:
            raise DecodeError(f"packet flags {flags:#04x} do not match its "
                              f"0-byte fec field")
        split = end - fec_len
        if split < pos:
            raise DecodeError("fec field longer than the packet")
        try:
            return cls(*fields, data[pos:split], data[split:end])
        except ValueError as exc:
            raise DecodeError(f"packet field out of range: {exc}") from None


def write_packets(path, packets) -> None:
    """u32 little-endian length prefix per packet record."""
    with open(path, "wb") as fh:
        for p in packets:
            raw = p.to_bytes()
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)


def read_packets(path) -> list:
    """The packets ``write_packets`` wrote, in order. A complete record
    that does not parse is None, so a delivery trace stays aligned and a
    receiver can drop it like a lost packet. A file cut short, or a
    record of another format version, raises ``DecodeError``."""
    packets = []
    with open(path, "rb") as fh:
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise DecodeError("truncated packet length prefix")
            (n,) = struct.unpack("<I", head)
            raw = fh.read(n)
            if len(raw) != n:
                raise DecodeError("truncated packet record")
            try:
                packets.append(Packet.from_bytes(raw))
            except DecodeError:
                if raw and raw[0] >> 4 != _VERSION:
                    raise
                packets.append(None)
    return packets


def write_trace(path, delivered) -> None:
    """One character per packet, '1' delivered, '0' dropped."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join("1" if d else "0" for d in delivered))
        fh.write("\n")


def read_trace(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read().strip()
    if set(text) - {"0", "1"}:
        raise ValueError("trace may contain only 0 and 1")
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("1")


# --- loss channels -----------------------------------------------------------

@dataclass(frozen=True)
class BernoulliChannel:
    loss_prob: float

    def __post_init__(self):
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must be a probability")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Boolean delivery mask of length n."""
        return rng.random(n) >= self.loss_prob


# Three burst regimes: quiet, degraded, outage. Stationary weights work out
# to (0.70, 0.25, 0.05) exactly, for an average loss rate of 0.1295.
DEFAULT_TRANSITION = (
    (0.960, 0.035, 0.005),
    (0.098, 0.880, 0.022),
    (0.070, 0.110, 0.820),
)
DEFAULT_LOSS_PROBS = (0.01, 0.30, 0.95)


@dataclass(frozen=True)
class MarkovChannel:
    """Hidden-state burst channel; each state drops packets i.i.d. at its
    own rate while the state itself follows a first-order chain."""

    transition: tuple = DEFAULT_TRANSITION
    loss_probs: tuple = DEFAULT_LOSS_PROBS

    def __post_init__(self):
        P = np.asarray(self.transition, dtype=np.float64)
        l = np.asarray(self.loss_probs, dtype=np.float64)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] != l.size:
            raise ValueError("transition and loss_probs shapes disagree")
        # np.allclose(P.sum(axis=1), 1.0, atol=1e-12) at a third of its cost
        if (P < 0).any() or not np.all(abs(P.sum(axis=1) - 1.0)
                                       <= 1e-12 + 1e-5):
            raise ValueError("transition rows must be distributions")
        # written so that a NaN, which fails every comparison, is refused
        if not ((l >= 0) & (l <= 1)).all():
            raise ValueError("loss_probs must be probabilities")
        # The stationary distribution is unique exactly when the chain has
        # one closed class, that is when some state is reachable from
        # every state. The solve alone cannot tell: in floating point it
        # may return one of many solutions instead of failing.
        n = len(P)
        reach = (P > 0) | np.eye(n, dtype=bool)
        for _ in range((n - 1).bit_length()):
            reach = reach @ reach
        A = P.T - np.eye(n)
        A[-1, :] = 1.0  # pi P = pi, its last equation replaced by sum 1
        b = np.zeros(n)
        b[-1] = 1.0
        try:
            pi = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            pi = None
        if pi is None or not reach.all(axis=0).any():
            raise ValueError("transition must have a unique stationary "
                             "distribution")
        pi = np.maximum(pi, 0.0)
        pi /= pi.sum()
        pi.flags.writeable = False
        object.__setattr__(self, "_stationary", pi)  # the class is frozen

    @property
    def n_states(self) -> int:
        return len(self.loss_probs)

    def stationary(self) -> np.ndarray:
        """Left eigenvector of the transition matrix, normalized to sum 1,
        solved once, on construction; read-only."""
        return self._stationary

    def stationary_loss(self) -> float:
        return float(self.stationary() @ np.asarray(self.loss_probs))

    def mean_burst_length(self) -> float:
        """Expected run length of consecutive losses under stationarity.

        P(lost) divided by P(a loss follows a delivery), both closed form.
        """
        pi = self.stationary()
        P = np.asarray(self.transition, dtype=np.float64)
        l = np.asarray(self.loss_probs, dtype=np.float64)
        p_lost = float(pi @ l)
        p_start = float(((pi * (1.0 - l)) @ P) @ l)
        return p_lost / p_start

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Boolean delivery mask of length n, starting from stationarity."""
        if n == 0:
            return np.zeros(0, dtype=bool)
        P = np.asarray(self.transition, dtype=np.float64)
        # each row's boundaries but its last: a draw at or past the row's
        # sum, which may fall short of 1 by the tolerance, is its last
        # state; the chain is walked on Python floats, one bisect a packet
        cum = np.cumsum(P, axis=1)[:, :-1].tolist()
        l = np.asarray(self.loss_probs, dtype=np.float64).tolist()
        s = int(rng.choice(self.n_states, p=self.stationary()))
        u_loss = rng.random(n).tolist()
        u_step = rng.random(n).tolist()
        delivered = []
        for u, v in zip(u_loss, u_step):
            delivered.append(u >= l[s])
            s = bisect_right(cum[s], v)
        return np.array(delivered, dtype=bool)


def _numbers(spec: dict, name: str, default, depth: int):
    """``spec[name]``, or ``default``, as floats in ``depth`` levels of
    nested tuples; a value of any other shape is refused."""
    def build(value, depth):
        return (float(value) if depth == 0
                else tuple(build(v, depth - 1) for v in value))
    try:
        return build(spec.get(name, default), depth)
    except TypeError:
        shape = ("a number", "a list of numbers",
                 "a list of rows of numbers")[depth]
        raise ValueError(f"{name} must be {shape}") from None


def channel_from_spec(spec: dict):
    """Build a channel from a JSON-style dict ({"type": ..., params})."""
    if not isinstance(spec, dict):
        raise ValueError("channel spec must be a JSON object")
    kind = spec.get("type")
    if kind == "bernoulli":
        if "loss_prob" not in spec:
            raise ValueError("bernoulli channel needs loss_prob")
        return BernoulliChannel(_numbers(spec, "loss_prob", None, 0))
    if kind == "markov":
        return MarkovChannel(
            _numbers(spec, "transition", DEFAULT_TRANSITION, 2),
            _numbers(spec, "loss_probs", DEFAULT_LOSS_PROBS, 1))
    raise ValueError(f"unknown channel type {kind!r}")


def load_channel(path):
    with open(path, "r", encoding="utf-8") as fh:
        return channel_from_spec(json.load(fh))


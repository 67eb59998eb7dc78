"""Packetization, forward error correction for coarse tokens, loss channels.

One slice travels in one packet. Coarse slices are bit-packed verbatim so
they can never suffer error propagation; fine slices carry range-coder
output. Each coarse packet may additionally carry a bit-packed copy of the
previous coarse slice, which lets the receiver ride out a single lost
coarse packet whenever its successor arrives.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DecodeError

_MAGIC = b"SP"
_VERSION = 3
_HEADER = struct.Struct("<2sBBIBBIHHHI")
HEADER_BYTES = _HEADER.size  # 24
_FLAG_FEC = 0x01


def token_bits(vocab: int) -> int:
    """Bits needed for one token index."""
    if vocab < 2:
        raise ValueError("vocab must be at least 2")
    return (vocab - 1).bit_length()


def pack_bits(values, width: int) -> bytes:
    """Pack integers into a big-endian bitstream, MSB of each value first."""
    if not 1 <= width <= 16:
        raise ValueError("width out of range")
    values = np.asarray(values, dtype=np.uint32).ravel()
    if values.size and int(values.max()) >> width:
        raise ValueError("value does not fit in width")
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    bits = ((values[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def unpack_bits(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of pack_bits; trailing pad bits are ignored."""
    if not 1 <= width <= 16:
        raise ValueError("width out of range")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if bits.size < count * width:
        raise DecodeError("bit payload shorter than expected")
    bits = bits[: count * width].reshape(count, width).astype(np.uint32)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    return (bits << shifts).sum(axis=1).astype(np.int32)


@dataclass(frozen=True)
class Packet:
    """One slice on the wire. fec, when present, repeats the previous
    coarse slice's packed tokens."""

    gos_id: int
    unit: int
    group: int
    first_frame: int
    n_frames: int
    payload: bytes
    fec: bytes = b""

    def __post_init__(self):
        if not 0 <= self.gos_id < 1 << 32:
            raise ValueError("gos_id out of range")
        if not 0 <= self.unit < 1 << 8 or not 0 <= self.group < 1 << 8:
            raise ValueError("unit/group out of range")
        if not 0 <= self.first_frame < 1 << 32:
            raise ValueError("first_frame out of range")
        if not 0 < self.n_frames < 1 << 16:
            raise ValueError("n_frames out of range")
        if len(self.payload) >= 1 << 16 or len(self.fec) >= 1 << 16:
            raise ValueError("payload too large for one packet")

    @property
    def flags(self) -> int:
        return _FLAG_FEC if self.fec else 0

    def to_bytes(self) -> bytes:
        head = _HEADER.pack(_MAGIC, _VERSION, self.flags, self.gos_id,
                            self.unit, self.group, self.first_frame,
                            self.n_frames, len(self.payload), len(self.fec), 0)
        crc = zlib.crc32(head + self.payload + self.fec) & 0xFFFFFFFF
        head = head[:-4] + struct.pack("<I", crc)
        return head + self.payload + self.fec

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        if len(data) < HEADER_BYTES:
            raise DecodeError("packet shorter than its header")
        (magic, version, flags, gos_id, unit, group, first_frame,
         n_frames, payload_len, fec_len, crc) = _HEADER.unpack_from(data)
        if magic != _MAGIC:
            raise DecodeError("bad packet magic")
        if version != _VERSION:
            raise DecodeError(f"unsupported packet version {version}")
        end = HEADER_BYTES + payload_len + fec_len
        if len(data) < end:
            raise DecodeError("packet truncated")
        if len(data) > end:
            raise DecodeError("trailing bytes after packet")
        body = data[HEADER_BYTES:end]
        zeroed = data[:HEADER_BYTES - 4] + b"\x00\x00\x00\x00"
        if zlib.crc32(zeroed + body) & 0xFFFFFFFF != crc:
            raise DecodeError("packet checksum mismatch")
        if flags != (_FLAG_FEC if fec_len else 0):
            raise DecodeError(f"packet flags {flags:#04x} do not match its "
                              f"{fec_len}-byte fec field")
        return cls(gos_id, unit, group, first_frame, n_frames,
                   body[:payload_len], body[payload_len:])

    @property
    def wire_bytes(self) -> int:
        return HEADER_BYTES + len(self.payload) + len(self.fec)


def write_packets(path, packets) -> None:
    """u32 little-endian length prefix per packet record."""
    with open(path, "wb") as fh:
        for p in packets:
            raw = p.to_bytes()
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)


def read_packets(path) -> list:
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
            packets.append(Packet.from_bytes(raw))
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
        if (P < 0).any() or not np.allclose(P.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("transition rows must be distributions")
        if (l < 0).any() or (l > 1).any():
            raise ValueError("loss_probs must be probabilities")

    @property
    def n_states(self) -> int:
        return len(self.loss_probs)

    def stationary(self) -> np.ndarray:
        """Left eigenvector of the transition matrix, normalized to sum 1."""
        P = np.asarray(self.transition, dtype=np.float64)
        n = P.shape[0]
        A = (P.T - np.eye(n))
        A[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        pi = np.linalg.solve(A, b)
        return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()

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
        cum = np.cumsum(P, axis=1)
        l = np.asarray(self.loss_probs, dtype=np.float64)
        s = int(rng.choice(self.n_states, p=self.stationary()))
        u_loss = rng.random(n)
        u_step = rng.random(n)
        delivered = np.empty(n, dtype=bool)
        for i in range(n):
            delivered[i] = u_loss[i] >= l[s]
            s = int(np.searchsorted(cum[s], u_step[i], side="right"))
        return delivered


def channel_from_spec(spec: dict):
    """Build a channel from a JSON-style dict ({"type": ..., params})."""
    kind = spec.get("type")
    if kind == "bernoulli":
        return BernoulliChannel(loss_prob=float(spec["loss_prob"]))
    if kind == "markov":
        ch = MarkovChannel(
            transition=tuple(tuple(float(x) for x in row)
                             for row in spec.get("transition",
                                                 DEFAULT_TRANSITION)),
            loss_probs=tuple(float(x) for x in spec.get("loss_probs",
                                                        DEFAULT_LOSS_PROBS)),
        )
        return ch
    raise ValueError(f"unknown channel type {kind!r}")


def load_channel(path):
    with open(path, "r", encoding="utf-8") as fh:
        return channel_from_spec(json.load(fh))


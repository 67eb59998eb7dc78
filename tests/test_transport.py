"""Packet framing, bit packing, loss traces, and channel models."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scalar_reference import (reference_markov_sample, reference_pack_bits,
                              reference_unpack_bits)
from tokenwire.errors import DecodeError
from tokenwire.transport import (
    BernoulliChannel,
    MarkovChannel,
    Packet,
    channel_from_spec,
    load_channel,
    pack_bits,
    read_packets,
    read_trace,
    token_bits,
    unpack_bits,
    write_packets,
    write_trace,
)


def test_token_bits():
    assert token_bits(2) == 1
    assert token_bits(3) == 2
    assert token_bits(4) == 2
    assert token_bits(5) == 3
    assert token_bits(1024) == 10


@given(st.integers(1, 16), st.lists(st.integers(0, 2**16 - 1), max_size=200),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_pack_unpack_round_trip(width, values, seed):
    values = [v % (1 << width) for v in values]
    data = pack_bits(values, width)
    assert len(data) == (len(values) * width + 7) // 8
    back = unpack_bits(data, width, len(values))
    np.testing.assert_array_equal(back, values)


def test_pack_bits_validation():
    with pytest.raises(ValueError):
        pack_bits([4], 2)
    with pytest.raises(ValueError):
        pack_bits([0], 0)
    with pytest.raises(ValueError):
        pack_bits([0], 17)
    with pytest.raises(DecodeError):
        unpack_bits(b"\x00", 7, 1000)


def _raised(fn, *args):
    """``fn(*args)``'s result, or the type of what it raised."""
    try:
        return fn(*args)
    except (ValueError, DecodeError) as exc:
        return type(exc)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_packing_matches_the_bit_array_reference(data):
    """The integer packers give the numpy reference's bytes and values,
    ignore trailing bytes, and raise what it raises: ``ValueError`` for a
    value too wide, ``DecodeError`` for a payload too short."""
    width = data.draw(st.integers(1, 16), label="width")
    values = data.draw(st.lists(st.integers(0, (1 << width) - 1),
                                max_size=64), label="values")
    if values and data.draw(st.booleans(), label="too wide"):
        i = data.draw(st.integers(0, len(values) - 1))
        values[i] = data.draw(st.integers(1 << width, 1 << 17))
    arg = np.array(values, dtype=np.int64) if data.draw(st.booleans()) \
        else values
    packed = _raised(pack_bits, arg, width)
    assert packed == _raised(reference_pack_bits, arg, width)
    if packed is ValueError:
        return
    # negative ``extra`` cuts the payload short; positive appends bytes
    # that unpacking must not read
    extra = data.draw(st.integers(-2, 3), label="extra")
    payload = packed[:len(packed) + extra] if extra < 0 else \
        packed + b"\xff" * extra
    got = _raised(unpack_bits, payload, width, len(values))
    want = _raised(reference_unpack_bits, payload, width, len(values))
    if want is DecodeError:
        assert got is DecodeError
    else:
        assert want.dtype == np.int32
        assert type(got) is list and got == want.tolist() == values


def test_pack_bits_is_msb_first():
    # 0b101 then 0b011 in 3-bit fields: 101011xx with zero padding.
    assert pack_bits([0b101, 0b011], 3) == bytes([0b10101100])


packets = st.builds(
    Packet,
    group=st.integers(0, 1),
    first_frame=st.integers(0, 2**32 - 1),
    n_frames=st.integers(1, 2**16 - 1),
    payload=st.binary(max_size=64),
    fec=st.one_of(st.just(b""), st.binary(min_size=1, max_size=300)),
)


def seal(body: bytes) -> bytes:
    """``body`` followed by its CRC-32 trailer."""
    return body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")


def forge(pkt: Packet, first: int) -> bytes:
    """``pkt``'s wire bytes with byte 0 (version and flags) replaced and
    the checksum recomputed."""
    return seal(bytes([first]) + pkt.to_bytes()[1:-4])


@given(packets)
@settings(max_examples=200, deadline=None)
def test_packet_round_trip(pkt):
    raw = pkt.to_bytes()
    assert pkt.wire_bytes == len(raw)
    assert pkt.header_bytes == len(raw) - len(pkt.payload) - len(pkt.fec)
    back = Packet.from_bytes(raw)
    assert back == pkt
    assert back.to_bytes() == raw


@pytest.mark.parametrize("value, encoded", [
    (0, b"\x00"), (1, b"\x01"), (127, b"\x7f"), (128, b"\x80\x01"),
    (300, b"\xac\x02"), (16383, b"\xff\x7f"), (16384, b"\x80\x80\x01"),
    (2**32 - 1, b"\xff\xff\xff\xff\x0f"),
])
def test_varint_fields_are_leb128(value, encoded):
    raw = Packet(0, value, 1, b"").to_bytes()
    assert raw[1:1 + len(encoded)] == encoded
    assert Packet(0, value, 1, b"").header_bytes == 6 + len(encoded)


def test_packet_layout_is_pinned():
    pkt = Packet(1, 1234, 3, b"x" * 20, b"y" * 8)
    raw = pkt.to_bytes()
    # version 7 with the fine and fec flags; 1234 as 0xd2 0x09; n_frames;
    # the fec length
    assert raw[:5] == bytes([0x73, 0xD2, 0x09, 3, 8])
    assert raw[5:-4] == b"x" * 20 + b"y" * 8
    assert raw == seal(raw[:-4])
    assert pkt.header_bytes == 9 and len(raw) == 37
    # no fec: flag clear, no fec length
    assert Packet(1, 1234, 3, b"x" * 20).to_bytes()[:4] == \
        bytes([0x72, 0xD2, 0x09, 3])
    assert Packet(1, 1234, 3, b"x" * 20).header_bytes == 8
    # a coarse packet clears the fine flag
    assert Packet(0, 1234, 3, b"x" * 20).to_bytes()[:4] == \
        bytes([0x70, 0xD2, 0x09, 3])


def test_packet_flags_follow_fec():
    a = Packet(0, 0, 4, b"xy")
    assert a.flags == 0
    b = Packet(0, 0, 4, b"xy", fec=b"z")
    assert b.flags == 1
    assert Packet(1, 0, 4, b"xy").flags == 2
    assert Packet(1, 0, 4, b"xy", fec=b"z").flags == 3


def test_packet_validation():
    """A packet is an immutable tuple that equals the plain tuple of its
    fields, and refuses each out-of-range field however it is made: by
    its constructor or by ``_replace``."""
    pkt = Packet(1, 6, 2, b"abc", b"de")
    assert pkt == (1, 6, 2, b"abc", b"de") and hash(pkt) == hash(tuple(pkt))
    assert Packet(0, 6, 2, b"abc") == (0, 6, 2, b"abc", b"")
    for name, value in zip(Packet._fields, (0, 7, 3, b"x", b"y")):
        with pytest.raises(AttributeError):
            setattr(pkt, name, value)
    with pytest.raises(AttributeError):
        pkt.extra = 1
    for name, value in (("group", -1), ("group", 2), ("first_frame", -1),
                        ("first_frame", 1 << 32), ("n_frames", 0),
                        ("n_frames", 1 << 16),
                        ("payload", b"\x00" * (1 << 16)),
                        ("fec", b"\x00" * (1 << 16))):
        with pytest.raises(ValueError, match="group|range|too large"):
            Packet(**{**pkt._asdict(), name: value})
        with pytest.raises(ValueError, match="group|range|too large"):
            pkt._replace(**{name: value})
    assert pkt._replace(first_frame=(1 << 32) - 1).first_frame == (1 << 32) - 1


@pytest.mark.parametrize("group", [-1, 2, 3, 255, 256])
def test_packet_group_is_coarse_or_fine(group):
    with pytest.raises(ValueError, match="group must be 0 \\(coarse\\) or 1"):
        Packet(group, 0, 1, b"")


def test_packet_rejects_corruption():
    """Every single-byte flip, every truncation and every one-byte
    extension is refused."""
    raw = Packet(1, 600, 2, b"payload", b"fec").to_bytes()
    for i in range(len(raw)):
        for mask in range(1, 256):
            bad = bytearray(raw)
            bad[i] ^= mask
            with pytest.raises(DecodeError):
                Packet.from_bytes(bytes(bad))
    for cut in range(len(raw)):
        with pytest.raises(DecodeError):
            Packet.from_bytes(raw[:cut])
    for extra in range(256):
        with pytest.raises(DecodeError):
            Packet.from_bytes(raw + bytes([extra]))


@given(packets, st.data())
@settings(max_examples=100, deadline=None)
def test_damaged_packet_is_refused(pkt, data):
    raw = pkt.to_bytes()
    i = data.draw(st.integers(0, len(raw) - 1))
    bad = bytearray(raw)
    bad[i] ^= data.draw(st.integers(1, 255))
    with pytest.raises(DecodeError):
        Packet.from_bytes(bytes(bad))
    with pytest.raises(DecodeError):
        Packet.from_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(DecodeError):
        Packet.from_bytes(raw + bytes([data.draw(st.integers(0, 255))]))


@given(st.binary(max_size=80))
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes_raise_only_decode_error(data):
    try:
        Packet.from_bytes(data)
    except DecodeError:
        pass


@given(st.integers(0, 15), st.binary(max_size=40))
@settings(max_examples=300, deadline=None)
def test_sealed_bytes_parse_to_their_one_packet_or_raise(flags, body):
    """Past the version and the checksum the parser still refuses every
    byte string that is not some packet's one encoding."""
    data = seal(bytes([0x70 | flags]) + body)
    try:
        pkt = Packet.from_bytes(data)
    except DecodeError:
        return
    assert pkt.to_bytes() == data


def test_packet_error_messages():
    pkt = Packet(1, 6, 2, b"abc")
    raw = pkt.to_bytes()
    with pytest.raises(DecodeError, match="header"):
        Packet.from_bytes(raw[:6])
    with pytest.raises(DecodeError, match="unsupported packet version 3"):
        Packet.from_bytes(forge(pkt, 0x30))
    with pytest.raises(DecodeError, match="unsupported packet version 6"):
        Packet.from_bytes(forge(pkt, 0x60))
    with pytest.raises(DecodeError, match="checksum"):
        Packet.from_bytes(raw[:-2])
    # first_frame 6 written as 0x86 0x00
    with pytest.raises(DecodeError, match="overlong"):
        Packet.from_bytes(seal(b"\x72\x86\x00" + raw[2:-4]))
    with pytest.raises(DecodeError, match="unterminated"):
        Packet.from_bytes(seal(b"\x72\x06\x82"))
    with pytest.raises(DecodeError, match="longer than 5 bytes"):
        Packet.from_bytes(seal(b"\x72" + b"\xff" * 5 + b"\x01" * 5))
    # every field the constructor refuses is a DecodeError, never its
    # ValueError: first_frame 2**32, n_frames 0 and 2**16, then a payload
    # and a fec field of 2**16 bytes
    big = b"\x00" * (1 << 16)
    for body in (b"\x72\x80\x80\x80\x80\x10\x02abc", b"\x72\x06\x00abc",
                 b"\x72\x06\x80\x80\x04abc", b"\x72\x06\x02" + big,
                 b"\x73\x06\x02\x80\x80\x04abc" + big):
        with pytest.raises(DecodeError, match="packet field out of range"):
            Packet.from_bytes(seal(body))


def test_packet_rejects_trailing_bytes():
    """With no payload length on the wire, trailing bytes are refused by
    the checksum, which then covers the wrong span."""
    pkt = Packet(1, 6, 2, b"abc", b"de")
    assert Packet.from_bytes(forge(pkt, 0x73)) == pkt
    for extra in (b"\x00", b"\x00" * 4, pkt.to_bytes()[-4:]):
        with pytest.raises(DecodeError, match="checksum"):
            Packet.from_bytes(pkt.to_bytes() + extra)


def test_packet_rejects_flags_that_disagree_with_the_fec_field():
    """The fec flag promises a non-empty fec field, and no flag bit but
    the fec and fine ones is ever written."""
    plain = Packet(1, 6, 2, b"abc")
    for first in (0x76, 0x7A):
        with pytest.raises(DecodeError, match="flags"):
            Packet.from_bytes(forge(plain, first))
    # the flag set over a zero fec length
    with pytest.raises(DecodeError, match="flags"):
        Packet.from_bytes(seal(b"\x73\x06\x02\x00abc"))
    # the flag set over a fec length past the end
    with pytest.raises(DecodeError, match="longer than the packet"):
        Packet.from_bytes(seal(b"\x73\x06\x02\x04abc"))
    # Clearing the flag leaves no fec length to check: the bytes read as
    # another packet, whose payload absorbs the fec length and field.
    fec = Packet(1, 6, 2, b"abc", b"de")
    other = Packet.from_bytes(forge(fec, 0x72))
    assert other == Packet(1, 6, 2, b"\x02abcde")
    # Clearing the fine flag reads the same bytes as a coarse packet.
    assert Packet.from_bytes(forge(plain, 0x70)) == Packet(0, 6, 2, b"abc")


def test_packets_file_round_trip(tmp_path):
    packets = [
        Packet(0, 0, 2, b"a" * 5),
        Packet(1, 2, 2, b"bb", fec=b"ccc"),
        Packet(0, 4, 1, b""),
    ]
    path = tmp_path / "packets.bin"
    write_packets(path, packets)
    assert read_packets(path) == packets
    raw = path.read_bytes()
    # a record that does not parse keeps its place as None
    second = 4 + len(packets[0].to_bytes()) + 4
    for at in (second + 1, second + 6, second + 12):
        path.write_bytes(raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:])
        assert read_packets(path) == [packets[0], None, packets[2]]
    for cut in (3, len(raw) - 2):
        path.write_bytes(raw[:-cut])
        with pytest.raises(DecodeError, match="truncated packet"):
            read_packets(path)


def test_version_3_packet_file_is_refused(tmp_path):
    """Version 3 framed a packet in a fixed 24-byte header that began with
    the magic b"SP"; byte 0's high nibble reads that 0x53 as version 5.
    Version 4 wrote two more varints, gos_id and unit, before a group
    varint, which version 6 kept and version 7 folds into a flag."""
    head = struct.pack("<2sBBIBBIHHHI", b"SP", 3, 0, 0, 1, 1, 0, 1, 2, 0, 0)
    crc = zlib.crc32(head + b"ab") & 0xFFFFFFFF
    v3 = head[:-4] + struct.pack("<I", crc) + b"ab"
    # gos_id 0, unit 1, group 0, first_frame 0, n_frames 2, payload b"ab"
    v4 = seal(b"\x40\x00\x01\x00\x00\x02ab")
    # group 1, first_frame 0, n_frames 2, payload b"ab"
    v6 = seal(b"\x60\x01\x00\x02ab")
    path = tmp_path / "packets.bin"
    for record in (v3, v4, v6):
        path.write_bytes(struct.pack("<I", len(record)) + record)
        with pytest.raises(DecodeError, match="unsupported packet version"):
            read_packets(path)


def test_trace_round_trip(tmp_path):
    path = tmp_path / "trace.txt"
    mask = np.array([True, False, True, True, False])
    write_trace(path, mask)
    assert path.read_text() == "10110\n"
    np.testing.assert_array_equal(read_trace(path), mask)
    path.write_text("10x1\n")
    with pytest.raises(ValueError):
        read_trace(path)


def test_bernoulli_channel():
    with pytest.raises(ValueError):
        BernoulliChannel(1.5)
    rng = np.random.default_rng(17)
    assert BernoulliChannel(0.0).sample(100, rng).all()
    assert not BernoulliChannel(1.0).sample(100, rng).any()
    got = BernoulliChannel(0.2).sample(100_000, rng)
    assert abs((~got).mean() - 0.2) < 0.005


def test_markov_channel_validation():
    with pytest.raises(ValueError):
        MarkovChannel(transition=((0.5, 0.4), (0.5, 0.5)), loss_probs=(0, 1))
    with pytest.raises(ValueError):
        MarkovChannel(transition=((1.0,),), loss_probs=(0.5, 0.5))
    with pytest.raises(ValueError):
        MarkovChannel(transition=((1.0, 0.0), (0.0, 1.0)), loss_probs=(0.5, 1.5))
    # a NaN fails every comparison, so it is refused explicitly
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="loss_probs must be"):
            MarkovChannel(loss_probs=(bad, 0.3, 0.95))


def test_markov_channel_refuses_a_chain_without_one_stationary_law():
    # With two closed classes the start state decides the loss rate for
    # good, so no stationary distribution is unique and sample has none
    # to start from. The second matrix's solve does not fail in floating
    # point: it returns one of the many solutions.
    for P in (((1, 0), (0, 1)),
              ((0.9, 0.1, 0.0), (0.3, 0.7, 0.0), (0.0, 0.0, 1.0)),
              ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.5, 0.0))):
        with pytest.raises(ValueError, match="unique stationary"):
            MarkovChannel(P, (0.1,) * len(P))
    # one closed class and a transient state: the chain settles in it
    ch = MarkovChannel(((1.0, 0.0), (0.5, 0.5)), (0.1, 0.2))
    np.testing.assert_allclose(ch.stationary(), [1.0, 0.0])
    assert len(ch.sample(10, np.random.default_rng(0))) == 10


def test_markov_stationary_against_matrix_power():
    ch = MarkovChannel()
    P = np.asarray(ch.transition)
    # Long-run row of P^k converges to the stationary law.
    approx = np.linalg.matrix_power(P, 200)[0]
    np.testing.assert_allclose(ch.stationary(), approx, atol=1e-9)
    np.testing.assert_allclose(ch.stationary(), [0.70, 0.25, 0.05], atol=1e-9)
    assert ch.stationary_loss() == pytest.approx(0.1295, abs=1e-9)


def test_markov_burst_length_closed_form():
    # Two states, the second always losing: bursts are runs of state 2
    # entered from state 1, geometric with mean 1 / (1 - P[1][1]) = 2.
    ch = MarkovChannel(transition=((0.9, 0.1), (0.5, 0.5)), loss_probs=(0.0, 1.0))
    np.testing.assert_allclose(ch.stationary(), [5 / 6, 1 / 6], atol=1e-12)
    assert ch.mean_burst_length() == pytest.approx(2.0)


def test_markov_burst_length_matches_simulation():
    ch = MarkovChannel(transition=((0.9, 0.1), (0.5, 0.5)), loss_probs=(0.0, 1.0))
    rng = np.random.default_rng(18)
    delivered = ch.sample(200_000, rng)
    lost = ~delivered
    runs = []
    run = 0
    for x in lost:
        if x:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    assert abs(np.mean(runs) - ch.mean_burst_length()) < 0.05


def test_markov_rows_that_sum_short_of_one_sample_their_last_state():
    """A row may sum below 1 by the tolerance; a draw past its sum goes to
    the row's last state instead of past the last state, which raised
    ``IndexError`` for these seeds. Every other draw maps as before, so
    the samples equal those of the chain whose first row gives its last
    state the missing 1e-5 (the two stationary laws, and so the start
    states, agree for these seeds)."""
    short = MarkovChannel(((0.5, 0.49999), (0.5, 0.5)), (0.1, 0.2))
    full = MarkovChannel(((0.5, 0.5), (0.5, 0.5)), (0.1, 0.2))
    for seed in (3, 27, 35, 54):
        got = short.sample(20000, np.random.default_rng(seed))
        assert len(got) == 20000
        np.testing.assert_array_equal(
            got, full.sample(20000, np.random.default_rng(seed)))


@st.composite
def markov_chains(draw):
    """A valid ``MarkovChannel`` of 1-4 states: rows of small integer
    weights, normalized, some then scaled short of 1 within the row
    tolerance, and any loss probabilities, 0 and 1 among them."""
    n = draw(st.integers(1, 4), label="n_states")
    rows = []
    for _ in range(n):
        w = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)
                 .filter(any), label="weights")
        short = draw(st.sampled_from([1.0, 1 - 5e-6, 1 - 1e-5]),
                     label="row sum")
        rows.append(tuple(x / sum(w) * short for x in w))
    loss = st.one_of(st.sampled_from([0.0, 1.0]),
                     st.floats(0, 1, allow_nan=False))
    probs = tuple(draw(loss, label="loss") for _ in range(n))
    try:
        return MarkovChannel(tuple(rows), probs)
    except ValueError:  # more than one closed class
        assume(False)


class TiedDraws:
    """A generator that draws as ``np.random.default_rng(seed)`` does, but
    sets some of the uniform draws to the chain's own row boundaries,
    ties that a real generator almost never draws, and to values just
    short of 1, past a row that sums short of 1."""

    def __init__(self, seed: int, channel: MarkovChannel):
        self.rng = np.random.default_rng(seed)
        cum = np.cumsum(np.asarray(channel.transition), axis=1)
        self.special = np.concatenate([cum.ravel(), [1 - 1e-6, 1 - 1e-12]])

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)

    def random(self, n: int) -> np.ndarray:
        u = self.rng.random(n)
        tied = self.rng.random(n) < 0.3
        u[tied] = self.rng.choice(self.special, int(tied.sum()))
        return u


@given(markov_chains(), st.integers(0, 200), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_markov_sample_matches_the_reference(channel, n, seed):
    """Over valid chains, rows that sum short of 1 included, and any
    length, the walk on Python floats draws the mask that one
    ``searchsorted`` a packet draws, from the same generator, and leaves
    the generator where the reference leaves it. The same holds where
    draws fall on the row boundaries and past a row's sum."""
    got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
    got = channel.sample(n, got_rng)
    want = reference_markov_sample(channel, n, want_rng)
    assert got.dtype == want.dtype == bool
    np.testing.assert_array_equal(got, want)
    assert got_rng.random() == want_rng.random()
    np.testing.assert_array_equal(
        channel.sample(n, TiedDraws(seed, channel)),
        reference_markov_sample(channel, n, TiedDraws(seed, channel)))


def test_markov_sample_loss_rate():
    ch = MarkovChannel()
    rng = np.random.default_rng(19)
    delivered = ch.sample(300_000, rng)
    assert abs((~delivered).mean() - ch.stationary_loss()) < 0.01
    assert ch.sample(0, rng).shape == (0,)


def test_channel_spec_round_trip(tmp_path):
    path = tmp_path / "chan.json"
    path.write_text('{"type": "bernoulli", "loss_prob": 0.25}\n')
    assert load_channel(path) == BernoulliChannel(0.25)
    path.write_text('{"type": "markov",\n'
                    ' "transition": [[0.9, 0.1, 0.0], [0.2, 0.7, 0.1],'
                    ' [0.0, 0.5, 0.5]],\n'
                    ' "loss_probs": [0.0, 0.5, 1.0]}\n')
    assert load_channel(path) == MarkovChannel(
        ((0.9, 0.1, 0.0), (0.2, 0.7, 0.1), (0.0, 0.5, 0.5)), (0.0, 0.5, 1.0))
    # Omitted Markov parameters take the defaults.
    assert channel_from_spec({"type": "markov"}) == MarkovChannel()
    with pytest.raises(ValueError):
        channel_from_spec({"type": "laplace"})

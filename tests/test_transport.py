"""Packet framing, bit packing, loss traces, and channel models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenwire.errors import DecodeError
from tokenwire.transport import (
    HEADER_BYTES,
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


def test_pack_bits_is_msb_first():
    # 0b101 then 0b011 in 3-bit fields: 101011xx with zero padding.
    assert pack_bits([0b101, 0b011], 3) == bytes([0b10101100])


@given(st.binary(max_size=64), st.binary(max_size=32), st.integers(0, 2**16 - 2),
       st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=80, deadline=None)
def test_packet_round_trip(payload, fec, nf, unit, group):
    pkt = Packet(gos_id=3, unit=unit, group=group, first_frame=17,
                 n_frames=nf + 1, payload=payload, fec=fec)
    back = Packet.from_bytes(pkt.to_bytes())
    assert back == pkt
    assert pkt.wire_bytes == HEADER_BYTES + len(payload) + len(fec)


def test_packet_flags_follow_fec():
    a = Packet(0, 1, 0, 0, 4, b"xy")
    assert a.flags == 0
    b = Packet(0, 1, 0, 0, 4, b"xy", fec=b"z")
    assert b.flags == 1


def test_packet_validation():
    with pytest.raises(ValueError):
        Packet(0, 1, 0, 0, 0, b"")  # zero frames
    with pytest.raises(ValueError):
        Packet(0, 256, 0, 0, 1, b"")
    with pytest.raises(ValueError):
        Packet(0, 0, 0, 0, 1, b"\x00" * (1 << 16))


def test_packet_rejects_corruption():
    raw = bytearray(Packet(1, 2, 1, 6, 2, b"payload", b"fec").to_bytes())
    for i in range(len(raw)):
        bad = bytearray(raw)
        bad[i] ^= 0x40
        with pytest.raises(DecodeError):
            Packet.from_bytes(bytes(bad))


def test_packet_error_messages():
    pkt = Packet(1, 2, 1, 6, 2, b"abc")
    raw = pkt.to_bytes()
    with pytest.raises(DecodeError, match="header"):
        Packet.from_bytes(raw[:10])
    with pytest.raises(DecodeError, match="magic"):
        Packet.from_bytes(b"XX" + raw[2:])
    with pytest.raises(DecodeError, match="truncated"):
        Packet.from_bytes(raw[:-2])
    bad = bytearray(raw)
    bad[2] = 9  # version byte
    with pytest.raises(DecodeError, match="version"):
        Packet.from_bytes(bytes(bad))


def test_packets_file_round_trip(tmp_path):
    packets = [
        Packet(0, 1, 0, 0, 2, b"a" * 5),
        Packet(0, 2, 1, 2, 2, b"bb", fec=b"ccc"),
        Packet(1, 1, 0, 4, 1, b""),
    ]
    path = tmp_path / "packets.bin"
    write_packets(path, packets)
    assert read_packets(path) == packets
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(DecodeError):
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

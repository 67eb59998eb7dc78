"""Golden regression digests for batch and streaming transport.

Each scenario runs a fixed, seeded token grid through a drop-only channel
and pins the SHA-256 of what it produced: the wire bytes, the sender's bit
accounting, the received tokens and states, and the receiver's report (for
streams: every release plus the receiver's counters). A refactor of the
transceiver must leave every digest unchanged. The channels only drop
whole packets, so the outcome never depends on how an undecodable payload
is classified. The count model the scenarios share is pinned too, by the
SHA-256 of its model file, so training must count the same contexts.
"""

import hashlib
import json

import numpy as np
import pytest

from tokenwire.context import (TrainSchedule, model_digest, save_count_model,
                               train_count_model)
from tokenwire.grid import GosConfig, StreamConfig, TokenGrid, build_slice_grid
from tokenwire.pipeline import receive_tokens, send_tokens
from tokenwire.streaming import StreamReceiver, StreamSender
from tokenwire.synthetic import TokenSource, random_transition, sample_tokens
from tokenwire.transport import BernoulliChannel, MarkovChannel, Packet

VOCAB = 16
N_LAYERS = 8
GOS = GosConfig(12, 3, (0, 2, 4, 6, 8))
GOS_UNITS4 = GosConfig(12, 4, (0, 2, 4, 6, 8))
N_FRAMES = 60

# batch layouts: (group-of-slices layout, encode level, frames)
BATCH = {
    "8": (GOS, 8, N_FRAMES),
    "5": (GOS, 5, N_FRAMES),
    "units4": (GOS_UNITS4, 8, N_FRAMES),
    # the tail group-of-slices holds frames 60-61, units 1-2 of 3
    "tail": (GOS, 8, N_FRAMES + 2),
}


def make_corpus() -> tuple:
    """A count model fitted to a compressible token source, and one
    held-out grid from that source to transmit."""
    rng = np.random.default_rng(1234)
    source = TokenSource(tuple(random_transition(VOCAB, rng, 0.3)
                               for _ in range(N_LAYERS)))
    train = [sample_tokens(source, 48, rng) for _ in range(16)]
    model = train_count_model(train, VOCAB, N_LAYERS, GOS.n_coarse,
                              TrainSchedule(epochs=4, seed=5))
    return model, sample_tokens(source, N_FRAMES, rng)


@pytest.fixture(scope="module")
def corpus():
    return make_corpus()


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(f"{p.dtype.str}{p.shape}".encode())
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, bytes):
            h.update(p)
        else:
            h.update(json.dumps(p, sort_keys=True).encode())
        h.update(b"|")
    return h.hexdigest()


def _sender(rep) -> str:
    return _sha([rep.n_packets, rep.n_coarse_packets, rep.n_fine_packets,
                 rep.header_bits, rep.coarse_bits, rep.fec_bits,
                 rep.fine_bits, repr(rep.ideal_fine_bits),
                 rep.n_coarse_tokens, rep.n_fine_tokens],
                sorted((k, repr(v))
                       for k, v in rep.per_layer_ideal_bits.items()),
                sorted(rep.fallback_counts.items()))


def _keep(channel: str, n: int, rng) -> np.ndarray:
    if channel == "lossless":
        return np.ones(n, dtype=bool)
    if channel == "markov":
        return MarkovChannel().sample(n, rng)
    return BernoulliChannel(float(channel)).sample(n, rng)


def run_batch(model, grid, layout: str, channel: str) -> dict:
    gos, level, n_frames = BATCH[layout]
    tokens = np.concatenate([grid.tokens, grid.tokens])[:n_frames]
    tokens[:, level:] = 0
    sent = TokenGrid(tokens, np.full(n_frames, level), grid.vocab)
    sg = build_slice_grid(n_frames, gos, level)
    packets, srep = send_tokens(sent, sg, model)
    wire = [p.to_bytes() for p in packets]
    if channel == "blackout":
        # groups-of-slices 1 and 2 vanish; the last coarse packet of group 2
        # rides group 3's first coarse packet as its repair copy
        keep = np.array([p.first_frame // gos.gos_len not in (1, 2)
                         for p in packets])
    else:
        keep = _keep(channel, len(packets), np.random.default_rng(77))
    arrived = [Packet.from_bytes(b) for b, d in zip(wire, keep) if d]
    got, states, rrep = receive_tokens(arrived, sg, model)
    if channel == "blackout":
        assert rrep.n_blackouts >= 1
    return {
        "wire": _sha(b"".join(wire)),
        "sender": _sender(srep),
        "received": _sha(got.tokens, got.level, states),
        "receiver": _sha(rrep.state_counts, sorted(rrep.case_counts.items()),
                         rrep.n_windows, rrep.n_blackouts, rrep.fec_recovered,
                         rrep.valid_depth),
    }


STREAMS = {
    "default": StreamConfig(),
    "stride1": StreamConfig(stride=1, lookahead=0, coding_context=6,
                            conceal_context=6),
    # coding context reaches past the concealment window
    "wide": StreamConfig(stride=2, lookahead=1, coding_context=12,
                         conceal_context=4),
    # the shortest coding context: exactly stride + lookahead frames
    "tight": StreamConfig(stride=2, lookahead=2, coding_context=4,
                          conceal_context=4),
}


def run_stream(model, grid, stream: str, channel: str) -> dict:
    cfg = STREAMS[stream]
    tx = StreamSender(GOS, cfg, model)
    rx = StreamReceiver(GOS, cfg, model)
    rng = np.random.default_rng(78)
    wire, releases = [], []

    def carry(em):
        data = [p.to_bytes() for p in em.packets]
        wire.extend(data)
        if channel == "blackout":
            keep = np.full(len(data), not 5 <= em.step < 11)
        else:
            keep = _keep(channel, len(data), rng)
        return [Packet.from_bytes(b) for b, d in zip(data, keep) if d]

    for t in range(N_FRAMES):
        for em in tx.push(grid.tokens[t:t + 1]):
            releases.append(rx.step(carry(em)))
    tail, total = tx.flush()
    releases += rx.finish([carry(em) for em in tail], total)
    got, states = rx.result()
    if channel == "blackout":
        assert rx.n_blackouts >= 1
    return {
        "wire": _sha(b"".join(wire)),
        "sender": _sender(tx.report),
        "received": _sha(got.tokens, got.level, states),
        "receiver": _sha([[list(r.due), _sha(r.tokens, r.states,
                                             r.valid_depth)]
                          for r in releases],
                         sorted(rx.case_counts.items()), rx.n_blackouts,
                         rx.fec_recovered, tx.max_latency),
    }


GOLDEN = {
    "batch/8/lossless": {
        "wire": "c8c471a2a0ab91853f95fe5b3cd6cb3b74d8cadf8946f3d15f6ad6e089903ef7",
        "sender": "7d77df606eedfc834c0aad74b7dee9ac2a97075fd0c1c43d938b757afc5f15b7",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "8239d823908d8ff0a4d4bdbe03b071da8e549e81a9962ea6b46e39f394fedab0",
    },
    "batch/8/0.1": {
        "wire": "c8c471a2a0ab91853f95fe5b3cd6cb3b74d8cadf8946f3d15f6ad6e089903ef7",
        "sender": "7d77df606eedfc834c0aad74b7dee9ac2a97075fd0c1c43d938b757afc5f15b7",
        "received": "a9b54e00ab06c7dd5b095974843aca8cdda5c84905ba4c5b8deb0eaa26dfb1da",
        "receiver": "9c1677f07c1c78cc7d7256906faee546e9fd28ad8f8804ba719c9e3bcf8e1d30",
    },
    "batch/8/0.3": {
        "wire": "c8c471a2a0ab91853f95fe5b3cd6cb3b74d8cadf8946f3d15f6ad6e089903ef7",
        "sender": "7d77df606eedfc834c0aad74b7dee9ac2a97075fd0c1c43d938b757afc5f15b7",
        "received": "d1e2f02e5fddc8aed53fb208d50038bef6233a79f123bcaf16241a95f8dee7bd",
        "receiver": "456563d231c24074160dcfcab6502f72ebbb6382a8a4719e9324e581cabd0472",
    },
    "batch/8/blackout": {
        "wire": "c8c471a2a0ab91853f95fe5b3cd6cb3b74d8cadf8946f3d15f6ad6e089903ef7",
        "sender": "7d77df606eedfc834c0aad74b7dee9ac2a97075fd0c1c43d938b757afc5f15b7",
        "received": "d11e573e0f150436b79f12f2c5cc7ea42b78c76c3973a278cd46766ab2a42090",
        "receiver": "a129e53383e6244faf210e27dfac0d2608a59f7b4ef9a597a04235cc70255225",
    },
    "batch/8/markov": {
        "wire": "c8c471a2a0ab91853f95fe5b3cd6cb3b74d8cadf8946f3d15f6ad6e089903ef7",
        "sender": "7d77df606eedfc834c0aad74b7dee9ac2a97075fd0c1c43d938b757afc5f15b7",
        "received": "c144d2b7d212417b0ee330681bb1fb5d97a2460786f618a28c592643b3806ced",
        "receiver": "6756aa9468dfa553741e9c6d2fafc24ee244d5e27597a17b469a2e2a1ec141a6",
    },
    "batch/5/lossless": {
        "wire": "047cf016d102a2b995261f5e287b03d67fb59a40851829ab78aee5103a279579",
        "sender": "2bdaf23cfaeb4df94e6d4edd0b2690b610f5e3acad92a0889995768c9b7ef417",
        "received": "a8faf11c753db5487f1134f670fcdb5307be9bc63b76b49fc7db23a84dcc136d",
        "receiver": "2c2da278bc7b158602da9e1fda5aead2c21a1faaef864089cb88a1187f4f8fb5",
    },
    "batch/5/0.1": {
        "wire": "047cf016d102a2b995261f5e287b03d67fb59a40851829ab78aee5103a279579",
        "sender": "2bdaf23cfaeb4df94e6d4edd0b2690b610f5e3acad92a0889995768c9b7ef417",
        "received": "1f3649aedf93ea722857b2b95fcdb54a3b4321f1acda2ad95cc7ef6d9ddfd67b",
        "receiver": "f4084ea004a82e6cc1cd6be6365d9baa4869b1f280eea5c9d17edde482ca2047",
    },
    "batch/5/0.3": {
        "wire": "047cf016d102a2b995261f5e287b03d67fb59a40851829ab78aee5103a279579",
        "sender": "2bdaf23cfaeb4df94e6d4edd0b2690b610f5e3acad92a0889995768c9b7ef417",
        "received": "ac4fdb98ac60be3e11fbcfe0a3ca54a1faff250452e9680e340da361c274c4ac",
        "receiver": "b58464fc610e565e1ecd20e3d3d71b39ce175946df43f5c1d96ac98c3a9630a3",
    },
    "batch/5/blackout": {
        "wire": "047cf016d102a2b995261f5e287b03d67fb59a40851829ab78aee5103a279579",
        "sender": "2bdaf23cfaeb4df94e6d4edd0b2690b610f5e3acad92a0889995768c9b7ef417",
        "received": "86246d30f63de7c070d9e2b405e878f0a526e2ac7f50f4281444d0b392215928",
        "receiver": "84d5b703ef1d0245036b38081f5629518e102af46c9c8834d00389549dd0d4f5",
    },
    "batch/5/markov": {
        "wire": "047cf016d102a2b995261f5e287b03d67fb59a40851829ab78aee5103a279579",
        "sender": "2bdaf23cfaeb4df94e6d4edd0b2690b610f5e3acad92a0889995768c9b7ef417",
        "received": "a8faf11c753db5487f1134f670fcdb5307be9bc63b76b49fc7db23a84dcc136d",
        "receiver": "5f16999bfa1591b4343611d7f53048c7f5678db7550edca4f3db9389f588b42d",
    },
    "stream/default/lossless": {
        "wire": "718508a9d092899a22fac13b4d9cbc0f062521a5cbcd1f874d06fa9ead9ce7ed",
        "sender": "4b0635bb87c15d1eee1713f0d4d8a957374a11d9901a4e73d0b75abf52dad43c",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "688a6fbb040903aca8698b71ca8cd9fcec2d24ab34235bb476382fcf770b72d8",
    },
    "stream/default/0.1": {
        "wire": "718508a9d092899a22fac13b4d9cbc0f062521a5cbcd1f874d06fa9ead9ce7ed",
        "sender": "4b0635bb87c15d1eee1713f0d4d8a957374a11d9901a4e73d0b75abf52dad43c",
        "received": "110f05cd7961a49533a2cbe7952d3076b8479a3e7c01c6530b9765e9107b66d6",
        "receiver": "6bf581d26aa87ad6f6de40358d32db23b4701c45c66ea5ea05aba55a96237c8c",
    },
    "stream/default/0.3": {
        "wire": "718508a9d092899a22fac13b4d9cbc0f062521a5cbcd1f874d06fa9ead9ce7ed",
        "sender": "4b0635bb87c15d1eee1713f0d4d8a957374a11d9901a4e73d0b75abf52dad43c",
        "received": "0eac259c82b7331996af16e13a8080090db79cc7db06395c73218db5eb4b8df7",
        "receiver": "1985361e6726a704cad26461b440b3bdf570dab92347b217917b346866038308",
    },
    "stream/default/blackout": {
        "wire": "718508a9d092899a22fac13b4d9cbc0f062521a5cbcd1f874d06fa9ead9ce7ed",
        "sender": "4b0635bb87c15d1eee1713f0d4d8a957374a11d9901a4e73d0b75abf52dad43c",
        "received": "020254e5e195240afe82be663396259da01d3d6ab7c4cb5171f386a3cddf19ac",
        "receiver": "1fd0c2d20607a9130bee99b1795230e12c4739bb7dfc798c638ae1120db83048",
    },
    "stream/default/markov": {
        "wire": "718508a9d092899a22fac13b4d9cbc0f062521a5cbcd1f874d06fa9ead9ce7ed",
        "sender": "4b0635bb87c15d1eee1713f0d4d8a957374a11d9901a4e73d0b75abf52dad43c",
        "received": "5fee2c7536d0725f9fbaeba7c2a5f52896698830c239854db84b0907452df4b2",
        "receiver": "12d0246b527f8b383de12712b7ae85757c0d16a02ac5e2bc44cc6ca51bff9328",
    },
    "stream/stride1/lossless": {
        "wire": "c02229c1c1506a958597aa7c3095ebb47b23f0829335d2e2a69b8c0501e0f5fc",
        "sender": "08018f7ed13405074dba55a96d1cf9394633711c09af87616937c7d6090403ef",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "a86118c02a088cb8ae750eac7c310e69807b6d8fa7341f3a45d4478941bd946e",
    },
    "stream/stride1/0.1": {
        "wire": "c02229c1c1506a958597aa7c3095ebb47b23f0829335d2e2a69b8c0501e0f5fc",
        "sender": "08018f7ed13405074dba55a96d1cf9394633711c09af87616937c7d6090403ef",
        "received": "131d6a2f50bb080d7f8d599f3128941f584ca6541d01277e3616981d9f474346",
        "receiver": "f69a27598a020ad01258359ea58dac49a24a777847fd4fb436125bb2a3fad8ec",
    },
    "stream/stride1/0.3": {
        "wire": "c02229c1c1506a958597aa7c3095ebb47b23f0829335d2e2a69b8c0501e0f5fc",
        "sender": "08018f7ed13405074dba55a96d1cf9394633711c09af87616937c7d6090403ef",
        "received": "ef5b8945f7d694d55a3fcf46167b05bfb38a860accd2179852e9461657150ccf",
        "receiver": "19ffb3704119adb8e1c6db3c31f2cb25480bae855e46f3909f1697ac08de6bbc",
    },
    "stream/stride1/blackout": {
        "wire": "c02229c1c1506a958597aa7c3095ebb47b23f0829335d2e2a69b8c0501e0f5fc",
        "sender": "08018f7ed13405074dba55a96d1cf9394633711c09af87616937c7d6090403ef",
        "received": "f54f3aad7c8572afab68741c35687080611b60fb0b6c21e1dde525894feace35",
        "receiver": "bf17abbb02f3a473c84dadbc9e4f45b35b5f05772b4aaa1df2f2b6080db2ab25",
    },
    "stream/stride1/markov": {
        "wire": "c02229c1c1506a958597aa7c3095ebb47b23f0829335d2e2a69b8c0501e0f5fc",
        "sender": "08018f7ed13405074dba55a96d1cf9394633711c09af87616937c7d6090403ef",
        "received": "aca6ca48982abc974fccc1270fa57008545dbe1311dd2f1689af100defdf2e29",
        "receiver": "618347a07b594bb2f7197b141025e571debb4bb26563a67cb6e588547cb7e024",
    },
    "stream/wide/lossless": {
        "wire": "a08fb4345c9dd7fe5a7ba591bb8b801629b42fbe62c52134c77ed152aec3e703",
        "sender": "bd4dbd03c96f0a45772fe12bd73d71b5a30e478c4d0e226b7c9dc1b05a750106",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "5edc1bf03ce1428c1d60900fc2eef7a702944ef957c9dbdd789829c26dd375b7",
    },
    "stream/wide/0.1": {
        "wire": "a08fb4345c9dd7fe5a7ba591bb8b801629b42fbe62c52134c77ed152aec3e703",
        "sender": "bd4dbd03c96f0a45772fe12bd73d71b5a30e478c4d0e226b7c9dc1b05a750106",
        "received": "41a8e8d30311ee23d70db91fc7028aa20fa05cf55ef8e50e325a01a29bb253a3",
        "receiver": "836547cda23e057c1b63e20497b001447447064c5d7ca13af3be58636b4a2716",
    },
    "stream/wide/0.3": {
        "wire": "a08fb4345c9dd7fe5a7ba591bb8b801629b42fbe62c52134c77ed152aec3e703",
        "sender": "bd4dbd03c96f0a45772fe12bd73d71b5a30e478c4d0e226b7c9dc1b05a750106",
        "received": "6185b6b7a99b4a7e8c50674b9e5be36c1132213e3f64cb96406798a8b8763937",
        "receiver": "0fca21c34b6592daf56139256ae5724f602a2d57ae07c9e29aeea44cbb07a6ee",
    },
    "stream/wide/blackout": {
        "wire": "a08fb4345c9dd7fe5a7ba591bb8b801629b42fbe62c52134c77ed152aec3e703",
        "sender": "bd4dbd03c96f0a45772fe12bd73d71b5a30e478c4d0e226b7c9dc1b05a750106",
        "received": "0e5d7e79e6d4ad3a19febe177f1588ed392d52592f0a540c72d82ff0b21b2f2b",
        "receiver": "703681f00143d5c1383ef84e4fd691ed41d06a7d38caea2363f97a227bf5ddce",
    },
    "stream/wide/markov": {
        "wire": "a08fb4345c9dd7fe5a7ba591bb8b801629b42fbe62c52134c77ed152aec3e703",
        "sender": "bd4dbd03c96f0a45772fe12bd73d71b5a30e478c4d0e226b7c9dc1b05a750106",
        "received": "83e3423f334984477f0c4641bc7b38ed8c1232067dc78dcb7df4a6861090373f",
        "receiver": "40651062a7f9b9098f2855537ada9efb79fcf2459f453051f5d9ed26585aa2a5",
    },
    "batch/units4/lossless": {
        "wire": "267a49e7a9a2ce839e94f7e30f66b8bbbc73145d61d54df48baafec67f7b300a",
        "sender": "0c5dfe1e7b67d37300b9ec603806ea26aabd9fd995765240191174fe5e183330",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "8239d823908d8ff0a4d4bdbe03b071da8e549e81a9962ea6b46e39f394fedab0",
    },
    "batch/units4/0.1": {
        "wire": "267a49e7a9a2ce839e94f7e30f66b8bbbc73145d61d54df48baafec67f7b300a",
        "sender": "0c5dfe1e7b67d37300b9ec603806ea26aabd9fd995765240191174fe5e183330",
        "received": "1f0159375c3032232f98662503b30b73d29cf44715f02f67ad427f95a74acf66",
        "receiver": "78513302a526898314d4dbd329971cdc385e3505a3ce4250770e3d177fadff51",
    },
    "batch/units4/0.3": {
        "wire": "267a49e7a9a2ce839e94f7e30f66b8bbbc73145d61d54df48baafec67f7b300a",
        "sender": "0c5dfe1e7b67d37300b9ec603806ea26aabd9fd995765240191174fe5e183330",
        "received": "4472829e78149ff48e6e34ed98b2a0ea21eda215c167310d0bf4bb694772f1f8",
        "receiver": "3bc00a8cff58d4aff827a50904d35b1d3c0cf302d081bf46a2fdf231053e1bcf",
    },
    "batch/units4/blackout": {
        "wire": "267a49e7a9a2ce839e94f7e30f66b8bbbc73145d61d54df48baafec67f7b300a",
        "sender": "0c5dfe1e7b67d37300b9ec603806ea26aabd9fd995765240191174fe5e183330",
        "received": "fca451dcfc750e974c9fcaee002473bab9e001217fcc4580f8c357c328a5e73b",
        "receiver": "e9f47829083b080adb87c675bc96fff350e9d3353c4420eb4e316f0a4170fc39",
    },
    "batch/units4/markov": {
        "wire": "267a49e7a9a2ce839e94f7e30f66b8bbbc73145d61d54df48baafec67f7b300a",
        "sender": "0c5dfe1e7b67d37300b9ec603806ea26aabd9fd995765240191174fe5e183330",
        "received": "a4ebf9b984d529cf27d0aab6cbf4d904ce50d4a07a3cebf01e4b79b3e651e741",
        "receiver": "0922a4eec020af92facd53190bb991cfb10fb6fb0f5f2f34037f403bac5e3c50",
    },
    "batch/tail/lossless": {
        "wire": "af6dc3b007322a92898badd00b2ec72ff7856c654166fcc86b536c028a01f34f",
        "sender": "d91cedae216762ad9cbf8621b0c02798ecfb6f2f1e8642e4ca8c80a1522f519e",
        "received": "f26e2fdfebc72e840a83417b5f84ba8ebb7e350c10fcc722456fe96e0afad58a",
        "receiver": "1d9dc9765a312b9cc731f798a851eee7df261563bf99a9fff49b0cd6cc51084e",
    },
    "batch/tail/0.1": {
        "wire": "af6dc3b007322a92898badd00b2ec72ff7856c654166fcc86b536c028a01f34f",
        "sender": "d91cedae216762ad9cbf8621b0c02798ecfb6f2f1e8642e4ca8c80a1522f519e",
        "received": "9bd8afe19f891d3afc2206ded0fff327feeaa19278e4aec973cb0f65af60952f",
        "receiver": "274fe5982e45be43a7a33cae55bba52ace635fecf7290c64c243a891dd20989e",
    },
    "batch/tail/0.3": {
        "wire": "af6dc3b007322a92898badd00b2ec72ff7856c654166fcc86b536c028a01f34f",
        "sender": "d91cedae216762ad9cbf8621b0c02798ecfb6f2f1e8642e4ca8c80a1522f519e",
        "received": "ad52144b0c9992f6b8b3420837fe18e03554fed31ee964329599358e3c855578",
        "receiver": "eff2a156266f1539788d33cd5f8b4bf5f38f2d01debb50f56544ca164d450ea4",
    },
    "batch/tail/blackout": {
        "wire": "af6dc3b007322a92898badd00b2ec72ff7856c654166fcc86b536c028a01f34f",
        "sender": "d91cedae216762ad9cbf8621b0c02798ecfb6f2f1e8642e4ca8c80a1522f519e",
        "received": "b537629a43338c0bf554b55844901c4be91350659e83f02f7b855bb1b7f9312f",
        "receiver": "b13d85a990a56658b507121ee3c65b67672b57d72f4d4a20fabd897a8369355e",
    },
    "batch/tail/markov": {
        "wire": "af6dc3b007322a92898badd00b2ec72ff7856c654166fcc86b536c028a01f34f",
        "sender": "d91cedae216762ad9cbf8621b0c02798ecfb6f2f1e8642e4ca8c80a1522f519e",
        "received": "de1b8a5304063d8bddb890aa895e9ace18f090fd933041ae7e3115ab8fdc44eb",
        "receiver": "fdff68ad98c261a8826cab3bc34deab3d067ee36a492d2746168ada720ddfa1a",
    },
    "stream/tight/lossless": {
        "wire": "a556d3a2a6d20147e0b02c9eefb4c39e0b2e98a8a391548d477e15f59b9e44f3",
        "sender": "08e4f7204d0c4ef9775b0fc21dec902e5fa509555a101199f1a8d0bf55341ba9",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "314c06aee7550820b5e18d27827bfa211f00cca1fdf1355bfbda6043d9d5a2fe",
    },
    "stream/tight/0.1": {
        "wire": "a556d3a2a6d20147e0b02c9eefb4c39e0b2e98a8a391548d477e15f59b9e44f3",
        "sender": "08e4f7204d0c4ef9775b0fc21dec902e5fa509555a101199f1a8d0bf55341ba9",
        "received": "9011ffee1ce160cb82e56c3321029169ec62bf28de64c69906fce8deca24ea1e",
        "receiver": "4ee10e13540147a9cfc5f0c5c43e92dee7ec8aaa96f7a4bf1f513fe7626b70b2",
    },
    "stream/tight/0.3": {
        "wire": "a556d3a2a6d20147e0b02c9eefb4c39e0b2e98a8a391548d477e15f59b9e44f3",
        "sender": "08e4f7204d0c4ef9775b0fc21dec902e5fa509555a101199f1a8d0bf55341ba9",
        "received": "6639a3e886a84a81a546feaf87966389fa16660d39dcccb2e02fd4bcb0b0646e",
        "receiver": "612a5fab2d9edad13223244203f6a05011311f53d2ef063c713375e615dd89a2",
    },
    "stream/tight/blackout": {
        "wire": "a556d3a2a6d20147e0b02c9eefb4c39e0b2e98a8a391548d477e15f59b9e44f3",
        "sender": "08e4f7204d0c4ef9775b0fc21dec902e5fa509555a101199f1a8d0bf55341ba9",
        "received": "1394e79c67cbe42915a0b8c96bdfbfff9877965a9af375f9946bea22d4f31e21",
        "receiver": "3494aee47243712985e7d3845ff1a3028d745ad76fe71fe6b3f159c4c595b7d1",
    },
    "stream/tight/markov": {
        "wire": "a556d3a2a6d20147e0b02c9eefb4c39e0b2e98a8a391548d477e15f59b9e44f3",
        "sender": "08e4f7204d0c4ef9775b0fc21dec902e5fa509555a101199f1a8d0bf55341ba9",
        "received": "4b8f940f0ea55123332cec00ceea970bd0b165f3e120866c4d5049c63406b0ea",
        "receiver": "c123c328a44f744f843f36eada6e4102903efe95971c649cd34cc2961034eef3",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(corpus, name):
    model, grid = corpus
    kind, mode, channel = name.split("/")
    if kind == "batch":
        got = run_batch(model, grid, mode, channel)
    else:
        got = run_stream(model, grid, mode, channel)
    assert got == GOLDEN[name]



# The golden corpus's count model file. Only this pure-integer training is
# pinned: a model trained through the RVQ codec depends on BLAS matmuls,
# which may round differently between hosts.
MODEL_DIGEST = "2eb91345b5f25df9af6ebfa747c61b984e560fa519ef956406e970534ea7cc5e"


def test_golden_model_file(corpus, tmp_path):
    path = tmp_path / "golden.ctx"
    save_count_model(path, corpus[0])
    assert model_digest(path) == MODEL_DIGEST

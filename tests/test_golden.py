"""Golden regression digests for batch and streaming transport.

Each scenario runs a fixed, seeded token grid through a drop-only channel
and pins the SHA-256 of what it produced: the wire bytes, the sender's bit
accounting, the received tokens and states, and the receiver's report (for
streams: every release plus the receiver's counters). A refactor of the
transceiver must leave every digest unchanged. The channels only drop
whole packets, so the outcome never depends on how an undecodable payload
is classified.
"""

import hashlib
import json

import numpy as np
import pytest

from tokenwire.context import TrainSchedule, train_count_model
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
        keep = np.array([p.gos_id not in (1, 2) for p in packets])
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
        "wire": "445ea5c0c5d84957064fbd1e6f32d531afac3ff4bea1b4492e0db142d2fcf7ff",
        "sender": "a130cee627faa7e78dc267cc87211390c905296dfc36e51c96315764fa9b16b1",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "8239d823908d8ff0a4d4bdbe03b071da8e549e81a9962ea6b46e39f394fedab0",
    },
    "batch/8/0.1": {
        "wire": "445ea5c0c5d84957064fbd1e6f32d531afac3ff4bea1b4492e0db142d2fcf7ff",
        "sender": "a130cee627faa7e78dc267cc87211390c905296dfc36e51c96315764fa9b16b1",
        "received": "454115f45698f82397e3947a3b3c8136a19c1dae84963cdc63a0b6f90f20135d",
        "receiver": "d5930db16b452b226db0e24e4164b48c0e2bd8afc22d06922edbd4e09f85f9cf",
    },
    "batch/8/0.3": {
        "wire": "445ea5c0c5d84957064fbd1e6f32d531afac3ff4bea1b4492e0db142d2fcf7ff",
        "sender": "a130cee627faa7e78dc267cc87211390c905296dfc36e51c96315764fa9b16b1",
        "received": "db37cd7c9ad183bca9b208bc40790229d443f5ebf9b0e4964ba28763bcd2648d",
        "receiver": "7adf230c4f3d547faace22d83818a0834fc9efde800db3faa2eeaef07ef152f8",
    },
    "batch/8/blackout": {
        "wire": "445ea5c0c5d84957064fbd1e6f32d531afac3ff4bea1b4492e0db142d2fcf7ff",
        "sender": "a130cee627faa7e78dc267cc87211390c905296dfc36e51c96315764fa9b16b1",
        "received": "d11e573e0f150436b79f12f2c5cc7ea42b78c76c3973a278cd46766ab2a42090",
        "receiver": "a129e53383e6244faf210e27dfac0d2608a59f7b4ef9a597a04235cc70255225",
    },
    "batch/8/markov": {
        "wire": "445ea5c0c5d84957064fbd1e6f32d531afac3ff4bea1b4492e0db142d2fcf7ff",
        "sender": "a130cee627faa7e78dc267cc87211390c905296dfc36e51c96315764fa9b16b1",
        "received": "3eaeef36c27099e8495cb8d0a7429c825a91c241bc6fb69cbda7947661d34f1d",
        "receiver": "fffb3b0c4f4f5c4197798309d23e62be270ec1d1e2dfd7e7cac3ac4e537ed02f",
    },
    "batch/5/lossless": {
        "wire": "56df6e9ba4275a5a89c94328dda092d67c9308a0ba4282b100eebe3722874567",
        "sender": "7ded32ae449eacbc78a0a0c3e5bba5682d24640acc68ad231a5488813c0cc2fa",
        "received": "a8faf11c753db5487f1134f670fcdb5307be9bc63b76b49fc7db23a84dcc136d",
        "receiver": "2c2da278bc7b158602da9e1fda5aead2c21a1faaef864089cb88a1187f4f8fb5",
    },
    "batch/5/0.1": {
        "wire": "56df6e9ba4275a5a89c94328dda092d67c9308a0ba4282b100eebe3722874567",
        "sender": "7ded32ae449eacbc78a0a0c3e5bba5682d24640acc68ad231a5488813c0cc2fa",
        "received": "a6931947525ead1f1d00dd0021d4a155c303c29f310983b68f3ccac729339500",
        "receiver": "aff3939a611aa909b470f397e6828e6016bea41c212c08684b6462903e47e756",
    },
    "batch/5/0.3": {
        "wire": "56df6e9ba4275a5a89c94328dda092d67c9308a0ba4282b100eebe3722874567",
        "sender": "7ded32ae449eacbc78a0a0c3e5bba5682d24640acc68ad231a5488813c0cc2fa",
        "received": "15751b3cc563f3485431629c7c8e5deacc7859957b5d016c958db8444ff6baa7",
        "receiver": "a687015f4a69b00d52796edbae4a5d81728cb1aa6139fb20883702b3473aed12",
    },
    "batch/5/blackout": {
        "wire": "56df6e9ba4275a5a89c94328dda092d67c9308a0ba4282b100eebe3722874567",
        "sender": "7ded32ae449eacbc78a0a0c3e5bba5682d24640acc68ad231a5488813c0cc2fa",
        "received": "86246d30f63de7c070d9e2b405e878f0a526e2ac7f50f4281444d0b392215928",
        "receiver": "84d5b703ef1d0245036b38081f5629518e102af46c9c8834d00389549dd0d4f5",
    },
    "batch/5/markov": {
        "wire": "56df6e9ba4275a5a89c94328dda092d67c9308a0ba4282b100eebe3722874567",
        "sender": "7ded32ae449eacbc78a0a0c3e5bba5682d24640acc68ad231a5488813c0cc2fa",
        "received": "a8faf11c753db5487f1134f670fcdb5307be9bc63b76b49fc7db23a84dcc136d",
        "receiver": "5f16999bfa1591b4343611d7f53048c7f5678db7550edca4f3db9389f588b42d",
    },
    "stream/default/lossless": {
        "wire": "b4707d744e1ce854352f6fd406c20f21c59b035ffe20db4211d6a6d5aea611a8",
        "sender": "7a968f22445ab0ead18f8ef746de031e0a4723bbaeee0ea6bf94295dd4483b4f",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "688a6fbb040903aca8698b71ca8cd9fcec2d24ab34235bb476382fcf770b72d8",
    },
    "stream/default/0.1": {
        "wire": "b4707d744e1ce854352f6fd406c20f21c59b035ffe20db4211d6a6d5aea611a8",
        "sender": "7a968f22445ab0ead18f8ef746de031e0a4723bbaeee0ea6bf94295dd4483b4f",
        "received": "1f5618e2420c3a3b0fd173e1cd23d18f5576355b354f623bbd511645a4eb1ef6",
        "receiver": "0453c77f2825b36a31865925ebddbbe63cbf7e07c9a376efeb591d5b8dd631ef",
    },
    "stream/default/0.3": {
        "wire": "b4707d744e1ce854352f6fd406c20f21c59b035ffe20db4211d6a6d5aea611a8",
        "sender": "7a968f22445ab0ead18f8ef746de031e0a4723bbaeee0ea6bf94295dd4483b4f",
        "received": "5a696f6133571c503550ec77894ef2c621069bfb43df5f0bff8fc696b412ce50",
        "receiver": "7eb744b012239f5a7a6a57c9d911e3ca23e94eebc1bbc1adf8e469af8929b53f",
    },
    "stream/default/blackout": {
        "wire": "b4707d744e1ce854352f6fd406c20f21c59b035ffe20db4211d6a6d5aea611a8",
        "sender": "7a968f22445ab0ead18f8ef746de031e0a4723bbaeee0ea6bf94295dd4483b4f",
        "received": "508c5dcb24c84b3e009edf4be47f7c5db5a39ae592e0d6fa8e263cdf51647a4f",
        "receiver": "1427c1e3083ba2aab14c57af6f5622f8cbc92ba6ace06420624ef5497be49957",
    },
    "stream/default/markov": {
        "wire": "b4707d744e1ce854352f6fd406c20f21c59b035ffe20db4211d6a6d5aea611a8",
        "sender": "7a968f22445ab0ead18f8ef746de031e0a4723bbaeee0ea6bf94295dd4483b4f",
        "received": "f27f928515e33e4c73f75394fe60848ba7538595ed112a0f5a73d2bca18a3a7a",
        "receiver": "8af0d5c0111355f46bcc4be20dd6c3fb0b6662f89396e7a79e818e31834d7a14",
    },
    "stream/stride1/lossless": {
        "wire": "8a32bee5c446212cc5e66c0a6bb4d1b3f8f6928a260c9e33ff39260543dec544",
        "sender": "c78ddd3fb2e31b55abf54ef5240f1dc3754f2ffafdf6c8db31c1c9ea603b4eb4",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "a86118c02a088cb8ae750eac7c310e69807b6d8fa7341f3a45d4478941bd946e",
    },
    "stream/stride1/0.1": {
        "wire": "8a32bee5c446212cc5e66c0a6bb4d1b3f8f6928a260c9e33ff39260543dec544",
        "sender": "c78ddd3fb2e31b55abf54ef5240f1dc3754f2ffafdf6c8db31c1c9ea603b4eb4",
        "received": "b6a559a09eb9b7fbe7adee050afb81126bea126b0c081a09aa3c43bfdba28608",
        "receiver": "a8f2db97b14c51929d36c54b54600268d852412ad5d0b146f30374683d7d6b90",
    },
    "stream/stride1/0.3": {
        "wire": "8a32bee5c446212cc5e66c0a6bb4d1b3f8f6928a260c9e33ff39260543dec544",
        "sender": "c78ddd3fb2e31b55abf54ef5240f1dc3754f2ffafdf6c8db31c1c9ea603b4eb4",
        "received": "f4369f0f159bd19fc0e239b13e2d2dacc428f054b9d38c2712a49a0623c63422",
        "receiver": "0951ac5f99c571d1c7b18f6ec3c89dcc69b0d11f37efc2497ecb3fcb9c0c1a3f",
    },
    "stream/stride1/blackout": {
        "wire": "8a32bee5c446212cc5e66c0a6bb4d1b3f8f6928a260c9e33ff39260543dec544",
        "sender": "c78ddd3fb2e31b55abf54ef5240f1dc3754f2ffafdf6c8db31c1c9ea603b4eb4",
        "received": "f54f3aad7c8572afab68741c35687080611b60fb0b6c21e1dde525894feace35",
        "receiver": "bf17abbb02f3a473c84dadbc9e4f45b35b5f05772b4aaa1df2f2b6080db2ab25",
    },
    "stream/stride1/markov": {
        "wire": "8a32bee5c446212cc5e66c0a6bb4d1b3f8f6928a260c9e33ff39260543dec544",
        "sender": "c78ddd3fb2e31b55abf54ef5240f1dc3754f2ffafdf6c8db31c1c9ea603b4eb4",
        "received": "9f24b44ed636069da98f0c5bbbd64d782318c15ef73e79775be9fb1fd0999d8a",
        "receiver": "b3f7843ced25435765876692c3b31c90d9eb6a8397d39bfd4a8afee469b501bc",
    },
    "stream/wide/lossless": {
        "wire": "1a699c42cd03e00869d6046d44279b0172db14b31dbc2be314035c9f7fae67c0",
        "sender": "7a968f22445ab0ead18f8ef746de031e0a4723bbaeee0ea6bf94295dd4483b4f",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "5edc1bf03ce1428c1d60900fc2eef7a702944ef957c9dbdd789829c26dd375b7",
    },
    "stream/wide/0.1": {
        "wire": "1a699c42cd03e00869d6046d44279b0172db14b31dbc2be314035c9f7fae67c0",
        "sender": "7a968f22445ab0ead18f8ef746de031e0a4723bbaeee0ea6bf94295dd4483b4f",
        "received": "b4f20e9e9716a5b4b19373d017939bd13561064c931085f1fd58aa52e193e0f1",
        "receiver": "009ec3b06f79542693185a2af4a3f7029f6651228e070a19a46393dadc2971fb",
    },
    "stream/wide/0.3": {
        "wire": "1a699c42cd03e00869d6046d44279b0172db14b31dbc2be314035c9f7fae67c0",
        "sender": "7a968f22445ab0ead18f8ef746de031e0a4723bbaeee0ea6bf94295dd4483b4f",
        "received": "83ab524e3c344da16d068fdfad975bf42415158bd89c3a1cbd9b71836dfdc001",
        "receiver": "d987740bf14b9dafe06191edc9d0d58c57402eede4d49c5d203c7b84916d9977",
    },
    "stream/wide/blackout": {
        "wire": "1a699c42cd03e00869d6046d44279b0172db14b31dbc2be314035c9f7fae67c0",
        "sender": "7a968f22445ab0ead18f8ef746de031e0a4723bbaeee0ea6bf94295dd4483b4f",
        "received": "0e5d7e79e6d4ad3a19febe177f1588ed392d52592f0a540c72d82ff0b21b2f2b",
        "receiver": "703681f00143d5c1383ef84e4fd691ed41d06a7d38caea2363f97a227bf5ddce",
    },
    "stream/wide/markov": {
        "wire": "1a699c42cd03e00869d6046d44279b0172db14b31dbc2be314035c9f7fae67c0",
        "sender": "7a968f22445ab0ead18f8ef746de031e0a4723bbaeee0ea6bf94295dd4483b4f",
        "received": "4006f1f033cf8b5c140c8a232b0ac1ec479c86aef15e497d0554db7890b6e927",
        "receiver": "e861e8f014f0902235af76ff5af4a2104479f835dcd837610a4daa36c5025261",
    },
    "batch/units4/lossless": {
        "wire": "a55367dfc6f2cf57d6f898cee3047b5362cf5e2503a12a4a31ae1b2182f5e85b",
        "sender": "9861bb69eed68297ca0269929115eec2113454c6175d82af09946be6600e1f8e",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "8239d823908d8ff0a4d4bdbe03b071da8e549e81a9962ea6b46e39f394fedab0",
    },
    "batch/units4/0.1": {
        "wire": "a55367dfc6f2cf57d6f898cee3047b5362cf5e2503a12a4a31ae1b2182f5e85b",
        "sender": "9861bb69eed68297ca0269929115eec2113454c6175d82af09946be6600e1f8e",
        "received": "7a9b205d6af43e22abc0d5b277295aba8fa7e654676b88ce64eb244ac091ff25",
        "receiver": "82d88df22629a16e690e76f47fd877a7eae8461bb5afb7eedcbe33812c9a1a15",
    },
    "batch/units4/0.3": {
        "wire": "a55367dfc6f2cf57d6f898cee3047b5362cf5e2503a12a4a31ae1b2182f5e85b",
        "sender": "9861bb69eed68297ca0269929115eec2113454c6175d82af09946be6600e1f8e",
        "received": "1fce97adcdfc2b0f1403f7065ab9416b15f7ca08e0e120da018d5aa55677732b",
        "receiver": "13b20bbdeb14e0b9d3ae64ac19640b88313f71a49a44c6f34bb2970d516e772b",
    },
    "batch/units4/blackout": {
        "wire": "a55367dfc6f2cf57d6f898cee3047b5362cf5e2503a12a4a31ae1b2182f5e85b",
        "sender": "9861bb69eed68297ca0269929115eec2113454c6175d82af09946be6600e1f8e",
        "received": "fca451dcfc750e974c9fcaee002473bab9e001217fcc4580f8c357c328a5e73b",
        "receiver": "e9f47829083b080adb87c675bc96fff350e9d3353c4420eb4e316f0a4170fc39",
    },
    "batch/units4/markov": {
        "wire": "a55367dfc6f2cf57d6f898cee3047b5362cf5e2503a12a4a31ae1b2182f5e85b",
        "sender": "9861bb69eed68297ca0269929115eec2113454c6175d82af09946be6600e1f8e",
        "received": "79cb1630be0c22a94b962f2a2f0af0cd6532e1d7ca5ad9d5669fc86f7d8c4424",
        "receiver": "7ae84846453e7a55c1a147343ed146fa64bc2ffe3852926d982179e1663c5b98",
    },
    "batch/tail/lossless": {
        "wire": "9a0ccbaa5da9bf8f035945f4fcb0bb1e753a9f3a30f1a040ee08192d42060f3f",
        "sender": "66127b17001aee04b762e1314353c7363df315f646e5078221a67d9d386b92f1",
        "received": "f26e2fdfebc72e840a83417b5f84ba8ebb7e350c10fcc722456fe96e0afad58a",
        "receiver": "1d9dc9765a312b9cc731f798a851eee7df261563bf99a9fff49b0cd6cc51084e",
    },
    "batch/tail/0.1": {
        "wire": "9a0ccbaa5da9bf8f035945f4fcb0bb1e753a9f3a30f1a040ee08192d42060f3f",
        "sender": "66127b17001aee04b762e1314353c7363df315f646e5078221a67d9d386b92f1",
        "received": "61aef9b4700e3e2ab0baf1d970a30bffa156a7ef17d1f3e9e36a06b2b205ac40",
        "receiver": "8a5c2d0b47a7af61341f40d9aeb91bc2f65d768a6652ca703f9b9e327768b980",
    },
    "batch/tail/0.3": {
        "wire": "9a0ccbaa5da9bf8f035945f4fcb0bb1e753a9f3a30f1a040ee08192d42060f3f",
        "sender": "66127b17001aee04b762e1314353c7363df315f646e5078221a67d9d386b92f1",
        "received": "1dc3cf322643f6e1b4099c501504c9abbac657c8b16113624cd7fab9a3d615f4",
        "receiver": "98d0514ac6c48de79ccd161c984abe53ab99d6a4e2171f067ad187785cffde9d",
    },
    "batch/tail/blackout": {
        "wire": "9a0ccbaa5da9bf8f035945f4fcb0bb1e753a9f3a30f1a040ee08192d42060f3f",
        "sender": "66127b17001aee04b762e1314353c7363df315f646e5078221a67d9d386b92f1",
        "received": "b537629a43338c0bf554b55844901c4be91350659e83f02f7b855bb1b7f9312f",
        "receiver": "b13d85a990a56658b507121ee3c65b67672b57d72f4d4a20fabd897a8369355e",
    },
    "batch/tail/markov": {
        "wire": "9a0ccbaa5da9bf8f035945f4fcb0bb1e753a9f3a30f1a040ee08192d42060f3f",
        "sender": "66127b17001aee04b762e1314353c7363df315f646e5078221a67d9d386b92f1",
        "received": "6e12d9d06143f542f01200b50b505f4ce1ff34e759d8b19b7502b3ae0f149f25",
        "receiver": "1adf7eaad067d5d7a0610b3f9e88676394cdec3bb2574956b8f820cbfeb6401c",
    },
    "stream/tight/lossless": {
        "wire": "92b8c086c777c23e58d74eedc0adef2ec448c3c1e80cce9f41dbe9bb131d9ca3",
        "sender": "1c1db5d6463e91f204dcc67e3165f89cd17afef08efa8b8e903a2033e4904382",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "314c06aee7550820b5e18d27827bfa211f00cca1fdf1355bfbda6043d9d5a2fe",
    },
    "stream/tight/0.1": {
        "wire": "92b8c086c777c23e58d74eedc0adef2ec448c3c1e80cce9f41dbe9bb131d9ca3",
        "sender": "1c1db5d6463e91f204dcc67e3165f89cd17afef08efa8b8e903a2033e4904382",
        "received": "6185181e370b97c5e59a9ac5aff9e22770ba09f08baca29249fb9df990572020",
        "receiver": "19ed31000d9b3d8ddb0561f880aeda1ff87728077eaf8864f013f3cd4e6694a0",
    },
    "stream/tight/0.3": {
        "wire": "92b8c086c777c23e58d74eedc0adef2ec448c3c1e80cce9f41dbe9bb131d9ca3",
        "sender": "1c1db5d6463e91f204dcc67e3165f89cd17afef08efa8b8e903a2033e4904382",
        "received": "b4bc40d5140537073aeebb5b22ee9e7cf398656eff9ccf708ee9cc089b9e7c90",
        "receiver": "f10c88d338db70bb71838fd72e5139190e61c1fe6691444ed28c3b12b3568bf0",
    },
    "stream/tight/blackout": {
        "wire": "92b8c086c777c23e58d74eedc0adef2ec448c3c1e80cce9f41dbe9bb131d9ca3",
        "sender": "1c1db5d6463e91f204dcc67e3165f89cd17afef08efa8b8e903a2033e4904382",
        "received": "be7ee9647f80004a5cbc2cb9217ea0ae063e8d4e0bdfb655be972470e9e01f15",
        "receiver": "bd802bbcd9db309317140abb0d6839d67fc235a933f75f0c8289c0ad99fe16c6",
    },
    "stream/tight/markov": {
        "wire": "92b8c086c777c23e58d74eedc0adef2ec448c3c1e80cce9f41dbe9bb131d9ca3",
        "sender": "1c1db5d6463e91f204dcc67e3165f89cd17afef08efa8b8e903a2033e4904382",
        "received": "8149e3fab38766ab41f668fd823404e2a8fa34eb439bc989f8a91902b486b8ce",
        "receiver": "b2c88dafd74981575d6e300880194f7ad8c65f46b51127883ca8e60b207deea2",
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


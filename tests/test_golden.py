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
        "wire": "1535096f15b62563a9009b119dc1a344ebd7066c1fbc4e3a33b22b912dceb23d",
        "sender": "caa6df896deda15fe8651fdf01dad67b36042d72dc194e1541848057559fd285",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "8239d823908d8ff0a4d4bdbe03b071da8e549e81a9962ea6b46e39f394fedab0",
    },
    "batch/8/0.1": {
        "wire": "1535096f15b62563a9009b119dc1a344ebd7066c1fbc4e3a33b22b912dceb23d",
        "sender": "caa6df896deda15fe8651fdf01dad67b36042d72dc194e1541848057559fd285",
        "received": "454115f45698f82397e3947a3b3c8136a19c1dae84963cdc63a0b6f90f20135d",
        "receiver": "d5930db16b452b226db0e24e4164b48c0e2bd8afc22d06922edbd4e09f85f9cf",
    },
    "batch/8/0.3": {
        "wire": "1535096f15b62563a9009b119dc1a344ebd7066c1fbc4e3a33b22b912dceb23d",
        "sender": "caa6df896deda15fe8651fdf01dad67b36042d72dc194e1541848057559fd285",
        "received": "db37cd7c9ad183bca9b208bc40790229d443f5ebf9b0e4964ba28763bcd2648d",
        "receiver": "7adf230c4f3d547faace22d83818a0834fc9efde800db3faa2eeaef07ef152f8",
    },
    "batch/8/blackout": {
        "wire": "1535096f15b62563a9009b119dc1a344ebd7066c1fbc4e3a33b22b912dceb23d",
        "sender": "caa6df896deda15fe8651fdf01dad67b36042d72dc194e1541848057559fd285",
        "received": "d11e573e0f150436b79f12f2c5cc7ea42b78c76c3973a278cd46766ab2a42090",
        "receiver": "a129e53383e6244faf210e27dfac0d2608a59f7b4ef9a597a04235cc70255225",
    },
    "batch/8/markov": {
        "wire": "1535096f15b62563a9009b119dc1a344ebd7066c1fbc4e3a33b22b912dceb23d",
        "sender": "caa6df896deda15fe8651fdf01dad67b36042d72dc194e1541848057559fd285",
        "received": "3eaeef36c27099e8495cb8d0a7429c825a91c241bc6fb69cbda7947661d34f1d",
        "receiver": "fffb3b0c4f4f5c4197798309d23e62be270ec1d1e2dfd7e7cac3ac4e537ed02f",
    },
    "batch/5/lossless": {
        "wire": "5b44d8d43c6a1b0c31a4ea874257949680f1db35273f675754a92e212f26cebf",
        "sender": "8927808a7e9394f2f58fc820f8e4a6381efa9d5c6fa6a3711c7cbeb423249e55",
        "received": "a8faf11c753db5487f1134f670fcdb5307be9bc63b76b49fc7db23a84dcc136d",
        "receiver": "2c2da278bc7b158602da9e1fda5aead2c21a1faaef864089cb88a1187f4f8fb5",
    },
    "batch/5/0.1": {
        "wire": "5b44d8d43c6a1b0c31a4ea874257949680f1db35273f675754a92e212f26cebf",
        "sender": "8927808a7e9394f2f58fc820f8e4a6381efa9d5c6fa6a3711c7cbeb423249e55",
        "received": "a6931947525ead1f1d00dd0021d4a155c303c29f310983b68f3ccac729339500",
        "receiver": "aff3939a611aa909b470f397e6828e6016bea41c212c08684b6462903e47e756",
    },
    "batch/5/0.3": {
        "wire": "5b44d8d43c6a1b0c31a4ea874257949680f1db35273f675754a92e212f26cebf",
        "sender": "8927808a7e9394f2f58fc820f8e4a6381efa9d5c6fa6a3711c7cbeb423249e55",
        "received": "15751b3cc563f3485431629c7c8e5deacc7859957b5d016c958db8444ff6baa7",
        "receiver": "a687015f4a69b00d52796edbae4a5d81728cb1aa6139fb20883702b3473aed12",
    },
    "batch/5/blackout": {
        "wire": "5b44d8d43c6a1b0c31a4ea874257949680f1db35273f675754a92e212f26cebf",
        "sender": "8927808a7e9394f2f58fc820f8e4a6381efa9d5c6fa6a3711c7cbeb423249e55",
        "received": "86246d30f63de7c070d9e2b405e878f0a526e2ac7f50f4281444d0b392215928",
        "receiver": "84d5b703ef1d0245036b38081f5629518e102af46c9c8834d00389549dd0d4f5",
    },
    "batch/5/markov": {
        "wire": "5b44d8d43c6a1b0c31a4ea874257949680f1db35273f675754a92e212f26cebf",
        "sender": "8927808a7e9394f2f58fc820f8e4a6381efa9d5c6fa6a3711c7cbeb423249e55",
        "received": "a8faf11c753db5487f1134f670fcdb5307be9bc63b76b49fc7db23a84dcc136d",
        "receiver": "5f16999bfa1591b4343611d7f53048c7f5678db7550edca4f3db9389f588b42d",
    },
    "stream/default/lossless": {
        "wire": "5a34e39e1af56b7a61114a9daedc69c65b41d2580e819d62b9835908093631e0",
        "sender": "c901ca5d3c465e05e2081e74019a5cf397795b91fb6f4e6cd977a4436b2c15fb",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "688a6fbb040903aca8698b71ca8cd9fcec2d24ab34235bb476382fcf770b72d8",
    },
    "stream/default/0.1": {
        "wire": "5a34e39e1af56b7a61114a9daedc69c65b41d2580e819d62b9835908093631e0",
        "sender": "c901ca5d3c465e05e2081e74019a5cf397795b91fb6f4e6cd977a4436b2c15fb",
        "received": "82c4c530898d9b4f63dbdc79caf2b05d635e60165bd718542604ae32ca4299f4",
        "receiver": "a3fd2e1cb035e4fd617746914ac9bf34b377bb1ed66db635b0b4c0b4ff6bf4ca",
    },
    "stream/default/0.3": {
        "wire": "5a34e39e1af56b7a61114a9daedc69c65b41d2580e819d62b9835908093631e0",
        "sender": "c901ca5d3c465e05e2081e74019a5cf397795b91fb6f4e6cd977a4436b2c15fb",
        "received": "41ab936eddabfe0d5cbb58ce081460a140fea68d59ddb8c05fe72a118db7164b",
        "receiver": "37b4558e7dd6247f372559b2137a59e19546c3e1b1852b1a3ecd23e33f97fd97",
    },
    "stream/default/blackout": {
        "wire": "5a34e39e1af56b7a61114a9daedc69c65b41d2580e819d62b9835908093631e0",
        "sender": "c901ca5d3c465e05e2081e74019a5cf397795b91fb6f4e6cd977a4436b2c15fb",
        "received": "ab154196e7c77102586cabbf4b63392d025efe8eb32a9926ba7d686ccf6aa3f2",
        "receiver": "22d09fadead7e14a136704bc59df57af8230c3ccf792c43f5a4481b231729f54",
    },
    "stream/default/markov": {
        "wire": "5a34e39e1af56b7a61114a9daedc69c65b41d2580e819d62b9835908093631e0",
        "sender": "c901ca5d3c465e05e2081e74019a5cf397795b91fb6f4e6cd977a4436b2c15fb",
        "received": "a6b8f7c82a1788f7703c76ebe85a3a0ef439edd8ddacac4f4afe8199b14cd42b",
        "receiver": "f8680277972cc8e2aee3cfcc815c6e272ddf607dda4456ecbe9614528311d787",
    },
    "stream/stride1/lossless": {
        "wire": "07b9ab93038d1517593cdc9b366a637b5a308f8af2ee81cd8e90a20745f9bd27",
        "sender": "b5d12b99036193a825216c33e50f65691f16894080f6e2bb0dfaf4b7503dd682",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "a86118c02a088cb8ae750eac7c310e69807b6d8fa7341f3a45d4478941bd946e",
    },
    "stream/stride1/0.1": {
        "wire": "07b9ab93038d1517593cdc9b366a637b5a308f8af2ee81cd8e90a20745f9bd27",
        "sender": "b5d12b99036193a825216c33e50f65691f16894080f6e2bb0dfaf4b7503dd682",
        "received": "b6a559a09eb9b7fbe7adee050afb81126bea126b0c081a09aa3c43bfdba28608",
        "receiver": "a8f2db97b14c51929d36c54b54600268d852412ad5d0b146f30374683d7d6b90",
    },
    "stream/stride1/0.3": {
        "wire": "07b9ab93038d1517593cdc9b366a637b5a308f8af2ee81cd8e90a20745f9bd27",
        "sender": "b5d12b99036193a825216c33e50f65691f16894080f6e2bb0dfaf4b7503dd682",
        "received": "f4369f0f159bd19fc0e239b13e2d2dacc428f054b9d38c2712a49a0623c63422",
        "receiver": "0951ac5f99c571d1c7b18f6ec3c89dcc69b0d11f37efc2497ecb3fcb9c0c1a3f",
    },
    "stream/stride1/blackout": {
        "wire": "07b9ab93038d1517593cdc9b366a637b5a308f8af2ee81cd8e90a20745f9bd27",
        "sender": "b5d12b99036193a825216c33e50f65691f16894080f6e2bb0dfaf4b7503dd682",
        "received": "f54f3aad7c8572afab68741c35687080611b60fb0b6c21e1dde525894feace35",
        "receiver": "bf17abbb02f3a473c84dadbc9e4f45b35b5f05772b4aaa1df2f2b6080db2ab25",
    },
    "stream/stride1/markov": {
        "wire": "07b9ab93038d1517593cdc9b366a637b5a308f8af2ee81cd8e90a20745f9bd27",
        "sender": "b5d12b99036193a825216c33e50f65691f16894080f6e2bb0dfaf4b7503dd682",
        "received": "9f24b44ed636069da98f0c5bbbd64d782318c15ef73e79775be9fb1fd0999d8a",
        "receiver": "b3f7843ced25435765876692c3b31c90d9eb6a8397d39bfd4a8afee469b501bc",
    },
    "stream/wide/lossless": {
        "wire": "96360b8dfa21f5ee0cc05e1568c8c12a2828deca9d2340d1b18fdd03cf63fa35",
        "sender": "5f84af7dc1306d12d498964988e7e1d00fbd9e1caa1ad67f5f298fd8a64419c4",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "5edc1bf03ce1428c1d60900fc2eef7a702944ef957c9dbdd789829c26dd375b7",
    },
    "stream/wide/0.1": {
        "wire": "96360b8dfa21f5ee0cc05e1568c8c12a2828deca9d2340d1b18fdd03cf63fa35",
        "sender": "5f84af7dc1306d12d498964988e7e1d00fbd9e1caa1ad67f5f298fd8a64419c4",
        "received": "df23d470ce2ed1939240a2f1d7ceb90a0979c9a67bba2fb2535c0cc9092a339f",
        "receiver": "8811fa51a96dc41a2651c153ffc2bbf8a23b8c738d1107bc56dd415d336e5511",
    },
    "stream/wide/0.3": {
        "wire": "96360b8dfa21f5ee0cc05e1568c8c12a2828deca9d2340d1b18fdd03cf63fa35",
        "sender": "5f84af7dc1306d12d498964988e7e1d00fbd9e1caa1ad67f5f298fd8a64419c4",
        "received": "2a77fd12a588c23343c6383be4badf5f29f1ac36916c4cc177f125dd5efb1821",
        "receiver": "c6454c016fecf6a570e51c87fcebe4c796941cbb73ec1b26c76144b4285ce21b",
    },
    "stream/wide/blackout": {
        "wire": "96360b8dfa21f5ee0cc05e1568c8c12a2828deca9d2340d1b18fdd03cf63fa35",
        "sender": "5f84af7dc1306d12d498964988e7e1d00fbd9e1caa1ad67f5f298fd8a64419c4",
        "received": "0e5d7e79e6d4ad3a19febe177f1588ed392d52592f0a540c72d82ff0b21b2f2b",
        "receiver": "703681f00143d5c1383ef84e4fd691ed41d06a7d38caea2363f97a227bf5ddce",
    },
    "stream/wide/markov": {
        "wire": "96360b8dfa21f5ee0cc05e1568c8c12a2828deca9d2340d1b18fdd03cf63fa35",
        "sender": "5f84af7dc1306d12d498964988e7e1d00fbd9e1caa1ad67f5f298fd8a64419c4",
        "received": "f853cae08617a417e9459a208dd14897ca546bac2899237c32dee87817940295",
        "receiver": "d6abcbe6663c8daef3bbe170d453629ab4a9e999b5d1625096c9a128c798c3a4",
    },
    "batch/units4/lossless": {
        "wire": "496f37a08b827d8ac52d1ac5161617c87cd1cf9e27544e67728d9487de497334",
        "sender": "833abf163f936ab968acf0b7fa30903cc44f4572b9a853a740b0eea11123b1e7",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "8239d823908d8ff0a4d4bdbe03b071da8e549e81a9962ea6b46e39f394fedab0",
    },
    "batch/units4/0.1": {
        "wire": "496f37a08b827d8ac52d1ac5161617c87cd1cf9e27544e67728d9487de497334",
        "sender": "833abf163f936ab968acf0b7fa30903cc44f4572b9a853a740b0eea11123b1e7",
        "received": "7a9b205d6af43e22abc0d5b277295aba8fa7e654676b88ce64eb244ac091ff25",
        "receiver": "82d88df22629a16e690e76f47fd877a7eae8461bb5afb7eedcbe33812c9a1a15",
    },
    "batch/units4/0.3": {
        "wire": "496f37a08b827d8ac52d1ac5161617c87cd1cf9e27544e67728d9487de497334",
        "sender": "833abf163f936ab968acf0b7fa30903cc44f4572b9a853a740b0eea11123b1e7",
        "received": "1fce97adcdfc2b0f1403f7065ab9416b15f7ca08e0e120da018d5aa55677732b",
        "receiver": "13b20bbdeb14e0b9d3ae64ac19640b88313f71a49a44c6f34bb2970d516e772b",
    },
    "batch/units4/blackout": {
        "wire": "496f37a08b827d8ac52d1ac5161617c87cd1cf9e27544e67728d9487de497334",
        "sender": "833abf163f936ab968acf0b7fa30903cc44f4572b9a853a740b0eea11123b1e7",
        "received": "fca451dcfc750e974c9fcaee002473bab9e001217fcc4580f8c357c328a5e73b",
        "receiver": "e9f47829083b080adb87c675bc96fff350e9d3353c4420eb4e316f0a4170fc39",
    },
    "batch/units4/markov": {
        "wire": "496f37a08b827d8ac52d1ac5161617c87cd1cf9e27544e67728d9487de497334",
        "sender": "833abf163f936ab968acf0b7fa30903cc44f4572b9a853a740b0eea11123b1e7",
        "received": "79cb1630be0c22a94b962f2a2f0af0cd6532e1d7ca5ad9d5669fc86f7d8c4424",
        "receiver": "7ae84846453e7a55c1a147343ed146fa64bc2ffe3852926d982179e1663c5b98",
    },
    "batch/tail/lossless": {
        "wire": "0d601b6a8607f2c21c4bf70b6401c1027e7dc0fa47530b8a8bc4b636296c1496",
        "sender": "e39e1c7ca7d065fd3ef3fe5e7459d080d2adb3a5d34f69d466743344b2429f8c",
        "received": "f26e2fdfebc72e840a83417b5f84ba8ebb7e350c10fcc722456fe96e0afad58a",
        "receiver": "1d9dc9765a312b9cc731f798a851eee7df261563bf99a9fff49b0cd6cc51084e",
    },
    "batch/tail/0.1": {
        "wire": "0d601b6a8607f2c21c4bf70b6401c1027e7dc0fa47530b8a8bc4b636296c1496",
        "sender": "e39e1c7ca7d065fd3ef3fe5e7459d080d2adb3a5d34f69d466743344b2429f8c",
        "received": "61aef9b4700e3e2ab0baf1d970a30bffa156a7ef17d1f3e9e36a06b2b205ac40",
        "receiver": "8a5c2d0b47a7af61341f40d9aeb91bc2f65d768a6652ca703f9b9e327768b980",
    },
    "batch/tail/0.3": {
        "wire": "0d601b6a8607f2c21c4bf70b6401c1027e7dc0fa47530b8a8bc4b636296c1496",
        "sender": "e39e1c7ca7d065fd3ef3fe5e7459d080d2adb3a5d34f69d466743344b2429f8c",
        "received": "1dc3cf322643f6e1b4099c501504c9abbac657c8b16113624cd7fab9a3d615f4",
        "receiver": "98d0514ac6c48de79ccd161c984abe53ab99d6a4e2171f067ad187785cffde9d",
    },
    "batch/tail/blackout": {
        "wire": "0d601b6a8607f2c21c4bf70b6401c1027e7dc0fa47530b8a8bc4b636296c1496",
        "sender": "e39e1c7ca7d065fd3ef3fe5e7459d080d2adb3a5d34f69d466743344b2429f8c",
        "received": "b537629a43338c0bf554b55844901c4be91350659e83f02f7b855bb1b7f9312f",
        "receiver": "b13d85a990a56658b507121ee3c65b67672b57d72f4d4a20fabd897a8369355e",
    },
    "batch/tail/markov": {
        "wire": "0d601b6a8607f2c21c4bf70b6401c1027e7dc0fa47530b8a8bc4b636296c1496",
        "sender": "e39e1c7ca7d065fd3ef3fe5e7459d080d2adb3a5d34f69d466743344b2429f8c",
        "received": "6e12d9d06143f542f01200b50b505f4ce1ff34e759d8b19b7502b3ae0f149f25",
        "receiver": "1adf7eaad067d5d7a0610b3f9e88676394cdec3bb2574956b8f820cbfeb6401c",
    },
    "stream/tight/lossless": {
        "wire": "c1d42c90fbfc06064db64aa3b0360babda3f7df92d3ea657866b1fd488322b14",
        "sender": "10df2cdf070792cf159375237cd584a18f93e6944baf1d2a4187d27bad94c685",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "314c06aee7550820b5e18d27827bfa211f00cca1fdf1355bfbda6043d9d5a2fe",
    },
    "stream/tight/0.1": {
        "wire": "c1d42c90fbfc06064db64aa3b0360babda3f7df92d3ea657866b1fd488322b14",
        "sender": "10df2cdf070792cf159375237cd584a18f93e6944baf1d2a4187d27bad94c685",
        "received": "c099034cd0f40ebf261c97f618bfda9c7fa351efd295a7944fa919db23068655",
        "receiver": "0b389c9e79dc28d341bfa5fb4c72a251b42824fbc16dc85ab057b439336de2ba",
    },
    "stream/tight/0.3": {
        "wire": "c1d42c90fbfc06064db64aa3b0360babda3f7df92d3ea657866b1fd488322b14",
        "sender": "10df2cdf070792cf159375237cd584a18f93e6944baf1d2a4187d27bad94c685",
        "received": "a3764a5f2f21c6b4e3b6a11310aad12cd2358e338f8cff6fe153cb2193977934",
        "receiver": "800ff62f9590f0bbe51baf9554d05cddc7dcbee724a6ca4e449b06e204027ef0",
    },
    "stream/tight/blackout": {
        "wire": "c1d42c90fbfc06064db64aa3b0360babda3f7df92d3ea657866b1fd488322b14",
        "sender": "10df2cdf070792cf159375237cd584a18f93e6944baf1d2a4187d27bad94c685",
        "received": "fa5194a866cd0f1dab00a668884e80fdcd18a637d2600fe294bf95ed80374a3e",
        "receiver": "fa44b88a567a4e3a6351c87a38057d12f23ad046876991031c82e00edf9a400c",
    },
    "stream/tight/markov": {
        "wire": "c1d42c90fbfc06064db64aa3b0360babda3f7df92d3ea657866b1fd488322b14",
        "sender": "10df2cdf070792cf159375237cd584a18f93e6944baf1d2a4187d27bad94c685",
        "received": "f62cac4a15d166bb526d1ec44ecbba00eb803b941e3a0bc1e4de57d1d3ee71be",
        "receiver": "7723c16c2297cdfae7ae5850be6a935c8a5cb75c16f24dfb73822a3514468d06",
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


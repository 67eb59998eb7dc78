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
GOS = GosConfig(12, 3, 2, 8)
GOS_UNITS4 = GosConfig(12, 4, 2, 8)
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


def _predicted(n: int) -> list:
    """``n_predicted`` in the form the digests were pinned with: the
    receivers once reported a {case: count} dict, with every prediction
    under case 1, and the digests hashed its sorted items."""
    return [(1, n)] if n else []


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
        # the report once carried a copy of the usable depth, got.level,
        # in this place (both int16)
        "receiver": _sha(rrep.state_counts, _predicted(rrep.n_predicted),
                         rrep.n_windows, rrep.n_blackouts, rrep.fec_recovered,
                         got.level),
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
                         _predicted(rx.n_predicted), rx.n_blackouts,
                         rx.fec_recovered, tx.max_latency),
    }


GOLDEN = {
    "batch/8/lossless": {
        "wire": "49673194625640fc157b8e10d59a5cd8fef7013064ac34c3c8cbc3f118789bba",
        "sender": "f1d5f68b1a856bef70543f8730da7a176b6231966828edfae34eca99dbdd86a2",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "8239d823908d8ff0a4d4bdbe03b071da8e549e81a9962ea6b46e39f394fedab0",
    },
    "batch/8/0.1": {
        "wire": "49673194625640fc157b8e10d59a5cd8fef7013064ac34c3c8cbc3f118789bba",
        "sender": "f1d5f68b1a856bef70543f8730da7a176b6231966828edfae34eca99dbdd86a2",
        "received": "3cc52b5ca70138e25229331b0f6725786a47440f8fa0441bdbf11f3538c83d85",
        "receiver": "5b7f282d1b811ac128f6e0c0aa72cc46dc925a4b4cd3b40cca58519fee591245",
    },
    "batch/8/0.3": {
        "wire": "49673194625640fc157b8e10d59a5cd8fef7013064ac34c3c8cbc3f118789bba",
        "sender": "f1d5f68b1a856bef70543f8730da7a176b6231966828edfae34eca99dbdd86a2",
        "received": "6b18aae97b03a01a819d93087a8163b0a549b94dd8904386c970a4a758fd6d68",
        "receiver": "39653907a94f6736005aa023d2cd6d23f5c903568744d4b771d4b079ab63144a",
    },
    "batch/8/blackout": {
        "wire": "49673194625640fc157b8e10d59a5cd8fef7013064ac34c3c8cbc3f118789bba",
        "sender": "f1d5f68b1a856bef70543f8730da7a176b6231966828edfae34eca99dbdd86a2",
        "received": "d11e573e0f150436b79f12f2c5cc7ea42b78c76c3973a278cd46766ab2a42090",
        "receiver": "a129e53383e6244faf210e27dfac0d2608a59f7b4ef9a597a04235cc70255225",
    },
    "batch/8/markov": {
        "wire": "49673194625640fc157b8e10d59a5cd8fef7013064ac34c3c8cbc3f118789bba",
        "sender": "f1d5f68b1a856bef70543f8730da7a176b6231966828edfae34eca99dbdd86a2",
        "received": "54928d8594347481d40e6fb60b54386ccf1e201327ec1fba23e8934ee955a252",
        "receiver": "0cdc00d7009cc7ef2a0ec57d4c8fde6a5e92ba82dcae56728c92dbe84a2b7588",
    },
    "batch/5/lossless": {
        "wire": "81089032eb0ff433f0f59e6c4c21d097caca85fa11098ab80f47f2199e9b1961",
        "sender": "5eefcad235be76375d95daaaab37a8e7ec4d7c6c933775388f4d35097d54b629",
        "received": "a8faf11c753db5487f1134f670fcdb5307be9bc63b76b49fc7db23a84dcc136d",
        "receiver": "2c2da278bc7b158602da9e1fda5aead2c21a1faaef864089cb88a1187f4f8fb5",
    },
    "batch/5/0.1": {
        "wire": "81089032eb0ff433f0f59e6c4c21d097caca85fa11098ab80f47f2199e9b1961",
        "sender": "5eefcad235be76375d95daaaab37a8e7ec4d7c6c933775388f4d35097d54b629",
        "received": "ee6288d4f63176fbf4d8187c53272d13cdebf92cb12e9afdd36f296ba72e93e6",
        "receiver": "007ab425d9b13e002420ec9258def61285856633f25524e6e9894bd5f816418c",
    },
    "batch/5/0.3": {
        "wire": "81089032eb0ff433f0f59e6c4c21d097caca85fa11098ab80f47f2199e9b1961",
        "sender": "5eefcad235be76375d95daaaab37a8e7ec4d7c6c933775388f4d35097d54b629",
        "received": "0e3fb45f34bd69981cbcff6f29b0af52b1e03fc1ca95ab6a606796d0aa1b7e7d",
        "receiver": "9b89090cfbacc08014e453d0891ae3c880666af68545616821fd24fc0960ac65",
    },
    "batch/5/blackout": {
        "wire": "81089032eb0ff433f0f59e6c4c21d097caca85fa11098ab80f47f2199e9b1961",
        "sender": "5eefcad235be76375d95daaaab37a8e7ec4d7c6c933775388f4d35097d54b629",
        "received": "86246d30f63de7c070d9e2b405e878f0a526e2ac7f50f4281444d0b392215928",
        "receiver": "84d5b703ef1d0245036b38081f5629518e102af46c9c8834d00389549dd0d4f5",
    },
    "batch/5/markov": {
        "wire": "81089032eb0ff433f0f59e6c4c21d097caca85fa11098ab80f47f2199e9b1961",
        "sender": "5eefcad235be76375d95daaaab37a8e7ec4d7c6c933775388f4d35097d54b629",
        "received": "4db5e75f29f36ddb059549831d15fdf3d31c3fb2b0d267b5b4368784e2e996bf",
        "receiver": "2f19615a31b8b197118408d9d6f0d5cd4cd5430f400daaf803fcada024f7b7f1",
    },
    "stream/default/lossless": {
        "wire": "0bb2da6dfc93a2fbf4e6211300bbec3e3ccb0de0100a314acc1f1324723aa809",
        "sender": "3fc436279a2680a14874d7eaff2127418a6572672241bcfd08ceb0af13d33117",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "688a6fbb040903aca8698b71ca8cd9fcec2d24ab34235bb476382fcf770b72d8",
    },
    "stream/default/0.1": {
        "wire": "0bb2da6dfc93a2fbf4e6211300bbec3e3ccb0de0100a314acc1f1324723aa809",
        "sender": "3fc436279a2680a14874d7eaff2127418a6572672241bcfd08ceb0af13d33117",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "688a6fbb040903aca8698b71ca8cd9fcec2d24ab34235bb476382fcf770b72d8",
    },
    "stream/default/0.3": {
        "wire": "0bb2da6dfc93a2fbf4e6211300bbec3e3ccb0de0100a314acc1f1324723aa809",
        "sender": "3fc436279a2680a14874d7eaff2127418a6572672241bcfd08ceb0af13d33117",
        "received": "df55137803d48fef7638403d0a217c76e31b81b8f70a0b44e1b269fdf1227ec7",
        "receiver": "e291c44ca34de30e9ef2fe11d29cf2382256ea6712db8db7832c88239c276154",
    },
    "stream/default/blackout": {
        "wire": "0bb2da6dfc93a2fbf4e6211300bbec3e3ccb0de0100a314acc1f1324723aa809",
        "sender": "3fc436279a2680a14874d7eaff2127418a6572672241bcfd08ceb0af13d33117",
        "received": "020254e5e195240afe82be663396259da01d3d6ab7c4cb5171f386a3cddf19ac",
        "receiver": "1fd0c2d20607a9130bee99b1795230e12c4739bb7dfc798c638ae1120db83048",
    },
    "stream/default/markov": {
        "wire": "0bb2da6dfc93a2fbf4e6211300bbec3e3ccb0de0100a314acc1f1324723aa809",
        "sender": "3fc436279a2680a14874d7eaff2127418a6572672241bcfd08ceb0af13d33117",
        "received": "2f4ff130a73f6b8bcd7da5a2751e0aeafe201c938cf20c961476366a542bf7be",
        "receiver": "27ee822660a68a3b1f0a6e5cabffcb9012abdeaaee0547253539653bd0b5ed0f",
    },
    "stream/stride1/lossless": {
        "wire": "4a23f8c2452293f509e582cc82cf227edb44055e05daa7548e3343699ce29333",
        "sender": "a8220eba656acf451ddc455fe50320b6656d000693c1fc5dd85d6e53217ef402",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "a86118c02a088cb8ae750eac7c310e69807b6d8fa7341f3a45d4478941bd946e",
    },
    "stream/stride1/0.1": {
        "wire": "4a23f8c2452293f509e582cc82cf227edb44055e05daa7548e3343699ce29333",
        "sender": "a8220eba656acf451ddc455fe50320b6656d000693c1fc5dd85d6e53217ef402",
        "received": "a79b9697a8a975bd39d0b562a6ec77e524967212935bdcad85ba849ad468d568",
        "receiver": "837a4aabda03bd6727501e4580d612668bf80840069d82a62ab411af76481d41",
    },
    "stream/stride1/0.3": {
        "wire": "4a23f8c2452293f509e582cc82cf227edb44055e05daa7548e3343699ce29333",
        "sender": "a8220eba656acf451ddc455fe50320b6656d000693c1fc5dd85d6e53217ef402",
        "received": "5ca6a3d03fd05d6dd40f66416de45857f28be4641f0daf2c2f9f539384535502",
        "receiver": "0bd3bf417f5f0d5f2ade6f50a7313ddd430182f2e12421031ff64e177b893080",
    },
    "stream/stride1/blackout": {
        "wire": "4a23f8c2452293f509e582cc82cf227edb44055e05daa7548e3343699ce29333",
        "sender": "a8220eba656acf451ddc455fe50320b6656d000693c1fc5dd85d6e53217ef402",
        "received": "f54f3aad7c8572afab68741c35687080611b60fb0b6c21e1dde525894feace35",
        "receiver": "bf17abbb02f3a473c84dadbc9e4f45b35b5f05772b4aaa1df2f2b6080db2ab25",
    },
    "stream/stride1/markov": {
        "wire": "4a23f8c2452293f509e582cc82cf227edb44055e05daa7548e3343699ce29333",
        "sender": "a8220eba656acf451ddc455fe50320b6656d000693c1fc5dd85d6e53217ef402",
        "received": "c79e52e857a954e9567c4250a85f1e4108ed4a20fe8a38da642d41bc3ef01d4d",
        "receiver": "798cbd2710e49b5f2ff1409f918860801fdbe0edef1c39aba96efdfe47c4c867",
    },
    "stream/wide/lossless": {
        "wire": "693245bb15c7a5cd373253dfcdad0dca70188adfae5f7606ffde886b30633ba2",
        "sender": "59c33488b16f7a24aca1017f6e0055398f1ebcc7b5aae64b7222f878132ff82e",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "5edc1bf03ce1428c1d60900fc2eef7a702944ef957c9dbdd789829c26dd375b7",
    },
    "stream/wide/0.1": {
        "wire": "693245bb15c7a5cd373253dfcdad0dca70188adfae5f7606ffde886b30633ba2",
        "sender": "59c33488b16f7a24aca1017f6e0055398f1ebcc7b5aae64b7222f878132ff82e",
        "received": "64af5901f8521577e68fd9832aacae04b3a22c430dda7be3a6227337651ea94e",
        "receiver": "9d1bc7e4c5b686b74e39845cbde9f587532fa3dedfd6775efc3acb16abe9bb3a",
    },
    "stream/wide/0.3": {
        "wire": "693245bb15c7a5cd373253dfcdad0dca70188adfae5f7606ffde886b30633ba2",
        "sender": "59c33488b16f7a24aca1017f6e0055398f1ebcc7b5aae64b7222f878132ff82e",
        "received": "6dabe842fecaa893138eb5950800527ab55a4ea9f5207393dc467a9b82c5efff",
        "receiver": "623728cf5fc42bca7eccb17dc8b7b4bcf234ac84eb8f5b68232c8c0a25ee1fac",
    },
    "stream/wide/blackout": {
        "wire": "693245bb15c7a5cd373253dfcdad0dca70188adfae5f7606ffde886b30633ba2",
        "sender": "59c33488b16f7a24aca1017f6e0055398f1ebcc7b5aae64b7222f878132ff82e",
        "received": "0e5d7e79e6d4ad3a19febe177f1588ed392d52592f0a540c72d82ff0b21b2f2b",
        "receiver": "703681f00143d5c1383ef84e4fd691ed41d06a7d38caea2363f97a227bf5ddce",
    },
    "stream/wide/markov": {
        "wire": "693245bb15c7a5cd373253dfcdad0dca70188adfae5f7606ffde886b30633ba2",
        "sender": "59c33488b16f7a24aca1017f6e0055398f1ebcc7b5aae64b7222f878132ff82e",
        "received": "aeebdbda82b4545ffdee23ba097ccb65af2bcb323f550d1757903cb65fde7be7",
        "receiver": "f9c0fbe4777512151961d13ee2e36f1fed7b55cedbaab9c2a1f49a49adc51e2e",
    },
    "batch/units4/lossless": {
        "wire": "922ae0ae8cd3366d9dad50ebdf7b00c63e5d04abbafd9099fc78185fc95603ad",
        "sender": "fb7174fa4a1f71ce61cfb5f1111593d5456f23a06a951e734ca560b82a3eacce",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "8239d823908d8ff0a4d4bdbe03b071da8e549e81a9962ea6b46e39f394fedab0",
    },
    "batch/units4/0.1": {
        "wire": "922ae0ae8cd3366d9dad50ebdf7b00c63e5d04abbafd9099fc78185fc95603ad",
        "sender": "fb7174fa4a1f71ce61cfb5f1111593d5456f23a06a951e734ca560b82a3eacce",
        "received": "05ba2b78a71cbd91d26ccf7ea72e42eab53108e12885314bc48f4bdf3ee716b8",
        "receiver": "2f8fddf5f0f6fc2c63c3ec477130d671dd07a591a14a57d21a37564eeff02835",
    },
    "batch/units4/0.3": {
        "wire": "922ae0ae8cd3366d9dad50ebdf7b00c63e5d04abbafd9099fc78185fc95603ad",
        "sender": "fb7174fa4a1f71ce61cfb5f1111593d5456f23a06a951e734ca560b82a3eacce",
        "received": "b06fc3f1de850ec8b001b43a7072f5189cc8718a03ea30581d459bc3926a24d0",
        "receiver": "0653cf0b9d0dcfcc75019ccb1e43aa5ed0851dc62b5f32a0e07445c0d7c9caa3",
    },
    "batch/units4/blackout": {
        "wire": "922ae0ae8cd3366d9dad50ebdf7b00c63e5d04abbafd9099fc78185fc95603ad",
        "sender": "fb7174fa4a1f71ce61cfb5f1111593d5456f23a06a951e734ca560b82a3eacce",
        "received": "fca451dcfc750e974c9fcaee002473bab9e001217fcc4580f8c357c328a5e73b",
        "receiver": "e9f47829083b080adb87c675bc96fff350e9d3353c4420eb4e316f0a4170fc39",
    },
    "batch/units4/markov": {
        "wire": "922ae0ae8cd3366d9dad50ebdf7b00c63e5d04abbafd9099fc78185fc95603ad",
        "sender": "fb7174fa4a1f71ce61cfb5f1111593d5456f23a06a951e734ca560b82a3eacce",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "6537a355c3839fc9fa6834375c492b92fbd7cdac19fdcf40f707d88530255e09",
    },
    "batch/tail/lossless": {
        "wire": "6fb9e236d2cba100964be4150b3e3bc134ebdf28ec7f1601623ca904c735d1b2",
        "sender": "3dcf166b77067cd73b0d199f8cbcd729878b1cff494414cf0eae439975613821",
        "received": "f26e2fdfebc72e840a83417b5f84ba8ebb7e350c10fcc722456fe96e0afad58a",
        "receiver": "1d9dc9765a312b9cc731f798a851eee7df261563bf99a9fff49b0cd6cc51084e",
    },
    "batch/tail/0.1": {
        "wire": "6fb9e236d2cba100964be4150b3e3bc134ebdf28ec7f1601623ca904c735d1b2",
        "sender": "3dcf166b77067cd73b0d199f8cbcd729878b1cff494414cf0eae439975613821",
        "received": "3a515985a109ce5e9c568e09db3a2fd9911de8477c8fd738735dc0337879d1b6",
        "receiver": "8be663c580af629b4252b468c03e92ac1c73650d0d27c78773c619e108fda4dd",
    },
    "batch/tail/0.3": {
        "wire": "6fb9e236d2cba100964be4150b3e3bc134ebdf28ec7f1601623ca904c735d1b2",
        "sender": "3dcf166b77067cd73b0d199f8cbcd729878b1cff494414cf0eae439975613821",
        "received": "a58d1880c2e5f1d1bf7d71f00931ba2e24251cda652765c785c85b007cc9819e",
        "receiver": "c3c8ab63f60a64b1a5f3fb8bb611fbbf279d1b57049d508ce5633bc8e5d34dc7",
    },
    "batch/tail/blackout": {
        "wire": "6fb9e236d2cba100964be4150b3e3bc134ebdf28ec7f1601623ca904c735d1b2",
        "sender": "3dcf166b77067cd73b0d199f8cbcd729878b1cff494414cf0eae439975613821",
        "received": "b537629a43338c0bf554b55844901c4be91350659e83f02f7b855bb1b7f9312f",
        "receiver": "b13d85a990a56658b507121ee3c65b67672b57d72f4d4a20fabd897a8369355e",
    },
    "batch/tail/markov": {
        "wire": "6fb9e236d2cba100964be4150b3e3bc134ebdf28ec7f1601623ca904c735d1b2",
        "sender": "3dcf166b77067cd73b0d199f8cbcd729878b1cff494414cf0eae439975613821",
        "received": "bf6b1a74c93b413e9c5f0ad037c2d1d2f5e041af5c260836a72b06aa3ff4bfec",
        "receiver": "aff787a46be789a4e277a3205480c26e807fc4c869c08f5a90d611ab8b613b27",
    },
    "stream/tight/lossless": {
        "wire": "bcdf810b9868a18b91b10e57097c2a61ab20ea002f4de16935b7b2c765c82c25",
        "sender": "210974ee3a10688f509b60c68498b6074287852e090270232390e2bd53e5742a",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "314c06aee7550820b5e18d27827bfa211f00cca1fdf1355bfbda6043d9d5a2fe",
    },
    "stream/tight/0.1": {
        "wire": "bcdf810b9868a18b91b10e57097c2a61ab20ea002f4de16935b7b2c765c82c25",
        "sender": "210974ee3a10688f509b60c68498b6074287852e090270232390e2bd53e5742a",
        "received": "64af5901f8521577e68fd9832aacae04b3a22c430dda7be3a6227337651ea94e",
        "receiver": "b30c90b208d386a493affaf839ba307a8015c2addd1216f52c20bbb4b2789944",
    },
    "stream/tight/0.3": {
        "wire": "bcdf810b9868a18b91b10e57097c2a61ab20ea002f4de16935b7b2c765c82c25",
        "sender": "210974ee3a10688f509b60c68498b6074287852e090270232390e2bd53e5742a",
        "received": "720014fb0637d8a8d2aaeeb1602b6c4494f359a0fbf4200fc95f5bbf5f8f33d5",
        "receiver": "0f95832e8129cd35cdd5c204add4b561f983dc24272da89b9221657a8d4adf64",
    },
    "stream/tight/blackout": {
        "wire": "bcdf810b9868a18b91b10e57097c2a61ab20ea002f4de16935b7b2c765c82c25",
        "sender": "210974ee3a10688f509b60c68498b6074287852e090270232390e2bd53e5742a",
        "received": "1394e79c67cbe42915a0b8c96bdfbfff9877965a9af375f9946bea22d4f31e21",
        "receiver": "3494aee47243712985e7d3845ff1a3028d745ad76fe71fe6b3f159c4c595b7d1",
    },
    "stream/tight/markov": {
        "wire": "bcdf810b9868a18b91b10e57097c2a61ab20ea002f4de16935b7b2c765c82c25",
        "sender": "210974ee3a10688f509b60c68498b6074287852e090270232390e2bd53e5742a",
        "received": "bbf59a31e892cff5eada7acfc91d03ad604f2e7e8c6d80776daeba7f0e643140",
        "receiver": "581170c8b807439a015d3ab4ee299ce2ef9b8ee8913cc7d47cca47913d0103e0",
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

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
GOS = GosConfig(12, 3, (0, 2, 4, 6, 8), key_unit=1)
GOS_KEY3 = GosConfig(12, 3, (0, 2, 4, 6, 8), key_unit=3)
N_FRAMES = 60

# batch layouts: (group-of-slices layout, encode level, frames)
BATCH = {
    "8": (GOS, 8, N_FRAMES),
    "5": (GOS, 5, N_FRAMES),
    "key3": (GOS_KEY3, 8, N_FRAMES),
    # the tail group-of-slices holds frames 60-61, units 1-2: no key frame
    "tail": (GOS_KEY3, 8, N_FRAMES + 2),
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
        "wire": "2b3fb49be836c7bb95f69909f7d3e625bb00b00fc232aa3669f2da6a394f1ea8",
        "sender": "2811b2d30b9a3e8c26b40cc42dcb298b7ee100c0aeb79634cb62ccd95961bbb0",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "8239d823908d8ff0a4d4bdbe03b071da8e549e81a9962ea6b46e39f394fedab0",
    },
    "batch/8/0.1": {
        "wire": "2b3fb49be836c7bb95f69909f7d3e625bb00b00fc232aa3669f2da6a394f1ea8",
        "sender": "2811b2d30b9a3e8c26b40cc42dcb298b7ee100c0aeb79634cb62ccd95961bbb0",
        "received": "c152d078a582a758b8fe81297060490da53eb2c8a2c7133bc4f6df9d7223f730",
        "receiver": "b0180830eb12f6ca968aa2b256a066002ae3463df90f2a0b245e41616a80afb4",
    },
    "batch/8/0.3": {
        "wire": "2b3fb49be836c7bb95f69909f7d3e625bb00b00fc232aa3669f2da6a394f1ea8",
        "sender": "2811b2d30b9a3e8c26b40cc42dcb298b7ee100c0aeb79634cb62ccd95961bbb0",
        "received": "6a29da78229366c53e8d5fb9618a4754de3de3e0d4f33aa7afa4e2d37fe00db9",
        "receiver": "5f5fcca4d3c8e8116ad79b4f4a306b58fd452d9a675df920b892c8849e9bb208",
    },
    "batch/8/blackout": {
        "wire": "2b3fb49be836c7bb95f69909f7d3e625bb00b00fc232aa3669f2da6a394f1ea8",
        "sender": "2811b2d30b9a3e8c26b40cc42dcb298b7ee100c0aeb79634cb62ccd95961bbb0",
        "received": "d11e573e0f150436b79f12f2c5cc7ea42b78c76c3973a278cd46766ab2a42090",
        "receiver": "a129e53383e6244faf210e27dfac0d2608a59f7b4ef9a597a04235cc70255225",
    },
    "batch/8/markov": {
        "wire": "2b3fb49be836c7bb95f69909f7d3e625bb00b00fc232aa3669f2da6a394f1ea8",
        "sender": "2811b2d30b9a3e8c26b40cc42dcb298b7ee100c0aeb79634cb62ccd95961bbb0",
        "received": "285c45a813990199e6db7a6f15d601b54d4156cf03f3c6a3d3b336810a37a19a",
        "receiver": "2d33185f966652456ba516a44ac0948a30f25175ff8a1dab611115fbbc40c188",
    },
    "batch/5/lossless": {
        "wire": "2c836b5d8cafacefdd5629554b56000a10f0a325ed584a589a86a68aa7f9e65c",
        "sender": "f2eb0c8f089014e855024be33f125498352d0c21a811b84d2ed86fb2f1bfb553",
        "received": "a8faf11c753db5487f1134f670fcdb5307be9bc63b76b49fc7db23a84dcc136d",
        "receiver": "2c2da278bc7b158602da9e1fda5aead2c21a1faaef864089cb88a1187f4f8fb5",
    },
    "batch/5/0.1": {
        "wire": "2c836b5d8cafacefdd5629554b56000a10f0a325ed584a589a86a68aa7f9e65c",
        "sender": "f2eb0c8f089014e855024be33f125498352d0c21a811b84d2ed86fb2f1bfb553",
        "received": "9d9698dcdc76dc73d5208eeb1402b5b8de18feaeb9578a93623305a7561debd1",
        "receiver": "19eba8896ffd74cfad73344142df70107dfd45263d91d9d8befb84e797538ec4",
    },
    "batch/5/0.3": {
        "wire": "2c836b5d8cafacefdd5629554b56000a10f0a325ed584a589a86a68aa7f9e65c",
        "sender": "f2eb0c8f089014e855024be33f125498352d0c21a811b84d2ed86fb2f1bfb553",
        "received": "6a89734c324a8bbf5c9ba2196f037b10dda9021699e09eb1cdc3dcbf4ab97248",
        "receiver": "7e5d52887cb45163b2e1ea4f3bed8f6a98603ce5872fe5cd21d9c7cf5ac57504",
    },
    "batch/5/blackout": {
        "wire": "2c836b5d8cafacefdd5629554b56000a10f0a325ed584a589a86a68aa7f9e65c",
        "sender": "f2eb0c8f089014e855024be33f125498352d0c21a811b84d2ed86fb2f1bfb553",
        "received": "86246d30f63de7c070d9e2b405e878f0a526e2ac7f50f4281444d0b392215928",
        "receiver": "84d5b703ef1d0245036b38081f5629518e102af46c9c8834d00389549dd0d4f5",
    },
    "batch/5/markov": {
        "wire": "2c836b5d8cafacefdd5629554b56000a10f0a325ed584a589a86a68aa7f9e65c",
        "sender": "f2eb0c8f089014e855024be33f125498352d0c21a811b84d2ed86fb2f1bfb553",
        "received": "a8faf11c753db5487f1134f670fcdb5307be9bc63b76b49fc7db23a84dcc136d",
        "receiver": "5f16999bfa1591b4343611d7f53048c7f5678db7550edca4f3db9389f588b42d",
    },
    "stream/default/lossless": {
        "wire": "62f19afea9346cc40e99c1269d7316ce56579aa1ddcb7a599b00a25f4ddd47ad",
        "sender": "3c378295edafe629bc423af43b1b09ec02a7c383d36eca0a8b7e321994470cf5",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "688a6fbb040903aca8698b71ca8cd9fcec2d24ab34235bb476382fcf770b72d8",
    },
    "stream/default/0.1": {
        "wire": "62f19afea9346cc40e99c1269d7316ce56579aa1ddcb7a599b00a25f4ddd47ad",
        "sender": "3c378295edafe629bc423af43b1b09ec02a7c383d36eca0a8b7e321994470cf5",
        "received": "bf43ebbd7f0c80c6dca81a1b495afa45311ec4177c36b2f6b9fa3fd9b1fb2370",
        "receiver": "c162d304476bfd7b0f74fd2ab25fa2ecc8ccf474ef99495fb4750869a8b3ef7c",
    },
    "stream/default/0.3": {
        "wire": "62f19afea9346cc40e99c1269d7316ce56579aa1ddcb7a599b00a25f4ddd47ad",
        "sender": "3c378295edafe629bc423af43b1b09ec02a7c383d36eca0a8b7e321994470cf5",
        "received": "d33ad94384b049c9b0f2072cc2319f7f6c7e20f7e72c9d138f69e02e26f127e6",
        "receiver": "0f8fa0f409f02b7570a0e7419e0109899b8410abec389cf2e2959af4587beb36",
    },
    "stream/default/blackout": {
        "wire": "62f19afea9346cc40e99c1269d7316ce56579aa1ddcb7a599b00a25f4ddd47ad",
        "sender": "3c378295edafe629bc423af43b1b09ec02a7c383d36eca0a8b7e321994470cf5",
        "received": "3b8c34c9c427261379793b188452b68ab0155ec6f727681b3858dd12be7d13d1",
        "receiver": "0e7906ba8bba8403c66d941cf6bfa9239716f25fe3177a98a1933a4448b91348",
    },
    "stream/default/markov": {
        "wire": "62f19afea9346cc40e99c1269d7316ce56579aa1ddcb7a599b00a25f4ddd47ad",
        "sender": "3c378295edafe629bc423af43b1b09ec02a7c383d36eca0a8b7e321994470cf5",
        "received": "4fa0edce5729b133c616ab6be9a90d98fc3f97cdef944876e8bd001b9180bfbf",
        "receiver": "afec520fb09c2e0650074c49bafe9d28dcce95131bf848ecfe8b8505987c82b4",
    },
    "stream/stride1/lossless": {
        "wire": "17a804688d30903805c61d0e1046e5834730fdda266ca275d1f874e5983dd0d4",
        "sender": "b09476ff3f53fa040a20d908446b23ba9157c8d8fc8d90e2289db23f46c09cf8",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "a86118c02a088cb8ae750eac7c310e69807b6d8fa7341f3a45d4478941bd946e",
    },
    "stream/stride1/0.1": {
        "wire": "17a804688d30903805c61d0e1046e5834730fdda266ca275d1f874e5983dd0d4",
        "sender": "b09476ff3f53fa040a20d908446b23ba9157c8d8fc8d90e2289db23f46c09cf8",
        "received": "7ac1ade032b110c55f3729e00abcb56c443935a110edee3808640cceb5c0b943",
        "receiver": "5a0ef60bb8d2ae7e35ec8b30fc77fc24201eb5b6dc12c8f59b557198def08842",
    },
    "stream/stride1/0.3": {
        "wire": "17a804688d30903805c61d0e1046e5834730fdda266ca275d1f874e5983dd0d4",
        "sender": "b09476ff3f53fa040a20d908446b23ba9157c8d8fc8d90e2289db23f46c09cf8",
        "received": "83bfd02994c5f954748c1302e5ae711bf2a94df46d9f99b39e2405d6de690c37",
        "receiver": "70c281f0c9b4c5bd0ff2902be14694e7d66ae21ef22f611bc67e2d1910804913",
    },
    "stream/stride1/blackout": {
        "wire": "17a804688d30903805c61d0e1046e5834730fdda266ca275d1f874e5983dd0d4",
        "sender": "b09476ff3f53fa040a20d908446b23ba9157c8d8fc8d90e2289db23f46c09cf8",
        "received": "3ed2956ecff010aa83ecd3fb80ff46666f2e5494ffa11f6ad031b64c0bd4d233",
        "receiver": "b176c5be387cd6ea0ac13864980d1cf6633518ae1b7b27c3570ddea27bda7f4d",
    },
    "stream/stride1/markov": {
        "wire": "17a804688d30903805c61d0e1046e5834730fdda266ca275d1f874e5983dd0d4",
        "sender": "b09476ff3f53fa040a20d908446b23ba9157c8d8fc8d90e2289db23f46c09cf8",
        "received": "851eb15ab8ad2a87438a5701fabee4afaa9977a0dbd63120ce949bdabd00157f",
        "receiver": "02cb472336dfe80ea3711134f2ac2f2da4ce293f1d6d7d8fb89200006fecbc85",
    },
    "stream/wide/lossless": {
        "wire": "41851f2a79b97d29d44c7f868ed8882fa2af674d151198bdbe4774ebc7367082",
        "sender": "3c378295edafe629bc423af43b1b09ec02a7c383d36eca0a8b7e321994470cf5",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "5edc1bf03ce1428c1d60900fc2eef7a702944ef957c9dbdd789829c26dd375b7",
    },
    "stream/wide/0.1": {
        "wire": "41851f2a79b97d29d44c7f868ed8882fa2af674d151198bdbe4774ebc7367082",
        "sender": "3c378295edafe629bc423af43b1b09ec02a7c383d36eca0a8b7e321994470cf5",
        "received": "2d7f8170053fcac39edc4abfaecf0548d8c4cea83b11f5083e8d308847529a8f",
        "receiver": "0a1a31c6409e2937f5c5e127c2e972ce9f87d9194e4033f8d5d003b2ad2f0ae7",
    },
    "stream/wide/0.3": {
        "wire": "41851f2a79b97d29d44c7f868ed8882fa2af674d151198bdbe4774ebc7367082",
        "sender": "3c378295edafe629bc423af43b1b09ec02a7c383d36eca0a8b7e321994470cf5",
        "received": "7fba1ac1216872d10f876a6e50fe5e8f2d604b41826a9ff834e3efac146a99b3",
        "receiver": "3e35b08b3cf7db91bdaec375edf74a9bb65f80efde1debc35b614db9347d27ac",
    },
    "stream/wide/blackout": {
        "wire": "41851f2a79b97d29d44c7f868ed8882fa2af674d151198bdbe4774ebc7367082",
        "sender": "3c378295edafe629bc423af43b1b09ec02a7c383d36eca0a8b7e321994470cf5",
        "received": "12aa4ec82392b8c313d70a4f92173cab39c9dc064e007bf948736d31b9395cd2",
        "receiver": "5606d14d4d7495d8a9e53d9a62fff17cacc454a7451e8361e00d5b46b213a99d",
    },
    "stream/wide/markov": {
        "wire": "41851f2a79b97d29d44c7f868ed8882fa2af674d151198bdbe4774ebc7367082",
        "sender": "3c378295edafe629bc423af43b1b09ec02a7c383d36eca0a8b7e321994470cf5",
        "received": "9b85b3f5cadd994aac7a9ec61f686c77bc39f2dcbcacf6061280cfd174c3dc89",
        "receiver": "7305817e3ba119227cde5df048de05608eee5eb9c1797b7f5ab8a78ec6115ceb",
    },
    "batch/key3/lossless": {
        "wire": "d3233a40f2bb7af4e1fdfd2889f1865373e7d380d009c636b786e06beb34589c",
        "sender": "93bd4d5ade599c4d0344416ed0b909fd5607b8d8526c69badb06d82dff7bdbbf",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "8239d823908d8ff0a4d4bdbe03b071da8e549e81a9962ea6b46e39f394fedab0",
    },
    "batch/key3/0.1": {
        "wire": "d3233a40f2bb7af4e1fdfd2889f1865373e7d380d009c636b786e06beb34589c",
        "sender": "93bd4d5ade599c4d0344416ed0b909fd5607b8d8526c69badb06d82dff7bdbbf",
        "received": "10be46652a9e5ef118a276b0f8be7bc917cd9a85ef8d8bfd9ef8c8d4381ea5d0",
        "receiver": "3d2f7de3e6b9a806f51664af3850a0b2095cc5f3dc23188c36450881c62921ae",
    },
    "batch/key3/0.3": {
        "wire": "d3233a40f2bb7af4e1fdfd2889f1865373e7d380d009c636b786e06beb34589c",
        "sender": "93bd4d5ade599c4d0344416ed0b909fd5607b8d8526c69badb06d82dff7bdbbf",
        "received": "280d7f7afc0c39b720f3e0ad8777e8fc9b38567e312f3d2cab5596357563adb4",
        "receiver": "a28efe1ae72268fceb7e86748af7ea2ed77ef2250215d82efb778233481acb1b",
    },
    "batch/key3/blackout": {
        "wire": "d3233a40f2bb7af4e1fdfd2889f1865373e7d380d009c636b786e06beb34589c",
        "sender": "93bd4d5ade599c4d0344416ed0b909fd5607b8d8526c69badb06d82dff7bdbbf",
        "received": "d11e573e0f150436b79f12f2c5cc7ea42b78c76c3973a278cd46766ab2a42090",
        "receiver": "a129e53383e6244faf210e27dfac0d2608a59f7b4ef9a597a04235cc70255225",
    },
    "batch/key3/markov": {
        "wire": "d3233a40f2bb7af4e1fdfd2889f1865373e7d380d009c636b786e06beb34589c",
        "sender": "93bd4d5ade599c4d0344416ed0b909fd5607b8d8526c69badb06d82dff7bdbbf",
        "received": "eb3fa95e53f7352fb2c7ee1a201729c27eb5c297afa9a274ec997ed514bbddc1",
        "receiver": "44cafa5395c42fa0b9fdf237c64969e61990ab05ff7e6f313e76ea224adcb3db",
    },
    "batch/tail/lossless": {
        "wire": "310dd08a2dfa1bad2cf1cf5f18d5b07f2d69d14737a75d328f5af141b3f04bc3",
        "sender": "9f8427098ceef13484e5acde80b46c8f520a90504ad41c870cea8ca188278368",
        "received": "f26e2fdfebc72e840a83417b5f84ba8ebb7e350c10fcc722456fe96e0afad58a",
        "receiver": "1d9dc9765a312b9cc731f798a851eee7df261563bf99a9fff49b0cd6cc51084e",
    },
    "batch/tail/0.1": {
        "wire": "310dd08a2dfa1bad2cf1cf5f18d5b07f2d69d14737a75d328f5af141b3f04bc3",
        "sender": "9f8427098ceef13484e5acde80b46c8f520a90504ad41c870cea8ca188278368",
        "received": "a915a5fab6c8f765f5c62d7cdc09e2590427c8046f77bef0b32ed93dbfcaab08",
        "receiver": "a4c6364037a38af87ffcd2b403396e1d260dbfbc4bb1e4a921df523c047223a1",
    },
    "batch/tail/0.3": {
        "wire": "310dd08a2dfa1bad2cf1cf5f18d5b07f2d69d14737a75d328f5af141b3f04bc3",
        "sender": "9f8427098ceef13484e5acde80b46c8f520a90504ad41c870cea8ca188278368",
        "received": "1a27d615bb939e8c3c0d3a2755e2e2ea19c974d9c48997bada7700d58c538139",
        "receiver": "8d6e6f2d7647e8141d9e4be9d3fdcaea049d065904196199816c06264acd1740",
    },
    "batch/tail/blackout": {
        "wire": "310dd08a2dfa1bad2cf1cf5f18d5b07f2d69d14737a75d328f5af141b3f04bc3",
        "sender": "9f8427098ceef13484e5acde80b46c8f520a90504ad41c870cea8ca188278368",
        "received": "b537629a43338c0bf554b55844901c4be91350659e83f02f7b855bb1b7f9312f",
        "receiver": "b13d85a990a56658b507121ee3c65b67672b57d72f4d4a20fabd897a8369355e",
    },
    "batch/tail/markov": {
        "wire": "310dd08a2dfa1bad2cf1cf5f18d5b07f2d69d14737a75d328f5af141b3f04bc3",
        "sender": "9f8427098ceef13484e5acde80b46c8f520a90504ad41c870cea8ca188278368",
        "received": "dd5d00bb965451d46818d1a569a57a182f75ad6272d76738b9fa9c5fe20ec520",
        "receiver": "5e79260d941620932ee632669dab40d4c62e8d6f43eb2ccfe02ab36ed815549b",
    },
    "stream/tight/lossless": {
        "wire": "d01f9a3646283a8d192df79ac8e5357104e773e9d22bcdbab73a46eb9369456d",
        "sender": "182973e0fa839957c21aa4b54c6adf1bfa7b9eccb47526be016fb4a509f42375",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "314c06aee7550820b5e18d27827bfa211f00cca1fdf1355bfbda6043d9d5a2fe",
    },
    "stream/tight/0.1": {
        "wire": "d01f9a3646283a8d192df79ac8e5357104e773e9d22bcdbab73a46eb9369456d",
        "sender": "182973e0fa839957c21aa4b54c6adf1bfa7b9eccb47526be016fb4a509f42375",
        "received": "99c9ae44d42aceff73327ffef9f4cebef4629d876e5b55e2cd09d739c34b0082",
        "receiver": "39da4f9422bd01b883e0ed12400491c72cd7ea086878e8dd0e21e7f429265c30",
    },
    "stream/tight/0.3": {
        "wire": "d01f9a3646283a8d192df79ac8e5357104e773e9d22bcdbab73a46eb9369456d",
        "sender": "182973e0fa839957c21aa4b54c6adf1bfa7b9eccb47526be016fb4a509f42375",
        "received": "136ed2ce9ac1c32ae37e3a632397dd5d8be9bb41151dbbe59575f7069c29b217",
        "receiver": "8a9c0624890507dbf11899d01d9b59b0569be1e18a40801ddd3ad562dcb77672",
    },
    "stream/tight/blackout": {
        "wire": "d01f9a3646283a8d192df79ac8e5357104e773e9d22bcdbab73a46eb9369456d",
        "sender": "182973e0fa839957c21aa4b54c6adf1bfa7b9eccb47526be016fb4a509f42375",
        "received": "be7ee9647f80004a5cbc2cb9217ea0ae063e8d4e0bdfb655be972470e9e01f15",
        "receiver": "bd802bbcd9db309317140abb0d6839d67fc235a933f75f0c8289c0ad99fe16c6",
    },
    "stream/tight/markov": {
        "wire": "d01f9a3646283a8d192df79ac8e5357104e773e9d22bcdbab73a46eb9369456d",
        "sender": "182973e0fa839957c21aa4b54c6adf1bfa7b9eccb47526be016fb4a509f42375",
        "received": "c1559a0d2c2e83a6c49cebf940a3e377d234de72ca4708102ae6385375d16f0a",
        "receiver": "923a6685ef0efe4e9945f285324a8fb3343275decf912fbb9cbc90c59dd586b1",
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


"""Golden regression digests for batch and streaming transport.

Each scenario runs a fixed, seeded token grid through a drop-only channel
and pins the SHA-256 of what it produced: the wire bytes, the sender's bit
accounting, the received tokens and states, and the receiver's report (for
streams: every release plus the receiver's counters). Every RECEIVED cell
must equal the sent token. A refactor of the transceiver must leave every
digest unchanged. The channels only drop
whole packets, so the outcome never depends on how an undecodable payload
is classified. The count model the scenarios share is pinned too, by the
SHA-256 of its model file, so training must count the same tokens.
"""

import hashlib
import json

import numpy as np
import pytest

from tokenwire.context import model_digest, save_count_model, train_count_model
from tokenwire.grid import (GosConfig, StreamConfig, TokenGrid, TokenState,
                            build_slice_grid)
from tokenwire.pipeline import receive_tokens, send_tokens
from tokenwire.streaming import StreamReceiver, StreamSender
from tokenwire.transport import BernoulliChannel, MarkovChannel, Packet
from synthetic_tokens import TokenSource, random_transition, sample_tokens

VOCAB = 16
N_LAYERS = 8
GOS = GosConfig(12, 3, 2, 8)
GOS_UNITS4 = GosConfig(12, 4, 2, 8)
N_FRAMES = 60
R = int(TokenState.RECEIVED)

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
    model = train_count_model(train, VOCAB, N_LAYERS)
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
        assert rrep.n_predicted >= 1
    received = states == R
    np.testing.assert_array_equal(got.tokens[received], tokens[received])
    return {
        "wire": _sha(b"".join(wire)),
        "sender": _sender(srep),
        "received": _sha(got.tokens, got.level, states),
        # the report once carried a copy of the usable depth, got.level,
        # in this place (both int16), and counts of concealment windows and
        # blackout holds where the two 0s stand
        "receiver": _sha(rrep.state_counts, _predicted(rrep.n_predicted),
                         0, 0, rrep.fec_recovered, got.level),
    }


# the names "wide" and "tight" recall the concealment windows these
# cadences once ran with; a step's window is now its due frames through
# its horizon
STREAMS = {
    "default": StreamConfig(),
    "stride1": StreamConfig(stride=1, lookahead=0),
    # a lookahead shorter than the stride
    "wide": StreamConfig(stride=2, lookahead=1),
    "tight": StreamConfig(stride=2, lookahead=2),
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
        assert rx.n_predicted >= 1
    received = states == R
    np.testing.assert_array_equal(got.tokens[received], grid.tokens[received])
    return {
        "wire": _sha(b"".join(wire)),
        "sender": _sender(tx.report),
        "received": _sha(got.tokens, got.level, states),
        "receiver": _sha([[list(r.due), _sha(r.tokens, r.states,
                                             r.valid_depth)]
                          for r in releases],
                         # once a count of blackout holds
                         _predicted(rx.n_predicted), 0,
                         rx.fec_recovered, tx.max_latency),
    }


GOLDEN = {
    "batch/8/lossless": {
        "wire": "47ad5d8069358122e9472a2c34669028476808f07ff9384907ccb71c2d6c49b5",
        "sender": "28b9eeb497e047db07c350f649d7912700a61f53ffd7234981f9059d4f348336",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "8239d823908d8ff0a4d4bdbe03b071da8e549e81a9962ea6b46e39f394fedab0",
    },
    "batch/8/0.1": {
        "wire": "47ad5d8069358122e9472a2c34669028476808f07ff9384907ccb71c2d6c49b5",
        "sender": "28b9eeb497e047db07c350f649d7912700a61f53ffd7234981f9059d4f348336",
        "received": "b3e96face341d6d10629a89efe3d51c679b6cf0485e5ac0577a6aa94a6919827",
        "receiver": "d218bffe633e3e1f0bd524bfa494041023d59d428bab5201b6a9fd34130b68f7",
    },
    "batch/8/0.3": {
        "wire": "47ad5d8069358122e9472a2c34669028476808f07ff9384907ccb71c2d6c49b5",
        "sender": "28b9eeb497e047db07c350f649d7912700a61f53ffd7234981f9059d4f348336",
        "received": "0a5fa5437f519ccdbbb9b4a3249d0a47d430076f53fc06b63409a3b51cad8fd2",
        "receiver": "d1bc7a83d627d9dd0ba3cd0d940defa6ce148098ad2a74b15af6b59ea2996d70",
    },
    "batch/8/blackout": {
        "wire": "47ad5d8069358122e9472a2c34669028476808f07ff9384907ccb71c2d6c49b5",
        "sender": "28b9eeb497e047db07c350f649d7912700a61f53ffd7234981f9059d4f348336",
        "received": "1e73362bbb1502ae32a31f35fc557de957ae30309031abc5c8e6e546e2b9ddc8",
        "receiver": "f0f21fbc1c1d05f39bc67fda1e1e56a64590d34ac3eaff228397ed245d3782bb",
    },
    "batch/8/markov": {
        "wire": "47ad5d8069358122e9472a2c34669028476808f07ff9384907ccb71c2d6c49b5",
        "sender": "28b9eeb497e047db07c350f649d7912700a61f53ffd7234981f9059d4f348336",
        "received": "54928d8594347481d40e6fb60b54386ccf1e201327ec1fba23e8934ee955a252",
        "receiver": "3294c3db9f705fb1994903e613f9a2e198f5b2f6712e42aaee698c998abbec4a",
    },
    "batch/5/lossless": {
        "wire": "37bc2265aa84afd564fbcf3ab5384359aa43cb4f9a1bf1f5aae147506925517c",
        "sender": "651bf2e531805b455208727a469ad52652656dbe545badfa47b284e5b0a466be",
        "received": "a8faf11c753db5487f1134f670fcdb5307be9bc63b76b49fc7db23a84dcc136d",
        "receiver": "2c2da278bc7b158602da9e1fda5aead2c21a1faaef864089cb88a1187f4f8fb5",
    },
    "batch/5/0.1": {
        "wire": "37bc2265aa84afd564fbcf3ab5384359aa43cb4f9a1bf1f5aae147506925517c",
        "sender": "651bf2e531805b455208727a469ad52652656dbe545badfa47b284e5b0a466be",
        "received": "565c2308b65d12336530f84a7f586ac6bd06b80e54e001955e2349084d1fb118",
        "receiver": "d4f49e820371ff8261a8e47ba2bd573b938465f673aee4c729ee1e8aff19b13b",
    },
    "batch/5/0.3": {
        "wire": "37bc2265aa84afd564fbcf3ab5384359aa43cb4f9a1bf1f5aae147506925517c",
        "sender": "651bf2e531805b455208727a469ad52652656dbe545badfa47b284e5b0a466be",
        "received": "7e37bb84e59573490bfbdc6bac5a2adbebd442d85188e84afbe2eb441507d2a8",
        "receiver": "4afcea50f4715c0680be9969892705156e5d24e38d5b320f1879ec7eb48be3c2",
    },
    "batch/5/blackout": {
        "wire": "37bc2265aa84afd564fbcf3ab5384359aa43cb4f9a1bf1f5aae147506925517c",
        "sender": "651bf2e531805b455208727a469ad52652656dbe545badfa47b284e5b0a466be",
        "received": "81abdde2386526652aa478385f55dd521155edd87565dda712d455c0b7519c8e",
        "receiver": "4396e7d2b72d60627f768d8b2f4147eb4862b80d97a88ee5c4dbe360e2b657bc",
    },
    "batch/5/markov": {
        "wire": "37bc2265aa84afd564fbcf3ab5384359aa43cb4f9a1bf1f5aae147506925517c",
        "sender": "651bf2e531805b455208727a469ad52652656dbe545badfa47b284e5b0a466be",
        "received": "4db5e75f29f36ddb059549831d15fdf3d31c3fb2b0d267b5b4368784e2e996bf",
        "receiver": "11b803c16dc4b8223248e33e5b5c71952b65d2d9e6558ebc2d30bd5ed8e169f1",
    },
    "stream/default/lossless": {
        "wire": "592d4fdd3291042a659b8e374aa372050d3fc71d7ef0fa1e82bb806ef19e8238",
        "sender": "065c5c59e86c9568fc50975725d4aa34af7c12bda1fe9e23810a1162951107e0",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "688a6fbb040903aca8698b71ca8cd9fcec2d24ab34235bb476382fcf770b72d8",
    },
    "stream/default/0.1": {
        "wire": "592d4fdd3291042a659b8e374aa372050d3fc71d7ef0fa1e82bb806ef19e8238",
        "sender": "065c5c59e86c9568fc50975725d4aa34af7c12bda1fe9e23810a1162951107e0",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "688a6fbb040903aca8698b71ca8cd9fcec2d24ab34235bb476382fcf770b72d8",
    },
    "stream/default/0.3": {
        "wire": "592d4fdd3291042a659b8e374aa372050d3fc71d7ef0fa1e82bb806ef19e8238",
        "sender": "065c5c59e86c9568fc50975725d4aa34af7c12bda1fe9e23810a1162951107e0",
        "received": "df55137803d48fef7638403d0a217c76e31b81b8f70a0b44e1b269fdf1227ec7",
        "receiver": "e291c44ca34de30e9ef2fe11d29cf2382256ea6712db8db7832c88239c276154",
    },
    "stream/default/blackout": {
        "wire": "592d4fdd3291042a659b8e374aa372050d3fc71d7ef0fa1e82bb806ef19e8238",
        "sender": "065c5c59e86c9568fc50975725d4aa34af7c12bda1fe9e23810a1162951107e0",
        "received": "291681fd81bb979e236bb2e5e067000568b9ecfb2fccba020ee59c64e4b57d61",
        "receiver": "afc31c7b804a3780ceeb72412d491a9ebb0695ae38788b88b8a704e897f1d285",
    },
    "stream/default/markov": {
        "wire": "592d4fdd3291042a659b8e374aa372050d3fc71d7ef0fa1e82bb806ef19e8238",
        "sender": "065c5c59e86c9568fc50975725d4aa34af7c12bda1fe9e23810a1162951107e0",
        "received": "2f4ff130a73f6b8bcd7da5a2751e0aeafe201c938cf20c961476366a542bf7be",
        "receiver": "27ee822660a68a3b1f0a6e5cabffcb9012abdeaaee0547253539653bd0b5ed0f",
    },
    "stream/stride1/lossless": {
        "wire": "ad3b053b4860ba5be5cce8e0a67704d7b83efddd153c93185b2d4432b2624d4b",
        "sender": "fb7beef2a2bf1d29c9ab211a0d597573faa2df81fc4aae65a0cf61867fcb9a6e",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "a86118c02a088cb8ae750eac7c310e69807b6d8fa7341f3a45d4478941bd946e",
    },
    "stream/stride1/0.1": {
        "wire": "ad3b053b4860ba5be5cce8e0a67704d7b83efddd153c93185b2d4432b2624d4b",
        "sender": "fb7beef2a2bf1d29c9ab211a0d597573faa2df81fc4aae65a0cf61867fcb9a6e",
        "received": "fa499820ea2587d47265bf062f3beabe9f8397911eee4917e64550c3fba01569",
        "receiver": "4b0d952b5b47e95ab765815a61f3499dcb9d3c06b358aee4927c0f51fb98b5cd",
    },
    "stream/stride1/0.3": {
        "wire": "ad3b053b4860ba5be5cce8e0a67704d7b83efddd153c93185b2d4432b2624d4b",
        "sender": "fb7beef2a2bf1d29c9ab211a0d597573faa2df81fc4aae65a0cf61867fcb9a6e",
        "received": "ecb0a7ad1b278e9595d664587e0a6b2d8c5d3759ecfdd3b168052e588acce151",
        "receiver": "f80e31a702c31bab1e8fff4cbcb67056cf5fe87f38ce398995080c905bfa586a",
    },
    "stream/stride1/blackout": {
        "wire": "ad3b053b4860ba5be5cce8e0a67704d7b83efddd153c93185b2d4432b2624d4b",
        "sender": "fb7beef2a2bf1d29c9ab211a0d597573faa2df81fc4aae65a0cf61867fcb9a6e",
        "received": "7a6ce0348944c153edc58a2baf068d9671142a494671f328820a68b4450d7376",
        "receiver": "122e9b95281f49b90a5fe94051eb35255a79b36f6f2ff852c45f33e044bb3c04",
    },
    "stream/stride1/markov": {
        "wire": "ad3b053b4860ba5be5cce8e0a67704d7b83efddd153c93185b2d4432b2624d4b",
        "sender": "fb7beef2a2bf1d29c9ab211a0d597573faa2df81fc4aae65a0cf61867fcb9a6e",
        "received": "1264e9b0090746a51c25ebc06205218687ad1d4c583c7f97ca92aa9431df3fcf",
        "receiver": "77d942f496739cdf21795fe31e505b0e69d1a56d6268c6764c34f6243ef96d40",
    },
    "stream/wide/lossless": {
        "wire": "70bbc441fb000faf182ddc667bba63f2d185c5fd8425bfd29c343aa5e9aa7ecf",
        "sender": "0d50fd7bb3a4599522105309dc0fd75794426288cd2ea3a2b9a9cfd45eb88751",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "5edc1bf03ce1428c1d60900fc2eef7a702944ef957c9dbdd789829c26dd375b7",
    },
    "stream/wide/0.1": {
        "wire": "70bbc441fb000faf182ddc667bba63f2d185c5fd8425bfd29c343aa5e9aa7ecf",
        "sender": "0d50fd7bb3a4599522105309dc0fd75794426288cd2ea3a2b9a9cfd45eb88751",
        "received": "64af5901f8521577e68fd9832aacae04b3a22c430dda7be3a6227337651ea94e",
        "receiver": "9d1bc7e4c5b686b74e39845cbde9f587532fa3dedfd6775efc3acb16abe9bb3a",
    },
    "stream/wide/0.3": {
        "wire": "70bbc441fb000faf182ddc667bba63f2d185c5fd8425bfd29c343aa5e9aa7ecf",
        "sender": "0d50fd7bb3a4599522105309dc0fd75794426288cd2ea3a2b9a9cfd45eb88751",
        "received": "0a378f5e44eace37a5320b061e67d020ed124598473370a0ba809ddc6903bfba",
        "receiver": "ed36dd377e27eee8f59e2029dc576e0bd03a6003b482639bccd29d5765fad296",
    },
    "stream/wide/blackout": {
        "wire": "70bbc441fb000faf182ddc667bba63f2d185c5fd8425bfd29c343aa5e9aa7ecf",
        "sender": "0d50fd7bb3a4599522105309dc0fd75794426288cd2ea3a2b9a9cfd45eb88751",
        "received": "cb75930de0b0bb19c834c94cbb8b593d7209c5c4995b0b5b0bf6906897b55a4e",
        "receiver": "c1b562f482fa86c8384ef3db9d8d82be70af35211e3bc1b560eb30614f612cdd",
    },
    "stream/wide/markov": {
        "wire": "70bbc441fb000faf182ddc667bba63f2d185c5fd8425bfd29c343aa5e9aa7ecf",
        "sender": "0d50fd7bb3a4599522105309dc0fd75794426288cd2ea3a2b9a9cfd45eb88751",
        "received": "0c214676a1a168b168b3116987805c4400dd8511aeb92eb570c15c12346b6b56",
        "receiver": "f59bd39b69f9d1c200f0eeb61c02cb6463118b166d9ef83972fcb148c954dc7d",
    },
    "batch/units4/lossless": {
        "wire": "5b5086d3f76571fcd4a3f8d6f18eca164bf8124a8a1d22d575e3bde19a14dab8",
        "sender": "4655832c081c9b2fce397bcbb4baf6c3ab6765230f9600f595bb5e758c0285a1",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "8239d823908d8ff0a4d4bdbe03b071da8e549e81a9962ea6b46e39f394fedab0",
    },
    "batch/units4/0.1": {
        "wire": "5b5086d3f76571fcd4a3f8d6f18eca164bf8124a8a1d22d575e3bde19a14dab8",
        "sender": "4655832c081c9b2fce397bcbb4baf6c3ab6765230f9600f595bb5e758c0285a1",
        "received": "05ba2b78a71cbd91d26ccf7ea72e42eab53108e12885314bc48f4bdf3ee716b8",
        "receiver": "b59579cef1bba0f8e2d40a54a9453de5cccf8d964768c8e9a2ebb09a587ac7a6",
    },
    "batch/units4/0.3": {
        "wire": "5b5086d3f76571fcd4a3f8d6f18eca164bf8124a8a1d22d575e3bde19a14dab8",
        "sender": "4655832c081c9b2fce397bcbb4baf6c3ab6765230f9600f595bb5e758c0285a1",
        "received": "9112813becfef0fd6c2bc563b76d5588b2a7def20cbd3c6fab96b6e474c4dea5",
        "receiver": "c67496c901ef91f5a374795200ac4ac8828433220495bdef14b3ae0e34ecf937",
    },
    "batch/units4/blackout": {
        "wire": "5b5086d3f76571fcd4a3f8d6f18eca164bf8124a8a1d22d575e3bde19a14dab8",
        "sender": "4655832c081c9b2fce397bcbb4baf6c3ab6765230f9600f595bb5e758c0285a1",
        "received": "94a5263abbd1e089d17a569f9ac1bd10e2cd98dfdf08b6d95225b0803d6c0b85",
        "receiver": "c1128ed676555ee1af8e76c577c26343c4ed203c715cd2319fc2cd906cd39716",
    },
    "batch/units4/markov": {
        "wire": "5b5086d3f76571fcd4a3f8d6f18eca164bf8124a8a1d22d575e3bde19a14dab8",
        "sender": "4655832c081c9b2fce397bcbb4baf6c3ab6765230f9600f595bb5e758c0285a1",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "6537a355c3839fc9fa6834375c492b92fbd7cdac19fdcf40f707d88530255e09",
    },
    "batch/tail/lossless": {
        "wire": "7d5f55e51aa6b98135890ba3563c469559888c964b3dc107d0e266593e5fa6be",
        "sender": "794f7391af9f0b337cdfd0007141f2ae2d7bd0896f929cf2e3a7a4b5c7821464",
        "received": "f26e2fdfebc72e840a83417b5f84ba8ebb7e350c10fcc722456fe96e0afad58a",
        "receiver": "1d9dc9765a312b9cc731f798a851eee7df261563bf99a9fff49b0cd6cc51084e",
    },
    "batch/tail/0.1": {
        "wire": "7d5f55e51aa6b98135890ba3563c469559888c964b3dc107d0e266593e5fa6be",
        "sender": "794f7391af9f0b337cdfd0007141f2ae2d7bd0896f929cf2e3a7a4b5c7821464",
        "received": "93dca22429350fe458fdf08d02cc8f3339b3d7bd18fe5165749ed12093e98fba",
        "receiver": "e276c67ff5b857724a059f8155e3abed24397902139669f4c99dbc0f31cc0666",
    },
    "batch/tail/0.3": {
        "wire": "7d5f55e51aa6b98135890ba3563c469559888c964b3dc107d0e266593e5fa6be",
        "sender": "794f7391af9f0b337cdfd0007141f2ae2d7bd0896f929cf2e3a7a4b5c7821464",
        "received": "b58b6b9590a8105504574dc590fe2cd63cc091c3466b2f3baf3516c1664eda6a",
        "receiver": "5926b11d9366c900904d9b1982a5df94161164bb8bc5b1d633ab2ba4deed29b8",
    },
    "batch/tail/blackout": {
        "wire": "7d5f55e51aa6b98135890ba3563c469559888c964b3dc107d0e266593e5fa6be",
        "sender": "794f7391af9f0b337cdfd0007141f2ae2d7bd0896f929cf2e3a7a4b5c7821464",
        "received": "199c09b7303c0be633fca5946db3af71f8c53f62696cda286e299691b2519309",
        "receiver": "626f1352cfa933101b8abf0f27e122d49fad38c960d9a7904c9eb0566a9ca456",
    },
    "batch/tail/markov": {
        "wire": "7d5f55e51aa6b98135890ba3563c469559888c964b3dc107d0e266593e5fa6be",
        "sender": "794f7391af9f0b337cdfd0007141f2ae2d7bd0896f929cf2e3a7a4b5c7821464",
        "received": "bf6b1a74c93b413e9c5f0ad037c2d1d2f5e041af5c260836a72b06aa3ff4bfec",
        "receiver": "7f137258c3aca7efaa54017e6e3fbfbd9d0c378ba1ee32c5a790069650f7a86e",
    },
    "stream/tight/lossless": {
        "wire": "d485406c01becbe00faf1dfa65d2e844c6947a7988a6f5e56df2f56de6c4b3a6",
        "sender": "cb8df6fc01b7c90b87d319a6e7a6a9778b53523437fa2425f6befb1cb80be465",
        "received": "2878a2a26844fa4ab7faa40e897d9ded188dcead0279c5f58a4526d2c79b4224",
        "receiver": "314c06aee7550820b5e18d27827bfa211f00cca1fdf1355bfbda6043d9d5a2fe",
    },
    "stream/tight/0.1": {
        "wire": "d485406c01becbe00faf1dfa65d2e844c6947a7988a6f5e56df2f56de6c4b3a6",
        "sender": "cb8df6fc01b7c90b87d319a6e7a6a9778b53523437fa2425f6befb1cb80be465",
        "received": "64af5901f8521577e68fd9832aacae04b3a22c430dda7be3a6227337651ea94e",
        "receiver": "b30c90b208d386a493affaf839ba307a8015c2addd1216f52c20bbb4b2789944",
    },
    "stream/tight/0.3": {
        "wire": "d485406c01becbe00faf1dfa65d2e844c6947a7988a6f5e56df2f56de6c4b3a6",
        "sender": "cb8df6fc01b7c90b87d319a6e7a6a9778b53523437fa2425f6befb1cb80be465",
        "received": "720014fb0637d8a8d2aaeeb1602b6c4494f359a0fbf4200fc95f5bbf5f8f33d5",
        "receiver": "0f95832e8129cd35cdd5c204add4b561f983dc24272da89b9221657a8d4adf64",
    },
    "stream/tight/blackout": {
        "wire": "d485406c01becbe00faf1dfa65d2e844c6947a7988a6f5e56df2f56de6c4b3a6",
        "sender": "cb8df6fc01b7c90b87d319a6e7a6a9778b53523437fa2425f6befb1cb80be465",
        "received": "631c3c36f59b0790cff83975377df4095ac6a35b31eddd1e74f8ee1bbefc8e39",
        "receiver": "ecf80feaccd681b3f316bfdff1ff7722f47d3947df7aeb7630d04725a450678f",
    },
    "stream/tight/markov": {
        "wire": "d485406c01becbe00faf1dfa65d2e844c6947a7988a6f5e56df2f56de6c4b3a6",
        "sender": "cb8df6fc01b7c90b87d319a6e7a6a9778b53523437fa2425f6befb1cb80be465",
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
# which may round differently between hosts. Re-pinned for model file
# version 3, which holds one row of token counts per layer, counted over
# every encoded cell of the corpus.
MODEL_DIGEST = "9f7b1342e31f19b265ebbdb4b91d8228111d3e34961a3fb7fb10695209f5f2c5"


def test_golden_model_file(corpus, tmp_path):
    path = tmp_path / "golden.ctx"
    save_count_model(path, corpus[0])
    assert model_digest(path) == MODEL_DIGEST

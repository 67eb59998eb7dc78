"""Row pricing: everything the transceiver prices, fine slices and the
lost coarse cells concealment fills, is priced as row indices into the
model's one compiled table, one row per layer. Those rows and their
fallback kinds equal the scalar reference's, prediction reads the rows'
modes, and the range coder codes through the rows without copying
them."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_reference import reference_code_ranges, reference_layer_pmf
from tokenwire.context import (FALLBACKS, CountModel, Targets, _mode,
                               cumulative, train_count_model)
from tokenwire.grid import (GosConfig, StreamConfig, TokenGrid, TokenState,
                            build_slice_grid, initial_states)
from tokenwire.pipeline import _layout, finalize
from tokenwire.rangecoder import decode_symbols, decoder_table, encode_symbols
from tokenwire.streaming import _Steps

L = int(TokenState.LOST)
C = int(TokenState.CONCEALED)

GOSES = [GosConfig(6, 3, 1, 3), GosConfig(4, 2, 2, 5), GosConfig(5, 1, 1, 4)]


def structured(rng, shape: tuple, vocab: int) -> np.ndarray:
    """Tokens whose layers follow the first, with some cells zeroed, so
    that each layer's row of a model trained on them is skewed."""
    tokens = rng.integers(0, vocab, size=shape)
    tokens[:, 1:] = (tokens[:, :1] + np.arange(1, shape[1])) % vocab
    tokens[rng.random(shape) < 0.3] = 0
    return tokens


@functools.lru_cache(maxsize=None)
def trained(vocab: int, n_layers: int, seed: int) -> CountModel:
    """A model trained on grids encoded to a depth of their seed's, so
    that some seeds leave the upper layers unobserved, and shifted by it,
    so that most layers' modes are not token 0."""
    rng = np.random.default_rng(seed)
    level = n_layers - seed % 3
    grids = [TokenGrid((structured(rng, (20, n_layers), vocab) + seed) % vocab,
                       np.full(20, max(level, 1)), vocab) for _ in range(4)]
    return train_count_model(grids, vocab, n_layers)


def batch_slices(data, gos, rng, vocab):
    """(tokens, fine slices' cells) of a random batch layout."""
    n_frames = data.draw(st.integers(1, 20), label="n_frames")
    level = data.draw(st.integers(gos.n_coarse + 1, gos.n_layers),
                      label="level")
    plan = _layout(build_slice_grid(n_frames, gos, level))
    return (structured(rng, (n_frames, gos.n_layers), vocab),
            [cells for head, cells in plan.slices if head[0]])


def stream_slices(data, gos, rng, vocab):
    """(tokens, the fine slice's cells) of a random stream step."""
    stride = data.draw(st.integers(1, 4), label="stride")
    lookahead = data.draw(st.integers(0, 3), label="lookahead")
    cfg = StreamConfig(stride, lookahead)
    level = data.draw(st.integers(gos.n_coarse + 1, gos.n_layers),
                      label="level")
    i = data.draw(st.integers(0, 8), label="step")
    total = data.draw(st.one_of(st.none(),
                                st.integers(i * stride + 1, 40)))
    _, plan = _Steps(gos, cfg, level)(i, total)
    return (structured(rng, (plan.span, gos.n_layers), vocab),
            [cells for head, cells in plan.slices if head[0]])


def conceal_query(data, gos, rng, vocab):
    """(tokens, the cells ``finalize`` conceals after random damage to a
    clip, in the order it predicts them), or None when it has none."""
    n_frames = data.draw(st.integers(1, 30), label="n_frames")
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers), label="level")
    states = initial_states(n_frames, gos.n_layers, level)
    damage = rng.random((n_frames, level)) < data.draw(
        st.sampled_from([0.1, 0.3, 0.7]))
    states[:, :level][damage] = L
    tokens = structured(rng, states.shape, vocab)
    finalize(CountModel(vocab, gos.n_layers), tokens.copy(), states,
             range(n_frames), gos.n_coarse)
    targets = np.argwhere(states == C)
    if not len(targets):
        return None
    return tokens, [targets]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rows_price_like_the_scalar_reference(data):
    """Whatever the model, trained or empty, and whatever a
    batch layout's or a stream step's fine slices or concealment prices:
    ``cum[rows]`` and ``kinds`` equal the per-layer reference, a cell's
    row is its layer's, ``pmf`` prices a query as ``layer_pmf`` prices its
    layers, ``predict`` is the mode of each target's row, everything
    reads the same table, the range decoder its compiled form, and each
    slice's tokens round-trip through the range coder under its rows."""
    gos = data.draw(st.sampled_from(GOSES), label="gos")
    vocab = data.draw(st.sampled_from([2, 5, 10, 64]), label="vocab")
    kind = data.draw(st.sampled_from(["empty", "trained"]), label="model")
    if kind == "empty":  # every row a per-layer uniform fallback
        model = CountModel(vocab, gos.n_layers)
    else:
        model = trained(vocab, gos.n_layers,
                        data.draw(st.integers(0, 3), label="model seed"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    source = data.draw(st.sampled_from([batch_slices, stream_slices,
                                        conceal_query]), label="source")
    drawn = source(data, gos, rng, vocab)
    if drawn is None:
        return
    tokens, slices = drawn
    cells = np.concatenate(slices)
    cum, rows, kinds = model.layer_pmf(cells[:, 1])
    query = Targets(cells)
    for got, want in zip(model.pmf(query), (cum, rows, kinds)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(model.predict(query), _mode(cum[rows]))
    want = [reference_layer_pmf(model, k) for k in cells[:, 1].tolist()]
    np.testing.assert_array_equal(rows, cells[:, 1])
    np.testing.assert_array_equal(
        cum[rows], cumulative(np.array([w[0] for w in want])))
    assert [FALLBACKS[c] for c in kinds.tolist()] == [w[1] for w in want]
    assert model.layer_pmf([])[0] is cum
    assert model.pmf(query)[0] is cum
    assert not cum.flags.writeable
    assert model.decoder == decoder_table(cum)

    a = 0
    for cells in slices:
        b = a + len(cells)
        symbols = tokens[cells[:, 0], cells[:, 1]].tolist()
        coded = encode_symbols(*reference_code_ranges(cum, rows[a:b],
                                                      symbols))
        assert decode_symbols(coded, model.decoder, rows[a:b]) == symbols
        a = b

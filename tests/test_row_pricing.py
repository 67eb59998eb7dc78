"""Row pricing: everything the transceiver prices, fine slices by their
layers and concealment queries by their contexts, is priced as row
indices into the model's one compiled table. Those rows and their
fallback kinds equal the scalar reference's, prediction reads the rows'
modes, and the range coder codes through the rows without copying
them."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_reference import reference_key, reference_layer_pmf
from tokenwire.context import (FALLBACKS, CountModel, MaskedQuery,
                               UniformModel, _mode, cumulative,
                               train_count_model, uniform_pmf)
from tokenwire.dependency import (build_conceal_mask, build_windows,
                                  classify_loss)
from tokenwire.grid import (GosConfig, StreamConfig, TokenGrid, TokenState,
                            build_slice_grid, initial_states)
from tokenwire.pipeline import _layout
from tokenwire.rangecoder import code_ranges, decode_symbols, encode_symbols
from tokenwire.streaming import _Steps

L = int(TokenState.LOST)

GOSES = [GosConfig(6, 3, 1, 3), GosConfig(4, 2, 2, 5), GosConfig(5, 1, 1, 4)]


def structured(rng, shape: tuple, vocab: int) -> np.ndarray:
    """Tokens whose layers follow the first, with some cells zeroed, so
    that a model trained on them meets observed and unobserved contexts
    in queries over them."""
    tokens = rng.integers(0, vocab, size=shape)
    tokens[:, 1:] = (tokens[:, :1] + np.arange(1, shape[1])) % vocab
    tokens[rng.random(shape) < 0.3] = 0
    return tokens


@functools.lru_cache(maxsize=None)
def trained(vocab: int, n_layers: int, n_coarse: int, seed: int) -> CountModel:
    rng = np.random.default_rng(seed)
    grids = [TokenGrid(structured(rng, (20, n_layers), vocab),
                       np.full(20, n_layers), vocab) for _ in range(4)]
    return train_count_model(grids, vocab, n_layers, n_coarse,
                             epochs=int(rng.integers(1, 4)), seed=seed)


def batch_slices(data, gos, rng, vocab):
    """(tokens, fine slices' cells) of a random batch layout."""
    n_frames = data.draw(st.integers(1, 20), label="n_frames")
    level = data.draw(st.integers(gos.n_coarse + 1, gos.n_layers),
                      label="level")
    plan = _layout(build_slice_grid(n_frames, gos, level))
    return (structured(rng, (n_frames, gos.n_layers), vocab),
            [cells for _, cells in plan.fine])


def stream_slices(data, gos, rng, vocab):
    """(tokens, the fine slice's cells) of a random stream step."""
    stride = data.draw(st.integers(1, 4), label="stride")
    lookahead = data.draw(st.integers(0, 3), label="lookahead")
    span = stride + lookahead
    cfg = StreamConfig(stride, lookahead,
                       data.draw(st.integers(span, span + 6)),
                       data.draw(st.integers(span, span + 6)))
    level = data.draw(st.integers(gos.n_coarse + 1, gos.n_layers),
                      label="level")
    i = data.draw(st.integers(0, 8), label="step")
    total = data.draw(st.one_of(st.none(),
                                st.integers(i * stride + 1, 40)))
    _, plan = _Steps(gos, cfg, level)(i, total)
    return structured(rng, (plan.span, gos.n_layers), vocab), [plan.fine]


def conceal_query(data, gos, rng, vocab):
    """The concealment query of random damage to a clip, or None when no
    window has a lost coarse cell."""
    n_frames = data.draw(st.integers(1, 30), label="n_frames")
    level = data.draw(st.integers(gos.n_coarse, gos.n_layers), label="level")
    states = initial_states(n_frames, gos.n_layers, level)
    damage = rng.random((n_frames, level)) < data.draw(
        st.sampled_from([0.1, 0.3, 0.7]))
    states[:, :level][damage] = L
    views = []
    for win in build_windows(states, level, data.draw(st.integers(1, 12))):
        targets = classify_loss(states, win, gos.n_coarse)
        if len(targets):
            views.append(build_conceal_mask(targets, states, win))
    if not views:
        return None
    return MaskedQuery(structured(rng, states.shape, vocab), views)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rows_price_like_the_scalar_reference(data):
    """Whatever the model, trained, empty or uniform, and whatever a
    batch layout's or a stream step's fine slices or concealment prices:
    ``cum[rows]`` and ``kinds`` equal the per-cell reference, a fine
    token's row is its layer's, ``predict`` is the mode of each target's
    row, everything reads the same table, and each slice's tokens
    round-trip through the range coder under its rows."""
    gos = data.draw(st.sampled_from(GOSES), label="gos")
    vocab = data.draw(st.sampled_from([2, 5, 10, 64]), label="vocab")
    kind = data.draw(st.sampled_from(["uniform", "empty", "trained"]),
                     label="model")
    if kind == "uniform":
        model = UniformModel(vocab)
    elif kind == "empty":  # every row a per-layer uniform fallback
        model = CountModel(vocab, gos.n_layers)
    else:
        model = trained(vocab, gos.n_layers, gos.n_coarse,
                        data.draw(st.integers(0, 3), label="model seed"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    source = data.draw(st.sampled_from([batch_slices, stream_slices,
                                        conceal_query]), label="source")
    if source is conceal_query:
        query = source(data, gos, rng, vocab)
        if query is None:
            return
        tokens = query.tokens
        cum, rows, kinds = model.pmf(query)
        want = []
        for lo, visible, targets in query.views:
            full = np.zeros(len(tokens), dtype=np.int64)
            full[lo:lo + len(visible)] = visible
            for t, k in targets.tolist():
                if isinstance(model, UniformModel):
                    want.append((uniform_pmf(vocab), "uniform"))
                else:
                    want.append(reference_key(model, tokens, full, t, k, lo,
                                              lo + len(visible))[1:])
        np.testing.assert_array_equal(model.predict(query), _mode(cum[rows]))
        slices = [np.asarray(v.targets) for v in query.views]
    else:
        tokens, slices = source(data, gos, rng, vocab)
        cells = np.concatenate(slices)
        cum, rows, kinds = model.layer_pmf(cells[:, 1])
        want = [(uniform_pmf(vocab), "uniform")
                if isinstance(model, UniformModel)
                else reference_layer_pmf(model, k)
                for k in cells[:, 1].tolist()]
        if isinstance(model, CountModel):
            np.testing.assert_array_equal(
                rows, len(model.keys) + cells[:, 1])
    np.testing.assert_array_equal(
        cum[rows], cumulative(np.array([w[0] for w in want])))
    assert [FALLBACKS[c] for c in kinds.tolist()] == [w[1] for w in want]
    assert model.layer_pmf([])[0] is cum
    assert not cum.flags.writeable

    a = 0
    for cells in slices:
        b = a + len(cells)
        symbols = tokens[cells[:, 0], cells[:, 1]].tolist()
        coded = encode_symbols(*code_ranges(cum, rows[a:b], symbols))
        assert decode_symbols(coded, cum, rows[a:b]) == symbols
        a = b

"""Row pricing: every query the transceiver makes is priced as row indices
into the model's one compiled table. Those rows and their fallback kinds
equal the scalar reference's, prediction reads the rows' modes, and the
range coder codes through the rows without copying them."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_reference import reference_key
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


def batch_query(data, gos, rng, vocab):
    """The coding query of a random batch layout."""
    n_frames = data.draw(st.integers(1, 20), label="n_frames")
    level = data.draw(st.integers(gos.n_coarse + 1, gos.n_layers),
                      label="level")
    query = _layout(build_slice_grid(n_frames, gos, level)).query
    return query.over(structured(rng, query.tokens.shape, vocab))


def stream_query(data, gos, rng, vocab):
    """The coding query of a random stream step."""
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
    return plan.query.over(structured(rng, plan.query.tokens.shape, vocab))


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
    """Whatever the model, trained, empty or uniform, and whatever query
    a batch layout, a stream step or concealment makes: ``cum[rows]`` and
    ``kinds`` equal the per-cell reference, ``predict`` is the mode of
    each target's row, every query reads the same table, and each view's
    tokens round-trip through the range coder under its rows."""
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
    source = data.draw(st.sampled_from([batch_query, stream_query,
                                        conceal_query]), label="source")
    query = source(data, gos, rng, vocab)
    if query is None:
        return

    cum, rows, kinds = model.pmf(query)
    tokens = query.tokens
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
    np.testing.assert_array_equal(
        cum[rows], cumulative(np.array([w[0] for w in want])))
    assert [FALLBACKS[c] for c in kinds.tolist()] == [w[1] for w in want]
    np.testing.assert_array_equal(model.predict(query), _mode(cum[rows]))
    assert model.pmf(query)[0] is cum
    assert not cum.flags.writeable

    bounds = query.bounds
    for a, b in zip(bounds, bounds[1:]):
        cells = query.targets[a:b]
        symbols = tokens[cells[:, 0], cells[:, 1]].tolist()
        coded = encode_symbols(*code_ranges(cum, rows[a:b], symbols))
        assert decode_symbols(coded, cum, rows[a:b]) == symbols

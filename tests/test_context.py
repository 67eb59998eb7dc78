"""Context keys, PMF quantization, count model, masking curriculum."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenwire.context import (
    FALLBACKS,
    PMF_TOTAL,
    SENTINEL,
    CountModel,
    MaskedQuery,
    TrainSchedule,
    UniformModel,
    View,
    beta,
    cumulative,
    encode_key,
    load_count_model,
    model_digest,
    quantize_weights,
    save_count_model,
    train_count_model,
    uniform_pmf,
)
from tokenwire.grid import TokenGrid
from scalar_reference import (context_key_parts, full_query, quantize_vector,
                              reference_key, reference_train_count_model)


def planned_parts(query) -> list:
    """(layer, left, below, right) tuples of a query's targets."""
    return list(zip(*(a.tolist() for a in query.context())))


# --- masking ratio -----------------------------------------------------------

def test_beta_endpoints_exact():
    assert beta(0.0) == 1.0
    assert beta(0.5) == 0.5
    assert beta(1.0) == 0.0


def test_beta_matches_cosine_curve():
    for tau in np.linspace(0.0, 1.0, 101):
        want = 0.5 * (1.0 + math.cos(math.pi * tau))
        assert abs(beta(float(tau)) - want) < 1e-12


@given(st.floats(1e-6, 1.0 - 1e-6))
@settings(max_examples=200)
def test_beta_strictly_inside_unit_interval(tau):
    assert 0.0 < beta(tau) < 1.0
    assert beta(tau) >= beta(min(1.0, tau + 1e-6)) - 1e-12  # non-increasing


# --- PMF quantization --------------------------------------------------------

def test_quantize_weights_hand_cases():
    np.testing.assert_array_equal(
        quantize_weights(np.array([1.0, 1.0, 2.0])), [16384, 16384, 32768])
    freq = quantize_weights(np.array([1.0, 0.0]))
    assert freq[1] == 1 and freq.sum() == PMF_TOTAL


@given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=300)
       .filter(lambda w: sum(w) > 0))
@settings(max_examples=150, deadline=None)
def test_quantize_weights_contract(weights):
    w = np.array(weights)
    freq = quantize_weights(w)
    assert freq.sum() == PMF_TOTAL
    assert freq.min() >= 1
    # Quantization stays close to the exact proportion except where the
    # minimum-frequency floor or the deficit repair interferes.
    exact = (w / w.sum()) * PMF_TOTAL
    slack = 1 + len(w)
    assert np.all(np.abs(freq - np.maximum(exact, 1)) <= slack)


def test_quantize_weights_validation():
    with pytest.raises(ValueError):
        quantize_weights(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        quantize_weights(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        quantize_weights(np.ones(PMF_TOTAL + 1))


def test_pmf_validation_and_cum():
    cum = cumulative(np.array([[1, 3, PMF_TOTAL - 4]], dtype=np.uint32))
    np.testing.assert_array_equal(cum, [[0, 1, 4, PMF_TOTAL]])
    assert cum.dtype == np.uint32
    # every row a model prices is a valid cumulative row: 0 to PMF_TOTAL,
    # strictly increasing, whichever fallback it comes from
    m = CountModel(vocab=4, n_layers=3)
    tokens = np.array([[1, 2, 0], [3, 0, 0], [1, 1, 0]])
    q = full_query(tokens, [2, 0, 2], [(1, 0), (1, 1), (1, 2)])
    m.observe(full_query(tokens, [2, 0, 2], [(1, 0)]), [1])
    m.observe(full_query(tokens, [0, 2, 2], [(0, 1)]), [3])
    rows, fb = m.pmf(q)
    assert fb == ["conditional", "marginal", "uniform"]
    assert rows.shape == (3, 5)
    assert np.all(rows[:, 0] == 0) and np.all(rows[:, -1] == PMF_TOTAL)
    assert np.all(np.diff(rows.astype(np.int64), axis=1) >= 1)


def test_uniform_pmf_remainder():
    p = uniform_pmf(48)
    assert p.sum() == PMF_TOTAL
    assert p.max() - p.min() <= 1
    # 2^16 / 48 leaves remainder 16: the first 16 entries get the extra unit.
    assert np.all(p[:16] == p[0])
    assert p[0] == p[-1] + 1


def reference_rows(rng, n_rows, vocab):
    """Count rows like a trained table's plus rows that hit the floor."""
    counts = rng.integers(0, 40, size=(n_rows, vocab)) * (
        rng.random((n_rows, vocab)) < 0.3)
    spike = rng.random(n_rows) < 0.3  # one huge count squeezes the rest
    counts[spike, rng.integers(0, vocab, size=spike.sum())] = 10**6
    return counts + 0.5


@given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_table_rows_match_quantize_weights_row_by_row(seed, vocab, n_rows):
    """Row-wise quantization, as the table compiler runs it, gives each
    row exactly what one-vector quantization gives, the minimum-frequency
    floor included."""
    rng = np.random.default_rng(seed)
    weights = reference_rows(rng, n_rows, vocab)
    if seed % 3 == 0:  # arbitrary real weights, zeros included
        weights = rng.uniform(0, 1, size=(n_rows, vocab)) ** 6
        weights[rng.random((n_rows, vocab)) < 0.2] = 0.0
        weights[:, 0] += 1e-3
    rows = quantize_weights(weights)
    for w, row in zip(weights, rows):
        np.testing.assert_array_equal(row, quantize_vector(w))
        np.testing.assert_array_equal(row, quantize_weights(w))


def test_table_rows_hit_the_floor():
    w = np.full((2, 64), 0.5)
    w[0, 7] = 10**6
    rows = quantize_weights(w)
    assert np.all(rows[0, np.arange(64) != 7] == 1)
    assert rows[0, 7] == PMF_TOTAL - 63
    np.testing.assert_array_equal(rows[0], quantize_vector(w[0]))
    np.testing.assert_array_equal(rows[1], uniform_pmf(64))


# --- queries and context keys ------------------------------------------------

def test_masked_query_rejects_visible_targets():
    tokens = np.zeros((3, 2), dtype=int)
    full_query(tokens, np.array([2, 0, 2]), [(1, 0)])
    with pytest.raises(ValueError):
        full_query(tokens, np.array([2, 1, 2]), [(1, 0)])
    # Several targets: the error names the first visible one.
    full_query(tokens, np.array([0, 1, 1]), [(0, 0), (1, 1), (2, 1)])
    with pytest.raises(ValueError, match=r"\(2,0\) is visible"):
        full_query(tokens, np.array([0, 1, 1]),
                   [(0, 0), (1, 1), (2, 0), (1, 0)])
    # ... across views too, named in grid coordinates
    with pytest.raises(ValueError, match=r"\(2,0\) is visible"):
        MaskedQuery(tokens, [View(0, [0, 1], [(0, 0)]),
                             View(1, [1, 1], [(1, 1), (2, 0)])])


def test_masked_query_window_must_fit_the_grid():
    tokens = np.zeros((5, 2))
    q = MaskedQuery(tokens, [View(1, [0, 0, 0, 0], [(2, 0)])])
    assert q.targets.tolist() == [[2, 0]]
    for view in (View(-3, [0] * 3, [(0, 0)]), View(2, [0] * 4, [(2, 0)])):
        with pytest.raises(ValueError, match="outside the 5-frame grid"):
            MaskedQuery(tokens, [view])
    with pytest.raises(ValueError, match="at least one view"):
        MaskedQuery(tokens, [])


def test_masked_query_rejects_targets_outside_the_window():
    # Scanned over a full-length row, a target outside its frame range sees
    # an arbitrary part of the range: (2, 1) finds frame 3 on its right,
    # while (1, 1), one frame further out, sees nothing on either side.
    tokens = np.arange(24).reshape(8, 3)
    visible = np.array([0, 0, 0, 3, 3, 3, 0, 0])
    assert context_key_parts(tokens, visible, 2, 1, 3, 6)[3] == 10
    assert context_key_parts(tokens, visible, 1, 1, 3, 6)[1:] == (
        SENTINEL, SENTINEL, SENTINEL)
    for t in (2, 1, 6, 7):
        with pytest.raises(ValueError, match=rf"\({t},1\) lies outside"):
            full_query(tokens, visible, [(t, 1)], frame_range=(3, 6))
    with pytest.raises(ValueError, match="lies outside"):
        full_query(tokens, visible, [(4, -1)], frame_range=(3, 6))


def test_context_key_deepest_wins_over_nearest():
    # Frame 1 is the target; frame 0 is shallow (depth 1), frame 3 is deep.
    # For a layer-1 target the right side should skip the masked frame 2
    # and take the deep frame 3 at layer 1.
    tokens = np.array([[5, 0, 0], [9, 9, 9], [7, 0, 0], [3, 4, 0]])
    visible = np.array([1, 0, 1, 2])
    parts = context_key_parts(tokens, visible, 1, 1)
    assert planned_parts(full_query(tokens, visible, [(1, 1)])) == [parts]
    layer, left, below, right = parts
    assert layer == 1
    assert left == 5      # frame 0 depth 1 -> token at layer 0
    assert below == SENTINEL  # own frame shows nothing
    assert right == 4     # frame 3 depth 2 beats frame 2 depth 1


def test_context_key_nearest_breaks_depth_ties():
    tokens = np.array([[1, 0], [0, 0], [2, 0], [3, 0]])
    visible = np.array([1, 0, 1, 1])
    parts = context_key_parts(tokens, visible, 1, 1)
    assert planned_parts(full_query(tokens, visible, [(1, 1)])) == [parts]
    _, left, _, right = parts
    assert left == 1
    assert right == 2     # frame 2 is nearer than frame 3 at equal depth


def test_context_key_below_needs_visible_prefix():
    tokens = np.array([[4, 9]])
    parts = context_key_parts(tokens, np.array([1]), 0, 1)
    assert planned_parts(full_query(tokens, [1], [(0, 1)])) == [parts]
    assert parts[1:] == (SENTINEL, 4, SENTINEL)
    assert planned_parts(full_query(tokens, [0], [(0, 1)]))[0][2] == SENTINEL
    assert context_key_parts(tokens, np.array([0]), 0, 1)[2] == SENTINEL


def test_context_key_frame_range_bounds_both_sides():
    tokens = np.array([[1, 0], [0, 0], [2, 0]])
    visible = np.array([1, 0, 1])
    parts = context_key_parts(tokens, visible, 1, 0, 1, 2)
    assert parts[1:] == (SENTINEL, SENTINEL, SENTINEL)
    assert planned_parts(full_query(tokens, visible, [(1, 0)],
                                    frame_range=(1, 2))) == [parts]


def random_model(rng, vocab, n_layers):
    """A count model with some observed contexts, marginals on some
    layers and none on others."""
    model = CountModel(vocab=vocab, n_layers=n_layers,
                       alpha=float(rng.choice([0.5, 1.0, 0.25])))
    for _ in range(int(rng.integers(0, 6))):
        T = int(rng.integers(1, 8))
        tokens = rng.integers(0, vocab, size=(T, n_layers))
        k = int(rng.integers(0, max(1, n_layers - 1)))
        visible = rng.integers(0, n_layers + 1, size=T)
        t = int(rng.integers(0, T))
        visible[t] = min(visible[t], k)
        model.observe(full_query(tokens, visible, [(t, k)]),
                      [int(rng.integers(0, vocab))])
    return model


@st.composite
def views_of(draw, T, n_layers):
    """Random views over a T-frame grid: windows, depths and targets."""
    views = []
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.integers(0, T - 1))
        hi = draw(st.integers(lo + 1, T))
        visible = draw(st.lists(st.integers(0, n_layers), min_size=hi - lo,
                                max_size=hi - lo))
        cells = [(lo + i, k) for i, d in enumerate(visible)
                 for k in range(d, n_layers)]
        if not cells:
            continue
        targets = draw(st.lists(st.sampled_from(cells), min_size=1,
                                max_size=6))
        views.append(View(lo, np.array(visible), np.array(targets)))
    return views


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 4),
       st.integers(1, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_planned_pricing_matches_the_scalar_scan(seed, vocab, n_layers, T,
                                                 data):
    """Keys, rows and fallback names of a batched query equal the
    cell-by-cell scan and per-key fallback chain, and a multi-view batch
    prices exactly as its views priced one at a time."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, vocab, n_layers)
    tokens = rng.integers(0, vocab, size=(T, n_layers)).astype(np.int32)
    views = data.draw(views_of(T, n_layers))
    if not views:
        return
    if data.draw(st.booleans()):  # the first view's contexts seen before
        first = MaskedQuery(tokens, views[:1])
        model.observe(first, rng.integers(0, vocab, len(first.targets)))
    query = MaskedQuery(tokens, views)
    rows, fallbacks = model.pmf(query)
    want = []
    for lo, visible, targets in views:
        full = np.zeros(T, dtype=np.int64)
        full[lo:lo + len(visible)] = visible
        for t, k in targets.tolist():
            want.append(reference_key(model, tokens, full, t, k, lo,
                                      lo + len(visible)))
    keys = encode_key(vocab, *query.context())
    assert keys.tolist() == [w[0] for w in want]
    np.testing.assert_array_equal(rows, cumulative(np.array([w[1] for w in want])))
    assert fallbacks == [w[2] for w in want]
    assert set(fallbacks) <= set(FALLBACKS)

    alone = [model.pmf(MaskedQuery(tokens, [v])) for v in views]
    np.testing.assert_array_equal(rows, np.concatenate([r for r, _ in alone]))
    assert fallbacks == [f for _, fb in alone for f in fb]
    np.testing.assert_array_equal(
        model.predict(query),
        np.concatenate([model.predict(MaskedQuery(tokens, [v]))
                        for v in views]))


@given(st.integers(2, 16), st.data())
@settings(max_examples=80)
def test_encode_key_is_injective(vocab, data):
    parts = st.tuples(st.integers(0, 7),
                      st.integers(-1, vocab - 1),
                      st.integers(-1, vocab - 1),
                      st.integers(-1, vocab - 1))
    a = data.draw(parts)
    b = data.draw(parts)
    ka = encode_key(vocab, *a)
    kb = encode_key(vocab, *b)
    assert (ka == kb) == (a == b)


# --- models ------------------------------------------------------------------

def test_uniform_model():
    m = UniformModel(5)
    q = full_query(np.zeros((2, 1)), np.zeros(2, dtype=int), [(0, 0), (1, 0)])
    rows, fb = m.pmf(q)
    assert fb == ["uniform", "uniform"]
    np.testing.assert_array_equal(rows, cumulative(np.stack([uniform_pmf(5)] * 2)))
    np.testing.assert_array_equal(m.predict(q), [0, 0])
    with pytest.raises(ValueError):
        UniformModel(1)


def test_count_model_fallback_chain():
    """Each observe after a pmf call reprices later queries: unseen, then
    marginal, then conditional."""
    m = CountModel(vocab=4, n_layers=2)
    tokens = np.array([[1, 2], [3, 0], [1, 1]])
    q = full_query(tokens, np.array([2, 0, 2]), [(1, 0)])
    _, fb = m.pmf(q)
    assert fb == ["uniform"]

    # Another context of the same layer: the key is still unseen, and the
    # layer marginal now has counts.
    other = full_query(tokens, np.array([0, 2, 2]), [(0, 0)])
    m.observe(other, [3])
    rows, fb = m.pmf(q)
    assert fb == ["marginal"]
    assert int(np.argmax(np.diff(rows[0]))) == 3

    # Exact key observed: conditional wins.
    m.observe(q, [2])
    rows, fb = m.pmf(q)
    assert fb == ["conditional"]
    assert int(np.argmax(np.diff(rows[0]))) == 2
    assert m.pmf(other)[1] == ["conditional"]


def test_observe_validation_and_counts():
    m = CountModel(vocab=4, n_layers=2)
    tokens = np.array([[1, 2], [3, 0]])
    q = full_query(tokens, np.array([2, 0]), [(1, 0)])
    with pytest.raises(ValueError):
        m.observe(q, [0, 1])
    with pytest.raises(ValueError):
        m.observe(q, [4])
    m.observe(q, [3])
    m.observe(q, [3])
    assert m.n_observed == 2
    assert int(m.marginals[0, 3]) == 2
    (key,) = m.tables
    np.testing.assert_array_equal(m.tables[key], [0, 0, 0, 2])


def test_predict_is_argmax_lowest_index():
    m = CountModel(vocab=4, n_layers=1)
    tokens = np.array([[1], [0], [1]])
    q = full_query(tokens, np.array([1, 0, 1]), [(1, 0)])
    m.observe(q, [2])
    m.observe(q, [3])  # tie between 2 and 3 -> lowest index 2
    assert m.predict(q)[0] == 2


# --- curriculum training -----------------------------------------------------

def make_grid(rng, T, n_layers, vocab, level=None):
    level = n_layers if level is None else level
    tokens = rng.integers(0, vocab, size=(T, n_layers))
    tokens[:, level:] = 0
    return TokenGrid(tokens, np.full(T, level, dtype=np.int16), vocab)


def test_train_count_model_determinism():
    rng = np.random.default_rng(13)
    grids = [make_grid(rng, 30, 4, 8) for _ in range(3)]
    sched = TrainSchedule(epochs=4, seed=5)
    a = train_count_model(grids, 8, 4, 1, sched)
    b = train_count_model(grids, 8, 4, 1, sched)
    assert a.n_observed == b.n_observed > 0
    assert sorted(a.tables) == sorted(b.tables)
    for key in a.tables:
        np.testing.assert_array_equal(a.tables[key], b.tables[key])
    np.testing.assert_array_equal(a.marginals, b.marginals)


def test_train_count_model_validation():
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError):
        train_count_model([], 8, 4, 1)
    with pytest.raises(ValueError):
        train_count_model([make_grid(rng, 4, 3, 8)], 8, 4, 1)
    ragged = make_grid(rng, 4, 4, 8)
    ragged.level[2] = 2
    with pytest.raises(ValueError):
        train_count_model([ragged], 8, 4, 1)
    with pytest.raises(ValueError):
        train_count_model([make_grid(rng, 4, 4, 8)], 8, 4, 4)


def test_degenerate_schedule_masks_nothing():
    rng = np.random.default_rng(15)
    model = train_count_model([make_grid(rng, 20, 3, 8)], 8, 3, 1,
                              TrainSchedule(epochs=2, fixed_tau=1.0))
    assert model.n_observed == 0 and not model.tables


def assert_same_counts(a: CountModel, b: CountModel) -> None:
    assert a.n_observed == b.n_observed
    np.testing.assert_array_equal(a.marginals, b.marginals)
    assert sorted(a.tables) == sorted(b.tables)
    for key in a.tables:
        np.testing.assert_array_equal(a.tables[key], b.tables[key])


@st.composite
def training_setups(draw):
    """(corpus, vocab, n_layers, n_coarse, schedule): ragged grid lengths,
    each grid uniformly encoded at its own level."""
    vocab = draw(st.one_of(st.integers(2, 8), st.just(256)))
    n_layers = draw(st.integers(2, 6))
    n_coarse = draw(st.integers(1, n_layers - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    corpus = [make_grid(rng, T, n_layers, vocab, level)
              for T, level in draw(st.lists(
                  st.tuples(st.integers(1, 16), st.integers(1, n_layers)),
                  min_size=1, max_size=4))]
    schedule = TrainSchedule(epochs=draw(st.integers(1, 3)),
                             seed=draw(st.integers(0, 2**31 - 1)),
                             fixed_tau=draw(st.sampled_from([None, 0.0, 1.0])))
    return corpus, vocab, n_layers, n_coarse, schedule


@given(training_setups())
@settings(max_examples=60, deadline=None)
def test_train_count_model_matches_reference(setup):
    """Counting each sample through observe() gives exactly the counts of
    the hand-written neighbor rule, at every vocab."""
    assert_same_counts(train_count_model(*setup),
                       reference_train_count_model(*setup))


def test_trained_keys_stay_in_range_at_vocab_256():
    """At vocab 256, samples that mask one layer above layer 1
    (K == k_low >= 2) train keys inside the key range, as pricing reads
    them."""
    vocab, n_layers = 256, 3
    rng = np.random.default_rng(17)
    grids = [make_grid(rng, 24, n_layers, vocab, level=2) for _ in range(8)]
    sched = TrainSchedule(epochs=4, seed=3)
    model = train_count_model(grids, vocab, n_layers, 2, sched)
    assert model.n_observed > 0
    keys = np.array(sorted(model.tables), dtype=np.int64)
    assert keys.min() >= 0 and keys.max() < n_layers * (vocab + 1) ** 3
    assert_same_counts(model,
                       reference_train_count_model(grids, vocab, n_layers, 2,
                                                   sched))


# --- serialization -----------------------------------------------------------

def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    grids = [make_grid(rng, 40, 3, 8) for _ in range(2)]
    model = train_count_model(grids, 8, 3, 1, TrainSchedule(epochs=3, seed=1))
    path = tmp_path / "model.ctx"
    save_count_model(path, model)
    back = load_count_model(path)
    assert back.vocab == 8 and back.n_layers == 3
    assert back.alpha == model.alpha
    assert back.n_observed == model.n_observed
    np.testing.assert_array_equal(back.marginals, model.marginals)
    assert sorted(back.tables) == sorted(model.tables)
    for key in model.tables:
        np.testing.assert_array_equal(back.tables[key], model.tables[key])
    assert len(model_digest(path)) == 64


def test_model_file_integrity_check(tmp_path):
    model = CountModel(vocab=4, n_layers=2)
    path = tmp_path / "m.ctx"
    save_count_model(path, model)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="integrity"):
        load_count_model(path)


def test_model_file_version_and_magic(tmp_path):
    path = tmp_path / "m.ctx"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        load_count_model(path)
    model = CountModel(vocab=4, n_layers=2)
    save_count_model(path, model)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_count_model(path)


def test_model_file_truncated_body_is_refused(tmp_path):
    """A body shorter than its declared sizes is refused even when the
    digest covers exactly that body."""
    model = CountModel(vocab=4, n_layers=2, tables={7: np.arange(4)})
    path = tmp_path / "m.ctx"
    save_count_model(path, model)
    body = path.read_bytes()[37:]
    for cut in (10, 40, len(body) - 8):
        short = body[:cut]
        path.write_bytes(b"CTX1\x01" + hashlib.sha256(short).digest() + short)
        with pytest.raises(ValueError, match="truncated"):
            load_count_model(path)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_count_model_alpha_must_be_finite_and_positive(alpha):
    with pytest.raises(ValueError, match="alpha"):
        CountModel(vocab=4, n_layers=2, alpha=alpha)

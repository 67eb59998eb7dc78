"""Experiment runner: config validation, paired trials, stable outputs."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenwire import __version__, experiment
from tokenwire.context import save_count_model
from tokenwire.errors import ConfigError
from tokenwire.experiment import (CSV_COLUMNS, ExperimentConfig, MetricsRow,
                                  _seed_of, config_from_dict, load_config,
                                  run_experiment, run_trial, summarize,
                                  sweep_points, train_stack, trial_inputs)
from tokenwire.grid import TokenState
from tokenwire.rvq import save_codec
from tokenwire.transport import MarkovChannel


def test_config_defaults_round_trip():
    assert config_from_dict({}) == ExperimentConfig()
    # int losses are normalized to floats
    assert config_from_dict({"losses": [0, 1]}).losses == (0.0, 1.0)


@pytest.mark.parametrize("data,path", [
    ({"bogus": 1}, "bogus"),
    ({"gos_len": "12"}, "gos_len"),
    ({"gos_len": True}, "gos_len"),
    ({"n_trials": 0}, "n_trials"),
    ({"base_seed": -1}, "base_seed"),
    ({"conceal_fine_layers": -1}, "conceal_fine_layers"),
    ({"levels": 8}, "levels"),
    ({"levels": []}, "levels"),
    ({"levels": [2.5]}, r"levels\[0\]"),
    ({"fec_modes": [1]}, r"fec_modes\[0\]"),
    ({"levels": [9]}, r"levels\[0\]"),
    ({"levels": [1]}, r"levels\[0\]"),
    ({"models": ["cnt"]}, r"models\[0\]"),
    ({"channels": ["tcp"]}, r"channels\[0\]"),
    ({"losses": [1.5]}, r"losses\[0\]"),
    # the masking schedule's knobs are retired: unknown fields
    ({"fixed_tau": 2.0}, "fixed_tau"),
    ({"fixed_tau": True}, "fixed_tau"),
    ({"dim": 400}, "dim"),
    ({"n_coarse": 8}, "n_coarse"),
    ({"n_units": 13}, "n_units"),
    ({"key_unit": 0}, "key_unit: unknown field"),
    ({"vocab": 1}, "vocab"),
    ({"train_clips": 1, "clip_frames": 1, "vocab": 64}, "train_clips"),
    ({"vocab": 65537, "train_clips": 2731}, "vocab: must be at most 65535"),
    ({"vocab": 65536, "train_clips": 2731}, "vocab: must be at most 65535"),
    ({"schedule_epochs": 40}, "schedule_epochs: unknown field"),
    ({"fixed_tau": 0.5}, "fixed_tau: unknown field"),
])
def test_config_errors_name_the_field(data, path):
    with pytest.raises(ConfigError, match=path):
        config_from_dict(data)


def test_vocab_up_to_the_coder_total_is_accepted():
    # the codec and model files hold vocab in 16 bits, one token short of
    # the coder's total; 2731 clips of 24 frames seed the 65534 trainable
    # entries
    assert config_from_dict({"vocab": 65535, "train_clips": 2731}).vocab \
        == 65535


def test_config_error_carries_the_path():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"losses": [0.1, -0.2]})
    assert exc.value.path == "losses[1]"


def test_load_config(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"n_trials": 5, "losses": [0.0, 0.25]}))
    cfg = load_config(p)
    assert cfg.n_trials == 5 and cfg.losses == (0.0, 0.25)
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="<root>"):
        load_config(bad)


def test_seed_of_is_stable():
    # frozen: seeding must never drift between releases
    assert _seed_of(0, "clip", 3) == 4964474424238467649
    assert _seed_of(0, "clip", 3) == _seed_of(0, "clip", 3)
    assert _seed_of(0, "clip") != _seed_of(0, "clip", 3)
    assert _seed_of(1, "clip", 3) != _seed_of(0, "clip", 3)
    assert _seed_of(0, "channel", "markov", 0.1, 7) < 2 ** 63


def test_metrics_row_as_csv():
    row = MetricsRow(loss_ratio=0.1, channel="bernoulli", fec=True,
                     model="count", level="8", bitrate_kbps=12.5,
                     si_snr_db=20.0, sdr_db=18.0, mfcc_dist=3.25,
                     token_accuracy=None, seed=42)
    vals = row.as_csv()
    assert len(vals) == len(CSV_COLUMNS)
    assert vals[0] == "0.100000" and vals[2] == 1
    assert vals[9] == ""  # None accuracy stays blank, not 0
    row2 = dataclasses.replace(row, token_accuracy=0.75)
    assert row2.as_csv()[9] == "0.750000"


def test_sweep_points_markov_ignores_losses():
    cfg = config_from_dict({"channels": ["bernoulli", "markov"],
                            "losses": [0.0, 0.1],
                            "fec_modes": [True, False],
                            "models": ["count", "uniform"]})
    pts = sweep_points(cfg)
    bern = [p for p in pts if p[0] == "bernoulli"]
    mark = [p for p in pts if p[0] == "markov"]
    assert len(bern) == 8 and len(mark) == 4
    assert all(p[1] == -1.0 for p in mark)


def test_run_trial_is_deterministic_and_paired(mini_cfg, mini_stack):
    a = run_trial(mini_cfg, mini_stack, "bernoulli", 0.2, True, "count", 1)
    b = run_trial(mini_cfg, mini_stack, "bernoulli", 0.2, True, "count", 1)
    assert a == b
    # the clip is pinned by the trial index, not by the sweep point
    c = run_trial(mini_cfg, mini_stack, "bernoulli", 0.0, False, "uniform", 1)
    assert c.seed == a.seed
    assert c.token_accuracy is None  # lossless leaves nothing concealed
    # the miniature codec is too coarse for high fidelity; just require
    # a sane, uncapped measurement
    assert -100.0 < c.si_snr_db < 100.0
    assert a.bitrate_kbps > 0.0
    assert a.level == "3" and a.channel == "bernoulli"


def test_run_trial_markov_reports_stationary_loss(mini_cfg, mini_stack):
    row = run_trial(mini_cfg, mini_stack, "markov", 0.0, True, "count", 0)
    assert row.loss_ratio == pytest.approx(0.1295, abs=1e-12)
    assert row.channel == "markov"


def test_run_trial_builds_no_markov_channel(mini_cfg, mini_stack,
                                            monkeypatch):
    # each construction validates and solves the chain; every trial
    # samples the one default chain built on import, and reads its loss
    # ratio from it
    built = []
    init = MarkovChannel.__post_init__
    monkeypatch.setattr(MarkovChannel, "__post_init__",
                        lambda self: built.append(init(self)))
    rows = [run_trial(mini_cfg, mini_stack, "markov", 0.0, True, "count",
                      trial) for trial in range(4)]
    assert len(built) == 0
    assert {row.loss_ratio for row in rows} == {
        MarkovChannel().stationary_loss()}


def test_run_trial_variable_level(mini_cfg, mini_stack):
    cfg = dataclasses.replace(mini_cfg, levels=(1, 3))
    row = run_trial(cfg, mini_stack, "bernoulli", 0.0, True, "count", 0)
    assert row.level == "variable"
    assert row.bitrate_kbps > 0.0


def _mini_sweep(cfg, levels=None):
    """``cfg`` over both channels, losses 0 and 0.2, FEC on and off and
    both models, and its visits, each a (point, trial) pair, point-major."""
    cfg = dataclasses.replace(cfg, levels=levels or cfg.levels,
                              channels=("bernoulli", "markov"),
                              losses=(0.0, 0.2), fec_modes=(True, False),
                              models=("count", "uniform"))
    return cfg, [((ch, max(p, 0.0), fec, model), t)
                 for ch, p, fec, model in sweep_points(cfg)
                 for t in range(cfg.n_trials)]


# rows of the mini sweep's visits, each made with an empty memo, per level
# mode: the property below compares every visit order against them
_FRESH_ROWS: dict = {}


@pytest.mark.parametrize("levels", [(3,), (1, 3)], ids=["fixed", "variable"])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_memoized_trials_give_the_rows_of_fresh_ones(mini_cfg, mini_stack,
                                                     levels, data):
    """A trial's inputs, and the scores of its lossless decode, come from
    the stack's memo at every visit after the first that makes them; the
    rows equal those of trials that each make their inputs and scores
    anew, whichever order the points and trials run in."""
    cfg, visits = _mini_sweep(mini_cfg, levels)
    if levels not in _FRESH_ROWS:
        fresh = {}
        for point, t in visits:
            mini_stack.trials.clear()
            fresh[point, t] = run_trial(cfg, mini_stack, *point, t)
        _FRESH_ROWS[levels] = fresh
    order = data.draw(st.permutations(visits), label="order")
    mini_stack.trials.clear()
    got = {(pt, t): run_trial(cfg, mini_stack, *pt, t) for pt, t in order}
    assert got == _FRESH_ROWS[levels]
    assert len(mini_stack.trials) == cfg.n_trials


def _count_calls(monkeypatch, *names) -> dict:
    """Count the calls ``run_trial`` makes to each of ``names``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(experiment, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(experiment, name, counted)
    return calls


def test_each_trial_scores_its_lossless_decode_once(mini_cfg, mini_stack,
                                                    monkeypatch):
    """A visit that receives every chunk's sent grid, tokens and levels,
    decodes and scores only if it is its trial's first such visit; every
    other visit decodes and scores its own estimate."""
    cfg, visits = _mini_sweep(mini_cfg)
    calls = _count_calls(monkeypatch, "synthesize", "mfcc_distance")
    received = []
    receive = experiment.receive_tokens

    def recording(*args, **kwargs):
        out = receive(*args, **kwargs)
        received.append(out[0])
        return out

    monkeypatch.setattr(experiment, "receive_tokens", recording)
    mini_stack.trials.clear()
    lossy, lossless = 0, []
    for point, t in visits:
        received.clear()
        run_trial(cfg, mini_stack, *point, t)
        chunks = trial_inputs(cfg, mini_stack, t).chunks
        if all(np.array_equal(rx.tokens, grid.tokens)
               and np.array_equal(rx.level, grid.level)
               for rx, (grid, _) in zip(received, chunks, strict=True)):
            lossless.append(t)
        else:
            lossy += 1
    # every visit at loss 0 is lossless, at four points, and some at 0.2
    # or in a burst are too
    assert len(lossless) > 4 * cfg.n_trials and lossy > 0
    want = lossy + len(set(lossless))
    assert calls == {"synthesize": want, "mfcc_distance": want}


def test_a_concealed_cell_keeps_its_accuracy_and_reads_the_slot(
        mini_cfg, mini_stack, monkeypatch):
    """At a level equal to ``n_coarse`` a correctly concealed cell leaves
    the grid equal to the truth: the visit takes its trial's lossless
    scores from the slot, and its token accuracy from its own states."""
    mini_stack.trials.clear()
    clean = run_trial(mini_cfg, mini_stack, "bernoulli", 0.0, True, "count",
                      0)
    receive = experiment.receive_tokens

    def concealing(*args, **kwargs):
        rx, states, rep = receive(*args, **kwargs)
        states = states.copy()
        states[0, 0] = TokenState.CONCEALED
        return rx, states, rep

    monkeypatch.setattr(experiment, "receive_tokens", concealing)
    calls = _count_calls(monkeypatch, "synthesize", "si_snr", "sdr",
                         "mfcc_distance")
    row = run_trial(mini_cfg, mini_stack, "bernoulli", 0.0, False, "uniform",
                    0)
    assert clean.token_accuracy is None and row.token_accuracy == 1.0
    assert (row.si_snr_db, row.sdr_db, row.mfcc_dist) == (
        clean.si_snr_db, clean.sdr_db, clean.mfcc_dist)
    assert calls == dict.fromkeys(calls, 0)


def test_trial_memo_holds_one_config(mini_cfg, mini_stack):
    mini_stack.trials.clear()
    for t in range(mini_cfg.n_trials):
        run_trial(mini_cfg, mini_stack, "bernoulli", 0.2, True, "count", t)
    assert set(mini_stack.trials) == {(mini_cfg, t)
                                      for t in range(mini_cfg.n_trials)}
    first = trial_inputs(mini_cfg, mini_stack, 0)
    assert trial_inputs(mini_cfg, mini_stack, 0) is first

    other = dataclasses.replace(mini_cfg, base_seed=12, n_trials=2)
    for t in (0, 1, 0, 1):
        run_trial(other, mini_stack, "markov", 0.0, False, "uniform", t)
    assert set(mini_stack.trials) == {(other, 0), (other, 1)}
    assert trial_inputs(other, mini_stack, 0).seed != first.seed


def test_cached_trial_inputs_are_read_only(mini_cfg, mini_stack):
    cfg = dataclasses.replace(mini_cfg, levels=(1, 3))
    inputs = trial_inputs(cfg, mini_stack, 0)
    assert len(inputs.chunks) == 2  # one chunk per group-of-slices
    arrays = [inputs.clip.samples, inputs.truth.tokens, inputs.truth.level,
              *inputs.reference.values()]
    for grid, sg in inputs.chunks:
        arrays += [grid.tokens, grid.level, *sg.slices.values()]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


def test_run_experiment_outputs(tmp_path, mini_cfg):
    cfg = dataclasses.replace(mini_cfg, n_trials=2, losses=(0.0, 0.2),
                              models=("count",))
    rows, summary = run_experiment(cfg, out_dir=tmp_path)
    assert len(rows) == 4  # two losses, two trials

    csv_path = tmp_path / "results.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5

    with open(tmp_path / "summary.json") as fh:
        assert json.load(fh) == json.loads(json.dumps(summary))

    with open(tmp_path / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["package_version"] == __version__
    assert manifest["n_rows"] == 4
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert manifest["csv_sha256"] == digest
    # the stored config reconstructs the exact run configuration
    assert config_from_dict(manifest["config"]) == cfg

    rows2, _ = run_experiment(cfg)
    assert rows2 == rows


# results.csv of the mini sweep below, pinned while the "uniform" model
# was its own class; the empty count model must give the same rows
UNIFORM_SWEEP_CSV_SHA256 = (
    "fafaea4471724ea01bb4ce9426cd6e6cb885d860b602731ec97cf3cb9b0ad225")


def test_uniform_sweep_is_pinned(tmp_path, mini_cfg):
    cfg = dataclasses.replace(mini_cfg, n_trials=2,
                              channels=("bernoulli", "markov"),
                              losses=(0.0, 0.2), fec_modes=(True, False),
                              models=("count", "uniform"))
    run_experiment(cfg, out_dir=tmp_path)
    csv = (tmp_path / "results.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == UNIFORM_SWEEP_CSV_SHA256


# SHA-256 of the codec file and the count model file that train_stack
# fits for the mini and the default config, pinned while training summed
# each cluster with np.add.at, assigned with one distance expression and
# quantized the held-out clips one at a time. Faster training must fit
# the same bytes. Like the sweep above, training runs through BLAS
# matmuls, which another BLAS build may round differently.
TRAINED_SHA256 = {
    "mini": ("99e728e1dd71b7294f49a74334305f981f38e5de1b05b01377f8190be7c256ef",
             "44e5cf81df6990b285c32faca3cc4ecdc28e1a0eacf1021b339cee5ad65ff773"),
    "default": (
        "c74d27cb33ee7a4aa37d933304fb7c80e032848434d1eb6d53f3eab35175eaa7",
        "9344ea75fa84fce57046e86a70d9b15d6c6b4c0078fd90c8bc2c2ebdb2df92a1"),
}


@pytest.mark.parametrize("name", sorted(TRAINED_SHA256))
def test_trained_artifacts_are_pinned(tmp_path, mini_cfg, name):
    stack = train_stack(mini_cfg if name == "mini" else ExperimentConfig())
    save_codec(tmp_path / "codec.rvq", stack.codec)
    save_count_model(tmp_path / "model.ctx", stack.count_model)
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("codec.rvq", "model.ctx"))
    assert got == TRAINED_SHA256[name]


def test_summarize_groups_and_deciles():
    def row(si, acc, loss=0.1):
        return MetricsRow(loss_ratio=loss, channel="bernoulli", fec=True,
                          model="count", level="8", bitrate_kbps=10.0,
                          si_snr_db=si, sdr_db=si, mfcc_dist=1.0,
                          token_accuracy=acc, seed=0)

    rows = [row(float(i), None if i % 2 else 0.5) for i in range(11)]
    rows.append(row(99.0, None, loss=0.3))
    # a silent estimate scores the -100 dB floor
    rows += [row(si, None, loss=0.5) for si in (6.0, 7.0, 8.0, -100.0)]
    summary = summarize(rows)
    assert [g["loss_ratio"] for g in summary["groups"]] == [0.1, 0.3, 0.5]
    g = summary["groups"][0]
    assert g["n"] == 11
    assert g["mean_si_snr_db"] == pytest.approx(5.0)
    assert g["median_si_snr_db"] == 5.0
    assert g["si_snr_deciles"] == [float(i) for i in range(11)]
    assert g["mean_token_accuracy"] == pytest.approx(0.5)
    assert summary["groups"][1]["mean_token_accuracy"] is None
    floored = summary["groups"][2]
    assert floored["mean_si_snr_db"] == pytest.approx(-19.75)
    assert floored["median_si_snr_db"] == 6.5

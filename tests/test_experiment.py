"""Experiment runner: config validation, paired trials, stable outputs."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from tokenwire import __version__
from tokenwire.errors import ConfigError
from tokenwire.experiment import (CSV_COLUMNS, ExperimentConfig, MetricsRow,
                                  _seed_of, config_from_dict, load_config,
                                  run_experiment, run_trial, summarize,
                                  sweep_points, trial_inputs)


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


def test_run_trial_variable_level(mini_cfg, mini_stack):
    cfg = dataclasses.replace(mini_cfg, levels=(1, 3))
    row = run_trial(cfg, mini_stack, "bernoulli", 0.0, True, "count", 0)
    assert row.level == "variable"
    assert row.bitrate_kbps > 0.0


@pytest.mark.parametrize("levels", [(3,), (1, 3)], ids=["fixed", "variable"])
def test_memoized_trials_give_the_rows_of_fresh_ones(mini_cfg, mini_stack,
                                                     levels):
    """A trial's inputs come from the stack's memo at every sweep point
    after its first; the rows equal those of trials that each make their
    inputs anew, whichever order the points and trials run in."""
    cfg = dataclasses.replace(mini_cfg, levels=levels,
                              channels=("bernoulli", "markov"),
                              losses=(0.0, 0.2), fec_modes=(True, False),
                              models=("count", "uniform"))
    points = [(ch, max(p, 0.0), fec, model)
              for ch, p, fec, model in sweep_points(cfg)]
    trials = range(cfg.n_trials)

    def fresh(point, trial):
        mini_stack.trials.clear()
        return run_trial(cfg, mini_stack, *point, trial)

    want = {(pt, t): fresh(pt, t) for pt in points for t in trials}
    point_major = [(pt, t) for pt in points for t in trials]
    trial_major = [(pt, t) for t in trials for pt in points]
    for order in (point_major, trial_major):
        mini_stack.trials.clear()
        got = {(pt, t): run_trial(cfg, mini_stack, *pt, t) for pt, t in order}
        assert got == want
        assert len(mini_stack.trials) == cfg.n_trials


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

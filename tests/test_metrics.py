"""Fidelity metrics: dB anchors, cepstral distance, concealment accuracy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_reference import (reference_mfcc, reference_mfcc_distance,
                              sliding_window_mfcc,
                              sliding_window_mfcc_distance,
                              sliding_window_mfcc_reference)

from tokenwire import experiment
from tokenwire.audio import AudioSignal, synthesize
from tokenwire.grid import TokenGrid, TokenState
from tokenwire.metrics import (_filterbank, mfcc, mfcc_distance,
                               mfcc_reference, sdr, si_snr, token_accuracy)
from tokenwire.rvq import dequantize

R = int(TokenState.RECEIVED)
C = int(TokenState.CONCEALED)


def noise(seed: int, n: int = 8000) -> np.ndarray:
    return np.random.default_rng(seed).normal(0.0, 0.2, n)


def test_sdr_anchors():
    x = noise(1)
    assert sdr(x, x) == 100.0
    # halving the signal leaves half of it as residual: 10 log10 4
    assert sdr(x, 0.5 * x) == pytest.approx(6.0206, abs=1e-3)
    assert sdr(x, np.zeros_like(x)) == 0.0
    assert sdr(x, 2.0 * x) == 0.0
    assert sdr(x, -x) == pytest.approx(-6.0206, abs=1e-3)


def test_si_snr_is_scale_invariant():
    x = noise(2)
    for c in (0.1, 1.0, 10.0, -1.0):
        assert si_snr(x, c * x) == 100.0


def test_si_snr_hand_values():
    r = np.array([1.0, 0.0])
    assert si_snr(r, np.array([0.0, 1.0])) == -100.0  # pure orthogonal
    assert si_snr(r, np.array([1.0, 1.0])) == 0.0     # equal parts
    assert si_snr(r, r) == 100.0


def test_metric_error_paths():
    x = noise(3)
    with pytest.raises(ValueError, match="equal length"):
        si_snr(x, x[:-1])
    with pytest.raises(ValueError, match="zero energy"):
        sdr(np.zeros(16), np.ones(16))
    with pytest.raises(ValueError, match="equal length"):
        mfcc_distance(x, x[:-1])


def test_metrics_accept_audio_signals():
    x = noise(4)
    a = AudioSignal(x, 16000)
    assert si_snr(a, a) == 100.0
    assert sdr(a, AudioSignal(0.5 * x, 16000)) == pytest.approx(6.0206,
                                                                abs=1e-3)


def test_metrics_refuse_mismatched_sample_rates():
    x = noise(6)
    a, b = AudioSignal(x, 16000), AudioSignal(x, 8000)
    for metric in (si_snr, sdr, mfcc_distance):
        with pytest.raises(ValueError, match="sample rate"):
            metric(a, b)
        with pytest.raises(ValueError, match="sample rate"):
            metric(b, a)
    assert si_snr(a, AudioSignal(x, 16000)) == 100.0


def test_mfcc_distance_takes_the_rate_of_either_signal():
    x, y = noise(7), noise(8)
    at_8k = mfcc_distance(x, y, 8000)
    assert at_8k != mfcc_distance(x, y, 16000)
    assert mfcc_distance(AudioSignal(x, 8000), y) == at_8k
    assert mfcc_distance(x, AudioSignal(y, 8000)) == at_8k
    # a carried rate wins over the keyword, as in mfcc
    assert mfcc_distance(x, AudioSignal(y, 8000), 16000) == at_8k


def test_mfcc_shape_and_validation():
    x = noise(5)  # half a second at 16 kHz
    cep = mfcc(x, 16000, n_coef=16)
    assert cep.shape == (48, 16)
    assert np.all(np.isfinite(cep))
    with pytest.raises(ValueError, match="analysis window"):
        mfcc(x[:300], 16000)
    with pytest.raises(ValueError, match="n_mels"):
        mfcc(x, 16000, n_coef=48, n_mels=40)


def test_mfcc_distance_separates_signals():
    x = noise(77)
    assert mfcc_distance(x, x, 16000) == 0.0
    d_other = mfcc_distance(x, noise(78), 16000)
    assert d_other > 0.0
    # silence is much farther from x than another noise draw is
    d_silence = mfcc_distance(x, np.zeros_like(x), 16000)
    assert d_silence > d_other
    # regression anchor for the whole cepstral front end
    assert d_silence == pytest.approx(1497020.0966, rel=1e-6)


@st.composite
def signal_pairs(draw):
    """(ref, est, sample_rate): at least one analysis window, hop-misaligned
    lengths included, with a scaled, noisy or silent estimate."""
    sample_rate = draw(st.sampled_from((8000, 16000, 22050)))
    win_len = int(round(0.025 * sample_rate))
    hop = int(round(0.010 * sample_rate))
    n = win_len + draw(st.integers(0, 12)) * hop + draw(st.integers(0, hop - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ref = rng.normal(0.0, 0.2, n)
    kind = draw(st.sampled_from(("scaled", "noisy", "silent")))
    if kind == "scaled":
        est = draw(st.floats(0.01, 10.0)) * ref
    elif kind == "noisy":
        est = ref + rng.normal(0.0, draw(st.floats(1e-3, 1.0)), n)
    else:
        est = np.zeros(n)
    return ref, est, sample_rate


@given(signal_pairs(), st.data())
@settings(max_examples=60, deadline=None)
def test_mfcc_front_end_equals_reference(pair, data):
    ref, est, sample_rate = pair
    assert mfcc_distance(ref, est, sample_rate) == \
        reference_mfcc_distance(ref, est, sample_rate)
    n_mels = data.draw(st.integers(1, 80))
    n_coef = data.draw(st.integers(1, n_mels))
    assert np.array_equal(mfcc(ref, sample_rate, n_coef, n_mels),
                          reference_mfcc(ref, sample_rate, n_coef, n_mels))
    assert np.array_equal(mfcc(est, sample_rate, n_coef),
                          reference_mfcc(est, sample_rate, n_coef))


@given(signal_pairs(), st.data())
@settings(max_examples=80, deadline=None)
def test_cepstra_equal_the_sliding_window_front_end(pair, data):
    """The in-place front end, framing through a strided view with a
    cached window, gives ``mfcc``, ``mfcc_reference`` and
    ``mfcc_distance`` the bytes of the sliding-window front end that
    allocates every step, on contiguous and strided samples alike, and
    leaves its input unchanged."""
    ref, est, sample_rate = pair
    if data.draw(st.booleans(), label="strided"):
        ref = np.repeat(ref, 2)[::2]
    kept = ref.copy()
    n_mels = data.draw(st.integers(1, 80), label="n_mels")
    n_coef = data.draw(st.integers(1, n_mels), label="n_coef")
    assert mfcc(ref, sample_rate, n_coef, n_mels).tobytes() == \
        sliding_window_mfcc(ref, sample_rate, n_coef, n_mels).tobytes()
    got = mfcc_reference(AudioSignal(ref, sample_rate))
    want = sliding_window_mfcc_reference(ref, sample_rate)
    assert got.keys() == want.keys()
    for n in want:
        assert got[n].tobytes() == want[n].tobytes()
    distance = sliding_window_mfcc_distance(ref, est, sample_rate)
    assert mfcc_distance(ref, est, sample_rate) == distance
    assert mfcc_distance(ref, est, sample_rate, reference=got) == distance
    assert ref.tobytes() == kept.tobytes()


@given(signal_pairs())
@settings(max_examples=40, deadline=None)
def test_precomputed_reference_gives_the_same_distance(pair):
    ref, est, sample_rate = pair
    reference = mfcc_reference(ref, sample_rate)
    assert mfcc_distance(ref, est, sample_rate, reference=reference) == \
        mfcc_distance(ref, est, sample_rate)
    # a reference serves many estimates, so none of it can be written
    for cepstrum in reference.values():
        with pytest.raises(ValueError, match="read-only"):
            cepstrum[0, 0] = 1.0


def test_reference_of_another_length_is_refused():
    x = noise(5, 4000)
    with pytest.raises(ValueError, match="reference cepstra"):
        mfcc_distance(x, x, 16000, reference=mfcc_reference(noise(6), 16000))


def test_cached_filterbank_is_read_only():
    fb = _filterbank(40, 512, 16000)
    assert fb is _filterbank(40, 512, 16000)
    with pytest.raises(ValueError, match="read-only"):
        fb[0, 0] = 1.0


def test_sweep_mfcc_dist_equals_reference(mini_cfg, monkeypatch):
    """Every row's MFCC distance is the reference's on its own clip and
    decoded estimate. A row that received its trial's sent grid may read
    its scores from the trial's slot and make no call; its estimate is
    then the decode of that grid, the truth."""
    seen, served = [], []

    def recording(ref, est, *args, **kwargs):
        seen.append((ref, est))
        return mfcc_distance(ref, est, *args, **kwargs)

    run_trial = experiment.run_trial

    def trial(cfg, stack, *point):
        calls = len(seen)
        row = run_trial(cfg, stack, *point)
        if len(seen) == calls:
            inputs = experiment.trial_inputs(cfg, stack, point[-1])
            feats = np.concatenate([dequantize(grid, stack.codec)
                                    for grid, _ in inputs.chunks])
            seen.append((inputs.clip, synthesize(feats, stack.codec_cfg,
                                                 cfg.sample_rate)))
            served.append(row)
        return row

    monkeypatch.setattr(experiment, "mfcc_distance", recording)
    monkeypatch.setattr(experiment, "run_trial", trial)
    rows, _ = experiment.run_experiment(mini_cfg)
    assert len(seen) == len(rows) > len(served) > 0
    for row, (clip, est) in zip(rows, seen):
        assert row.mfcc_dist == reference_mfcc_distance(
            clip.samples, est.samples, mini_cfg.sample_rate)


def test_token_accuracy_counts_only_concealed_cells():
    truth = TokenGrid(np.arange(12, dtype=np.int64).reshape(4, 3) % 8,
                      np.full(4, 3), 8)
    rec_tokens = truth.tokens.copy()
    states = np.full((4, 3), R, dtype=np.int8)
    rec = TokenGrid(rec_tokens, np.full(4, 3), 8)
    assert token_accuracy(truth, rec, states) is None

    states[0, 1] = C
    states[2, 2] = C
    rec_tokens = truth.tokens.copy()
    rec_tokens[2, 2] = (rec_tokens[2, 2] + 1) % 8  # one wrong guess
    rec_tokens[3, 0] = (rec_tokens[3, 0] + 1) % 8  # R cells never count
    rec = TokenGrid(rec_tokens, np.full(4, 3), 8)
    assert token_accuracy(truth, rec, states) == 0.5


def test_token_accuracy_shape_mismatch():
    truth = TokenGrid(np.zeros((4, 3), dtype=np.int64), np.full(4, 3), 8)
    rec = TokenGrid(np.zeros((5, 3), dtype=np.int64), np.full(5, 3), 8)
    with pytest.raises(ValueError, match="shape"):
        token_accuracy(truth, rec, np.full((4, 3), R))
    rec = TokenGrid(np.zeros((4, 3), dtype=np.int64), np.full(4, 3), 8)
    with pytest.raises(ValueError, match="shape"):
        token_accuracy(truth, rec, np.full((4, 2), R))

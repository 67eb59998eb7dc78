"""Frame transform and audio file I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenwire.audio import (
    AudioSignal,
    CodecConfig,
    analyze,
    read_audio,
    read_f32,
    read_wav,
    synthesize,
    write_audio,
    write_f32,
    write_wav,
)


def sig(x, rate=16000):
    return AudioSignal(np.asarray(x, dtype=np.float64), rate)


def dct2_ortho_matrix(n):
    # Independent DCT-II construction: C[k, i] = s_k sqrt(2/N) cos(pi k (2i+1) / 2N)
    # with s_0 = 1/sqrt(2). Written out longhand so the transform under test
    # is checked against the textbook definition, not against itself.
    C = np.zeros((n, n))
    for k in range(n):
        for i in range(n):
            C[k, i] = math.sqrt(2.0 / n) * math.cos(math.pi * k * (2 * i + 1) / (2 * n))
    C[0, :] /= math.sqrt(2.0)
    return C


def test_analyze_matches_explicit_dct():
    cfg = CodecConfig(frame_len=4, dim=4)
    x = np.random.default_rng(1).uniform(-1, 1, size=8)
    feats = analyze(sig(x), cfg)
    C = dct2_ortho_matrix(4)
    want = np.stack([C @ x[:4], C @ x[4:]])
    np.testing.assert_allclose(feats, want, atol=1e-12)


def test_analyze_truncates_to_dim():
    cfg = CodecConfig(frame_len=8, dim=3)
    x = np.random.default_rng(2).uniform(-1, 1, size=16)
    full = analyze(sig(x), CodecConfig(frame_len=8, dim=8))
    np.testing.assert_allclose(analyze(sig(x), cfg), full[:, :3])


def test_round_trip_exact_when_dim_equals_frame_len():
    cfg = CodecConfig(frame_len=32, dim=32)
    x = np.random.default_rng(3).uniform(-0.99, 0.99, size=96)
    y = synthesize(analyze(sig(x), cfg), cfg)
    np.testing.assert_allclose(y.samples, x, atol=1e-10)
    assert y.sample_rate == 16000


def test_analyze_rejects_bad_lengths():
    cfg = CodecConfig(frame_len=320, dim=64)
    with pytest.raises(ValueError):
        analyze(sig(np.zeros(321)), cfg)


def test_codec_config_validation():
    with pytest.raises(ValueError):
        CodecConfig(frame_len=0, dim=1)
    with pytest.raises(ValueError):
        CodecConfig(frame_len=8, dim=9)
    with pytest.raises(ValueError):
        CodecConfig(frame_len=8, dim=0)


@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_synthesize_output_is_clipped(n_frames, seed):
    cfg = CodecConfig(frame_len=16, dim=16)
    feats = np.random.default_rng(seed).normal(scale=5.0, size=(n_frames, 16))
    y = synthesize(feats, cfg).samples
    assert y.shape == (n_frames * 16,)
    assert np.all(y <= 1.0) and np.all(y >= -1.0)


def test_audio_signal_validation():
    with pytest.raises(ValueError):
        AudioSignal(np.zeros((2, 2)), 16000)
    with pytest.raises(ValueError):
        AudioSignal(np.zeros(4), 0)
    assert AudioSignal(np.zeros(32000), 16000).duration == 2.0


def test_wav_round_trip(tmp_path):
    x = np.random.default_rng(4).uniform(-0.9, 0.9, size=1600)
    path = tmp_path / "clip.wav"
    write_wav(path, sig(x))
    back = read_wav(path)
    assert back.sample_rate == 16000
    # Write scales by 32767 and read divides by 32768, so the worst case
    # is rounding (0.5 LSB) plus the scale mismatch (|x| LSB): 1.5 LSB.
    assert np.max(np.abs(back.samples - x)) <= 1.5 / 32768 + 1e-9


def test_f32_round_trip(tmp_path):
    x = np.random.default_rng(5).uniform(-1, 1, size=777)
    path = tmp_path / "clip.f32"
    write_f32(path, sig(x, 24000))
    back = read_f32(path)
    assert back.sample_rate == 24000
    np.testing.assert_allclose(back.samples, x, atol=1e-6)


def test_read_audio_dispatch(tmp_path):
    x = np.zeros(320)
    write_audio(tmp_path / "a.wav", sig(x))
    write_audio(tmp_path / "a.f32", sig(x))
    assert read_audio(tmp_path / "a.wav").samples.shape == (320,)
    assert read_audio(tmp_path / "a.f32").samples.shape == (320,)
    with pytest.raises(ValueError):
        read_audio(tmp_path / "a.mp3")

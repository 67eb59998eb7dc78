"""Toy transform codec used as the front end of the transceiver.

The codec is deliberately simple: the signal is cut into non-overlapping
frames and each frame is represented by the first ``dim`` coefficients of
an orthonormal DCT-II. It stands in for a learned encoder/decoder so that
the token pipeline around it can be exercised end to end.
"""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.fft import dct, idct


@dataclass
class AudioSignal:
    """Mono audio in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class CodecConfig:
    """Analysis/synthesis parameters.

    frame_len: samples per frame (non-overlapping).
    dim: number of leading DCT coefficients kept per frame.
    """

    frame_len: int = 320
    dim: int = 64

    def __post_init__(self):
        if self.frame_len <= 0:
            raise ValueError("frame_len must be positive")
        if not 0 < self.dim <= self.frame_len:
            raise ValueError(
                f"dim must satisfy 0 < dim <= frame_len, got dim={self.dim} "
                f"frame_len={self.frame_len}"
            )


def analyze(signal: AudioSignal, config: CodecConfig) -> np.ndarray:
    """Transform a signal into per-frame feature vectors.

    Returns an array of shape (n_frames, dim): the first ``dim`` orthonormal
    DCT-II coefficients of each non-overlapping frame. The signal length must
    be a positive multiple of frame_len.
    """
    n = len(signal.samples)
    if n == 0 or n % config.frame_len != 0:
        raise ValueError(
            f"signal length {n} is not a positive multiple of frame_len "
            f"{config.frame_len}"
        )
    frames = signal.samples.reshape(-1, config.frame_len)
    coeffs = dct(frames, type=2, norm="ortho", axis=1)
    return coeffs[:, : config.dim].copy()


def synthesize(features: np.ndarray, config: CodecConfig,
               sample_rate: int = 16000) -> AudioSignal:
    """Invert `analyze`: zero-pad coefficients, inverse DCT, clamp to [-1, 1]."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != config.dim:
        raise ValueError(
            f"features must have shape (n_frames, {config.dim}), got {features.shape}"
        )
    full = np.zeros((features.shape[0], config.frame_len))
    full[:, : config.dim] = features
    frames = idct(full, type=2, norm="ortho", axis=1)
    samples = np.clip(frames.reshape(-1), -1.0, 1.0)
    return AudioSignal(samples, sample_rate)


# File I/O. WAV is 16-bit PCM mono; .f32 is raw little-endian float32.

def write_wav(path: str | Path, signal: AudioSignal) -> None:
    pcm = np.clip(np.round(signal.samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(signal.sample_rate)
        fh.writeframes(pcm.tobytes())


def read_wav(path: str | Path) -> AudioSignal:
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1:
                raise ValueError("only mono WAV input is supported")
            if fh.getsampwidth() != 2:
                raise ValueError("only 16-bit PCM WAV input is supported")
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except (EOFError, wave.Error) as exc:
        reason = str(exc) or "it ends early"
        raise ValueError(f"not a WAV file: {reason}") from None
    pcm = np.frombuffer(raw, dtype="<i2")
    return AudioSignal(pcm.astype(np.float64) / 32768.0, rate)


def write_f32(path: str | Path, signal: AudioSignal) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", signal.sample_rate))
        fh.write(signal.samples.astype("<f4").tobytes())


def read_f32(path: str | Path) -> AudioSignal:
    data = Path(path).read_bytes()
    if len(data) < 4 or (len(data) - 4) % 4 != 0:
        raise ValueError("malformed .f32 file")
    (rate,) = struct.unpack_from("<I", data, 0)
    samples = np.frombuffer(data[4:], dtype="<f4").astype(np.float64)
    return AudioSignal(samples, rate)


def read_audio(path: str | Path) -> AudioSignal:
    path = Path(path)
    if path.suffix.lower() == ".wav":
        return read_wav(path)
    if path.suffix.lower() == ".f32":
        return read_f32(path)
    raise ValueError(f"unsupported audio format: {path.suffix}")


def write_audio(path: str | Path, signal: AudioSignal) -> None:
    path = Path(path)
    if path.suffix.lower() == ".wav":
        write_wav(path, signal)
    elif path.suffix.lower() == ".f32":
        write_f32(path, signal)
    else:
        raise ValueError(f"unsupported audio format: {path.suffix}")

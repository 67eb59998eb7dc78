"""Monte Carlo experiment runner: sweeps, seeded trials, stable CSV output.

One run trains a codec and context model on synthetic audio, then sweeps
channel type, loss ratio, FEC, and model mode across paired seeded trials.
Pairing: the clip for trial i is identical at every sweep point, and the
channel realization is shared between FEC/model variants, so differences
between variants are never sampling noise from different inputs.

Because a trial's inputs do not depend on the sweep point, they are made
once: the trained stack memoizes, per trial of one config, the clip, each
chunk's sent token grid and slice layout, the whole clip's sent grid and
the clip's reference cepstra (``TrialInputs``). A trial then computes only
what its point changes: the channel draw, the send and receive, the
decoded audio and the metrics against it.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .audio import AudioSignal, CodecConfig, analyze, synthesize
from .context import CountModel, train_count_model
from .errors import ConfigError
from .grid import GosConfig, TokenGrid, _read_only, build_slice_grid
from .metrics import (mfcc_distance, mfcc_reference, sdr, si_snr,
                      token_accuracy)
from .pipeline import receive_tokens, send_tokens
from .rvq import RvqCodec, dequantize, quantize, train_codebooks
from .synthetic import synth_audio
from .transport import BernoulliChannel, MarkovChannel

CSV_SCHEMA_VERSION = 1
CSV_COLUMNS = ("loss_ratio", "channel", "fec", "model", "level",
               "bitrate_kbps", "si_snr_db", "sdr_db", "mfcc_dist",
               "token_accuracy", "seed")


@dataclass(frozen=True)
class MetricsRow:
    loss_ratio: float
    channel: str
    fec: bool
    model: str
    level: str
    bitrate_kbps: float
    si_snr_db: float
    sdr_db: float
    mfcc_dist: float
    token_accuracy: float | None
    seed: int

    def as_csv(self) -> list:
        acc = "" if self.token_accuracy is None else f"{self.token_accuracy:.6f}"
        return [f"{self.loss_ratio:.6f}", self.channel, int(self.fec),
                self.model, self.level, f"{self.bitrate_kbps:.6f}",
                f"{self.si_snr_db:.6f}", f"{self.sdr_db:.6f}",
                f"{self.mfcc_dist:.6f}", acc, self.seed]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; serializes to the run manifest.

    ``conceal_fine_layers`` is accepted and validated, and has no effect:
    the receiver never predicts fine cells. ``conceal_window`` is
    accepted and validated, and has no effect: concealment reads only the
    frames it fills. It is kept only because the benchmark's workloads
    still read it; the benchmark change of ROADMAP item 1 deletes it.
    """

    sample_rate: int = 16000
    frame_len: int = 320
    dim: int = 64
    vocab: int = 64
    n_layers: int = 8
    n_coarse: int = 2
    gos_len: int = 12
    n_units: int = 3
    levels: tuple = (8,)
    fec_modes: tuple = (True,)
    models: tuple = ("count",)
    channels: tuple = ("bernoulli",)
    losses: tuple = (0.0, 0.1, 0.2, 0.3)
    n_trials: int = 50
    base_seed: int = 0
    clip_frames: int = 24
    n_tones: int = 3
    noise: float = 0.05
    conceal_window: int = 12
    conceal_fine_layers: int = 2
    train_clips: int = 24
    train_epochs: int = 6


_INT_FIELDS = {"sample_rate", "frame_len", "dim", "vocab", "n_layers",
               "n_coarse", "gos_len", "n_units", "n_trials", "base_seed",
               "clip_frames", "n_tones", "conceal_window",
               "conceal_fine_layers", "train_clips", "train_epochs"}
_POSITIVE = _INT_FIELDS - {"base_seed", "conceal_fine_layers", "n_tones"}
# the codec and model files store vocab in 16 bits; the range coder's
# 16-bit total, which needs one unit per token, allows one more
_MAX_VOCAB = 0xFFFF


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config, reporting errors by field path."""
    known = {f.name for f in fields(ExperimentConfig)}
    for key in data:
        if key not in known:
            raise ConfigError(key, "unknown field")
    merged = {**{f.name: f.default for f in fields(ExperimentConfig)}, **data}

    for name in _INT_FIELDS:
        v = merged[name]
        if not isinstance(v, int) or isinstance(v, bool):
            raise ConfigError(name, "must be an integer")
        if name in _POSITIVE and v < 1:
            raise ConfigError(name, "must be at least 1")
        if name in ("base_seed", "conceal_fine_layers", "n_tones") and v < 0:
            raise ConfigError(name, "must be non-negative")

    def tup(name, kinds):
        v = merged[name]
        if not isinstance(v, (list, tuple)):
            raise ConfigError(name, "must be a list")
        if not v:
            raise ConfigError(name, "must not be empty")
        for i, item in enumerate(v):
            bad_bool = isinstance(item, bool) and kinds is not bool
            if bad_bool or not isinstance(item, kinds):
                raise ConfigError(f"{name}[{i}]", "has the wrong type")
        return tuple(v)

    merged["levels"] = tup("levels", int)
    merged["fec_modes"] = tup("fec_modes", bool)
    merged["models"] = tup("models", str)
    merged["channels"] = tup("channels", str)
    merged["losses"] = tuple(float(x) for x in tup("losses", (int, float)))

    for i, k in enumerate(merged["levels"]):
        if not merged["n_coarse"] <= k <= merged["n_layers"]:
            raise ConfigError(f"levels[{i}]",
                              f"must be in [{merged['n_coarse']}, "
                              f"{merged['n_layers']}]")
    for i, m in enumerate(merged["models"]):
        if m not in ("count", "uniform"):
            raise ConfigError(f"models[{i}]", "must be 'count' or 'uniform'")
    for i, c in enumerate(merged["channels"]):
        if c not in ("bernoulli", "markov"):
            raise ConfigError(f"channels[{i}]",
                              "must be 'bernoulli' or 'markov'")
    for i, p in enumerate(merged["losses"]):
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"losses[{i}]", "must be in [0, 1]")
    nz = merged["noise"]
    if not isinstance(nz, (int, float)) or isinstance(nz, bool) or nz < 0.0:
        raise ConfigError("noise", "must be non-negative")
    merged["noise"] = float(nz)

    if merged["dim"] > merged["frame_len"]:
        raise ConfigError("dim", "cannot exceed frame_len")
    if merged["n_coarse"] >= merged["n_layers"]:
        raise ConfigError("n_coarse", "must be below n_layers")
    if merged["n_units"] > merged["gos_len"]:
        raise ConfigError("n_units", "cannot exceed gos_len")
    if merged["vocab"] < 2:
        raise ConfigError("vocab", "must be at least 2")
    if merged["vocab"] > _MAX_VOCAB:
        raise ConfigError("vocab", f"must be at most {_MAX_VOCAB}")
    if merged["train_clips"] * merged["clip_frames"] < merged["vocab"] - 1:
        raise ConfigError("train_clips",
                          "training corpus smaller than the codebook")
    return ExperimentConfig(**merged)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    return config_from_dict(data)


@dataclass(frozen=True, eq=False)
class TrialInputs:
    """What every sweep point of one paired trial shares.

    ``chunks`` holds each chunk's sent grid and slice layout, levels
    drawn; ``truth`` is the whole clip's sent grid, and ``reference`` the
    clip's cepstra for ``mfcc_distance``. Every array is read-only, so a
    write raises instead of changing a later sweep point's input.
    """

    seed: int
    clip: AudioSignal
    chunks: tuple  # ((TokenGrid, SliceGrid), ...) in frame order
    truth: TokenGrid
    reference: object


@dataclass
class TrainedStack:
    """Shared artifacts reused by every trial of a run.

    ``trials`` memoizes each trial's ``TrialInputs``, keyed by (config,
    trial), so a sweep makes a trial's clip once, not once per point. It
    holds the trials of one config: a call under another config empties
    it first, so a run's memo holds at most its ``n_trials`` entries. An
    entry of the default config is about 103 KB, mostly the clip's
    samples and its reference cepstra (5.2 MB for 50 trials).
    """

    codec_cfg: CodecConfig
    codec: object
    gos: GosConfig
    count_model: CountModel
    uniform_model: CountModel  # no counts: every layer's row uniform
    trials: dict = field(default_factory=dict, compare=False, repr=False)


def training_corpus(cfg: ExperimentConfig, tag: str = "train-clip") -> list:
    """Feature arrays of ``train_clips`` synthetic clips, seeded under
    ``tag``."""
    codec_cfg = CodecConfig(frame_len=cfg.frame_len, dim=cfg.dim)
    clip_len = cfg.clip_frames * cfg.frame_len
    feats = []
    for i in range(cfg.train_clips):
        seed = _seed_of(cfg.base_seed, tag, i)
        clip = synth_audio(clip_len, seed, cfg.sample_rate,
                           n_tones=cfg.n_tones, noise=cfg.noise)
        feats.append(analyze(clip, codec_cfg))
    return feats


def train_codec(cfg: ExperimentConfig, feats: list) -> RvqCodec:
    """RVQ codebooks fitted to the training corpus."""
    return train_codebooks(np.concatenate(feats), cfg.n_layers, cfg.vocab,
                           cfg.n_coarse, epochs=cfg.train_epochs,
                           seed=cfg.base_seed)


def train_context(cfg: ExperimentConfig, codec: RvqCodec) -> CountModel:
    """Count model fitted to held-out clips, ``train_clips`` clips of
    their own seed tag, as ``codec`` quantizes them. The codec overfits
    its own training clips, whose token statistics differ from those of
    audio it never saw.

    The clips are quantized in one call on their concatenated features:
    quantization picks each row's tokens from that row alone, so the
    grid is the clips' grids stacked, and the counts are their sum.
    """
    feats = np.concatenate(training_corpus(cfg, "ctx-clip"))
    grid = quantize(feats, codec, codec.n_layers)
    return train_count_model([grid], codec.vocab, codec.n_layers)


def gos_config(cfg: ExperimentConfig) -> GosConfig:
    """The group-of-slices layout a config describes."""
    return GosConfig(cfg.gos_len, cfg.n_units, cfg.n_coarse, cfg.n_layers)


def train_stack(cfg: ExperimentConfig) -> TrainedStack:
    codec_cfg = CodecConfig(frame_len=cfg.frame_len, dim=cfg.dim)
    codec = train_codec(cfg, training_corpus(cfg))
    count_model = train_context(cfg, codec)
    return TrainedStack(codec_cfg, codec, gos_config(cfg), count_model,
                        CountModel(cfg.vocab, cfg.n_layers))


def _seed_of(base: int, tag: str, *parts) -> int:
    """Stable 63-bit seed derived from the base seed and a role tag."""
    h = hashlib.sha256()
    h.update(str(base).encode())
    h.update(tag.encode())
    for p in parts:
        h.update(b"|")
        h.update(str(p).encode())
    return int.from_bytes(h.digest()[:8], "little") >> 1


def _make_channel(kind: str, loss: float):
    if kind == "bernoulli":
        return BernoulliChannel(loss)
    return MarkovChannel()


def trial_inputs(cfg: ExperimentConfig, stack: TrainedStack,
                 trial: int) -> TrialInputs:
    """Trial ``trial``'s clip and what it sends, from ``stack.trials``
    when made before under ``cfg``."""
    key = (cfg, trial)
    memo = stack.trials
    hit = memo.get(key)
    if hit is not None:
        return hit
    if memo and next(iter(memo))[0] != cfg:
        memo.clear()
    clip_seed = _seed_of(cfg.base_seed, "clip", trial)
    clip = synth_audio(cfg.clip_frames * cfg.frame_len, clip_seed,
                       cfg.sample_rate, n_tones=cfg.n_tones, noise=cfg.noise)
    feats = analyze(clip, stack.codec_cfg)
    variable = len(cfg.levels) > 1
    level_rng = np.random.default_rng(_seed_of(cfg.base_seed, "levels", trial))
    # variable-rate mode re-draws K per group-of-slices and restarts the
    # FEC chain at each chunk boundary
    chunk_frames = cfg.gos_len if variable else cfg.clip_frames
    chunks = []
    for start in range(0, cfg.clip_frames, chunk_frames):
        stop = min(start + chunk_frames, cfg.clip_frames)
        K = (int(level_rng.choice(cfg.levels)) if variable
             else cfg.levels[0])
        grid = quantize(feats[start:stop], stack.codec, K)
        _read_only(grid.tokens)
        _read_only(grid.level)
        chunks.append((grid, build_slice_grid(stop - start, stack.gos, K)))
    truth = TokenGrid(np.concatenate([g.tokens for g, _ in chunks]),
                      np.concatenate([g.level for g, _ in chunks]), cfg.vocab)
    for a in (clip.samples, truth.tokens, truth.level):
        _read_only(a)
    memo[key] = inputs = TrialInputs(clip_seed, clip, tuple(chunks), truth,
                                     mfcc_reference(clip))
    return inputs


def run_trial(cfg: ExperimentConfig, stack: TrainedStack, channel_kind: str,
              loss: float, fec: bool, model_name: str, trial: int) -> MetricsRow:
    """One paired trial; the clip depends only on the trial index."""
    inputs = trial_inputs(cfg, stack, trial)
    clip = inputs.clip
    model = stack.count_model if model_name == "count" else stack.uniform_model
    channel = _make_channel(channel_kind, loss)
    mask_seed = _seed_of(cfg.base_seed, "channel", channel_kind, loss, trial)
    mask_rng = np.random.default_rng(mask_seed)

    total_bits = 0
    rx_chunks, state_chunks, feat_chunks = [], [], []
    for grid, sg in inputs.chunks:
        packets, srep = send_tokens(grid, sg, model, fec=fec)
        delivered = channel.sample(len(packets), mask_rng)
        survivors = [p for p, d in zip(packets, delivered) if d]
        rx, states, _ = receive_tokens(survivors, sg, model)
        total_bits += srep.total_bits
        rx_chunks.append(rx)
        state_chunks.append(states)
        feat_chunks.append(dequantize(rx, stack.codec, rx.level))

    est = synthesize(np.concatenate(feat_chunks), stack.codec_cfg,
                     cfg.sample_rate)
    rx_all = TokenGrid(np.concatenate([g.tokens for g in rx_chunks]),
                       np.concatenate([g.level for g in rx_chunks]), cfg.vocab)
    states_all = np.concatenate(state_chunks)

    loss_ratio = (loss if channel_kind == "bernoulli"
                  else channel.stationary_loss())
    return MetricsRow(
        loss_ratio=loss_ratio, channel=channel_kind, fec=fec,
        model=model_name,
        level=("variable" if len(cfg.levels) > 1 else str(cfg.levels[0])),
        bitrate_kbps=total_bits / clip.duration / 1000.0,
        si_snr_db=si_snr(clip, est), sdr_db=sdr(clip, est),
        mfcc_dist=mfcc_distance(clip, est, reference=inputs.reference),
        token_accuracy=token_accuracy(inputs.truth, rx_all, states_all),
        seed=inputs.seed,
    )


def sweep_points(cfg: ExperimentConfig) -> list:
    pts = []
    for ch in cfg.channels:
        losses = cfg.losses if ch == "bernoulli" else (None,)
        for p in losses:
            for fec in cfg.fec_modes:
                for model in cfg.models:
                    pts.append((ch, p if p is not None else -1.0, fec, model))
    return pts


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> tuple:
    """Run every sweep point; returns (rows, summary dict).

    With out_dir set, writes results.csv, summary.json, and manifest.json.
    Bit-for-bit reproducible from the config alone.
    """
    stack = train_stack(cfg)
    rows = []
    for ch, p, fec, model in sweep_points(cfg):
        loss = 0.0 if p < 0 else p
        for trial in range(cfg.n_trials):
            rows.append(run_trial(cfg, stack, ch, loss, fec, model, trial))
    summary = summarize(rows)
    if out_dir is not None:
        write_outputs(Path(out_dir), cfg, rows, summary)
    return rows, summary


def summarize(rows) -> dict:
    """Group rows by sweep point: means plus SI-SNR CDF deciles.

    The SI-SNR median stands beside its mean: one badly damaged clip, or a
    silent estimate at the -100 dB floor, moves a group's mean far more
    than its median.
    """
    groups: dict = {}
    for r in rows:
        key = (r.loss_ratio, r.channel, r.fec, r.model, r.level)
        groups.setdefault(key, []).append(r)
    out = {"schema_version": CSV_SCHEMA_VERSION, "groups": []}
    for key in sorted(groups):
        rs = groups[key]
        si = np.array([r.si_snr_db for r in rs])
        accs = [r.token_accuracy for r in rs if r.token_accuracy is not None]
        out["groups"].append({
            "loss_ratio": key[0], "channel": key[1], "fec": key[2],
            "model": key[3], "level": key[4], "n": len(rs),
            "mean_bitrate_kbps": float(np.mean([r.bitrate_kbps for r in rs])),
            "mean_si_snr_db": float(si.mean()),
            "median_si_snr_db": float(np.median(si)),
            "mean_sdr_db": float(np.mean([r.sdr_db for r in rs])),
            "mean_mfcc_dist": float(np.mean([r.mfcc_dist for r in rs])),
            "mean_token_accuracy": (float(np.mean(accs)) if accs else None),
            "si_snr_deciles": [float(np.quantile(si, q / 10.0))
                               for q in range(11)],
        })
    return out


def write_outputs(out_dir: Path, cfg: ExperimentConfig, rows,
                  summary: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in rows:
            w.writerow(r.as_csv())
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    manifest = {
        "schema_version": CSV_SCHEMA_VERSION,
        "package_version": __version__,
        "config": asdict(cfg),
        "n_rows": len(rows),
        "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")

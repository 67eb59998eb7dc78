"""Command line front end.

Subcommands mirror the library stages: train the codec and context model,
encode audio to packets, run a loss channel over them, decode, stream, and
drive Monte Carlo experiments. Every artifact is a file, every run seeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audio import CodecConfig, analyze, read_audio, synthesize, write_audio
from .context import load_count_model, model_digest, save_count_model
from .errors import ConfigError, DecodeError
from .experiment import (CSV_COLUMNS, ExperimentConfig, MetricsRow,
                         gos_config, load_config, run_experiment, summarize,
                         train_codec, train_context, training_corpus)
from .grid import GosConfig, StreamConfig
from .metrics import si_snr
from .pipeline import receive, send
from .rvq import dequantize, load_codec, quantize, save_codec
from .streaming import StreamReceiver, StreamSender
from .transport import (BernoulliChannel, channel_from_spec, load_channel,
                        read_packets, read_trace, write_packets, write_trace)


def _load_cfg(path) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    return _artifact(load_config, path)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _option(name: str, build, *args):
    """``build(*args)``; input it refuses with a ``ValueError`` or a
    ``DecodeError`` is reported as a ``ConfigError`` that names ``name``,
    the option or file the input came from. A ``ConfigError`` already
    names its field and passes as it is."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except (ValueError, DecodeError) as exc:
        raise ConfigError(name, str(exc)) from None


def _artifact(loader, path):
    """``loader(path)``; a file that cannot be read, or that the loader
    refuses, is reported as a ``ConfigError`` that names the file."""
    try:
        return _option(str(path), loader, path)
    except OSError as exc:
        raise ConfigError(str(path), exc.strerror or str(exc)) from None


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# (test, what a field must be) for each kind of manifest field
_STRING = (lambda v: isinstance(v, str), "a string")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_INT = (_is_int, "an integer")
_MANIFEST_FIELDS = {"codec_sha256": _STRING, "model_sha256": _STRING,
                    "gos": _OBJECT, "frame_len": _INT, "level": _INT,
                    "n_frames": _INT, "sample_rate": _INT}
_GOS_FIELDS = {"gos_len": _INT, "n_units": _INT, "n_coarse": _INT,
               "n_layers": _INT}


def _check_fields(record: dict, fields: dict, prefix: str = "") -> None:
    """Refuse ``record`` unless it holds each of ``fields`` as its kind."""
    for name, (ok, kind) in fields.items():
        if name not in record:
            raise ValueError(f"{prefix}{name} missing")
        if not ok(record[name]):
            raise ValueError(f"{prefix}{name} must be {kind}")


def _check_range(name: str, value: int, lo: int, hi: int | None = None,
                 bounds: str = "") -> None:
    """Refuse ``value`` below ``lo``, or above ``hi`` when one is given;
    ``bounds`` names the interval [lo, hi] in the message."""
    if hi is None and value < lo:
        raise ValueError(f"{name} must be at least {lo}, got {value}")
    if hi is not None and not lo <= value <= hi:
        raise ValueError(f"{name} must be in {bounds}, got {value}")


def _read_manifest(path) -> dict:
    """The manifest ``encode`` wrote, with every field ``decode`` reads
    present, of its type and in its range."""
    manifest = _read_json(path)
    if not isinstance(manifest, dict):
        raise ValueError("not a JSON object")
    _check_fields(manifest, _MANIFEST_FIELDS)
    g = manifest["gos"]
    _check_fields(g, _GOS_FIELDS, "gos.")
    # older manifests carry a conceal_window that decode ignores; it is
    # still outside input, so it is refused unless well formed
    if "conceal_window" in manifest:
        _check_fields(manifest, {"conceal_window": _INT})
        _check_range("conceal_window", manifest["conceal_window"], 1)
    for name in ("n_frames", "frame_len", "sample_rate"):
        _check_range(name, manifest[name], 1)
    _check_range("gos.gos_len", g["gos_len"], 1)
    _check_range("gos.n_units", g["n_units"], 1, g["gos_len"],
                 "[1, gos.gos_len]")
    _check_range("gos.n_coarse", g["n_coarse"], 1, g["n_layers"],
                 "[1, gos.n_layers]")
    _check_range("level", manifest["level"], g["n_coarse"], g["n_layers"],
                 "[gos.n_coarse, gos.n_layers]")
    return manifest


def _read_frames(path, frame_len: int):
    """The audio at ``path``, refused unless it holds whole frames, at
    least one, of finite samples."""
    signal = _artifact(read_audio, path)
    n = signal.samples.size
    if not n:
        raise ConfigError(str(path), "holds no samples")
    if not np.all(np.isfinite(signal.samples)):
        raise ConfigError(str(path), "holds NaN or infinite samples")
    if n % frame_len:
        raise ConfigError(str(path), f"{n} samples are not a multiple of "
                          f"frame_len {frame_len}; pad or trim first")
    return signal


def _train_cfg(args) -> ExperimentConfig:
    """The config the training commands run, seeded by ``--seed``."""
    return dataclasses.replace(_load_cfg(args.config), base_seed=args.seed)


def cmd_train_codebooks(args) -> int:
    cfg = _train_cfg(args)
    codec = train_codec(cfg, training_corpus(cfg))
    save_codec(args.out, codec)
    print(f"wrote {args.out}: {codec.n_layers} layers, vocab {codec.vocab}, "
          f"dim {codec.dim}")
    return 0


def cmd_train_context(args) -> int:
    cfg = _train_cfg(args)
    codec = _artifact(load_codec, args.codec)
    model = train_context(cfg, codec)
    save_count_model(args.out, model)
    print(f"wrote {args.out}: {model.n_layers} layers counted, "
          f"{model.n_observed} observations")
    return 0


def cmd_encode(args) -> int:
    cfg = _load_cfg(args.config)
    codec = _artifact(load_codec, args.codec)
    model = _artifact(load_count_model, args.model)
    gos = gos_config(cfg)
    signal = _read_frames(args.audio, cfg.frame_len)
    codec_cfg = CodecConfig(frame_len=cfg.frame_len, dim=codec.dim)
    feats = analyze(signal, codec_cfg)
    level = args.level if args.level is not None else codec.n_layers
    if args.level is not None and not gos.n_coarse <= level <= gos.n_layers:
        raise ConfigError("--level", f"must be in [{gos.n_coarse}, "
                          f"{gos.n_layers}], got {level}")
    packets, rep = send(feats, codec, model, gos, level=level,
                        fec=not args.no_fec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_packets(out_dir / "packets.bin", packets)
    manifest = {
        "package_version": __version__,
        "n_frames": int(feats.shape[0]),
        "n_samples": int(signal.samples.size),
        "sample_rate": signal.sample_rate,
        "frame_len": cfg.frame_len,
        "level": level,
        "fec": not args.no_fec,
        "gos": {"gos_len": gos.gos_len, "n_units": gos.n_units,
                "n_coarse": gos.n_coarse, "n_layers": gos.n_layers},
        "codec_sha256": _sha256(args.codec),
        "model_sha256": model_digest(args.model),
        "n_packets": len(packets),
        "header_bits": rep.header_bits,
        "total_bits": rep.total_bits,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    seconds = signal.duration
    print(f"wrote {len(packets)} packets, {rep.total_bits} bits "
          f"(wire {rep.total_bits / seconds / 1000:.2f} kbit/s, payload "
          f"{rep.payload_bits / seconds / 1000:.2f} kbit/s) to {out_dir}")
    return 0


def cmd_channel(args) -> int:
    packets = _artifact(read_packets, args.packets)
    if args.channel_file:
        channel = _artifact(load_channel, args.channel_file)
    else:
        channel = _option("--channel",
                          lambda s: channel_from_spec(json.loads(s)),
                          args.channel)
    rng = np.random.default_rng(args.seed)
    delivered = channel.sample(len(packets), rng)
    write_trace(args.out, delivered)
    lost = int(len(packets) - delivered.sum())
    print(f"wrote {args.out}: {lost}/{len(packets)} packets lost")
    return 0


def cmd_decode(args) -> int:
    out_dir = Path(args.dir)
    where = out_dir / "manifest.json"
    manifest = _artifact(_read_manifest, where)
    codec = _artifact(load_codec, args.codec)
    model = _artifact(load_count_model, args.model)
    if _sha256(args.codec) != manifest["codec_sha256"]:
        raise ConfigError(args.codec, "digest differs from the manifest's "
                          "codec_sha256")
    if model_digest(args.model) != manifest["model_sha256"]:
        raise ConfigError(args.model, "digest differs from the manifest's "
                          "model_sha256")
    g = manifest["gos"]
    if g["n_layers"] != codec.n_layers:
        raise ConfigError(str(where), f"gos.n_layers must be the codec's "
                          f"{codec.n_layers}, got {g['n_layers']}")
    if manifest["frame_len"] < codec.dim:
        raise ConfigError(str(where), f"frame_len must be at least the "
                          f"codec's dim {codec.dim}, got "
                          f"{manifest['frame_len']}")
    packets = _artifact(read_packets, out_dir / "packets.bin")
    if args.trace:
        trace = _artifact(read_trace, args.trace)
        if len(trace) != len(packets):
            raise ConfigError(args.trace, f"{len(trace)} entries for "
                              f"{len(packets)} packets")
    else:
        trace = np.ones(len(packets), dtype=bool)
    gos = GosConfig(g["gos_len"], g["n_units"], g["n_coarse"], g["n_layers"])
    codec_cfg = CodecConfig(frame_len=manifest["frame_len"], dim=codec.dim)
    audio, grid, rep = receive(
        packets, trace, codec, codec_cfg, model, gos,
        level=manifest["level"], n_frames=manifest["n_frames"],
        sample_rate=manifest["sample_rate"])
    write_audio(args.out, audio)
    print(f"wrote {args.out}; states {rep.state_counts}; "
          f"predicted {rep.n_predicted}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"state_counts": rep.state_counts,
                       "n_predicted": rep.n_predicted,
                       "fec_recovered": rep.fec_recovered,
                       "n_dropped": rep.n_dropped,
                       "valid_depth": grid.level.tolist()}, fh, indent=2)
            fh.write("\n")
    return 0


def cmd_stream(args) -> int:
    cfg = _load_cfg(args.config)
    codec = _artifact(load_codec, args.codec)
    model = _artifact(load_count_model, args.model)
    gos = gos_config(cfg)
    stream = StreamConfig(stride=args.stride, lookahead=args.lookahead)
    signal = _read_frames(args.audio, cfg.frame_len)
    codec_cfg = CodecConfig(frame_len=cfg.frame_len, dim=codec.dim)
    feats = analyze(signal, codec_cfg)
    grid = quantize(feats, codec, codec.n_layers)
    channel = _option("--loss", BernoulliChannel, args.loss)
    rng = np.random.default_rng(args.seed)

    tx = StreamSender(gos, stream, model)
    rx = StreamReceiver(gos, stream, model)
    for t in range(grid.n_frames):
        for em in tx.push(grid.tokens[t:t + 1]):
            keep = channel.sample(len(em.packets), rng)
            rx.step([p for p, d in zip(em.packets, keep) if d])
    tail, total = tx.flush()
    rx.finish([[p for p, d in zip(em.packets,
                                  channel.sample(len(em.packets), rng)) if d]
               for em in tail], total)
    out_grid, _states = rx.result()

    est = synthesize(dequantize(out_grid, codec, out_grid.level), codec_cfg,
                     signal.sample_rate)
    write_audio(args.out, est)
    print(f"wrote {args.out}; max sender latency {tx.max_latency} frames "
          f"(bound {stream.stride + stream.lookahead}); "
          f"si_snr {si_snr(signal, est):.2f} dB; n_dropped {rx.n_dropped}")
    rep = tx.report
    seconds = signal.duration
    fine = rep.fine_bits_per_token
    print(f"wire {rep.total_bits / seconds / 1000:.2f} kbit/s; "
          f"payload {rep.payload_bits / seconds / 1000:.2f} kbit/s; "
          f"{rep.n_packets / total:.2f} packets/frame; fine "
          + ("none" if fine is None else f"{fine:.2f} bits/token"))
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args.config)
    rows, summary = run_experiment(cfg, out_dir=args.out_dir)
    print(f"wrote {len(rows)} rows to {Path(args.out_dir) / 'results.csv'}")
    for group in summary["groups"]:
        print(f"  loss={group['loss_ratio']:.3f} fec={group['fec']} "
              f"model={group['model']}: "
              f"si_snr {group['mean_si_snr_db']:.2f} dB, "
              f"{group['mean_bitrate_kbps']:.1f} kbps")
    return 0


def _read_rows(path) -> list:
    """The MetricsRows of a results CSV."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError("unrecognized CSV schema")
        for rec in reader:
            rows.append(MetricsRow(
                loss_ratio=float(rec["loss_ratio"]), channel=rec["channel"],
                fec=bool(int(rec["fec"])), model=rec["model"],
                level=rec["level"], bitrate_kbps=float(rec["bitrate_kbps"]),
                si_snr_db=float(rec["si_snr_db"]), sdr_db=float(rec["sdr_db"]),
                mfcc_dist=float(rec["mfcc_dist"]),
                token_accuracy=(float(rec["token_accuracy"])
                                if rec["token_accuracy"] else None),
                seed=int(rec["seed"])))
    return rows


def cmd_report(args) -> int:
    rows = _artifact(_read_rows, args.csv)
    summary = summarize(rows)
    text = json.dumps(summary, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenwire",
        description="loss-resilient token transport for audio streams")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config JSON")
    common.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train-codebooks", parents=[common],
                       help="train RVQ codebooks on synthetic audio")
    p.add_argument("--out", required=True, help="output codec file")
    p.set_defaults(func=cmd_train_codebooks)

    p = sub.add_parser("train-context", parents=[common],
                       help="count each layer's tokens on held-out clips")
    p.add_argument("--codec", required=True)
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=cmd_train_context)

    p = sub.add_parser("encode", parents=[common],
                       help="encode audio into packets + manifest")
    p.add_argument("--codec", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--audio", required=True, help="input .wav or .f32")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--level", type=int, help="layers to encode")
    p.add_argument("--no-fec", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("channel", parents=[common],
                       help="sample a delivery trace for a packet file")
    p.add_argument("--packets", required=True)
    p.add_argument("--out", required=True, help="trace file (0/1 per packet)")
    p.add_argument("--channel", default='{"type": "bernoulli", "loss_prob": 0.1}',
                   help="channel spec JSON string")
    p.add_argument("--channel-file", help="channel spec JSON file")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("decode", parents=[common],
                       help="decode packets (optionally through a trace)")
    p.add_argument("--dir", required=True,
                   help="directory with packets.bin and manifest.json")
    p.add_argument("--codec", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--trace", help="delivery trace; omit for lossless")
    p.add_argument("--out", required=True, help="output audio file")
    p.add_argument("--report", help="receiver report JSON")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("stream", parents=[common],
                       help="streaming end-to-end over a Bernoulli channel")
    p.add_argument("--codec", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--audio", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--loss", type=float, default=0.1)
    p.add_argument("--stride", type=int, default=3)
    p.add_argument("--lookahead", type=int, default=3)
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("simulate", parents=[common],
                       help="run the Monte Carlo experiment sweep")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", parents=[common],
                       help="recompute summary statistics from a results CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", help="summary JSON path; prints when omitted")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

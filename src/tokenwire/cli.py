"""Command line front end.

Subcommands mirror the library stages: train the codec and context model,
encode audio to packets, run a loss channel over them, decode, stream, and
drive Monte Carlo experiments. Every artifact is a file, every run seeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audio import CodecConfig, analyze, read_audio, write_audio
from .context import load_count_model, model_digest, save_count_model
from .errors import ConfigError, DecodeError
from .experiment import (CSV_COLUMNS, ExperimentConfig, MetricsRow,
                         gos_config, load_config, run_experiment, summarize,
                         train_codec, train_context, training_corpus)
from .grid import GosConfig, StreamConfig
from .metrics import si_snr
from .pipeline import receive, send
from .rvq import load_codec, quantize, save_codec
from .streaming import StreamReceiver, StreamSender
from .transport import (BernoulliChannel, channel_from_spec, load_channel,
                        read_packets, read_trace, write_packets, write_trace)


def _load_cfg(path) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    return load_config(path)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _artifact(loader, path):
    """``loader(path)``; a file the loader refuses is reported as a
    ``ConfigError`` that names the file."""
    try:
        return loader(path)
    except ValueError as exc:
        raise ConfigError(str(path), str(exc)) from None


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
    model = train_context(cfg, codec, training_corpus(cfg))
    save_count_model(args.out, model)
    print(f"wrote {args.out}: {len(model.tables)} contexts, "
          f"{model.n_observed} observations")
    return 0


def cmd_encode(args) -> int:
    cfg = _load_cfg(args.config)
    codec = _artifact(load_codec, args.codec)
    model = _artifact(load_count_model, args.model)
    gos = gos_config(cfg)
    signal = read_audio(args.audio)
    if signal.samples.size % cfg.frame_len:
        raise SystemExit("audio length must be a multiple of frame_len; "
                         "pad or trim first")
    codec_cfg = CodecConfig(frame_len=cfg.frame_len, dim=codec.dim)
    feats = analyze(signal, codec_cfg)
    level = args.level if args.level is not None else codec.n_layers
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
                "layer_bounds": list(gos.layer_bounds)},
        "conceal_window": cfg.conceal_window,
        "conceal_fine_layers": cfg.conceal_fine_layers,
        "codec_sha256": _sha256(args.codec),
        "model_sha256": model_digest(args.model),
        "n_packets": len(packets),
        "total_bits": rep.total_bits,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    kbps = rep.total_bits / (signal.samples.size / signal.sample_rate) / 1000
    print(f"wrote {len(packets)} packets, {rep.total_bits} bits "
          f"({kbps:.2f} kbps) to {out_dir}")
    return 0


def cmd_channel(args) -> int:
    packets = read_packets(args.packets)
    if args.channel_file:
        channel = load_channel(args.channel_file)
    else:
        channel = channel_from_spec(json.loads(args.channel))
    rng = np.random.default_rng(args.seed)
    delivered = channel.sample(len(packets), rng)
    write_trace(args.out, delivered)
    lost = int(len(packets) - delivered.sum())
    print(f"wrote {args.out}: {lost}/{len(packets)} packets lost")
    return 0


def cmd_decode(args) -> int:
    out_dir = Path(args.dir)
    with open(out_dir / "manifest.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    codec = _artifact(load_codec, args.codec)
    if _sha256(args.codec) != manifest["codec_sha256"]:
        raise SystemExit("codec file does not match the manifest")
    if model_digest(args.model) != manifest["model_sha256"]:
        raise SystemExit("model file does not match the manifest")
    model = _artifact(load_count_model, args.model)
    packets = read_packets(out_dir / "packets.bin")
    if args.trace:
        trace = read_trace(args.trace)
    else:
        trace = np.ones(len(packets), dtype=bool)
    g = manifest["gos"]
    gos = GosConfig(gos_len=g["gos_len"], n_units=g["n_units"],
                    layer_bounds=tuple(g["layer_bounds"]))
    codec_cfg = CodecConfig(frame_len=manifest["frame_len"], dim=codec.dim)
    audio, grid, rep = receive(
        packets, trace, codec, codec_cfg, model, gos,
        level=manifest["level"], n_frames=manifest["n_frames"],
        sample_rate=manifest["sample_rate"],
        conceal_window=manifest.get("conceal_window", 12),
        conceal_fine_layers=manifest.get("conceal_fine_layers", 2))
    write_audio(args.out, audio)
    print(f"wrote {args.out}; states {rep.state_counts}; "
          f"cases {rep.case_counts}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"state_counts": rep.state_counts,
                       "case_counts": {str(k): v for k, v
                                       in rep.case_counts.items()},
                       "n_windows": rep.n_windows,
                       "n_blackouts": rep.n_blackouts,
                       "fec_recovered": rep.fec_recovered,
                       "valid_depth": rep.valid_depth.tolist()}, fh, indent=2)
            fh.write("\n")
    return 0


def cmd_stream(args) -> int:
    cfg = _load_cfg(args.config)
    codec = _artifact(load_codec, args.codec)
    model = _artifact(load_count_model, args.model)
    gos = gos_config(cfg)
    stream = StreamConfig(stride=args.stride, lookahead=args.lookahead,
                          coding_context=cfg.gos_len,
                          conceal_context=cfg.conceal_window)
    signal = read_audio(args.audio)
    if signal.samples.size % cfg.frame_len:
        raise SystemExit("audio length must be a multiple of frame_len")
    codec_cfg = CodecConfig(frame_len=cfg.frame_len, dim=codec.dim)
    feats = analyze(signal, codec_cfg)
    grid = quantize(feats, codec, codec.n_layers)
    channel = BernoulliChannel(args.loss)
    rng = np.random.default_rng(args.seed)

    tx = StreamSender(gos, stream, model)
    rx = StreamReceiver(gos, stream, model,
                        conceal_fine_layers=cfg.conceal_fine_layers)
    for t in range(grid.n_frames):
        for em in tx.push(grid.tokens[t:t + 1]):
            keep = channel.sample(len(em.packets), rng)
            rx.step([p for p, d in zip(em.packets, keep) if d])
    tail, total = tx.flush()
    rx.finish([[p for p, d in zip(em.packets,
                                  channel.sample(len(em.packets), rng)) if d]
               for em in tail], total)
    out_grid, _states = rx.result()

    from .rvq import dequantize
    from .audio import synthesize
    est = synthesize(dequantize(out_grid, codec, out_grid.level), codec_cfg,
                     signal.sample_rate)
    write_audio(args.out, est)
    print(f"wrote {args.out}; max sender latency {tx.max_latency} frames "
          f"(bound {stream.stride + stream.lookahead}); "
          f"si_snr {si_snr(signal, est):.2f} dB")
    rep = tx.report
    seconds = signal.samples.size / signal.sample_rate
    fine = rep.fine_bits_per_token
    print(f"wire {rep.total_bits / seconds / 1000:.2f} kbit/s; "
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


def cmd_report(args) -> int:
    import csv as _csv
    rows = []
    with open(args.csv, "r", encoding="utf-8", newline="") as fh:
        reader = _csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise SystemExit("unrecognized CSV schema")
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
                       help="train the count model with the masking schedule")
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

"""End-to-end command line flows in a temporary workspace."""

import json
from pathlib import Path

import numpy as np
import pytest

from tokenwire import __version__
from tokenwire.audio import CodecConfig, analyze, read_audio, write_audio
from tokenwire.cli import build_parser, main
from tokenwire.context import load_count_model, save_count_model
from tokenwire.experiment import config_from_dict, gos_config, train_stack
from tokenwire.grid import StreamConfig
from tokenwire.rvq import load_codec, quantize, save_codec
from tokenwire.streaming import StreamSender
from tokenwire.synthetic import synth_audio
from tokenwire.transport import read_packets, read_trace

CFG = {
    "frame_len": 160, "dim": 16, "vocab": 8, "n_layers": 3, "n_coarse": 1,
    "n_fine_groups": 2, "gos_len": 6, "n_units": 2,
    "levels": [3], "clip_frames": 12, "train_clips": 4, "train_epochs": 2,
    "schedule_epochs": 4, "conceal_window": 6, "n_trials": 2,
    "losses": [0.0, 0.2], "models": ["count"],
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Config, trained codec + model, input audio, and one encoded clip."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    codec = root / "codec.rvq"
    model = root / "model.ctx"
    assert main(["train-codebooks", "--config", str(cfg), "--seed", "0",
                 "--out", str(codec)]) == 0
    assert main(["train-context", "--config", str(cfg), "--seed", "0",
                 "--codec", str(codec), "--out", str(model)]) == 0
    audio = root / "input.wav"
    write_audio(audio, synth_audio(12 * 160, seed=5))
    enc = root / "enc"
    assert main(["encode", "--config", str(cfg), "--codec", str(codec),
                 "--model", str(model), "--audio", str(audio),
                 "--out-dir", str(enc)]) == 0
    return {"root": root, "cfg": cfg, "codec": codec, "model": model,
            "audio": audio, "enc": enc}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_command_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_parser_rejects_missing_arguments():
    parser = build_parser()
    assert parser.prog == "tokenwire"
    with pytest.raises(SystemExit):
        parser.parse_args(["encode"])  # --codec etc. are required


def test_trained_artifacts_load(ws):
    codec = load_codec(ws["codec"])
    assert codec.vocab == 8 and codec.n_layers == 3 and codec.dim == 16
    model = load_count_model(ws["model"])
    assert model.vocab == 8 and model.n_layers == 3
    assert model.n_observed > 0


def test_training_commands_match_train_stack(tmp_path):
    """The CLI writes the very artifacts the experiment runner trains."""
    cfg = dict(CFG, noise=0.2, n_tones=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    codec, model = tmp_path / "codec.rvq", tmp_path / "model.ctx"
    assert main(["train-codebooks", "--config", str(cfg_path), "--seed", "4",
                 "--out", str(codec)]) == 0
    assert main(["train-context", "--config", str(cfg_path), "--seed", "4",
                 "--codec", str(codec), "--out", str(model)]) == 0
    stack = train_stack(config_from_dict(dict(cfg, base_seed=4)))
    save_codec(tmp_path / "want.rvq", stack.codec)
    save_count_model(tmp_path / "want.ctx", stack.count_model)
    assert codec.read_bytes() == (tmp_path / "want.rvq").read_bytes()
    assert model.read_bytes() == (tmp_path / "want.ctx").read_bytes()


def test_encode_outputs(ws):
    packets = read_packets(ws["enc"] / "packets.bin")
    with open(ws["enc"] / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["n_frames"] == 12 and manifest["level"] == 3
    assert manifest["fec"] is True
    assert manifest["n_packets"] == len(packets) == 12
    assert manifest["package_version"] == __version__
    assert manifest["gos"]["layer_bounds"] == [0, 1, 2, 3]


def test_encode_rejects_ragged_audio(ws, tmp_path):
    bad = tmp_path / "ragged.wav"
    write_audio(bad, synth_audio(12 * 160 + 30, seed=6))
    with pytest.raises(SystemExit, match="multiple of frame_len"):
        main(["encode", "--config", str(ws["cfg"]), "--codec",
              str(ws["codec"]), "--model", str(ws["model"]),
              "--audio", str(bad), "--out-dir", str(tmp_path / "enc")])


def test_channel_traces(ws, tmp_path):
    trace_path = tmp_path / "trace.txt"
    assert main(["channel", "--packets", str(ws["enc"] / "packets.bin"),
                 "--out", str(trace_path),
                 "--channel", '{"type": "bernoulli", "loss_prob": 0.0}',
                 "--seed", "1"]) == 0
    trace = read_trace(trace_path)
    assert trace.shape == (12,) and bool(trace.all())

    spec = tmp_path / "chan.json"
    spec.write_text(json.dumps({"type": "markov"}))
    assert main(["channel", "--packets", str(ws["enc"] / "packets.bin"),
                 "--out", str(trace_path), "--channel-file", str(spec),
                 "--seed", "1"]) == 0
    assert read_trace(trace_path).shape == (12,)


def test_decode_lossless_matches_the_library(ws, tmp_path):
    out = tmp_path / "out.wav"
    report = tmp_path / "report.json"
    assert main(["decode", "--dir", str(ws["enc"]), "--codec",
                 str(ws["codec"]), "--model", str(ws["model"]),
                 "--out", str(out), "--report", str(report)]) == 0
    with open(report) as fh:
        rep = json.load(fh)
    assert rep["state_counts"] == {"received": 36, "lost": 0,
                                   "invalid": 0, "concealed": 0}
    assert rep["case_counts"] == {}
    assert len(rep["valid_depth"]) == 12

    # reproduce the receiver path directly through the library
    from tokenwire.audio import CodecConfig, analyze, synthesize
    from tokenwire.rvq import dequantize, quantize
    signal = read_audio(ws["audio"])
    codec = load_codec(ws["codec"])
    codec_cfg = CodecConfig(frame_len=160, dim=16)
    grid = quantize(analyze(signal, codec_cfg), codec, 3)
    want = synthesize(dequantize(grid, codec, grid.level), codec_cfg,
                      signal.sample_rate)
    got = read_audio(out)
    np.testing.assert_allclose(got.samples, want.samples, atol=1.6 / 32768)


def test_decode_through_a_lossy_trace(ws, tmp_path):
    packets = read_packets(ws["enc"] / "packets.bin")
    flags = ["1"] * len(packets)
    victims = [i for i, p in enumerate(packets) if p.group > 0][:2]
    for i in victims:
        flags[i] = "0"
    trace_path = tmp_path / "trace.txt"
    trace_path.write_text("".join(flags) + "\n")
    out = tmp_path / "out.wav"
    report = tmp_path / "report.json"
    assert main(["decode", "--dir", str(ws["enc"]), "--codec",
                 str(ws["codec"]), "--model", str(ws["model"]),
                 "--out", str(out), "--trace", str(trace_path),
                 "--report", str(report)]) == 0
    with open(report) as fh:
        rep = json.load(fh)
    counts = rep["state_counts"]
    assert sum(counts.values()) == 36
    assert counts["received"] < 36
    assert counts["concealed"] + counts["invalid"] + counts["lost"] > 0
    assert out.exists()


def test_decode_rejects_mismatched_artifacts(ws, tmp_path):
    codec2 = tmp_path / "codec2.rvq"
    model2 = tmp_path / "model2.ctx"
    assert main(["train-codebooks", "--config", str(ws["cfg"]), "--seed", "9",
                 "--out", str(codec2)]) == 0
    assert main(["train-context", "--config", str(ws["cfg"]), "--seed", "9",
                 "--codec", str(ws["codec"]), "--out", str(model2)]) == 0
    out = tmp_path / "out.wav"
    with pytest.raises(SystemExit, match="codec file does not match"):
        main(["decode", "--dir", str(ws["enc"]), "--codec", str(codec2),
              "--model", str(ws["model"]), "--out", str(out)])
    with pytest.raises(SystemExit, match="model file does not match"):
        main(["decode", "--dir", str(ws["enc"]), "--codec", str(ws["codec"]),
              "--model", str(model2), "--out", str(out)])


def test_stream_matches_periodic_when_lossless(ws, tmp_path, capsys):
    stream_out = tmp_path / "stream.wav"
    assert main(["stream", "--config", str(ws["cfg"]), "--codec",
                 str(ws["codec"]), "--model", str(ws["model"]),
                 "--audio", str(ws["audio"]), "--out", str(stream_out),
                 "--loss", "0.0", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    assert "max sender latency" in text and "(bound 6)" in text
    # the bit accounting comes from the sender's report: 12 frames in 4
    # steps send 3 coarse packets and 2 fine-group packets per step
    cfg = config_from_dict(CFG)
    codec = load_codec(ws["codec"])
    model = load_count_model(ws["model"])
    audio = read_audio(ws["audio"])
    grid = quantize(analyze(audio, CodecConfig(cfg.frame_len, codec.dim)),
                    codec, codec.n_layers)
    tx = StreamSender(gos_config(cfg), StreamConfig(3, 3, 6, 6), model)
    tx.push(grid.tokens)
    tx.flush()
    rep = tx.report
    assert rep.n_packets == 11
    kbps = rep.total_bits / (audio.samples.size / audio.sample_rate) / 1000
    assert (f"wire {kbps:.2f} kbit/s; 0.92 packets/frame; "
            f"fine {rep.fine_bits / rep.n_fine_tokens:.2f} bits/token"
            in text)

    decode_out = tmp_path / "decode.wav"
    assert main(["decode", "--dir", str(ws["enc"]), "--codec",
                 str(ws["codec"]), "--model", str(ws["model"]),
                 "--out", str(decode_out)]) == 0
    # identical recovered tokens, identical synthesis, identical file
    assert stream_out.read_bytes() == decode_out.read_bytes()


def test_stream_rejects_a_cadence_the_windows_cannot_cover(ws, tmp_path,
                                                          capsys):
    out = tmp_path / "stream.wav"
    # gos_len and conceal_window are 6: too short for 4 + 3 frames
    assert main(["stream", "--config", str(ws["cfg"]), "--codec",
                 str(ws["codec"]), "--model", str(ws["model"]),
                 "--audio", str(ws["audio"]), "--out", str(out),
                 "--stride", "4", "--lookahead", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "stride 4" in err and "lookahead 3" in err
    assert not out.exists()


def test_config_with_key_unit_is_refused(ws, tmp_path, capsys):
    # Every fine slice is coded against coarse cells only; a config that
    # still names a key unit is refused as naming an unknown field.
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps({**CFG, "key_unit": 1}))
    assert main(["encode", "--config", str(cfg), "--codec",
                 str(ws["codec"]), "--model", str(ws["model"]),
                 "--audio", str(ws["audio"]),
                 "--out-dir", str(tmp_path / "enc")]) == 2
    assert capsys.readouterr().err == "error: key_unit: unknown field\n"
    assert not (tmp_path / "enc").exists()


def test_refused_model_or_codec_file_is_an_error(ws, tmp_path, capsys):
    junk = tmp_path / "junk.ctx"
    junk.write_bytes(b"junk")
    for flag, reason in (("--model", "not a context model file"),
                         ("--codec", "not a codebook file")):
        files = {"--codec": str(ws["codec"]), "--model": str(ws["model"]),
                 flag: str(junk)}
        assert main(["encode", "--config", str(ws["cfg"]),
                     "--codec", files["--codec"], "--model", files["--model"],
                     "--audio", str(ws["audio"]),
                     "--out-dir", str(tmp_path / "enc")]) == 2
        assert capsys.readouterr().err == f"error: {junk}: {reason}\n"
        assert not (tmp_path / "enc").exists()


def test_simulate_and_report(ws, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(ws["cfg"]),
                 "--out-dir", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "wrote 4 rows" in text
    lines = (out_dir / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 5

    summary_path = tmp_path / "summary2.json"
    assert main(["report", "--csv", str(out_dir / "results.csv"),
                 "--out", str(summary_path)]) == 0
    with open(summary_path) as fh:
        got = json.load(fh)
    with open(out_dir / "summary.json") as fh:
        want = json.load(fh)
    assert [g["loss_ratio"] for g in got["groups"]] == \
        [g["loss_ratio"] for g in want["groups"]]
    assert all(g["n"] == 2 for g in got["groups"])
    # CSV values are rounded to 6 decimals, so means agree only loosely
    for a, b in zip(got["groups"], want["groups"]):
        assert a["mean_si_snr_db"] == pytest.approx(b["mean_si_snr_db"],
                                                    abs=1e-4)

    capsys.readouterr()  # drop the "wrote ..." line before the print mode
    assert main(["report", "--csv", str(out_dir / "results.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["groups"]


def test_report_rejects_unknown_schema(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(SystemExit, match="schema"):
        main(["report", "--csv", str(bad)])

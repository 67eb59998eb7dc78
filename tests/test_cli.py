"""End-to-end command line flows in a temporary workspace."""

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from tokenwire import __version__
from tokenwire.audio import (AudioSignal, CodecConfig, analyze, read_audio,
                             write_audio)
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
    "gos_len": 6, "n_units": 2,
    "levels": [3], "clip_frames": 12, "train_clips": 4, "train_epochs": 2,
    "conceal_window": 6, "n_trials": 2,
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
    # two groups-of-slices of two units, one coarse and one fine slice each
    assert manifest["n_packets"] == len(packets) == 8
    assert manifest["package_version"] == __version__
    assert manifest["gos"] == {"gos_len": 6, "n_units": 2, "n_coarse": 1,
                               "n_layers": 3}
    assert manifest["total_bits"] == 8 * sum(len(p.to_bytes())
                                             for p in packets)
    assert manifest["header_bits"] == 8 * sum(p.header_bytes
                                              for p in packets)
    assert "conceal_fine_layers" not in manifest
    assert "conceal_window" not in manifest


def test_encode_prints_wire_and_payload_rates(ws, tmp_path, capsys):
    out = tmp_path / "enc"
    assert main(["encode", "--config", str(ws["cfg"]), "--codec",
                 str(ws["codec"]), "--model", str(ws["model"]),
                 "--audio", str(ws["audio"]), "--out-dir", str(out)]) == 0
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    total, header = manifest["total_bits"], manifest["header_bits"]
    seconds = 12 * 160 / 16000
    assert (f"wrote 8 packets, {total} bits (wire "
            f"{total / seconds / 1000:.2f} kbit/s, payload "
            f"{(total - header) / seconds / 1000:.2f} kbit/s) to {out}"
            in capsys.readouterr().out)


def test_encode_rejects_ragged_audio(ws, tmp_path, capsys):
    """Audio that is not whole frames is an error naming the file, in
    ``encode`` and in ``stream``, and nothing is written."""
    bad = tmp_path / "ragged.wav"
    write_audio(bad, synth_audio(12 * 160 + 30, seed=6))
    for argv in (_encode(ws, tmp_path), _stream(ws, tmp_path)):
        assert main(_swap(argv, "--audio", str(bad))) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: 1950 samples are not a multiple of frame_len "
            f"160; pad or trim first\n")
        assert not (tmp_path / "enc").exists()
        assert not (tmp_path / "out.wav").exists()


def test_channel_traces(ws, tmp_path):
    trace_path = tmp_path / "trace.txt"
    assert main(["channel", "--packets", str(ws["enc"] / "packets.bin"),
                 "--out", str(trace_path),
                 "--channel", '{"type": "bernoulli", "loss_prob": 0.0}',
                 "--seed", "1"]) == 0
    trace = read_trace(trace_path)
    assert trace.shape == (8,) and bool(trace.all())

    spec = tmp_path / "chan.json"
    spec.write_text(json.dumps({"type": "markov"}))
    assert main(["channel", "--packets", str(ws["enc"] / "packets.bin"),
                 "--out", str(trace_path), "--channel-file", str(spec),
                 "--seed", "1"]) == 0
    assert read_trace(trace_path).shape == (8,)


def test_decode_lossless_matches_the_library(ws, tmp_path):
    out = tmp_path / "out.wav"
    report = tmp_path / "report.json"
    assert main(["decode", "--dir", str(ws["enc"]), "--codec",
                 str(ws["codec"]), "--model", str(ws["model"]),
                 "--out", str(out), "--report", str(report)]) == 0
    with open(report) as fh:
        rep = json.load(fh)
    assert set(rep) == {"state_counts", "n_predicted", "fec_recovered",
                        "n_dropped", "valid_depth"}
    assert rep["state_counts"] == {"received": 36, "lost": 0,
                                   "invalid": 0, "concealed": 0}
    assert rep["n_predicted"] == 0
    assert rep["n_dropped"] == 0
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


def decode_old_and_new(ws, tmp_path, extra: dict, coarse_loss: bool):
    """(audio, report) bytes of decoding the clip through one lossy trace
    under the manifest ``encode`` wrote and under that manifest with the
    ``extra`` fields of an older one, in that order."""
    old = tmp_path / "old"
    old.mkdir()
    (old / "packets.bin").write_bytes((ws["enc"] / "packets.bin")
                                      .read_bytes())
    with open(ws["enc"] / "manifest.json") as fh:
        manifest = json.load(fh)
    (old / "manifest.json").write_text(json.dumps({**manifest, **extra}))
    flags = ["0" if (p.group > 0 or coarse_loss) and i % 2 else "1"
             for i, p in enumerate(read_packets(ws["enc"] / "packets.bin"))]
    trace = tmp_path / "trace.txt"
    trace.write_text("".join(flags) + "\n")
    outs = []
    for d, name in ((ws["enc"], "new"), (old, "old")):
        out, report = tmp_path / f"{name}.wav", tmp_path / f"{name}.json"
        assert main(["decode", "--dir", str(d), "--codec", str(ws["codec"]),
                     "--model", str(ws["model"]), "--trace", str(trace),
                     "--out", str(out), "--report", str(report)]) == 0
        outs.append((out.read_bytes(), report.read_bytes()))
    return outs


def test_decode_reads_a_manifest_that_names_conceal_fine_layers(ws,
                                                                tmp_path):
    # Older manifests carry the knob; it is ignored, so they decode to the
    # same audio as a manifest without it.
    new, old = decode_old_and_new(ws, tmp_path, {"conceal_fine_layers": 7},
                                  coarse_loss=False)
    assert old == new


def test_decode_reads_a_manifest_that_names_conceal_window(ws, tmp_path):
    # Older manifests carry the concealment window; concealment reads
    # none, so they decode to the same audio and report as a manifest
    # without it, here through a trace that loses coarse packets too.
    new, old = decode_old_and_new(ws, tmp_path, {"conceal_window": 1},
                                  coarse_loss=True)
    assert old == new
    assert json.loads(new[1])["n_predicted"] > 0


def test_stream_matches_periodic_when_lossless(ws, tmp_path, capsys):
    stream_out = tmp_path / "stream.wav"
    assert main(["stream", "--config", str(ws["cfg"]), "--codec",
                 str(ws["codec"]), "--model", str(ws["model"]),
                 "--audio", str(ws["audio"]), "--out", str(stream_out),
                 "--loss", "0.0", "--seed", "3"]) == 0
    text = capsys.readouterr().out
    assert "max sender latency" in text and "(bound 6)" in text
    assert "; n_dropped 0\n" in text
    # the bit accounting comes from the sender's report: 12 frames in 4
    # steps send 3 coarse packets and one fine packet per step
    cfg = config_from_dict(CFG)
    codec = load_codec(ws["codec"])
    model = load_count_model(ws["model"])
    audio = read_audio(ws["audio"])
    grid = quantize(analyze(audio, CodecConfig(cfg.frame_len, codec.dim)),
                    codec, codec.n_layers)
    tx = StreamSender(gos_config(cfg), StreamConfig(3, 3), model)
    tx.push(grid.tokens)
    tx.flush()
    rep = tx.report
    assert rep.n_packets == 7
    seconds = audio.samples.size / audio.sample_rate
    assert (f"wire {rep.total_bits / seconds / 1000:.2f} kbit/s; "
            f"payload {rep.payload_bits / seconds / 1000:.2f} kbit/s; "
            f"0.58 packets/frame; "
            f"fine {rep.fine_bits / rep.n_fine_tokens:.2f} bits/token"
            in text)

    decode_out = tmp_path / "decode.wav"
    assert main(["decode", "--dir", str(ws["enc"]), "--codec",
                 str(ws["codec"]), "--model", str(ws["model"]),
                 "--out", str(decode_out)]) == 0
    # identical recovered tokens, identical synthesis, identical file
    assert stream_out.read_bytes() == decode_out.read_bytes()


def test_stream_takes_a_cadence_past_the_conceal_window(ws, tmp_path,
                                                        capsys):
    out = tmp_path / "stream.wav"
    # the config's conceal_window, 6, is shorter than 4 + 3 frames, and
    # has no effect: concealment reads no window
    assert main(["stream", "--config", str(ws["cfg"]), "--codec",
                 str(ws["codec"]), "--model", str(ws["model"]),
                 "--audio", str(ws["audio"]), "--out", str(out),
                 "--stride", "4", "--lookahead", "3", "--loss", "0.3",
                 "--seed", "1"]) == 0
    assert "(bound 7)" in capsys.readouterr().out
    assert read_audio(out).samples.size == \
        read_audio(ws["audio"]).samples.size


def test_vocab_above_the_coder_total_is_refused(tmp_path, capsys):
    # refused before training, not by the coder once trained
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({**CFG, "vocab": 65537, "train_clips": 2731}))
    assert main(["train-codebooks", "--config", str(cfg),
                 "--out", str(tmp_path / "codec.rvq")]) == 2
    assert capsys.readouterr().err == "error: vocab: must be at most 65535\n"
    assert not (tmp_path / "codec.rvq").exists()


def test_vocab_the_artifact_files_cannot_hold_is_refused(tmp_path, capsys):
    # the coder could price 65536 tokens, but the codec and model files
    # store vocab in 16 bits: refused before training, not when saving
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({**CFG, "vocab": 65536, "train_clips": 2731}))
    for argv in (["train-codebooks", "--out", str(tmp_path / "codec.rvq")],
                 ["train-context", "--codec", str(tmp_path / "codec.rvq"),
                  "--out", str(tmp_path / "model.ctx")]):
        assert main(argv[:1] + ["--config", str(cfg)] + argv[1:]) == 2
        assert capsys.readouterr().err == \
            "error: vocab: must be at most 65535\n"
    assert not (tmp_path / "codec.rvq").exists()
    assert not (tmp_path / "model.ctx").exists()


def test_config_with_key_unit_is_refused(ws, tmp_path, capsys):
    # No fine slice is coded against another cell, and every unit sends
    # its fine layers in one slice; a config that still names a key
    # unit or a count of fine layer groups is refused as naming an unknown
    # field.
    for field in ("key_unit", "n_fine_groups"):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({**CFG, field: 1}))
        assert main(["encode", "--config", str(cfg), "--codec",
                     str(ws["codec"]), "--model", str(ws["model"]),
                     "--audio", str(ws["audio"]),
                     "--out-dir", str(tmp_path / "enc")]) == 2
        assert capsys.readouterr().err == f"error: {field}: unknown field\n"
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


def _encode(ws, tmp_path, *extra):
    return ["encode", "--config", str(ws["cfg"]), "--codec", str(ws["codec"]),
            "--model", str(ws["model"]), "--audio", str(ws["audio"]),
            "--out-dir", str(tmp_path / "enc"), *extra]


def _channel(ws, tmp_path, spec):
    return ["channel", "--packets", str(ws["enc"] / "packets.bin"),
            "--out", str(tmp_path / "trace.txt"), "--channel", spec]


def _decode(ws, tmp_path, trace):
    (tmp_path / "trace.txt").write_text(trace + "\n")
    return ["decode", "--dir", str(ws["enc"]), "--codec", str(ws["codec"]),
            "--model", str(ws["model"]), "--out", str(tmp_path / "out.wav"),
            "--trace", str(tmp_path / "trace.txt")]


def _decode_packets(ws, tmp_path, data: bytes):
    """A decode of the encoded clip's manifest with ``data`` as its
    ``packets.bin``."""
    d = tmp_path / "other"
    d.mkdir()
    (d / "manifest.json").write_bytes(
        (ws["enc"] / "manifest.json").read_bytes())
    (d / "packets.bin").write_bytes(data)
    return ["decode", "--dir", str(d), "--codec", str(ws["codec"]),
            "--model", str(ws["model"]), "--out", str(tmp_path / "out.wav")]


def _cut_packets(ws, tmp_path):
    """A decode of the encoded clip whose ``packets.bin`` ends mid-record."""
    return _decode_packets(ws, tmp_path,
                           (ws["enc"] / "packets.bin").read_bytes()[:-3])


def _version_6_packets(ws, tmp_path):
    """A decode of a ``packets.bin`` in the format before the fine flag,
    which wrote the group as a varint: a fine packet of frames 0-1."""
    body = b"\x60\x01\x00\x02ab"
    record = body + zlib.crc32(body).to_bytes(4, "little")
    return _decode_packets(ws, tmp_path,
                           len(record).to_bytes(4, "little") + record)


def _other_codec(ws, tmp_path):
    """A decode of the encoded clip with a codec trained on another seed."""
    codec = tmp_path / "codec2.rvq"
    assert main(["train-codebooks", "--config", str(ws["cfg"]), "--seed",
                 "9", "--out", str(codec)]) == 0
    return _swap(_decode(ws, tmp_path, "1" * 8), "--codec", str(codec))


def _other_model(ws, tmp_path):
    """A decode of the encoded clip with a model trained on another seed."""
    model = tmp_path / "model2.ctx"
    assert main(["train-context", "--config", str(ws["cfg"]), "--seed", "9",
                 "--codec", str(ws["codec"]), "--out", str(model)]) == 0
    return _swap(_decode(ws, tmp_path, "1" * 8), "--model", str(model))


def _empty_audio(tmp, name):
    """An audio file of no samples: a rate header only, or a 0-frame
    WAV."""
    write_audio(tmp / name, AudioSignal(np.zeros(0, np.float32), 16000))
    return str(tmp / name)


def _non_finite_audio(tmp, name, bad):
    """A clip of the right length with one sample ``bad`` (NaN or inf)."""
    samples = np.zeros(4 * 160, np.float32)
    samples[7] = bad
    write_audio(tmp / name, AudioSignal(samples, 16000))
    return str(tmp / name)


def _nan_codec(ws, tmp_path):
    """An encode with the workspace codec file, one float of its last
    layer overwritten with NaN."""
    raw = bytearray((ws["codec"]).read_bytes())
    raw[-4:] = np.array([np.nan], "<f4").tobytes()
    (tmp_path / "nan.rvq").write_bytes(bytes(raw))
    return _swap(_encode(ws, tmp_path), "--codec", str(tmp_path / "nan.rvq"))


def _report_unknown_schema(ws, tmp_path):
    (tmp_path / "bad.csv").write_text("a,b,c\n1,2,3\n")
    return ["report", "--csv", str(tmp_path / "bad.csv")]


def _stream(ws, tmp_path, *extra):
    return ["stream", "--config", str(ws["cfg"]), "--codec", str(ws["codec"]),
            "--model", str(ws["model"]), "--audio", str(ws["audio"]),
            "--out", str(tmp_path / "out.wav"), *extra]


@pytest.mark.parametrize("argv, message", [
    (lambda ws, tmp: _channel(ws, tmp, '{"type": "foo"}'),
     "--channel: unknown channel type 'foo'"),
    (lambda ws, tmp: _channel(ws, tmp, '{"type": "bernoulli", '
                                       '"loss_prob": 1.5}'),
     "--channel: loss_prob must be a probability"),
    (lambda ws, tmp: _channel(ws, tmp, '{"type": "bernoulli"}'),
     "--channel: bernoulli channel needs loss_prob"),
    (lambda ws, tmp: _channel(ws, tmp, '{"type": "bernoulli", '
                                       '"loss_prob": null}'),
     "--channel: loss_prob must be a number"),
    (lambda ws, tmp: _channel(ws, tmp, '{"type": "markov", '
                                       '"transition": 5}'),
     "--channel: transition must be a list of rows of numbers"),
    (lambda ws, tmp: _channel(ws, tmp, '{"type": "markov", '
                                       '"loss_probs": [null, 1, 2]}'),
     "--channel: loss_probs must be a list of numbers"),
    (lambda ws, tmp: _channel(ws, tmp, '{"type": "markov", '
                                       '"loss_probs": [NaN, 0.3, 0.95]}'),
     "--channel: loss_probs must be probabilities"),
    (lambda ws, tmp: _channel(ws, tmp, '{"type": "markov", "transition": '
                                       '[[1, 0], [0, 1]], '
                                       '"loss_probs": [0.1, 0.2]}'),
     "--channel: transition must have a unique stationary distribution"),
    (lambda ws, tmp: _channel(ws, tmp, '[0.1]'),
     "--channel: channel spec must be a JSON object"),
    (lambda ws, tmp: _decode(ws, tmp, "1" * 7),
     "trace.txt: 7 entries for 8 packets"),
    (lambda ws, tmp: _decode(ws, tmp, "1" * 7 + "x"),
     "trace.txt: trace may contain only 0 and 1"),
    (lambda ws, tmp: _stream(ws, tmp, "--loss", "1.5"),
     "--loss: loss_prob must be a probability"),
    (lambda ws, tmp: _encode(ws, tmp, "--level", "99"),
     "--level: must be in [1, 3], got 99"),
    (lambda ws, tmp: _swap(_encode(ws, tmp), "--audio", _bad_wav(tmp)),
     "bad.wav: not a WAV file: it ends early"),
    (lambda ws, tmp: _swap(_stream(ws, tmp), "--audio", _bad_wav(tmp)),
     "bad.wav: not a WAV file: it ends early"),
    (lambda ws, tmp: _swap(_encode(ws, tmp), "--audio",
                           _empty_audio(tmp, "empty.f32")),
     "empty.f32: holds no samples"),
    (lambda ws, tmp: _swap(_stream(ws, tmp), "--audio",
                           _empty_audio(tmp, "empty.wav")),
     "empty.wav: holds no samples"),
    (lambda ws, tmp: _swap(_encode(ws, tmp), "--audio",
                           _non_finite_audio(tmp, "nan.f32", np.nan)),
     "nan.f32: holds NaN or infinite samples"),
    (lambda ws, tmp: _swap(_stream(ws, tmp), "--audio",
                           _non_finite_audio(tmp, "inf.f32", np.inf)),
     "inf.f32: holds NaN or infinite samples"),
    (_nan_codec, "nan.rvq: codebook entries must be finite"),
    (_cut_packets, "packets.bin: truncated packet record"),
    (_version_6_packets, "packets.bin: unsupported packet version 6"),
    (_other_codec, "codec2.rvq: digest differs from the manifest's "
                   "codec_sha256"),
    (_other_model, "model2.ctx: digest differs from the manifest's "
                   "model_sha256"),
    (_report_unknown_schema, "bad.csv: unrecognized CSV schema"),
], ids=["channel-type", "loss-prob", "no-loss-prob", "null-loss-prob",
        "scalar-transition", "null-loss-probs", "nan-loss-probs",
        "two-closed-classes",
        "not-an-object", "trace-length", "trace-characters", "stream-loss",
        "encode-level", "encode-bad-wav", "stream-bad-wav",
        "encode-empty-f32", "stream-empty-wav", "encode-nan-f32",
        "stream-inf-f32", "encode-nan-codec",
        "decode-cut-packets", "decode-version-6-packets",
        "decode-other-codec", "decode-other-model", "report-unknown-schema"])
def test_bad_input_is_an_error(ws, tmp_path, capsys, argv, message):
    """Refused user input prints one error line naming the option or file
    and exits 2, with no traceback and no output written."""
    assert main(argv(ws, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(message + "\n")
    assert not (tmp_path / "enc").exists()
    assert not (tmp_path / "out.wav").exists()


def _bad_wav(tmp):
    """A 4-byte ``.wav`` file that holds no WAV header."""
    (tmp / "bad.wav").write_bytes(b"RIFF")
    return str(tmp / "bad.wav")


def test_manifest_missing_a_field_is_an_error(ws, tmp_path, capsys):
    enc = tmp_path / "enc"
    enc.mkdir()
    (enc / "packets.bin").write_bytes((ws["enc"] / "packets.bin").read_bytes())
    full = json.loads((ws["enc"] / "manifest.json").read_text())
    no_units = {k: v for k, v in full["gos"].items() if k != "n_units"}
    no_level = {k: v for k, v in full.items() if k != "level"}
    for manifest, field in (({}, "codec_sha256"),
                            ({**full, "gos": no_units}, "gos.n_units"),
                            (no_level, "level")):
        (enc / "manifest.json").write_text(json.dumps(manifest))
        assert main(["decode", "--dir", str(enc), "--codec",
                     str(ws["codec"]), "--model", str(ws["model"]),
                     "--out", str(tmp_path / "out.wav")]) == 2
        assert capsys.readouterr().err == \
            f"error: {enc / 'manifest.json'}: {field} missing\n"
        assert not (tmp_path / "out.wav").exists()


def assert_manifest_refused(ws, tmp_path, capsys, change, message):
    """A decode of the encoded clip under the manifest ``change`` makes of
    its own prints one error line, ``message`` about the manifest, exits
    2 and writes no audio."""
    enc = tmp_path / "enc"
    enc.mkdir()
    (enc / "packets.bin").write_bytes((ws["enc"] / "packets.bin").read_bytes())
    full = json.loads((ws["enc"] / "manifest.json").read_text())
    (enc / "manifest.json").write_text(json.dumps(change(full)))
    assert main(["decode", "--dir", str(enc), "--codec", str(ws["codec"]),
                 "--model", str(ws["model"]),
                 "--out", str(tmp_path / "out.wav")]) == 2
    assert capsys.readouterr().err == \
        f"error: {enc / 'manifest.json'}: {message}\n"
    assert not (tmp_path / "out.wav").exists()


@pytest.mark.parametrize("change, message", [
    (lambda m: {**m, "level": "x"}, "level must be an integer"),
    (lambda m: {**m, "n_frames": True}, "n_frames must be an integer"),
    (lambda m: {**m, "conceal_window": 6.0},
     "conceal_window must be an integer"),
    (lambda m: {**m, "gos": {**m["gos"], "n_units": "2"}},
     "gos.n_units must be an integer"),
    (lambda m: {**m, "gos": {**m["gos"], "n_coarse": [1]}},
     "gos.n_coarse must be an integer"),
    (lambda m: {**m, "gos": {**m["gos"], "n_layers": 3.0}},
     "gos.n_layers must be an integer"),
    (lambda m: {**m, "model_sha256": 7}, "model_sha256 must be a string"),
    (lambda m: {**m, "gos": [6, 2]}, "gos must be an object"),
    (lambda m: [m], "not a JSON object"),
], ids=["int", "bool-for-int", "optional-int", "gos-int", "gos-n-coarse",
        "gos-n-layers", "string", "object", "top-level"])
def test_manifest_field_of_the_wrong_type_is_an_error(ws, tmp_path, capsys,
                                                       change, message):
    assert_manifest_refused(ws, tmp_path, capsys, change, message)


def _gos(**changes):
    """A manifest change that sets fields of its ``gos``."""
    return lambda m: {**m, "gos": {**m["gos"], **changes}}


@pytest.mark.parametrize("change, message", [
    (lambda m: {**m, "level": 99},
     "level must be in [gos.n_coarse, gos.n_layers], got 99"),
    (lambda m: {**m, "n_frames": -3}, "n_frames must be at least 1, got -3"),
    (lambda m: {**m, "frame_len": 0}, "frame_len must be at least 1, got 0"),
    (lambda m: {**m, "sample_rate": 0},
     "sample_rate must be at least 1, got 0"),
    (lambda m: {**m, "conceal_window": 0},
     "conceal_window must be at least 1, got 0"),
    (_gos(gos_len=0), "gos.gos_len must be at least 1, got 0"),
    (_gos(n_units=7), "gos.n_units must be in [1, gos.gos_len], got 7"),
    (_gos(n_coarse=3, n_layers=1),
     "gos.n_coarse must be in [1, gos.n_layers], got 3"),
    (_gos(n_layers=4), "gos.n_layers must be the codec's 3, got 4"),
    (lambda m: {**m, "frame_len": 8},
     "frame_len must be at least the codec's dim 16, got 8"),
], ids=["level", "n_frames", "frame_len", "sample_rate", "conceal_window",
        "gos-gos_len", "gos-n_units", "gos-layers-out-of-order",
        "gos-n_layers-not-the-codec's", "frame_len-below-dim"])
def test_manifest_value_out_of_range_is_an_error(ws, tmp_path, capsys,
                                                 change, message):
    assert_manifest_refused(ws, tmp_path, capsys, change, message)


def test_corrupt_record_decodes_as_a_lost_packet(ws, tmp_path):
    """A record whose checksum fails is dropped and counted; the audio is
    that of a decode whose trace loses the packet."""
    raw = (ws["enc"] / "packets.bin").read_bytes()
    n_first = int.from_bytes(raw[:4], "little")
    assert 10 < 4 + n_first  # byte 10 lies in the first record
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_bytes(
        (ws["enc"] / "manifest.json").read_bytes())
    (bad / "packets.bin").write_bytes(
        raw[:10] + bytes([raw[10] ^ 0x01]) + raw[11:])
    assert read_packets(bad / "packets.bin")[0] is None
    common = ["--codec", str(ws["codec"]), "--model", str(ws["model"])]
    assert main(["decode", "--dir", str(bad), *common,
                 "--out", str(tmp_path / "bad.wav"),
                 "--report", str(tmp_path / "bad.json")]) == 0
    (tmp_path / "trace.txt").write_text("0" + "1" * 7 + "\n")
    assert main(["decode", "--dir", str(ws["enc"]), *common,
                 "--trace", str(tmp_path / "trace.txt"),
                 "--out", str(tmp_path / "lost.wav"),
                 "--report", str(tmp_path / "lost.json")]) == 0
    got = json.loads((tmp_path / "bad.json").read_text())
    want = json.loads((tmp_path / "lost.json").read_text())
    assert got["n_dropped"] == 1 and want["n_dropped"] == 0
    assert {**got, "n_dropped": 0} == want
    assert (tmp_path / "bad.wav").read_bytes() == \
        (tmp_path / "lost.wav").read_bytes()


def _swap(argv, flag, value):
    """``argv`` with the value of ``flag`` replaced by ``value``."""
    i = argv.index(flag) + 1
    return [*argv[:i], value, *argv[i + 1:]]


@pytest.mark.parametrize("argv, flag", [
    (lambda ws, tmp: _channel(ws, tmp, "{}"), "--packets"),
    (lambda ws, tmp: _decode(ws, tmp, "1" * 8), "--dir"),
    (lambda ws, tmp: _decode(ws, tmp, "1" * 8), "--codec"),
    (lambda ws, tmp: _decode(ws, tmp, "1" * 8), "--model"),
    (lambda ws, tmp: ["train-context", "--codec", "", "--out",
                      str(tmp / "out.ctx")], "--codec"),
    (_encode, "--codec"),
    (_encode, "--model"),
    (_encode, "--audio"),
    (_stream, "--codec"),
    (_stream, "--model"),
    (_stream, "--audio"),
    (lambda ws, tmp: ["simulate", "--config", "", "--out-dir",
                      str(tmp / "run")], "--config"),
    (lambda ws, tmp: ["report", "--csv", ""], "--csv"),
], ids=["channel-packets", "decode-dir", "decode-codec", "decode-model",
        "train-context-codec", "encode-codec", "encode-model", "encode-audio",
        "stream-codec", "stream-model", "stream-audio", "simulate-config",
        "report-csv"])
def test_missing_input_file_is_an_error(ws, tmp_path, capsys, argv, flag):
    """A missing input file prints one error line naming the file and
    exits 2, with no traceback and no output written."""
    missing = tmp_path / ("missing.wav" if flag == "--audio" else "missing")
    assert main(_swap(argv(ws, tmp_path), flag, str(missing))) == 2
    named = missing / "manifest.json" if flag == "--dir" else missing
    assert capsys.readouterr().err == \
        f"error: {named}: No such file or directory\n"
    assert not any(tmp_path.glob("out.*"))
    assert not (tmp_path / "enc").exists() and not (tmp_path / "run").exists()


def test_malformed_config_json_is_an_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--out-dir",
                 str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: Expecting property name")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


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

"""The benchmark's span tracer must still find every name it hooks."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from tokenwire import experiment, pipeline, streaming
from tokenwire.grid import TokenGrid

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


def test_install_layers_then_uninstall():
    tracing = load_tracing()
    before = (pipeline.encode_symbols, streaming.build_slice_grid,
              streaming.StreamReceiver.step)
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        assert tracer._installed
        assert pipeline.encode_symbols is not before[0]
    finally:
        tracer.uninstall()
    assert not tracer._installed
    assert (pipeline.encode_symbols, streaming.build_slice_grid,
            streaming.StreamReceiver.step) == before


def test_hooks_record_the_coding_work():
    """With the tracer active, a batch round trip that loses one coarse
    packet and one stream step leave non-zero work under every name the
    benchmark reports on. Only concealment prices through ``pmf``, so the
    loss is what reaches it."""
    from tokenwire.context import train_count_model
    from tokenwire.grid import GosConfig, StreamConfig, build_slice_grid

    rng = np.random.default_rng(3)
    tokens = rng.integers(0, 8, size=(12, 3)).astype(np.int32)
    grid = TokenGrid(tokens, np.full(12, 3), 8)
    model = train_count_model([grid], 8, 3)
    gos = GosConfig(6, 2, 1, 3)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        tracer.active = True
        with tracer.span("bench"):
            sg = build_slice_grid(12, gos, 3)
            packets, _ = pipeline.send_tokens(grid, sg, model, fec=False)
            pipeline.receive_tokens(packets[1:], sg, model)
            cfg = StreamConfig()
            tx = streaming.StreamSender(gos, cfg, model)
            rx = streaming.StreamReceiver(gos, cfg, model)
            rx.step(tx.push(tokens)[0].packets)
    finally:
        tracer.uninstall()
    stats = tracing.summarize(tracer.take())
    for name in ("rangecoder.encode", "rangecoder.decode", "context.pmf",
                 "context.predict", "pipeline.send", "pipeline.receive",
                 "streaming.receiver.step"):
        assert name in stats and stats[name].count > 0, name


def test_hooks_record_the_training(mini_cfg):
    """Training a stack leaves spans under both training names, so a
    rename cannot silently blank ``context.train_s`` or ``rvq.train_s``."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        tracer.active = True
        with tracer.span("bench.setup"):
            experiment.train_stack(mini_cfg)
    finally:
        tracer.uninstall()
    stats = tracing.summarize(tracer.take())
    for name in ("context.train", "rvq.train"):
        assert name in stats and stats[name].calls >= 1, name

"""The benchmark's span tracer must still find every name it hooks."""

import importlib.util
import sys
from pathlib import Path

from tokenwire import pipeline, streaming

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

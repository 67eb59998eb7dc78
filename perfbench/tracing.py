"""In-memory span tracer for tokenwire's layers.

The wrappers are installed from here, on the attribute each calling module
actually looks up (``tokenwire.streaming.build_slice_grid``,
``tokenwire.experiment.send_tokens``, ...), so nothing under ``src/``
changes. A span records its name, start, end, parent span and a work count
(symbols, frames, cells). A layer's self time is its span minus the part
covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class LayerStat:
    """Totals over every span of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0


class Tracer:
    """Records nested spans while ``active``.

    Library calls are recorded only inside a span the benchmark opened, so
    the checks that run between timed operations leave no spans.
    """

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, count]
        self._stack: list = []
        self._installed: list = []  # (owner, attr, replaced attribute)
        self.active = False

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, perf_counter(), 0.0, parent, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _BenchSpan(self, name)

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(args, result)`` gives
        the work the call did."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if count is not None:
                rec[4] = count(args, out)
            return out

        return traced

    def install(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` (module function, method or classmethod)
        by its traced wrapper."""
        raw = inspect.getattr_static(owner, attr)
        self._installed.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, raw.__func__,
                                                       count)))
        else:
            setattr(owner, attr, self.wrap(name, raw, count))

    def uninstall(self) -> None:
        """Put back every attribute ``install`` replaced, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def take(self) -> list:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list, slowdown: float = 1.0) -> dict:
    """Per span name: calls, inclusive time, self time and work count.

    Times are divided by ``slowdown``, the host's slowdown against nominal
    speed while the spans were recorded.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, count) in enumerate(spans):
        st = out.setdefault(name, LayerStat())
        st.calls += 1
        st.total_s += (end - start) / slowdown
        st.self_s += (end - start - child[i]) / slowdown
        st.count += count
    return out


def write_spans(path: Path, phases: dict) -> None:
    """Write ``{phase: spans}`` as JSON; each span is
    [name, start_s, end_s, parent_index]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {phase: [[n, s, e, p] for n, s, e, p, _ in spans]
           for phase, spans in phases.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


class _BenchSpan:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self._rec = None

    def __enter__(self):
        if self._tracer.active:
            self._rec = self._tracer._open(self._name)
        return self

    def __exit__(self, *exc):
        if self._rec is not None:
            self._tracer._close(self._rec)
        return False


def _n_targets(args, out):
    return len(args[1].targets)


def _frames_out(args, out):
    return len(out)


def _frames_in(args, out):
    return len(args[0])


def _one(args, out):
    return 1


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from tokenwire import context, experiment, pipeline, streaming, transport

    dependency_fns = ("build_coding_dependency", "build_conceal_mask",
                      "build_windows", "classify_loss", "coding_visibility",
                      "propagate_invalid", "stream_geometry")
    for mod in (pipeline, streaming, experiment):
        for attr in dependency_fns:
            if hasattr(mod, attr):
                tracer.install(mod, attr, "dependency." + attr)
        if hasattr(mod, "encode_symbols"):
            tracer.install(mod, "encode_symbols", "rangecoder.encode",
                           lambda a, out: out.n_symbols)
            tracer.install(mod, "decode_symbols", "rangecoder.decode",
                           lambda a, out: a[0].n_symbols)
        tracer.install(mod, "build_slice_grid", "grid.slice_grid")
    for mod in (pipeline, experiment):
        tracer.install(mod, "send_tokens", "pipeline.send",
                       lambda a, out: a[0].n_frames)
        tracer.install(mod, "receive_tokens", "pipeline.receive",
                       lambda a, out: a[1].n_frames)
        tracer.install(mod, "quantize", "rvq.quantize",
                       lambda a, out: out.n_frames)
        tracer.install(mod, "dequantize", "rvq.dequantize", _frames_out)
        tracer.install(mod, "synthesize", "audio.synthesize", _frames_in)
    tracer.install(experiment, "analyze", "audio.analyze", _frames_out)
    tracer.install(experiment, "train_codebooks", "rvq.train")
    tracer.install(experiment, "train_count_model", "context.train")
    tracer.install(experiment, "synth_audio", "synthetic.synth_audio")
    for attr in ("si_snr", "sdr", "mfcc_distance", "token_accuracy"):
        tracer.install(experiment, attr, "metrics." + attr)
    tracer.install(context.CountModel, "pmf", "context.pmf", _n_targets)
    tracer.install(context.CountModel, "predict", "context.predict",
                   _n_targets)
    tracer.install(transport.Packet, "to_bytes", "transport.to_bytes", _one)
    tracer.install(transport.Packet, "from_bytes", "transport.from_bytes",
                   _one)
    tracer.install(streaming.StreamSender, "push", "streaming.sender.push",
                   lambda a, out: len(out))
    tracer.install(streaming.StreamSender, "flush", "streaming.sender.flush",
                   lambda a, out: len(out[0]))
    tracer.install(streaming.StreamReceiver, "step", "streaming.receiver.step",
                   _one)
    tracer.install(streaming.StreamReceiver, "finish",
                   "streaming.receiver.finish")

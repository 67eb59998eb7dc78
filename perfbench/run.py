"""tokenwire benchmark: one workload per process, one thread.

Usage, from the repository root:

    python3 perfbench/run.py --workload batch_clean --seed 1 --seconds 12 \
        --trace 0

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes in which every layer is wrapped in spans, and
reports the per-layer metrics plus the tracing overhead; the spans go to
``perfbench/out/``. Metric names, units and directions come from
``BENCHMARK.json``. The last stdout line is the JSON result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from clock import slowdown_now  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9  # 3 before the measured passes, the rest between them


def _import_library():
    """Import tokenwire from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tokenwire" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tokenwire sources under {src}")
    sys.path.insert(0, str(src))
    import tokenwire
    if Path(tokenwire.__file__).resolve().parent != src / "tokenwire":
        sys.exit("perfbench: tokenwire was imported from outside the checkout")
    return tokenwire


def _declared_metrics() -> dict:
    """``{"end_to_end": {name: spec}, "per_layer": {name: spec}}``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def setup(tw, repeats: int) -> tuple:
    """Train the default stack ``repeats`` times.

    Returns (stack, reference seconds of each training).
    """
    cfg = tw.ExperimentConfig()
    times = []
    for _ in range(repeats):
        before = slowdown_now()
        t0 = perf_counter()
        stack = tw.train_stack(cfg)
        t = perf_counter() - t0
        times.append(t / ((before + slowdown_now()) / 2))
    return stack, times


def run_pass(wl, tracer, passes: list, first=None) -> None:
    """Run one pass and append it to ``passes``. Its counts must equal
    those of ``first``, by default the first of ``passes``."""
    first = first or (passes[0] if passes else None)
    gc.collect()
    res = wl.run_pass(tracer)
    res.add_reference()
    if first is not None and res.counts != first.counts:
        res.fail("pass counts differ from the first pass over the "
                 "same inputs")
    passes.append(res)


def measure(wl, tracer, seconds: float, between=None) -> list:
    """Run whole passes until ``seconds`` have elapsed (at least one),
    calling ``between()`` after each pass."""
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        if passes and between is not None:
            between()
        run_pass(wl, tracer, passes)
    return passes


def measure_traced(wl, tracer, seconds: float) -> tuple:
    """Alternate untraced and traced passes until ``seconds`` have elapsed
    (at least one of each), so that a slow stretch of the host falls on
    both alike. Returns (untraced passes, traced passes)."""
    from tracing import install_layers

    plain, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        run_pass(wl, tracer, plain)
        install_layers(tracer)
        tracer.active = True
        run_pass(wl, tracer, traced, first=plain[0])
        tracer.active = False
        tracer.uninstall()
    return plain, traced


def _fps(passes) -> float:
    """Median over the passes of frames per reference second of work.

    Not each operation's fastest repeat: on a shared host that catches
    moments when the reference loop ran slow and the operation did not,
    and that luck differs from run to run.
    """
    return statistics.median(p.frames / sum(p.reference_op_s())
                             for p in passes)


def _slowdown(passes) -> float:
    """The host's median slowdown over the operations of ``passes``."""
    return statistics.median(s for p in passes for s in p.slowdowns())


def _step_medians(wl, passes) -> list:
    """Each step's median latency over the passes, in reference seconds.

    A step is a stream step from the push that completes it to its
    release, a batch clip or a sweep trial. All passes run the same steps
    in the same order; a slow stretch of the host that hits one pass does
    not reach the percentiles.
    """
    per_pass = [p.reference_step_s() if wl.streaming else p.reference_op_s()
                for p in passes]
    return [statistics.median(col) for col in zip(*per_pass)]


def end_to_end(wl, passes, setup_s: float, frame_rate: float) -> dict:
    c = passes[0].counts
    steps = _step_medians(wl, passes)
    total_bits = (c["header_bits"] + c["coarse_bits"] + c["fec_bits"]
                  + c["fine_bits"])
    return {
        "setup_s": setup_s,
        "fps": _fps(passes),
        "step_ms_p50": statistics.median(steps) * 1e3,
        "step_ms_p95": statistics.quantiles(steps, n=20)[-1] * 1e3,
        "wire_kbps": total_bits / (c["frames"] / frame_rate) / 1e3,
        "fine_bits_per_token": c["fine_bits"] / c["n_fine_tokens"],
        "received_share": c["received"] / c["cells"],
    }


def _step_growth(step_s: list) -> float:
    """Median step time in the last quarter over that in the first."""
    q = max(1, len(step_s) // 4)
    return statistics.median(step_s[-q:]) / statistics.median(step_s[:q])


def _share(part: int, base: int) -> float:
    """A share of useful outcomes; 1 over an empty base, as nothing was
    missed."""
    return part / base if base else 1.0


def per_layer(tw, wl, plain, traced, setup_spans, setup_slowdown,
              spans) -> dict:
    """Layer metrics: times from the traced passes' spans, in reference
    seconds; bits and states from the untraced counts. Every metric is
    reported on every workload: a layer that does no work there has zero
    time, zero counts, and shares over an empty base of 1."""
    from tracing import LayerStat, summarize

    c = plain[0].counts
    frames = c["frames"]
    S = summarize(spans, _slowdown(traced))
    steps = _step_medians(wl, plain)
    total_bits = (c["header_bits"] + c["coarse_bits"] + c["fec_bits"]
                  + c["fine_bits"])
    setup = summarize(setup_spans, setup_slowdown)
    t_frames = sum(p.frames for p in traced)
    t_ops = sum(p.attempted for p in traced)

    def stat(name) -> LayerStat:
        return S.get(name, LayerStat())

    def per(name, scale):
        st = stat(name)
        return st.total_s / st.count * scale if st.count else 0.0

    def prefix(p, attr):
        return sum(getattr(st, attr) for n, st in S.items()
                   if n.startswith(p))

    m = {
        "context.pmf_us_per_symbol": per("context.pmf", 1e6),
        "context.predict_us_per_cell": per("context.predict", 1e6),
        "context.conditional_share": c["fine_conditional"] / c["fine_modelled"],
        "context.ideal_fine_bits_per_frame": c["ideal_fine_bits"] / frames,
        "context.train_s": setup["context.train"].total_s,
        "rangecoder.encode_us_per_symbol": per("rangecoder.encode", 1e6),
        "rangecoder.decode_us_per_symbol": per("rangecoder.decode", 1e6),
        "rangecoder.fine_bits_per_frame": c["fine_bits"] / frames,
        "rangecoder.excess_bits_per_slice":
            (c["fine_bits"] - c["ideal_fine_bits"]) / c["n_fine_packets"],
        "transport.header_bits_per_frame": c["header_bits"] / frames,
        "transport.coarse_bits_per_frame": c["coarse_bits"] / frames,
        "transport.fec_bits_per_frame": c["fec_bits"] / frames,
        "transport.raw_fine_bits_per_frame":
            c["n_fine_tokens"] * tw.transport.token_bits(wl.stack.count_model.vocab)
            / frames,
        "dependency.ms_per_step": prefix("dependency.", "self_s") / t_ops * 1e3,
        "dependency.calls_per_step": prefix("dependency.", "calls") / t_ops,
        "grid.slice_grid_ms_per_step": prefix("grid.", "self_s") / t_ops * 1e3,
        "rvq.quantize_us_per_frame": per("rvq.quantize", 1e6),
        "rvq.dequantize_us_per_frame": per("rvq.dequantize", 1e6),
        "rvq.train_s": setup["rvq.train"].total_s,
        "audio.analyze_us_per_frame": per("audio.analyze", 1e6),
        "audio.synthesize_us_per_frame": per("audio.synthesize", 1e6),
        "trace.overhead_share": 1.0 - _fps(traced) / _fps(plain),
        "transport.header_share": c["header_bits"] / total_bits,
        "context.conceal_accuracy": _share(c["conceal_correct"],
                                           c["concealed"]),
        "audio.loss_si_snr_db": c["loss_si_snr_db"],
        "pipeline.fec_saved_share": _share(c["fec_recovered"],
                                           c["coarse_lost"]),
        "pipeline.blackouts_per_kframe": c["blackouts"] / frames * 1e3,
        "streaming.step_growth": _step_growth(steps),
        "streaming.step_samples": len(steps),
        "streaming.fine_decoded_share": _share(c["fine_decoded"],
                                               c["fine_delivered"]),
        # per operation: a trial in sweep, which alone runs these layers
        "metrics.ms_per_trial": prefix("metrics.", "total_s") / t_ops * 1e3,
        "synthetic.ms_per_trial":
            stat("synthetic.synth_audio").total_s / t_ops * 1e3,
    }
    to_b, from_b = stat("transport.to_bytes"), stat("transport.from_bytes")
    m["transport.packet_us"] = ((to_b.total_s + from_b.total_s) / to_b.calls
                                * 1e6 if to_b.calls else 0.0)
    for side in ("send", "receive"):
        m[f"pipeline.{side}_ms_per_frame"] = (
            stat("pipeline." + side).self_s / t_frames * 1e3)
    push, flush = stat("streaming.sender.push"), stat("streaming.sender.flush")
    recv, finish = (stat("streaming.receiver.step"),
                    stat("streaming.receiver.finish"))
    t_steps = recv.calls or t_ops
    m["streaming.sender_ms_per_step"] = (
        (push.total_s + flush.total_s) / t_steps * 1e3)
    m["streaming.sender_self_ms_per_step"] = (
        (push.self_s + flush.self_s) / t_steps * 1e3)
    m["streaming.receiver_ms_per_step"] = recv.total_s / t_steps * 1e3
    m["streaming.receiver_self_ms_per_step"] = (
        (recv.self_s + finish.self_s) / t_steps * 1e3)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tw = _import_library()
    declared = _declared_metrics()
    from tracing import Tracer, install_layers, write_spans
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")

    tracer = Tracer()
    stack, setup_times = setup(tw, 3)

    def more_setup():
        # spread the trainings over the run, so one slow stretch of the
        # shared host does not decide setup_s
        if len(setup_times) < SETUP_REPEATS:
            setup_times.extend(setup(tw, 1)[1])

    wl = WORKLOADS[args.workload](stack, tw.ExperimentConfig(), args.seed)
    cfg = wl.cfg
    if args.trace:
        install_layers(tracer)
        tracer.active = True
        before = slowdown_now()
        with tracer.span("bench.setup"):
            tw.train_stack(tw.ExperimentConfig())
        setup_slowdown = (before + slowdown_now()) / 2
        tracer.active = False
        tracer.uninstall()
        setup_spans = tracer.take()
        plain, traced = measure_traced(wl, tracer, args.seconds)
        spans = tracer.take()
        passes = plain + traced
        metrics = per_layer(tw, wl, plain, traced, setup_spans,
                            setup_slowdown, spans)
        write_spans(ROOT / "perfbench" / "out"
                    / f"spans_{wl.name}_seed{args.seed}.json",
                    {"setup": setup_spans, "traced": spans})
    else:
        plain = passes = measure(wl, tracer, args.seconds, more_setup)
        while len(setup_times) < SETUP_REPEATS:
            more_setup()
        metrics = end_to_end(wl, plain, statistics.median(setup_times),
                             cfg.sample_rate / cfg.frame_len)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for problem in p.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
    expected = declared["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != set(expected):
        raise KeyError("metrics differ from BENCHMARK.json: missing "
                       f"{sorted(set(expected) - set(metrics))}, undeclared "
                       f"{sorted(set(metrics) - set(expected))}")
    out = {}
    for name, value in metrics.items():
        spec = expected[name]
        out[name] = {"value": value, "unit": spec["unit"]}
        print(f"{name:40s} {value:14.6g} {spec['unit']:10s} "
              f"({spec['better']} is better)")
    print(f"{'step latency samples':40s} "
          f"{len(_step_medians(wl, plain)):14d}")
    pass_fps = sorted(p.frames / sum(p.op_s) for p in plain)
    print(f"{'passes':40s} {len(plain):14d}")
    print(f"{'wall-clock fps of each pass':40s} "
          + " ".join(f"{v:.6g}" for v in pass_fps))
    print(f"{'host slowdown (median)':40s} {_slowdown(plain):14.6g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

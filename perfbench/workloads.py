"""The benchmark's four workloads.

Each workload turns the workload seed into a fixed input set and then runs
passes over it. A pass is a closed loop: the next clip, trial or stream
frame starts when the previous one has returned. Only the library calls
are timed; the correctness checks run between them and a failed check
counts against the operation without stopping the run. Every pass over
the same inputs must give the same counts, so the first pass supplies the
run's counts and later passes add timing samples.
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import tokenwire as tw
from clock import reference_loop, slowdown
from tokenwire import experiment

_R = int(tw.TokenState.RECEIVED)
_C = int(tw.TokenState.CONCEALED)
_STATES = [int(s) for s in tw.TokenState]

BATCH_CLIPS = 48          # clips per batch_clean pass
BATCH_CLIP_FRAMES = 100   # 2 s of audio per clip
SWEEP_TRIALS = 48         # trials per sweep point and pass
STREAM_FRAMES = 650       # 13 s, 215 timed steps, long enough for O(T^2)
STREAM_SEGMENT_FRAMES = 50  # the stream's tones change every second
REFERENCE_EVERY_S = 0.02  # timed work between two reference loops


@dataclass
class PassResult:
    """One pass: timed work, operations, failures and deterministic counts.

    After every REFERENCE_EVERY_S of timed work, between operations, the
    reference loop runs; ``reference_s`` holds (index of the operation it
    followed, seconds).
    """

    frames: int = 0
    op_s: list = field(default_factory=list)
    step_s: list = field(default_factory=list)
    step_op: list = field(default_factory=list)  # operation of each step
    reference_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    counts: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)
    _since_reference: float = 0.0

    def op_done(self, t0: float) -> None:
        """Record the time of an operation that started at ``t0``."""
        t = perf_counter() - t0
        self.op_s.append(t)
        self._since_reference += t
        if self._since_reference >= REFERENCE_EVERY_S:
            self.add_reference()

    def add_reference(self) -> None:
        self._since_reference = 0.0
        self.reference_s.append((len(self.op_s) - 1, reference_loop()))

    def slowdowns(self) -> list:
        """Per operation, the host's slowdown against nominal speed: the
        median of the three reference loops run nearest after it."""
        after = [i for i, _ in self.reference_s]
        slow = [slowdown(s) for _, s in self.reference_s]
        out, k = [], 0
        for i in range(len(self.op_s)):
            while k < len(after) - 1 and after[k] < i:
                k += 1
            out.append(statistics.median(slow[max(0, k - 1):k + 2]))
        return out

    def reference_op_s(self) -> list:
        """Operation times in reference seconds."""
        return [t / s for t, s in zip(self.op_s, self.slowdowns())]

    def reference_step_s(self) -> list:
        """Stream step latencies in reference seconds."""
        slow = self.slowdowns()
        return [t / slow[i] for t, i in zip(self.step_s, self.step_op)]

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)


def derive_seed(seed: int, *parts) -> int:
    """Stable 63-bit seed for one role of the workload seed."""
    h = hashlib.sha256(repr((seed,) + parts).encode())
    return int.from_bytes(h.digest()[:8], "little") >> 1


def cell_problems(sent: np.ndarray, got: np.ndarray, states: np.ndarray,
                  level: int, lossless: bool) -> list:
    """Check received token cells against the sent ones.

    The four states must partition the encoded cells, every RECEIVED cell
    must equal the sent token, and a lossless delivery must receive all.
    """
    enc = states[:, :level]
    out = []
    if not np.isin(enc, _STATES).all():
        out.append("encoded cell outside the four states")
    rec = enc == _R
    if not np.array_equal(got[:, :level][rec], sent[:, :level][rec]):
        out.append("RECEIVED cell differs from the sent token")
    if lossless and not rec.all():
        out.append("lossless delivery left cells not RECEIVED")
    return out


def fine_decoded(packets, states: np.ndarray, gos, level: int) -> int:
    """Delivered fine packets whose every cell ended RECEIVED."""
    n = 0
    for p in packets:
        if p.group == 0:
            continue
        cols = [k - 1 for k in gos.group_layers(p.group, level)]
        if not cols:
            continue
        block = states[p.first_frame:p.first_frame + p.n_frames, cols]
        n += bool(np.all(block == _R))
    return n


def add_sender(c: Counter, rep) -> None:
    """Accumulate a SenderReport's bit accounting."""
    c["header_bits"] += rep.header_bits
    c["coarse_bits"] += rep.coarse_bits
    c["fec_bits"] += rep.fec_bits
    c["fine_bits"] += rep.fine_bits
    c["ideal_fine_bits"] += rep.ideal_fine_bits
    c["n_fine_tokens"] += rep.n_fine_tokens
    c["n_fine_packets"] += rep.n_fine_packets
    c["fine_conditional"] += rep.fallback_counts.get("conditional", 0)
    c["fine_modelled"] += sum(rep.fallback_counts.values())


def carry(packets, channel, rng) -> tuple:
    """Serialize, drop by the channel, parse what arrives.

    Returns (parsed arrivals, wire bytes sent, the packets that arrived).
    """
    wire = [p.to_bytes() for p in packets]
    keep = channel.sample(len(wire), rng)
    arrived = [tw.Packet.from_bytes(b) for b, d in zip(wire, keep) if d]
    delivered = [p for p, d in zip(packets, keep) if d]
    return arrived, sum(len(b) for b in wire), delivered


class Workload:
    """Shared shape: fixed inputs from the seed, passes over them."""

    name = ""
    streaming = False
    lossy = False

    def __init__(self, stack, cfg: tw.ExperimentConfig, seed: int):
        self.stack = stack
        self.cfg = cfg
        self.seed = seed

    def clip(self, role: str, index: int, n_frames: int) -> tw.AudioSignal:
        cfg = self.cfg
        return tw.synth_audio(n_frames * cfg.frame_len,
                              derive_seed(self.seed, role, index),
                              cfg.sample_rate, n_tones=cfg.n_tones,
                              noise=cfg.noise)

    def run_pass(self, tracer) -> PassResult:
        raise NotImplementedError


class BatchClean(Workload):
    """Many moderate clips through send -> bytes -> channel -> receive."""

    name = "batch_clean"

    def __init__(self, stack, cfg, seed):
        super().__init__(stack, cfg, seed)
        self.level = cfg.n_layers
        self.channel = tw.BernoulliChannel(0.0)
        self.clips = []
        for i in range(BATCH_CLIPS):
            audio = self.clip("batch", i, BATCH_CLIP_FRAMES)
            feats = tw.analyze(audio, stack.codec_cfg)
            ref = tw.quantize(feats, stack.codec, self.level)
            ref_audio = tw.synthesize(tw.dequantize(ref, stack.codec),
                                      stack.codec_cfg, cfg.sample_rate)
            self.clips.append((feats, ref, ref_audio,
                               derive_seed(seed, "batch-channel", i)))

    def run_pass(self, tracer) -> PassResult:
        st, cfg, level = self.stack, self.cfg, self.level
        res = PassResult()
        c = res.counts
        refs, ests = [], []
        for feats, ref, ref_audio, ch_seed in self.clips:
            res.attempted += 1
            t0 = perf_counter()
            try:
                with tracer.span("bench.clip"):
                    packets, srep = tw.send(feats, st.codec, st.count_model,
                                            st.gos, level)
                    arrived, n_bytes, delivered = carry(
                        packets, self.channel, np.random.default_rng(ch_seed))
                    out, grid, rrep = tw.receive(
                        arrived, [True] * len(arrived), st.codec,
                        st.codec_cfg, st.count_model, st.gos, level,
                        len(feats), cfg.sample_rate, cfg.conceal_window,
                        cfg.conceal_fine_layers)
            except Exception as exc:  # a raising clip fails; the run goes on
                res.op_done(t0)
                res.fail(f"clip raised {exc!r}")
                continue
            res.op_done(t0)
            res.frames += len(feats)

            problems = []
            if not (np.array_equal(grid.level, ref.level) and np.array_equal(
                    grid.tokens[:, :level], ref.tokens[:, :level])):
                problems.append("lossless round trip is not bit-exact")
            if arrived != delivered or len(delivered) != len(packets):
                problems.append("packet lost or changed on the wire")
            if n_bytes * 8 != srep.total_bits:
                problems.append("wire bits disagree with the sender report")
            all_received = rrep.state_counts == {
                "received": len(feats) * level, "lost": 0, "invalid": 0,
                "concealed": 0}
            if not all_received:
                problems.append("lossless receive left cells not RECEIVED")
            if not np.array_equal(out.samples, ref_audio.samples):
                problems.append("decoded audio is not bit-exact")
            if problems:
                res.fail("; ".join(problems))

            add_sender(c, srep)
            c["frames"] += len(feats)
            c["cells"] += len(feats) * level
            c["received"] += rrep.state_counts["received"]
            c["fec_recovered"] += rrep.fec_recovered
            c["blackouts"] += rrep.n_blackouts
            fine = sum(1 for p in delivered if p.group > 0)
            c["fine_delivered"] += fine
            # receive() keeps the states to itself; with every cell
            # RECEIVED, every delivered fine packet was decoded
            c["fine_decoded"] += fine if all_received else 0
            refs.append(ref_audio.samples)
            ests.append(out.samples)
        c["loss_si_snr_db"] = tw.si_snr(np.concatenate(refs),
                                        np.concatenate(ests))
        return res


class Sweep(Workload):
    """The default Monte Carlo sweep plus the Markov burst point.

    ``run_trial`` itself is driven. Hooks on the ``send_tokens`` and
    ``receive_tokens`` names it calls hand the grids, packets, states and
    reports of each trial to the checks.
    """

    name = "sweep"
    lossy = True

    def __init__(self, stack, cfg, seed):
        super().__init__(stack, cfg, seed)
        self.trial_cfg = dataclasses.replace(
            cfg, base_seed=seed, channels=("bernoulli", "markov"),
            n_trials=SWEEP_TRIALS)
        self.ops = [(ch, max(p, 0.0), fec, model, trial)
                    for ch, p, fec, model
                    in experiment.sweep_points(self.trial_cfg)
                    for trial in range(SWEEP_TRIALS)]
        self.sends: list = []
        self.receives: list = []
        _capture(experiment, "send_tokens", self.sends)
        _capture(experiment, "receive_tokens", self.receives)

    def run_pass(self, tracer) -> PassResult:
        tcfg = self.trial_cfg
        res = PassResult()
        c = res.counts
        refs, ests = [], []
        for ch, loss, fec, model, trial in self.ops:
            self.sends.clear()
            self.receives.clear()
            res.attempted += 1
            t0 = perf_counter()
            try:
                with tracer.span("bench.trial"):
                    row = tw.run_trial(tcfg, self.stack, ch, loss, fec, model,
                                       trial)
            except Exception as exc:  # a raising trial fails; the run goes on
                res.op_done(t0)
                res.fail(f"trial raised {exc!r}")
                continue
            res.op_done(t0)
            res.frames += tcfg.clip_frames

            lossless = ch == "bernoulli" and loss == 0.0
            problems = []
            if not self.sends or len(self.sends) != len(self.receives):
                problems.append("send and receive calls do not pair up")
            concealed = 0
            for (sargs, _, (packets, srep)), (rargs, _, (rx, states, rrep)) \
                    in zip(self.sends, self.receives):
                grid, sg = sargs[0], sargs[1]
                survivors = rargs[0]
                problems += cell_problems(grid.tokens, rx.tokens, states,
                                          sg.level, lossless)
                if sum(p.wire_bytes for p in packets) * 8 != srep.total_bits:
                    problems.append("wire bits disagree with the sender report")
                if sum(rrep.state_counts.values()) != grid.n_frames * sg.level:
                    problems.append("state counts do not cover the cells")
                add_sender(c, srep)
                c["cells"] += grid.n_frames * sg.level
                c["received"] += rrep.state_counts["received"]
                concealed += rrep.state_counts["concealed"]
                c["fec_recovered"] += rrep.fec_recovered
                c["coarse_lost"] += (
                    sum(1 for sid in sg.slices if sid.group == 0)
                    - sum(1 for p in survivors if p.group == 0))
                c["blackouts"] += rrep.n_blackouts
                c["fine_delivered"] += sum(1 for p in survivors if p.group > 0)
                c["fine_decoded"] += fine_decoded(survivors, states,
                                                  self.stack.gos, sg.level)
            if (row.token_accuracy is None) != (concealed == 0):
                problems.append("token accuracy disagrees with the states")
            if problems:
                res.fail("; ".join(problems))

            c["frames"] += tcfg.clip_frames
            c["concealed"] += concealed
            if concealed:
                c["conceal_correct"] += round(row.token_accuracy * concealed)
            if not lossless:
                for (sargs, _, _), (_, _, out) in zip(self.sends,
                                                      self.receives):
                    refs.append(self.decode(sargs[0], sargs[0].level))
                    ests.append(self.decode(out[0], out[0].level))
        c["loss_si_snr_db"] = tw.si_snr(np.concatenate(refs),
                                        np.concatenate(ests))
        return res

    def decode(self, grid, depth) -> np.ndarray:
        st = self.stack
        return tw.synthesize(tw.dequantize(grid, st.codec, depth),
                             st.codec_cfg, self.cfg.sample_rate).samples


def _capture(owner, attr: str, sink: list) -> None:
    """Record (args, kwargs, result) of every call to ``owner.attr``."""
    fn = getattr(owner, attr)

    def hooked(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink.append((args, kwargs, out))
        return out

    setattr(owner, attr, hooked)


class Stream(Workload):
    """One long stream at the ``tokenwire stream`` defaults, frame by frame:
    push -> bytes -> channel -> bytes -> receiver step, then flush/finish."""

    streaming = True
    loss = 0.0

    def __init__(self, stack, cfg, seed):
        super().__init__(stack, cfg, seed)
        n_seg = STREAM_FRAMES // STREAM_SEGMENT_FRAMES
        self.audio = tw.AudioSignal(np.concatenate(
            [self.clip("stream", i, STREAM_SEGMENT_FRAMES).samples
             for i in range(n_seg)]), cfg.sample_rate)
        feats = tw.analyze(self.audio, stack.codec_cfg)
        self.grid = tw.quantize(feats, stack.codec, stack.codec.n_layers)
        self.ref_audio = tw.synthesize(tw.dequantize(self.grid, stack.codec),
                                       stack.codec_cfg, cfg.sample_rate)
        self.stream_cfg = tw.StreamConfig(coding_context=cfg.gos_len,
                                          conceal_context=cfg.conceal_window)
        self.channel = tw.BernoulliChannel(self.loss)
        self.channel_seed = derive_seed(seed, "stream-channel")

    def run_pass(self, tracer) -> PassResult:
        st, cfg, sc = self.stack, self.cfg, self.stream_cfg
        level = st.codec.n_layers
        tokens = self.grid.tokens
        res = PassResult()
        c = res.counts
        tx = tw.StreamSender(st.gos, sc, st.count_model)
        rx = tw.StreamReceiver(st.gos, sc, st.count_model,
                               conceal_fine_layers=cfg.conceal_fine_layers)
        rng = np.random.default_rng(self.channel_seed)
        releases, carried = [], []
        for t in range(len(tokens)):
            t0 = perf_counter()
            try:
                with tracer.span("bench.frame"):
                    for em in tx.push(tokens[t:t + 1]):
                        hop = carry(em.packets, self.channel, rng)
                        releases.append(rx.step(hop[0]))
                        res.step_s.append(perf_counter() - t0)
                        res.step_op.append(len(res.op_s))
                        carried.append((em.packets, hop))
            except Exception as exc:  # a raising step fails; the run goes on
                res.attempted += 1
                res.fail(f"frame {t} raised {exc!r}")
            res.op_done(t0)
        t0 = perf_counter()
        try:
            with tracer.span("bench.flush"):
                tail, total = tx.flush()
                hops = [carry(em.packets, self.channel, rng) for em in tail]
                releases += rx.finish([h[0] for h in hops], total)
                out_grid, states = rx.result()
                est = tw.synthesize(
                    tw.dequantize(out_grid, st.codec, out_grid.level),
                    st.codec_cfg, cfg.sample_rate)
        except Exception as exc:  # a raising flush fails; the run goes on
            res.op_done(t0)
            res.attempted += len(releases) + 1
            res.fail(f"flush raised {exc!r}")
            return res
        res.op_done(t0)
        res.frames = total
        carried += [(em.packets, h) for em, h in zip(tail, hops)]

        res.attempted += len(releases)
        lossless = not self.lossy
        nxt = 0
        for rel in releases:
            lo, hi = rel.due
            problems = [] if (lo == nxt and hi > lo) else [
                f"release {rel.due} does not follow frame {nxt}"]
            nxt = max(nxt, hi)
            problems += cell_problems(tokens[lo:hi], rel.tokens, rel.states,
                                      level, lossless)
            if problems:
                res.fail("; ".join(problems))
        whole = []
        if nxt != total:
            whole.append("not every frame was released")
        wire_bytes = sum(h[1] for _, h in carried)
        if wire_bytes * 8 != tx.report.total_bits:
            whole.append("wire bits disagree with the sender report")
        if any(arrived != delivered
               for _, (arrived, _, delivered) in carried):
            whole.append("packet changed on the wire")
        if tx.max_latency > sc.stride + sc.lookahead:
            whole.append("sender latency above stride + lookahead")
        if lossless and not np.array_equal(est.samples,
                                           self.ref_audio.samples):
            whole.append("decoded audio is not bit-exact")
        if whole:
            res.fail("; ".join(whole))

        add_sender(c, tx.report)
        enc = states[:, :level]
        concealed = int(np.count_nonzero(enc == _C))
        c["frames"] += total
        c["cells"] += enc.size
        c["received"] += int(np.count_nonzero(enc == _R))
        c["concealed"] += concealed
        if concealed:
            acc = tw.token_accuracy(self.grid, out_grid, states)
            c["conceal_correct"] += round(acc * concealed)
        c["fec_recovered"] += rx.fec_recovered
        c["blackouts"] += rx.n_blackouts
        for packets, (_, _, delivered) in carried:
            c["coarse_lost"] += (sum(1 for p in packets if p.group == 0)
                                 - sum(1 for p in delivered if p.group == 0))
            c["fine_delivered"] += sum(1 for p in delivered if p.group > 0)
            c["fine_decoded"] += fine_decoded(delivered, states, st.gos,
                                              level)
        c["loss_si_snr_db"] = tw.si_snr(self.ref_audio, est)
        return res


class StreamClean(Stream):
    name = "stream_clean"


class StreamLoss10(Stream):
    name = "stream_loss10"
    lossy = True
    loss = 0.1


WORKLOADS = {w.name: w for w in (BatchClean, Sweep, StreamClean,
                                 StreamLoss10)}

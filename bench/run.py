"""ertest benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload experiment-fresh --seed 1 --seconds 24 --trace 0

Run from the repository root; the library is imported from ``src/``.  Times
are process CPU time: the run is single-threaded and CPU-bound, and CPU time
leaves out the time the host lends this machine's cores to others.  With
``--trace 0`` the last output line is a JSON object whose metrics are the
end-to-end metrics; with ``--trace 1`` the run measures half its time
untraced and half traced, checks that both give the same output digest, and
the metrics are the per-layer metrics plus the tracing overhead.  Every line
before the last is a human-readable report.  See README.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".bench_spans")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")

SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 200
SETUP_BUDGET_S = 3.0

# name, unit, better; the order BENCHMARK.json lists them in
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("member_ops_per_s", "1/s", "higher"),
    ("far_ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for text in fh:
                if text.startswith("model name"):
                    return text.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(records, verdicts) -> str:
    return hashlib.sha256(repr((records, verdicts)).encode()).hexdigest()


class Gauge:
    """Times calls in CPU time, with a ``reference`` sample between every two
    calls.  A call's scaled time is its CPU time times ``NOMINAL_S`` over the
    median of the samples nearest it, ``NEAR`` on each side."""

    NEAR = 3

    def __init__(self):
        self.refs = [reference.sample()]
        self.calls = []  # (key, CPU seconds, index of the sample just before)

    def timed(self, key, fn, *args):
        start = time.process_time()
        result = fn(*args)
        self.calls.append((key, time.process_time() - start, len(self.refs) - 1))
        self.refs.append(reference.sample())
        return result

    def durations(self, scaled=True) -> dict:
        out = {}
        for key, seconds, pos in self.calls:
            if scaled:
                near = self.refs[max(0, pos + 1 - self.NEAR):pos + 1 + self.NEAR]
                seconds *= reference.NOMINAL_S / statistics.median(near)
            out.setdefault(key, []).append(seconds)
        return out

    def speed(self) -> float:
        """The scale factor over the whole stretch."""
        return reference.NOMINAL_S / statistics.median(self.refs)


class Phase:
    """One measured stretch: repeated set-up, then passes over every case."""

    def __init__(self):
        self.setup = Gauge()
        self.calls = Gauge()  # keyed by case index
        self.attempted = 0
        self.failed = 0
        self.failed_by_case = {}
        self.wrong_answers = 0
        self.digest = None
        self.passes = 0       # timed passes, and their wall clock and CPU time
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.rss_mb = 0.0


def run_pass(cases, pass_index, phase, gauge=None, tracer=None) -> list:
    records = []
    for idx, case in enumerate(cases):
        if tracer is not None:
            tracer.case, tracer.pass_index, tracer.trial = idx, pass_index, 0
        if gauge is None:
            record, failed, wrong = case.call(pass_index)
        else:
            record, failed, wrong = gauge.timed(idx, case.call, pass_index)
        records.append((case.name, record))
        phase.attempted += case.ops
        phase.failed += failed
        phase.failed_by_case[idx] = phase.failed_by_case.get(idx, 0) + failed
        phase.wrong_answers += bool(wrong)
    return records


def measure(workload, seed, seconds, tmpdir, tracer=None, on_pass=None):
    """Untraced when ``tracer`` is None: set up several times (median is
    ``setup_s``), then pass 0 checks and digests, then timed passes until the
    next pass would overrun ``seconds``.  Traced: set up once under the
    tracer, then every pass is traced and timed."""
    import tracing

    phase = Phase()
    cases = None
    deadline_setup = time.perf_counter() + SETUP_BUDGET_S
    reps = 1 if tracer is not None else SETUP_MAX_REPS
    for _ in range(reps):
        cases = None  # free the previous set-up, and collect it, before the next
        gc.collect()
        cases = phase.setup.timed("setup", workload.setup, seed, tmpdir)
        if len(phase.setup.calls) >= SETUP_MIN_REPS and time.perf_counter() > deadline_setup:
            break
    if on_pass is not None:
        on_pass(tracer.take(), cases, setup=True)

    deadline = time.perf_counter() + seconds
    pass_index = 0
    if tracer is None and workload.verdicts_inside:
        # run_experiment returns summaries only: record verdicts on an untimed
        # pass, which also warms up before timing starts
        recorder = tracing.Recorder()
        recorder.install()
        try:
            records = run_pass(cases, 0, phase)
        finally:
            recorder.remove()
        phase.digest = digest(records, recorder.verdicts)
        pass_index = 1
    while True:
        pass_start, cpu_start = time.perf_counter(), time.process_time()
        records = run_pass(cases, pass_index, phase, phase.calls, tracer)
        phase.passes += 1
        phase.wall_s += time.perf_counter() - pass_start
        phase.cpu_s += time.process_time() - cpu_start
        if phase.digest is None:
            verdicts = tracer.verdicts if tracer is not None and workload.verdicts_inside else []
            phase.digest = digest(records, verdicts)
        if on_pass is not None:
            on_pass(tracer.take(), cases, setup=False)
        pass_index += 1
        now = time.perf_counter()
        if now + (now - pass_start) > deadline:
            break
    phase.rss_mb = peak_rss_mb()
    return phase, cases


def end_to_end(phase, cases, scaled=True) -> tuple:
    """Metric values, and a note on how each was taken."""
    member, far, per_op = [], [], []
    calls = 0
    for idx, durs in phase.calls.durations(scaled).items():
        case = cases[idx]
        per_call = statistics.median(durs)
        (member if case.kind == "member" else far).append(case.ops / per_call)
        per_op.append(per_call / case.ops * 1e3)
        calls += len(durs)
    p50, p90 = _quantiles(per_op)
    setups = phase.setup.durations(scaled)["setup"]
    values = {
        "setup_s": statistics.median(setups),
        "member_ops_per_s": _geomean(member),
        "far_ops_per_s": _geomean(far),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": phase.rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "member_ops_per_s": f"geometric mean over {len(member)} member cases of "
                            f"ops / median call time; {calls} timed calls",
        "far_ops_per_s": f"geometric mean over {len(far)} far cases",
        "op_p50_ms": f"over the {len(per_op)} cases' median time per operation",
        "op_p90_ms": f"over the {len(per_op)} cases' median time per operation",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return values, notes


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def _quantiles(values) -> tuple:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[8]


def report_phase(label, phase, cases):
    durations = phase.calls.durations()
    print(f"{label}: {phase.passes} timed passes, wall {phase.wall_s:.3f} s, "
          f"cpu {phase.cpu_s:.3f} s, reference {1e3 * reference.NOMINAL_S / phase.calls.speed():.3f} ms "
          f"(nominal {1e3 * reference.NOMINAL_S:.3f} ms, scale {phase.calls.speed():.4f})")
    for idx, case in enumerate(cases):
        if idx in durations:
            print(f"case {case.name}: {len(durations[idx])} timed calls of {case.ops} op(s), "
                  f"median {statistics.median(durations[idx]) * 1e3:.3f} ms per call (scaled), "
                  f"{phase.failed_by_case.get(idx, 0)} failed checks in all passes")


def untraced_run(workload, args, tmpdir):
    phase, cases = measure(workload, args.seed, args.seconds, tmpdir)
    values, notes = end_to_end(phase, cases)
    raw, _ = end_to_end(phase, cases, scaled=False)
    report_phase("untraced", phase, cases)
    for name, unit, _ in END_TO_END:
        unscaled = f"; unscaled CPU time gives {raw[name]!r}" if unit != "MiB" else ""
        print(f"metric {name} = {values[name]!r} {unit} ({notes[name]}{unscaled})")
    return phase, {name: (values[name], unit) for name, unit, _ in END_TO_END}


def traced_run(workload, args, tmpdir):
    """Half the time untraced, half traced; same seed, same inputs."""
    import tracing
    from workloads import SCALING

    half = args.seconds / 2
    plain, plain_cases = measure(workload, args.seed, half, tmpdir)
    plain_values, _ = end_to_end(plain, plain_cases)

    state = {"all": {}, "first": {}, "kept": [], "trials_all": 0, "trials_first": 0}

    def on_pass(spans, cases, setup):
        tracing.fold(spans, state["all"])
        if setup:
            state["kept"] = spans
            return
        trials = sum(c.ops for c in cases)
        state["trials_all"] += trials
        if not state["trials_first"]:
            tracing.fold(spans, state["first"])
            state["trials_first"] = trials
            state["kept"] += spans

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, cases = measure(workload, args.seed, half, tmpdir, tracer, on_pass)
    finally:
        tracer.remove()
    traced_values, _ = end_to_end(traced, cases)
    report_phase("untraced", plain, plain_cases)
    report_phase("traced", traced, cases)

    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_path = os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}.jsonl")
    tracing.write_spans(state["kept"], cases, spans_path)
    print(f"spans: {len(state['kept'])} of set-up and the first traced pass in "
          f"{os.path.relpath(spans_path, ROOT)}")

    layer = tracing.layer_metrics(SCALING, cases, state["all"], state["first"],
                                  state["trials_all"], state["trials_first"],
                                  traced.calls.speed())
    for name, _, _ in END_TO_END:
        layer[f"trace_overhead.{name}"] = traced_values[name] - plain_values[name]
        print(f"traced {name} = {traced_values[name]!r}, untraced {plain_values[name]!r}")
    metrics = {}
    for name, unit, _ in per_layer_specs():
        metrics[name] = (layer[name], unit)
        print(f"layer {name} = {layer[name]!r} {unit}")
    same = plain.digest == traced.digest
    print(f"digest untraced {plain.digest} traced {traced.digest} "
          f"{'equal' if same else 'DIFFERENT'}")
    combined = Phase()
    for phase in (plain, traced):
        combined.attempted += phase.attempted
        combined.failed += phase.failed
        combined.wrong_answers += phase.wrong_answers
    combined.wrong_answers += not same
    return combined, metrics


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="input seed; any seed not listed in README.md is held out")
    p.add_argument("--seconds", type=float, required=True,
                   help="measured time per run (traced runs split it in two)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be positive and --seed nonnegative")
    return args


def use_src():
    """Import the library from this checkout's ``src/``; returns an error
    message instead when that is impossible."""
    if not os.path.isfile(os.path.join(SRC, "ertest", "__init__.py")):
        return f"no ertest package under {SRC}; run from a full checkout"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ertest

    if not os.path.abspath(ertest.__file__).startswith(SRC + os.sep):
        return f"imported ertest from {ertest.__file__}, not from {SRC}"
    return None


def per_layer_specs() -> list:
    import tracing
    from workloads import SCALING

    return tracing.layer_specs(SCALING) + [
        (f"trace_overhead.{name}", unit, better) for name, unit, better in END_TO_END]


def main(argv=None) -> int:
    error = use_src()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    os.environ.pop("ERTEST_WORKERS", None)  # run_experiment must not start a pool
    from workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    print(f"env python={platform.python_version()} nproc={os.cpu_count()} "
          f"cpu={cpu_model()!r} seed={args.seed} workload={args.workload} "
          f"trace={args.trace} seconds={args.seconds} op={workload.op!r}")
    os.makedirs(TMP_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=TMP_DIR)
    try:
        run = traced_run if args.trace else untraced_run
        phase, metrics = run(workload, args, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    failed_frac = phase.failed / phase.attempted
    print(f"metric failed_frac = {failed_frac!r} ({phase.failed} of {phase.attempted} "
          f"operations failed a check; {phase.wrong_answers} calls gave wrong answers)")
    if not args.trace:
        print(f"digest {phase.digest}")
    print(json.dumps({
        "correct": phase.wrong_answers == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

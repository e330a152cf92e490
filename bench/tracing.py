"""Spans for the traced run, recorded from outside the library.

Each wrapper replaces a public function at the name where its caller looks it
up (``harness.test_monotone_line``, ``hypergrid.sample_nonerased_uniform``,
...), or a method on its class (``InstanceSpec.realize``,
``ErasedFunction.__init__``).  Classes themselves are never replaced, because
``harness`` checks instances with ``isinstance``.  A span is
``(name, start_ns, end_ns, parent, case, pass, trial, info)``; spans stay in
memory for one pass and are then folded into per-name totals.  Times are
process CPU time, like the end-to-end metrics.  Self time is a span's
duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import json
import math
from time import process_time_ns

from ertest import adversary, cli, core, fileio, harness, hypergrid, line, oracles

TESTER_FUNCS = ("test_monotone_line", "test_bdp_line", "test_convex_line",
                "test_monotone_hypergrid", "test_bdp_hypergrid", "test_k_runs",
                "erasure_resilient_pot_run", "erasure_resilient_extendable")
CHECK_FUNCS = ("check_line_certificate", "check_grid_certificate",
               "check_k_runs_certificate", "check_pot_certificate",
               "check_extendable_certificate")

# (owner, attribute, span name, info kind)
POINTS = (
    *((harness, f, "tester", "tester") for f in TESTER_FUNCS),
    *((harness, f, f"check.{f}", None) for f in CHECK_FUNCS),
    (harness, "make_rng", "rng.make_rng", "rng"),
    (cli, "make_rng", "rng.make_rng", "rng"),
    (harness, "validate_config", "harness.validate_config", None),
    (cli, "validate_config", "harness.validate_config", None),
    (harness, "run_experiment", "harness.run_experiment", None),
    (cli, "main", "cli.main", None),
    (adversary, "certify_distance", "adversary.certify_distance", None),
    (adversary, "is_restorable", "adversary.is_restorable", None),
    (adversary, "erase_random", "adversary.erase_random", None),
    (adversary.InstanceSpec, "realize", "adversary.realize", None),
    (oracles, "verify_report", "oracles.verify_report", "verify"),
    (line, "bdp_to_monotone_transforms", "line.bdp_to_monotone_transforms", None),
    (hypergrid, "bdp_to_monotone_transforms", "line.bdp_to_monotone_transforms", None),
    (line, "sample_nonerased_uniform", "core.sample_nonerased_uniform", "sampler"),
    (hypergrid, "sample_nonerased_uniform", "core.sample_nonerased_uniform", "sampler"),
    (line, "randomized_binary_search_step_loop", "line.search", None),
    (hypergrid, "randomized_binary_search_step_loop", "line.search", None),
    (cli, "load_function", "fileio.load_function", None),
    (cli, "load_bounds", "fileio.load_bounds", None),
    (fileio, "save_function", "fileio.save_function", None),
    (core.ErasedFunction, "__init__", "core.ErasedFunction.__init__", None),
)


def verdict_key(verdict) -> tuple:
    return (verdict.outcome, verdict.queries_used, repr(verdict.certificate))


def _query_count(oracle) -> int:
    # hypergrid searches pass an axis-line view that forwards to .oracle
    return getattr(oracle, "oracle", oracle).count


class _Patcher:
    def __init__(self):
        self._saved = []

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Recorder(_Patcher):
    """Keeps every tester verdict and nothing else: the untraced run's view
    of the outputs that ``run_experiment`` does not return."""

    def __init__(self):
        super().__init__()
        self.verdicts = []

    def install(self):
        for attr in TESTER_FUNCS:
            original = getattr(harness, attr)

            def wrapper(*args, _original=original, **kwargs):
                verdict = _original(*args, **kwargs)
                self.verdicts.append(verdict_key(verdict))
                return verdict

            self._patch(harness, attr, functools.wraps(original)(wrapper))


class Tracer(_Patcher):
    def __init__(self):
        super().__init__()
        self.spans = []
        self.stack = []
        self.verdicts = []
        self.case = None   # index of the running case; None during set-up
        self.pass_index = -1
        self.trial = 0

    def install(self):
        for owner, attr, name, kind in POINTS:
            self._patch(owner, attr, self._wrapper(getattr(owner, attr), name, kind))

    def _wrapper(self, original, name, kind):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if kind == "rng" and len(args) >= 3 and args[1] in ("inst", "trial"):
                tracer.trial = args[2]
            before = _query_count(args[0]) if kind == "sampler" else 0
            result = None
            start = process_time_ns()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = process_time_ns()
                stack.pop()
                info = None
                if kind == "tester" and result is not None:
                    oracle = next(a for a in args if isinstance(a, core.QueryOracle))
                    info = (result.queries_used, oracle.budget)
                    tracer.verdicts.append(verdict_key(result))
                elif kind == "sampler":
                    draws = _query_count(args[0]) - before
                    info = (draws, draws - (result is not None))
                elif kind == "verify":
                    info = (int(result is not True), 0)
                spans[idx] = (name, start, end, parent, tracer.case,
                              tracer.pass_index, tracer.trial, info)

        return wrapper

    def take(self) -> list:
        """Hand over the spans so far and forget them and the verdicts."""
        spans, self.spans, self.verdicts = self.spans, [], []
        return spans


def fold(spans, totals: dict) -> None:
    """Add one pass of spans into ``totals[(name, case)] = [count, ns, self_ns,
    info0, info1]``; relations between spans get their own pseudo-names."""
    covered = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for i, (name, start, end, parent, case, _p, _t, info) in enumerate(spans):
        row = totals.setdefault((name, case), [0, 0, 0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered[i]
        if info:
            row[3] += info[0]
            row[4] += info[1]
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "core.sample_nonerased_uniform" and parent_name == "line.search":
            totals.setdefault(("pivot", case), [0, 0, 0, 0, 0])[0] += 1
        if name == "adversary.certify_distance" and parent_name == "adversary.realize":
            totals.setdefault(("realize-certify", case), [0, 0, 0, 0, 0])[0] += 1


def write_spans(spans, cases, path: str) -> None:
    with open(path, "w") as fh:
        for name, start, end, parent, case, p, trial, info in spans:
            label = "setup" if case is None else f"{cases[case].name}/{p}/{trial}"
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "trial": label, "info": info}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

TESTER_MODULE = {
    "monotone-line": "line", "bdp-line": "line", "convex-line": "line",
    "monotone-grid": "hypergrid", "bdp-grid": "hypergrid",
    "k-runs": "transforms", "low-degree": "transforms", "poset-monotone": "transforms",
}
FRESH_TESTERS = ("monotone-line", "bdp-line", "convex-line", "k-runs",
                 "monotone-grid", "bdp-grid", "low-degree")


def layer_specs(scaling) -> list:
    """Every per-layer metric as (name, unit, better), in report order.
    ``scaling`` is the oracle-scaling table of (property, sizes)."""
    specs = [(f"core.query_us.{t}", "us", "lower") for t in TESTER_MODULE]
    specs += [
        ("core.erased_draw_frac", "ratio", "lower"),
        ("core.queries_per_trial", "count", "lower"),
        ("core.budget_used_frac", "ratio", "lower"),
        ("core.erased_function_init_ms", "ms", "lower"),
        ("rng.make_rng_us", "us", "lower"),
        ("rng.make_rng_calls_per_trial", "count", "lower"),
    ]
    specs += [(f"{m}.tester_ms.{t}.{k}", "ms", "lower")
              for t, m in TESTER_MODULE.items() for k in ("member", "far")]
    specs += [
        ("line.bdp_transforms_ms", "ms", "lower"),
        ("line.bdp_transforms_calls_per_trial", "count", "lower"),
        ("line.search_calls_per_trial", "count", "lower"),
        ("line.pivots_per_search", "count", "lower"),
        ("line.check_line_certificate_us", "us", "lower"),
        ("hypergrid.check_grid_certificate_us", "us", "lower"),
        ("transforms.check_certificate_us", "us", "lower"),
    ]
    for prop, sizes in scaling:
        for phase in ("certify", "verify"):
            specs += [(f"oracles.{prop}.{phase}_ms.n{s}", "ms", "lower") for s in sizes]
        specs += [(f"oracles.{prop}.member_ms", "ms", "lower"),
                  (f"oracles.{prop}.exponent", "slope", "lower")]
    specs.append(("oracles.verify_fail_frac", "ratio", "lower"))
    specs += [(f"adversary.realize_ms.{t}.{k}", "ms", "lower")
              for t in FRESH_TESTERS for k in ("member", "far")]
    specs += [
        ("adversary.realize_per_trial", "count", "lower"),
        ("adversary.far_attempts_per_instance", "count", "lower"),
        ("adversary.erase_ms", "ms", "lower"),
        ("harness.self_ms_per_trial", "ms", "lower"),
        ("harness.validate_config_ms", "ms", "lower"),
        ("fileio.load_function_ms", "ms", "lower"),
        ("fileio.load_bounds_ms", "ms", "lower"),
        ("fileio.save_function_ms", "ms", "lower"),
        ("cli.self_ms", "ms", "lower"),
    ]
    return specs


def _ratio(a, b) -> float:
    return a / b if b else 0.0


class _Totals:
    """Sums over ``totals`` rows, filtered by name and by case; times come
    out scaled by ``speed`` (see ``run.Gauge``)."""

    def __init__(self, totals, cases, speed):
        self.totals = totals
        self.cases = cases
        self.speed = speed

    def row(self, name, pick=lambda case: True) -> list:
        out = [0, 0, 0, 0, 0]
        for (n, c), row in self.totals.items():
            if n == name and pick(None if c is None else self.cases[c]):
                out = [x + y for x, y in zip(out, row)]
        return out

    def ms(self, ns) -> float:
        return ns * self.speed * 1e-6

    def mean_ms(self, name, pick=lambda case: True, col=1) -> float:
        row = self.row(name, pick)
        return self.ms(_ratio(row[col], row[0]))


def layer_metrics(scaling, cases, all_totals, first_totals, trials_all, trials_first,
                  speed) -> dict:
    """Per-layer values.  Times come from every traced pass (and the traced
    set-up); counts from the first traced pass alone, so they repeat exactly
    for a seed."""
    every = _Totals(all_totals, cases, speed)
    first = _Totals(first_totals, cases, speed)
    tester = lambda t, k=None: lambda c: c is not None and c.tester == t and k in (None, c.kind)
    out = {}
    for t in TESTER_MODULE:
        row = every.row("tester", tester(t))
        out[f"core.query_us.{t}"] = 1e3 * every.ms(_ratio(row[1], row[3]))
    sampler = first.row("core.sample_nonerased_uniform")
    out["core.erased_draw_frac"] = _ratio(sampler[4], sampler[3])
    testers = first.row("tester")
    out["core.queries_per_trial"] = _ratio(testers[3], trials_first)
    out["core.budget_used_frac"] = _ratio(testers[3], testers[4])
    out["core.erased_function_init_ms"] = every.mean_ms("core.ErasedFunction.__init__")
    out["rng.make_rng_us"] = 1e3 * every.mean_ms("rng.make_rng")
    out["rng.make_rng_calls_per_trial"] = _ratio(first.row("rng.make_rng")[0], trials_first)
    for t, m in TESTER_MODULE.items():
        for k in ("member", "far"):
            out[f"{m}.tester_ms.{t}.{k}"] = every.mean_ms("tester", tester(t, k))
    out["line.bdp_transforms_ms"] = every.mean_ms("line.bdp_to_monotone_transforms")
    out["line.bdp_transforms_calls_per_trial"] = _ratio(
        first.row("line.bdp_to_monotone_transforms")[0], trials_first)
    searches = first.row("line.search")[0]
    out["line.search_calls_per_trial"] = _ratio(searches, trials_first)
    out["line.pivots_per_search"] = _ratio(first.row("pivot")[0], searches)
    out["line.check_line_certificate_us"] = 1e3 * every.mean_ms("check.check_line_certificate")
    out["hypergrid.check_grid_certificate_us"] = 1e3 * every.mean_ms(
        "check.check_grid_certificate")
    other = [every.row(f"check.{f}") for f in CHECK_FUNCS[2:]]
    out["transforms.check_certificate_us"] = 1e3 * every.ms(
        _ratio(sum(r[1] for r in other), sum(r[0] for r in other)))
    for prop, sizes in scaling:
        at = lambda s, k: lambda c: c is not None and c.tester == prop and c.kind == k and c.size == s
        points = []
        for s in sizes:
            certify = every.mean_ms("adversary.certify_distance", at(s, "far"))
            out[f"oracles.{prop}.certify_ms.n{s}"] = certify
            out[f"oracles.{prop}.verify_ms.n{s}"] = every.mean_ms("oracles.verify_report",
                                                                  at(s, "far"))
            size = next((c.points for c in cases if c.tester == prop and c.size == s), 0)
            points.append((size, certify))
        out[f"oracles.{prop}.member_ms"] = (
            every.mean_ms("adversary.certify_distance", at(sizes[-1], "member"))
            + every.mean_ms("oracles.verify_report", at(sizes[-1], "member")))
        out[f"oracles.{prop}.exponent"] = _loglog_slope(points)
    verify = first.row("oracles.verify_report")
    out["oracles.verify_fail_frac"] = _ratio(verify[3], verify[0])
    for t in FRESH_TESTERS:
        for k in ("member", "far"):
            out[f"adversary.realize_ms.{t}.{k}"] = every.mean_ms("adversary.realize",
                                                                 tester(t, k))
    out["adversary.realize_per_trial"] = _ratio(first.row("adversary.realize")[0], trials_first)
    far = lambda c: c is not None and c.kind == "far"
    out["adversary.far_attempts_per_instance"] = _ratio(
        first.row("realize-certify", far)[0], first.row("adversary.realize", far)[0])
    out["adversary.erase_ms"] = every.mean_ms("adversary.erase_random")
    out["harness.self_ms_per_trial"] = every.ms(
        _ratio(every.row("harness.run_experiment")[2], trials_all))
    out["harness.validate_config_ms"] = every.mean_ms("harness.validate_config", col=2)
    out["fileio.load_function_ms"] = every.mean_ms("fileio.load_function")
    out["fileio.load_bounds_ms"] = every.mean_ms("fileio.load_bounds")
    out["fileio.save_function_ms"] = every.mean_ms("fileio.save_function")
    out["cli.self_ms"] = every.mean_ms("cli.main", col=2)
    return out


def _loglog_slope(points) -> float:
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx

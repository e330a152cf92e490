"""The four benchmark workloads.

Each workload's ``setup(seed, tmpdir)`` builds its inputs from the seed alone
and returns a list of ``Case``.  A case is one public entry-point call that
the runner repeats once per pass; ``call(pass_index)`` returns
``(record, failed, wrong)``:

- ``record`` is what the call returned, in a form whose ``repr`` is stable;
  the output digest hashes it;
- ``failed`` is how many of the call's ``Case.ops`` operations (trials,
  certify+verify pairs or CLI calls) failed a check;
- ``wrong`` is True when a failure is a wrong answer, not a report the
  library's own verifier could not confirm (see README.md).

The library is reached only through module attributes (``harness.run_experiment``,
``adversary.certify_distance``, ...) so the traced run's wrappers see every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from ertest import (adversary, cli, core, fileio, harness, hypergrid, line, oracles,
                    transforms)

F = Fraction
TRIALS = 10  # trials per run_experiment call; each pass repeats the same calls


def seed_for(seed: int, *labels) -> int:
    """Child seed from the run seed and labels; independent of the library's
    own seed derivation, so a library change cannot change the inputs."""
    text = "/".join([str(seed), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def rng_for(seed: int, *labels) -> random.Random:
    return random.Random(seed_for(seed, *labels))


@dataclass
class Case:
    name: str        # "<tester or property>.<member|far>[.n<size>]"
    tester: str      # harness registry key, or the property tag on oracle-scaling
    kind: str        # "member" or "far"
    call: Callable   # pass index -> (record, failed, wrong)
    ops: int = 1     # operations per call
    size: int = 0    # instance size for oracle-scaling, else 0
    points: int = 0  # domain points, for the oracle scaling exponent


def _report_error(case_name: str) -> str:
    text = traceback.format_exc()
    print(f"error in {case_name}:\n{text}", end="", flush=True)
    return text.strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# experiment-fresh and experiment-fixed: harness.run_experiment


def _experiment_case(name, tester, kind, cfg) -> Case:
    def call(_pass):
        try:
            s = harness.run_experiment(cfg)
        except Exception:  # noqa: BLE001 - a failed call is counted, never fatal
            return ("error", _report_error(name)), cfg.trials, True
        record = (s.rejections, s.mean_q, s.max_q, s.stddev_q, s.budget_Q)
        failed = s.rejections if kind == "member" else 0
        return record, failed, failed > 0
    return Case(name, tester, kind, call, ops=cfg.trials)


LINE64 = core.Domain.line(64)
GRID8 = core.Domain.grid(8, 2)
GF17 = core.Domain.line(17)


def setup_experiment_fresh(seed: int, tmpdir: str) -> list:
    """The acceptance bed's InstanceSpecs: every trial realizes and certifies
    a fresh instance, so generation and exact oracles at m <= 64 dominate."""
    bdp64 = line.LineBoundingPair.lipschitz(64)
    fam8 = hypergrid.BoundingFamily.lipschitz(8, 2)
    # tester, domain, property, extra config, (member eps, alpha), (far target = eps, alpha)
    bed = [
        ("monotone-line", LINE64, oracles.PropertySpec("monotone-line"), {},
         (F(1, 4), F(1, 8)), (F(1, 4), F(1, 8))),
        ("bdp-line", LINE64, oracles.PropertySpec("bdp-line", bounds=bdp64),
         {"bounds": bdp64}, (F(1, 4), F(1, 8)), (F(1, 4), F(1, 8))),
        ("convex-line", LINE64, oracles.PropertySpec("convex-line"), {},
         (F(1, 4), F(1, 8)), (F(1, 4), F(1, 8))),
        ("k-runs", LINE64, oracles.PropertySpec("k-runs", k=2), {"k": 2},
         (F(1, 4), F(1, 8)), (F(1, 5), F(1, 8))),
        ("monotone-grid", GRID8, oracles.PropertySpec("monotone-grid"), {},
         (F(1, 2), 0), (F(1, 4), 0)),
        ("bdp-grid", GRID8, oracles.PropertySpec("bdp-grid", bounds=fam8),
         {"bounds": fam8}, (F(1, 2), 0), (F(1, 4), 0)),
        ("low-degree", GF17, oracles.PropertySpec("low-degree", degree=1),
         {"degree": 1}, (None, F(2, 17)), (F(1, 2), 0)),
    ]
    cases = []
    for tester, domain, prop, extra, (m_eps, m_alpha), (f_eps, f_alpha) in bed:
        for kind, eps, alpha in (("member", m_eps, m_alpha), ("far", f_eps, f_alpha)):
            spec = adversary.InstanceSpec(
                domain=domain, prop=prop, member=kind == "member",
                target_eps=None if kind == "member" else f_eps, alpha=alpha)
            cfg = harness.ExperimentConfig(
                tester=tester, instance=spec, trials=TRIALS,
                seed=seed_for(seed, "fresh", tester, kind),
                eps=None if tester == "low-degree" else eps, **extra)
            cases.append(_experiment_case(f"{tester}.{kind}", tester, kind, cfg))
    return cases


def _erased(values, domain, alpha, rng, kind="real"):
    total = core.ErasedFunction(domain, values, kind=kind)
    return adversary.erase_random(total, alpha, rng)


def _star_forest():
    edges = []
    for s in range(16):
        center = 4 * s + 1
        edges += [(center, center + j) for j in (1, 2, 3)]
    return transforms.Poset(64, edges)


def setup_experiment_fixed(seed: int, tmpdir: str) -> list:
    """Large fixed ErasedFunctions built once: after set-up only the query
    path works.  Closed-form member and far functions, erased at random."""
    rng = rng_for(seed, "fixed")
    n = 1 << 16
    dom = core.Domain.line(n)
    a = F(1, 8)
    c = rng.randint(n // 4, 3 * n // 4)
    off = rng.randint(0, 10 ** 6)
    step = rng.randint(1, 5)
    width = rng.randint(4, 16)
    grid = core.Domain.grid(16, 3)
    pts = [grid.point_at(i) for i in range(grid.size)]
    signs = [rng.choice((-1, 1)) for _ in range(3)]
    a_mono, a_bdp = F(1, 3000), F(1, 11640)  # eps/250d and eps/970d at eps=1/4, d=3
    bdp_line = line.LineBoundingPair.lipschitz(n)
    fam = hypergrid.BoundingFamily.lipschitz(16, 3)
    star = _star_forest()
    star_member = [0 if i % 4 == 0 else 1 for i in range(64)]
    star_far = [1 if i % 4 == 0 else 0 for i in range(64)]
    # tester, extra config, member function, far function
    table = [
        ("monotone-line", {},
         _erased([off + step * i for i in range(n)], dom, a, rng),
         _erased([off - step * i for i in range(n)], dom, a, rng)),
        ("bdp-line", {"bounds": bdp_line},
         _erased([abs(i - c) for i in range(n)], dom, a, rng),
         _erased([2 * i for i in range(n)], dom, a, rng)),
        ("convex-line", {},
         _erased([(i - c) ** 2 for i in range(n)], dom, a, rng),
         _erased([-(i - c) ** 2 for i in range(n)], dom, a, rng)),
        ("k-runs", {"k": 2},
         _erased([int(i >= c) for i in range(n)], dom, a, rng, "bit"),
         _erased([(i // width) % 2 for i in range(n)], dom, a, rng, "bit")),
        ("monotone-grid", {},
         _erased([off + step * sum(p) for p in pts], grid, a_mono, rng),
         _erased([off - step * sum(p) for p in pts], grid, a_mono, rng)),
        ("bdp-grid", {"bounds": fam},
         _erased([sum(s * x for s, x in zip(signs, p)) for p in pts], grid, a_bdp, rng),
         _erased([2 * sum(p) for p in pts], grid, a_bdp, rng)),
        ("poset-monotone", {"poset": star},
         _erased(star_member, LINE64, a, rng, "bit"),
         core.ErasedFunction(LINE64, star_far, kind="bit")),
    ]
    cases = []
    for tester, extra, member_fn, far_fn in table:
        for kind, fn in (("member", member_fn), ("far", far_fn)):
            cfg = harness.ExperimentConfig(
                tester=tester, instance=fn, trials=TRIALS,
                seed=seed_for(seed, "fixed", tester, kind), eps=F(1, 4), **extra)
            cases.append(_experiment_case(f"{tester}.{kind}", tester, kind, cfg))
    return cases


# ---------------------------------------------------------------------------
# oracle-scaling: adversary.certify_distance, then oracles.verify_report
#
# Values follow the library's own member and far templates (floats, like
# generate_*_instance), so verify_report's float behaviour is exercised as
# the generator would exercise it.  They are written out here rather than
# called, so that a library change cannot change the inputs.  No
# certification happens in set-up.


def _walk(n, lo, hi, rng):
    vals = [rng.uniform(-8.0, 8.0)]
    for _ in range(1, n):
        vals.append(vals[-1] + lo + (hi - lo) * (0.25 + 0.5 * rng.random()))
    return vals


def _runs(n, k, rng):
    runs = rng.randint(1, k)
    cuts = sorted(rng.sample(range(1, n), runs - 1)) + [n]
    bit, pos, vals = rng.randint(0, 1), 0, []
    for stop in cuts:
        vals += [bit] * (stop - pos)
        pos, bit = stop, bit ^ 1
    return vals


def _poly(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _line_values(tag, n, member, rng):
    if tag == "monotone-line":
        if member:
            cur, vals = rng.uniform(-4, 4), []
            for _ in range(n):
                cur += rng.random()
                vals.append(cur)
            return vals
        cur, vals = n + rng.random(), []
        for _ in range(n):
            vals.append(cur)
            cur -= 1 + rng.random()
        return vals
    if tag == "bdp-line":
        if member:
            return _walk(n, -1.0, 1.0, rng)
        amp = 2 * (n + 1) + 1 + rng.random()
        return [amp * (t % 2) for t in range(n)]
    if tag == "convex-line":
        if member:
            vals, slope = [rng.uniform(-4, 4)], rng.uniform(-2, 0)
            for _ in range(n - 1):
                vals.append(vals[-1] + slope)
                slope += rng.random()
            return vals
        mid, tilt = (n + 1) / 2, rng.random()
        return [-(t - mid) ** 2 + tilt * t for t in range(1, n + 1)]
    if tag == "k-runs":
        if member:
            return _runs(n, 4, rng)
        start = rng.randint(0, 1)
        return [(t + start) % 2 for t in range(n)]
    raise ValueError(tag)


def _grid_values(tag, domain, member, rng):
    n, d = domain.n, domain.d
    pts = [domain.point_at(i) for i in range(domain.size)]
    if member:
        lo, hi = (0.0, 16.0) if tag == "monotone-grid" else (-1.0, 1.0)
        tables = [_walk(n, lo, hi, rng) for _ in range(d)]
        return [sum(tables[r][p[r] - 1] for r in range(d)) for p in pts]
    if tag == "monotone-grid":
        jit = rng.random()
        return [-float(sum(p)) - jit for p in pts]
    amp = 2 * (n * d + 1) + 1 + rng.random()
    return [amp * (sum(p) % 2) for p in pts]


def _low_degree_values(p, degree, member, rng):
    coeffs = [rng.randint(0, p - 1) for _ in range(degree + 1)]
    if not member:
        coeffs.append(1)  # x^(degree+1) plus a random low-degree part
    return [_poly(coeffs, x, p) for x in range(p)]


SCALING = [
    # property, sizes (side length n, or the prime p)
    ("convex-line", (48, 96, 192)),
    ("bdp-line", (256, 512, 1024)),
    ("monotone-line", (256, 512, 1024)),
    ("monotone-grid", (8, 16, 24)),
    ("bdp-grid", (8, 12, 16)),
    ("k-runs", (1024, 4096, 16384)),
    ("low-degree", (17, 23, 31)),
]
SCALING_ALPHA = F(1, 8)


def _scaling_instance(tag, size, member, rng):
    if tag in ("monotone-grid", "bdp-grid"):
        domain = core.Domain.grid(size, 2)
        fn = core.ErasedFunction(domain, _grid_values(tag, domain, member, rng))
        bounds = hypergrid.BoundingFamily.lipschitz(size, 2) if tag == "bdp-grid" else None
        prop = oracles.PropertySpec(tag, bounds=bounds)
    elif tag == "low-degree":
        domain = core.Domain.line(size)
        fn = core.ErasedFunction(domain, _low_degree_values(size, 2, member, rng),
                                 kind="field", modulus=size)
        prop = oracles.PropertySpec(tag, degree=2)
    else:
        domain = core.Domain.line(size)
        kind = "bit" if tag == "k-runs" else "real"
        fn = core.ErasedFunction(domain, _line_values(tag, size, member, rng), kind=kind)
        bounds = line.LineBoundingPair.lipschitz(size) if tag == "bdp-line" else None
        prop = oracles.PropertySpec(tag, bounds=bounds, k=4 if tag == "k-runs" else None)
    return adversary.erase_random(fn, SCALING_ALPHA, rng), prop


def _oracle_case(tag, size, member, fn, prop) -> Case:
    kind = "member" if member else "far"
    name = f"{tag}.{kind}.n{size}"

    def call(_pass):
        try:
            report = adversary.certify_distance(fn, prop)
            verified = oracles.verify_report(fn, prop, report)
        except Exception:  # noqa: BLE001 - a failed call is counted, never fatal
            return ("error", _report_error(name)), 1, True
        cert = hashlib.sha256(repr(report.certificate).encode()).hexdigest()
        record = (report.absolute, report.relative, report.is_lower_bound, cert, verified)
        wrong = member and report.absolute != 0
        return record, int(wrong or not verified), wrong

    return Case(name, tag, kind, call, size=size, points=fn.domain.size)


def setup_oracle_scaling(seed: int, tmpdir: str) -> list:
    """Far instances at three sizes and one member at the largest size per
    property; the timed call certifies and verifies."""
    cases = []
    for tag, sizes in SCALING:
        rng = rng_for(seed, "scaling", tag)
        for size, member in [(s, False) for s in sizes] + [(sizes[-1], True)]:
            fn, prop = _scaling_instance(tag, size, member, rng)
            cases.append(_oracle_case(tag, size, member, fn, prop))
    return cases


# ---------------------------------------------------------------------------
# cli-file: in-process `ertest test` on files written in set-up


def _cli_case(name, tester, kind, argv, seed) -> Case:
    def call(pass_index):
        run_argv = argv + ["--seed", str(seed_for(seed, "cli", name, pass_index) % 2 ** 31)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(run_argv)
            except SystemExit as exc:  # argparse refused the arguments
                code = exc.code if isinstance(exc.code, int) else 2
        failed = code == 2 or (kind == "member" and code != 0)
        if failed:
            print(f"error in {name}: exit {code}: {err.getvalue().strip()}", flush=True)
        return (code, out.getvalue()), int(failed), failed

    return Case(name, tester, kind, call)


def setup_cli_file(seed: int, tmpdir: str) -> list:
    """Line 2^14 (monotone, convex, bdp-line with a bounds file) and grid 16^3
    (monotone) functions, saved as files; each call loads one again."""
    rng = rng_for(seed, "cli")
    n = 1 << 14
    dom = core.Domain.line(n)
    c = rng.randint(n // 4, 3 * n // 4)
    off, step = rng.randint(0, 10 ** 6), rng.randint(1, 5)
    grid = core.Domain.grid(16, 3)
    pts = [grid.point_at(i) for i in range(grid.size)]
    bounds_path = os.path.join(tmpdir, "lipschitz.bounds")
    fileio.save_bounds(line.LineBoundingPair.lipschitz(n), bounds_path)
    a = F(1, 8)
    a_grid = F(1, 3000)
    table = [
        ("monotone-line", a, [],
         [off + step * i for i in range(n)], [off - step * i for i in range(n)], dom),
        ("convex-line", a, [],
         [(i - c) ** 2 for i in range(n)], [-(i - c) ** 2 for i in range(n)], dom),
        ("bdp-line", a, ["--bounds", bounds_path],
         [abs(i - c) for i in range(n)], [2 * i for i in range(n)], dom),
        ("monotone-grid", a_grid, [],
         [off + step * sum(p) for p in pts], [off - step * sum(p) for p in pts], grid),
    ]
    cases = []
    for tester, alpha, extra, member_vals, far_vals, domain in table:
        for kind, vals in (("member", member_vals), ("far", far_vals)):
            path = os.path.join(tmpdir, f"{tester}.{kind}.fn")
            fileio.save_function(_erased(vals, domain, alpha, rng), path)
            argv = ["test", "--tester", tester, "--input", path,
                    "--eps", "1/4", "--alpha", str(alpha)] + extra
            cases.append(_cli_case(f"{tester}.{kind}", tester, kind, argv, seed))
    return cases


@dataclass(frozen=True)
class Workload:
    setup: Callable
    op: str                # what one operation is, for the report
    verdicts_inside: bool  # verdicts are hidden inside run_experiment


WORKLOADS = {
    "experiment-fresh": Workload(setup_experiment_fresh, "trial", True),
    "experiment-fixed": Workload(setup_experiment_fixed, "trial", True),
    "oracle-scaling": Workload(setup_oracle_scaling, "certify+verify pair", False),
    "cli-file": Workload(setup_cli_file, "ertest test call", False),
}

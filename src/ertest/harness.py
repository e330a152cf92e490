"""Seeded experiment runner and report writer.

Every trial's randomness comes from streams derived from (master seed,
purpose, trial index), so a config reproduces bit-for-bit regardless of
worker count.  Aggregation keeps only integer counts and sums; floats are
computed once at the end.  Two invariants are enforced on every single
trial, not sampled: queries never exceed the tester's budget formula, and
every reject certificate re-validates against the instance outside the
oracle.
"""
from __future__ import annotations

import math
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict
from typing import Callable, Optional

from .core import (
    ConfigError,
    ErasedFunction,
    QueryOracle,
    exact_fraction,
)
from .rng import make_rng
from .line import (
    LineBoundingPair,
    bdp_line_tester_budget,
    check_bounds,
    check_line_certificate,
    classic_monotone_line,
    convex_line_budget,
    monotone_line_budget,
    test_bdp_line,
    test_convex_line,
    test_monotone_line,
)
from .hypergrid import (
    BoundingFamily,
    bdp_hypergrid_budget,
    check_grid_certificate,
    monotone_hypergrid_budget,
    test_bdp_hypergrid,
    test_monotone_hypergrid,
)
from .transforms import (
    check_extendable_certificate,
    check_k_runs_certificate,
    check_pot_certificate,
    erasure_resilient_extendable,
    erasure_resilient_pot_run,
    extendable_budget,
    k_runs_sample_size,
    low_degree_pot,
    poset_monotone_uniform_spec,
    test_k_runs,
)
from .adversary import InstanceSpec
from .oracles import check_field_line

WORKERS_ENV = "ERTEST_WORKERS"
Z99 = 2.5758293035489004  # two-sided 99% normal quantile

CSV_COLUMNS = ("tester", "n", "d", "eps", "alpha", "trials", "seed",
               "accept_rate", "ci_low", "ci_high", "mean_q", "max_q",
               "budget_Q")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a tester, its parameters, an instance source, and a
    master seed.  ``instance`` is either a fixed ErasedFunction or an
    InstanceSpec realized afresh per trial."""

    tester: str
    instance: object
    trials: int
    seed: int
    eps: object = None
    alpha: object = None
    k: Optional[int] = None
    degree: Optional[int] = None
    bounds: object = None
    poset: object = None


@dataclass(frozen=True)
class TrialSummary:
    tester: str
    n: int
    d: int
    eps: str
    alpha: str
    trials: int
    seed: int
    rejections: int
    accept_rate: float
    ci_low: float
    ci_high: float
    ci_flagged: bool
    mean_q: float
    max_q: int
    stddev_q: float
    budget_Q: int
    mean_sampling: Optional[float]
    mean_walking: Optional[float]
    wall_time: float


def _cfg_alpha(cfg: ExperimentConfig, fn: ErasedFunction):
    return fn.declared_alpha if cfg.alpha is None else exact_fraction(cfg.alpha)


@dataclass(frozen=True)
class TesterEntry:
    """A tester and what it requires: the ``ExperimentConfig`` fields it
    needs set, the domain shape it runs on ("line" or "grid"), and the value
    kind it expects (None: any).  ``run`` and ``budget`` take the trial's
    erasure bound alpha, which ``run_trial`` works out once."""

    run: Callable
    budget: Callable
    validate: Callable
    needs: tuple = ("eps",)
    shape: str = "line"
    kind: Optional[str] = None


TESTERS = {
    "monotone-line": TesterEntry(
        run=lambda cfg, o, alpha, rng: test_monotone_line(o, cfg.eps, alpha, rng),
        budget=lambda cfg, fn, alpha: monotone_line_budget(fn.domain.n, cfg.eps, alpha),
        validate=lambda cfg, fn, cert: check_line_certificate(fn, cert),
    ),
    "classic-monotone-line": TesterEntry(
        run=lambda cfg, o, alpha, rng: classic_monotone_line(o, cfg.eps, alpha, rng),
        budget=lambda cfg, fn, alpha: monotone_line_budget(fn.domain.n, cfg.eps, alpha),
        validate=lambda cfg, fn, cert: check_line_certificate(fn, cert),
    ),
    "bdp-line": TesterEntry(
        run=lambda cfg, o, alpha, rng: test_bdp_line(o, cfg.bounds, cfg.eps, alpha, rng),
        budget=lambda cfg, fn, alpha: bdp_line_tester_budget(cfg.bounds, cfg.eps, alpha),
        validate=lambda cfg, fn, cert: check_line_certificate(fn, cert, cfg.bounds),
        needs=("eps", "bounds"),
    ),
    "convex-line": TesterEntry(
        run=lambda cfg, o, alpha, rng: test_convex_line(o, cfg.eps, alpha, rng),
        budget=lambda cfg, fn, alpha: convex_line_budget(fn.domain.n, cfg.eps, alpha),
        validate=lambda cfg, fn, cert: check_line_certificate(fn, cert),
    ),
    "monotone-grid": TesterEntry(
        run=lambda cfg, o, alpha, rng: test_monotone_hypergrid(o, cfg.eps, alpha, rng),
        budget=lambda cfg, fn, alpha: monotone_hypergrid_budget(
            fn.domain.n, fn.domain.d, cfg.eps, alpha),
        validate=lambda cfg, fn, cert: check_grid_certificate(fn, cert),
        shape="grid",
    ),
    "bdp-grid": TesterEntry(
        run=lambda cfg, o, alpha, rng: test_bdp_hypergrid(o, cfg.bounds, cfg.eps, alpha, rng),
        budget=lambda cfg, fn, alpha: bdp_hypergrid_budget(
            fn.domain.n, fn.domain.d, cfg.eps, alpha),
        validate=lambda cfg, fn, cert: check_grid_certificate(fn, cert, cfg.bounds),
        needs=("eps", "bounds"),
        shape="grid",
    ),
    "k-runs": TesterEntry(
        run=lambda cfg, o, alpha, rng: test_k_runs(o, cfg.k, cfg.eps, rng),
        budget=lambda cfg, fn, alpha: k_runs_sample_size(cfg.k, cfg.eps),
        validate=lambda cfg, fn, cert: check_k_runs_certificate(fn, cfg.k, cert),
        needs=("eps", "k"),
        kind="bit",
    ),
    "low-degree": TesterEntry(
        run=lambda cfg, o, alpha, rng: erasure_resilient_pot_run(
            low_degree_pot(o.fn.modulus, cfg.degree), o, rng),
        budget=lambda cfg, fn, alpha: cfg.degree + 2,
        validate=lambda cfg, fn, cert: check_pot_certificate(
            fn, low_degree_pot(fn.modulus, cfg.degree), cert),
        needs=("degree",),
        kind="field",
    ),
    "poset-monotone": TesterEntry(
        run=lambda cfg, o, alpha, rng: erasure_resilient_extendable(
            poset_monotone_uniform_spec(cfg.poset), alpha, cfg.eps, o, rng),
        budget=lambda cfg, fn, alpha: extendable_budget(
            poset_monotone_uniform_spec(cfg.poset), fn.domain.size, cfg.eps, alpha),
        validate=lambda cfg, fn, cert: check_extendable_certificate(
            fn, poset_monotone_uniform_spec(cfg.poset), cert),
        needs=("eps", "poset"),
    ),
}


def validate_config(cfg: ExperimentConfig) -> tuple[TesterEntry, ErasedFunction]:
    """Returns the registry entry and trial 0's instance.  The cheap
    parameter checks come first; then trial 0 is realized once and checked
    against the tester, so callers can reuse it instead of realizing it again."""
    if cfg.trials < 1:
        raise ConfigError("trials must be at least 1")
    entry = TESTERS.get(cfg.tester)
    if entry is None:
        raise ConfigError(f"unknown tester {cfg.tester!r}; "
                          f"known: {sorted(TESTERS)}")
    for name in entry.needs:
        if getattr(cfg, name) is None:
            raise ConfigError(f"{cfg.tester} needs {name}")
    fn = _trial_fn(cfg, 0)
    if fn.domain.is_line != (entry.shape == "line"):
        raise ConfigError(f"{cfg.tester} runs on {entry.shape} domains, "
                          f"got d={fn.domain.d}")
    if entry.kind is not None and fn.kind != entry.kind:
        raise ConfigError(f"{cfg.tester} expects {entry.kind} values")
    if entry.kind == "field":
        check_field_line(fn)
    if "bounds" in entry.needs:
        check_bounds(cfg.tester, cfg.bounds,
                     LineBoundingPair if entry.shape == "line" else BoundingFamily, fn.domain)
    if "poset" in entry.needs and cfg.poset.size != fn.domain.size:
        raise ConfigError(f"{cfg.tester} needs a poset of {fn.domain.size} elements, "
                          f"got {cfg.poset.size}")
    return entry, fn


def _worker_count() -> int:
    """Worker processes from ``ERTEST_WORKERS`` (default 1)."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be at least 1, got {workers}")
    return workers


def _wilson_interval(successes: int, trials: int) -> tuple:
    """99% Wilson score interval (Wilson, JASA 1927) for a binomial proportion.
    Unlike the Wald interval it keeps a positive width at 0 and at 1.  Its
    end is exactly 0 at no successes and exactly 1 at all successes; those
    ends are set directly so float rounding cannot move them."""
    phat = successes / trials
    z2 = Z99 * Z99 / trials
    center = (phat + z2 / 2) / (1 + z2)
    half = Z99 / (1 + z2) * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials))
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _trial_fn(cfg: ExperimentConfig, index: int) -> ErasedFunction:
    if isinstance(cfg.instance, ErasedFunction):
        return cfg.instance
    if not isinstance(cfg.instance, InstanceSpec):
        raise ConfigError("instance must be an ErasedFunction or an InstanceSpec")
    fn, _ = cfg.instance.realize(make_rng(cfg.seed, "inst", index))
    return fn


def run_trial(cfg: ExperimentConfig, entry: TesterEntry, fn: ErasedFunction,
              index: int) -> tuple:
    """Trial ``index`` of ``cfg`` on ``fn``: returns (verdict, budget cap).
    Raises unless the queries stay within the budget formula and a reject
    certificate re-validates against ``fn`` outside the oracle."""
    alpha = _cfg_alpha(cfg, fn)
    verdict = entry.run(cfg, QueryOracle(fn), alpha, make_rng(cfg.seed, "trial", index))
    cap = entry.budget(cfg, fn, alpha)
    if verdict.queries_used > cap:
        raise AssertionError(
            f"trial {index}: {verdict.queries_used} queries exceeded the "
            f"budget {cap} for {cfg.tester}")
    if verdict.is_reject and not entry.validate(cfg, fn, verdict.certificate):
        raise RuntimeError(
            f"trial {index}: reject certificate failed re-validation: "
            f"{verdict.certificate!r}")
    return verdict, cap


def _run_chunk(cfg: ExperimentConfig, lo: int, hi: int, fn0: ErasedFunction) -> tuple:
    """Trials [lo, hi): (sums, stats, max_q, max_cap).  ``stats`` sums each
    ``verdict.stats`` counter apart from ``sums``, so no key can collide.
    ``fn0`` is trial 0's instance, already realized."""
    entry = TESTERS[cfg.tester]
    sums, stats = Counter(), Counter()
    max_q = max_cap = 0
    for i in range(lo, hi):
        fn = fn0 if i == 0 else _trial_fn(cfg, i)
        verdict, cap = run_trial(cfg, entry, fn, i)
        q = verdict.queries_used
        sums["rejections"] += verdict.is_reject  # a missing key is 0, and 0 + True is 1
        sums["q"] += q
        sums["q2"] += q * q
        sums["with_stats"] += bool(verdict.stats)
        if verdict.stats:
            stats.update(verdict.stats)
        max_q, max_cap = max(max_q, q), max(max_cap, cap)
    return sums, stats, max_q, max_cap


def run_experiment(cfg: ExperimentConfig) -> TrialSummary:
    workers = _worker_count()
    _, fn0 = validate_config(cfg)
    t = cfg.trials
    start = time.perf_counter()
    if workers > 1 and t > 1:
        chunk = -(-t // workers)
        los = range(0, t, chunk)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, [cfg] * len(los), los,
                                  [min(lo + chunk, t) for lo in los], [fn0] * len(los)))
    else:
        parts = [_run_chunk(cfg, 0, t, fn0)]
    wall = time.perf_counter() - start
    # a Counter sum drops zero counts: read each with [], where a missing key is 0
    sums, stats, max_qs, caps = zip(*parts)
    sums, stats = sum(sums, Counter()), sum(stats, Counter())

    accepts = t - sums["rejections"]
    phat = accepts / t
    ci_low, ci_high = _wilson_interval(accepts, t)
    mean_q = sums["q"] / t
    var = sums["q2"] / t - mean_q * mean_q
    return TrialSummary(
        tester=cfg.tester,
        n=fn0.domain.n,
        d=fn0.domain.d,
        eps="" if cfg.eps is None else str(exact_fraction(cfg.eps)),
        alpha=str(_cfg_alpha(cfg, fn0)),
        trials=t,
        seed=cfg.seed,
        rejections=sums["rejections"],
        accept_rate=phat,
        ci_low=ci_low,
        ci_high=ci_high,
        ci_flagged=t < 100,
        mean_q=mean_q,
        max_q=max(max_qs),
        stddev_q=math.sqrt(max(0.0, var)),
        budget_Q=max(caps),
        mean_sampling=stats["sampling"] / sums["with_stats"] if sums["with_stats"] else None,
        mean_walking=stats["walking"] / sums["with_stats"] if sums["with_stats"] else None,
        wall_time=wall,
    )


# ---------------------------------------------------------------------------
# reports

def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summary_rows(summaries) -> list:
    rows = [",".join(CSV_COLUMNS)]
    for s in summaries:
        record = asdict(s)
        rows.append(",".join(_csv_cell(record[c]) for c in CSV_COLUMNS))
    return rows


def emit_report(summaries, fmt: str, path: str) -> None:
    """CSV carries the pinned column set (no wall time, so identical seeds
    give identical bytes); JSON carries full summaries and round-trips."""
    if isinstance(summaries, TrialSummary):
        summaries = [summaries]
    summaries = list(summaries)
    if not summaries:
        raise ConfigError("nothing to report")
    if fmt == "csv":
        text = "\n".join(summary_rows(summaries)) + "\n"
    elif fmt == "json":
        import json
        text = json.dumps([asdict(s) for s in summaries], indent=2) + "\n"
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)


def summaries_from_json(path: str) -> list:
    import json
    with open(path) as fh:
        data = json.load(fh)
    return [TrialSummary(**record) for record in data]

"""Testers on [n]^d via reduction to axis-parallel lines.

A bounding family gives each dimension its own per-step bound pair; the
induced quasi-metric m_B caps how much f may rise from y to x.  Testing
samples a uniform axis line and runs one line search on it; the proximity
and budget formulas account for how distance and erasures spread across
lines.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ErasedFunction,
    PreconditionViolated,
    QueryOracle,
    Verdict,
    ceil_frac,
    check_params,
    grid_descends,
    holds_values,
    value_gt,
)
from .line import (
    INF,
    LineBoundingPair,
    _axis_searches,
    _bdp_check,
    _descends,
    _log_budget,
    _run_searches,
    bdp_to_monotone_transforms,  # noqa: F401  unused here; bench/tracing.py wraps it
    check_bounds,
    randomized_binary_search_step_loop,  # noqa: F401  likewise
    sample_nonerased_uniform,  # noqa: F401  likewise
)


@dataclass(frozen=True)
class BoundingFamily:
    """One bound pair per dimension; dimension r uses per_dim[r-1]."""

    per_dim: tuple

    def __post_init__(self):
        if not self.per_dim:
            raise ValueError("need at least one dimension")
        n = self.per_dim[0].n
        if any(b.n != n for b in self.per_dim):
            raise ValueError("all dimensions must share one side length")

    @property
    def d(self) -> int:
        return len(self.per_dim)

    @property
    def n(self) -> int:
        return self.per_dim[0].n

    @classmethod
    def monotone(cls, n: int, d: int) -> "BoundingFamily":
        return cls(tuple(LineBoundingPair.monotone(n) for _ in range(d)))

    @classmethod
    def lipschitz(cls, n: int, d: int, c=1) -> "BoundingFamily":
        return cls(tuple(LineBoundingPair.lipschitz(n, c) for _ in range(d)))


def quasi_metric(family: BoundingFamily, x: tuple, y: tuple):
    """Largest allowed value of f(x) - f(y): upper sums where x runs above y,
    minus lower sums where it runs below.  Extended real; never -inf."""
    up = 0
    low = 0
    for r, (xr, yr) in enumerate(zip(x, y)):
        b = family.per_dim[r]
        if xr > yr:
            s = b.seg_upper(yr, xr)
            if s == INF:
                return INF
            up += s
        elif xr < yr:
            s = b.seg_lower(xr, yr)
            if s == -INF:
                return INF
            low += s
    return up - low


def grid_pair_violates(family: BoundingFamily, x: tuple, fx, y: tuple, fy) -> bool:
    """True iff f(x) - f(y) > m_B(x, y) or f(y) - f(x) > m_B(y, x)."""
    m_xy = quasi_metric(family, x, y)
    if m_xy != INF and value_gt(fx - fy, m_xy):
        return True
    m_yx = quasi_metric(family, y, x)
    return m_yx != INF and value_gt(fy - fx, m_yx)


# ---------------------------------------------------------------------------
# testers

def _grid_params(oracle, eps, alpha, gate_factor: int):
    n, d = oracle.fn.domain.n, oracle.fn.domain.d
    e, a = check_params(eps, alpha)
    if a > e / (gate_factor * d):
        raise PreconditionViolated(
            f"erasure bound {a} exceeds eps/{gate_factor}d = {e / (gate_factor * d)}")
    return n, d, e, a


def monotone_hypergrid_budget(n: int, d: int, eps, alpha) -> int:
    return _log_budget(1200 * d, n, eps, alpha)


def bdp_hypergrid_budget(n: int, d: int, eps, alpha) -> int:
    return _log_budget(4800 * d, n, eps, alpha)


def hypergrid_iterations(d: int, eps, alpha, factor: int) -> int:
    """ceil(factor * d / (eps(1-alpha) - 4 d alpha)); the precondition keeps
    the denominator positive.  Cached, as ``line._log_budget`` is, on the
    exact (eps, alpha) that ``check_params`` returns."""
    return _exact_iterations(d, *check_params(eps, alpha), factor)


@functools.lru_cache(maxsize=1024)
def _exact_iterations(d: int, e: Fraction, a: Fraction, factor: int) -> int:
    denom = e * (1 - a) - 4 * d * a
    if denom <= 0:
        raise PreconditionViolated("erasure bound too large for the iteration count")
    return ceil_frac(Fraction(factor * d) / denom)


def test_monotone_hypergrid(oracle: QueryOracle, eps, alpha, rng) -> Verdict:
    """Per iteration: one uniform axis line, one nonerased start point on it,
    one randomized binary search along it; rejects on an observed violated
    pair.  One-sided."""
    n, d, e, a = _grid_params(oracle, eps, alpha, 250)

    def certify(view, pa, fa, pb, fb):
        return ("monotone-violation", (view.point(pa), fa), (view.point(pb), fb))

    checks = itertools.repeat((_descends,) * d, hypergrid_iterations(d, e, a, 12))
    return _run_searches(oracle, monotone_hypergrid_budget(n, d, e, a),
                         _axis_searches(oracle, checks, rng, certify))


def test_bdp_hypergrid(oracle: QueryOracle, family: BoundingFamily,
                       eps, alpha, rng) -> Verdict:
    """Like the monotone grid tester, but the line check runs both
    transformed views of the sampled dimension's bounds (or the direct
    segment-sum check when that dimension has an infinite bound)."""
    n, d, e, a = _grid_params(oracle, eps, alpha, 970)
    check_bounds("bdp-grid", family, BoundingFamily, oracle.fn.domain)

    def certify(view, pa, fa, pb, fb):
        return ("bdp-violation", (view.point(pa), fa), (view.point(pb), fb))

    checks = itertools.repeat(tuple(map(_bdp_check, family.per_dim)),
                              hypergrid_iterations(d, e, a, 48))
    return _run_searches(oracle, bdp_hypergrid_budget(n, d, e, a),
                         _axis_searches(oracle, checks, rng, certify))


def check_grid_certificate(fn: ErasedFunction, certificate,
                           family: BoundingFamily = None) -> bool:
    """Validates a grid reject certificate against the raw function.  False
    means the certificate is bogus or not (kind, (point, value), (point,
    value)); ``check_bounds`` refuses a bdp certificate's misfit family."""
    try:
        kind, (x, fx), (y, fy) = certificate
    except (TypeError, ValueError):  # not of that shape
        return False
    if kind == "bdp-violation":
        check_bounds("bdp-grid", family, BoundingFamily, fn.domain)
    if not holds_values(fn, [(x, fx), (y, fy)]):
        return False
    if kind == "monotone-violation":
        return grid_descends(x, fx, y, fy)
    if kind == "bdp-violation":
        return grid_pair_violates(family, x, fx, y, fy)
    return False

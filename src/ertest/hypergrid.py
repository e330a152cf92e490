"""Testers on [n]^d via reduction to axis-parallel lines.

A bounding family gives each dimension its own per-step bound pair; the
induced quasi-metric m_B caps how much f may rise from y to x.  Testing
samples a uniform axis line and runs one line search on it; the proximity
and budget formulas account for how distance and erasures spread across
lines.
"""
from __future__ import annotations

import functools
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
    _bdp_check,
    _descends,
    _fused_search,
    _fuses,
    _log_budget,
    _run_searches,
    _sampled_search,
    bdp_to_monotone_transforms,  # noqa: F401  unused here; bench/tracing.py wraps it
    check_bounds,
    pair_violates,
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
# axis lines

class _AxisLineView:
    """One axis line of a grid oracle, presented as a line oracle; the
    budget is the grid's.

    Position p of the line along ``axis`` (1-based) is flat index
    ``base + (p - 1) * stride`` (``Domain.index_of``'s order, with
    ``stride = n ** (axis - 1)`` and ``base`` the index of the line's first
    point), so ``query((p,))`` checks 1 <= p <= n and reads
    ``oracle.query_index`` without building or validating a point, and
    ``point(p)`` builds the grid point only when a certificate names it."""

    __slots__ = ("oracle", "axis", "n", "base", "stride")

    def __init__(self, oracle: QueryOracle, axis: int, n: int, base: int, stride: int):
        self.oracle, self.axis, self.n, self.base, self.stride = oracle, axis, n, base, stride

    def query(self, pt):
        (p,) = pt
        if not 1 <= p <= self.n:
            raise ValueError(f"position {p} outside the axis line [1, {self.n}]")
        return self.oracle.query_index(self.base + (p - 1) * self.stride)

    def point(self, p: int) -> tuple:
        return self.oracle.fn.domain.point_at(self.base + (p - 1) * self.stride)


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


def _axis_searches(oracle: QueryOracle, iterations: int, checks, rng, certify):
    """Per iteration, one randomized binary search along a uniform axis
    line, with the pair check of its axis (``checks[axis - 1]``).  Yields
    None after a clean pass, else ``certify(view, a, fa, b, fb)`` for the
    first violated pair, itself None to go on searching.

    Each line is one draw of its index x in [0, d * n ** (d - 1)), by
    ``draw``'s plain-``Random`` rule on ``rng.getrandbits`` (on any
    ``rng``, so a subclass's own ``randint`` is not asked).  ``divmod(x, n
    ** (d - 1))`` gives the 0-based axis r and the line's index j among
    that axis' lines, whose base-n digits, lowest first, are the other
    dimensions' coordinates less 1 in increasing dimension order; the
    line's first point is then flat index ``j % n ** r + j // n ** r * n **
    (r + 1)``, as ``Domain.index_of`` would give it.  ``_fuses`` decides
    once, at the first search, how every search runs: by ``_fused_search``,
    with an ``_AxisLineView`` built only for a pair that goes to
    ``certify``, or by ``_sampled_search`` over a view built for each
    line."""
    domain = oracle.fn.domain
    n, d = domain.n, domain.d
    lines = n ** (d - 1)
    span = d * lines
    getrandbits, k = rng.getrandbits, span.bit_length()
    strides = [n ** r for r in range(d)]
    fused = _fuses(oracle, rng)
    for _ in range(iterations):
        x = getrandbits(k)
        while x >= span:
            x = getrandbits(k)
        r, j = divmod(x, lines)
        stride = strides[r]
        base = j % stride + j // stride * stride * n
        if fused:
            hit = _fused_search(oracle, base - stride, stride, n, rng, checks[r])
            if hit is None:
                yield None
                continue
        view = _AxisLineView(oracle, r + 1, n, base, stride)
        if not fused:
            hit = _sampled_search(view, n, rng, checks[r])
        yield None if hit is None else certify(view, *hit)


def test_monotone_hypergrid(oracle: QueryOracle, eps, alpha, rng) -> Verdict:
    """Per iteration: one uniform axis line, one nonerased start point on it,
    one randomized binary search along it; rejects on an observed violated
    pair.  One-sided."""
    n, d, e, a = _grid_params(oracle, eps, alpha, 250)

    def certify(view, pa, fa, pb, fb):
        return ("monotone-violation", (view.point(pa), fa), (view.point(pb), fb))

    return _run_searches(oracle, monotone_hypergrid_budget(n, d, e, a), _axis_searches(
        oracle, hypergrid_iterations(d, e, a, 12), (_descends,) * d, rng, certify))


def test_bdp_hypergrid(oracle: QueryOracle, family: BoundingFamily,
                       eps, alpha, rng) -> Verdict:
    """Like the monotone grid tester, but the line check runs both
    transformed views of the sampled dimension's bounds (or the direct
    segment-sum check when that dimension has an infinite bound)."""
    n, d, e, a = _grid_params(oracle, eps, alpha, 970)
    check_bounds("bdp-grid", family, BoundingFamily, oracle.fn.domain)

    def certify(view, pa, fa, pb, fb):
        # reject only when the raw pair violates under exact recheck
        if pair_violates(family.per_dim[view.axis - 1], pa, fa, pb, fb):
            return ("bdp-violation", (view.point(pa), fa), (view.point(pb), fb))
        return None

    checks = [_bdp_check(bounds) for bounds in family.per_dim]
    return _run_searches(oracle, bdp_hypergrid_budget(n, d, e, a), _axis_searches(
        oracle, hypergrid_iterations(d, e, a, 48), checks, rng, certify))


def check_grid_certificate(fn: ErasedFunction, certificate,
                           family: BoundingFamily = None) -> bool:
    """Validates a grid reject certificate against the raw function.  False
    means the certificate is bogus, or not (kind, (point, value),
    (point, value))."""
    try:
        kind, (x, fx), (y, fy) = certificate
    except (TypeError, ValueError):  # not of that shape
        return False
    if not holds_values(fn, [(x, fx), (y, fy)]):
        return False
    if kind == "monotone-violation":
        return grid_descends(x, fx, y, fy)
    if kind == "bdp-violation":
        return grid_pair_violates(family, x, fx, y, fy)
    return False

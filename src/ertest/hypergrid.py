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
    draw,
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

@dataclass(frozen=True)
class AxisLine:
    """The line along ``axis`` (1-based) of a grid, with the other
    coordinates fixed, listed in increasing dimension order."""

    axis: int
    fixed: tuple

    def point(self, pos: int) -> tuple:
        return self.fixed[:self.axis - 1] + (pos,) + self.fixed[self.axis - 1:]


class _AxisLineView:
    """One axis line of a grid oracle, presented as a line oracle and as the
    random source its start is drawn from; the budget is the grid's.

    The line's points sit at flat indices ``base + (p - 1) * stride`` for
    positions p = 1..n, with ``stride = n ** (axis - 1)`` and ``base`` the
    sum of (c - 1) * n ** (r - 1) over the fixed coordinates c of the other
    dimensions r (``Domain.index_of``'s order), so ``query((p,))``
    checks 1 <= p <= n and reads ``oracle.query_index`` without building or
    validating a point.  ``randint`` is ``draw(rng, lo, hi)`` (the
    ``getrandbits`` rule on a plain ``Random``) with the draws a box
    sampler over the line's points once made for its fixed coordinates: one
    ``rng.randint(c, c)`` for each coordinate c before the axis and one for
    each after it.  Each of those is replayed as ``while
    rng.getrandbits(1): pass``, which consumes the same Mersenne Twister
    output, so the seeded stream is unchanged.  ``_axis_searches`` sets
    every slot: for each line it draws on the sampler path, and on the
    fused path only for a line whose search hands a violated pair to
    ``certify``.  The view keeps ``axis`` and ``fixed``, and ``line``
    builds the ``AxisLine`` only when asked, as a certificate naming a
    point does."""

    __slots__ = ("oracle", "axis", "fixed", "rng", "n", "base", "stride", "before", "after")

    @property
    def line(self) -> AxisLine:
        return AxisLine(self.axis, self.fixed)

    def query(self, pt):
        (p,) = pt
        if not 1 <= p <= self.n:
            raise ValueError(f"position {p} outside the axis line [1, {self.n}]")
        return self.oracle.query_index(self.base + (p - 1) * self.stride)

    def randint(self, lo: int, hi: int) -> int:
        getrandbits = self.rng.getrandbits
        for _ in self.before:
            while getrandbits(1):
                pass
        m = draw(self.rng, lo, hi)
        for _ in self.after:
            while getrandbits(1):
                pass
        return m


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

    This frame draws the axis and then each fixed coordinate, in increasing
    dimension order, by ``draw``'s plain-``Random`` rule with spans d and
    then n, and sums the base index from the strides ``n ** r``, as
    ``Domain.index_of`` would; a view reads its fixed coordinates back from
    that base.  The draws take ``rng.getrandbits`` on any ``rng``, so a
    subclass's own ``randint`` is not asked.  ``_fuses`` decides once, at
    the first search, how every search runs: by ``_fused_search``, with an
    ``_AxisLineView`` built only for a pair that goes to ``certify``, or by
    ``_sampled_search`` over a view built for each line, its start drawn
    through the view's ``randint``."""
    domain = oracle.fn.domain
    n, d = domain.n, domain.d
    getrandbits, kd, kn = rng.getrandbits, d.bit_length(), n.bit_length()
    strides = [n ** r for r in range(d)]
    # per 0-based axis: the other dimensions' strides, the axis stride, and
    # the ranges of the start's replays before and after its draw
    table = [(strides[:r] + strides[r + 1:], strides[r], range(r), range(d - 1 - r))
             for r in range(d)]
    fused, new = _fuses(oracle, rng), object.__new__
    for _ in range(iterations):
        r = getrandbits(kd)
        while r >= d:
            r = getrandbits(kd)
        others, stride, before, after = table[r]
        base = 0
        for s in others:
            c = getrandbits(kn)
            while c >= n:
                c = getrandbits(kn)
            base += c * s
        if fused:
            hit = _fused_search(oracle, base - stride, stride, n, before, after, rng, checks[r])
            if hit is None:
                yield None
                continue
        view = new(_AxisLineView)
        view.oracle, view.axis, view.rng, view.n = oracle, r + 1, rng, n
        view.fixed = tuple(base // s % n + 1 for s in others)  # each c < n
        view.base, view.stride, view.before, view.after = base, stride, before, after
        if not fused:
            hit = _sampled_search(view, n, view, rng, checks[r])
        yield None if hit is None else certify(view, *hit)


def test_monotone_hypergrid(oracle: QueryOracle, eps, alpha, rng) -> Verdict:
    """Per iteration: one uniform axis line, one nonerased start point on it,
    one randomized binary search along it; rejects on an observed violated
    pair.  One-sided."""
    n, d, e, a = _grid_params(oracle, eps, alpha, 250)

    def certify(view, pa, fa, pb, fb):
        line = view.line
        return ("monotone-violation", (line.point(pa), fa), (line.point(pb), fb))

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
            line = view.line
            return ("bdp-violation", (line.point(pa), fa), (line.point(pb), fb))
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

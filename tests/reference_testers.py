"""Reference versions of the search testers, as they were before the shared
search driver and its budget shell.

Each tester here runs its own search loop, draws every pivot and start point
through ``sample_nonerased_uniform`` over a freshly built ``Box`` (the
box sampler the library once had, kept here verbatim), draws a grid's axis
line through ``sample_axis_line`` as an ``AxisLine`` and reads it through
``AxisLineView``, which builds and validates every point it asks for, and
rebuilds the O(n) bounded-derivative value maps on every call.  The
cross-check tests in ``test_tester_reference.py`` require the library
testers to give the same verdict, ``queries_used`` and certificate as these
on the same seed.

``PrefixBoundingPair`` is the step-bound class as it was while every prefix
sum was a Python number (Fractions wherever a Fraction entry came first),
with its O(1) value maps; ``test_line.py`` requires the library class to
give the same values, types and errors on its whole public surface.

``line_searches`` is the line testers' search generator as it was before a
line became its own one axis line: the sampler loop, run on the line oracle
itself, with no axis line drawn and no view.

``AxisLine``, ``sample_axis_line``, ``all_axis_lines``,
``axis_line_views``, ``remaining``, ``poset_le`` and ``comparable_pairs``
are helpers that only tests use, kept here rather than in the library.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

from ertest import line as L
from ertest.core import (
    ALL_CHECKS_PASSED,
    BUDGET_EXHAUSTED,
    ERASED,
    BudgetExhausted,
    Domain,
    QueryOracle,
    Verdict,
    check_params as _params,
    draw,
    value_gt,
)
from ertest.hypergrid import (
    BoundingFamily,
    _grid_params,
    bdp_hypergrid_budget,
    hypergrid_iterations,
    monotone_hypergrid_budget,
)
from ertest.line import (
    INF,
    LineBoundingPair,
    _line_domain,
    _walk_nonerased,
    bdp_line_budget,
    convex_line_budget,
    monotone_line_budget,
    one_sixth_iterations,
    pair_violates,
    proximity_iterations,
)


@dataclass(frozen=True)
class Box:
    """Axis-aligned sub-box given by inclusive corner tuples."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"empty or malformed box {self.lo}..{self.hi}")

    @classmethod
    def whole(cls, domain: Domain) -> "Box":
        return cls((1,) * domain.d, (domain.n,) * domain.d)

    @property
    def size(self) -> int:
        s = 1
        for a, b in zip(self.lo, self.hi):
            s *= b - a + 1
        return s

    def sample(self, rng) -> tuple:
        # rng.randint is exactly uniform (rejection sampling underneath)
        return tuple(rng.randint(a, b) for a, b in zip(self.lo, self.hi))


def sample_nonerased_uniform(oracle: QueryOracle, box: Box, rng):
    """Uniform draws from the box until a nonerased point comes up.

    Returns (point, value).  Every draw costs one query, so a region with few
    nonerased points is paid for in budget; a fully erased region terminates
    only through BudgetExhausted.
    """
    while True:
        pt = box.sample(rng)
        v = oracle.query(pt)
        if v is not ERASED:
            return pt, v


def remaining(oracle: QueryOracle) -> int:
    """The queries left in the oracle's budget; 0 before any budget is set."""
    if oracle.budget is None:
        return 0
    return oracle.budget - oracle.count


@dataclass(frozen=True)
class AxisLine:
    """The line along ``axis`` (1-based) of a grid, with the other
    coordinates fixed, listed in increasing dimension order."""

    axis: int
    fixed: tuple

    def point(self, pos: int) -> tuple:
        return self.fixed[:self.axis - 1] + (pos,) + self.fixed[self.axis - 1:]


def sample_axis_line(domain: Domain, rng) -> AxisLine:
    """Uniform over all d * n^(d-1) axis-parallel lines, by one ``draw`` of
    the line's index: axis-major, and within an axis the fixed coordinates
    in increasing dimension order, the lowest varying fastest."""
    n, d = domain.n, domain.d
    axis, j = divmod(draw(rng, 0, d * n ** (d - 1) - 1), n ** (d - 1))
    fixed = []
    for _ in range(d - 1):
        j, c = divmod(j, n)
        fixed.append(c + 1)
    return AxisLine(axis + 1, tuple(fixed))


def axis_line_views(oracle: QueryOracle, iterations: int, checks, rng) -> list:
    """What ``line._axis_searches`` hands each line's search on its sampler
    path, given the one tuple of per-axis pair checks ``checks`` for each
    of ``iterations`` searches: ``(view, violated, state)``, with
    ``violated`` the pair check and ``state`` the ``rng.getstate()`` once
    the line is drawn.  The sampler and the step loop are rebound by name,
    as the bench's tracer rebinds them, to record and draw nothing, so
    every search is a clean pass."""
    seen = []

    def start(line, lo, hi, start_rng):
        assert start_rng is rng
        seen.append((line,))
        return lo, None

    def search(line, lo, hi, s, fs, search_rng, violated):
        seen[-1] += (violated, search_rng.getstate())

    with mock.patch.object(L, "sample_nonerased_uniform", start), \
            mock.patch.object(L, "randomized_binary_search_step_loop", search):
        out = list(L._axis_searches(oracle, itertools.repeat(checks, iterations), rng, None))
    assert out == [None] * iterations
    return seen


def line_searches(oracle: QueryOracle, checks, rng, certify):
    """One search over [1, n] of the line oracle itself per pair check of
    ``checks``: its start through ``line.sample_nonerased_uniform``, its
    pivots through ``line.randomized_binary_search_step_loop``.  Yields
    None after a clean pass, else ``certify(a, fa, b, fb)`` for the first
    violated pair."""
    n = oracle.fn.domain.n
    for violated in checks:
        s, fs = L.sample_nonerased_uniform(oracle, 1, n, rng)
        hit = L.randomized_binary_search_step_loop(oracle, 1, n, s, fs, rng, violated)
        yield None if hit is None else certify(*hit)


def all_axis_lines(domain: Domain):
    """Every axis line of the domain, axis by axis."""
    for axis in range(1, domain.d + 1):
        for fixed in itertools.product(range(1, domain.n + 1), repeat=domain.d - 1):
            yield AxisLine(axis, fixed)


def poset_le(poset, a: int, b: int) -> bool:
    """a is below-or-equal b in the poset."""
    return bool(poset._below[b - 1] >> (a - 1) & 1)


def comparable_pairs(poset):
    """Every (a, b) with a strictly below b in the poset."""
    for b in range(1, poset.size + 1):
        mask = poset._below[b - 1]
        for a in range(1, poset.size + 1):
            if a != b and mask >> (a - 1) & 1:
                yield (a, b)


def bdp_to_monotone_transforms(bounds: LineBoundingPair):
    """The suffix-list maps: O(n) to build, one list entry per position."""
    if not bounds.all_finite:
        raise ValueError("transforms need finite bounds on every step")
    n = bounds.n
    lo_suffix = [bounds.seg_lower(i, n) for i in range(1, n + 1)]
    up_suffix = [bounds.seg_upper(i, n) for i in range(1, n + 1)]

    def g_map(i, v):
        return v + lo_suffix[i - 1]

    def h_map(i, v):
        return -v - up_suffix[i - 1]

    return g_map, h_map


def randomized_binary_search_step_loop(oracle, lo, hi, s, fs, rng, on_pivot):
    l, r = lo, hi
    while l <= r:
        if l == r:
            return None
        (m,), fm = sample_nonerased_uniform(oracle, Box((l,), (r,)), rng)
        if s < m:
            r = m - 1
            hit = on_pivot(m, fm, "right")
        elif s > m:
            l = m + 1
            hit = on_pivot(m, fm, "left")
        else:
            return None
        if hit is not None:
            return hit
    return None


def test_monotone_line(oracle: QueryOracle, eps, alpha, rng) -> Verdict:
    n = _line_domain(oracle)
    e, a = _params(eps, alpha)
    oracle.set_budget(monotone_line_budget(n, e, a))
    box = Box.whole(oracle.fn.domain)
    try:
        for _ in range(proximity_iterations(e)):
            (s,), fs = sample_nonerased_uniform(oracle, box, rng)

            def on_pivot(m, fm, side):
                if side == "right" and value_gt(fs, fm):
                    return ((s, fs), (m, fm))
                if side == "left" and value_gt(fm, fs):
                    return ((m, fm), (s, fs))
                return None

            hit = randomized_binary_search_step_loop(oracle, 1, n, s, fs, rng, on_pivot)
            if hit is not None:
                return Verdict.rejected(("monotone-violation",) + hit, oracle.count)
    except BudgetExhausted:
        return Verdict.accepted(BUDGET_EXHAUSTED, oracle.count)
    return Verdict.accepted(ALL_CHECKS_PASSED, oracle.count)


def _search_bdp_direct(oracle, bounds, lo, hi, s, fs, rng):
    def on_pivot(m, fm, side):
        a, fa, b, fb = (s, fs, m, fm) if side == "right" else (m, fm, s, fs)
        if pair_violates(bounds, a, fa, b, fb):
            return ((a, fa), (b, fb))
        return None

    return randomized_binary_search_step_loop(oracle, lo, hi, s, fs, rng, on_pivot)


def test_bdp_line(oracle: QueryOracle, bounds: LineBoundingPair, eps, alpha, rng) -> Verdict:
    n = _line_domain(oracle)
    e, a = _params(eps, alpha)
    if bounds.n != n:
        raise ValueError("bounds length does not match the domain")
    box = Box.whole(oracle.fn.domain)

    if not bounds.all_finite:
        oracle.set_budget(monotone_line_budget(n, e, a))
        try:
            for _ in range(proximity_iterations(e)):
                (s,), fs = sample_nonerased_uniform(oracle, box, rng)
                hit = _search_bdp_direct(oracle, bounds, 1, n, s, fs, rng)
                if hit is not None:
                    return Verdict.rejected(("bdp-violation",) + hit, oracle.count)
        except BudgetExhausted:
            return Verdict.accepted(BUDGET_EXHAUSTED, oracle.count)
        return Verdict.accepted(ALL_CHECKS_PASSED, oracle.count)

    g_map, h_map = bdp_to_monotone_transforms(bounds)
    oracle.set_budget(bdp_line_budget(n, e, a))
    reps = one_sixth_iterations(e)
    try:
        for vmap in (g_map, h_map):
            for _ in range(reps):
                (s,), fs = sample_nonerased_uniform(oracle, box, rng)
                vs = vmap(s, fs)

                def on_pivot(m, fm, side):
                    vm = vmap(m, fm)
                    if side == "right" and value_gt(vs, vm):
                        return ((s, fs), (m, fm))
                    if side == "left" and value_gt(vm, vs):
                        return ((m, fm), (s, fs))
                    return None

                hit = randomized_binary_search_step_loop(oracle, 1, n, s, fs, rng, on_pivot)
                if hit is None:
                    continue
                (pa, fa), (pb, fb) = hit
                if pair_violates(bounds, pa, fa, pb, fb):
                    return Verdict.rejected(("bdp-violation", (pa, fa), (pb, fb)),
                                            oracle.count)
    except BudgetExhausted:
        return Verdict.accepted(BUDGET_EXHAUSTED, oracle.count)
    return Verdict.accepted(ALL_CHECKS_PASSED, oracle.count)


class AxisLineView:
    """The library's axis-line view as it was before its flat-index reads:
    each query builds the grid point and reads it through
    ``QueryOracle.query``, which validates it."""

    __slots__ = ("oracle", "head", "tail")

    def __init__(self, oracle: QueryOracle, line):
        self.oracle = oracle
        self.head = line.fixed[:line.axis - 1]
        self.tail = line.fixed[line.axis - 1:]

    def query(self, pt):
        return self.oracle.query(self.head + pt + self.tail)


def _sample_on_line(view, n: int, rng):
    (p,), v = sample_nonerased_uniform(view, Box((1,), (n,)), rng)
    return p, v


def test_monotone_hypergrid(oracle: QueryOracle, eps, alpha, rng) -> Verdict:
    n, d, e, a = _grid_params(oracle, eps, alpha, 250)
    oracle.set_budget(monotone_hypergrid_budget(n, d, e, a))
    try:
        for _ in range(hypergrid_iterations(d, e, a, 12)):
            line = sample_axis_line(oracle.fn.domain, rng)
            view = AxisLineView(oracle, line)
            s, fs = _sample_on_line(view, n, rng)

            def on_pivot(m, fm, side):
                if side == "right" and value_gt(fs, fm):
                    return ((s, fs), (m, fm))
                if side == "left" and value_gt(fm, fs):
                    return ((m, fm), (s, fs))
                return None

            hit = randomized_binary_search_step_loop(view, 1, n, s, fs, rng, on_pivot)
            if hit is not None:
                (pa, fa), (pb, fb) = hit
                cert = ("monotone-violation", (line.point(pa), fa), (line.point(pb), fb))
                return Verdict.rejected(cert, oracle.count)
    except BudgetExhausted:
        return Verdict.accepted(BUDGET_EXHAUSTED, oracle.count)
    return Verdict.accepted(ALL_CHECKS_PASSED, oracle.count)


def test_bdp_hypergrid(oracle: QueryOracle, family: BoundingFamily,
                       eps, alpha, rng) -> Verdict:
    n, d, e, a = _grid_params(oracle, eps, alpha, 970)
    if family.d != d or family.n != n:
        raise ValueError("bounding family does not match the domain")
    oracle.set_budget(bdp_hypergrid_budget(n, d, e, a))
    try:
        for _ in range(hypergrid_iterations(d, e, a, 48)):
            line = sample_axis_line(oracle.fn.domain, rng)
            bounds = family.per_dim[line.axis - 1]
            view = AxisLineView(oracle, line)
            s, fs = _sample_on_line(view, n, rng)

            if bounds.all_finite:
                g_map, h_map = bdp_to_monotone_transforms(bounds)

                def on_pivot(m, fm, side):
                    pa, fa, pb, fb = (s, fs, m, fm) if side == "right" else (m, fm, s, fs)
                    for vmap in (g_map, h_map):
                        if value_gt(vmap(pa, fa), vmap(pb, fb)):
                            return ((pa, fa), (pb, fb))
                    return None
            else:
                def on_pivot(m, fm, side):
                    pa, fa, pb, fb = (s, fs, m, fm) if side == "right" else (m, fm, s, fs)
                    if pair_violates(bounds, pa, fa, pb, fb):
                        return ((pa, fa), (pb, fb))
                    return None

            hit = randomized_binary_search_step_loop(view, 1, n, s, fs, rng, on_pivot)
            if hit is None:
                continue
            (pa, fa), (pb, fb) = hit
            if pair_violates(bounds, pa, fa, pb, fb):
                cert = ("bdp-violation", (line.point(pa), fa), (line.point(pb), fb))
                return Verdict.rejected(cert, oracle.count)
    except BudgetExhausted:
        return Verdict.accepted(BUDGET_EXHAUSTED, oracle.count)
    return Verdict.accepted(ALL_CHECKS_PASSED, oracle.count)


# ---------------------------------------------------------------------------
# convexity, whose pivot draw the library now makes with the line sampler

NEG_INF = float("-inf")


@dataclass(frozen=True)
class IntervalFrame:
    """One level of the convexity search.

    ``anchors`` are already-queried nonerased (position, value) pairs inside
    [lo, hi]; the slope bounds come with the chords that produced them
    (``None`` chord = unbounded side) so reject certificates can name
    concrete points.
    """

    lo: int
    hi: int
    anchors: tuple
    left_slope: object
    right_slope: object
    search_point: int
    search_value: object
    left_chord: tuple = None
    right_chord: tuple = None

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")
        if not self.lo <= self.search_point <= self.hi:
            raise ValueError("search point outside the interval")
        for pos, _ in self.anchors:
            if not self.lo <= pos <= self.hi:
                raise ValueError("anchor outside the interval")


def _chord_slope(chord):
    (a, fa), (b, fb) = chord
    num = fb - fa
    if isinstance(num, (int, Fraction)):
        return Fraction(num, b - a)
    return num / (b - a)


def test_interval(frame: IntervalFrame, oracle: QueryOracle, rng, counters=None) -> object:
    """The search from ``frame``; ``counters["walking"]`` gains every query
    of the walks, a walk the budget stops included."""
    if counters is None:
        counters = {"walking": 0}
    while True:
        (x,), fx = sample_nonerased_uniform(
            oracle, Box((frame.lo,), (frame.hi,)), rng)

        before = oracle.count
        try:
            right = _walk_nonerased(oracle, x + 1, frame.hi, +1)
            left = _walk_nonerased(oracle, x - 1, frame.lo, -1)
        finally:
            counters["walking"] += oracle.count - before

        merged = {pos: val for pos, val in frame.anchors}
        merged[x] = fx
        for hit in (right, left):
            if hit is not None:
                merged[hit[0]] = hit[1]
        anchor_list = sorted(merged.items())

        chain = []
        if frame.left_chord is not None:
            chain.append((frame.left_slope, frame.left_chord))
        for (a, fa), (b, fb) in zip(anchor_list, anchor_list[1:]):
            chord = ((a, fa), (b, fb))
            chain.append((_chord_slope(chord), chord))
        if frame.right_chord is not None:
            chain.append((frame.right_slope, frame.right_chord))
        for (s1, c1), (s2, c2) in zip(chain, chain[1:]):
            if value_gt(s1, s2):
                return ("convex-violation", c1, c2)

        s = frame.search_point
        if s == x:
            return None
        if s < x:
            z, fz = left
            chord = ((z, fz), (x, fx))
            frame = IntervalFrame(
                frame.lo, z,
                tuple(item for item in anchor_list if item[0] < x),
                frame.left_slope, _chord_slope(chord),
                s, frame.search_value,
                frame.left_chord, chord)
        else:
            y, fy = right
            chord = ((x, fx), (y, fy))
            frame = IntervalFrame(
                y, frame.hi,
                tuple(item for item in anchor_list if item[0] > x),
                _chord_slope(chord), frame.right_slope,
                s, frame.search_value,
                chord, frame.right_chord)


def test_convex_line(oracle: QueryOracle, eps, alpha, rng) -> Verdict:
    """Stats split ``queries_used`` into walking, every query of the walks,
    and sampling, the rest: the starts and pivots, a start or pivot the
    budget stops included."""
    n = _line_domain(oracle)
    e, a = _params(eps, alpha)
    if oracle.fn.kind != "real":
        raise ValueError("convexity is tested for real-valued functions")
    oracle.set_budget(convex_line_budget(n, e, a))
    box = Box.whole(oracle.fn.domain)
    counters = {"walking": 0}

    def stats():
        return {"sampling": oracle.count - counters["walking"], "walking": counters["walking"]}

    try:
        for _ in range(proximity_iterations(e)):
            (s,), fs = sample_nonerased_uniform(oracle, box, rng)
            frame = IntervalFrame(1, n, (), NEG_INF, INF, s, fs)
            cert = test_interval(frame, oracle, rng, counters)
            if cert is not None:
                return Verdict.rejected(cert, oracle.count, stats=stats())
    except BudgetExhausted:
        return Verdict.accepted(BUDGET_EXHAUSTED, oracle.count, stats=stats())
    return Verdict.accepted(ALL_CHECKS_PASSED, oracle.count, stats=stats())


# ---------------------------------------------------------------------------
# the deterministic-pivot baseline, with its own budget shell

def classic_monotone_line(oracle: QueryOracle, eps, alpha, rng) -> Verdict:
    n = oracle.fn.domain.n
    oracle.set_budget(monotone_line_budget(n, eps, alpha))
    try:
        for _ in range(proximity_iterations(eps)):
            s = rng.randint(1, n)
            fs = oracle.query((s,))
            if fs is ERASED:
                continue
            lo, hi = 1, n
            while lo <= hi:
                m = (lo + hi) // 2
                if m == s:
                    break
                fm = oracle.query((m,))
                if fm is not ERASED:
                    # the library's pair rule: descends by ``value_gt``
                    if m < s and value_gt(fm, fs):
                        return Verdict.rejected(
                            ("monotone-violation", (m, fm), (s, fs)), oracle.count)
                    if m > s and value_gt(fs, fm):
                        return Verdict.rejected(
                            ("monotone-violation", (s, fs), (m, fm)), oracle.count)
                if s < m:
                    hi = m - 1
                else:
                    lo = m + 1
    except BudgetExhausted:
        return Verdict.accepted(BUDGET_EXHAUSTED, oracle.count)
    return Verdict.accepted(ALL_CHECKS_PASSED, oracle.count)


# ---------------------------------------------------------------------------
# step bounds with Python-number prefix sums


def _prefix_with_inf(entries, sign):
    """Prefix sums of the finite entries plus a prefix count of infinities.

    ``sign`` is the only infinity each side may carry: -1 for lower bounds,
    +1 for upper bounds.  While every finite entry so far is an integral
    Fraction, the sum is kept as an int and stored as ``Fraction(acc)``: the
    value and type ``finite[-1] + e`` gives, without Fraction addition.
    """
    finite = [0]
    inf_count = [0]
    acc = 0  # None once a finite entry is not an integral Fraction
    for e in entries:
        if isinstance(e, float) and math.isinf(e):
            if (e > 0) != (sign > 0):
                raise ValueError(f"bound entry {e} has the wrong sign")
            finite.append(finite[-1])
            inf_count.append(inf_count[-1] + 1)
        else:
            if acc is not None and type(e) is Fraction and e.denominator == 1:
                acc += e.numerator
                finite.append(Fraction(acc))
            else:
                acc = None
                finite.append(finite[-1] + e)
            inf_count.append(inf_count[-1])
    return finite, inf_count


class PrefixBoundingPair:
    """Step bounds (lower, upper) on [n-1] with lower(i) < upper(i).

    A total g on [n] satisfies the property iff
    lower(i) <= g(i+1) - g(i) <= upper(i) for every step i.
    """

    __slots__ = ("lower", "upper", "_lo_pre", "_lo_inf", "_up_pre", "_up_inf")

    def __init__(self, lower, upper):
        lower = tuple(lower)
        upper = tuple(upper)
        if len(lower) != len(upper):
            raise ValueError("lower and upper must have equal length")
        for l, u in zip(lower, upper):
            if not value_gt(u, l):
                raise ValueError(f"need lower < upper, got {l} vs {u}")
        self.lower = lower
        self.upper = upper
        self._lo_pre, self._lo_inf = _prefix_with_inf(lower, -1)
        self._up_pre, self._up_inf = _prefix_with_inf(upper, +1)

    @property
    def n(self) -> int:
        return len(self.lower) + 1

    @classmethod
    def monotone(cls, n: int) -> "PrefixBoundingPair":
        return cls([0] * (n - 1), [INF] * (n - 1))

    @classmethod
    def lipschitz(cls, n: int, c=1) -> "PrefixBoundingPair":
        return cls([-c] * (n - 1), [c] * (n - 1))

    @property
    def all_finite(self) -> bool:
        return self._lo_inf[-1] == 0 and self._up_inf[-1] == 0

    def seg_lower(self, a: int, b: int):
        """Sum of lower(t) for t in [a, b); -inf if the segment holds one."""
        if not 1 <= a <= b <= self.n:
            raise ValueError(f"bad segment [{a}, {b})")
        if self._lo_inf[b - 1] - self._lo_inf[a - 1] > 0:
            return -INF
        return self._lo_pre[b - 1] - self._lo_pre[a - 1]

    def seg_upper(self, a: int, b: int):
        if not 1 <= a <= b <= self.n:
            raise ValueError(f"bad segment [{a}, {b})")
        if self._up_inf[b - 1] - self._up_inf[a - 1] > 0:
            return INF
        return self._up_pre[b - 1] - self._up_pre[a - 1]


def prefix_transforms(bounds: PrefixBoundingPair):
    """The O(1) value maps (G, H) over a ``PrefixBoundingPair``'s sums."""
    if not bounds.all_finite:
        raise ValueError("transforms need finite bounds on every step")
    lo_pre, up_pre = bounds._lo_pre, bounds._up_pre
    lo_total, up_total = lo_pre[-1], up_pre[-1]

    def g_map(i, v):
        return v + (lo_total - lo_pre[i - 1])

    def h_map(i, v):
        return -v - (up_total - up_pre[i - 1])

    return g_map, h_map

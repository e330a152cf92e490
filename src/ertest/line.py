"""Testers for properties of functions on a line [n].

The first half of the module is bound bookkeeping: a pair of per-step bound
functions (lower, upper) describes a bounded-derivative property, with
monotonicity as the one-sided special case lower = 0, upper = +inf.  Segment
sums evaluate in extended-real arithmetic; lower entries may be -inf and upper
entries +inf, so a directed sum never mixes opposite infinities.

The second half holds the testers, the deterministic-pivot baseline
``classic_monotone_line`` among them.  A line is its own one axis line, so the
binary-search testers here and in ``hypergrid`` share ``_axis_searches``.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
import sys
from fractions import Fraction
from random import Random

from .core import (
    ERASED,
    INF,
    ALL_CHECKS_PASSED,
    BUDGET_EXHAUSTED,
    BudgetExhausted,
    ConfigError,
    ErasedFunction,
    QueryOracle,
    Verdict,
    ceil_frac,
    check_params,
    draw,
    exact_log2,
    holds_values,
    value_gt,
)


def _step_side(entries, sign):
    """One side of step bounds from C-level passes: (keys, sums, infs).

    ``sign`` names the side's one allowed infinity: -1 lower, +1 upper.
    ``sums`` are the prefix sums of the finite steps, ``infs`` the prefix
    counts of infinite steps.  A side is integral exactly when every entry
    is an int or that infinity: ``keys`` is then the entries themselves and
    the sums are plain ints.  On any other side ``keys`` is None and the
    sums are the entries' own left fold, in the types their arithmetic gives.
    ``sums`` is an unread ``accumulate``, which the caller lists only after
    its order check: a pair that check refuses raises the check's error,
    not one from summing.
    """
    inf, size = sign * INF, len(entries)
    types = list(map(type, entries))
    kinds = set(types)
    finite, infs, integral = entries, [0] * (size + 1), kinds <= {int}
    if kinds - {int, Fraction}:  # a float, or a float subclass such as numpy's
        # float.__eq__ answers True only for an equal number (NotImplemented
        # for a Fraction), so the flags mark exactly this side's infinities;
        # any other float (finite, NaN, the other infinity) goes unmarked
        flags = list(map(operator.is_, map(inf.__eq__, entries), itertools.repeat(True)))
        infs = list(itertools.accumulate(flags, initial=0))
        integral = kinds <= {int, float} and infs[-1] == types.count(float)
        if infs[-1]:
            finite = [0 if hit else e for e, hit in zip(entries, flags)]
    return entries if integral else None, itertools.accumulate(finite, initial=0), infs


def _steps_ordered(lo, up) -> bool:
    """lower < upper at every step of two ``_step_side`` sides, decided as
    ``value_gt`` decides it, or False when this cannot be decided here: a
    side has no keys, or a side holds an infinity while some entry is too
    large for the float that ``value_gt`` turns it into beside one."""
    (lo_keys, _, lo_infs), (up_keys, _, up_infs) = lo, up
    if lo_keys is None or up_keys is None:
        return False
    if lo_infs[-1] or up_infs[-1]:
        try:
            sum(map(float, itertools.chain(lo_keys, up_keys)))
        except OverflowError:
            return False
    return all(map(operator.gt, up_keys, lo_keys))


def _shown(v) -> str:
    """``str(v)``, or, for a number with more digits than CPython's int
    conversion limit lets ``str`` write, its type and that limit."""
    try:
        return str(v)
    except ValueError:
        return f"a {type(v).__name__} of over {sys.get_int_max_str_digits()} digits"


class LineBoundingPair:
    """Step bounds (lower, upper) on [n-1] with lower(i) < upper(i).

    A total g on [n] satisfies the property iff
    lower(i) <= g(i+1) - g(i) <= upper(i) for every step i.

    Each side's prefix sums come from ``_step_side`` in O(n) C-level
    passes.  A side is integral exactly when every entry is an int or its
    own infinity: it sums plain ints, and lower < upper is then one int
    comparison per step.  Any other side sums its entries themselves, in
    their own types, so a segment sum is the difference of two such prefix
    sums.  Where the int comparison cannot decide, ``value_gt`` checks step
    by step and raises at the first bad step, before any side is summed.
    """

    __slots__ = ("lower", "upper", "_lo_pre", "_lo_inf", "_up_pre", "_up_inf")

    def __init__(self, lower, upper):
        lower = tuple(lower)
        upper = tuple(upper)
        if len(lower) != len(upper):
            raise ValueError("lower and upper must have equal length")
        lo, up = _step_side(lower, -1), _step_side(upper, +1)
        if not _steps_ordered(lo, up):
            for l, u in zip(lower, upper):
                if not value_gt(u, l):
                    raise ValueError(f"need lower < upper, got {_shown(l)} vs {_shown(u)}")
        self.lower = lower
        self.upper = upper
        _, lo_sums, self._lo_inf = lo
        _, up_sums, self._up_inf = up
        self._lo_pre, self._up_pre = list(lo_sums), list(up_sums)

    @property
    def n(self) -> int:
        return len(self.lower) + 1

    @classmethod
    def monotone(cls, n: int) -> "LineBoundingPair":
        return cls([0] * (n - 1), [INF] * (n - 1))

    @classmethod
    def lipschitz(cls, n: int, c=1) -> "LineBoundingPair":
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


def pair_violates(bounds: LineBoundingPair, a: int, fa, b: int, fb) -> bool:
    """For a < b: does the pair drop faster than the lower bounds allow,
    f(a) - f(b) > -(sum of lower over [a, b)), or rise faster than the upper
    bounds allow, f(b) - f(a) > sum of upper over [a, b)?"""
    s = bounds.seg_lower(a, b)
    if s != -INF and value_gt(fa - fb, -s):
        return True
    s = bounds.seg_upper(a, b)
    return s != INF and value_gt(fb - fa, s)


def bdp_to_monotone_transforms(bounds: LineBoundingPair):
    """Value maps (G, H) such that a pair violates the bounded-derivative
    property iff it violates monotonicity under G or under H.

    G(i, v) = v + sum of lower over [i, n); H(i, v) = -v - sum of upper over
    [i, n).  These equal the half-sum recentering followed by the symmetric
    slack subtraction, folded into one shift per side.  Each map is O(1): it
    evaluates the same prefix-sum difference as ``seg_lower(i, n)`` and
    ``seg_upper(i, n)``, with the same value and type, so int, Fraction and
    float values come out the same.
    Requires finite bounds.
    """
    if not bounds.all_finite:
        raise ValueError("transforms need finite bounds on every step")
    lo_pre, up_pre = bounds._lo_pre, bounds._up_pre
    lo_total, up_total = lo_pre[-1], up_pre[-1]

    def g_map(i, v):
        return v + (lo_total - lo_pre[i - 1])

    def h_map(i, v):
        return -v - (up_total - up_pre[i - 1])

    return g_map, h_map


# ---------------------------------------------------------------------------
# testers

def _log_budget(factor, n: int, eps, alpha) -> int:
    """ceil(factor * log2(n) / (eps (1 - alpha))), worked out once per
    ``factor``, n and exact (eps, alpha): the cache is keyed on what
    ``check_params`` returns, never on the raw arguments, since the float
    0.3 and ``Fraction(0.3)`` hash equal but check to different rationals."""
    return _exact_log_budget(factor, n, *check_params(eps, alpha))


@functools.lru_cache(maxsize=1024)
def _exact_log_budget(factor, n: int, e: Fraction, a: Fraction) -> int:
    return ceil_frac(factor * exact_log2(n) / (e * (1 - a)))


def monotone_line_budget(n: int, eps, alpha) -> int:
    return _log_budget(60, n, eps, alpha)


def convex_line_budget(n: int, eps, alpha) -> int:
    return _log_budget(180, n, eps, alpha)


def bdp_line_budget(n: int, eps, alpha) -> int:
    """Two monotonicity searches at proximity eps/4 share one budget."""
    return 2 * _log_budget(240, n, eps, alpha)  # 60 / (eps/4) = 240 / eps


def bdp_line_tester_budget(bounds: LineBoundingPair, eps, alpha) -> int:
    """The budget ``test_bdp_line`` runs under: two views' worth with finite
    bounds, one monotonicity search's worth when a bound is infinite."""
    if bounds.all_finite:
        return bdp_line_budget(bounds.n, eps, alpha)
    return monotone_line_budget(bounds.n, eps, alpha)


def proximity_iterations(eps) -> int:
    return ceil_frac(2 / check_params(eps)[0])


def one_sixth_iterations(eps) -> int:
    """Repetitions driving one view's miss probability below 1/6:
    (1 - eps/4)^t <= exp(-t*eps/4) <= 1/6 at t = 4 ln 6 / eps."""
    return ceil_frac(Fraction(4 * math.log(6)) / check_params(eps)[0])


def _line_domain(oracle: QueryOracle) -> int:
    if not oracle.fn.domain.is_line:
        raise ValueError("this tester runs on line domains")
    return oracle.fn.domain.n


def check_bounds(tag: str, bounds, want, domain=None) -> None:
    """The one refusal of step bounds that do not fit, for every caller:
    ``bounds`` must be a ``want`` (``LineBoundingPair`` or
    ``BoundingFamily``) and, given a domain, share its n and d."""
    if not isinstance(bounds, want):
        raise ConfigError(f"{tag} needs {want.__name__} bounds, got {type(bounds).__name__}")
    d = getattr(bounds, "d", 1)  # a LineBoundingPair spans one dimension
    if domain is not None and (bounds.n, d) != (domain.n, domain.d):
        raise ConfigError(f"{tag} bounds have n={bounds.n}, d={d}; "
                          f"the domain has n={domain.n}, d={domain.d}")


def sample_nonerased_uniform(line, lo: int, hi: int, rng):
    """A uniform nonerased position of [lo, hi] on a line oracle (or an axis
    line of a grid), with its value.  Each draw is one ``draw(rng, lo, hi)``
    (``getrandbits`` on a plain ``Random``, ``rng.randint`` otherwise) and
    one read of ``line.query_index(m - 1)``, so erasures are paid for in
    budget; a fully erased range ends only through ``BudgetExhausted``.

    The convexity search's starts and pivots come through here.  The starts
    and pivots of ``_axis_searches`` do too whenever ``_fuses`` refuses the
    fused search: ``_fused_search`` draws and reads as this function does,
    draw for draw, and steps aside whenever this module-global name is
    bound to anything else (a tracer's counting wrapper, say)."""
    while True:
        m = draw(rng, lo, hi)
        v = line.query_index(m - 1)
        if v is not ERASED:
            return m, v


_SAMPLER = sample_nonerased_uniform  # the library's own, to tell a rebound name by


def _fuses(oracle, rng) -> bool:
    """Whether the searches of one tester call on ``oracle`` with ``rng``
    may run ``_fused_search``: ``rng`` a plain ``Random``, ``oracle`` a
    plain ``QueryOracle`` with its budget set, and
    ``sample_nonerased_uniform`` still the library's own function.  Any
    other oracle (a recording subclass, say), RNG or rebound sampler name
    takes ``_axis_searches``' sampler path."""
    return (type(rng) is Random and type(oracle) is QueryOracle
            and oracle.budget is not None and sample_nonerased_uniform is _SAMPLER)


def randomized_binary_search_step_loop(oracle, lo, hi, s, fs, rng, violated):
    """One random search path for s: sample a nonerased pivot m from the
    current interval through ``sample_nonerased_uniform``, halve toward s,
    stop when the pivot is s itself.  Returns the first pair (a, fa, b, fb)
    of s and a pivot, ordered so that a < b, which ``violated(a, fa, b,
    fb)`` flags, or None for a clean pass.  ``violated`` reads no oracle.

    The interval always contains s, so a singleton is s itself; drawing the
    forced pivot would add a query and check nothing.  ``_fused_search``
    runs this loop in its own frame when ``_fuses`` allows it."""
    l, r = lo, hi
    while l < r:
        m, fm = sample_nonerased_uniform(oracle, l, r, rng)
        if m == s:
            return None
        if s < m:
            r, pair = m - 1, (s, fs, m, fm)
        else:
            l, pair = m + 1, (m, fm, s, fs)
        if violated(*pair):
            return pair
    return None


def _fused_search(oracle, base: int, stride: int, n: int, rng, violated):
    """One search over [1, n] of a line in one frame, for the searches
    ``_fuses`` allows: position p is flat index ``base + p * stride`` of
    ``oracle.fn.values`` (``base = -1, stride = 1`` on a line oracle).

    One draw-and-read loop serves the search: its first pass draws the
    start over [1, n], each later pass a pivot that halves the interval
    toward it as the step loop does, each by ``draw``'s ``getrandbits``
    rule, redrawn on an erased read.  The query count stays in a local,
    written back in a ``finally``; ``BudgetExhausted(count)`` is raised at
    the query ``query`` raises it at, after its draw.  It matches the
    sampler path draw for draw: the same start, pivots, pairs checked,
    result, ``oracle.count`` and ``rng.getstate()``."""
    getrandbits, values = rng.getrandbits, oracle.fn.values
    budget, count = oracle.budget, oracle.count
    l, r, s = 1, n, None
    try:
        while s is None or l < r:
            span = r - l + 1
            k = span.bit_length()
            while True:
                x = getrandbits(k)
                while x >= span:
                    x = getrandbits(k)
                if count >= budget:
                    raise BudgetExhausted(count)
                count += 1
                m = l + x
                fm = values[base + m * stride]
                if fm is not ERASED:
                    break
            if s is None:
                s, fs = m, fm
                continue
            if m == s:
                return None
            if s < m:
                r, pair = m - 1, (s, fs, m, fm)
            else:
                l, pair = m + 1, (m, fm, s, fs)
            if violated(*pair):
                return pair
        return None
    finally:
        oracle.count = count


def _run_searches(oracle: QueryOracle, budget: int, searches) -> Verdict:
    """The budgeted shell every search tester runs in.

    ``searches`` yields one certificate or None per search, drawing lazily
    once the budget is set; the first certificate rejects.  A spent budget
    accepts.  The verdict carries no stats.
    """
    oracle.set_budget(budget)
    cert, reason = None, ALL_CHECKS_PASSED
    try:
        for cert in searches:
            if cert is not None:
                break
    except BudgetExhausted:
        reason = BUDGET_EXHAUSTED
    if cert is not None:
        return Verdict.rejected(cert, oracle.count)
    return Verdict.accepted(reason, oracle.count)


class _AxisLineView:
    """One axis line of a grid oracle, presented as a line oracle; the
    budget is the oracle's.  A line oracle is its own one axis line.

    Position p of the line along ``axis`` (1-based) is flat index
    ``base + (p - 1) * stride`` (``Domain.index_of``'s order, with
    ``stride = n ** (axis - 1)`` and ``base`` the index of the line's first
    point), so ``query_index(p - 1)`` reads it as a line oracle would: it
    checks 1 <= p <= n and reads ``oracle.query_index`` without building a
    point, and ``point(p)`` builds the grid point only for a certificate."""

    __slots__ = ("oracle", "axis", "n", "base", "stride")

    def __init__(self, oracle: QueryOracle, axis: int, n: int, base: int, stride: int):
        self.oracle, self.axis, self.n, self.base, self.stride = oracle, axis, n, base, stride

    def query_index(self, i: int):
        if not 0 <= i < self.n:
            raise ValueError(f"position {i + 1} outside the axis line [1, {self.n}]")
        return self.oracle.query_index(self.base + i * self.stride)

    def point(self, p: int) -> tuple:
        return self.oracle.fn.domain.point_at(self.base + (p - 1) * self.stride)


def _axis_searches(oracle: QueryOracle, checks, rng, certify):
    """The search generator of the binary-search testers, line and grid.
    ``checks`` yields one tuple of per-axis pair checks per search, which
    runs along a uniform axis line with the check of that line's axis.
    Yields None after a clean pass, else ``certify(view, a, fa, b, fb)``
    for the first violated pair (a < b), itself None to go on searching.

    Each line is one draw of its index x in [0, d * n ** (d - 1)) by
    ``draw``'s plain-``Random`` rule on ``rng.getrandbits``; a line oracle
    is its own one axis line, drawn as ``getrandbits(0)``, which is 0 and
    leaves ``rng``'s state as it was.  ``divmod(x, n ** (d - 1))`` gives
    the 0-based axis r and the index j among that axis' lines, whose
    base-n digits, lowest first, are the other coordinates less 1; the
    line's first point is flat index ``j % n ** r + j // n ** r * n **
    (r + 1)``.  ``_fuses`` decides once how every search runs: by
    ``_fused_search``, with an ``_AxisLineView`` built only for a pair that
    goes to ``certify``, or over each line's view, the start through
    ``sample_nonerased_uniform`` and the pivots through
    ``randomized_binary_search_step_loop``, each by its module-global name."""
    n, d = oracle.fn.domain.n, oracle.fn.domain.d
    lines = n ** (d - 1)
    span = d * lines
    getrandbits, k = rng.getrandbits, span.bit_length() if span > 1 else 0
    strides = [n ** r for r in range(d)]
    fused = _fuses(oracle, rng)
    for per_axis in checks:
        x = getrandbits(k)
        while x >= span:
            x = getrandbits(k)
        r, j = divmod(x, lines)
        stride, violated = strides[r], per_axis[r]
        base = j % stride + j // stride * stride * n
        if fused:
            hit = _fused_search(oracle, base - stride, stride, n, rng, violated)
            if hit is None:
                yield None
                continue
        view = _AxisLineView(oracle, r + 1, n, base, stride)
        if not fused:
            s, fs = sample_nonerased_uniform(view, 1, n, rng)
            hit = randomized_binary_search_step_loop(view, 1, n, s, fs, rng, violated)
        yield None if hit is None else certify(view, *hit)


def _descends(a, fa, b, fb) -> bool:
    """The monotone pair check, search and certificate alike: ``fa > fb``
    for two ints, what ``value_gt`` gives them, else ``value_gt``."""
    if type(fa) is int and type(fb) is int:
        return fa > fb
    return value_gt(fa, fb)


def _bdp_views(bounds: LineBoundingPair):
    """The pair checks of finite ``bounds``' views: (G, H, either).  A pair
    a < b violates monotonicity under G iff f(a) - f(b) > lo_pre[a-1] -
    lo_pre[b-1], and under H iff f(b) - f(a) > up_pre[b-1] - up_pre[a-1]:
    ``pair_violates``' two clauses, so a flagged pair is its certificate.
    When both sides sum plain ints (``_step_side``'s integral sides) and
    both values are ints, a check is that int comparison; any other value
    or side compares the same differences with ``value_gt``."""
    lo_pre, up_pre = bounds._lo_pre, bounds._up_pre
    ints = type(lo_pre[-1]) is int and type(up_pre[-1]) is int  # no Fraction or float sum

    def g_view(a, fa, b, fb):
        if ints and type(fa) is int and type(fb) is int:
            return fa - fb > lo_pre[a - 1] - lo_pre[b - 1]
        return value_gt(fa - fb, lo_pre[a - 1] - lo_pre[b - 1])

    def h_view(a, fa, b, fb):
        if ints and type(fa) is int and type(fb) is int:
            return fb - fa > up_pre[b - 1] - up_pre[a - 1]
        return value_gt(fb - fa, up_pre[b - 1] - up_pre[a - 1])

    def either(a, fa, b, fb):  # one frame for both int tests on every grid pivot
        if ints and type(fa) is int and type(fb) is int:
            return (fa - fb > lo_pre[a - 1] - lo_pre[b - 1]
                    or fb - fa > up_pre[b - 1] - up_pre[a - 1])
        return g_view(a, fa, b, fb) or h_view(a, fa, b, fb)

    return g_view, h_view, either


def _bdp_check(bounds: LineBoundingPair):
    """The pair check a bounded-derivative search runs: either view of
    ``_bdp_views`` with finite bounds, the directed segment sums otherwise."""
    if not bounds.all_finite:
        return functools.partial(pair_violates, bounds)
    return _bdp_views(bounds)[2]


def test_monotone_line(oracle: QueryOracle, eps, alpha, rng) -> Verdict:
    """Accepts every function with a monotone restoration; rejects functions
    whose every restoration is eps-far on the nonerased points with
    probability at least 2/3.  Reject verdicts carry the violated pair."""
    n = _line_domain(oracle)
    e, a = check_params(eps, alpha)
    checks = itertools.repeat((_descends,), proximity_iterations(e))
    return _run_searches(oracle, monotone_line_budget(n, e, a), _axis_searches(
        oracle, checks, rng, lambda _, pa, fa, pb, fb: ("monotone-violation", (pa, fa), (pb, fb))))


def classic_monotone_line(oracle: QueryOracle, eps, alpha, rng) -> Verdict:
    """Sortedness spot-checker with DETERMINISTIC midpoint pivots.  Not
    erasure-resilient: an erased pivot is skipped without any comparison, so
    erasing the top of the search tree blinds it.  Shipped for A/B runs
    against the randomized-pivot tester; budgeted identically."""
    n = _line_domain(oracle)

    def searches():
        for _ in range(proximity_iterations(eps)):
            s = draw(rng, 1, n)
            fs = oracle.query_index(s - 1)
            lo, hi = 1, n
            while fs is not ERASED and lo <= hi:
                m = (lo + hi) // 2
                if m == s:
                    break
                fm = oracle.query_index(m - 1)
                if fm is not ERASED:
                    a, fa, b, fb = (m, fm, s, fs) if m < s else (s, fs, m, fm)
                    if _descends(a, fa, b, fb):
                        yield ("monotone-violation", (a, fa), (b, fb))
                if s < m:
                    hi = m - 1
                else:
                    lo = m + 1

    return _run_searches(oracle, monotone_line_budget(n, eps, alpha), searches())


def test_bdp_line(oracle: QueryOracle, bounds: LineBoundingPair, eps, alpha, rng) -> Verdict:
    """Bounded-derivative tester via two monotonicity views.

    With finite bounds, value maps G and H turn derivative violations into
    monotonicity violations; each view gets a search loop at proximity eps/4
    with enough repetitions for a 1/6 miss bound, so the union misses with
    probability at most 1/3.  One-sided-infinite bounds skip the maps and
    check the directed segment sums on the search path directly.
    """
    n = _line_domain(oracle)
    e, a = check_params(eps, alpha)
    check_bounds("bdp-line", bounds, LineBoundingPair, oracle.fn.domain)

    def certify(_, pa, fa, pb, fb):
        return ("bdp-violation", (pa, fa), (pb, fb))

    if not bounds.all_finite:
        checks = itertools.repeat((_bdp_check(bounds),), proximity_iterations(e))
    else:
        g_view, h_view, _ = _bdp_views(bounds)
        reps = one_sixth_iterations(e)
        checks = itertools.chain(itertools.repeat((g_view,), reps),
                                 itertools.repeat((h_view,), reps))
    return _run_searches(oracle, bdp_line_tester_budget(bounds, e, a),
                         _axis_searches(oracle, checks, rng, certify))


# ---------------------------------------------------------------------------
# convexity

def _slope(p, q):
    """Slope of the chord from p to q, each a (position, value) pair: exact
    for int and Fraction values, float otherwise."""
    (a, fa), (b, fb) = p, q
    num = fb - fa
    if isinstance(num, (int, Fraction)):
        return Fraction(num, b - a)
    return num / (b - a)


def _link(p, q):
    """The slope key of the chord from p to q: (rise, run) when both values
    are ints, else ``_slope(p, q)``, computed once."""
    (a, fa), (b, fb) = p, q
    if type(fa) is int and type(fb) is int:
        return fb - fa, b - a
    return _slope(p, q)


def _link_gt(s1, s2) -> bool:
    """Slope s1 > slope s2 for two ``_link`` keys: by cross products when
    both are (rise, run), else by ``value_gt`` with a (rise, run) key as
    ``Fraction(rise, run)``, the value ``_slope`` gives it."""
    if type(s1) is tuple:
        if type(s2) is tuple:
            return s1[0] * s2[1] > s2[0] * s1[1]  # runs are positive
        s1 = Fraction(*s1)
    if type(s2) is tuple:
        s2 = Fraction(*s2)
    return value_gt(s1, s2)


def _walk_nonerased(oracle, start, stop, step):
    """Linear scan start, start+step, ... within [min,max]=sorted((start,stop));
    returns (pos, value) of the first nonerased point or None."""
    for pos in range(start, stop + step, step):
        v = oracle.query_index(pos - 1)
        if v is not ERASED:
            return pos, v
    return None


def convex_search(oracle: QueryOracle, s: int, rng, counters) -> object:
    """Recursive goodness check for the nonerased search point s, run
    iteratively: each loop pass is one recursion level, and only the side
    holding s recurses.

    A level has an interval [lo, hi] and a (slope, chord) bound per side,
    None while that side is unbounded; the low bound's chord ends at lo and
    the high bound's starts at hi.  Per level: sample a nonerased pivot x
    through ``sample_nonerased_uniform``, walk outward for the nearest
    nonerased neighbors y right and z left, and test that the chord slopes
    over the points lo, z, x, y, hi (those known, each position once) fit
    between the bounds.  Then descend toward s, taking the chord (z,x) or
    (x,y) as the new bound.  ``counters["walking"]`` gains every query the
    walks make, a walk the budget stops included.  A level builds at most 4
    chords and compares at most 5 pairs, by ``_link_gt``, the one chord rule
    of the search, the certificate check and ``oracles.is_member_convex_values``.

    Returns None (accept) or a certificate ("convex-violation", chord_a,
    chord_b) where chord_a sits left of chord_b but has the larger slope.
    """
    lo, hi = 1, oracle.fn.domain.n
    low = high = None
    while True:
        x, fx = sample_nonerased_uniform(oracle, lo, hi, rng)
        before = oracle.count
        try:
            right = _walk_nonerased(oracle, x + 1, hi, +1)
            left = _walk_nonerased(oracle, x - 1, lo, -1)
        finally:
            counters["walking"] += oracle.count - before

        # a walk may stop on a bound's end, and x may be one
        points = []
        for p in (low and low[1][1], left, (x, fx), right, high and high[1][0]):
            if p is not None and not (points and points[-1][0] == p[0]):
                points.append(p)

        chain = [] if low is None else [low]
        chain += [(_link(p, q), (p, q)) for p, q in zip(points, points[1:])]
        if high is not None:
            chain.append(high)
        for (s1, c1), (s2, c2) in zip(chain, chain[1:]):
            if _link_gt(s1, s2):
                return ("convex-violation", c1, c2)

        if s == x:
            return None
        # points[i] is x: chain[k] is the chord (z, x), chain[k + 1] is (x, y)
        i = points.index((x, fx))
        k = i - (low is None)
        if s < x:
            hi, high = left[0], chain[k]
        else:
            lo, low = right[0], chain[k + 1]


def test_convex_line(oracle: QueryOracle, eps, alpha, rng) -> Verdict:
    """Accepts every function with a convex restoration; rejects functions
    whose every restoration is eps-far on the nonerased points with
    probability at least 2/3.  Verdict stats split ``queries_used`` into
    walking, every query of the walks, and sampling, the rest."""
    n = _line_domain(oracle)
    e, a = check_params(eps, alpha)
    if oracle.fn.kind != "real":
        raise ValueError("convexity is tested for real-valued functions")
    counters = {"walking": 0}

    def searches():
        for _ in range(proximity_iterations(e)):
            s, _ = sample_nonerased_uniform(oracle, 1, n, rng)
            yield convex_search(oracle, s, rng, counters)

    verdict = _run_searches(oracle, convex_line_budget(n, e, a), searches())
    w = counters["walking"]
    return dataclasses.replace(verdict, stats={"sampling": verdict.queries_used - w, "walking": w})


# ---------------------------------------------------------------------------
# certificate checking against the raw function

def check_line_certificate(fn: ErasedFunction, certificate,
                           bounds: LineBoundingPair = None) -> bool:
    """Validates a reject certificate against the function itself, outside
    any oracle.  False means the certificate is bogus, or not of the shape
    its kind has: (kind, pair, pair), each pair (position, value), and for
    convexity each pair itself two (position, value) pairs; ``check_bounds``
    refuses a bdp certificate's misfit bounds."""
    try:
        kind, c1, c2 = certificate
        if kind == "convex-violation":
            ((a, fa), (b, fb)), ((c, fc), (d, fd)) = c1, c2
        else:
            (a, fa), (b, fb) = c1, c2
    except (TypeError, ValueError):  # not of its kind's shape
        return False
    if kind == "bdp-violation":
        check_bounds("bdp-line", bounds, LineBoundingPair, fn.domain)
    if kind in ("monotone-violation", "bdp-violation"):
        # the pair rule the search applied
        return (holds_values(fn, [((a,), fa), ((b,), fb)]) and a < b
                and (_descends(a, fa, b, fb) if kind == "monotone-violation"
                     else pair_violates(bounds, a, fa, b, fb)))
    if kind == "convex-violation":
        if not holds_values(fn, [((a,), fa), ((b,), fb), ((c,), fc), ((d,), fd)]):
            return False
        if not (a < b and c < d and a <= c and b <= d and (a, b) != (c, d)):
            return False
        return _link_gt(_link((a, fa), (b, fb)), _link((c, fc), (d, fd)))
    return False

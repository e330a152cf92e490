"""Line testers: budgets, the g/h reduction, search-tree combinatorics, and
the convexity interval procedure."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ertest.core import (
    ALL_CHECKS_PASSED,
    BUDGET_EXHAUSTED,
    ERASED,
    Domain,
    ErasedFunction,
    QueryOracle,
    value_gt,
)
from ertest.adversary import erase_random
from ertest.hypergrid import BoundingFamily
from ertest.line import (
    INF,
    LineBoundingPair,
    bdp_line_budget,
    bdp_to_monotone_transforms,
    check_line_certificate,
    convex_line_budget,
    convex_search,
    monotone_line_budget,
    one_sixth_iterations,
    pair_violates,
    proximity_iterations,
    randomized_binary_search_step_loop,
    _bdp_check,
    _exact_log_budget,
    _link,
    _link_gt,
    _slope,
    _step_side,
)
# aliased so pytest does not collect the library entry points as tests
from ertest.line import test_bdp_line as run_bdp
from ertest.line import test_convex_line as run_convex
from ertest.line import test_monotone_line as run_monotone
from ertest import oracles as O
from ertest.rng import make_rng

import reference_testers as ref


def _plain_prefix_with_inf(entries):
    """Prefix sums of the finite entries, each added by plain ``+``, and
    prefix counts of the infinite ones."""
    finite = [0]
    inf_count = [0]
    for e in entries:
        if isinstance(e, float) and math.isinf(e):
            finite.append(finite[-1])
            inf_count.append(inf_count[-1] + 1)
        else:
            finite.append(finite[-1] + e)
            inf_count.append(inf_count[-1])
    return finite, inf_count


_PREFIX_ENTRIES = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    st.integers(-10 ** 20, 10 ** 20).map(Fraction),  # integral Fractions
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 6)),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([INF, -INF]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.integers(-9, 9).map(Fraction), _PREFIX_ENTRIES), max_size=12),
       st.sampled_from([-1, 1]))
def test_prefix_sums_equal_plain_accumulation(entries, sign):
    """``_step_side``'s sums equal plain addition element by element in
    value and type, and its infinity counts equal plain counting.  Every
    infinity carries the side's own sign: the order check refuses any other
    before a side is summed.  Integral Fractions come first often, so their
    Fraction sums then meet every other kind of entry."""
    entries = tuple(sign * INF if isinstance(e, float) and math.isinf(e) else e
                    for e in entries)
    _, sums, infs = _step_side(entries, sign)
    finite, inf_count = _plain_prefix_with_inf(entries)
    assert [(type(x), x) for x in sums] == [(type(x), x) for x in finite]
    assert infs == inf_count


def _surface(build, transforms):
    """Everything a caller can read of the bounds ``build()`` makes, by repr
    (so by value and type), or the type and message of the error it raises."""
    def attempt(f, *args):
        try:
            return repr(f(*args))
        except Exception as exc:  # the outcome under test, whatever it is
            return type(exc), str(exc)

    try:
        b = build()
    except Exception as exc:
        return type(exc), str(exc)
    n = b.n
    out = [b.n, b.all_finite, repr(b.lower), repr(b.upper)]
    out += [(attempt(b.seg_lower, a, c), attempt(b.seg_upper, a, c))
            for a in range(1, n + 1) for c in range(a, n + 1)]
    try:
        g_map, h_map = transforms(b)
    except ValueError as exc:
        return out + [str(exc)]
    for i in range(1, n + 1):
        for v in (0, -3, Fraction(7, 3), 0.5, 10 ** 20):
            out.append((attempt(g_map, i, v), attempt(h_map, i, v)))
    return out


# the exact kinds the int prefix sums take, huge magnitudes (beyond a float)
# included, and the same mix with the kinds that fall back
_EXACT_ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).map(Fraction),
    st.integers(-2 ** 1100, 2 ** 1100),
    st.sampled_from([INF, -INF]),
)
_STEP_ENTRIES = st.one_of(_EXACT_ENTRIES, _PREFIX_ENTRIES, st.just(True))


@st.composite
def _step_bounds(draw):
    """(lower, upper) of one length; most often each step is put in order
    by ``value_gt``, so that most draws construct."""
    entries = draw(st.sampled_from([_EXACT_ENTRIES, _STEP_ENTRIES]))
    steps = draw(st.lists(st.tuples(entries, entries), max_size=7))
    if draw(st.integers(0, 3)):
        steps = [(u, l) if value_gt(l, u) else (l, u) for l, u in steps]
    return [l for l, _ in steps], [u for _, u in steps]


@settings(max_examples=600, deadline=None)
@given(_step_bounds())
# a huge int beside the wrong infinity: the order check's error, not the sum's
@example(([2 ** 1024, INF], [0, 0]))
@example(([Fraction(1), Fraction(1, 3)], [INF, INF]))
@example(([0, -INF], [INF, Fraction(5)]))
def test_bounding_pair_surface_equals_reference(bounds):
    lower, upper = bounds
    assert (_surface(lambda: LineBoundingPair(lower, upper), bdp_to_monotone_transforms)
            == _surface(lambda: ref.PrefixBoundingPair(lower, upper), ref.prefix_transforms))


def test_bounding_pair_counts_infinities_of_a_float_subclass():
    """A side of numpy floats alone holds its infinity as a float side does."""
    np = pytest.importorskip("numpy")
    lower, upper = [0, 0, 0], list(np.array([1.5, np.inf, 2.0]))
    assert (_surface(lambda: LineBoundingPair(lower, upper), bdp_to_monotone_transforms)
            == _surface(lambda: ref.PrefixBoundingPair(lower, upper), ref.prefix_transforms))


@pytest.mark.parametrize("lower, upper, seg_lower, seg_upper", [
    ([10 ** 400], [INF], 10 ** 400, INF),
    ([Fraction(10 ** 400, 3), -INF], [INF, 0], -INF, INF),
    ([-INF], [-10 ** 400], -INF, -10 ** 400),
    ([10 ** 400, 0], [INF, 1.5], 10 ** 400, INF),
    ([10 ** 400, 0.5], [INF, 1.5], Fraction(2 * 10 ** 400 + 1, 2), INF),
], ids=["int", "fraction", "negative", "float-upper", "float-sum"])
def test_bounding_pair_orders_a_bound_past_float_range(lower, upper, seg_lower, seg_upper):
    """A bound too large for any float is in order beside the other side's
    own infinity, on exact sides and beside a float step alike, and the
    pair sums it exactly."""
    b = LineBoundingPair(lower, upper)
    assert (b.seg_lower(1, b.n), b.seg_upper(1, b.n)) == (seg_lower, seg_upper)


def test_bounding_pair_sums_a_float_side_past_float_range_in_fractions():
    """A float step before a bound too large for any float: the side's float
    sum would overflow, so every sum of that side is a Fraction, and no
    segment sum, the float step's own included, overflows; the other side
    keeps its float sums."""
    b = LineBoundingPair([0.5, 10 ** 400], [1.5, INF])
    assert [type(s) for s in b._lo_pre] == [int, Fraction, Fraction]
    assert [type(s) for s in b._up_pre] == [int, float, float]
    assert [b.seg_lower(1, 2), b.seg_lower(2, 3), b.seg_lower(1, 3)] == [
        Fraction(1, 2), 10 ** 400, Fraction(2 * 10 ** 400 + 1, 2)]
    assert (b.seg_upper(1, 2), b.seg_upper(2, 3)) == (1.5, INF)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 12), st.sampled_from(["monotone", "lipschitz"]))
def test_named_bounds_surface_equals_reference(n, make):
    assert (_surface(lambda: getattr(LineBoundingPair, make)(n), bdp_to_monotone_transforms)
            == _surface(lambda: getattr(ref.PrefixBoundingPair, make)(n), ref.prefix_transforms))


def line_fn(values, **kw):
    return ErasedFunction(Domain.line(len(values)), values, **kw)


def random_erased_line(rng, n, lo=-8, hi=8, erase_p=0.3, max_nonerased=None):
    while True:
        vals = [ERASED if rng.random() < erase_p else rng.randint(lo, hi)
                for _ in range(n)]
        live = sum(v is not ERASED for v in vals)
        if live == 0:
            continue
        if max_nonerased is not None and live > max_nonerased:
            continue
        return line_fn(vals)


# ---------------------------------------------------------------------------
# budgets and iteration counts

def test_budget_worked_examples():
    assert monotone_line_budget(1024, Fraction(1, 10), Fraction(1, 2)) == 12000
    assert convex_line_budget(1024, Fraction(1, 10), 0) == 18000
    assert bdp_line_budget(1024, Fraction(1, 10), Fraction(1, 2)) == 96000
    assert monotone_line_budget(64, Fraction(1, 4), 0) == 1440


def test_budgets_accept_float_parameters_exactly():
    # 0.1 must mean 1/10, not its binary approximation
    assert monotone_line_budget(1024, 0.1, 0.5) == 12000
    assert convex_line_budget(1024, 0.1, 0) == 18000


def test_budget_cache_keys_on_the_checked_parameters():
    # 0.3 and Fraction(0.3) compare and hash equal, but 0.3 means 3/10 and
    # Fraction(0.3) is the binary double: each keeps its own budget,
    # whichever is asked first
    for order in ([0.3, Fraction(0.3)], [Fraction(0.3), 0.3]):
        _exact_log_budget.cache_clear()
        got = [monotone_line_budget(1024, eps, 0) for eps in order * 2]
        assert got == [2000 if type(eps) is float else 2001 for eps in order * 2]


def test_iteration_counts():
    assert proximity_iterations(Fraction(1, 10)) == 20
    assert proximity_iterations(Fraction(1, 4)) == 8
    assert proximity_iterations(Fraction(2, 3)) == 3
    assert one_sixth_iterations(Fraction(1, 4)) == math.ceil(4 * math.log(6) / 0.25)


def test_parameter_validation():
    with pytest.raises(ValueError):
        monotone_line_budget(16, 0, 0)
    with pytest.raises(ValueError):
        monotone_line_budget(16, 1, 0)
    with pytest.raises(ValueError):
        monotone_line_budget(16, 0.5, 1)


def _line_oracle(values, **kw):
    return QueryOracle(ErasedFunction(Domain.line(len(values)), values, **kw))


_LINE_REFUSALS = {
    "monotone-on-grid": (
        lambda: run_monotone(QueryOracle(ErasedFunction(Domain.grid(2, 2), [0, 1, 1, 2])),
                             Fraction(1, 4), 0, make_rng(1)),
        "this tester runs on line domains"),
    "convex-on-bits": (
        lambda: run_convex(_line_oracle([0, 1, 1], kind="bit"), Fraction(1, 4), 0, make_rng(1)),
        "convexity is tested for real-valued functions"),
    "bdp-bounds-length": (
        lambda: run_bdp(_line_oracle([0, 1, 2, 3]), LineBoundingPair.lipschitz(3),
                        Fraction(1, 4), 0, make_rng(1)),
        "bdp-line bounds have n=3, d=1; the domain has n=4, d=1"),
    "bdp-bounds-type": (
        lambda: run_bdp(_line_oracle([0, 1, 2, 3]), BoundingFamily.lipschitz(4, 2),
                        Fraction(1, 4), 0, make_rng(1)),
        "bdp-line needs LineBoundingPair bounds, got BoundingFamily"),
    "bdp-alpha-before-bounds": (
        lambda: run_bdp(_line_oracle([0, 1, 2, 3]), BoundingFamily.lipschitz(4, 2),
                        Fraction(1, 4), 1, make_rng(1)),
        "erasure bound 1 outside [0,1)"),
    "unequal-sides": (lambda: LineBoundingPair([0, 0], [1]),
                      "lower and upper must have equal length"),
    "bad-segment": (lambda: LineBoundingPair.lipschitz(4).seg_lower(3, 2), "bad segment [3, 2)"),
    "bad-upper-segment": (lambda: LineBoundingPair.lipschitz(4).seg_upper(0, 2),
                          "bad segment [0, 2)"),
}


@pytest.mark.parametrize("case", sorted(_LINE_REFUSALS))
def test_line_testers_and_bounds_refuse_bad_input(case):
    call, message = _LINE_REFUSALS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# the g/h value maps

def test_transform_worked_example():
    g_map, h_map = bdp_to_monotone_transforms(LineBoundingPair.lipschitz(3))
    f = [0, 2, 1]
    assert [g_map(i + 1, v) for i, v in enumerate(f)] == [-2, 1, 1]
    assert [h_map(i + 1, v) for i, v in enumerate(f)] == [-2, -3, -1]
    # pair (1,2) breaks the Lipschitz bound and shows up in the h view
    assert h_map(1, f[0]) > h_map(2, f[1])


_BIG = 2 ** 70  # past 2^53, where a float no longer holds every int
# ints take the int paths; integral and other Fractions and floats, alone or
# beside an int, must take the value_gt fallback
_PAIR_VALUES = st.one_of(
    st.integers(-_BIG, _BIG),
    st.integers(-9, 9),
    st.integers(-_BIG, _BIG).map(Fraction),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 6)),
    st.floats(-1e22, 1e22, allow_nan=False, allow_infinity=False),
)


@st.composite
def _finite_bounds(draw):
    """Finite step bounds of ints (small or past 2^53), integral Fractions,
    other Fractions, or ints with one float step."""
    n = draw(st.integers(2, 7))
    mag = draw(st.sampled_from([9, _BIG]))
    lower = draw(st.lists(st.integers(-mag, mag), min_size=n - 1, max_size=n - 1))
    gaps = draw(st.lists(st.integers(1, mag), min_size=n - 1, max_size=n - 1))
    upper = [l + g for l, g in zip(lower, gaps)]
    kind = draw(st.sampled_from(["int", "integral-fraction", "fraction", "float"]))
    if kind == "integral-fraction":
        lower, upper = list(map(Fraction, lower)), list(map(Fraction, upper))
    elif kind == "fraction":
        lower, upper = [Fraction(l, 3) for l in lower], [Fraction(u, 3) for u in upper]
    elif kind == "float":
        lower[0], upper[0] = float(lower[0] % 64), float(lower[0] % 64 + 1)
    return LineBoundingPair(lower, upper)


@settings(max_examples=500, deadline=None)
@given(_finite_bounds(), st.data())
def test_view_checks_decide_as_the_pair_clauses(bounds, data):
    """``_bdp_check``, the one check of the line and grid searches, flags
    a pair iff either of ``pair_violates``' two clauses, the checks the
    certificate check runs, holds, on the int path and on the fallback;
    values often sit at a segment sum, give or take 2."""
    check = _bdp_check(bounds)
    for _ in range(6):
        a = data.draw(st.integers(1, bounds.n - 1))
        b = data.draw(st.integers(a + 1, bounds.n))
        fa = data.draw(_PAIR_VALUES)
        edge = data.draw(st.sampled_from([bounds.seg_lower(a, b), bounds.seg_upper(a, b)]))
        if isinstance(edge, float):
            edge = int(edge)  # int values beside a float sum: the fallback's tolerance decides
        fb = data.draw(st.one_of(_PAIR_VALUES, st.integers(-2, 2).map(lambda k: fa + edge + k)))
        g = value_gt(fa - fb, -bounds.seg_lower(a, b))
        h = value_gt(fb - fa, bounds.seg_upper(a, b))
        assert (g or h) == pair_violates(bounds, a, fa, b, fb)
        assert check(a, fa, b, fb) == (g or h)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_link_comparison_decides_as_value_gt_on_slopes(data):
    """Two chords compare by ``_link_gt`` on their ``_link`` keys as
    ``value_gt`` compares their ``_slope``s: by cross products when every
    value is an int, by the fallback when any is not.  The second chord's
    far value often puts its slope at the first's, give or take a little."""
    a, b, c, d = sorted(data.draw(st.lists(st.integers(-_BIG, _BIG), min_size=4,
                                           max_size=4, unique=True)))
    if data.draw(st.booleans()):
        b, c = c, b  # overlapping chords
    fa, fb, fc = (data.draw(_PAIR_VALUES) for _ in range(3))
    rise = fb - fa
    near = st.integers(-2, 2).map(lambda k: fc + rise * (d - c) // (b - a) + k)
    fd = data.draw(st.one_of(_PAIR_VALUES, near) if isinstance(rise, int) else _PAIR_VALUES)
    p, q, r, s = (a, fa), (b, fb), (c, fc), (d, fd)
    assert _link_gt(_link(p, q), _link(r, s)) == value_gt(_slope(p, q), _slope(r, s))
    assert _link_gt(_link(r, s), _link(p, q)) == value_gt(_slope(r, s), _slope(p, q))
    assert _link(p, q) == ((rise, b - a) if type(fa) is int and type(fb) is int
                           else _slope(p, q))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_convex_certificate_decides_as_value_gt_on_slopes(data):
    """``check_line_certificate`` decides a convexity certificate as
    ``value_gt`` decides its two chords' ``_slope``s, on values that mix
    ints, Fractions and floats: the search's chord rule, which the check
    shares, gives what the plain slopes give."""
    n = data.draw(st.integers(2, 8))
    values = data.draw(st.lists(_PAIR_VALUES, min_size=n, max_size=n))
    a, b = sorted(data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
    c = data.draw(st.integers(a, n - 1))
    d = data.draw(st.integers(max(b, c + 1), n))
    assume((a, b) != (c, d))
    p, q, r, s = ((i, values[i - 1]) for i in (a, b, c, d))
    cert = ("convex-violation", (p, q), (r, s))
    assert check_line_certificate(line_fn(values), cert) == value_gt(_slope(p, q), _slope(r, s))


def test_transforms_require_finite_bounds():
    with pytest.raises(ValueError):
        bdp_to_monotone_transforms(LineBoundingPair.monotone(4))


def test_member_has_monotone_views():
    # anything inside the bounds must turn into two monotone sequences
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(2, 8)
        lower = [rng.randint(-2, 2) for _ in range(n - 1)]
        upper = [l + rng.randint(1, 4) for l in lower]
        bounds = LineBoundingPair(tuple(lower), tuple(upper))
        vals = [rng.randint(-3, 3)]
        for t in range(n - 1):
            step = Fraction(lower[t] + upper[t], 2)
            vals.append(vals[-1] + step)
        g_map, h_map = bdp_to_monotone_transforms(bounds)
        g = [g_map(i + 1, v) for i, v in enumerate(vals)]
        h = [h_map(i + 1, v) for i, v in enumerate(vals)]
        assert all(a <= b for a, b in zip(g, g[1:]))
        assert all(a <= b for a, b in zip(h, h[1:]))


def _random_finite_bounds(rng, n):
    lower = [rng.randint(-3, 2) for _ in range(n - 1)]
    upper = [l + rng.randint(1, 4) for l in lower]
    return LineBoundingPair(tuple(lower), tuple(upper))


def test_violation_mapping_equivalence():
    # a pair breaks the derivative bounds iff it breaks monotonicity in the
    # g view or the h view; exhaustive over pairs, 1000 random instances
    rng = random.Random(22)
    for _ in range(1000):
        n = rng.randint(2, 12)
        bounds = _random_finite_bounds(rng, n)
        vals = [rng.randint(-9, 9) for _ in range(n)]
        g_map, h_map = bdp_to_monotone_transforms(bounds)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                direct = pair_violates(bounds, a, vals[a - 1], b, vals[b - 1])
                via_views = (g_map(a, vals[a - 1]) > g_map(b, vals[b - 1])
                             or h_map(a, vals[a - 1]) > h_map(b, vals[b - 1]))
                assert direct == via_views


def test_symmetrizing_shift_preserves_violations():
    # recentering by the half-sum turns any finite bounds into symmetric
    # ones with the same violated pairs
    rng = random.Random(23)
    for _ in range(1000):
        n = rng.randint(2, 12)
        bounds = _random_finite_bounds(rng, n)
        vals = [rng.randint(-9, 9) for _ in range(n)]
        gamma = [Fraction(u - l, 2) for l, u in zip(bounds.lower, bounds.upper)]
        sym = LineBoundingPair(tuple(-g for g in gamma), tuple(gamma))
        sigma = [sum((Fraction(l + u, 2) for l, u in
                      zip(bounds.lower[i:], bounds.upper[i:])), Fraction(0))
                 for i in range(n)]
        shifted = [v + s for v, s in zip(vals, sigma)]
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                assert (pair_violates(bounds, a, vals[a - 1], b, vals[b - 1])
                        == pair_violates(sym, a, shifted[a - 1], b, shifted[b - 1]))


# ---------------------------------------------------------------------------
# the randomized search path

def test_path_length_on_three_points():
    # searching s=2 in {1,2,3}: the first pivot settles it with prob 1/3,
    # any other first pivot leaves one more draw
    f = line_fn([5, 5, 5])
    rng = random.Random(303)
    trials = 30000
    ones = 0
    for _ in range(trials):
        o = QueryOracle(f, budget=100)
        randomized_binary_search_step_loop(o, 1, 3, 2, 5, rng,
                                           lambda a, fa, b, fb: False)
        assert o.count in (1, 2)
        ones += o.count == 1
    se = math.sqrt((1 / 3) * (2 / 3) / trials)
    assert abs(ones / trials - 1 / 3) <= 3 * se


def test_search_with_unique_nonerased_point():
    f = line_fn([ERASED, 7, ERASED, ERASED])
    o = QueryOracle(f, budget=100)
    hits = []
    out = randomized_binary_search_step_loop(
        o, 1, 4, 2, 7, random.Random(4), lambda a, fa, b, fb: hits.append((a, b)))
    assert out is None and hits == []


def test_search_never_flags_monotone_input():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(2, 16)
        base = sorted(rng.randint(-9, 9) for _ in range(n))
        vals = [ERASED if rng.random() < 0.25 else v for v in base]
        if all(v is ERASED for v in vals):
            continue
        f = line_fn(vals)
        o = QueryOracle(f, budget=10_000)
        live = [i + 1 for i, v in enumerate(vals) if v is not ERASED]
        s = rng.choice(live)
        fired = []

        def violated(a, fa, b, fb):
            if fa > fb:
                fired.append((a, b))
            return False

        randomized_binary_search_step_loop(o, 1, n, s, f.value_at((s,)), rng, violated)
        assert fired == []


# ---------------------------------------------------------------------------
# searchable sets over explicit search trees

def _all_bsts(points):
    if not points:
        yield None
        return
    for i in range(len(points)):
        for left in _all_bsts(points[:i]):
            for right in _all_bsts(points[i + 1:]):
                yield (points[i], left, right)


def _monotone_witness(s, tree, val):
    node = tree
    while node is not None:
        m, left, right = node
        if s == m:
            return False
        if s < m:
            if val[s] > val[m]:
                return True
            node = left
        else:
            if val[m] > val[s]:
                return True
            node = right
    raise AssertionError("search point missing from its own tree")


def test_searchable_set_is_monotone_for_every_tree():
    # points whose search path stays quiet form a monotone restriction,
    # whichever pivots the tree fixed; and the flagged points are enough
    # to account for the full distance
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(2, 10)
        f = random_erased_line(rng, n, lo=-5, hi=5, erase_p=0.45, max_nonerased=6)
        val = {i + 1: v for i, v in enumerate(f.values) if v is not ERASED}
        points = sorted(val)
        dist = O.distance_to_monotone_line(f).absolute
        for tree in _all_bsts(points):
            searchable = [s for s in points if not _monotone_witness(s, tree, val)]
            run = [val[s] for s in searchable]
            assert all(a <= b for a, b in zip(run, run[1:]))
            assert len(points) - len(searchable) >= dist


# ---------------------------------------------------------------------------
# convexity interval procedure

class FixedPivots:
    """Stand-in rng whose randint plays back a scripted pivot sequence."""

    def __init__(self, seq):
        self.seq = list(seq)

    def randint(self, a, b):
        v = self.seq.pop(0)
        assert a <= v <= b, "scripted pivot outside the interval"
        return v


def _counters():
    return {"sampling": 0, "walking": 0}


def test_interval_rejects_failed_slope_chain():
    f = line_fn([0, 3, 4])
    cert = convex_search(QueryOracle(f, budget=50), 1, FixedPivots([2]), _counters())
    assert cert is not None and cert[0] == "convex-violation"
    assert check_line_certificate(f, cert)
    (c1, c2) = cert[1], cert[2]
    assert c1 == ((1, 0), (2, 3)) and c2 == ((2, 3), (3, 4))


def test_interval_accepts_convex_under_any_pivot():
    f = line_fn([0, 1, 4, 9])
    for pivot in range(1, 5):
        out = convex_search(QueryOracle(f, budget=50), pivot, FixedPivots([pivot]),
                            _counters())
        assert out is None


def _chain_breaks(items, left_sc, right_sc):
    chain = []
    if left_sc is not None:
        chain.append(left_sc[0])
    for (a, fa), (b, fb) in zip(items, items[1:]):
        chain.append(Fraction(fb - fa, b - a))
    if right_sc is not None:
        chain.append(right_sc[0])
    return any(s1 > s2 for s1, s2 in zip(chain, chain[1:]))


def _min_convex_witnesses(lo, hi, left_sc, right_sc, val):
    """Fewest nonerased points landing in a bad interval, minimized over all
    pivot trees; mirrors convex_search's state exactly: the interval and a
    (slope, chord) bound per side, the left chord ending at lo and the right
    one starting at hi."""
    pts = [p for p in range(lo, hi + 1) if p in val]
    if not pts:
        return 0
    best = None
    for x in pts:
        below = [p for p in pts if p < x]
        above = [p for p in pts if p > x]
        z = below[-1] if below else None
        y = above[0] if above else None
        ends = {z, x, y, left_sc and left_sc[1][1][0], right_sc and right_sc[1][0][0]}
        items = [(p, val[p]) for p in sorted(ends - {None})]
        if _chain_breaks(items, left_sc, right_sc):
            w = len(pts)
        else:
            w = 0
            if z is not None:
                chord = ((z, val[z]), (x, val[x]))
                slope = Fraction(val[x] - val[z], x - z)
                w += _min_convex_witnesses(lo, z, left_sc, (slope, chord), val)
            if y is not None:
                chord = ((x, val[x]), (y, val[y]))
                slope = Fraction(val[y] - val[x], y - x)
                w += _min_convex_witnesses(y, hi, (slope, chord), right_sc, val)
        best = w if best is None else min(best, w)
    return best


def test_convex_witness_count_covers_distance_in_every_tree():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(2, 12)
        f = random_erased_line(rng, n, lo=-6, hi=6, erase_p=0.4, max_nonerased=8)
        val = {i + 1: v for i, v in enumerate(f.values) if v is not ERASED}
        dist = O.distance_to_convex_line(f).absolute
        got = _min_convex_witnesses(1, n, None, None, val)
        assert got >= dist, (f.values, got, dist)


# ---------------------------------------------------------------------------
# whole-tester behavior

def test_one_sidedness_over_200_trials():
    rng = random.Random(51)
    mono = line_fn([ERASED if i % 5 == 3 else i // 2 for i in range(32)])
    lip_vals = []
    walk = 0
    for i in range(32):
        lip_vals.append(ERASED if i % 7 == 2 else walk)
        walk += rng.choice([-1, 0, 1])
    lip = line_fn(lip_vals)
    conv = line_fn([ERASED if i % 6 == 1 else (i - 16) ** 2 for i in range(32)])
    bounds = LineBoundingPair.lipschitz(32)
    for t in range(200):
        trial = make_rng(900, "one-sided", t)
        v1 = run_monotone(QueryOracle(mono), Fraction(1, 4), Fraction(1, 4), trial)
        v2 = run_bdp(QueryOracle(lip), bounds, Fraction(1, 4), Fraction(1, 4), trial)
        v3 = run_convex(QueryOracle(conv), Fraction(1, 4), Fraction(1, 4), trial)
        assert not v1.is_reject and not v2.is_reject and not v3.is_reject


def test_constant_function_always_accepted():
    f = line_fn([7] * 16)
    for t in range(50):
        v = run_monotone(QueryOracle(f), Fraction(1, 2), 0, make_rng(52, t))
        assert not v.is_reject and v.reason == ALL_CHECKS_PASSED


def test_square_function_always_accepted():
    f = line_fn([x * x for x in range(32)])
    for t in range(50):
        v = run_convex(QueryOracle(f), Fraction(1, 2), 0, make_rng(53, t))
        assert not v.is_reject


def test_decreasing_far_input_is_caught():
    f = line_fn(list(range(64, 0, -1)))
    r = O.distance_to_monotone_line(f)
    assert r.relative == Fraction(63, 64)
    rejects = sum(
        run_monotone(QueryOracle(f), Fraction(1, 4), 0, make_rng(54, t)).is_reject
        for t in range(100))
    assert rejects >= 60


def test_sawtooth_far_from_lipschitz_is_caught():
    f = line_fn([0 if i % 2 == 0 else 10 for i in range(64)])
    bounds = LineBoundingPair.lipschitz(64)
    assert O.distance_to_bdp_line(f, bounds).relative >= Fraction(1, 4)
    rejects = sum(
        run_bdp(QueryOracle(f), bounds, Fraction(1, 4), 0,
                      make_rng(55, t)).is_reject
        for t in range(100))
    assert rejects >= 60


@pytest.mark.parametrize("sign, lower, upper", [(+1, -10, 1), (-1, -1, 10)])
def test_far_input_only_one_view_sees_is_caught(sign, lower, upper):
    """Zeros with spikes of +5 under step bounds (-10, 1): every violated
    pair rises too fast and none drops too fast, so only the H view flags
    pairs; spikes of -5 under (-1, 10) are the mirror case, which only G
    sees.  With an eighth of the points erased the input is certified
    1/4-far, and at eps = 1/4, alpha = 1/8 the tester rejects at least
    300 of 500 trials, as criterion 02 asks, each with a certificate that
    re-validates."""
    bounds = LineBoundingPair([lower] * 63, [upper] * 63)
    rng = make_rng(72, "spikes", sign)
    values = [5 * sign if rng.random() < Fraction(1, 3) else 0 for _ in range(64)]
    f = erase_random(line_fn(values), Fraction(1, 8), rng)
    assert O.distance_to_bdp_line(f, bounds).relative >= Fraction(1, 4)
    rejects = 0
    for t in range(500):
        v = run_bdp(QueryOracle(f), bounds, Fraction(1, 4), Fraction(1, 8), make_rng(73, sign, t))
        if v.is_reject:
            rejects += 1
            assert check_line_certificate(f, v.certificate, bounds)
    assert rejects >= 300


def test_concave_far_input_is_caught():
    rng = random.Random(56)
    vals = [ERASED if rng.random() < 0.2 else -(x - 32) ** 2 for x in range(64)]
    f = line_fn(vals)
    assert O.distance_to_convex_line(f).relative >= Fraction(1, 4)
    rejects = sum(
        run_convex(QueryOracle(f), Fraction(1, 4), Fraction(1, 4),
                         make_rng(57, t)).is_reject
        for t in range(100))
    assert rejects >= 60


def test_monotone_bounds_dispatch_without_transforms():
    # one-sided-infinite bounds go down the direct-comparison path
    bounds = LineBoundingPair.monotone(64)
    member = line_fn(sorted(random.Random(58).randint(-9, 9) for _ in range(64)))
    far = line_fn(list(range(64, 0, -1)))
    for t in range(50):
        assert not run_bdp(QueryOracle(member), bounds, Fraction(1, 4), 0,
                                 make_rng(59, t)).is_reject
    rejects = 0
    for t in range(100):
        v = run_bdp(QueryOracle(far), bounds, Fraction(1, 4), 0, make_rng(60, t))
        if v.is_reject:
            rejects += 1
            assert check_line_certificate(far, v.certificate, bounds)
    assert rejects >= 60


def test_reject_certificates_always_validate():
    rng = random.Random(61)
    seen = 0
    for trial in range(400):
        n = rng.randint(4, 40)
        f = random_erased_line(rng, n, lo=-9, hi=9, erase_p=0.25)
        stream = make_rng(62, trial)
        which = trial % 3
        if which == 0:
            v = run_monotone(QueryOracle(f), Fraction(1, 8), Fraction(1, 2), stream)
            bounds = None
        elif which == 1:
            bounds = (LineBoundingPair.lipschitz(n) if trial % 2
                      else _random_finite_bounds(rng, n))
            v = run_bdp(QueryOracle(f), bounds, Fraction(1, 8), Fraction(1, 2), stream)
        else:
            v = run_convex(QueryOracle(f), Fraction(1, 8), Fraction(1, 2), stream)
            bounds = None
        if v.is_reject:
            seen += 1
            assert check_line_certificate(f, v.certificate, bounds)
    assert seen > 50  # random instances at small eps reject often


def test_certificate_checker_rejects_bogus_input():
    f = line_fn([0, 1, 2, 3])
    assert not check_line_certificate(f, ("monotone-violation", (1, 0), (2, 1)))
    assert not check_line_certificate(f, ("monotone-violation", (2, 9), (3, 2)))
    assert not check_line_certificate(f, ("mystery", (1, 0), (2, 1)))
    good = line_fn([3, 1])
    assert check_line_certificate(good, ("monotone-violation", (1, 3), (2, 1)))


@pytest.mark.parametrize("seed", range(5))
def test_monotone_line_decides_a_value_past_float_range(seed):
    """A line that mixes an int too large for any float with a float
    descends; the tester rejects it and its certificate checks."""
    f = line_fn([10 ** 400, 0.5])
    assert check_line_certificate(f, ("monotone-violation", (1, 10 ** 400), (2, 0.5)))
    assert not check_line_certificate(line_fn([0.5, 10 ** 400]),
                                      ("monotone-violation", (1, 0.5), (2, 10 ** 400)))
    v = run_monotone(QueryOracle(f), Fraction(1, 8), Fraction(0), make_rng(64, seed))
    assert v.is_reject and check_line_certificate(f, v.certificate)


@pytest.mark.parametrize("seed", range(5))
def test_bdp_and_convex_line_decide_a_value_past_float_range(seed):
    """A line whose first value is an int too large for any float, beside
    floats: a difference with it overflows a float, so the checks take it
    exactly.  The line is far from Lipschitz, and the bdp-line
    tester rejects it with a certificate that checks; its slopes rise, so
    it is convex, and the convexity tester accepts.  Both oracles' reports
    verify."""
    f = line_fn([10 ** 400, 0.5, 1.0])
    bounds = LineBoundingPair.lipschitz(3)
    v = run_bdp(QueryOracle(f), bounds, Fraction(1, 8), Fraction(0), make_rng(66, seed))
    assert v.is_reject and check_line_certificate(f, v.certificate, bounds)
    assert not run_convex(QueryOracle(f), Fraction(1, 8), Fraction(0), make_rng(67, seed)).is_reject
    for prop, absolute in ((O.PropertySpec("bdp-line", bounds=bounds), 1),
                           (O.PropertySpec("convex-line"), 0)):
        report = O.compute_distance(f, prop)
        assert report.absolute == absolute and O.verify_report(f, prop, report)


def test_convex_tester_reports_query_split():
    f = line_fn([ERASED if x % 3 == 1 else (x - 64) ** 2 for x in range(128)])
    total_s = []
    total_w = []
    for t in range(300):
        v = run_convex(QueryOracle(f), Fraction(1, 5), Fraction(34, 100),
                             make_rng(63, t))
        assert v.stats is not None
        assert not v.is_reject
        assert v.stats["sampling"] + v.stats["walking"] == v.queries_used
        total_s.append(v.stats["sampling"])
        total_w.append(v.stats["walking"])
    t = len(total_w)
    mean_s = sum(total_s) / t
    mean_w = sum(total_w) / t
    var_w = sum((w - mean_w) ** 2 for w in total_w) / (t - 1)
    se_w = math.sqrt(var_w / t)
    assert mean_w <= 2 * mean_s + 3 * se_w, (mean_w, mean_s, se_w)


def sparse_squares():
    """A line of 1024 points holding i*i at each 0-based index i that 128
    divides, erased elsewhere: so sparse that the convexity search's budget
    runs out inside a start, a pivot or a walk."""
    return line_fn([i * i if i % 128 == 0 else ERASED for i in range(1024)])


@pytest.mark.parametrize("seed", range(5))
def test_convex_split_keeps_the_queries_of_a_phase_the_budget_stops(seed):
    v = run_convex(QueryOracle(sparse_squares()), 0.9, 0, make_rng(seed))
    assert (v.reason, v.queries_used) == (BUDGET_EXHAUSTED, 2000)
    assert v.stats["sampling"] + v.stats["walking"] == 2000

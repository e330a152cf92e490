"""The search testers against their references in ``reference_testers.py``.

On the same seed, every library tester must give the same verdict: outcome,
reason, ``queries_used``, certificate and stats.  That pins the RNG stream of
the Box-free draws, including a grid's one draw of its axis line's index
(the reference's ``sample_axis_line``) and its start's plain draw on that
line, the flat-index reads of a grid's axis line against the reference's
built points, and the values of the O(1) bounded-derivative maps.
"""
import contextlib
import itertools
import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from ertest import hypergrid as HG
from ertest import line as L
from ertest.core import ERASED, Domain, ErasedFunction, QueryOracle
from ertest.hypergrid import BoundingFamily
from ertest.line import INF, LineBoundingPair

import reference_testers as ref

SETTINGS = settings(max_examples=120, deadline=None)
# a grid case runs hundreds of searches per tester, so grids get fewer cases
GRID_SETTINGS = settings(max_examples=50, deadline=None)

_STEPS = {
    # small steps, so ties, near-members and violations all come up
    "int": st.integers(-3, 3),
    "fraction": st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    "float": st.one_of(st.integers(-30, 30).map(lambda k: k / 10),
                       st.floats(-3, 3, allow_nan=False, allow_infinity=False)),
}

EPS = st.sampled_from([Fraction(1, 4), Fraction(1, 2), 0.3])
SEEDS = st.integers(0, 2 ** 32 - 1)


@st.composite
def values_with_erasures(draw, size, erase_ps=(0, 0.1, 0.5, 0.95)):
    """A walk of small steps (mostly up, so members are common), with a
    random share of the points erased; at least one point stays."""
    kind = draw(st.sampled_from(sorted(_STEPS)))
    steps = draw(st.lists(_STEPS[kind], min_size=size, max_size=size))
    if draw(st.booleans()):
        steps = [abs(s) for s in steps]
    vals, acc = [], 0
    for s in steps:
        acc += s
        vals.append(acc)
    erase_p = draw(st.sampled_from(erase_ps))
    coins = draw(st.lists(st.floats(0, 1), min_size=size, max_size=size))
    erased = [c < erase_p for c in coins]
    if all(erased):
        erased[draw(st.integers(0, size - 1))] = False
    return [ERASED if e else v for v, e in zip(vals, erased)]


@st.composite
def line_functions(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    return ErasedFunction(Domain.line(n), draw(values_with_erasures(n)))


@st.composite
def grid_functions(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 5 if d == 2 else 3))
    dom = Domain.grid(n, d)
    # a nearly erased grid spends the whole budget, tens of thousands of
    # queries; the line tests cover budget exhaustion more cheaply
    return ErasedFunction(dom, draw(values_with_erasures(dom.size, (0, 0.1, 0.5, 0.8))))


@st.composite
def line_bounds(draw, n):
    """Finite (int, Fraction or float), one-sided-infinite or mixed bounds."""
    style = draw(st.sampled_from(["int", "fraction", "float", "lower-inf", "upper-inf",
                                  "mixed"]))
    lower, upper = [], []
    for _ in range(n - 1):
        if style == "int":
            lo, width = draw(st.integers(-2, 1)), draw(st.integers(1, 3))
        elif style == "fraction":
            lo = Fraction(draw(st.integers(-4, 2)), draw(st.integers(1, 3)))
            width = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 3)))
        elif style == "float":
            lo = draw(st.floats(-2, 1, allow_nan=False))
            width = draw(st.floats(0.1, 3))
        else:
            lo = draw(st.sampled_from([-1, Fraction(-1, 2), 0, 0.5]))
            width = draw(st.sampled_from([Fraction(1, 2), 1, 2.5]))
        if style == "lower-inf" or (style == "mixed" and draw(st.booleans())):
            lower.append(-INF)
            upper.append(lo + width)
        elif style == "upper-inf" or style == "mixed":
            lower.append(lo)
            upper.append(INF)
        else:
            lower.append(lo)
            upper.append(lo + width)
    return LineBoundingPair(lower, upper)


def _both(lib_tester, ref_tester, fn, seed, *args):
    lib = lib_tester(QueryOracle(fn), *args, random.Random(seed))
    want = ref_tester(QueryOracle(fn), *args, random.Random(seed))
    assert lib.queries_used == want.queries_used
    assert lib == want
    return lib


@SETTINGS
@given(line_functions(), EPS, st.sampled_from([0, Fraction(1, 8), 0.5]), SEEDS)
def test_monotone_line_matches_reference(fn, eps, alpha, seed):
    _both(L.test_monotone_line, ref.test_monotone_line, fn, seed, eps, alpha)


@SETTINGS
@given(line_functions(), EPS, st.sampled_from([0, Fraction(1, 8)]), SEEDS)
def test_convex_line_matches_reference(fn, eps, alpha, seed):
    _both(L.test_convex_line, ref.test_convex_line, fn, seed, eps, alpha)


_SLOPES = {
    "int": st.integers(-20, 20),
    "fraction": st.builds(Fraction, st.integers(-40, 40), st.integers(1, 4)),
    "float": st.one_of(st.integers(-80, 80).map(lambda k: k / 4),
                       st.floats(-20, 20, allow_nan=False, allow_infinity=False)),
}


@st.composite
def convex_members(draw):
    """A convex line of 50 to 300 points: its slopes, drawn from a few values
    and sorted, never fall and are often equal, so searches accept and run
    many levels deep; a share of the points is erased, one always kept."""
    n = draw(st.integers(50, 300))
    kind = draw(st.sampled_from(sorted(_SLOPES)))
    pool = draw(st.lists(_SLOPES[kind], min_size=1, max_size=6))
    slopes = sorted(draw(st.lists(st.sampled_from(pool), min_size=n - 1, max_size=n - 1)))
    vals = list(itertools.accumulate(slopes, initial=draw(_SLOPES[kind])))
    coins = random.Random(draw(SEEDS))
    erase_p = draw(st.sampled_from([0, 0.1, 0.5]))
    keep = coins.randrange(n)
    return ErasedFunction(Domain.line(n), [ERASED if i != keep and coins.random() < erase_p
                                           else v for i, v in enumerate(vals)])


CONVEX_ALPHAS = st.sampled_from([0, Fraction(1, 8), Fraction(1, 3)])


@SETTINGS
@given(convex_members(), EPS, CONVEX_ALPHAS, SEEDS)
def test_convex_members_match_reference_over_many_levels(fn, eps, alpha, seed):
    _both(L.test_convex_line, ref.test_convex_line, fn, seed, eps, alpha)


@settings(max_examples=60, deadline=None)
@given(st.one_of(convex_members(), line_functions()), EPS, CONVEX_ALPHAS, SEEDS)
def test_convex_search_checks_a_bounded_chain_per_level(fn, eps, alpha, seed):
    """Each level of the convexity search builds at most 4 chords (lo, z, x,
    y, hi) and compares at most 5 pairs with the two bounds, however deep the
    search runs: a level is a sampler call that no search's start made."""
    spies = {name: mock.patch.object(L, name, wraps=getattr(L, name))
             for name in ("sample_nonerased_uniform", "convex_search", "_link", "_link_gt")}
    with contextlib.ExitStack() as stack:
        calls = {name: stack.enter_context(spy) for name, spy in spies.items()}
        L.test_convex_line(QueryOracle(fn), eps, alpha, random.Random(seed))
    levels = calls["sample_nonerased_uniform"].call_count - calls["convex_search"].call_count
    assert calls["_link"].call_count <= 4 * levels
    assert calls["_link_gt"].call_count <= 5 * levels


@SETTINGS
@given(st.data(), EPS, st.sampled_from([0, Fraction(1, 8)]), SEEDS)
def test_bdp_line_matches_reference(data, eps, alpha, seed):
    fn = data.draw(line_functions(max_n=24))
    bounds = data.draw(line_bounds(fn.domain.n))
    _both(L.test_bdp_line, ref.test_bdp_line, fn, seed, bounds, eps, alpha)


# The grid testers trust the declared erasure bound, so alpha = 0 still runs
# them on functions with erased points.

@GRID_SETTINGS
@given(grid_functions(), EPS, SEEDS)
def test_monotone_grid_matches_reference(fn, eps, seed):
    _both(HG.test_monotone_hypergrid, ref.test_monotone_hypergrid, fn, seed, eps, 0)


@GRID_SETTINGS
@given(st.data(), EPS, SEEDS)
def test_bdp_grid_matches_reference(data, eps, seed):
    fn = data.draw(grid_functions())
    n, d = fn.domain.n, fn.domain.d
    family = BoundingFamily(tuple(data.draw(line_bounds(n)) for _ in range(d)))
    _both(HG.test_bdp_hypergrid, ref.test_bdp_hypergrid, fn, seed, family, eps, 0)


def test_search_testers_reject_through_the_driver():
    """Fixed inputs every search tester rejects, so each run covers the
    reject path of every search, whatever the generated cases hold."""
    down = ErasedFunction(Domain.line(16), list(range(16, 0, -1)))
    v = _both(L.test_monotone_line, ref.test_monotone_line, down, 5, Fraction(1, 4), 0)
    assert v.is_reject
    steep = ErasedFunction(Domain.line(16), [3 * i * i for i in range(16)])
    for bounds in (LineBoundingPair.lipschitz(16), LineBoundingPair([-INF] * 15, [1] * 15)):
        v = _both(L.test_bdp_line, ref.test_bdp_line, steep, 5, bounds, Fraction(1, 4), 0)
        assert v.is_reject
    dom = Domain.grid(4, 3)
    anti = ErasedFunction(dom, [-sum(p) for p in dom.points()])
    v = _both(HG.test_monotone_hypergrid, ref.test_monotone_hypergrid, anti, 5,
              Fraction(1, 2), 0)
    assert v.is_reject
    v = _both(HG.test_bdp_hypergrid, ref.test_bdp_hypergrid, anti, 5,
              BoundingFamily.monotone(4, 3), Fraction(1, 2), 0)
    assert v.is_reject


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.data())
def test_transforms_equal_suffix_maps_on_float_bounds(n, data):
    floats = st.floats(-1e6, 1e6, allow_nan=False)
    lower = data.draw(st.lists(floats, min_size=n - 1, max_size=n - 1))
    widths = data.draw(st.lists(st.floats(1, 1e6), min_size=n - 1, max_size=n - 1))
    bounds = LineBoundingPair(lower, [lo + w for lo, w in zip(lower, widths)])
    values = data.draw(st.lists(st.one_of(floats, st.integers(-10, 10)),
                                min_size=n, max_size=n))
    fast, slow = L.bdp_to_monotone_transforms(bounds), ref.bdp_to_monotone_transforms(bounds)
    for i, v in enumerate(values, start=1):
        for f, s in zip(fast, slow):
            # repr tells 0.0 from -0.0 and an int from a float
            assert repr(f(i, v)) == repr(s(i, v))

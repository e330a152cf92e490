"""Exact-oracle behavior: frozen worked examples, brute-force equivalence on
random instances, and certificate re-verification in bulk."""
import contextlib
import itertools
import random
import sys
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ertest.adversary import erase_random, generate_member_instance
from ertest.core import (ERASED, ConfigError, Domain, ErasedFunction, InvalidField, QueryOracle,
                         SizeLimit, grid_le)
from ertest.hypergrid import BoundingFamily
from ertest.line import INF, LineBoundingPair, pair_violates, test_monotone_line as run_monotone
from ertest.rng import make_rng
from ertest import oracles as O

import reference_oracles as ref


def line_fn(values, **kw):
    return ErasedFunction(Domain.line(len(values)), values, **kw)


def grid_fn(n, d, mapping, erased=()):
    dom = Domain.grid(n, d)
    vals = [ERASED] * dom.size
    for p in dom.points():
        if p not in erased:
            vals[dom.index_of(p)] = mapping(p)
    return ErasedFunction(dom, vals)


# ---------------------------------------------------------------------------
# frozen worked examples

def test_monotone_line_example():
    r = O.distance_to_monotone_line(line_fn([1, 3, 2, 4]))
    assert r.absolute == 1
    assert r.relative == Fraction(1, 4)


def test_lipschitz_line_example():
    f = line_fn([0, 10, 0, 10])
    r = O.distance_to_bdp_line(f, LineBoundingPair.lipschitz(4))
    assert r.absolute == 2


def test_convex_line_example():
    r = O.distance_to_convex_line(line_fn([0, 3, 4]))
    assert r.absolute == 1


def test_grid_antitone_example():
    f = grid_fn(3, 2, lambda p: -p[0] - p[1])
    r = ref.distance_to_monotone_grid_small(f)
    assert r.absolute == 6
    assert r.matching_bound is not None and r.matching_bound <= 6 <= 2 * r.matching_bound


def test_low_degree_example():
    f = line_fn([(x * x) % 17 for x in range(17)], kind="field", modulus=17)
    r = O.distance_to_low_degree(f, 1)
    assert r.absolute == 15


def test_k_runs_example():
    r = O.distance_to_k_runs(line_fn([0, 1, 0, 1, 0, 1, 0, 1], kind="bit"), 2)
    assert r.absolute == 3


def test_middle_layer_relative_distance():
    dom = Domain.hamming_cube(4)
    vals = []
    for i in range(dom.size):
        w = sum(c - 1 for c in dom.point_at(i))
        vals.append(ERASED if w == 2 else (1 if w < 2 else 0))
    f = ErasedFunction(dom, vals)
    r = ref.distance_to_monotone_grid_small(f)
    assert r.relative == Fraction(1, 2)
    assert r.absolute == 5


def test_monotone_equals_unbounded_bdp():
    rng = random.Random(901)
    for _ in range(200):
        n = rng.randint(2, 9)
        vals = [rng.randint(-3, 3) if rng.random() > 0.2 else ERASED for _ in range(n)]
        if all(v is ERASED for v in vals):
            vals[0] = 0
        f = line_fn(vals)
        a = O.distance_to_monotone_line(f).absolute
        b = O.distance_to_bdp_line(f, LineBoundingPair.monotone(n)).absolute
        assert a == b


# ---------------------------------------------------------------------------
# brute-force equivalence (independent route: subset search, no DP reuse)

def brute_distance(items, compatible):
    m = len(items)
    for r in range(m, 0, -1):
        for comb in itertools.combinations(range(m), r):
            if compatible([items[i] for i in comb]):
                return m - r
    return m


def monotone_ok(sub):
    vals = [v for _, v in sub]
    return all(a <= b for a, b in zip(vals, vals[1:]))


def bdp_ok_factory(bounds):
    def ok(sub):
        return not any(pair_violates(bounds, a, fa, b, fb)
                       for (a, fa), (b, fb) in itertools.combinations(sub, 2))
    return ok


def convex_ok(sub):
    slopes = [Fraction(fb - fa, b - a) for (a, fa), (b, fb) in zip(sub, sub[1:])]
    return all(s <= t for s, t in zip(slopes, slopes[1:]))


def k_runs_ok_factory(k):
    def ok(sub):
        bits = [v for _, v in sub]
        return O.count_alternations(bits) <= k - 1
    return ok


def random_line(rng, n, kind="real", lo=-4, hi=4, erase_p=0.25):
    vals = []
    for _ in range(n):
        if rng.random() < erase_p:
            vals.append(ERASED)
        elif kind == "bit":
            vals.append(rng.randint(0, 1))
        else:
            vals.append(rng.randint(lo, hi))
    if all(v is ERASED for v in vals):
        vals[rng.randrange(n)] = 0 if kind != "bit" else rng.randint(0, 1)
    return line_fn(vals, kind=kind)


def test_monotone_matches_exhaustive():
    rng = random.Random(11)
    for _ in range(300):
        f = random_line(rng, rng.randint(2, 8))
        expect = brute_distance(O.line_pairs(f), monotone_ok)
        assert O.distance_to_monotone_line(f).absolute == expect


def test_bdp_matches_exhaustive_pairwise():
    # consecutive-pair DP against the all-pairs subset definition
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(2, 8)
        style = rng.random()
        if style < 0.4:
            bounds = LineBoundingPair.lipschitz(n, rng.randint(1, 3))
        elif style < 0.7:
            lower = [rng.randint(-2, 1) for _ in range(n - 1)]
            upper = [l + rng.randint(1, 3) for l in lower]
            bounds = LineBoundingPair(tuple(lower), tuple(upper))
        else:
            lower = [-INF if rng.random() < 0.5 else rng.randint(-2, 0) for _ in range(n - 1)]
            upper = [INF if rng.random() < 0.5 else 3 for _ in range(n - 1)]
            bounds = LineBoundingPair(tuple(lower), tuple(upper))
        f = random_line(rng, n, lo=-6, hi=6)
        expect = brute_distance(O.line_pairs(f), bdp_ok_factory(bounds))
        assert O.distance_to_bdp_line(f, bounds).absolute == expect


@pytest.mark.parametrize("values", [[INF, 5.0], [5.0, -INF], [INF, 5.0, 7.0], [-INF, 1.0, -INF]])
@pytest.mark.parametrize("bounds", ["monotone", "steps-0-1"])
def test_bdp_line_reports_verify_beside_infinite_values(values, bounds):
    # an infinite value is refused before any oracle sees it; in its place the
    # largest finite float of its sign, and the oracle's own report verifies
    # beside that value
    n = len(values)
    pair = (LineBoundingPair.monotone(n) if bounds == "monotone"
            else LineBoundingPair([0] * (n - 1), [1] * (n - 1)))
    with pytest.raises(ValueError):
        line_fn(values)
    big = sys.float_info.max
    f = line_fn([big if v == INF else -big if v == -INF else v for v in values])
    prop = O.PropertySpec("bdp-line", bounds=pair)
    report = O.compute_distance(f, prop)
    assert report.absolute > 0
    assert O.verify_report(f, prop, report) is True


def test_convex_matches_exhaustive():
    rng = random.Random(13)
    for _ in range(250):
        f = random_line(rng, rng.randint(2, 8), lo=-5, hi=5)
        expect = brute_distance(O.line_pairs(f), convex_ok)
        assert O.distance_to_convex_line(f).absolute == expect


def test_k_runs_matches_exhaustive():
    rng = random.Random(14)
    for _ in range(250):
        n = rng.randint(2, 9)
        k = rng.randint(1, 4)
        f = random_line(rng, n, kind="bit")
        expect = brute_distance(O.line_pairs(f), k_runs_ok_factory(k))
        assert O.distance_to_k_runs(f, k).absolute == expect


def test_grid_small_matches_exhaustive():
    rng = random.Random(15)
    for _ in range(120):
        n, d = rng.choice([(3, 2), (2, 3), (4, 2)])
        dom = Domain.grid(n, d)
        vals = [rng.randint(-2, 2) if rng.random() > 0.35 else ERASED
                for _ in range(dom.size)]
        if all(v is ERASED for v in vals):
            vals[0] = 0
        if sum(v is not ERASED for v in vals) > 12:
            continue
        f = ErasedFunction(dom, vals)
        items = [(p, f.value_at(p)) for p in ref.nonerased_points(f)]

        def ok(sub):
            return all(not (grid_le(p, q) and p != q and v > w)
                       for (p, v), (q, w) in itertools.permutations(sub, 2))

        expect = brute_distance(items, ok)
        got = ref.distance_to_monotone_grid_small(f)
        assert got.absolute == expect
        assert O.distance_to_monotone_grid_exact(f).absolute == expect
        if got.matching_bound:
            assert got.matching_bound <= expect <= 2 * got.matching_bound


def test_low_degree_matches_interpolation_search():
    # independent route: interpolate every (degree+1)-subset, take best agreement
    rng = random.Random(16)
    for _ in range(60):
        p = rng.choice([5, 7, 11])
        deg = rng.randint(0, 2)
        vals = [rng.randrange(p) if rng.random() > 0.2 else ERASED for _ in range(p)]
        if sum(v is not ERASED for v in vals) < deg + 1:
            continue
        f = line_fn(vals, kind="field", modulus=p)
        pts = [(i, v) for i, v in enumerate(vals) if v is not ERASED]
        best = 0
        for comb in itertools.combinations(pts, deg + 1):
            coeffs = O.interpolate(list(comb), p)
            best = max(best, sum(1 for x, y in pts if O.poly_eval(coeffs, x, p) == y))
        assert O.distance_to_low_degree(f, deg).absolute == len(pts) - best


# ---------------------------------------------------------------------------
# certificate re-verification in bulk

def _random_report(rng):
    pick = rng.random()
    if pick < 0.3:
        f = random_line(rng, rng.randint(2, 10))
        prop = O.PropertySpec("monotone-line")
    elif pick < 0.6:
        n = rng.randint(2, 9)
        if rng.random() < 0.5:
            bounds = LineBoundingPair.lipschitz(n, rng.randint(1, 2))
        else:
            lower = tuple(-INF if rng.random() < 0.3 else rng.randint(-2, 0)
                          for _ in range(n - 1))
            upper = tuple(INF if rng.random() < 0.3 else 2 for _ in range(n - 1))
            bounds = LineBoundingPair(lower, upper)
        f = random_line(rng, n, lo=-5, hi=5)
        prop = O.PropertySpec("bdp-line", bounds=bounds)
    elif pick < 0.8:
        f = random_line(rng, rng.randint(2, 9), kind="bit")
        prop = O.PropertySpec("k-runs", k=rng.randint(1, 3))
    elif pick < 0.9:
        f = random_line(rng, rng.randint(2, 8), lo=-4, hi=4)
        prop = O.PropertySpec("convex-line")
    elif pick < 0.95:
        p = rng.choice([5, 7])
        vals = [rng.randrange(p) if rng.random() > 0.25 else ERASED for _ in range(p)]
        if all(v is ERASED for v in vals):
            vals[0] = 0
        f = line_fn(vals, kind="field", modulus=p)
        prop = O.PropertySpec("low-degree", degree=rng.randint(0, 1))
    else:
        dom = Domain.grid(3, 2)
        vals = [rng.randint(-2, 2) if rng.random() > 0.3 else ERASED
                for _ in range(dom.size)]
        if all(v is ERASED for v in vals):
            vals[0] = 0
        f = ErasedFunction(dom, vals)
        prop = O.PropertySpec("monotone-grid")
    return f, prop


def test_certificates_reverify_in_bulk():
    rng = random.Random(77)
    checked = 0
    while checked < 10_000:
        f, prop = _random_report(rng)
        report = O.compute_distance(f, prop)
        assert O.verify_report(f, prop, report), (prop.tag, f.values, report)
        checked += 1


def test_matching_bound_certificates_reverify():
    rng = random.Random(78)
    for _ in range(200):
        dom = Domain.grid(rng.randint(2, 4), 2)
        vals = [rng.randint(-3, 3) if rng.random() > 0.25 else ERASED
                for _ in range(dom.size)]
        if all(v is ERASED for v in vals):
            vals[0] = 0
        f = ErasedFunction(dom, vals)
        r = ref.monotone_grid_matching_bound(f)
        assert r.is_lower_bound
        assert O.verify_report(f, O.PropertySpec("monotone-grid"), r)


def _bdp_grid_far(n, seed):
    rng = random.Random(seed)
    dom = Domain.grid(n, 2)
    amp = 2 * (2 * n + 1) + 1
    vals = [amp * (sum(p) % 2) if rng.random() > 0.2 else ERASED for p in dom.points()]
    family = BoundingFamily.lipschitz(n, 2)
    return ErasedFunction(dom, vals), O.PropertySpec("bdp-grid", bounds=family)


def test_bdp_grid_matching_bound_reverifies():
    for seed in range(20):
        f, prop = _bdp_grid_far(4, seed)
        r = O.bdp_grid_matching_bound(f, prop.bounds)
        assert r.absolute > 0
        assert O.verify_report(f, prop, r)


def test_tampered_bdp_grid_matching_fails():
    f, prop = _bdp_grid_far(4, 3)
    r = O.bdp_grid_matching_bound(f, prop.bounds)
    (a, b), rest = r.certificate[1], r.certificate[2:]
    # two equal values are no violation, though the pair is disjoint and counted
    p, q = [x for x in ref.nonerased_points(f) if f.value_at(x) == f.value_at(a)][:2]
    tampered = [
        replace(r, certificate=("matching", (p, q)), absolute=1),
        replace(r, certificate=("matching", (a, b), (a, b)) + rest,
                absolute=r.absolute + 1),
        replace(r, absolute=r.absolute + 1),
    ]
    assert O.verify_report(f, prop, replace(r, certificate=("matching", (a, b)), absolute=1))
    for bad in tampered:
        assert not O.verify_report(f, prop, bad)


def test_bdp_grid_kept_set_report_fails():
    # bdp-grid reports are matchings: a kept-set one has no completion to check
    f = ErasedFunction(Domain.grid(2, 2), [0, 1, 1, 2])
    prop = O.PropertySpec("bdp-grid", bounds=BoundingFamily.lipschitz(2, 2))
    report = O.DistanceReport("bdp-grid", 0, Fraction(0), ("kept", (1, 1), (2, 1), (1, 2), (2, 2)))
    assert O.verify_report(f, prop, report) is False


def test_float_convex_completions_reverify():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(8, 32)
        mid, tilt = (n + 1) / 2, rng.random()
        total = line_fn([-(t - mid) ** 2 + tilt * t for t in range(1, n + 1)])
        f = erase_random(total, Fraction(1, 8), rng)
        prop = O.PropertySpec("convex-line")
        assert O.verify_report(f, prop, O.distance_to_convex_line(f))


def test_convex_membership_tolerates_float_noise_only():
    # 0.1 steps in floats: consecutive slopes differ by rounding noise
    noisy = [x * 0.1 for x in range(1, 30)]
    slopes = [b - a for a, b in zip(noisy, noisy[1:])]
    assert any(b < a for a, b in zip(slopes, slopes[1:]))
    assert O.is_member_convex_values(noisy)
    tiny = Fraction(1, 10 ** 30)
    assert not O.is_member_convex_values([0, 1, 2 - tiny])
    assert not O.is_member_convex_values([0.0, 1.0, 1.5])


def test_compute_distance_routes_grids_to_any_size_oracles():
    fam = BoundingFamily.lipschitz(3, 2)
    jumpy = grid_fn(3, 2, lambda p: 100 * (sum(p) % 2))
    prop = O.PropertySpec("bdp-grid", bounds=fam)
    assert O.compute_distance(jumpy, prop) == O.bdp_grid_matching_bound(jumpy, fam)
    # 25 points: above the branch-and-bound reference's gate
    big = grid_fn(5, 2, lambda p: -sum(p))
    assert O.compute_distance(big, O.PropertySpec("monotone-grid")) == \
        O.distance_to_monotone_grid_exact(big)


@pytest.mark.parametrize("tag, name", [("bdp-line", "bounds"), ("bdp-grid", "bounds"),
                                       ("k-runs", "k"), ("low-degree", "degree")])
def test_property_spec_refuses_a_missing_parameter(tag, name):
    with pytest.raises(ValueError) as err:
        O.PropertySpec(tag)
    assert str(err.value) == f"{tag} needs {name}"


def test_property_spec_refuses_an_unknown_tag_and_allows_unused_parameters():
    with pytest.raises(ValueError) as err:
        O.PropertySpec("no-such-tag", k=2)
    assert str(err.value) == (
        "unknown property 'no-such-tag'; known: ['bdp-grid', 'bdp-line', 'convex-line', "
        "'k-runs', 'low-degree', 'monotone-grid', 'monotone-line']")
    spec = O.PropertySpec("monotone-line", bounds=LineBoundingPair.lipschitz(4), k=2, degree=1)
    fn = line_fn([1, 3, 2, 4])
    assert O.compute_distance(fn, spec) == O.distance_to_monotone_line(fn)


@pytest.mark.parametrize("tag, bounds, want, got", [
    ("bdp-grid", LineBoundingPair.lipschitz(3), "BoundingFamily", "LineBoundingPair"),
    ("bdp-line", BoundingFamily.lipschitz(3, 2), "LineBoundingPair", "BoundingFamily"),
], ids=["line-bounds-on-grid", "grid-bounds-on-line"])
def test_property_spec_refuses_bounds_of_another_type(tag, bounds, want, got):
    with pytest.raises(ValueError) as err:
        O.PropertySpec(tag, bounds=bounds)
    assert str(err.value) == f"{tag} needs {want} bounds, got {got}"


@pytest.mark.parametrize("family, sizes", [(BoundingFamily.lipschitz(4, 2), "n=4, d=2"),
                                           (BoundingFamily.lipschitz(3, 3), "n=3, d=3")],
                         ids=["side", "dimension"])
def test_bdp_grid_matching_bound_refuses_a_family_of_another_shape(family, sizes):
    fn = grid_fn(3, 2, lambda p: 9 * (sum(p) % 2))
    prop = O.PropertySpec("bdp-grid", bounds=family)
    for call in (lambda: O.bdp_grid_matching_bound(fn, family),
                 lambda: O.compute_distance(fn, prop)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"bdp-grid bounds have {sizes}; the domain has n=3, d=2"


def _all_kept(fn, prop):
    """A report that claims ``fn`` is already a member."""
    return O.DistanceReport(prop.tag, 0, Fraction(0),
                            ("kept",) + tuple(ref.nonerased_points(fn)))


def test_float_chain_passing_consecutive_checks_falls_back_to_pairwise():
    # each step drops 6e-10, inside value_gt's 1e-9 tolerance, but two
    # steps drop 1.2e-9: the consecutive checks pass and a pairwise one fails.
    # bdp-line takes that tolerant pairwise fallback; monotone-line checks
    # its kept set exactly by >, as on a grid, and never reaches it
    f = line_fn([1.0, 1.0 - 6e-10, 1.0 - 1.2e-9])
    for prop in (O.PropertySpec("monotone-line"),
                 O.PropertySpec("bdp-line", bounds=LineBoundingPair.monotone(3))):
        report = _all_kept(f, prop)
        with mock.patch.object(O, "is_member_bdp_values",
                               wraps=O.is_member_bdp_values) as pairwise:
            assert O.verify_report(f, prop, report) is False
        assert pairwise.called is (prop.tag == "bdp-line")
        assert ref.verify_report(f, prop, report) is False


@st.composite
def _nudged_nondecreasing(draw):
    """A nondecreasing walk of int steps in [0, 2] as floats, each value
    moved by at most 1e-12, with random erasures (one point always stays)."""
    n = draw(st.integers(1, 16))
    steps = draw(st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1))
    walk = itertools.accumulate(steps, initial=draw(st.integers(-3, 3)))
    values = [v + draw(st.floats(-1e-12, 1e-12)) for v in walk]
    erased = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    erased[draw(st.integers(0, n - 1))] = False
    return [ERASED if e else v for v, e in zip(values, erased)]


@settings(max_examples=300, deadline=None)
@given(_nudged_nondecreasing(), st.integers(0, 2 ** 16))
def test_nudged_monotone_members_pass_the_tester_and_verify_exactly_at_every_d(values, seed):
    # the tester is tolerant: float noise on a member is never evidence;
    # kept sets verify exactly by >, on the line as on the grid
    fn = line_fn(values)
    prop = O.PropertySpec("monotone-line")
    verdict = run_monotone(QueryOracle(fn), Fraction(1, 2), fn.declared_alpha, make_rng(seed))
    assert not verdict.is_reject
    assert O.verify_report(fn, prop, O.distance_to_monotone_line(fn))
    kept = [v for v in values if v is not ERASED]
    nondecreasing = not any(a > b for a, b in zip(kept, kept[1:]))
    assert O.verify_report(fn, prop, _all_kept(fn, prop)) is nondecreasing
    dom = Domain.grid(len(values), 2)
    grid = ErasedFunction(dom, [values[x - 1] for x, _ in dom.points()])
    grid_prop = O.PropertySpec("monotone-grid")
    assert O.verify_report(grid, grid_prop, _all_kept(grid, grid_prop)) is nondecreasing


_MEMBER = [0.0, 0.5, 1.5, 2.0]
_FAST_ACCEPT_CASES = {
    # name: (values, bounds); the first takes the fast accept, each other
    # breaks one of its conditions and must fall back to the pairwise check
    "exact-sums-float-values": (_MEMBER, LineBoundingPair.lipschitz(4)),
    "float-bound-entries": (_MEMBER, LineBoundingPair([-1.0] * 3, [1.0] * 3)),
    "mixed-value-types": ([0, 0.5, Fraction(3, 2), 2.0], LineBoundingPair.lipschitz(4)),
}


@pytest.mark.parametrize("case", sorted(_FAST_ACCEPT_CASES))
def test_exact_fast_accept_runs_only_under_its_rule(case):
    values, bounds = _FAST_ACCEPT_CASES[case]
    f = line_fn(values)
    fast = case == "exact-sums-float-values"
    assert O._bdp_violation_free(f.domain, f.values, (bounds,)) is fast
    prop = O.PropertySpec("bdp-line", bounds=bounds)
    report = _all_kept(f, prop)
    with mock.patch.object(O, "is_member_bdp_values",
                           wraps=O.is_member_bdp_values) as pairwise:
        verdict = O.verify_report(f, prop, report)
    assert pairwise.called is not fast
    assert verdict is ref.verify_report(f, prop, report) is True
    grid = ErasedFunction(Domain.grid(4, 1), values)
    family = BoundingFamily((bounds,))
    assert O.bdp_grid_matching_bound(grid, family) == ref.bdp_grid_matching_bound(grid, family)


def test_exact_fast_accept_cuts_at_unbounded_steps():
    # g drops by 6 across its one step without a lower bound; every other
    # pair fits, so only a cut at that step lets the exact sweep accept
    bounds = LineBoundingPair([0, -INF, 0], [1, 1, 1])
    g = [0, 1, -5, -4]
    line = line_fn(g)
    assert O._bdp_violation_free(line.domain, line.values, (bounds,)) is True
    square = Domain.grid(4, 2)
    grid = ErasedFunction(square, [g[x - 1] + g[y - 1] for x, y in square.points()])
    assert O._bdp_violation_free(grid.domain, grid.values, (bounds, bounds)) is True
    prop = O.PropertySpec("bdp-line", bounds=bounds)
    with mock.patch.object(O, "is_member_bdp_values",
                           wraps=O.is_member_bdp_values) as pairwise:
        assert O.verify_report(line, prop, _all_kept(line, prop)) is True
    assert not pairwise.called


def test_erased_function_refuses_nan():
    # NaN equals nothing, so no report could keep a NaN point unchanged
    nan = float("nan")
    for domain, values in ((Domain.line(4), _MEMBER[:3] + [nan]),
                           (Domain.grid(2, 2), [0.0, ERASED, nan, 2.0])):
        with pytest.raises(ValueError, match="nan"):
            ErasedFunction(domain, values)


_NON_FINITE = {
    # each once reached an oracle: a bdp-line completion beside an infinity,
    # the fast accept's infinite value, and NaN chords on which the convex
    # oracles disagreed or verify_report accepted two distances
    "inf-first": [INF, 5.0],
    "minus-inf-last": [5.0, -INF],
    "inf-before-two": [INF, 5.0, 7.0],
    "minus-inf-both-ends": [-INF, 1.0, -INF],
    "inf-after-member": _MEMBER[:3] + [INF],
    "inf-inf-0": [INF, INF, 0],
    "1-inf-inf-3": [1, INF, INF, 3],
    "two-verified-distances": [5.0, 0.0, INF, INF, -3.0],
    "inf-convex-ends": [INF, 4, 1, 0, 0, 1, INF],
    "nan": [0.0, float("nan"), 1.0],
    "numpy-inf": None,
}


@pytest.mark.parametrize("case", list(_NON_FINITE))
def test_erased_function_refuses_non_finite_real_values(case):
    values = _NON_FINITE[case]
    if values is None:
        np = pytest.importorskip("numpy")
        values = [1.0, np.float64("inf"), 2.0]
    bad = next(v for v in values if not -INF < v < INF)
    with pytest.raises(ValueError) as err:
        line_fn(values)
    assert str(err.value) == f"value {bad!r} does not fit kind 'real'"


_ORACLES = ("compute_distance", "is_restorable", "distance_to_monotone_line",
            "distance_to_bdp_line", "distance_to_convex_line",
            "distance_to_monotone_grid_exact", "bdp_grid_matching_bound",
            "distance_to_k_runs", "distance_to_low_degree")


def test_verifiers_call_no_distance_oracle():
    lip = LineBoundingPair.lipschitz(6)
    fam = BoundingFamily.lipschitz(3, 2)
    cases = [
        (line_fn([0, 2, 1, ERASED, 3, 5]), O.PropertySpec("monotone-line")),
        (line_fn([0, 2, 1, ERASED, 3, 5]), O.PropertySpec("bdp-line", bounds=lip)),
        (line_fn([0, 2, 1, ERASED, 3, 5]), O.PropertySpec("convex-line")),
        (line_fn([0, 1, 1, 0, ERASED, 1], kind="bit"), O.PropertySpec("k-runs", k=2)),
        (line_fn([1, 3, 0, 2, 4], kind="field", modulus=5), O.PropertySpec("low-degree", degree=1)),
        (grid_fn(3, 2, lambda p: p[0] - p[1], erased={(2, 2)}), O.PropertySpec("monotone-grid")),
        (grid_fn(3, 2, lambda p: 9 * (sum(p) % 2)), O.PropertySpec("bdp-grid", bounds=fam)),
    ]
    reports = [O.compute_distance(f, prop) for f, prop in cases]
    with contextlib.ExitStack() as stack:
        for name in _ORACLES:
            stack.enter_context(mock.patch.object(O, name, side_effect=AssertionError(name)))
        for (f, prop), report in zip(cases, reports):
            assert O.verify_report(f, prop, report)


_BAD_CERTIFICATES = {
    # name: (function, property, absolute, certificate)
    "convex-erased-point": (line_fn([1, ERASED, 2, 3]), O.PropertySpec("convex-line"), 0,
                            ("kept", (1,), (2,), (3,), (4,))),
    "convex-outside-domain": (line_fn([1, ERASED, 2, 3]), O.PropertySpec("convex-line"), 0,
                              ("kept", (1,), (3,), (4,), (9,))),
    "convex-repeated-point": (line_fn([1, 2, 3, 10]), O.PropertySpec("convex-line"), 0,
                              ("kept", (1,), (1,), (2,), (3,))),
    "convex-no-point": (line_fn([1, 2, 3, 10]), O.PropertySpec("convex-line"), 4, ("kept",)),
    "k-runs-repeated-point": (line_fn([0, 0, 1, 0], kind="bit"), O.PropertySpec("k-runs", k=2),
                              0, ("kept", (1,), (1,), (2,), (3,))),
    "monotone-line-unhashable-point": (line_fn([1, 2, 3]), O.PropertySpec("monotone-line"), 0,
                                       ("kept", (1,), [2], (3,))),
    "grid-erased-point": (grid_fn(2, 2, sum, erased={(2, 1)}), O.PropertySpec("monotone-grid"),
                          0, ("kept", (1, 1), (2, 1), (1, 2), (2, 2))),
    "grid-outside-domain": (grid_fn(2, 2, sum), O.PropertySpec("monotone-grid"), 0,
                            ("kept", (1, 1), (2, 1), (1, 2), (3, 2))),
    "grid-repeated-point": (grid_fn(2, 2, sum), O.PropertySpec("monotone-grid"), 0,
                            ("kept", (1, 1), (1, 1), (2, 1), (1, 2))),
    "grid-no-point": (grid_fn(2, 2, sum), O.PropertySpec("monotone-grid"), 4, ("kept",)),
    # the completion lifts the kept point (2,1) to 2, so the certificate
    # does not name the one point it changes
    "grid-completion-changes-kept-point": (ErasedFunction(Domain.grid(2, 2), [2, 1, 5, 6]),
                                           O.PropertySpec("monotone-grid"), 1,
                                           ("kept", (1, 1), (2, 1), (1, 2), (2, 2))),
    # the completion fills every point with 0, so point 1 is left out unchanged
    "k-runs-left-out-point-unchanged": (line_fn([0, 0, 1, 1], kind="bit"),
                                        O.PropertySpec("k-runs", k=1), 3, ("kept", (2,))),
    "k-runs-no-point": (line_fn([0, 0, 1, 1], kind="bit"), O.PropertySpec("k-runs", k=1), 4,
                        ("kept",)),
    "low-degree-no-point": (line_fn([0, 1, 2, 3], kind="field", modulus=5),
                            O.PropertySpec("low-degree", degree=1), 4, ("kept",)),
    "matching-outside-domain": (grid_fn(2, 2, lambda p: -sum(p)), O.PropertySpec("monotone-grid"),
                                1, ("matching", ((1, 1), (3, 3)))),
    "matching-not-a-pair": (grid_fn(2, 2, lambda p: -sum(p)), O.PropertySpec("monotone-grid"),
                            1, ("matching", (1, 1))),
    # f(1,1) exceeds f(2,2) by float noise only, which no certificate check counts
    "matching-float-noise": (grid_fn(2, 2, lambda p: 1.0 + 1e-12 * (p == (1, 1))),
                             O.PropertySpec("monotone-grid"), 1, ("matching", ((1, 1), (2, 2)))),
    "matching-float-noise-reversed": (grid_fn(2, 2, lambda p: 1.0 + 1e-12 * (p == (1, 1))),
                                      O.PropertySpec("monotone-grid"), 1,
                                      ("matching", ((2, 2), (1, 1)))),
}


@pytest.mark.parametrize("case", sorted(_BAD_CERTIFICATES))
def test_bad_certificates_fail_without_raising(case):
    f, prop, absolute, cert = _BAD_CERTIFICATES[case]
    report = O.DistanceReport(prop.tag, absolute, Fraction(absolute, 4), cert,
                              is_lower_bound=cert[0] == "matching")
    assert O.verify_report(f, prop, report) is False


def test_verify_report_fails_a_certificate_kind_that_disagrees_with_the_report():
    fn = line_fn([1, 2, 3])
    prop = O.PropertySpec("monotone-line")
    honest = O.compute_distance(fn, prop)
    assert O.verify_report(fn, prop, honest)
    assert not O.verify_report(fn, prop, replace(honest, is_lower_bound=True))
    grid = grid_fn(2, 2, lambda p: -sum(p))
    prop = O.PropertySpec("bdp-grid", bounds=BoundingFamily.lipschitz(2, 2))
    bound = O.compute_distance(grid, prop)
    assert bound.is_lower_bound and O.verify_report(grid, prop, bound)
    assert not O.verify_report(grid, prop, replace(bound, is_lower_bound=False))


def test_verify_report_fails_a_k_runs_kept_set_with_too_many_runs():
    fn = line_fn([0, 1, 0, 1], kind="bit")
    prop = O.PropertySpec("k-runs", k=3)
    # three alternations make four runs: one more than k allows
    assert not O.verify_report(fn, prop, _all_kept(fn, prop))
    assert O.verify_report(fn, O.PropertySpec("k-runs", k=4),
                           _all_kept(fn, O.PropertySpec("k-runs", k=4)))


def test_verify_report_fails_a_matching_on_a_line_property():
    fn = line_fn([2, 1])
    report = O.DistanceReport("monotone-line", 1, Fraction(1, 2),
                              ("matching", ((1,), (2,))), is_lower_bound=True)
    assert not O.verify_report(fn, O.PropertySpec("monotone-line"), report)


_EXACT_REALS = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-6, 6),
                                                       st.integers(1, 3)))


@st.composite
def _small_line_case(draw, tag):
    """A line of 1 to 7 points with erasures, and a ``tag`` property that
    fits it: ints and Fractions for the real properties (bdp-line bounds of
    ints, Fractions and infinities), bits for k-runs, GF(7) for low-degree."""
    n = draw(st.integers(1, 7))
    values, kind, params = _EXACT_REALS, {}, {}
    if tag == "k-runs":
        values, kind = st.sampled_from([0, 1]), {"kind": "bit"}
        params = {"k": draw(st.integers(1, 3))}
    elif tag == "low-degree":
        values, kind = st.integers(0, 6), {"kind": "field", "modulus": 7}
        params = {"degree": draw(st.integers(0, 2))}
    elif tag == "bdp-line":
        lower = draw(st.lists(st.sampled_from([-INF, -1, 0, Fraction(1, 2)]),
                              min_size=n - 1, max_size=n - 1))
        widths = draw(st.lists(st.sampled_from([Fraction(1, 2), 1, 2, INF]),
                               min_size=n - 1, max_size=n - 1))
        params = {"bounds": LineBoundingPair(
            lower, [w if lo == -INF else lo + w for lo, w in zip(lower, widths)])}
    vals = draw(st.lists(st.one_of(values, st.just(ERASED)), min_size=n, max_size=n))
    if all(v is ERASED for v in vals):
        vals[draw(st.integers(0, n - 1))] = draw(values)
    return line_fn(vals, **kind), O.PropertySpec(tag, **params)


@pytest.mark.parametrize("tag", ["monotone-line", "convex-line", "bdp-line", "k-runs",
                                 "low-degree"])
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_no_report_verify_accepts_is_below_the_oracles_distance(tag, data):
    """Every kept set of a small line, offered as a report: each one
    ``verify_report`` accepts drops at least as many points as the oracle's
    report does, so the verifier cannot certify a distance below the exact
    one on exact values."""
    fn, prop = data.draw(_small_line_case(tag))
    exact = O.compute_distance(fn, prop).absolute
    valued = [i + 1 for i, v in enumerate(fn.values) if v is not ERASED]
    m = len(valued)
    for size in range(1, m + 1):
        for kept in itertools.combinations(valued, size):
            report = O.DistanceReport(tag, m - size, Fraction(m - size, m),
                                      ("kept",) + tuple((p,) for p in kept))
            assert not O.verify_report(fn, prop, report) or m - size >= exact


_LIP_3x3 = grid_fn(3, 2, lambda p: sum(p))
_MISFIT_REPORTS = {
    # name: (function, property, report, the sizes the bounds have)
    "one-dimension-family-on-a-grid": (
        _LIP_3x3, O.PropertySpec("bdp-grid", bounds=BoundingFamily.lipschitz(3, 1)),
        O.DistanceReport("bdp-grid", 1, Fraction(1, 9), ("matching", ((1, 1), (3, 1))),
                         is_lower_bound=True), "n=3, d=1; the domain has n=3, d=2"),
    "three-dimension-family-on-a-grid": (
        _LIP_3x3, O.PropertySpec("bdp-grid", bounds=BoundingFamily.lipschitz(3, 3)),
        O.DistanceReport("bdp-grid", 0, Fraction(0), ("matching",), is_lower_bound=True),
        "n=3, d=3; the domain has n=3, d=2"),
    "longer-bounds-on-a-line": (
        line_fn([0, 1, 2, 3]), O.PropertySpec("bdp-line", bounds=LineBoundingPair.lipschitz(6)),
        O.DistanceReport("bdp-line", 0, Fraction(0), ("kept", (1,), (2,), (3,), (4,))),
        "n=6, d=1; the domain has n=4, d=1"),
    "shorter-bounds-on-a-line": (
        line_fn([0, 1, 2, 3]), O.PropertySpec("bdp-line", bounds=LineBoundingPair.lipschitz(3)),
        O.DistanceReport("bdp-line", 0, Fraction(0), ("kept", (1,), (2,), (3,), (4,))),
        "n=3, d=1; the domain has n=4, d=1"),
}


@pytest.mark.parametrize("case", sorted(_MISFIT_REPORTS))
def test_verify_report_refuses_bounds_that_do_not_fit_the_function(case):
    fn, prop, report, sizes = _MISFIT_REPORTS[case]
    with pytest.raises(ValueError) as err:
        O.verify_report(fn, prop, report)
    assert str(err.value) == f"{prop.tag} bounds have {sizes}"


@pytest.mark.parametrize("tag", ["monotone-line", "convex-line"])
def test_verify_report_refuses_a_line_property_on_a_grid(tag):
    # a monotone-line kept set on a grid is refused, not checked as a
    # monotone-grid one, in the words compute_distance uses
    fn, prop = grid_fn(2, 2, sum), O.PropertySpec(tag)
    for call in (lambda: O.compute_distance(fn, prop),
                 lambda: O.verify_report(fn, prop, _all_kept(fn, prop))):
        with pytest.raises(ConfigError) as err:
            call()
        assert str(err.value) == f"{tag} runs on line domains, got d=2"


_ORACLE_REFUSALS = {
    "line-pairs-on-grid": (lambda: O.line_pairs(grid_fn(2, 2, sum)),
                           ValueError, "expected a line domain"),
    "k-runs-k-zero": (lambda: O.distance_to_k_runs(line_fn([0, 1], kind="bit"), 0),
                      ValueError, "k must be at least 1"),
    "k-runs-real": (lambda: O.distance_to_k_runs(line_fn([0, 1]), 2),
                    ValueError, "runs are defined for bit-valued functions"),
    "low-degree-real": (lambda: O.distance_to_low_degree(line_fn([0, 1]), 1),
                        ValueError, "low-degree distance needs a field-valued function"),
    "low-degree-large-field": (
        lambda: O.distance_to_low_degree(line_fn([0, 1, 5], kind="field", modulus=67), 1),
        SizeLimit, "beyond the exhaustive coefficient regime"),
    "low-degree-many-coefficients": (
        lambda: O.distance_to_low_degree(line_fn([0, 1], kind="field", modulus=61), 3),
        SizeLimit, "beyond the exhaustive coefficient regime"),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_REFUSALS))
def test_oracles_refuse_inputs_outside_their_scope(case):
    call, error, message = _ORACLE_REFUSALS[case]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_a_low_degree_member_is_reported_past_the_size_gate():
    """The member exit runs before the size gate: a member at p = 67, past
    the exhaustive regime, gets the all-kept report, and a degree-4 member
    on 31 points, where 31^5 is past the enumeration cap, is generated."""
    fn = line_fn([0, 1], kind="field", modulus=67)
    assert O.distance_to_low_degree(fn, 1) == _all_kept(fn, O.PropertySpec("low-degree", degree=1))
    prop = O.PropertySpec("low-degree", degree=4)
    member = generate_member_instance(prop, Domain.line(31), 0, make_rng(1))
    assert O.distance_to_low_degree(member, 4) == _all_kept(member, prop)


# ---------------------------------------------------------------------------
# gates, errors, restorability

def test_grid_gate_enforced():
    dom = Domain.grid(5, 2)
    f = ErasedFunction(dom, list(range(25)))
    with pytest.raises(SizeLimit):
        ref.distance_to_monotone_grid_small(f)


def test_low_degree_rejects_composite_modulus():
    f = line_fn([0, 1, 2], kind="field", modulus=15)
    with pytest.raises(InvalidField):
        O.distance_to_low_degree(f, 1)


def test_low_degree_rejects_degree_beyond_field():
    f = line_fn([0, 1, 2], kind="field", modulus=3)
    with pytest.raises(ValueError):
        O.distance_to_low_degree(f, 3)


def test_low_degree_refuses_a_line_longer_than_the_field():
    """Position i names field element i-1, so 14 points over GF(7) name
    each element twice; the oracle and the verifier refuse the line."""
    f = line_fn([(3 * x + 2) % 7 for x in range(14)], kind="field", modulus=7)
    prop = O.PropertySpec("low-degree", degree=1)
    kept = O.DistanceReport("low-degree", 0, Fraction(0), ("kept",) + tuple((i,) for i in range(1, 15)))
    message = "low-degree needs a line of at most p=7 points, got n=14"
    for call in (lambda: O.distance_to_low_degree(f, 1), lambda: O.compute_distance(f, prop),
                 lambda: O.verify_report(f, prop, kept)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_restorable_vs_not():
    assert O.is_restorable(line_fn([0, ERASED, 1]), O.PropertySpec("monotone-line"))
    assert not O.is_restorable(line_fn([1, ERASED, 0]), O.PropertySpec("monotone-line"))
    assert O.is_restorable(line_fn([ERASED, 2, ERASED, 2]),
                           O.PropertySpec("bdp-line", bounds=LineBoundingPair.lipschitz(4)))
    f = line_fn([(3 * x + 2) % 7 for x in range(7)], kind="field", modulus=7)
    assert O.is_restorable(f, O.PropertySpec("low-degree", degree=1))


def test_restorable_means_distance_zero_on_members():
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randint(3, 9)
        base = sorted(rng.randint(-4, 4) for _ in range(n))
        vals = [ERASED if rng.random() < 0.3 else v for v in base]
        if all(v is ERASED for v in vals):
            vals[0] = base[0]
        f = line_fn(vals)
        assert O.is_restorable(f, O.PropertySpec("monotone-line"))

"""Hypergrid testers: the quasi-metric, axis-line machinery, dimension
reduction, and the two grid testers."""
import itertools
import random
from fractions import Fraction

import pytest

from ertest.core import (
    BUDGET_EXHAUSTED,
    ERASED,
    Domain,
    ErasedFunction,
    PreconditionViolated,
    QueryOracle,
    erased_fraction,
)
from ertest.line import (INF, LineBoundingPair, bdp_line_budget, convex_line_budget,
                         monotone_line_budget, one_sixth_iterations,
                         proximity_iterations)
from ertest.line import test_bdp_line as run_line_bdp
from ertest.hypergrid import (
    BoundingFamily,
    _exact_iterations,
    bdp_hypergrid_budget,
    check_grid_certificate,
    hypergrid_iterations,
    monotone_hypergrid_budget,
    quasi_metric,
)
from ertest.hypergrid import test_bdp_hypergrid as run_grid_bdp
from ertest.hypergrid import test_monotone_hypergrid as run_grid_monotone
from ertest import oracles as O
from ertest.transforms import k_runs_sample_size
from ertest.rng import make_rng

from reference_oracles import is_member_bdp
from reference_testers import AxisLine, all_axis_lines, axis_line_views, sample_axis_line


def grid_fn(n, d, mapping, erase=None, rng=None):
    dom = Domain.grid(n, d)
    vals = []
    for i in range(dom.size):
        p = dom.point_at(i)
        if erase is not None and erase(p, rng):
            vals.append(ERASED)
        else:
            vals.append(mapping(p))
    return ErasedFunction(dom, vals)


# ---------------------------------------------------------------------------
# quasi-metric

def test_quasi_metric_worked_example():
    fam = BoundingFamily((
        LineBoundingPair((-1, -1), (1, 2)),
        LineBoundingPair((0, 0), (5, 5)),
    ))
    assert quasi_metric(fam, (3, 1), (1, 2)) == 3
    assert quasi_metric(fam, (2, 2), (2, 2)) == 0


def test_quasi_metric_monotone_bounds():
    fam = BoundingFamily.monotone(4, 2)
    assert quasi_metric(fam, (1, 2), (3, 4)) == 0  # x below y: no slack down
    assert quasi_metric(fam, (3, 4), (1, 2)) == INF


def test_quasi_metric_lipschitz_is_scaled_l1():
    fam = BoundingFamily.lipschitz(5, 3, c=2)
    rng = random.Random(71)
    for _ in range(200):
        x = tuple(rng.randint(1, 5) for _ in range(3))
        y = tuple(rng.randint(1, 5) for _ in range(3))
        l1 = sum(abs(a - b) for a, b in zip(x, y))
        assert quasi_metric(fam, x, y) == 2 * l1
        assert quasi_metric(fam, y, x) == 2 * l1


def test_quasi_metric_never_negative_infinity():
    fam = BoundingFamily((
        LineBoundingPair((-INF, -1), (1, 2)),
        LineBoundingPair((0, 0), (INF, 5)),
    ))
    for x, y in itertools.permutations(itertools.product((1, 2, 3), repeat=2), 2):
        assert quasi_metric(fam, x, y) != -INF


def test_bounding_family_validation():
    with pytest.raises(ValueError):
        BoundingFamily(())
    with pytest.raises(ValueError):
        BoundingFamily((LineBoundingPair.monotone(3), LineBoundingPair.monotone(4)))
    with pytest.raises(ValueError):
        LineBoundingPair((1, 1), (1, 2))  # lower must sit strictly below upper


# ---------------------------------------------------------------------------
# membership characterizations

def test_member_examples():
    fam = BoundingFamily.monotone(3, 2)
    const = {p: 5 for p in Domain.grid(3, 2).points()}
    assert is_member_bdp(const, fam)

    lip = BoundingFamily.lipschitz(4, 2)
    sums = {p: p[0] + p[1] for p in Domain.grid(4, 2).points()}
    assert is_member_bdp(sums, lip)


def test_pairwise_equals_per_edge_on_random_functions():
    # the all-pairs quasi-metric characterization against the per-edge
    # derivative condition, 1000 random functions on the 3^3 grid
    dom = Domain.grid(3, 3)
    points = list(dom.points())
    rng = random.Random(72)
    for trial in range(1000):
        if trial % 3 == 0:
            fam = BoundingFamily.lipschitz(3, 3, c=rng.randint(1, 2))
        else:
            dims = []
            for _ in range(3):
                lower = tuple(rng.randint(-2, 1) for _ in range(2))
                upper = tuple(l + rng.randint(1, 3) for l in lower)
                dims.append(LineBoundingPair(lower, upper))
            fam = BoundingFamily(tuple(dims))
        f = {p: rng.randint(-4, 4) for p in points}

        by_edges = True
        for p in points:
            for r in range(3):
                if p[r] < 3:
                    q = p[:r] + (p[r] + 1,) + p[r + 1:]
                    step = f[q] - f[p]
                    b = fam.per_dim[r]
                    if step < b.lower[p[r] - 1] or step > b.upper[p[r] - 1]:
                        by_edges = False
        assert is_member_bdp(f, fam) == by_edges


# ---------------------------------------------------------------------------
# axis lines

def test_axis_line_counts():
    assert sum(1 for _ in all_axis_lines(Domain.grid(3, 2))) == 6
    assert sum(1 for _ in all_axis_lines(Domain.grid(2, 2))) == 4
    assert sum(1 for _ in all_axis_lines(Domain.grid(4, 3))) == 3 * 16
    assert sum(1 for _ in all_axis_lines(Domain.line(9))) == 1


def test_axis_line_points():
    line = AxisLine(2, (3, 4))
    assert line.point(1) == (3, 1, 4)
    assert line.point(5) == (3, 5, 4)


def test_axis_line_sampling_is_uniform():
    # 4 lines on the 2x2 grid; chi-squared with 3 dof, 10^-3 critical 16.27
    dom = Domain.grid(2, 2)
    rng = random.Random(73)
    trials = 100_000
    counts = {}
    for _ in range(trials):
        line = sample_axis_line(dom, rng)
        counts[line] = counts.get(line, 0) + 1
    assert len(counts) == 4
    expected = trials / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 16.27, f"chi-squared {chi2:.2f} flags non-uniform lines"


def test_single_line_domain():
    dom = Domain.line(8)
    rng = random.Random(74)
    for _ in range(20):
        assert sample_axis_line(dom, rng) == AxisLine(1, ())


def _axis_line(view) -> AxisLine:
    """The reference line of an axis-line view, read off its first point."""
    first = view.point(1)
    return AxisLine(view.axis, first[:view.axis - 1] + first[view.axis:])


def test_axis_line_view_reads_every_point_of_its_line():
    # the views _axis_searches builds reach every axis line; each reads its
    # line's points, every line once
    dom = Domain.grid(4, 3)
    fn = ErasedFunction(dom, [ERASED if i % 7 == 3 else i * i for i in range(dom.size)])
    oracle = QueryOracle(fn, budget=dom.size * dom.d)
    seen = set()
    for view, *_ in axis_line_views(oracle, 2000, (None,) * dom.d, random.Random(0)):
        line = _axis_line(view)
        if line in seen:
            continue
        seen.add(line)
        for p in range(1, dom.n + 1):
            assert view.query_index(p - 1) == fn.value_at(line.point(p))
    assert seen == set(all_axis_lines(dom))
    assert oracle.count == oracle.budget


@pytest.mark.parametrize("pos", [0, 5, -1])
def test_axis_line_view_refuses_a_position_off_its_line(pos):
    oracle = QueryOracle(grid_fn(4, 3, lambda p: sum(p)), budget=10)
    ((view, *_),) = axis_line_views(oracle, 1, (None,) * 3, random.Random(0))
    with pytest.raises(ValueError, match=f"^position {pos} outside the axis line \\[1, 4\\]$"):
        view.query_index(pos - 1)
    assert oracle.count == 0


class _SubRandom(random.Random):
    pass


class _Indices(random.Random):
    """Hands out the given values as its random bits, one per call."""

    def __init__(self, values):
        super().__init__(0)
        self._values = iter(values)

    def getrandbits(self, k):
        return next(self._values)


_FOLD_SHAPES = [(d, n) for d in (1, 2, 3, 4) for n in (1, 2, 3, 5, 16)]


@pytest.mark.parametrize("rng_type", [random.Random, _SubRandom])
@pytest.mark.parametrize("d, n", _FOLD_SHAPES)
def test_folded_axis_draws_build_the_view_of_sample_axis_line(d, n, rng_type):
    # _axis_searches draws each line as one index in [0, d * n^(d-1)): the
    # indices map one-to-one onto the axis lines, each view reads the points
    # of sample_axis_line's line for that index, and on a seeded stream the
    # view, and the stream after it, match sample_axis_line's on a plain
    # Random, with the base and stride Domain.index_of's order gives it; a
    # line (d = 1) is its own one axis line, so its view is the whole line
    # and the stream is left as it was
    dom = Domain.grid(n, d)
    fn = ErasedFunction(dom, [i * i for i in range(dom.size)])
    count = d * n ** (d - 1)
    oracle = QueryOracle(fn, budget=count * n)
    checks = tuple(object() for _ in range(d))
    views = axis_line_views(oracle, count, checks, _Indices(range(count)))
    assert len(views) == count
    lines = [sample_axis_line(dom, _Indices([x])) for x in range(count)]
    assert len(set(lines)) == count and set(lines) == set(all_axis_lines(dom))
    for (view, check, _), line in zip(views, lines):
        assert (view.axis, check) == (line.axis, checks[line.axis - 1])
        for p in range(1, n + 1):
            assert view.point(p) == line.point(p)
            assert view.query_index(p - 1) == fn.value_at(line.point(p))
    for seed in range(6):
        folded, plain = rng_type(seed), random.Random(seed)
        for view, check, state in axis_line_views(oracle, 30, checks, folded):
            line = sample_axis_line(dom, plain) if d > 1 else AxisLine(1, ())
            assert _axis_line(view) == line
            assert (view.oracle, view.axis, view.n) == (oracle, line.axis, n)
            assert view.base == dom.index_of(line.point(1))
            assert view.stride == n ** (line.axis - 1)
            assert check is checks[line.axis - 1]
            assert state == plain.getstate()


# ---------------------------------------------------------------------------
# budgets, iterations, preconditions

def test_budget_worked_examples():
    assert monotone_hypergrid_budget(8, 2, Fraction(1, 5), 0) == 36000
    assert bdp_hypergrid_budget(8, 2, Fraction(2, 5), 0) == 72000


def test_iteration_worked_examples():
    assert hypergrid_iterations(2, Fraction(1, 5), 0, 12) == 120
    assert hypergrid_iterations(2, Fraction(2, 5), 0, 48) == 240


def test_iteration_cache_keys_on_the_checked_parameters():
    # 0.3 means 3/10; Fraction(0.3), equal and of equal hash, is the binary
    # double just below it, so 24 / eps is just above 80
    for order in ([0.3, Fraction(0.3)], [Fraction(0.3), 0.3]):
        _exact_iterations.cache_clear()
        got = [hypergrid_iterations(2, eps, 0, 12) for eps in order * 2]
        assert got == [80 if type(eps) is float else 81 for eps in order * 2]


@pytest.mark.parametrize("helper", [
    lambda eps: monotone_line_budget(64, eps, 0),
    lambda eps: convex_line_budget(64, eps, 0),
    lambda eps: bdp_line_budget(64, eps, 0),
    lambda eps: monotone_hypergrid_budget(8, 2, eps, 0),
    lambda eps: bdp_hypergrid_budget(8, 2, eps, 0),
    lambda eps: hypergrid_iterations(2, eps, 0, 12),
    lambda eps: k_runs_sample_size(2, eps),
    proximity_iterations,
    one_sixth_iterations,
], ids=["monotone-line", "convex-line", "bdp-line", "monotone-grid", "bdp-grid",
        "grid-iterations", "k-runs", "proximity-iterations", "one-sixth-iterations"])
def test_budget_helpers_check_the_proximity_range(helper):
    for eps in (0, -1, 2):
        with pytest.raises(ValueError, match=f"proximity parameter {eps} outside"):
            helper(eps)


def test_monotone_gate_rejects_large_alpha_before_queries():
    f = grid_fn(8, 2, lambda p: p[0] + p[1])
    oracle = QueryOracle(f)
    with pytest.raises(PreconditionViolated):
        run_grid_monotone(oracle, Fraction(1, 5), Fraction(1, 100), random.Random(0))
    assert oracle.count == 0
    # boundary case is allowed: alpha = eps / (250 d)
    ok = run_grid_monotone(QueryOracle(f), Fraction(1, 5), Fraction(1, 2500),
                           random.Random(0))
    assert not ok.is_reject


def test_bdp_gate_is_tighter():
    f = grid_fn(8, 2, lambda p: p[0] + p[1])
    fam = BoundingFamily.lipschitz(8, 2)
    with pytest.raises(PreconditionViolated):
        run_grid_bdp(QueryOracle(f), fam, Fraction(1, 5), Fraction(1, 2500),
                     random.Random(0))
    ok = run_grid_bdp(QueryOracle(f), fam, Fraction(1, 5), Fraction(1, 9700),
                      random.Random(0))
    assert not ok.is_reject


def test_family_must_match_domain():
    f = grid_fn(8, 2, lambda p: p[0] + p[1])
    for bounds, message in [
            (BoundingFamily.lipschitz(8, 3),
             "bdp-grid bounds have n=8, d=3; the domain has n=8, d=2"),
            (LineBoundingPair.lipschitz(8),
             "bdp-grid needs BoundingFamily bounds, got LineBoundingPair")]:
        with pytest.raises(ValueError) as err:
            run_grid_bdp(QueryOracle(f), bounds, Fraction(1, 5), 0, random.Random(0))
        assert str(err.value) == message
        # the erasure-bound gate still comes first
        with pytest.raises(PreconditionViolated):
            run_grid_bdp(QueryOracle(f), bounds, Fraction(1, 5), Fraction(1, 2500),
                         random.Random(0))


def test_iteration_count_refuses_an_erasure_bound_past_its_precondition():
    # eps (1 - alpha) - 4 d alpha = 7/32 - 1 is not positive
    with pytest.raises(PreconditionViolated) as err:
        hypergrid_iterations(2, Fraction(1, 4), Fraction(1, 8), 12)
    assert str(err.value) == "erasure bound too large for the iteration count"


# ---------------------------------------------------------------------------
# dimension reduction, exactly

def test_mean_line_erasure_equals_total_erasure():
    rng = random.Random(75)
    for n, d in ((4, 3), (8, 3), (8, 2), (5, 2)):
        f = grid_fn(n, d, lambda p: sum(p),
                    erase=lambda p, r: r.random() < 0.3, rng=rng)
        alpha = erased_fraction(f)
        per_line = []
        for line in all_axis_lines(f.domain):
            erased = sum(f.value_at(line.point(pos)) is ERASED
                         for pos in range(1, n + 1))
            per_line.append(Fraction(erased, n))
        mean = sum(per_line, Fraction(0)) / len(per_line)
        assert mean == alpha
        # the Markov tail bound follows exactly
        for eta in (Fraction(1, 10), Fraction(1, 2)):
            if alpha == 0:
                assert all(a == 0 for a in per_line)
                continue
            over = sum(1 for a in per_line if a > alpha / eta)
            assert Fraction(over, len(per_line)) <= eta


def test_expected_line_distance_bound_exact():
    # E over lines of relative line distance >= (1-alpha) eps_f / 4d - alpha,
    # all quantities exact fractions, no tolerance
    rng = random.Random(76)
    cases = []
    for trial in range(12):
        cases.append(grid_fn(8, 2, lambda p: -p[0] - p[1],
                             erase=lambda p, r: r.random() < 0.1, rng=rng))
        cases.append(grid_fn(8, 2, lambda p: rng.randint(-4, 4),
                             erase=lambda p, r: r.random() < 0.2, rng=rng))
        cases.append(grid_fn(8, 2, lambda p: 7 * ((p[0] + p[1]) % 2),
                             erase=lambda p, r: r.random() < 0.05, rng=rng))
    for f in cases:
        d = f.domain.d
        total = O.distance_to_monotone_grid_exact(f)
        nonerased = f.domain.size - f.erased_count()
        eps_f = Fraction(total.absolute, nonerased)
        alpha = erased_fraction(f)
        terms = []
        for line in all_axis_lines(f.domain):
            restriction = [f.value_at(line.point(pos)) for pos in range(1, 9)]
            live = sum(v is not ERASED for v in restriction)
            if live == 0:
                terms.append(Fraction(0))
                continue
            lf = ErasedFunction(Domain.line(8), restriction)
            terms.append(Fraction(O.distance_to_monotone_line(lf).absolute, live))
        mean = sum(terms, Fraction(0)) / len(terms)
        assert mean >= (1 - alpha) * eps_f / (4 * d) - alpha


# ---------------------------------------------------------------------------
# tester behavior

def test_constant_grid_always_accepted():
    f = grid_fn(8, 2, lambda p: 3)
    for t in range(50):
        v = run_grid_monotone(QueryOracle(f), Fraction(1, 5), 0, make_rng(81, t))
        assert not v.is_reject


def test_member_grid_accepted_with_stray_erasures():
    rng = random.Random(82)
    f = grid_fn(8, 2, lambda p: p[0] + 2 * p[1],
                erase=lambda p, r: r.random() < 0.05, rng=rng)
    for t in range(100):
        v = run_grid_monotone(QueryOracle(f), Fraction(1, 5), 0, make_rng(83, t))
        assert not v.is_reject


def test_antitone_grid_rejected():
    f = grid_fn(8, 2, lambda p: -p[0] - p[1])
    r = O.distance_to_monotone_grid_exact(f)
    assert Fraction(r.absolute, 64) >= Fraction(1, 5)
    budget = monotone_hypergrid_budget(8, 2, Fraction(1, 5), 0)
    rejects = 0
    for t in range(100):
        v = run_grid_monotone(QueryOracle(f), Fraction(1, 5), 0, make_rng(84, t))
        assert v.queries_used <= budget
        if v.is_reject:
            rejects += 1
            assert check_grid_certificate(f, v.certificate)
    assert rejects >= 60


def test_lipschitz_member_grid_accepted():
    f = grid_fn(8, 2, lambda p: p[0] + p[1])
    fam = BoundingFamily.lipschitz(8, 2)
    for t in range(50):
        v = run_grid_bdp(QueryOracle(f), fam, Fraction(1, 5), 0, make_rng(85, t))
        assert not v.is_reject


def test_checkerboard_rejected_under_lipschitz_bounds():
    f = grid_fn(8, 2, lambda p: 10 * ((p[0] + p[1]) % 2))
    fam = BoundingFamily.lipschitz(8, 2)
    r = O.bdp_grid_matching_bound(f, fam)
    assert Fraction(r.absolute, 64) >= Fraction(1, 5)
    budget = bdp_hypergrid_budget(8, 2, Fraction(1, 5), 0)
    rejects = 0
    for t in range(100):
        v = run_grid_bdp(QueryOracle(f), fam, Fraction(1, 5), 0, make_rng(86, t))
        assert v.queries_used <= budget
        if v.is_reject:
            rejects += 1
            assert check_grid_certificate(f, v.certificate, fam)
    assert rejects >= 60


_WIDE = LineBoundingPair([-1e16], [1e17])
_RECHECKED = {
    # f(1) - f(2) = 1e16 + 128 exceeds -lower(1) = 1e16 by 128, yet 128 is
    # inside value_gt's tolerance at 1e16: the raw pair does not violate,
    # the distance is 0, and the G view, which decides as the raw pair
    # check does, flags nothing
    "line": (run_line_bdp, O.distance_to_bdp_line,
             ErasedFunction(Domain.line(2), [1e16 + 128, 0.0]), _WIDE),
    "grid": (run_grid_bdp, O.bdp_grid_matching_bound,
             ErasedFunction(Domain.grid(2, 2), [1e16 + 128, 0.0, 1e16 + 128, 0.0]),
             BoundingFamily((_WIDE, _WIDE))),
}


@pytest.mark.parametrize("case", sorted(_RECHECKED))
def test_bdp_testers_accept_when_the_raw_recheck_clears_a_view_flag(case):
    # certify does not recheck the raw pair, so the testers stay one-sided
    # only because the views decide as the raw pair check does
    run, distance, fn, bounds = _RECHECKED[case]
    assert distance(fn, bounds).absolute == 0
    for seed in range(5):
        verdict = run(QueryOracle(fn), bounds, Fraction(1, 4), 0, make_rng(seed))
        assert not verdict.is_reject


def test_fully_erased_line_burns_budget_to_accept():
    # a dead line cannot yield a start point; the sampling loop ends only
    # at the global cap, which is an accept by the budget rule
    dom = Domain.grid(2, 2)
    vals = [ERASED, 1, ERASED, 2]  # column x1=1 entirely erased
    f = ErasedFunction(dom, vals)
    outcomes = set()
    for t in range(20):
        v = run_grid_monotone(QueryOracle(f), Fraction(1, 2), 0, make_rng(87, t))
        assert not v.is_reject
        outcomes.add(v.reason)
    assert BUDGET_EXHAUSTED in outcomes


def test_grid_certificate_checker_rejects_bogus_input():
    f = grid_fn(3, 2, lambda p: p[0] + p[1])
    assert not check_grid_certificate(f, ("monotone-violation", ((1, 1), 2), ((2, 2), 4)))
    assert not check_grid_certificate(f, ("monotone-violation", ((1, 1), 9), ((2, 2), 4)))
    g = grid_fn(3, 2, lambda p: -p[0])
    assert check_grid_certificate(g, ("monotone-violation", ((1, 2), -1), ((2, 2), -2)))
    assert not check_grid_certificate(g, ("monotone-violation", ((2, 1), -2), ((1, 2), -1)))
    # points and values hold, but the kind names no violation
    assert not check_grid_certificate(g, ("no-such-kind", ((1, 2), -1), ((2, 2), -2)))

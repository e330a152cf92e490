"""Erasure strategies, the middle-layer cube instance, certified instance
generators, and the deterministic baseline they defeat."""
import random
from fractions import Fraction

import pytest

from ertest.core import (
    ERASED,
    Domain,
    ErasedFunction,
    GenerationFailed,
    QueryOracle,
    erased_fraction,
    grid_le,
)
from ertest.adversary import (
    InstanceSpec,
    binary_search_pivot_order,
    certify_distance,
    classic_monotone_line,
    erase_binary_search_pivots,
    erase_none,
    erase_random,
    generate_far_instance,
    generate_member_instance,
    hypercube_middle_layer,
    middle_layer_matching,
)
from ertest.line import INF, LineBoundingPair
from ertest.line import test_monotone_line as run_monotone
from ertest.hypergrid import BoundingFamily
from ertest import oracles as O
from ertest.oracles import PropertySpec
from ertest.rng import make_rng

from reference_oracles import distance_to_monotone_grid_small, is_member_bdp
from reference_testers import all_axis_lines


def line_fn(values, **kw):
    return ErasedFunction(Domain.line(len(values)), values, **kw)


# ---------------------------------------------------------------------------
# random erasure

def test_erase_random_exact_count():
    fn = line_fn(list(range(1, 11)))
    rng = make_rng(5001)
    out = erase_random(fn, Fraction(1, 2), rng)
    assert out.erased_count() == 5
    assert out.declared_alpha == Fraction(1, 2)
    assert erase_random(fn, Fraction(1, 3), rng).erased_count() == 3
    untouched = erase_random(fn, 0, rng)
    assert untouched.erased_count() == 0
    assert untouched.values == fn.values


def test_erase_random_gates():
    fn = line_fn([1, 2, 3])
    with pytest.raises(ValueError):
        erase_random(fn, 1, make_rng(1))
    holed = line_fn([1, ERASED, 3])
    with pytest.raises(ValueError):
        erase_random(holed, Fraction(1, 3), make_rng(1))


def test_erase_random_per_point_frequency():
    fn = line_fn(list(range(1, 9)))
    rng = make_rng(5002)
    trials = 20000
    hits = [0] * 8
    for _ in range(trials):
        out = erase_random(fn, Fraction(1, 2), rng)
        for i, v in enumerate(out.values):
            hits[i] += v is ERASED
    # exactly 4 of 8 go each time, so each point is erased w.p. 1/2
    band = 4 * (0.25 / trials) ** 0.5
    for h in hits:
        assert abs(h / trials - 0.5) <= band


# ---------------------------------------------------------------------------
# pivot erasure

def test_pivot_order_level_by_level():
    assert binary_search_pivot_order(15)[:7] == [8, 4, 12, 2, 6, 10, 14]
    assert binary_search_pivot_order(7) == [4, 2, 6, 1, 3, 5, 7]
    assert binary_search_pivot_order(1) == [1]
    assert sorted(binary_search_pivot_order(15)) == list(range(1, 16))


def test_erase_pivots_top_levels():
    fn = line_fn(list(range(1, 16)))
    out = erase_binary_search_pivots(fn, Fraction(7, 15))
    gone = {i + 1 for i, v in enumerate(out.values) if v is ERASED}
    assert gone == {8, 4, 12, 2, 6, 10, 14}

    ten = line_fn(list(range(1, 11)))
    just_mid = erase_binary_search_pivots(ten, Fraction(1, 10))
    assert [i + 1 for i, v in enumerate(just_mid.values) if v is ERASED] == [5]


def test_erase_pivots_gates():
    fn = line_fn([1, 2, 3, 4])
    with pytest.raises(ValueError):
        erase_binary_search_pivots(fn, 0)
    grid = ErasedFunction(Domain.grid(2, 2), [1, 2, 3, 4])
    with pytest.raises(ValueError):
        erase_binary_search_pivots(grid, Fraction(1, 4))
    holed = line_fn([1, ERASED, 3])
    with pytest.raises(ValueError):
        erase_binary_search_pivots(holed, Fraction(1, 3))
    assert erase_none(fn, Fraction(1, 2)) is fn


# ---------------------------------------------------------------------------
# the baseline and the A/B demonstration

def test_classic_tester_works_on_total_inputs():
    rng = make_rng(5101)
    sorted_fn = line_fn(list(range(1, 1024)))
    for _ in range(20):
        v = classic_monotone_line(QueryOracle(sorted_fn), Fraction(1, 4), 0, rng)
        assert not v.is_reject
    reversed_fn = line_fn(list(range(1023, 0, -1)))
    rejects = sum(
        classic_monotone_line(QueryOracle(reversed_fn), Fraction(1, 4), 0,
                              make_rng(5102, t)).is_reject
        for t in range(20))
    assert rejects == 20


def test_pivot_erasure_blinds_classic_but_not_randomized():
    # 1023 points: the deterministic search tree has 511 internal nodes, so
    # alpha = 1/2 erases exactly them and every remaining point is a leaf.
    # The classic searcher then reaches any target without one comparison.
    total = line_fn(list(range(1023, 0, -1)))
    fn = erase_binary_search_pivots(total, Fraction(1, 2))
    assert fn.erased_count() == 511
    report = O.distance_to_monotone_line(fn)
    assert report.relative == Fraction(511, 512)

    trials = 50
    eps, alpha = Fraction(1, 4), Fraction(1, 2)
    classic_rejects = sum(
        classic_monotone_line(QueryOracle(fn), eps, alpha,
                              make_rng(5103, t)).is_reject
        for t in range(trials))
    assert classic_rejects == 0

    resilient_rejects = sum(
        run_monotone(QueryOracle(fn), eps, alpha, make_rng(5104, t)).is_reject
        for t in range(trials))
    assert resilient_rejects >= 30


# ---------------------------------------------------------------------------
# middle-layer cube

def test_middle_layer_shape():
    fn = hypercube_middle_layer(4)
    assert erased_fraction(fn) == Fraction(6, 16)
    assert fn.value_at((2, 2, 1, 1)) is ERASED  # weight 2 = d/2
    assert fn.value_at((2, 1, 1, 1)) == 1
    assert fn.value_at((2, 2, 2, 1)) == 0
    assert erased_fraction(hypercube_middle_layer(10)) == Fraction(252, 1024)
    for bad in (3, 0, 7):
        with pytest.raises(ValueError):
            hypercube_middle_layer(bad)


def test_middle_layer_axis_lines_lose_at_most_one_point():
    fn = hypercube_middle_layer(4)
    for line in all_axis_lines(fn.domain):
        erased = sum(fn.value_at(line.point(pos)) is ERASED for pos in (1, 2))
        assert erased <= 1


def test_middle_layer_unviolated_but_far():
    for d in (4, 6, 8, 10, 12):
        fn = hypercube_middle_layer(d)
        dom = fn.domain
        # every axis-parallel edge between nonerased endpoints is fine
        for idx in range(dom.size):
            pt = dom.point_at(idx)
            lo = fn.values[idx]
            if lo is ERASED:
                continue
            for axis in range(d):
                if pt[axis] == 2:
                    continue
                up = fn.value_at(pt[:axis] + (2,) + pt[axis + 1:])
                if up is not ERASED:
                    assert lo <= up

        live = dom.size - fn.erased_count()
        pairs = middle_layer_matching(d)
        assert len(pairs) == live // 2
        mates = set()
        for x, y in pairs:
            assert grid_le(x, y) and x != y
            assert fn.value_at(x) == 1 and fn.value_at(y) == 0
            mates.add(y)
        assert len(mates) == len(pairs)
        # disjoint violated pairs each force one change, and flattening the
        # lower half to zero restores monotonicity, so distance is exactly 1/2
        if d == 4:
            assert distance_to_monotone_grid_small(fn).relative == Fraction(1, 2)


# ---------------------------------------------------------------------------
# certification dispatch

def test_certify_distance_routes():
    vals = [-(x + y) for x, y in
            (Domain.grid(3, 2).point_at(i) for i in range(9))]
    fn = ErasedFunction(Domain.grid(3, 2), vals)
    prop = PropertySpec("monotone-grid")
    report = certify_distance(fn, prop)
    assert report.absolute == O.distance_to_monotone_grid_exact(fn).absolute

    fam = BoundingFamily.lipschitz(3, 2)
    jumpy = ErasedFunction(Domain.grid(3, 2), [100 * ((x + y) % 2) for x, y in
                                               (Domain.grid(3, 2).point_at(i)
                                                for i in range(9))])
    bound = certify_distance(jumpy, PropertySpec("bdp-grid", bounds=fam))
    assert bound.is_lower_bound
    assert bound.absolute == O.bdp_grid_matching_bound(jumpy, fam).absolute


def test_certify_distance_matches_compute_distance():
    rng = random.Random(5210)
    tags = ("monotone-line", "bdp-line", "convex-line", "k-runs",
            "monotone-grid", "bdp-grid")
    for _ in range(120):
        tag = rng.choice(tags)
        grid = tag.endswith("-grid")
        domain = Domain.grid(rng.randint(2, 5), 2) if grid else Domain.line(rng.randint(2, 24))
        kind = "bit" if tag == "k-runs" else "real"
        vals = [rng.randint(0, 1) if kind == "bit" else rng.randint(-4, 4)
                for _ in range(domain.size)]
        fn = erase_random(ErasedFunction(domain, vals, kind=kind), Fraction(1, 5), rng)
        bounds = None
        if tag == "bdp-line":
            bounds = LineBoundingPair.lipschitz(domain.n)
        elif tag == "bdp-grid":
            bounds = BoundingFamily.lipschitz(domain.n, 2)
        prop = PropertySpec(tag, bounds=bounds, k=2 if kind == "bit" else None)
        assert certify_distance(fn, prop) == O.compute_distance(fn, prop)


# ---------------------------------------------------------------------------
# far and member generators

FAR_CASES = [
    (PropertySpec("monotone-line"), Domain.line(32), Fraction(1, 4)),
    (PropertySpec("bdp-line", bounds=LineBoundingPair.lipschitz(16)),
     Domain.line(16), Fraction(1, 4)),
    (PropertySpec("convex-line"), Domain.line(16), Fraction(1, 4)),
    (PropertySpec("monotone-grid"), Domain.grid(4, 2), Fraction(1, 4)),
    (PropertySpec("bdp-grid", bounds=BoundingFamily.lipschitz(4, 2)),
     Domain.grid(4, 2), Fraction(1, 4)),
    (PropertySpec("k-runs", k=2), Domain.line(64), Fraction(1, 5)),
    (PropertySpec("low-degree", degree=1), Domain.line(17), Fraction(1, 2)),
]


def test_far_generator_certifies_every_property():
    for case_idx, (prop, domain, target) in enumerate(FAR_CASES):
        rng = make_rng(5201, case_idx)
        alpha = 0 if prop.tag == "low-degree" else Fraction(1, 8)
        fn, report = generate_far_instance(prop, domain, target, alpha, rng)
        assert report.relative >= target
        assert fn.erased_count() == int(Fraction(alpha) * domain.size)
        assert erased_fraction(fn) <= Fraction(alpha)
        again = certify_distance(fn, prop)
        assert (again.absolute, again.relative) == (report.absolute, report.relative)


def test_far_reports_reverify():
    prop = PropertySpec("monotone-line")
    fn, report = generate_far_instance(prop, Domain.line(24), Fraction(1, 4),
                                       Fraction(1, 6), make_rng(5202))
    assert O.verify_report(fn, prop, report)
    runs = PropertySpec("k-runs", k=2)
    fn2, report2 = generate_far_instance(runs, Domain.line(40), Fraction(1, 5),
                                         0, make_rng(5203))
    assert O.verify_report(fn2, runs, report2)


def test_far_generator_gives_up_honestly():
    with pytest.raises(GenerationFailed):
        generate_far_instance(PropertySpec("monotone-line"), Domain.line(4),
                              Fraction(99, 100), 0, make_rng(5204))
    with pytest.raises(ValueError):
        generate_far_instance(PropertySpec("no-such-tag"), Domain.line(4),
                              Fraction(1, 4), 0, make_rng(5205))


def test_member_generator_every_property():
    for case_idx, (prop, domain, _) in enumerate(FAR_CASES):
        rng = make_rng(5301, case_idx)
        alpha = 0 if prop.tag == "low-degree" else Fraction(1, 8)
        fn = generate_member_instance(prop, domain, alpha, rng)
        assert fn.erased_count() == int(Fraction(alpha) * domain.size)
        if prop.tag in ("monotone-grid", "bdp-grid"):
            assert certify_distance(fn, prop).absolute == 0
        else:
            assert O.is_restorable(fn, prop)


def test_bdp_member_satisfies_edge_characterization():
    prop = PropertySpec("bdp-grid", bounds=BoundingFamily.lipschitz(4, 2))
    fn = generate_member_instance(prop, Domain.grid(4, 2), 0, make_rng(5302))
    table = {fn.domain.point_at(i): fn.values[i] for i in range(fn.domain.size)}
    assert is_member_bdp(table, prop.bounds)


def test_member_walk_fits_an_upper_bound_below_its_span():
    # every step window is (-inf, -10]: below the walk's default span of 8
    steep = LineBoundingPair([-INF] * 7, [-10] * 7)
    cases = ((PropertySpec("bdp-line", bounds=steep), Domain.line(8)),
             (PropertySpec("bdp-grid", bounds=BoundingFamily((steep, steep))), Domain.grid(8, 2)))
    for prop, domain in cases:
        for seed in range(20):
            fn = generate_member_instance(prop, domain, 0, make_rng(5303, seed))
            assert O.is_restorable(fn, prop)


# ---------------------------------------------------------------------------
# instance specs

def test_instance_spec_realize_and_determinism():
    spec = InstanceSpec(Domain.line(32), PropertySpec("monotone-line"),
                        member=False, target_eps=Fraction(1, 4),
                        erasure="random", alpha=Fraction(1, 8))
    fn1, rep1 = spec.realize(make_rng(5401))
    fn2, rep2 = spec.realize(make_rng(5401))
    assert fn1.values == fn2.values
    assert rep1.absolute == rep2.absolute

    member = InstanceSpec(Domain.line(16), PropertySpec("convex-line"),
                          member=True, alpha=Fraction(1, 4))
    fn, report = member.realize(make_rng(5402))
    assert report is None
    assert O.is_restorable(fn, PropertySpec("convex-line"))


def test_instance_spec_eraser_dispatch():
    base = InstanceSpec(Domain.line(15), PropertySpec("monotone-line"),
                        member=True, erasure="pivots", alpha=Fraction(7, 15))
    fn, _ = base.realize(make_rng(5403))
    gone = {i + 1 for i, v in enumerate(fn.values) if v is ERASED}
    assert gone == {8, 4, 12, 2, 6, 10, 14}

    none = InstanceSpec(Domain.line(8), PropertySpec("monotone-line"),
                        member=True, erasure="none", alpha=Fraction(1, 2))
    fn, _ = none.realize(make_rng(5404))
    assert fn.erased_count() == 0

    bad = InstanceSpec(Domain.line(8), PropertySpec("monotone-line"),
                       member=True, erasure="bogus")
    with pytest.raises(ValueError):
        bad.eraser()

    far_missing_target = InstanceSpec(Domain.line(8),
                                      PropertySpec("monotone-line"),
                                      member=False)
    with pytest.raises(ValueError):
        far_missing_target.realize(make_rng(5405))

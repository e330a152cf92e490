"""Erasure strategies, the middle-layer cube instance, certified instance
generators, and the deterministic baseline they defeat."""
import hashlib
import random
from fractions import Fraction

import pytest

from ertest.core import (
    ERASED,
    ConfigError,
    Domain,
    ErasedFunction,
    GenerationFailed,
    QueryOracle,
    erased_fraction,
    grid_le,
)
from ertest.adversary import (
    ERASERS,
    InstanceSpec,
    binary_search_pivot_order,
    certify_distance,
    erase_binary_search_pivots,
    erase_random,
    generate_far_instance,
    generate_member_instance,
    hypercube_middle_layer,
    middle_layer_matching,
)
from ertest.line import INF, LineBoundingPair, classic_monotone_line
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
    assert ERASERS["none"](fn, Fraction(1, 2), None) is fn


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


def test_classic_tester_refuses_a_grid():
    # refused, not searched as if its first 4 flat values were a line
    grid = ErasedFunction(Domain.grid(4, 2), [-sum(p) for p in Domain.grid(4, 2).points()])
    with pytest.raises(ValueError, match="^this tester runs on line domains$"):
        classic_monotone_line(QueryOracle(grid), Fraction(1, 4), 0, make_rng(0))


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


GENERATOR_MISFITS = [
    (PropertySpec("bdp-line", bounds=LineBoundingPair.lipschitz(8)), Domain.line(9),
     "bdp-line bounds have n=8, d=1; the domain has n=9, d=1"),
    (PropertySpec("monotone-line"), Domain.grid(4, 2),
     "monotone-line runs on line domains, got d=2"),
    (PropertySpec("bdp-grid", bounds=BoundingFamily.lipschitz(4, 2)), Domain.grid(3, 2),
     "bdp-grid bounds have n=4, d=2; the domain has n=3, d=2"),
]


@pytest.mark.parametrize("prop, domain, message", GENERATOR_MISFITS,
                         ids=["line-length", "line-on-grid", "grid-side"])
@pytest.mark.parametrize("member", [True, False], ids=["member", "far"])
def test_generators_refuse_a_misfit_before_drawing(prop, domain, message, member):
    rng = make_rng(5304)
    before = rng.getstate()
    with pytest.raises(ConfigError) as err:
        if member:
            generate_member_instance(prop, domain, Fraction(1, 8), rng)
        else:
            generate_far_instance(prop, domain, Fraction(1, 4), Fraction(1, 8), rng)
    assert str(err.value) == message
    assert rng.getstate() == before


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


def test_instance_spec_reads_the_one_eraser_table():
    def spec(name):
        return InstanceSpec(Domain.line(15), PropertySpec("monotone-line"),
                            member=True, erasure=name, alpha=Fraction(7, 15))

    assert set(ERASERS) == {"random", "pivots", "none"}
    for name in ERASERS:
        assert spec(name).eraser() is ERASERS[name]
    with pytest.raises(ValueError, match="^unknown erasure strategy 'bogus'$"):
        spec("bogus").eraser()
    # the pivots entry erases the top of the midpoint-search tree
    fn, _ = spec("pivots").realize(make_rng(5406))
    assert {i + 1 for i, v in enumerate(fn.values) if v is ERASED} == {8, 4, 12, 2, 6, 10, 14}


# ---------------------------------------------------------------------------
# generated instances, byte for byte

PINNED_ERASERS = {"monotone-line": ("pivots", "none"), "k-runs": ("pivots",),
                  "bdp-grid": ("none",)}


def _pinned_specs():
    """Every template, member and far, plus each eraser and bound form."""
    lip = LineBoundingPair.lipschitz(16)
    props = (
        (PropertySpec("monotone-line"), Domain.line(16), Fraction(1, 4)),
        (PropertySpec("bdp-line", bounds=lip), Domain.line(16), Fraction(1, 4)),
        (PropertySpec("convex-line"), Domain.line(16), Fraction(1, 4)),
        (PropertySpec("monotone-grid"), Domain.grid(4, 2), Fraction(1, 4)),
        (PropertySpec("monotone-grid"), Domain.grid(3, 3), Fraction(1, 4)),
        (PropertySpec("bdp-grid", bounds=BoundingFamily.lipschitz(4, 2)),
         Domain.grid(4, 2), Fraction(1, 4)),
        (PropertySpec("k-runs", k=2), Domain.line(16), Fraction(1, 5)),
        (PropertySpec("low-degree", degree=1), Domain.line(17), Fraction(1, 2)),
        (PropertySpec("bdp-line", bounds=LineBoundingPair([0] * 15, [INF] * 15)),
         Domain.line(16), Fraction(1, 4)),
        (PropertySpec("bdp-line", bounds=LineBoundingPair([-INF] * 15, [2] * 15)),
         Domain.line(16), Fraction(1, 4)),
        (PropertySpec("bdp-line", bounds=LineBoundingPair([-0.5] * 15, [1.25] * 15)),
         Domain.line(16), Fraction(1, 4)),
    )
    for prop, domain, target in props:
        for erasure in ("random",) + PINNED_ERASERS.get(prop.tag, ()):
            for member in (True, False):
                for seed in (41, 63):
                    name = (f"{prop.tag}-{domain.n}^{domain.d}-{erasure}-"
                            f"{'member' if member else 'far'}-{seed}")
                    if prop.tag == "bdp-line" and prop.bounds is not lip:
                        name += "-" + repr((prop.bounds.lower[0], prop.bounds.upper[0]))
                    yield name, seed, InstanceSpec(
                        domain, prop, member, None if member else target,
                        erasure, Fraction(1, 8))


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


PINNED_INSTANCES = {
    "monotone-line-16^1-random-member-41":
        "c9bc06e0934dc73c736f18c9411265ae88d6b7d89e16ecae8dddad7986655a28",
    "monotone-line-16^1-random-member-63":
        "bbab90ae62f2ce089da0210fa461c69a21d839a6bd5effe3600535c4cc1f25d3",
    "monotone-line-16^1-random-far-41":
        "6c9d226df23ab030c2d6c0c91731ce8c2eab848d77055913a9f2a735af76fed8",
    "monotone-line-16^1-random-far-63":
        "3620374260faa0a39a9e8df7fc20d9ca5a84bf1f69876ddd880a146a1933110f",
    "monotone-line-16^1-pivots-member-41":
        "4ad4a889016d0655c70c9e538bd34eb6057239b883af1ec000ae597773a00630",
    "monotone-line-16^1-pivots-member-63":
        "bf9b13b4a3fb3ada6662efb29a299750e8220bb2bf3450ba74e680446a3dff17",
    "monotone-line-16^1-pivots-far-41":
        "27111e37c3aa720d3be0140cc0e12935d560e1f24ffc790f8527e9954d83d096",
    "monotone-line-16^1-pivots-far-63":
        "ae683dcfdaf8fa29dcb91a8fa3b3e2a88b2907013bc72f0bdd9173818dabf543",
    "monotone-line-16^1-none-member-41":
        "8f5ae110f378dea1dfb496b30eb2fd8056e2307302ea985351844ef92d14ac8a",
    "monotone-line-16^1-none-member-63":
        "fc67cf8e8790e3c6794999a69bec538e41e2ab4248cf9430b2f6f0d5fce228bb",
    "monotone-line-16^1-none-far-41":
        "dacc745462bdaa18b6f9b14cea46fb32704223f29f871c6b6a6f8243bb1590ab",
    "monotone-line-16^1-none-far-63":
        "0ffc244d9817fc9c2ae9a5f23744d414c683cec2cead43970dcb99786ff00cc7",
    "bdp-line-16^1-random-member-41":
        "0dfa42ac1dda16e28c8e2fbb06a836062cfd912b14aab07d98dbd519e4f2b6bc",
    "bdp-line-16^1-random-member-63":
        "4ecaab05dc2230a0acdc4f741c965971ab77241df0f05abe4476ec2faa012aa5",
    "bdp-line-16^1-random-far-41":
        "36bf5417f88dd847f958c51a55cca6c33d065cc78099e13256a922c8c0d646eb",
    "bdp-line-16^1-random-far-63":
        "c26fb834f1f027d7bff0f5e62088116d2959f3d71f40a5a051007f4b83b3f864",
    "convex-line-16^1-random-member-41":
        "ece5630d6f73759419a418e6fb8c14192b4f6e9effacc70779c68f7864787722",
    "convex-line-16^1-random-member-63":
        "a76994e405adca1bfaf6e1ab3a3bc6a1f977e0eaa400289449d96045290d5fb0",
    "convex-line-16^1-random-far-41":
        "ee0e45ce3cf688d98dfe202ef954ab5aeeb9ad04356f7bd854d8149b6d7f481a",
    "convex-line-16^1-random-far-63":
        "c02543a79c768e8aee6689bce1b1be705f195f8666ad6c7c64d0a09082ee89df",
    "monotone-grid-4^2-random-member-41":
        "090a3b5772afcc147f473a6379dbb21a0b061393d74f4b8ab59081da79689225",
    "monotone-grid-4^2-random-member-63":
        "ae42475e7c1db9c95054750fe79db67819c129960b1c930c1b3d6a0d9bc61750",
    "monotone-grid-4^2-random-far-41":
        "ab914ac6bafd3317debba2dcc37147e544adb766ef7058c5c8892c9e08d3bc48",
    "monotone-grid-4^2-random-far-63":
        "7f529ddca46e55a335974579eaf91484f6652620a9adcca50c360065e1b722a6",
    "monotone-grid-3^3-random-member-41":
        "163914194bdd1c2305834f7539a1b5f594df3f5e4129d503b1483114c0fbea8b",
    "monotone-grid-3^3-random-member-63":
        "92dccb236404b4924919933ebb58d41d18b3cae04ad2974afbd7b849ccbb7c72",
    "monotone-grid-3^3-random-far-41":
        "52b7694a86d34837b23c3e70a45a621758c4ad2913a0fa1dbb558da01f15f38f",
    "monotone-grid-3^3-random-far-63":
        "825cf2c10970beaa21982cf51e8d1cea8230b8beea20beb40ac01eb0b4f4dc88",
    "bdp-grid-4^2-random-member-41":
        "7131debd543c732bb4d27c207999d39c4e1276101488afc78df9d214f2ea61db",
    "bdp-grid-4^2-random-member-63":
        "081ca687b1d2f700ad64baf97cc9c7b989101a2cee9d1ef29bc3abb6638e2a7f",
    "bdp-grid-4^2-random-far-41":
        "7f28a2e7131ad8754df6b51042c10d6cec03b5892f3ad8eb1bf288f3dc724e59",
    "bdp-grid-4^2-random-far-63":
        "328743f1630c0f69af7a86a4221ca97b45ca42bb2d69787cfef79bc7fed83bbe",
    "bdp-grid-4^2-none-member-41":
        "d700c45398277422440b5c8dc3c49afdea3bfe9206c1b90236eb9ca3fc91e7c4",
    "bdp-grid-4^2-none-member-63":
        "ee61fbf44edfcda3619e1329d1f4572028f1506f7f33f6398b99012795c2c4d9",
    "bdp-grid-4^2-none-far-41":
        "46987a531ce9ec5bd37d222c0bd6617d95636629f8dbec783ccf725a6932fbf6",
    "bdp-grid-4^2-none-far-63":
        "ae45ddd4adf285c7e35647e1146f067e8d73f0120df904e242d21b9cbeb57bdd",
    "k-runs-16^1-random-member-41":
        "de66b228c44ece2b345e07b952d2e182376ec73525363539c7e602e54a04e9bb",
    "k-runs-16^1-random-member-63":
        "76d7bed29b35838639a4c989624b09ed8308c4aad0b707d7c8470c56ff226677",
    "k-runs-16^1-random-far-41":
        "aeb7b431d06f551b542261c3329fd0caea6682aa47077341f6626579128d58ff",
    "k-runs-16^1-random-far-63":
        "1031895bca6f8537cf2f461a33ee86ae73bd79e7a55835fb238ef8d982c3cfd0",
    "k-runs-16^1-pivots-member-41":
        "ae7fc30728ce0f48c84893368cf65086b98f75bf44d953391fce845c49dad412",
    "k-runs-16^1-pivots-member-63":
        "613ab6d262cd702b329967fd2085a62bdd6331309367b0834203356acfa57461",
    "k-runs-16^1-pivots-far-41":
        "250fd43af4c4f3f2b298293023fcf4cb4cf6ea0e05577f723ef81ea9215dd2d6",
    "k-runs-16^1-pivots-far-63":
        "250fd43af4c4f3f2b298293023fcf4cb4cf6ea0e05577f723ef81ea9215dd2d6",
    "low-degree-17^1-random-member-41":
        "380315a79bdf47fcbf3b066322e2ef6b1a56f2ca5d74eb7d75d97740b9a9b205",
    "low-degree-17^1-random-member-63":
        "f132ec058eccdf5c73b7ba66415d0d9c4bf196cdd3422f7a0cf4d25c5ced8bd1",
    "low-degree-17^1-random-far-41":
        "81a0ac17d55d85040018017bcb73b0354292507539334ffbb99c96d4fe41a4a0",
    "low-degree-17^1-random-far-63":
        "cac7115acb6c75a6320c4a07acba301b644bab1ef7e91327c7cdb7c43a4b93af",
    "bdp-line-16^1-random-member-41-(0, inf)":
        "f37ee370890b8c4c318047b21fa33b4edca725270fec1a91ddf1839309bd9d5d",
    "bdp-line-16^1-random-member-63-(0, inf)":
        "b9f9776068bb0f80c80bca309e5c813fcf08db917ba66ccf4e7c8c062626b548",
    "bdp-line-16^1-random-far-41-(0, inf)":
        "76f58e330391e9b14fac44d92464076926bbedf29a45510abd53d490114c5b4b",
    "bdp-line-16^1-random-far-63-(0, inf)":
        "eaab19eeeb90c53879d63d9bb6d0baca6d7dfe8d5256936f7a607b78fffd00f9",
    "bdp-line-16^1-random-member-41-(-inf, 2)":
        "aae014992b2b601f5dbcedeb9aec2a10fd15fa41f1ecc3119872c89e688ddb87",
    "bdp-line-16^1-random-member-63-(-inf, 2)":
        "2606b5cfa4d64274b39f19897886be956bab47fb8fc76b1a76e5e93c9f817505",
    "bdp-line-16^1-random-far-41-(-inf, 2)":
        "c317e9e3e8d86dbb0319588b96ccf75434131be1a0ec05ce6b90de1c25343534",
    "bdp-line-16^1-random-far-63-(-inf, 2)":
        "35b0edd47302bdd1f71f629b08f242dc26cf1cc1a6f7007be15bf290dcb764fb",
    "bdp-line-16^1-random-member-41-(-0.5, 1.25)":
        "71b546a3c60a98d0cb6941d50a72cf8318612662f43f4dca38a7ee0ae7e833c7",
    "bdp-line-16^1-random-member-63-(-0.5, 1.25)":
        "7035adfeddfd1611d41fe9925003d910c9d3a31d03a616bbcd48e20b3abe5359",
    "bdp-line-16^1-random-far-41-(-0.5, 1.25)":
        "2c7bb94e344c5d02122684b28d4d6694a087dc9e487e838502cc41986451e251",
    "bdp-line-16^1-random-far-63-(-0.5, 1.25)":
        "402dde2759a52e3047b68e4443ae7b1b3bf83c222f3fd7334ecbeb07ba48bd29",
    "middle-layer-4":
        "794bd7fbed2dc2d3d8e87068e9ef981547157e3c56d6598c11057a0425294556",
    "middle-layer-matching-4":
        "287c3eaf67d679b55397a66bcfacbe40194a677d12c166b089d94c322db4b392",
}


def test_generated_instances_are_pinned_byte_for_byte():
    got = {}
    for name, seed, spec in _pinned_specs():
        fn, report = spec.realize(make_rng(seed))
        got[name] = _sha((fn.values, None if report is None else report.certificate))
    got["middle-layer-4"] = _sha((hypercube_middle_layer(4).values, None))
    got["middle-layer-matching-4"] = _sha(middle_layer_matching(4))
    assert got == PINNED_INSTANCES

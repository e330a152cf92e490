"""Domain plumbing: indexing, erasures, the query channel, and verdicts."""
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ertest.core import (
    ACCEPT,
    ALL_CHECKS_PASSED,
    BUDGET_EXHAUSTED,
    ERASED,
    REJECT,
    VIOLATION_FOUND,
    BudgetExhausted,
    ConfigError,
    Domain,
    ErasedFunction,
    QueryOracle,
    SizeLimit,
    Verdict,
    ceil_frac,
    draw,
    erased_fraction,
    exact_fraction,
    exact_log2,
    grid_le,
    restrict_to_line,
    value_gt,
)
from ertest import line
from ertest.hypergrid import BoundingFamily, check_grid_certificate
from ertest.rng import derive_seed, make_rng
from ertest.transforms import (
    UniformTesterSpec,
    check_extendable_certificate,
    check_k_runs_certificate,
    check_pot_certificate,
    low_degree_pot,
)

from reference_testers import Box, remaining, sample_nonerased_uniform


# ---------------------------------------------------------------------------
# exact numerics

def test_exact_fraction_decimal_literal():
    assert exact_fraction(0.1) == Fraction(1, 10)
    assert exact_fraction(0.25) == Fraction(1, 4)
    assert exact_fraction(Fraction(2, 3)) == Fraction(2, 3)
    assert exact_fraction(7) == Fraction(7)


def test_exact_log2_power_of_two_is_integral():
    assert exact_log2(1024) == 10
    assert exact_log2(2 ** 40) == 40
    assert isinstance(exact_log2(1024), int)
    assert math.isclose(float(exact_log2(3)), math.log2(3))


def test_ceil_frac():
    assert ceil_frac(Fraction(7, 2)) == 4
    assert ceil_frac(Fraction(6, 2)) == 3
    assert ceil_frac(2.5) == 3
    assert ceil_frac(4) == 4


def test_value_comparisons():
    assert value_gt(2, 1)
    assert not value_gt(1, 1)
    assert not value_gt(1, 2)
    assert not value_gt(1.0 + 1e-12, 1.0)  # float noise tolerated
    assert value_gt(Fraction(1, 3), Fraction(1, 4))


# ---------------------------------------------------------------------------
# domains and indexing

def test_line_round_trip_full():
    dom = Domain.line(1000)
    for i in range(dom.size):
        assert dom.index_of(dom.point_at(i)) == i


def test_grid_round_trip_million_points():
    dom = Domain.grid(10, 6)
    assert dom.size == 10 ** 6
    for i in range(dom.size):
        assert dom.index_of(dom.point_at(i)) == i


def test_first_coordinate_varies_fastest():
    dom = Domain.grid(3, 2)
    assert dom.point_at(0) == (1, 1)
    assert dom.point_at(1) == (2, 1)
    assert dom.point_at(3) == (1, 2)
    assert list(dom.points()) == [dom.point_at(i) for i in range(dom.size)]


@pytest.mark.parametrize("n, d", [(1, 1), (7, 1), (1, 3), (2, 4), (4, 3)])
def test_points_come_in_index_order(n, d):
    dom = Domain.grid(n, d)
    assert list(dom.points()) == [dom.point_at(i) for i in range(dom.size)]


def test_huge_domain_sampled_round_trip():
    dom = Domain.grid(2 ** 20, 3)
    rng = random.Random(42)
    for _ in range(1000):
        i = rng.randrange(dom.size)
        assert dom.index_of(dom.point_at(i)) == i


def test_size_cap():
    Domain.grid(2, 62)  # exactly 2^62 is allowed
    with pytest.raises(SizeLimit):
        Domain.grid(2, 63)


def test_contains_and_partial_order():
    dom = Domain.grid(4, 2)
    assert dom.contains((1, 4))
    assert not dom.contains((0, 1))
    assert not dom.contains((1, 5))
    assert grid_le((1, 2), (3, 2))
    assert not grid_le((2, 1), (1, 2))


def test_hamming_cube_is_side_two_grid():
    dom = Domain.hamming_cube(5)
    assert dom.n == 2 and dom.d == 5 and dom.size == 32


# ---------------------------------------------------------------------------
# erased functions

def test_function_length_must_match_domain():
    with pytest.raises(ValueError):
        ErasedFunction(Domain.line(3), [1, 2])


def test_bit_kind_rejects_other_values():
    ErasedFunction(Domain.line(3), [0, 1, ERASED], kind="bit")
    with pytest.raises(ValueError):
        ErasedFunction(Domain.line(3), [0, 2, 1], kind="bit")


def test_field_kind_needs_modulus_and_range():
    ErasedFunction(Domain.line(3), [0, 16, 5], kind="field", modulus=17)
    with pytest.raises(ValueError):
        ErasedFunction(Domain.line(3), [0, 17, 5], kind="field", modulus=17)
    with pytest.raises(ValueError):
        ErasedFunction(Domain.line(3), [0, 1, 2], kind="field")


def test_declared_alpha_must_cover_actual():
    vals = [1, ERASED, 3, ERASED]
    f = ErasedFunction(Domain.line(4), vals, declared_alpha=Fraction(1, 2))
    assert f.declared_alpha == Fraction(1, 2)
    with pytest.raises(ValueError):
        ErasedFunction(Domain.line(4), vals, declared_alpha=Fraction(1, 4))
    g = ErasedFunction(Domain.line(4), vals)
    assert g.declared_alpha == Fraction(1, 2)


@pytest.mark.parametrize("kwargs, message", [
    ({"kind": "complex"}, "unknown value kind 'complex'"),
    ({"modulus": 5}, "modulus only applies to field functions"),
    ({"declared_alpha": 1}, "declared_alpha must lie in [0, 1)"),
], ids=["unknown-kind", "modulus-on-reals", "declared-alpha-one"])
def test_erased_function_refuses_bad_parameters(kwargs, message):
    with pytest.raises(ValueError) as err:
        ErasedFunction(Domain.line(3), [0, 1, 2], **kwargs)
    assert str(err.value) == message


def test_erased_fraction_examples():
    assert erased_fraction(ErasedFunction(Domain.line(2), [0, ERASED])) == Fraction(1, 2)
    assert erased_fraction(ErasedFunction(Domain.line(3), [ERASED, 1, 2])) == Fraction(1, 3)
    assert erased_fraction(ErasedFunction(Domain.line(3), [1, 1, 2])) == 0


def test_value_at_uses_points_not_indices():
    dom = Domain.grid(3, 2)
    vals = [10 * x + y for y in range(1, 4) for x in range(1, 4)]
    f = ErasedFunction(dom, vals)
    assert f.value_at((2, 3)) == 23


# Each certificate names one point that is not a point of the function's
# domain, either outside it or of the wrong shape; every other named point
# holds its named value.
_LINE = ErasedFunction(Domain.line(4), [3, 2, 1, 0])
_GRID = ErasedFunction(Domain.grid(2, 2), [3, 2, 1, 0])
_BITS = ErasedFunction(Domain.line(4), [0, 1, 0, 1], kind="bit")
_FIELD = ErasedFunction(Domain.line(5), [0, 1, 4, 4, 1], kind="field", modulus=5)
_REJECT_ALL = UniformTesterSpec(q=lambda size, eps: 2, decide=lambda sample: False)
_NOT_IN_DOMAIN = {
    "line-outside": lambda: line.check_line_certificate(
        _LINE, ("monotone-violation", (9, 5), (10, 1))),
    "line-fractional-position": lambda: line.check_line_certificate(
        _LINE, ("monotone-violation", (1, 3), (2.5, 2))),
    "line-convex-outside": lambda: line.check_line_certificate(
        _LINE, ("convex-violation", ((1, 3), (2, 2)), ((3, 1), (5, 0)))),
    "grid-outside": lambda: check_grid_certificate(
        _GRID, ("monotone-violation", ((1, 1), 3), ((3, 2), 0))),
    "grid-wrong-shape": lambda: check_grid_certificate(
        _GRID, ("monotone-violation", ((1, 1), 3), ((2,), 2))),
    "k-runs-outside": lambda: check_k_runs_certificate(
        _BITS, 2, ("alternation-run", ((1, 0), (2, 1), (7, 0)))),
    "pot-outside": lambda: check_pot_certificate(
        _FIELD, low_degree_pot(5, 1), ("pot-sample", (((1,), 0), ((2,), 1), ((9,), 4)))),
    "extendable-outside": lambda: check_extendable_certificate(
        _BITS, _REJECT_ALL, ("extendable-sample", (((1,), 0), ((0,), 1)))),
}


@pytest.mark.parametrize("case", sorted(_NOT_IN_DOMAIN))
def test_certificate_checks_fail_on_points_not_in_the_domain(case):
    assert _NOT_IN_DOMAIN[case]() is False


# Each certificate is not of the shape its kind has: too short, too long, or
# with a part that is not a (point, value) pair.  The line and grid ones of
# three pairs would pass if the extra pair were ignored.
_WRONG_SHAPE = {
    "line-empty": lambda: line.check_line_certificate(_LINE, ()),
    "line-not-a-tuple": lambda: line.check_line_certificate(_LINE, None),
    "line-one-pair": lambda: line.check_line_certificate(
        _LINE, ("monotone-violation", (1, 3))),
    "line-three-pairs": lambda: line.check_line_certificate(
        _LINE, ("monotone-violation", (1, 3), (2, 2), (3, 1))),
    "line-long-pair": lambda: line.check_line_certificate(
        _LINE, ("monotone-violation", (1, 3, 0), (2, 2))),
    "line-bdp-not-a-pair": lambda: line.check_line_certificate(
        _LINE, ("bdp-violation", 7, (2, 2))),
    "line-convex-short-chord": lambda: line.check_line_certificate(
        _LINE, ("convex-violation", ((1, 3), (2, 2)), ((3, 1),))),
    "line-convex-flat": lambda: line.check_line_certificate(
        _LINE, ("convex-violation", (1, 3), (2, 2))),
    "grid-one-pair": lambda: check_grid_certificate(
        _GRID, ("monotone-violation", ((1, 1), 3))),
    "grid-three-pairs": lambda: check_grid_certificate(
        _GRID, ("monotone-violation", ((1, 1), 3), ((2, 2), 0), ((2, 1), 2))),
    "grid-long-pair": lambda: check_grid_certificate(
        _GRID, ("monotone-violation", ((1, 1), 3, 0), ((2, 2), 0))),
    "grid-not-a-tuple": lambda: check_grid_certificate(_GRID, None),
    "k-runs-no-run": lambda: check_k_runs_certificate(_BITS, 2, ("alternation-run",)),
    "k-runs-long-pair": lambda: check_k_runs_certificate(
        _BITS, 2, ("alternation-run", ((1, 0, 9), (2, 1), (3, 0)))),
    "pot-no-sample": lambda: check_pot_certificate(_FIELD, low_degree_pot(5, 1), ("pot-sample",)),
    "pot-sample-not-a-sequence": lambda: check_pot_certificate(
        _FIELD, low_degree_pot(5, 1), ("pot-sample", 7)),
    "extendable-empty": lambda: check_extendable_certificate(_BITS, _REJECT_ALL, ()),
}


@pytest.mark.parametrize("case", sorted(_WRONG_SHAPE))
def test_certificate_checks_fail_on_certificates_of_the_wrong_shape(case):
    assert _WRONG_SHAPE[case]() is False


_BDP_LINE = ("bdp-violation", (1, 3), (2, 2))
_BDP_GRID = ("bdp-violation", ((1, 1), 3), ((2, 1), 2))


@pytest.mark.parametrize("check, bounds, want", [
    (line.check_line_certificate, None, "bdp-line needs LineBoundingPair bounds, got NoneType"),
    (line.check_line_certificate, line.LineBoundingPair.lipschitz(3),
     "bdp-line bounds have n=3, d=1; the domain has n=4, d=1"),
    (check_grid_certificate, None, "bdp-grid needs BoundingFamily bounds, got NoneType"),
    (check_grid_certificate, BoundingFamily.lipschitz(2, 3),
     "bdp-grid bounds have n=2, d=3; the domain has n=2, d=2"),
], ids=["line-none", "line-misfit", "grid-none", "grid-misfit"])
def test_bdp_certificate_checks_refuse_bounds_that_do_not_fit(check, bounds, want):
    # a bounded-derivative certificate is refused with the testers' own
    # refusal of such bounds, not an AttributeError from inside the check
    fn, cert = (_LINE, _BDP_LINE) if check is line.check_line_certificate else (_GRID, _BDP_GRID)
    with pytest.raises(ConfigError, match=f"^{want}$"):
        check(fn, cert, bounds)


# ---------------------------------------------------------------------------
# the query channel

def test_query_without_budget_is_a_bug():
    f = ErasedFunction(Domain.line(2), [0, 1])
    with pytest.raises(RuntimeError):
        QueryOracle(f).query((1,))


def test_budget_boundary_is_exact():
    f = ErasedFunction(Domain.line(4), [0, 1, 2, 3])
    o = QueryOracle(f, budget=3)
    for pos in (1, 2, 3):
        o.query((pos,))
    assert o.count == 3 and remaining(o) == 0
    with pytest.raises(BudgetExhausted):
        o.query((4,))
    assert o.count == 3  # the failed query is not charged


def test_index_budget_boundary_is_exact():
    f = ErasedFunction(Domain.grid(2, 2), [0, 1, 2, 3])
    o = QueryOracle(f, budget=3)
    for idx in (0, 1, 2):
        assert o.query_index(idx) == idx
    assert o.count == 3 and remaining(o) == 0
    with pytest.raises(BudgetExhausted):
        o.query_index(3)
    assert o.count == 3  # the failed query is not charged


def test_index_query_refuses_an_index_outside_the_domain():
    f = ErasedFunction(Domain.grid(2, 2), [0, 1, 2, 3])
    o = QueryOracle(f, budget=5)
    for idx in (-1, 4):
        with pytest.raises(ValueError, match=f"^index {idx} outside domain of size 4$"):
            o.query_index(idx)
    assert o.count == 2  # charged, unlike an outside point
    with pytest.raises(RuntimeError, match="before any budget"):
        QueryOracle(f).query_index(0)


def test_query_refuses_a_point_outside_the_domain_uncharged():
    # query is query_index at index_of(pt), whose refusal comes first:
    # before the charge, and before the budget checks
    f = ErasedFunction(Domain.line(4), [0, 1, 2, 3])
    o = QueryOracle(f, 5)
    for pt in [(0,), (5,), (1, 1)]:
        with pytest.raises(ValueError, match=f"^point {re.escape(repr(pt))} outside "):
            o.query(pt)
    assert o.count == 0
    with pytest.raises(ValueError, match="^point"):
        QueryOracle(f).query((0,))


def test_set_budget_keeps_count():
    f = ErasedFunction(Domain.line(4), [0, 1, 2, 3])
    o = QueryOracle(f, budget=2)
    o.query((1,))
    o.query((2,))
    o.set_budget(3)
    o.query((3,))
    with pytest.raises(BudgetExhausted):
        o.query((4,))
    with pytest.raises(ValueError):
        o.set_budget(-1)
    with pytest.raises(ValueError, match="^budget must be nonnegative$"):
        QueryOracle(f, -1)


# ---------------------------------------------------------------------------
# boxes and uniform nonerased sampling

def test_box_basics():
    dom = Domain.grid(5, 2)
    b = Box.whole(dom)
    assert b.size == 25
    assert Box((2, 2), (3, 4)).size == 6
    with pytest.raises(ValueError):
        Box((3,), (2,))
    rng = random.Random(0)
    sub = Box((2, 2), (3, 4))
    for _ in range(200):
        pt = sub.sample(rng)
        assert 2 <= pt[0] <= 3 and 2 <= pt[1] <= 4


def _half_erased_16():
    # positions 1..16, even ones erased: 8 candidates, alpha_I = 1/2
    vals = [ERASED if pos % 2 == 0 else pos for pos in range(1, 17)]
    return ErasedFunction(Domain.line(16), vals)


def test_sampler_uniform_over_nonerased():
    # chi-squared over the 8 nonerased cells, 7 dof; the 10^-3 critical
    # value is 24.322, so a correct sampler fails ~once in a thousand runs
    f = _half_erased_16()
    oracle = QueryOracle(f, budget=10 ** 7)
    rng = random.Random(777)
    box = Box.whole(f.domain)
    trials = 100_000
    counts = {pos: 0 for pos in range(1, 17, 2)}
    for _ in range(trials):
        pt, v = sample_nonerased_uniform(oracle, box, rng)
        assert v is not ERASED and pt[0] % 2 == 1
        counts[pt[0]] += 1
    expected = trials / 8
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 24.322, f"chi-squared {chi2:.2f} flags non-uniformity"


def test_sampler_query_cost_is_geometric():
    # alpha_I = 1/2 so queries per draw is Geometric(1/2): mean 2, var 2
    f = _half_erased_16()
    oracle = QueryOracle(f, budget=10 ** 7)
    rng = random.Random(778)
    box = Box.whole(f.domain)
    trials = 100_000
    before = oracle.count
    for _ in range(trials):
        sample_nonerased_uniform(oracle, box, rng)
    mean = (oracle.count - before) / trials
    se = math.sqrt(2 / trials)
    assert abs(mean - 2.0) <= 3 * se, f"mean queries {mean} vs expected 2"


def test_sampler_on_fully_erased_region_exhausts_budget():
    f = ErasedFunction(Domain.line(4), [ERASED] * 3 + [0])
    oracle = QueryOracle(f, budget=10)
    rng = random.Random(1)
    with pytest.raises(BudgetExhausted):
        sample_nonerased_uniform(oracle, Box((1,), (3,)), rng)
    assert oracle.count == 10


def test_line_sampler_draws_what_the_box_sampler_draws():
    # the library's one sampler must keep the box sampler's seeded stream:
    # the same positions, values, query counts and RNG state after each draw
    f = _half_erased_16()
    ours, ref = QueryOracle(f, budget=10 ** 5), QueryOracle(f, budget=10 ** 5)
    rng_ours, rng_ref = random.Random(779), random.Random(779)
    for lo, hi in [(1, 16), (3, 9), (5, 5), (2, 15)] * 50:
        m, v = line.sample_nonerased_uniform(ours, lo, hi, rng_ours)
        (m_ref,), v_ref = sample_nonerased_uniform(ref, Box((lo,), (hi,)), rng_ref)
        assert (m, v, ours.count) == (m_ref, v_ref, ref.count)
        assert rng_ours.getstate() == rng_ref.getstate()


# spans of one, at powers of two and one either side of them, and above 2^32,
# where getrandbits takes more than one 32-bit word
_SPANS = st.one_of(
    st.just(1),
    st.integers(1, 70).flatmap(lambda e: st.sampled_from((2 ** e - 1, 2 ** e, 2 ** e + 1))),
    st.integers(2 ** 32 + 1, 2 ** 80))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 64 - 1), st.integers(-2 ** 70, 2 ** 70), _SPANS)
def test_draw_gives_what_randint_gives(seed, lo, span):
    ours, ref = random.Random(seed), random.Random(seed)
    for _ in range(4):
        assert draw(ours, lo, lo + span - 1) == ref.randint(lo, lo + span - 1)
        assert ours.getstate() == ref.getstate()


def test_draw_leaves_other_sources_to_their_randint():
    class Counting(random.Random):
        calls = 0

        def randint(self, lo, hi):
            self.calls += 1
            return super().randint(lo, hi)

    class Top:
        def randint(self, lo, hi):
            return hi

    sub, plain = Counting(3), random.Random(3)
    assert [draw(sub, 1, 6) for _ in range(5)] == [plain.randint(1, 6) for _ in range(5)]
    assert sub.calls == 5
    assert draw(Top(), 3, 9) == 9


def test_draw_refuses_an_empty_range():
    rng = random.Random(0)
    state = rng.getstate()
    for lo, hi in [(5, 4), (0, -1), (3, -10)]:
        with pytest.raises(ValueError, match=r"^empty range for draw"):
            draw(rng, lo, hi)
        with pytest.raises(ValueError):
            rng.randint(lo, hi)
    assert rng.getstate() == state


# ---------------------------------------------------------------------------
# line restriction

def test_restrict_to_line_worked_example():
    dom = Domain.grid(3, 2)
    f = ErasedFunction(dom, [p[0] + p[1] for p in map(dom.point_at, range(9))])
    line = restrict_to_line(f, 1, (2,))
    assert line.values == [3, 4, 5]
    col = restrict_to_line(f, 2, (3,))
    assert col.values == [4, 5, 6]


def test_restrict_to_line_carries_erasures_and_kind():
    dom = Domain.grid(3, 2)
    vals = [ERASED] * 9
    for i in range(9):
        vals[i] = (i * 2) % 5
    vals[dom.index_of((2, 2))] = ERASED
    f = ErasedFunction(dom, vals, kind="field", modulus=5)
    line = restrict_to_line(f, 1, (2,))
    assert line.kind == "field" and line.modulus == 5
    assert line.values[1] is ERASED


def test_restrict_to_line_validates_arguments():
    dom = Domain.grid(3, 2)
    f = ErasedFunction(dom, [0] * 9)
    with pytest.raises(ValueError):
        restrict_to_line(f, 3, (1,))
    with pytest.raises(ValueError):
        restrict_to_line(f, 1, (0,))
    with pytest.raises(ValueError):
        restrict_to_line(f, 1, (1, 1))


# ---------------------------------------------------------------------------
# verdicts

def test_reject_requires_certificate():
    with pytest.raises(ValueError):
        Verdict(REJECT, VIOLATION_FOUND, 5, None)
    v = Verdict.rejected(("pair", 1, 2), 5)
    assert v.is_reject and v.certificate == ("pair", 1, 2)


def test_accept_reasons_are_constrained():
    Verdict.accepted(ALL_CHECKS_PASSED, 3)
    Verdict.accepted(BUDGET_EXHAUSTED, 3)
    with pytest.raises(ValueError):
        Verdict(ACCEPT, VIOLATION_FOUND, 3)
    with pytest.raises(ValueError):
        Verdict(REJECT, ALL_CHECKS_PASSED, 3, certificate=("x",))
    with pytest.raises(ValueError):
        Verdict("maybe", ALL_CHECKS_PASSED, 3)


# ---------------------------------------------------------------------------
# derived randomness

def test_derived_streams_are_stable():
    # pinned so that seed derivation never drifts silently; reproducible
    # experiment output depends on it
    assert derive_seed(20260819, "trial", 0) == 9774465028998881377
    assert derive_seed(1, "a") == 13771330872463629691


def test_derived_streams_repeat_and_diverge():
    a = make_rng(9, "inst", 4)
    b = make_rng(9, "inst", 4)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    c = make_rng(9, "inst", 5)
    d = make_rng(9, "trial", 4)
    first = make_rng(9, "inst", 4).random()
    assert c.random() != first and d.random() != first

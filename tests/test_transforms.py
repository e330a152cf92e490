"""Wrapper routes to resilience: one-shot tests with erased-sample accepts,
oversampled uniform testers, the runs and poset instances, and the
distance-approximation adapter."""
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ertest.core import (
    ALL_CHECKS_PASSED,
    ERASED,
    ERASED_SAMPLE_ACCEPT,
    ConfigError,
    Domain,
    ErasedFunction,
    InvalidField,
    PreconditionViolated,
    QueryOracle,
)
from ertest.transforms import (
    POTSpec,
    Poset,
    UniformTesterSpec,
    check_extendable_certificate,
    check_k_runs_certificate,
    check_pot_certificate,
    erasure_resilient_extendable,
    erasure_resilient_pot_run,
    extendable_budget,
    extendable_plan,
    k_runs_sample_size,
    low_degree_pot,
    poset_monotone_uniform_spec,
    pot_amplify,
)
# aliased so pytest does not collect the library entry points as tests
from ertest.transforms import test_k_runs as run_k_runs
from ertest.transforms import tester_from_distance_approx as run_distance_adapter
from ertest import oracles as O
from ertest.rng import make_rng

from reference_testers import comparable_pairs, poset_le


def line_fn(values, **kw):
    return ErasedFunction(Domain.line(len(values)), values, **kw)


def field_fn(values, p, **kw):
    return line_fn(values, kind="field", modulus=p, **kw)


def parabola_fn(p, erase=()):
    """Position i holds (i-1)^2 mod p; ``erase`` lists positions to blank."""
    vals = [ERASED if i in erase else ((i - 1) * (i - 1)) % p
            for i in range(1, p + 1)]
    return field_fn(vals, p)


def affine_fn(a, b, p, erase=()):
    vals = [ERASED if i in erase else (a * (i - 1) + b) % p
            for i in range(1, p + 1)]
    return field_fn(vals, p)


# ---------------------------------------------------------------------------
# one-shot test specs

def test_pot_spec_validation():
    ok = POTSpec(q=2, completeness=1.0, rho=lambda x: x,
                 decide=lambda s: True)
    assert ok.q == 2 and not ok.distinct
    with pytest.raises(ValueError):
        POTSpec(q=0, completeness=1.0, rho=lambda x: x, decide=lambda s: True)
    with pytest.raises(ValueError):
        POTSpec(q=2, completeness=0.0, rho=lambda x: x, decide=lambda s: True)
    with pytest.raises(ValueError):
        POTSpec(q=2, completeness=1.5, rho=lambda x: x, decide=lambda s: True)
    # the detection-rate floor must not decrease with distance
    with pytest.raises(ValueError):
        POTSpec(q=2, completeness=1.0, rho=lambda x: -float(x),
                decide=lambda s: True)


def test_low_degree_pot_shape():
    pot = low_degree_pot(17, 1)
    assert pot.q == 3
    assert pot.completeness == 1.0
    assert pot.distinct
    assert pot.rho(Fraction(1, 2)) == Fraction(1, 2)
    assert low_degree_pot(5, 0).q == 2


def test_low_degree_pot_gates():
    with pytest.raises(InvalidField):
        low_degree_pot(15, 1)
    with pytest.raises(ValueError):
        low_degree_pot(17, -1)
    with pytest.raises(ValueError):
        low_degree_pot(3, 2)  # needs 4 distinct field points, field has 3


def test_low_degree_decide_collapses_duplicates():
    decide = low_degree_pot(17, 1).decide
    # two distinct points always fit a line, however often they repeat
    assert decide([((1,), 2), ((1,), 2), ((2,), 5)])
    assert decide([((4,), 9)])
    # 0,1,4 at x=0,1,2 needs a parabola
    assert not decide([((1,), 0), ((2,), 1), ((3,), 4)])


def test_member_line_always_fits():
    fn = affine_fn(3, 2, 17)
    pot = low_degree_pot(17, 1)
    rng = make_rng(4101)
    for _ in range(200):
        verdict = erasure_resilient_pot_run(pot, QueryOracle(fn), rng)
        assert not verdict.is_reject
        assert verdict.reason == ALL_CHECKS_PASSED
        assert verdict.queries_used == 3


def test_member_with_erasures_never_rejects():
    fn = affine_fn(5, 11, 17, erase=(2, 9, 16))
    pot = low_degree_pot(17, 1)
    rng = make_rng(4102)
    reasons = set()
    for _ in range(500):
        verdict = erasure_resilient_pot_run(pot, QueryOracle(fn), rng)
        assert not verdict.is_reject
        reasons.add(verdict.reason)
    assert reasons == {ALL_CHECKS_PASSED, ERASED_SAMPLE_ACCEPT}


def test_parabola_rejects_every_clean_run():
    # any 3 distinct points of x^2 disagree with every line, so with no
    # erasures the run can never accept
    fn = parabola_fn(17)
    pot = low_degree_pot(17, 1)
    rng = make_rng(4103)
    for _ in range(100):
        verdict = erasure_resilient_pot_run(pot, QueryOracle(fn), rng)
        assert verdict.is_reject
        assert verdict.queries_used == 3
        assert check_pot_certificate(fn, pot, verdict.certificate)


def test_a_line_longer_than_its_field_is_refused_not_rejected():
    """On the 14-point (3x+2) mod 7 line over GF(7), two positions name one
    field element, so a library caller who skips ``validate_config`` gets a
    ConfigError from any run that samples a position past p, never a reject;
    a certificate naming such a position checks False."""
    fn = field_fn([(3 * x + 2) % 7 for x in range(14)], 7)
    pot = low_degree_pot(7, 1)
    refused = 0
    for seed in range(200):
        try:
            verdict = erasure_resilient_pot_run(pot, QueryOracle(fn), make_rng(seed))
        except ConfigError as exc:
            assert str(exc).startswith("low-degree needs a line of at most p=7 points, got position ")
            refused += 1
        else:
            assert not verdict.is_reject
    assert refused > 0
    bogus = ("pot-sample", (((13,), 3), ((1,), 2), ((8,), 2)))
    assert check_pot_certificate(fn, pot, bogus) is False
    assert check_pot_certificate(fn, pot, ("pot-sample", ())) is False


def test_erased_draw_accepts_immediately():
    fn = parabola_fn(17, erase=tuple(range(2, 18)))  # only position 1 lives
    pot = low_degree_pot(17, 1)
    rng = make_rng(4104)
    for _ in range(50):
        verdict = erasure_resilient_pot_run(pot, QueryOracle(fn), rng)
        assert not verdict.is_reject
        assert verdict.reason == ERASED_SAMPLE_ACCEPT
        assert verdict.queries_used <= 3


def test_distinct_draws_need_enough_points():
    pot = POTSpec(q=5, completeness=1.0, rho=lambda x: x,
                  decide=lambda s: True, distinct=True)
    fn = line_fn([1, 2, 3])
    with pytest.raises(ValueError):
        erasure_resilient_pot_run(pot, QueryOracle(fn), make_rng(4105))


def test_draws_with_replacement_by_default():
    pot = POTSpec(q=6, completeness=1.0, rho=lambda x: x, decide=lambda s: False)
    assert not pot.distinct
    fn = line_fn([10, 20, 30])
    verdict = erasure_resilient_pot_run(pot, QueryOracle(fn), make_rng(4108))
    # q independent uniform draws, so more points than the domain holds
    replay = make_rng(4108)
    positions = [replay.randint(0, 2) + 1 for _ in range(6)]
    assert verdict.is_reject and verdict.queries_used == 6
    assert verdict.certificate == ("pot-sample", tuple(((p,), 10 * p) for p in positions))


def test_detection_rate_meets_wrapped_bound():
    # one erased point of x^2 over GF(17): the oracle certifies the distance
    # on nonerased points, the measured rejection rate must clear
    # rho(eps_f * (1 - alpha)) - alpha * q
    fn = parabola_fn(17, erase=(1,))
    report = O.distance_to_low_degree(fn, 1)
    assert report.relative == Fraction(7, 8)
    pot = low_degree_pot(17, 1)
    alpha = Fraction(1, 17)
    floor = pot.rho(report.relative * (1 - alpha)) - alpha * pot.q
    assert floor == Fraction(11, 17)

    runs = 20000
    rng = make_rng(4106)
    rejects = 0
    for _ in range(runs):
        verdict = erasure_resilient_pot_run(pot, QueryOracle(fn), rng)
        rejects += verdict.is_reject
    rate = rejects / runs
    se = math.sqrt(rate * (1 - rate) / runs)
    assert rate >= float(floor) - 3 * se
    # mechanics check: the exact rate is P(no erased draw) = 14/17
    exact = 14 / 17
    band = 4 * math.sqrt(exact * (1 - exact) / runs)
    assert abs(rate - exact) <= band


def test_pot_certificate_checker_rejects_bogus():
    fn = parabola_fn(17)
    pot = low_degree_pot(17, 1)
    verdict = erasure_resilient_pot_run(pot, QueryOracle(fn), make_rng(4107))
    assert verdict.is_reject
    tag, sample = verdict.certificate
    assert not check_pot_certificate(fn, pot, ("wrong-tag", sample))
    doctored = ((sample[0][0], (sample[0][1] + 1) % 17),) + sample[1:]
    assert not check_pot_certificate(fn, pot, (tag, doctored))
    # a sample the decide rule accepts proves nothing
    member = affine_fn(3, 2, 17)
    fitting = ("pot-sample", (((1,), 2), ((2,), 5)))
    assert not check_pot_certificate(member, pot, fitting)


def test_amplify_repetition_count_and_budget():
    pot = low_degree_pot(17, 1)
    member = affine_fn(1, 0, 17)
    verdict = pot_amplify(pot, 0, Fraction(1, 10), QueryOracle(member),
                          make_rng(4108))
    assert not verdict.is_reject
    # ceil(ln 3 / 0.1) = 11 repetitions of 3 queries each
    assert verdict.queries_used == 33

    far = parabola_fn(17)
    verdict = pot_amplify(pot, 0, Fraction(1, 10), QueryOracle(far),
                          make_rng(4109))
    assert verdict.is_reject
    assert verdict.queries_used == 3  # first run already rejects
    assert check_pot_certificate(far, pot, verdict.certificate)


def test_wrappers_report_their_oracles_count():
    """On a fresh oracle, ``queries_used`` is the oracle's count, for accepts
    and rejects alike."""
    pot = low_degree_pot(17, 1)
    outcomes = set()
    for fn, seed in [(affine_fn(1, 0, 17), 4110), (parabola_fn(17), 4111)]:
        oracle = QueryOracle(fn)
        verdict = pot_amplify(pot, 0, Fraction(1, 10), oracle, make_rng(seed))
        assert verdict.queries_used == oracle.count
        outcomes.add(verdict.outcome)
    chain = Poset(64, [(i, i + 1) for i in range(1, 64)])
    stars = [1 if (i - 1) % 4 == 0 else 0 for i in range(1, 65)]
    for poset, fn, seed in [(chain, line_fn(list(range(1, 65))), 4112),
                            (_star_forest(), line_fn(stars, kind="bit"), 4113)]:
        oracle = QueryOracle(fn)
        verdict = erasure_resilient_extendable(poset_monotone_uniform_spec(poset), 0,
                                               Fraction(1, 4), oracle, make_rng(seed))
        assert verdict.queries_used == oracle.count
        outcomes.add(("extendable", verdict.outcome))
    assert len(outcomes) == 4


class _RecordingOracle(QueryOracle):
    """A query oracle that logs the flat index of every read."""

    __slots__ = ("log",)

    def __init__(self, fn):
        super().__init__(fn)
        self.log = []

    def query_index(self, idx):
        self.log.append(idx)
        return super().query_index(idx)


@pytest.mark.parametrize("fn, seed", [(affine_fn(1, 0, 17), 4114),
                                      (parabola_fn(17), 4115),
                                      (parabola_fn(17, erase={1, 4, 6, 9, 12, 15}), 4116)])
def test_amplify_reads_through_the_callers_oracle(fn, seed):
    """Every run charges the caller's oracle, so a subclass logs each of the
    ``queries_used`` reads, and the verdict and RNG state are those of runs
    on fresh oracles, one per repetition, with their counts summed."""
    pot = low_degree_pot(17, 1)
    oracle, rng = _RecordingOracle(fn), make_rng(seed)
    verdict = pot_amplify(pot, 0, Fraction(1, 10), oracle, rng)
    assert len(oracle.log) == verdict.queries_used == oracle.count
    fresh_rng, used = make_rng(seed), 0
    for _ in range(11):  # ceil(ln 3 / 0.1)
        run = erasure_resilient_pot_run(pot, QueryOracle(fn), fresh_rng)
        used += run.queries_used
        if run.is_reject:
            break
    assert (verdict.outcome, verdict.certificate, verdict.queries_used) == \
        (run.outcome, run.certificate, used)
    assert rng.getstate() == fresh_rng.getstate()


def test_amplify_parameter_gates():
    pot = low_degree_pot(17, 1)
    fn = affine_fn(1, 0, 17)
    for bad_bound in (0, Fraction(6, 5), -1):
        with pytest.raises(ValueError):
            pot_amplify(pot, 0, bad_bound, QueryOracle(fn), make_rng(1))
    for bad_alpha in (1, Fraction(-1, 10)):
        with pytest.raises(ValueError):
            pot_amplify(pot, bad_alpha, Fraction(1, 2), QueryOracle(fn),
                        make_rng(1))


# ---------------------------------------------------------------------------
# oversampling wrapper for extendable properties

def test_uniform_spec_monotonicity_gates():
    UniformTesterSpec(q=lambda s, e: 8, decide=lambda sample: True)
    with pytest.raises(ValueError):
        UniformTesterSpec(q=lambda s, e: -s, decide=lambda sample: True)
    with pytest.raises(ValueError):
        UniformTesterSpec(q=lambda s, e: float(e), decide=lambda sample: True)


def test_extendable_plan_and_budget():
    fifty = UniformTesterSpec(q=lambda s, e: 50, decide=lambda sample: True)
    assert extendable_plan(fifty, 64, Fraction(1, 4), Fraction(1, 2)) == (50, 200, 1)
    assert extendable_budget(fifty, 64, Fraction(1, 4), Fraction(1, 2)) == 200

    five = UniformTesterSpec(q=lambda s, e: 5, decide=lambda sample: True)
    # small base samples repeat three times
    assert extendable_plan(five, 64, Fraction(1, 4), 0) == (5, 10, 3)
    assert extendable_budget(five, 64, Fraction(1, 4), 0) == 30

    with pytest.raises(ValueError):
        extendable_plan(fifty, 64, Fraction(1, 4), 1)


def test_poset_closure_and_reflexivity():
    chain = Poset(3, [(1, 2), (2, 3)])
    assert poset_le(chain, 1, 3)  # through 2
    assert poset_le(chain, 2, 2)
    assert not poset_le(chain, 3, 1)
    assert sorted(comparable_pairs(chain)) == [(1, 2), (1, 3), (2, 3)]


def test_poset_rejects_bad_input():
    with pytest.raises(ValueError):
        Poset(0, [])
    with pytest.raises(ValueError):
        Poset(3, [(1, 4)])
    with pytest.raises(ValueError):
        Poset(3, [(1, 2), (2, 3), (3, 1)])
    # self-loops are ignored, not cycles
    assert poset_le(Poset(2, [(1, 1), (1, 2)]), 1, 2)


def _chain(size):
    return Poset(size, [(i, i + 1) for i in range(1, size)])


def test_low_degree_refuses_a_grid_point():
    """The decide rule reads a point's one coordinate as a field position,
    so a library caller who runs it on a 2x2 grid gets validate_config's
    refusal of a grid, never a reject read off first coordinates; a
    certificate of grid points checks False."""
    fn = ErasedFunction(Domain.grid(2, 2), [0, 1, 2, 3], kind="field", modulus=5)
    pot = low_degree_pot(5, 1)
    for seed in range(3):
        with pytest.raises(ConfigError, match="^low-degree runs on line domains, got d=2$"):
            erasure_resilient_pot_run(pot, QueryOracle(fn), make_rng(seed))
    first_coordinates = ("pot-sample", (((2, 2), 3), ((2, 1), 1), ((1, 1), 0)))
    assert check_pot_certificate(fn, pot, first_coordinates) is False


def test_poset_decide_refuses_a_grid_point():
    """Read flat, [0, 1, 1, 0] on the 2x2 bit grid satisfies 1 <= 2 of the
    poset; read by first coordinates it does not.  Every run is refused as
    validate_config refuses a grid, and a sample holding grid points checks
    False."""
    fn = ErasedFunction(Domain.grid(2, 2), [0, 1, 1, 0], kind="bit")
    spec = poset_monotone_uniform_spec(Poset(4, [(1, 2)]))
    for seed in range(20):
        with pytest.raises(ConfigError, match="^poset-monotone runs on line domains, got d=2$"):
            erasure_resilient_extendable(spec, 0, Fraction(1, 4), QueryOracle(fn),
                                         make_rng(seed))
    sample = (((1, 1), 0), ((2, 1), 1), ((1, 2), 1), ((2, 2), 0))
    assert check_extendable_certificate(fn, spec, ("extendable-sample", sample)) is False


def test_poset_decide_refuses_an_element_past_the_poset():
    """Called from the library, past the size check of ``validate_config``:
    a 4-element chain on an 8-point line is refused by name, a certificate
    naming element 5 of it checks False, and a 16-element chain, which
    holds every point, gives a verdict."""
    fn = ErasedFunction(Domain.line(8), [0, 0, 1, 1, 0, 1, 1, 1], kind="bit")
    small = poset_monotone_uniform_spec(_chain(4))
    with pytest.raises(ConfigError, match=r"sampled element \d+, past the poset's 4 elements"):
        erasure_resilient_extendable(small, 0, Fraction(1, 4), QueryOracle(fn), make_rng(1))
    sample = (((4,), 1), ((5,), 0))
    assert not check_extendable_certificate(fn, small, ("extendable-sample", sample))
    big = poset_monotone_uniform_spec(_chain(16))
    assert not big.decide(sample)
    assert check_extendable_certificate(fn, big, ("extendable-sample", sample))
    verdict = erasure_resilient_extendable(big, 0, Fraction(1, 4), QueryOracle(fn), make_rng(1))
    assert verdict.outcome in ("accept", "reject")


def test_poset_uniform_spec_sample_size():
    star = Poset(4, [(1, 2), (1, 3), (1, 4)])
    spec = poset_monotone_uniform_spec(star)
    assert spec.q(64, Fraction(1, 4)) == 128

    chain = poset_monotone_uniform_spec(Poset(3, [(1, 2), (2, 3)]))
    assert chain.decide([((3,), 1), ((3,), 1), ((1,), 0)])
    assert not chain.decide([((1,), 1), ((3,), 0)])
    # an order against the element numbering: 2 lies below 1
    reversed_pair = poset_monotone_uniform_spec(Poset(2, [(2, 1)]))
    assert reversed_pair.decide([((1,), 5), ((2,), 0)])
    assert not reversed_pair.decide([((1,), 0), ((2,), 5)])


def _pairwise_decide(poset, sample) -> bool:
    """The O(s^2) rule the bitmask decide replaced: no sampled comparable
    pair has its values inverted by ``>``."""
    pairs = sorted(set((pt[0], v) for pt, v in sample))
    for i, (a, fa) in enumerate(pairs):
        for b, fb in pairs[i + 1:]:
            if poset_le(poset, a, b) and fa > fb or poset_le(poset, b, a) and fb > fa:
                return False
    return True


@st.composite
def _poset_and_sample(draw):
    """A random DAG on 1..size (edges from a shuffled order) and a sample of
    its elements, repeats allowed, holding one value each: small ints, so
    ties are common, or Fractions and floats beside them."""
    size = draw(st.integers(1, 12))
    order = draw(st.permutations(range(1, size + 1)))
    pairs = [(order[i], order[j]) for i in range(size) for j in range(i + 1, size)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * size)) if pairs else []
    values = st.one_of(st.integers(0, 3), st.builds(Fraction, st.integers(-8, 8),
                                                    st.integers(1, 4)),
                       st.floats(-3, 3, allow_nan=False))
    label = draw(st.lists(values, min_size=size, max_size=size))
    picked = draw(st.lists(st.integers(1, size), min_size=1, max_size=2 * size))
    return Poset(size, edges), [((e,), label[e - 1]) for e in picked]


@settings(max_examples=500, deadline=None)
@given(_poset_and_sample())
def test_poset_decide_equals_the_pairwise_rule(case):
    poset, sample = case
    assert poset_monotone_uniform_spec(poset).decide(sample) == _pairwise_decide(poset, sample)


def test_chain_monotone_labels_accept():
    n = 64
    poset = Poset(n, [(i, i + 1) for i in range(1, n)])
    spec = poset_monotone_uniform_spec(poset)
    fn = line_fn(list(range(1, n + 1)))
    rng = make_rng(4201)
    for _ in range(30):
        verdict = erasure_resilient_extendable(spec, 0, Fraction(1, 4),
                                               QueryOracle(fn), rng)
        assert not verdict.is_reject
        assert verdict.queries_used == 256


def test_antichain_accepts_anything():
    poset = Poset(16, [])
    spec = poset_monotone_uniform_spec(poset)
    rng = make_rng(4202)
    for _ in range(30):
        fn = line_fn([rng.randint(0, 1) for _ in range(16)], kind="bit")
        verdict = erasure_resilient_extendable(spec, 0, Fraction(1, 2),
                                               QueryOracle(fn), rng)
        assert not verdict.is_reject


def _star_forest(stars=16):
    edges = []
    for s in range(stars):
        center = 4 * s + 1
        edges += [(center, center + j) for j in (1, 2, 3)]
    return Poset(4 * stars, edges)


def test_star_forest_distance_and_rejection():
    poset = _star_forest()
    n = poset.size
    values = [1 if (i - 1) % 4 == 0 else 0 for i in range(1, n + 1)]

    # stars are disjoint, so the global minimum is the sum of per-star minima
    total = 0
    star_pairs = [(1, 2), (1, 3), (1, 4)]
    for s in range(16):
        block = values[4 * s:4 * s + 4]
        best = min(sum(g != f for g, f in zip(assign, block))
                   for assign in itertools.product((0, 1), repeat=4)
                   if all(assign[a - 1] <= assign[b - 1] for a, b in star_pairs))
        assert best == 1
        total += best
    assert Fraction(total, n) == Fraction(1, 4)

    spec = poset_monotone_uniform_spec(poset)
    fn = line_fn(values, kind="bit")
    rng = make_rng(4203)
    rejects = 0
    for _ in range(100):
        verdict = erasure_resilient_extendable(spec, 0, Fraction(1, 4),
                                               QueryOracle(fn), rng)
        if verdict.is_reject:
            rejects += 1
            assert check_extendable_certificate(fn, spec, verdict.certificate)
    assert rejects >= 60


def test_sample_shortfall_accepts():
    # decide would reject everything, so only the shortfall path can accept;
    # alpha is deliberately understated to starve the sample of live points
    spec = UniformTesterSpec(q=lambda s, e: 8, decide=lambda sample: False)
    vals = [ERASED] * 64
    vals[0] = vals[1] = 0
    fn = line_fn(vals, kind="bit")
    for seed in range(40):
        verdict = erasure_resilient_extendable(spec, 0, Fraction(1, 4),
                                               QueryOracle(fn), make_rng(4204, seed))
        assert not verdict.is_reject
        assert verdict.reason == ALL_CHECKS_PASSED
        assert verdict.queries_used == 16


def test_extendable_certificate_checker_rejects_bogus():
    poset = _star_forest()
    spec = poset_monotone_uniform_spec(poset)
    fn = line_fn([1 if (i - 1) % 4 == 0 else 0 for i in range(1, 65)], kind="bit")
    rng = make_rng(4205)
    verdict = erasure_resilient_extendable(spec, 0, Fraction(1, 4),
                                           QueryOracle(fn), rng)
    assert verdict.is_reject
    tag, sample = verdict.certificate
    assert not check_extendable_certificate(fn, spec, ("wrong-tag", sample))
    doctored = ((sample[0][0], 1 - sample[0][1]),) + tuple(sample[1:])
    assert not check_extendable_certificate(fn, spec, (tag, doctored))
    agreeing = ("extendable-sample", (((2,), 0), ((3,), 0)))
    assert not check_extendable_certificate(fn, spec, agreeing)


# ---------------------------------------------------------------------------
# restrictions of extendable properties behave like the property itself

def _runs_of(bits):
    return 1 + O.count_alternations(bits)


def _masked(values, mask, n):
    return [values[i] if mask >> i & 1 else ERASED for i in range(n)]


def test_runs_restriction_membership_and_distance():
    # restricting to any nonerased set preserves membership, and the distance
    # of the restriction equals the best total completion's disagreement
    rng = random.Random(4301)
    for n, mask_pool in ((4, None), (6, None), (8, 40)):
        dom = Domain.line(n)
        for k in (1, 2, 3):
            members = [bits for bits in itertools.product((0, 1), repeat=n)
                       if _runs_of(bits) <= k]
            fns = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(6)]
            fns += members[:3]
            masks = (range(1, 2 ** n) if mask_pool is None else
                     [rng.randint(1, 2 ** n - 1) for _ in range(mask_pool)])
            for values in fns:
                total_member = _runs_of(values) <= k
                for mask in masks:
                    kept = [values[i] for i in range(n) if mask >> i & 1]
                    if total_member:
                        assert _runs_of(kept) <= k
                    fn = ErasedFunction(dom, _masked(values, mask, n), kind="bit")
                    report = O.distance_to_k_runs(fn, k)
                    brute = min(sum(values[i] != g[i]
                                    for i in range(n) if mask >> i & 1)
                                for g in members)
                    assert report.absolute == brute


def _random_poset(rng, size):
    order = list(range(1, size + 1))
    rng.shuffle(order)
    edges = [(order[i], order[j])
             for i in range(size) for j in range(i + 1, size)
             if rng.random() < 0.4]
    return Poset(size, edges)


def test_poset_restriction_membership_and_distance():
    rng = random.Random(4302)
    for _ in range(40):
        size = rng.randint(2, 6)
        poset = _random_poset(rng, size)
        pairs = list(comparable_pairs(poset))
        assignments = list(itertools.product((0, 1), repeat=size))
        monotone = [g for g in assignments
                    if all(g[a - 1] <= g[b - 1] for a, b in pairs)]
        values = [rng.randint(0, 1) for _ in range(size)]
        f_member = all(values[a - 1] <= values[b - 1] for a, b in pairs)
        for mask in range(1, 2 ** size):
            live = [i for i in range(1, size + 1) if mask >> (i - 1) & 1]
            induced = [(a, b) for a, b in pairs if a in live and b in live]
            if f_member:
                assert all(values[a - 1] <= values[b - 1] for a, b in induced)
            # best relabeling of the restriction alone
            pos = {e: t for t, e in enumerate(live)}
            dist_induced = min(
                sum(g[pos[i]] != values[i - 1] for i in live)
                for g in itertools.product((0, 1), repeat=len(live))
                if all(g[pos[a]] <= g[pos[b]] for a, b in induced))
            # best total member, charged only on the live points
            dist_total = min(sum(g[i - 1] != values[i - 1] for i in live)
                             for g in monotone)
            assert dist_induced == dist_total


# ---------------------------------------------------------------------------
# runs tester

def test_k_runs_sample_sizes():
    assert k_runs_sample_size(3, Fraction(1, 4)) == 96
    assert k_runs_sample_size(1, Fraction(1, 2)) == 12
    assert k_runs_sample_size(2, Fraction(1, 5)) == 72


def test_k_runs_input_gates():
    rng = make_rng(4401)
    with pytest.raises(ValueError):
        run_k_runs(QueryOracle(line_fn([0, 1, 2])), 1, Fraction(1, 2), rng)
    grid = ErasedFunction(Domain.grid(2, 2), [0, 1, 0, 1], kind="bit")
    with pytest.raises(ValueError):
        run_k_runs(QueryOracle(grid), 1, Fraction(1, 2), rng)
    bits16 = line_fn([0] * 16, kind="bit")
    with pytest.raises(ValueError):
        run_k_runs(QueryOracle(bits16), 0, Fraction(1, 2), rng)
    with pytest.raises(ValueError):
        run_k_runs(QueryOracle(bits16), 1, Fraction(6, 5), rng)
    # eps must exceed k^2/n
    with pytest.raises(PreconditionViolated):
        run_k_runs(QueryOracle(bits16), 3, Fraction(1, 2), rng)
    verdict = run_k_runs(QueryOracle(bits16), 3, Fraction(3, 5), rng)
    assert not verdict.is_reject


def test_all_zeros_accepts():
    fn = line_fn([0] * 64, kind="bit")
    rng = make_rng(4402)
    for _ in range(50):
        verdict = run_k_runs(QueryOracle(fn), 1, Fraction(1, 4), rng)
        assert not verdict.is_reject
        assert verdict.reason == ALL_CHECKS_PASSED


def test_alternating_string_rejects():
    fn = line_fn([i % 2 for i in range(256)], kind="bit")
    report = O.distance_to_k_runs(fn, 2)
    # best two-run fit keeps 129 of 256 positions
    assert report.absolute == 127
    assert report.relative >= Fraction(1, 5)
    rng = make_rng(4403)
    rejects = 0
    for _ in range(100):
        verdict = run_k_runs(QueryOracle(fn), 2, Fraction(1, 5), rng)
        if verdict.is_reject:
            rejects += 1
            assert check_k_runs_certificate(fn, 2, verdict.certificate)
    assert rejects >= 60


def test_duplicate_positions_collapse():
    # ten draws over two positions: the alternation count must see each
    # position once, and the certificate stays deduplicated and ordered
    fn = line_fn([0, 1], kind="bit")
    rejects = 0
    for seed in range(100):
        verdict = run_k_runs(QueryOracle(fn), 1, Fraction(3, 5),
                             make_rng(4404, seed))
        assert verdict.queries_used == 10
        if verdict.is_reject:
            rejects += 1
            assert verdict.certificate == ("alternation-run", ((1, 0), (2, 1)))
            assert check_k_runs_certificate(fn, 1, verdict.certificate)
    assert rejects >= 90


def test_k_runs_certificate_checker_rejects_bogus():
    fn = line_fn([0, 1, 0, 1], kind="bit")
    good = ("alternation-run", ((1, 0), (2, 1), (3, 0)))
    assert check_k_runs_certificate(fn, 2, good)
    assert not check_k_runs_certificate(fn, 3, good)  # too few alternations
    assert not check_k_runs_certificate(fn, 2, ("other", good[1]))
    unsorted_pairs = ("alternation-run", ((2, 1), (1, 0), (3, 0)))
    assert not check_k_runs_certificate(fn, 2, unsorted_pairs)
    duplicated = ("alternation-run", ((1, 0), (1, 0), (2, 1)))
    assert not check_k_runs_certificate(fn, 2, duplicated)
    wrong_value = ("alternation-run", ((1, 1), (2, 0), (3, 1)))
    assert not check_k_runs_certificate(fn, 2, wrong_value)


# ---------------------------------------------------------------------------
# distance-approximation adapter

def exact_monotone_estimate(view):
    return O.distance_to_monotone_line(view).relative


def test_adapter_precondition_gate():
    fn = line_fn(list(range(1, 21)))
    oracle = QueryOracle(fn)
    with pytest.raises(PreconditionViolated):
        run_distance_adapter(exact_monotone_estimate, 0, Fraction(2, 5),
                                    Fraction(1, 2), oracle)
    assert oracle.count == 0
    # eta=2, delta=1/8 tightens the bound to (eps - 1/4) / (eps + 2) = 1/10
    with pytest.raises(PreconditionViolated):
        run_distance_adapter(lambda v: 0, 0, Fraction(1, 10),
                                    Fraction(1, 2), QueryOracle(fn),
                                    eta=2, delta=Fraction(1, 8))
    verdict = run_distance_adapter(lambda v: 0, 0, Fraction(9, 100),
                                          Fraction(1, 2), QueryOracle(fn),
                                          eta=2, delta=Fraction(1, 8))
    assert not verdict.is_reject


def test_adapter_checks_the_erasure_bound_range():
    # a negative bound would turn a zero estimate on a sorted line into a reject
    fn = line_fn(list(range(1, 21)))
    for alpha in (Fraction(-1, 2), 1):
        oracle = QueryOracle(fn)
        with pytest.raises(ValueError, match="erasure bound .* outside"):
            run_distance_adapter(lambda v: 0, 0, alpha, Fraction(1, 4), oracle)
        assert oracle.count == 0


def test_adapter_accepts_monotone_with_fill():
    vals = list(range(1, 21))
    vals[4] = vals[9] = ERASED
    fn = line_fn(vals)
    verdict = run_distance_adapter(exact_monotone_estimate, 0,
                                          Fraction(1, 10), Fraction(1, 4),
                                          QueryOracle(fn))
    assert not verdict.is_reject
    assert verdict.queries_used == 20


def test_adapter_rejects_decreasing():
    fn = line_fn(list(range(20, 0, -1)))
    verdict = run_distance_adapter(exact_monotone_estimate, 0, 0,
                                          Fraction(1, 4), QueryOracle(fn))
    assert verdict.is_reject
    tag, estimate, bound = verdict.certificate
    assert tag == "estimated-distance"
    assert estimate == Fraction(19, 20)
    assert bound == 0
    assert verdict.queries_used == 20

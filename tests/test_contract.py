"""The registry's contract.  Hypothesis tests per ``harness.TESTERS``
entry draw a seed, a size, eps and alpha inside that tester's gates, build
a generated member or far instance, and run it through ``validate_config``
and ``run_trial``, which raises when the queries pass the entry's budget
(clause 2) or a reject certificate fails ``entry.validate`` (clause 3).

1. A generated member is never rejected.
2. No trial's ``queries_used`` passes the entry's budget.
3. Every reject certificate re-validates.
4. That certificate with one named value changed does not.
5. A line entry refuses a grid even when ``validate_config`` is skipped.

Every tester reads through ``QueryOracle.query_index`` alone, so an oracle
that overrides only that sees every query a verdict counts.  The grid
testers admit alpha up to eps/(250d) and eps/(970d) only, so their
instances this small are total."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ertest.adversary import erase_random, generate_far_instance, generate_member_instance
from ertest.core import Domain, ErasedFunction, QueryOracle
from ertest.harness import TESTERS, ExperimentConfig, run_trial, validate_config
from ertest.hypergrid import BoundingFamily
from ertest.line import INF, LineBoundingPair
from ertest.oracles import PropertySpec
from ertest.rng import make_rng
from ertest.transforms import Poset

SEEDS = st.integers(0, 2**32 - 1)
ALPHAS = st.integers(0, 8).map(lambda i: Fraction(i, 16))
EPSS = st.integers(1, 12).map(lambda i: Fraction(i, 16))
LINE_SIZES = st.integers(2, 48)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@st.composite
def step_bounds(draw, n):
    """A line's step bounds: each lower side an integer or -inf, each upper
    side above it, an integer or inf."""
    lower, upper = [], []
    for _ in range(n - 1):
        lo = draw(st.one_of(st.just(-INF), st.integers(-3, 2)))
        base = draw(st.integers(-3, 2)) if lo == -INF else lo
        lower.append(lo)
        upper.append(draw(st.one_of(st.just(INF), st.integers(base + 1, base + 3))))
    return LineBoundingPair(lower, upper)


def generated(draw, member, prop, domain, eps=None, alphas=ALPHAS, **params):
    """(instance, eps, alpha, params) for ``prop`` on ``domain``: eps drawn
    unless given, and a member or a far instance erased at a drawn alpha
    by ``generate_member_instance`` or ``generate_far_instance``.  A far
    instance is the generator's far template, certified at target distance
    0, so no draw is retried."""
    eps = draw(EPSS) if eps is None else eps
    alpha = draw(alphas)
    rng = make_rng(draw(SEEDS))
    if member:
        fn = generate_member_instance(prop, domain, alpha, rng)
    else:
        fn, _ = generate_far_instance(prop, domain, 0, alpha, rng)
    return fn, eps, alpha, params


@st.composite
def monotone_line(draw, member):
    return generated(draw, member, PropertySpec("monotone-line"), Domain.line(draw(LINE_SIZES)))


@st.composite
def bdp_line(draw, member):
    n = draw(LINE_SIZES)
    bounds = draw(step_bounds(n))
    return generated(draw, member, PropertySpec("bdp-line", bounds=bounds), Domain.line(n),
                     bounds=bounds)


@st.composite
def convex_line(draw, member):
    return generated(draw, member, PropertySpec("convex-line"), Domain.line(draw(LINE_SIZES)))


def grid(draw, member, tag, gate, **params):
    """A grid instance, with alpha 0, 1/4, ..., or all of the tester's gate
    eps/(gate·d)."""
    domain = Domain.grid(draw(st.integers(2, 5)), draw(st.integers(2, 3)))
    if tag == "bdp-grid":
        params["bounds"] = BoundingFamily(
            tuple(draw(step_bounds(domain.n)) for _ in range(domain.d)))
    eps = draw(EPSS)
    alphas = st.integers(0, 4).map(lambda j: eps * j / (4 * gate * domain.d))
    return generated(draw, member, PropertySpec(tag, **params), domain, eps, alphas, **params)


@st.composite
def monotone_grid(draw, member):
    return grid(draw, member, "monotone-grid", 250)


@st.composite
def bdp_grid(draw, member):
    return grid(draw, member, "bdp-grid", 970)


@st.composite
def k_runs(draw, member):
    """n past k^2/eps, the tester's gate."""
    k, eps = draw(st.integers(1, 5)), draw(EPSS)
    n = draw(st.integers(int(k * k / eps) + 1, int(k * k / eps) + 64))
    return generated(draw, member, PropertySpec("k-runs", k=k), Domain.line(n), eps, k=k)


@st.composite
def low_degree(draw, member):
    """degree + 2 <= p, the tester's gate.  Member generation checks through
    the oracle's member exit, which runs before its size gate; a far
    instance is certified by the exhaustive oracle, so p^(degree+1) stays
    within its 2^20 coefficient vectors."""
    p = draw(st.sampled_from(PRIMES))
    degree = draw(st.sampled_from(
        [d for d in range(min(p - 2, 4) + 1) if member or p ** (d + 1) <= 2 ** 20]))
    return generated(draw, member, PropertySpec("low-degree", degree=degree), Domain.line(p),
                     degree=degree)


@st.composite
def poset_monotone(draw, member):
    """A random DAG on at most 16 elements, every edge from a smaller to a
    larger element.  A member is labelled 1 on an upward-closed set and 0
    elsewhere: element v is 1 when a drawn bit or any element with an edge
    into it says so, so the labelling is monotone.  A far instance has a
    drawn edge (u, v) labelled 1 at u and 0 at v, and drawn bits elsewhere,
    so its labelling is not upward-closed.  No generator covers posets."""
    size = draw(st.integers(1 if member else 2, 16))
    pairs = draw(st.lists(st.tuples(st.integers(1, size), st.integers(1, size)), max_size=40))
    edges = [(u, v) for u, v in pairs if u < v]
    bits = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    if member:
        up = set()
        for v in range(1, size + 1):
            if bits[v - 1] or any(u in up for u, w in edges if w == v):
                up.add(v)
        bits = [v in up for v in range(1, size + 1)]
    else:
        u = draw(st.integers(1, size - 1))
        v = draw(st.integers(u + 1, size))
        edges.append((u, v))
        bits[u - 1], bits[v - 1] = True, False
    fn = ErasedFunction(Domain.line(size), [int(b) for b in bits], kind="bit")
    alpha = draw(ALPHAS)
    if alpha > 0:
        fn = erase_random(fn, alpha, make_rng(draw(SEEDS)))
    return fn, draw(EPSS), alpha, {"poset": Poset(size, edges)}


STRATEGIES = {
    "monotone-line": monotone_line,
    "classic-monotone-line": monotone_line,
    "bdp-line": bdp_line,
    "convex-line": convex_line,
    "monotone-grid": monotone_grid,
    "bdp-grid": bdp_grid,
    "k-runs": k_runs,
    "low-degree": low_degree,
    "poset-monotone": poset_monotone,
}


def test_every_registry_entry_has_a_member_strategy():
    assert set(STRATEGIES) == set(TESTERS)


def _trial(tester, instance, seed):
    """``run_trial`` on a drawn instance: (cfg, entry, fn, alpha, verdict)."""
    fn, eps, alpha, params = instance
    cfg = ExperimentConfig(tester=tester, instance=fn, trials=1, seed=seed, eps=eps,
                           alpha=alpha, **params)
    entry, _ = validate_config(cfg)
    verdict, _ = run_trial(cfg, entry, fn, 0)
    return cfg, entry, fn, alpha, verdict


@pytest.mark.parametrize("tester", sorted(STRATEGIES))
@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=SEEDS)
def test_a_generated_member_is_never_rejected(tester, data, seed):
    *_, verdict = _trial(tester, data.draw(STRATEGIES[tester](True)), seed)
    assert not verdict.is_reject, (tester, seed, verdict.certificate)


# the path from a certificate's kind to its first (point, value) pair: the
# pair itself, or the first of the pairs (chord ends, sampled points) it holds
_FIRST_PAIR = {"convex-violation": (1, 0), "alternation-run": (1, 0),
               "pot-sample": (1, 0), "extendable-sample": (1, 0)}


def _one_value_changed(cert, path=None):
    """``cert`` with the value of its first named (point, value) pair
    changed: v + 1, or 0 or 1 where v + 1 equals v (an infinity)."""
    if path is None:
        path = _FIRST_PAIR.get(cert[0], (1,)) + (1,)
    i, *rest = path
    if rest:
        part = _one_value_changed(cert[i], rest)
    else:
        part = next(w for w in (cert[i] + 1, 0, 1) if w != cert[i])
    return cert[:i] + (part,) + cert[i + 1:]


@pytest.mark.parametrize("tester", sorted(STRATEGIES))
@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=SEEDS)
def test_a_far_trial_keeps_its_budget_and_only_its_own_certificate_validates(
        tester, data, seed):
    # run_trial raises on a budget overrun and on a certificate that fails
    # re-validation; one named value changed must fail it
    cfg, entry, fn, _, verdict = _trial(tester, data.draw(STRATEGIES[tester](False)), seed)
    if verdict.is_reject:
        forged = _one_value_changed(verdict.certificate)
        assert forged != verdict.certificate
        assert not entry.validate(cfg, fn, forged), (tester, seed, forged)


class ReadCounter(QueryOracle):
    """A query oracle that overrides only ``query_index``, counting calls."""

    __slots__ = ("reads",)

    def __init__(self, fn):
        super().__init__(fn)
        self.reads = 0

    def query_index(self, idx):
        self.reads += 1
        return super().query_index(idx)


@pytest.mark.parametrize("member", [True, False], ids=["member", "far"])
@pytest.mark.parametrize("tester", sorted(STRATEGIES))
@settings(max_examples=10, deadline=None)
@given(data=st.data(), seed=SEEDS)
def test_one_read_hook_sees_every_read(tester, member, data, seed):
    # the counting oracle is no plain QueryOracle, so the search testers
    # take their sampler path, which gives the plain oracle's verdict
    cfg, entry, fn, alpha, verdict = _trial(tester, data.draw(STRATEGIES[tester](member)), seed)
    oracle = ReadCounter(fn)
    assert entry.run(cfg, oracle, alpha, make_rng(seed, "trial", 0)) == verdict
    assert oracle.reads == verdict.queries_used


@pytest.mark.parametrize("tester", sorted(t for t, e in TESTERS.items() if e.shape == "line"))
def test_a_line_entry_refuses_a_grid_without_validate_config(tester):
    # a library caller that skips validate_config gets a refusal, not a
    # verdict read off the grid's first coordinates
    entry = TESTERS[tester]
    kind = entry.kind or "real"
    fn = ErasedFunction(Domain.grid(2, 2), [0, 1, 1, 0], kind=kind,
                        modulus=5 if kind == "field" else None)
    cfg = ExperimentConfig(tester=tester, instance=fn, trials=1, seed=0, eps=Fraction(1, 4),
                           k=1, degree=1, bounds=LineBoundingPair.lipschitz(2),
                           poset=Poset(4, [(1, 2)]))
    with pytest.raises(ValueError):
        entry.run(cfg, QueryOracle(fn), 0, make_rng(0))

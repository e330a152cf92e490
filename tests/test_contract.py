"""The registry's contract, first clause: a generated member is never
rejected.  One hypothesis test per ``harness.TESTERS`` entry draws a seed,
a size, eps and alpha inside that tester's gates, builds a member, and runs
it through ``validate_config`` and ``run_trial``, which also raises when the
queries pass the entry's budget.  The grid testers admit alpha up to
eps/(250d) and eps/(970d) only, so their members this small are total."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ertest.adversary import erase_random, generate_member_instance
from ertest.core import Domain, ErasedFunction
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


def generated(draw, prop, domain, eps=None, alphas=ALPHAS, **params):
    """(member, eps, alpha, params) for ``prop`` on ``domain``: eps drawn
    unless given, and the member erased at a drawn alpha by
    ``generate_member_instance``."""
    eps = draw(EPSS) if eps is None else eps
    alpha = draw(alphas)
    fn = generate_member_instance(prop, domain, alpha, make_rng(draw(SEEDS)))
    return fn, eps, alpha, params


@st.composite
def monotone_line_member(draw):
    return generated(draw, PropertySpec("monotone-line"), Domain.line(draw(LINE_SIZES)))


@st.composite
def bdp_line_member(draw):
    n = draw(LINE_SIZES)
    bounds = draw(step_bounds(n))
    return generated(draw, PropertySpec("bdp-line", bounds=bounds), Domain.line(n),
                     bounds=bounds)


@st.composite
def convex_line_member(draw):
    return generated(draw, PropertySpec("convex-line"), Domain.line(draw(LINE_SIZES)))


def grid_member(draw, tag, gate, **params):
    """A grid member, with alpha 0, 1/4, ..., or all of the tester's gate
    eps/(gate·d)."""
    domain = Domain.grid(draw(st.integers(2, 5)), draw(st.integers(2, 3)))
    if tag == "bdp-grid":
        params["bounds"] = BoundingFamily(
            tuple(draw(step_bounds(domain.n)) for _ in range(domain.d)))
    eps = draw(EPSS)
    alphas = st.integers(0, 4).map(lambda j: eps * j / (4 * gate * domain.d))
    return generated(draw, PropertySpec(tag, **params), domain, eps, alphas, **params)


@st.composite
def monotone_grid_member(draw):
    return grid_member(draw, "monotone-grid", 250)


@st.composite
def bdp_grid_member(draw):
    return grid_member(draw, "bdp-grid", 970)


@st.composite
def k_runs_member(draw):
    """n past k^2/eps, the tester's gate."""
    k, eps = draw(st.integers(1, 5)), draw(EPSS)
    n = draw(st.integers(int(k * k / eps) + 1, int(k * k / eps) + 64))
    return generated(draw, PropertySpec("k-runs", k=k), Domain.line(n), eps, k=k)


@st.composite
def low_degree_member(draw):
    """degree + 2 <= p, the tester's gate: member generation checks through
    the oracle's member exit, which runs before its size gate."""
    p = draw(st.sampled_from(PRIMES))
    degree = draw(st.integers(0, min(p - 2, 4)))
    return generated(draw, PropertySpec("low-degree", degree=degree), Domain.line(p),
                     degree=degree)


@st.composite
def poset_monotone_member(draw):
    """A random DAG on at most 16 elements, every edge from a smaller to a
    larger element, labelled 1 on an upward-closed set and 0 elsewhere:
    element v is 1 when a drawn bit or any element with an edge into it
    says so, so the labelling is monotone.  No generator covers posets."""
    size = draw(st.integers(1, 16))
    pairs = draw(st.lists(st.tuples(st.integers(1, size), st.integers(1, size)), max_size=40))
    edges = [(u, v) for u, v in pairs if u < v]
    bits = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    up = set()
    for v in range(1, size + 1):
        if bits[v - 1] or any(u in up for u, w in edges if w == v):
            up.add(v)
    fn = ErasedFunction(Domain.line(size), [int(v in up) for v in range(1, size + 1)],
                        kind="bit")
    alpha = draw(ALPHAS)
    if alpha > 0:
        fn = erase_random(fn, alpha, make_rng(draw(SEEDS)))
    return fn, draw(EPSS), alpha, {"poset": Poset(size, edges)}


MEMBERS = {
    "monotone-line": monotone_line_member(),
    "classic-monotone-line": monotone_line_member(),
    "bdp-line": bdp_line_member(),
    "convex-line": convex_line_member(),
    "monotone-grid": monotone_grid_member(),
    "bdp-grid": bdp_grid_member(),
    "k-runs": k_runs_member(),
    "low-degree": low_degree_member(),
    "poset-monotone": poset_monotone_member(),
}


def test_every_registry_entry_has_a_member_strategy():
    assert set(MEMBERS) == set(TESTERS)


@pytest.mark.parametrize("tester", sorted(MEMBERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=SEEDS)
def test_a_generated_member_is_never_rejected(tester, data, seed):
    fn, eps, alpha, params = data.draw(MEMBERS[tester])
    cfg = ExperimentConfig(tester=tester, instance=fn, trials=1, seed=seed, eps=eps,
                           alpha=alpha, **params)
    entry, _ = validate_config(cfg)
    verdict, _ = run_trial(cfg, entry, fn, 0)
    assert not verdict.is_reject, (tester, seed, verdict.certificate)

"""Black-box routes to erasure resilience.

Two wrappers cover whole families of properties: proximity-oblivious tests
gain resilience by accepting whenever the sample touches an erasure, and
uniform testers of extendable properties gain it by oversampling until
enough nonerased points arrive.  The module also ships the concrete tests
these wrappers are used with here: low-degree polynomial fitting, runs of a
bit string, and poset monotonicity, plus an adapter that turns a distance
approximator into a tester by filling erasures with a default value.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .core import (
    ALL_CHECKS_PASSED,
    ERASED,
    ERASED_SAMPLE_ACCEPT,
    ConfigError,
    ErasedFunction,
    InvalidField,
    PreconditionViolated,
    QueryOracle,
    Verdict,
    ceil_frac,
    check_params,
    draw,
    exact_fraction,
    exact_log2,
    holds_values,
)
from .oracles import interpolate, is_prime, poly_eval, count_alternations

LN3 = math.log(3)

_by_value = operator.itemgetter(1)


@dataclass(frozen=True)
class POTSpec:
    """A one-shot test: q uniform points, deterministic decide.

    ``rho`` maps distance to a detection-rate lower bound (monotone
    nondecreasing; spot-checked here).  ``distinct`` draws the q points
    without replacement, for decide rules that are vacuous on collapsed
    samples.  ``completeness`` is the acceptance probability on members.
    """

    q: int
    completeness: float
    rho: Callable
    decide: Callable
    distinct: bool = False

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("need at least one query")
        if not 0 < self.completeness <= 1:
            raise ValueError("completeness must be in (0, 1]")
        grid = [Fraction(i, 8) for i in range(1, 9)]
        vals = [self.rho(x) for x in grid]
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("detection-rate function must be nondecreasing")


def erasure_resilient_pot_run(pot: POTSpec, oracle: QueryOracle, rng) -> Verdict:
    """One wrapped run: q uniform flat-index reads, budgeted past the
    oracle's count; any erased draw is an immediate accept, otherwise the
    base decide rules on their points."""
    domain = oracle.fn.domain
    oracle.set_budget(oracle.count + pot.q)
    if pot.distinct:
        if pot.q > domain.size:
            raise ValueError("cannot draw more distinct points than the domain has")
        idxs = rng.sample(range(domain.size), pot.q)
    else:
        idxs = [draw(rng, 0, domain.size - 1) for _ in range(pot.q)]
    sample = []
    for i in idxs:
        v = oracle.query_index(i)
        if v is ERASED:
            return Verdict.accepted(ERASED_SAMPLE_ACCEPT, oracle.count)
        sample.append((domain.point_at(i), v))
    if pot.decide(sample):
        return Verdict.accepted(ALL_CHECKS_PASSED, oracle.count)
    return Verdict.rejected(("pot-sample", tuple(sample)), oracle.count)


def pot_amplify(pot: POTSpec, alpha, detection_lower_bound,
                oracle: QueryOracle, rng) -> Verdict:
    """Independent repetition against a detection-rate floor: ln(3)/bound
    runs push the miss probability below 1/3; reject on any rejecting run.
    Every run reads through ``oracle``, so it sees and counts each read."""
    _, a = check_params(alpha=alpha)
    bound = exact_fraction(detection_lower_bound)
    if not 0 < bound <= 1:
        raise ValueError("detection bound must be in (0,1]")
    for _ in range(ceil_frac(Fraction(LN3) / bound)):
        verdict = erasure_resilient_pot_run(pot, oracle, rng)
        if verdict.is_reject:
            return verdict
    return Verdict.accepted(ALL_CHECKS_PASSED, oracle.count)


def low_degree_pot(p: int, degree: int) -> POTSpec:
    """Degree-at-most-``degree`` test over GF(p): d+2 distinct uniform points
    must fit one polynomial.  Domain position i holds the value at field
    element i-1, so the line has n <= p points (``check_field_line``); a
    sample with a grid point or a position past p raises ConfigError, and a
    certificate holding one checks False."""
    if not is_prime(p):
        raise InvalidField(f"{p} is not prime")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree + 2 > p:
        raise ValueError("need q = degree+2 distinct field points")

    def decide(sample) -> bool:
        if (d := max((len(pt) for pt, _ in sample), default=1)) > 1:
            raise ConfigError(f"low-degree runs on line domains, got d={d}")
        pts = sorted(set((pt[0] - 1, v) for pt, v in sample))
        if pts and pts[-1][0] >= p:  # two positions would name one field element
            raise ConfigError(f"low-degree needs a line of at most p={p} points, "
                              f"got position {pts[-1][0] + 1}")
        if len(pts) <= degree + 1:
            return True
        coeffs = interpolate(pts[:degree + 1], p)
        return all(poly_eval(coeffs, x, p) == y for x, y in pts[degree + 1:])

    return POTSpec(q=degree + 2, completeness=1.0, rho=lambda x: x,
                   decide=decide, distinct=True)


def check_pot_certificate(fn: ErasedFunction, pot: POTSpec, certificate) -> bool:
    return _check_sample_certificate(fn, "pot-sample", pot.decide, certificate)


def _check_sample_certificate(fn: ErasedFunction, tag: str, decide, certificate) -> bool:
    try:
        kind, sample = certificate
        sample = list(sample)
    except (TypeError, ValueError):  # not (tag, sample)
        return False
    try:
        return kind == tag and holds_values(fn, sample) and not decide(sample)
    except ConfigError:  # a sample the decide rule cannot read
        return False


# ---------------------------------------------------------------------------
# extendable-property wrapper

@dataclass(frozen=True)
class UniformTesterSpec:
    """Uniform-sample tester: ``q(domain_size, eps)`` points, deterministic
    decide over the labeled nonerased sample.  q must be nondecreasing in
    size and nonincreasing in eps (spot-checked)."""

    q: Callable
    decide: Callable

    def __post_init__(self):
        sizes = (8, 64, 512)
        epss = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2))
        for e in epss:
            got = [self.q(s, e) for s in sizes]
            if any(b < a for a, b in zip(got, got[1:])):
                raise ValueError("sample size must be nondecreasing in domain size")
        for s in sizes:
            got = [self.q(s, e) for e in epss]
            if any(b > a for a, b in zip(got, got[1:])):
                raise ValueError("sample size must be nonincreasing in eps")


def extendable_plan(spec: UniformTesterSpec, domain_size: int, eps, alpha):
    """(base sample size, oversampled draws per repetition, repetitions)."""
    e, a = check_params(eps, alpha)
    need = spec.q(domain_size, e)
    draws = ceil_frac(2 * Fraction(need) / (1 - a))
    reps = 3 if need < 8 else 1
    return need, draws, reps


def extendable_budget(spec: UniformTesterSpec, domain_size: int, eps, alpha) -> int:
    need, draws, reps = extendable_plan(spec, domain_size, eps, alpha)
    return reps * draws


def erasure_resilient_extendable(spec: UniformTesterSpec, alpha, eps,
                                 oracle: QueryOracle, rng) -> Verdict:
    """Oversample by 2/(1-alpha); a sample with fewer than q nonerased
    points accepts outright, otherwise the base decide sees every nonerased
    labeled point.  Repeated three times (rejecting on any reject) when q is
    small, to keep the shortfall probability comfortably under 1/3.  Each
    draw is a flat index read by ``oracle.query_index``; only a nonerased
    draw builds its point."""
    domain = oracle.fn.domain
    need, draws, reps = extendable_plan(spec, domain.size, eps, alpha)
    oracle.set_budget(reps * draws)
    for _ in range(reps):
        sample = []
        for _ in range(draws):
            idx = draw(rng, 0, domain.size - 1)
            v = oracle.query_index(idx)
            if v is not ERASED:
                sample.append((domain.point_at(idx), v))
        if len(sample) < need:
            continue
        if not spec.decide(sample):
            return Verdict.rejected(("extendable-sample", tuple(sample)), oracle.count)
    return Verdict.accepted(ALL_CHECKS_PASSED, oracle.count)


def check_extendable_certificate(fn: ErasedFunction, spec: UniformTesterSpec,
                                 certificate) -> bool:
    return _check_sample_certificate(fn, "extendable-sample", spec.decide, certificate)


# ---------------------------------------------------------------------------
# poset monotonicity

class Poset:
    """Finite poset on elements 1..size, closed under reachability from the
    given cover/edge list."""

    __slots__ = ("size", "_below")

    def __init__(self, size: int, edges):
        if size < 1:
            raise ValueError("poset needs at least one element")
        self.size = size
        below = [1 << (i - 1) for i in range(1, size + 1)]  # reflexive
        adj = [[] for _ in range(size + 1)]
        indeg = [0] * (size + 1)
        for u, v in edges:
            if not (1 <= u <= size and 1 <= v <= size):
                raise ValueError(f"edge ({u},{v}) outside 1..{size}")
            if u == v:
                continue
            adj[u].append(v)
            indeg[v] += 1
        order = [i for i in range(1, size + 1) if indeg[i] == 0]
        seen = 0
        queue = list(order)
        while queue:
            u = queue.pop()
            seen += 1
            for v in adj[u]:
                below[v - 1] |= below[u - 1]
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if seen != size:
            raise ValueError("edge list contains a cycle")
        self._below = below


def poset_monotone_uniform_spec(poset: Poset) -> UniformTesterSpec:
    """Uniform tester: about sqrt(size/eps) points, reject on any sampled
    comparable pair with inverted values.

    ``decide`` visits the sampled elements by value, largest first, one
    group of equal values at a time, and keeps the bitmask ``higher`` of
    the elements seen in earlier groups, whose values are larger by ``>``.
    The sample is violated iff some element has one of them below it in
    the poset: ``below & higher`` nonzero, in O(s log s) for s sampled
    points.  A sampled grid point or element past ``poset.size`` raises
    ConfigError, and a certificate holding one checks False."""
    below, poset_size = poset._below, poset.size

    def q(size, eps):
        return math.ceil(8 * math.sqrt(size / float(eps)))

    def decide(sample) -> bool:
        if (d := max((len(pt) for pt, _ in sample), default=1)) > 1:
            raise ConfigError(f"poset-monotone runs on line domains, got d={d}")
        values = {pt[0]: v for pt, v in sample}
        top = max(values, default=0)
        if top > poset_size:
            raise ConfigError(f"poset-monotone sampled element {top}, "
                              f"past the poset's {poset_size} elements")
        higher = 0
        for _, group in itertools.groupby(sorted(values.items(), key=_by_value, reverse=True),
                                          key=_by_value):
            elements = [a for a, _ in group]
            if any(below[a - 1] & higher for a in elements):
                return False
            higher |= sum(1 << (a - 1) for a in elements)  # distinct, so the sum is the union
        return True

    return UniformTesterSpec(q=q, decide=decide)


# ---------------------------------------------------------------------------
# runs of a bit string

def k_runs_sample_size(k: int, eps) -> int:
    return ceil_frac(3 * (k + 1) * exact_log2(k + 1) / check_params(eps)[0])


def test_k_runs(oracle: QueryOracle, k: int, eps, rng) -> Verdict:
    """One-sided tester for "at most k runs": uniform independent positions,
    reject when the nonerased sampled values, in position order, alternate k
    or more times.  Duplicated positions collapse."""
    fn = oracle.fn
    if not fn.domain.is_line or fn.kind != "bit":
        raise ValueError("runs are tested on bit-valued line functions")
    if k < 1:
        raise ValueError("k must be at least 1")
    n = fn.domain.n
    e, _ = check_params(eps)
    if e <= Fraction(k * k, n):
        raise PreconditionViolated(f"need eps > k^2/n = {Fraction(k*k, n)}")
    draws = k_runs_sample_size(k, e)
    oracle.set_budget(draws)
    seen = {}
    for _ in range(draws):
        pos = draw(rng, 1, n)
        v = oracle.query_index(pos - 1)
        if v is not ERASED:
            seen[pos] = v
    ordered = sorted(seen.items())
    if count_alternations([v for _, v in ordered]) >= k:
        return Verdict.rejected(("alternation-run", tuple(ordered)), oracle.count)
    return Verdict.accepted(ALL_CHECKS_PASSED, oracle.count)


def check_k_runs_certificate(fn: ErasedFunction, k: int, certificate) -> bool:
    try:
        kind, run = certificate
        pairs = list(run)
        named = [((pos,), v) for pos, v in pairs]
    except (TypeError, ValueError):  # not (kind, ((position, bit), ...))
        return False
    if kind != "alternation-run" or not holds_values(fn, named):
        return False
    if [p for p, _ in pairs] != sorted(set(p for p, _ in pairs)):
        return False
    return count_alternations([v for _, v in pairs]) >= k


# ---------------------------------------------------------------------------
# distance-approximation adapter

def tester_from_distance_approx(approx: Callable, fill, alpha, eps,
                                oracle: QueryOracle, eta=1, delta=0) -> Verdict:
    """Runs a distance approximator on the view where every erasure reads as
    ``fill``; accepts iff the estimate is at most alpha.

    The approximator contract: returns some estimate e with
    distance/eta - delta <= e <= distance (with its own success probability);
    valid for alpha < (eps - delta*eta)/(eps + eta).
    """
    e, a = check_params(eps, alpha)
    eta_f, delta_f = exact_fraction(eta), exact_fraction(delta)
    if not a < (e - delta_f * eta_f) / (e + eta_f):
        raise PreconditionViolated(
            "erasure bound too large for this approximation quality")
    fn = oracle.fn
    oracle.set_budget(fn.domain.size)
    filled = []
    for idx in range(fn.domain.size):
        v = oracle.query_index(idx)
        filled.append(fill if v is ERASED else v)
    view = ErasedFunction(fn.domain, filled, kind=fn.kind, modulus=fn.modulus)
    estimate = approx(view)
    if exact_fraction(estimate) <= a:
        return Verdict.accepted(ALL_CHECKS_PASSED, oracle.count)
    return Verdict.rejected(("estimated-distance", estimate, a), oracle.count)

"""Instance generation only: erasure strategies, named in one table,
``ERASERS``, restorable members, and certified-far functions.

Erasures here are oblivious: the pattern is fixed before any tester runs.
Far instances always ship with a distance report from the exact oracles (or
a certified matching lower bound where only that is tractable), so the
harness never takes farness on faith.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import (
    ERASED,
    Domain,
    ErasedFunction,
    GenerationFailed,
    exact_fraction,
)
from .line import INF, LineBoundingPair
from .hypergrid import BoundingFamily
from .oracles import (
    PropertySpec,
    _check_fit,
    compute_distance as certify_distance,
    is_restorable,
    poly_eval,
)

FAR_RETRIES = 32


# ---------------------------------------------------------------------------
# erasure strategies

def _erase(fn: ErasedFunction, a, pick) -> ErasedFunction:
    """A copy of the total ``fn``, declaring ``a``, with the indices that
    ``pick(count)`` returns erased, count = floor(a*|D|).  ``pick`` runs
    only after the total check, so a refused call draws nothing."""
    if any(v is ERASED for v in fn.values):
        raise ValueError("input must be total")
    vals = list(fn.values)
    for i in pick(int(a * fn.domain.size)):  # floor: Fraction.__int__ truncates, a >= 0
        vals[i] = ERASED
    return ErasedFunction(fn.domain, vals, kind=fn.kind,
                          declared_alpha=a, modulus=fn.modulus)


def erase_random(fn: ErasedFunction, alpha, rng) -> ErasedFunction:
    """Erase exactly floor(alpha*|D|) points, uniform without replacement."""
    a = exact_fraction(alpha)
    if not 0 <= a < 1:
        raise ValueError("alpha outside [0,1)")
    return _erase(fn, a, lambda count: rng.sample(range(fn.domain.size), count))


def binary_search_pivot_order(n: int) -> list:
    """Positions of [1,n] in the order a deterministic midpoint search visits
    them: the implicit search tree, level by level."""
    order = []
    queue = [(1, n)]
    while queue:
        nxt = []
        for lo, hi in queue:
            if lo > hi:
                continue
            m = (lo + hi) // 2
            order.append(m)
            nxt.append((lo, m - 1))
            nxt.append((m + 1, hi))
        queue = nxt
    return order


def erase_binary_search_pivots(fn: ErasedFunction, alpha) -> ErasedFunction:
    """Deterministic adversary: erase the top of the midpoint-search tree
    (root, then quarter points, ...) until the budget is spent."""
    a = exact_fraction(alpha)
    if not 0 < a < 1:
        raise ValueError("alpha outside (0,1)")
    if not fn.domain.is_line:
        raise ValueError("pivot erasure targets line functions")
    return _erase(fn, a, lambda count: [
        pos - 1 for pos in binary_search_pivot_order(fn.domain.n)[:count]])


# every erasure strategy by name: an (fn, alpha, rng) lambda that looks its eraser up when called
ERASERS = {
    "random": lambda fn, alpha, rng: erase_random(fn, alpha, rng),
    "pivots": lambda fn, alpha, rng: erase_binary_search_pivots(fn, alpha),
    "none": lambda fn, alpha, rng: fn,
}


# ---------------------------------------------------------------------------
# the middle-layer cube instance

def hypercube_middle_layer(d: int) -> ErasedFunction:
    """On {0,1}^d, d even: erased at weight d/2, one below, zero above.  No
    axis-parallel edge between nonerased points is violated, yet the
    nonerased part is half-far from monotone."""
    if d < 2 or d % 2:
        raise ValueError("need even d >= 2")
    dom = Domain.hamming_cube(d)
    half = d // 2
    weights = (sum(pt) - d for pt in dom.points())  # coordinates are 1 or 2
    vals = [ERASED if w == half else (1 if w < half else 0) for w in weights]
    return ErasedFunction(dom, vals, kind="bit")


def _bracket_partner(bits) -> tuple:
    """Mirror element on the same symmetric chain: ones pair with later
    zeros like brackets; the unmatched positions (always zeros before ones)
    get their one-count complemented."""
    stack = []
    matched = [False] * len(bits)
    for i, b in enumerate(bits):
        if b:
            stack.append(i)
        elif stack:
            matched[stack.pop()] = True
            matched[i] = True
    free = [i for i in range(len(bits)) if not matched[i]]
    ones = sum(bits[i] for i in free)
    out = list(bits)
    for rank, i in enumerate(free):
        out[i] = 1 if rank >= ones else 0
    return tuple(out)


def middle_layer_matching(d: int) -> list:
    """Perfect matching of the cube's below-middle points onto above-middle
    points along symmetric chains; every pair is comparable and (under the
    middle-layer instance) violated."""
    if d < 2 or d % 2:
        raise ValueError("need even d >= 2")
    dom = Domain.hamming_cube(d)
    half = d // 2
    pairs = []
    for pt in dom.points():
        bits = tuple(c - 1 for c in pt)
        if sum(bits) < half:
            mate = _bracket_partner(bits)
            if sum(mate) <= half:
                raise AssertionError(f"chain mirror of {bits} not above middle")
            pairs.append((pt, tuple(b + 1 for b in mate)))
    return pairs


# ---------------------------------------------------------------------------
# templates: the total functions instances start from

def _finite_step_cap(bounds: LineBoundingPair) -> float:
    cap = 1.0
    for t in range(1, bounds.n):
        u = bounds.seg_upper(t, t + 1)
        l = bounds.seg_lower(t, t + 1)
        if u != INF:
            cap = max(cap, abs(float(u)))
        if l != -INF:
            cap = max(cap, abs(float(l)))
    return cap


def _member_walk(bounds: LineBoundingPair, n: int, rng) -> list:
    """Start anywhere, then steps drawn strictly inside each (lower, upper)
    window, clamped to a finite span when a side is unbounded."""
    span = 8.0
    vals = [rng.uniform(-span, span)]
    for t in range(1, n):
        l = bounds.seg_lower(t, t + 1)
        u = bounds.seg_upper(t, t + 1)
        lo = float(l) if l != -INF else -span
        hi = float(u) if u != INF else max(span, lo + 2 * span)
        if lo > hi:  # an unbounded lower side under an upper bound below -span
            lo = hi - 2 * span
        step = lo + (hi - lo) * (0.25 + 0.5 * rng.random())
        vals.append(vals[-1] + step)
    return vals


def _template(prop: PropertySpec, domain: Domain, member: bool, rng) -> ErasedFunction:
    """A total function on ``domain``: a random member of ``prop``, or one
    built far from it (a descent, a too steep alternation, an arch, a run
    per point, one degree more).  Each property's branch holds both forms;
    values are real, bits for k-runs and field elements mod n for low-degree."""
    tag = prop.tag
    n, d = domain.n, domain.d
    if tag == "k-runs":
        if member:
            runs = min(rng.randint(1, prop.k), n)  # n points hold at most n runs
            cuts = sorted(rng.sample(range(1, n), runs - 1))
        else:
            cuts = range(1, n)
        bit = rng.randint(0, 1)
        vals = []
        for start, stop in zip([0, *cuts], [*cuts, n]):
            vals.extend([bit] * (stop - start))
            bit ^= 1
        return ErasedFunction(domain, vals, kind="bit")
    if tag == "low-degree":
        coeffs = [rng.randint(0, n - 1) for _ in range(prop.degree + 1)]
        if not member:
            coeffs.append(1)
        return ErasedFunction(domain, [poly_eval(coeffs, x, n) for x in range(n)],
                              kind="field", modulus=n)
    if tag == "monotone-line":
        vals = []
        if member:
            cur = rng.uniform(-4, 4)
            for _ in range(n):
                cur += rng.random()
                vals.append(cur)
        else:
            cur = n + rng.random()
            for _ in range(n):
                vals.append(cur)
                cur -= 1 + rng.random()
    elif tag == "bdp-line":
        if member:
            vals = _member_walk(prop.bounds, n, rng)
        else:
            amp = 2 * _finite_step_cap(prop.bounds) * (n + 1) + 1 + rng.random()
            vals = [amp * (t % 2) for t in range(n)]
    elif tag == "convex-line":
        if member:
            vals = [rng.uniform(-4, 4)]
            slope = rng.uniform(-2, 0)
            for _ in range(n - 1):
                vals.append(vals[-1] + slope)
                slope += rng.random()
        else:
            mid = (n + 1) / 2
            tilt = rng.random()
            vals = [-(t - mid) ** 2 + tilt * t for t in range(1, n + 1)]
    elif member:  # monotone-grid and bdp-grid, the tags left
        fam = prop.bounds if tag == "bdp-grid" else BoundingFamily.monotone(n, d)
        tables = [_member_walk(fam.per_dim[r], n, rng) for r in range(d)]
        vals = [sum(tables[r][pt[r] - 1] for r in range(d)) for pt in domain.points()]
    elif tag == "monotone-grid":
        jit = rng.random()
        vals = [-float(sum(pt)) - jit for pt in domain.points()]
    else:
        cap = max(_finite_step_cap(b) for b in prop.bounds.per_dim)
        amp = 2 * cap * (n * d + 1) + 1 + rng.random()
        vals = [amp * (sum(pt) % 2) for pt in domain.points()]
    return ErasedFunction(domain, vals, kind="real")


def _instance(prop: PropertySpec, domain: Domain, member: bool, alpha, rng,
              eraser: Callable) -> ErasedFunction:
    """A template, erased by ``eraser`` when alpha > 0."""
    total = _template(prop, domain, member, rng)
    return eraser(total, alpha, rng) if exact_fraction(alpha) > 0 else total


def generate_far_instance(prop: PropertySpec, domain: Domain, target_eps,
                          alpha, rng, eraser: Callable = erase_random):
    """Template + erase + certify, retried a bounded number of times until
    the certified relative distance reaches the target."""
    _check_fit(domain, prop)
    e = exact_fraction(target_eps)
    for _ in range(FAR_RETRIES):
        fn = _instance(prop, domain, False, alpha, rng, eraser)
        report = certify_distance(fn, prop)
        if report.relative >= e:
            return fn, report
    raise GenerationFailed(
        f"no {prop.tag} instance reached distance {target_eps} "
        f"after {FAR_RETRIES} attempts")


def generate_member_instance(prop: PropertySpec, domain: Domain, alpha, rng,
                             eraser: Callable = erase_random) -> ErasedFunction:
    """Random member, then erasures; restorability is checked, not assumed,
    and a member that fails the check raises GenerationFailed."""
    _check_fit(domain, prop)
    fn = _instance(prop, domain, True, alpha, rng, eraser)
    if not is_restorable(fn, prop):
        raise GenerationFailed(f"the {prop.tag} member instance is not restorable")
    return fn


# ---------------------------------------------------------------------------
# the one-stop spec

@dataclass(frozen=True)
class InstanceSpec:
    """Everything needed to reproduce one instance from a seed."""

    domain: Domain
    prop: PropertySpec
    member: bool
    target_eps: object = None
    erasure: str = "random"
    alpha: object = 0
    seed: int = 0

    def eraser(self) -> Callable:
        if self.erasure not in ERASERS:
            raise ValueError(f"unknown erasure strategy {self.erasure!r}")
        return ERASERS[self.erasure]

    def realize(self, rng):
        """(function, distance report or None for members)."""
        if self.member:
            return generate_member_instance(self.prop, self.domain, self.alpha,
                                            rng, self.eraser()), None
        if self.target_eps is None:
            raise ValueError("far instances need a target distance")
        return generate_far_instance(self.prop, self.domain, self.target_eps,
                                     self.alpha, rng, self.eraser())

"""Instance generation: erasure strategies, restorable members, certified-far
functions, and the deterministic-search baseline they defeat.

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
    QueryOracle,
    Verdict,
    draw,
    exact_fraction,
)
from .line import (INF, LineBoundingPair, _descends, _run_searches,
                   monotone_line_budget, proximity_iterations)
from .hypergrid import BoundingFamily
from .oracles import (
    PropertySpec,
    compute_distance as certify_distance,
    is_restorable,
    poly_eval,
)

FAR_RETRIES = 32


# ---------------------------------------------------------------------------
# erasure strategies

def erase_random(fn: ErasedFunction, alpha, rng) -> ErasedFunction:
    """Erase exactly floor(alpha*|D|) points, uniform without replacement."""
    a = exact_fraction(alpha)
    if not 0 <= a < 1:
        raise ValueError("alpha outside [0,1)")
    if any(v is ERASED for v in fn.values):
        raise ValueError("input must be total")
    size = fn.domain.size
    count = int(a * size)  # floor: Fraction.__int__ truncates, a >= 0
    vals = list(fn.values)
    for i in rng.sample(range(size), count):
        vals[i] = ERASED
    return ErasedFunction(fn.domain, vals, kind=fn.kind,
                          declared_alpha=a, modulus=fn.modulus)


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
    if any(v is ERASED for v in fn.values):
        raise ValueError("input must be total")
    n = fn.domain.n
    count = int(a * n)
    vals = list(fn.values)
    for pos in binary_search_pivot_order(n)[:count]:
        vals[pos - 1] = ERASED
    return ErasedFunction(fn.domain, vals, kind=fn.kind,
                          declared_alpha=a, modulus=fn.modulus)


def erase_none(fn: ErasedFunction, alpha, rng=None) -> ErasedFunction:
    return fn


# ---------------------------------------------------------------------------
# the baseline a pivot adversary defeats

def classic_monotone_line(oracle: QueryOracle, eps, alpha, rng) -> Verdict:
    """Sortedness spot-checker with DETERMINISTIC midpoint pivots.  Not
    erasure-resilient: an erased pivot is skipped without any comparison, so
    erasing the top of the search tree blinds it.  Shipped for A/B runs
    against the randomized-pivot tester; budgeted identically."""
    n = oracle.fn.domain.n

    def searches():
        for _ in range(proximity_iterations(eps)):
            s = draw(rng, 1, n)
            fs = oracle.query((s,))
            lo, hi = 1, n
            while fs is not ERASED and lo <= hi:
                m = (lo + hi) // 2
                if m == s:
                    break
                fm = oracle.query((m,))
                if fm is not ERASED:
                    a, fa, b, fb = (m, fm, s, fs) if m < s else (s, fs, m, fm)
                    if _descends(a, fa, b, fb):
                        yield ("monotone-violation", (a, fa), (b, fb))
                if s < m:
                    hi = m - 1
                else:
                    lo = m + 1

    return _run_searches(oracle, monotone_line_budget(n, eps, alpha), searches())


# ---------------------------------------------------------------------------
# the middle-layer cube instance

def _cube_weight(pt) -> int:
    return sum(c - 1 for c in pt)


def hypercube_middle_layer(d: int) -> ErasedFunction:
    """On {0,1}^d, d even: erased at weight d/2, one below, zero above.  No
    axis-parallel edge between nonerased points is violated, yet the
    nonerased part is half-far from monotone."""
    if d < 2 or d % 2:
        raise ValueError("need even d >= 2")
    dom = Domain.hamming_cube(d)
    half = d // 2
    vals = []
    for idx in range(dom.size):
        w = _cube_weight(dom.point_at(idx))
        vals.append(ERASED if w == half else (1 if w < half else 0))
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
    for idx in range(dom.size):
        pt = dom.point_at(idx)
        bits = tuple(c - 1 for c in pt)
        if sum(bits) < half:
            mate = _bracket_partner(bits)
            if sum(mate) <= half:
                raise AssertionError(f"chain mirror of {bits} not above middle")
            pairs.append((pt, tuple(b + 1 for b in mate)))
    return pairs


# ---------------------------------------------------------------------------
# far templates

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


def _far_template(prop: PropertySpec, domain: Domain, rng) -> ErasedFunction:
    tag = prop.tag
    n, d = domain.n, domain.d
    if tag == "monotone-line":
        vals = []
        cur = n + rng.random()
        for _ in range(n):
            vals.append(cur)
            cur -= 1 + rng.random()
        return ErasedFunction(domain, vals, kind="real")
    if tag == "bdp-line":
        amp = 2 * _finite_step_cap(prop.bounds) * (n + 1) + 1 + rng.random()
        vals = [amp * (t % 2) for t in range(n)]
        return ErasedFunction(domain, vals, kind="real")
    if tag == "convex-line":
        mid = (n + 1) / 2
        tilt = rng.random()
        vals = [-(t - mid) ** 2 + tilt * t for t in range(1, n + 1)]
        return ErasedFunction(domain, vals, kind="real")
    if tag == "monotone-grid":
        jit = rng.random()
        vals = [-float(sum(pt)) - jit for pt in domain.points()]
        return ErasedFunction(domain, vals, kind="real")
    if tag == "bdp-grid":
        fam = prop.bounds
        cap = max(_finite_step_cap(b) for b in fam.per_dim)
        amp = 2 * cap * (n * d + 1) + 1 + rng.random()
        vals = [amp * (sum(pt) % 2) for pt in domain.points()]
        return ErasedFunction(domain, vals, kind="real")
    if tag == "k-runs":
        start = rng.randint(0, 1)
        vals = [(t + start) % 2 for t in range(n)]
        return ErasedFunction(domain, vals, kind="bit")
    p = n  # low-degree, the last tag PropertySpec admits
    low = [rng.randint(0, p - 1) for _ in range(prop.degree + 1)]
    vals = [poly_eval(low + [1], x, p) for x in range(p)]
    return ErasedFunction(domain, vals, kind="field", modulus=p)


def generate_far_instance(prop: PropertySpec, domain: Domain, target_eps,
                          alpha, rng, eraser: Callable = erase_random):
    """Template + erase + certify, retried a bounded number of times until
    the certified relative distance reaches the target."""
    e = exact_fraction(target_eps)
    for _ in range(FAR_RETRIES):
        total = _far_template(prop, domain, rng)
        fn = eraser(total, alpha, rng) if exact_fraction(alpha) > 0 else total
        report = certify_distance(fn, prop)
        if report.relative >= e:
            return fn, report
    raise GenerationFailed(
        f"no {prop.tag} instance reached distance {target_eps} "
        f"after {FAR_RETRIES} attempts")


# ---------------------------------------------------------------------------
# member templates

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


def _member_template(prop: PropertySpec, domain: Domain, rng) -> ErasedFunction:
    tag = prop.tag
    n, d = domain.n, domain.d
    if tag == "monotone-line":
        vals = []
        cur = rng.uniform(-4, 4)
        for _ in range(n):
            cur += rng.random()
            vals.append(cur)
        return ErasedFunction(domain, vals, kind="real")
    if tag == "bdp-line":
        return ErasedFunction(domain, _member_walk(prop.bounds, n, rng), kind="real")
    if tag == "convex-line":
        vals = [rng.uniform(-4, 4)]
        slope = rng.uniform(-2, 0)
        for _ in range(n - 1):
            vals.append(vals[-1] + slope)
            slope += rng.random()
        return ErasedFunction(domain, vals, kind="real")
    if tag in ("monotone-grid", "bdp-grid"):
        if tag == "monotone-grid":
            fam = BoundingFamily.monotone(n, d)
        else:
            fam = prop.bounds
        tables = [_member_walk(fam.per_dim[r], n, rng) for r in range(d)]
        vals = [sum(tables[r][pt[r] - 1] for r in range(d)) for pt in domain.points()]
        return ErasedFunction(domain, vals, kind="real")
    if tag == "k-runs":
        runs = min(rng.randint(1, prop.k), n)  # n points hold at most n runs
        cuts = sorted(rng.sample(range(1, n), runs - 1)) if runs > 1 else []
        bit = rng.randint(0, 1)
        vals = []
        edges = cuts + [n]
        pos = 0
        for stop in edges:
            vals.extend([bit] * (stop - pos))
            pos = stop
            bit ^= 1
        return ErasedFunction(domain, vals, kind="bit")
    p = n  # low-degree, the last tag PropertySpec admits
    coeffs = [rng.randint(0, p - 1) for _ in range(prop.degree + 1)]
    vals = [poly_eval(coeffs, x, p) for x in range(p)]
    return ErasedFunction(domain, vals, kind="field", modulus=p)


def generate_member_instance(prop: PropertySpec, domain: Domain, alpha, rng,
                             eraser: Callable = erase_random) -> ErasedFunction:
    """Random member, then erasures; restorability is checked, not assumed,
    and a member that fails the check raises GenerationFailed."""
    total = _member_template(prop, domain, rng)
    fn = eraser(total, alpha, rng) if exact_fraction(alpha) > 0 else total
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
        if self.erasure == "random":
            return erase_random
        if self.erasure == "pivots":
            return lambda fn, alpha, rng: erase_binary_search_pivots(fn, alpha)
        if self.erasure == "none":
            return erase_none
        raise ValueError(f"unknown erasure strategy {self.erasure!r}")

    def realize(self, rng):
        """(function, distance report or None for members)."""
        if self.member:
            fn = generate_member_instance(self.prop, self.domain, self.alpha,
                                          rng, self.eraser())
            return fn, None
        if self.target_eps is None:
            raise ValueError("far instances need a target distance")
        return generate_far_instance(self.prop, self.domain, self.target_eps,
                                     self.alpha, rng, self.eraser())

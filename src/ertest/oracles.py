"""Exact distance oracles and certificate verification.

Distance here is the least number of nonerased points whose values must change
so that the restriction extends to a member of the property.  Every report
carries an optimal kept-set; the complement is exactly the set of points an
explicit completion changes, and ``verify_report`` re-checks that completion
for membership.  One float rule per check: the monotone oracles and kept-set
checks, at every d, and the convex-line oracle compare by plain ``>``, exact
on any mix of ints, floats and Fractions; the bounded-derivative oracles and
checks and the matching checks use ``value_gt``, and the convexity check
the search's chord rule ``line._link_gt``, tolerant of float noise as the
testers are.  Feed ints or Fractions when a certified distance matters.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    ERASED,
    ConfigError,
    Domain,
    ErasedFunction,
    InvalidField,
    SizeLimit,
    difference,
    grid_descends,
)
from .hypergrid import BoundingFamily, grid_pair_violates
from .line import INF, LineBoundingPair, _link, _link_gt, _slope, check_bounds, pair_violates

FIELD_EXHAUSTIVE_GATE = 64
_ENUM_CAP = 1 << 20


@dataclass(frozen=True)
class DistanceReport:
    """Exact distance (or a certified lower bound) with its certificate.

    ``certificate`` is ("kept", points...) for exact reports, where points is
    a tuple of domain points left unchanged, or ("matching", pairs...) for a
    matching-based lower bound.  ``matching_bound`` accompanies grid reports.
    """

    property: str
    absolute: int
    relative: Fraction
    certificate: tuple
    is_lower_bound: bool = False
    matching_bound: Optional[int] = None


def line_pairs(fn: ErasedFunction):
    """Nonerased (position, value) pairs of a line function, in order."""
    if not fn.domain.is_line:
        raise ValueError("expected a line domain")
    return _valued(fn.values)


def _valued(cells) -> list:
    """The (position, value) pairs of a line's nonerased cells, in order."""
    return [(i + 1, v) for i, v in enumerate(cells) if v is not ERASED]


def _kept_report(tag: str, pairs, keep) -> DistanceReport:
    """The exact report keeping ``pairs[i]`` for each i in ``keep``, in order, of
    the nonerased (point, value) ``pairs``, a line's points as positions."""
    m = len(pairs)
    absolute = m - len(keep)
    kept = tuple((p,) if isinstance(p, int) else p for p, _ in map(pairs.__getitem__, keep))
    return DistanceReport(tag, absolute, Fraction(absolute, m), ("kept",) + kept)


# ---------------------------------------------------------------------------
# monotonicity on the line: |N| minus the longest nondecreasing subsequence


def longest_nondecreasing_indices(values) -> list:
    """Indices of one longest nondecreasing subsequence, O(m log m)."""
    tails = []      # tails[j] = smallest possible last value of a chain of length j+1
    tail_idx = []
    prev = [None] * len(values)
    for i, v in enumerate(values):
        j = bisect_right(tails, v)
        if j == len(tails):
            tails.append(v)
            tail_idx.append(i)
        else:
            tails[j] = v
            tail_idx[j] = i
        prev[i] = tail_idx[j - 1] if j > 0 else None
    out = []
    cur = tail_idx[-1] if tail_idx else None
    while cur is not None:
        out.append(cur)
        cur = prev[cur]
    return out[::-1]


def distance_to_monotone_line(fn: ErasedFunction) -> DistanceReport:
    pairs = line_pairs(fn)
    return _kept_report("monotone-line", pairs,
                        longest_nondecreasing_indices([v for _, v in pairs]))


# ---------------------------------------------------------------------------
# bounded-derivative properties on the line


def distance_to_bdp_line(fn: ErasedFunction, bounds: LineBoundingPair) -> DistanceReport:
    """Longest subsequence whose consecutive pairs satisfy both directed
    bounds; consecutive pairs suffice because the directed sums telescope:
    if every step of a chain fits inside its segment sums, any two chain
    points differ by at most the concatenated sums.

    Chain ends sit in buckets by chain length.  Each point scans the lengths
    downward and, inside a length, earlier points upward, and stops at the
    first compatible one: the parent is the earliest compatible point among
    the longest chains, and the kept chain ends at the earliest point of
    greatest length.  O(m^2) checks in the worst case, about one per point
    on near-members.
    """
    pairs = line_pairs(fn)
    check_bounds("bdp-line", bounds, LineBoundingPair, fn.domain)
    m = len(pairs)
    parent = [None] * m
    by_len = [None, []]   # by_len[L] = points ending a chain of length L, in order
    for i in range(m):
        pi, vi = pairs[i]
        chain = 1
        for length in range(len(by_len) - 1, 0, -1):
            j = next((j for j in by_len[length]
                      if not pair_violates(bounds, pairs[j][0], pairs[j][1], pi, vi)), None)
            if j is not None:
                chain, parent[i] = length + 1, j
                break
        if chain == len(by_len):
            by_len.append([])
        by_len[chain].append(i)
    keep = []
    cur = by_len[-1][0]
    while cur is not None:
        keep.append(cur)
        cur = parent[cur]
    keep.reverse()
    return _kept_report("bdp-line", pairs, keep)


# ---------------------------------------------------------------------------
# convexity on the line


def distance_to_convex_line(fn: ErasedFunction) -> DistanceReport:
    """DP over (previous kept point, current kept point): a kept-set is
    convex-compatible iff its consecutive slopes never decrease.

    O(m^2 log m): every chord slope is computed once; for each middle point
    j the predecessors h are sorted by slope(h, j), and each successor i
    finds its best predecessor by bisecting slope(j, i) into a prefix
    maximum.  Ties go to the smallest h with the longest chain, and the kept
    chain ends at the first longest pair (j, i) in (i, then j) order.

    A member exits first, in O(m): when the consecutive slopes never fall
    by ``<=``, the ``bisect_right`` comparison, every point is kept, which
    is the report the DP gives then; at m <= 2 there is nothing to compare,
    so the DP runs only for m >= 3.  The check stops at the first fall.
    """
    pairs = line_pairs(fn)
    m = len(pairs)
    if all(a <= b for a, b in itertools.pairwise(map(_slope, pairs, pairs[1:]))):
        return _kept_report("convex-line", pairs, range(m))
    # slope[j][i], best[j][i], parent[j][i] for j < i: the longest chain
    # ending with consecutive points j then i, and the point before j
    slope = [[None] * m for _ in range(m)]
    for j in range(m):
        row = slope[j]
        for i in range(j + 1, m):
            row[i] = _slope(pairs[j], pairs[i])
    best = [[2] * m for _ in range(m)]
    parent = [[None] * m for _ in range(m)]
    for j in range(1, m):
        preds = sorted(range(j), key=lambda h: slope[h][j])
        keys = [slope[h][j] for h in preds]
        prefix = []     # prefix[k] = (longest, smallest h) over preds[:k+1]
        top = (0, None)
        for h in preds:
            length = best[h][j]
            if length > top[0] or (length == top[0] and h < top[1]):
                top = (length, h)
            prefix.append(top)
        for i in range(j + 1, m):
            k = bisect_right(keys, slope[j][i])
            if k:
                length, h = prefix[k - 1]
                best[j][i] = length + 1
                parent[j][i] = h
    longest, bj, bi = 0, None, None
    for i in range(1, m):
        for j in range(i):
            if best[j][i] > longest:
                longest, bj, bi = best[j][i], j, i
    keep = [bi, bj]
    while parent[bj][bi] is not None:
        h = parent[bj][bi]
        keep.append(h)
        bj, bi = h, bj
    keep.reverse()
    return _kept_report("convex-line", pairs, keep)


# ---------------------------------------------------------------------------
# monotonicity over grids and posets

def _max_bipartite_matching(adj) -> dict:
    """Kuhn's augmenting paths; returns {left: right} over node ids
    0..len(adj)-1, where ``adj[a]`` lists the right nodes of left node a.
    The depth-first search keeps its own stack, so a long augmenting path
    cannot overflow Python's; it visits edges in adjacency order."""
    match_right = {}

    def augment(root):
        seen = set()
        stack = [(root, iter(adj[root]))]
        via = []        # via[k] = the right node frame k descended through
        while stack:
            a, it = stack[-1]
            for b in it:
                if b in seen:
                    continue
                seen.add(b)
                if b not in match_right:
                    match_right[b] = a
                    for (a2, _), b2 in zip(reversed(stack[:-1]), reversed(via)):
                        match_right[b2] = a2
                    return
                via.append(b)
                stack.append((match_right[b], iter(adj[match_right[b]])))
                break
            else:
                stack.pop()
                if via:
                    via.pop()

    for a in range(len(adj)):
        augment(a)
    return {a: b for b, a in match_right.items()}


def _min_changes_poset(m: int, edges):
    """Exact distance to monotonicity over any finite poset of ``m`` items,
    with an optimal kept-set, from the directed violated edges (i, j): item
    i below item j, yet valued above it.  The violated-pair relation is a
    strict partial order, so its comparability graph is perfect and a
    largest antichain of it (via matching and the alternating-reachability
    cover) is the largest violation-free subset."""
    adj = [[] for _ in range(m)]
    for a, b in edges:
        adj[a].append(b)
    match_lr = _max_bipartite_matching(adj)
    match_rl = {b: a for a, b in match_lr.items()}
    # alternating reachability from unmatched left nodes
    reach_left = set(a for a in range(m) if a not in match_lr)
    reach_right = set()
    frontier = list(reach_left)
    while frontier:
        nxt = []
        for a in frontier:
            for b in adj[a]:
                if b not in reach_right and match_lr.get(a) != b:
                    reach_right.add(b)
                    a2 = match_rl.get(b)
                    if a2 is not None and a2 not in reach_left:
                        reach_left.add(a2)
                        nxt.append(a2)
        frontier = nxt
    # vertex cover: left nodes not reached, right nodes reached
    kept = [i for i in range(m)
            if i in reach_left and i not in reach_right]
    assert len(kept) == m - len(match_lr)
    kept_set = set(kept)
    for a, b in edges:
        assert not (a in kept_set and b in kept_set), "antichain recovery failed"
    return len(match_lr), kept


def _grid_items(fn: ErasedFunction):
    return [(p, v) for p, v in zip(fn.domain.points(), fn.values) if v is not ERASED]


def _dominance_sweep(cells, domain, better, signs=None, cuts=None) -> list:
    """The best value over every cell that reaches each cell, O(d·N).

    ``cells`` lists the grid in index order, None where a cell has no value.
    A cell reaches another by unit steps of sign ``signs[r]`` (default +1)
    along each axis r, never across a cut step: ``cuts[r][t]`` cuts the step
    between 0-based coordinates t and t + 1.  ``better(a, b)`` says a beats
    b.  The reachable cells form a box, so one running pass per axis
    suffices.
    """
    n, size = domain.n, domain.size
    out = list(cells)
    for r in range(domain.d):
        stride = n ** r
        up = signs is None or signs[r] > 0
        order = range(n) if up else range(n - 1, -1, -1)
        offsets = [t * stride for t in order]
        # resets[k]: the k-th move along the axis crosses a cut step
        resets = [False] + (cuts[r] if up else cuts[r][::-1]) if cuts else [False] * n
        for top in range(0, size, stride * n):
            for base in range(top, top + stride):
                run = None
                for off, reset in zip(offsets, resets):
                    if reset:
                        run = None
                    v = out[base + off]
                    if v is not None and (run is None or better(v, run)):
                        run = v
                    else:
                        out[base + off] = run
    return out


def _is_monotone(cells, domain) -> bool:
    """No valued cell lies below a cell with a smaller value, by plain ``>``."""
    top = _dominance_sweep(cells, domain, operator.gt)
    return not any(t > v for t, v in zip(top, cells) if v is not None)


def _violated_grid_edges(cells, domain) -> list:
    """The violated edges (i, j) of the grid order, in (i, j) order: valued
    cell i lies below valued cell j, yet its value is above, by plain ``>``.
    Cells number in index order with erased cells (None) left out, as in
    ``_grid_items``.

    Each valued cell enumerates its upper orthant by index ranges per axis,
    the highest axis outermost, so the orthant comes out in index order and
    only cells above it are ever compared.  The cell itself and erased cells
    are skipped.  O(sum of orthant sizes): about m^2 / 2^d of the m^2
    pairs on a full grid.
    """
    n = domain.n
    strides = [n ** r for r in range(domain.d)]
    rank, valued = [None] * len(cells), 0
    for x, v in enumerate(cells):
        if v is not None:
            rank[x] = valued
            valued += 1
    edges = []
    for x, v in enumerate(cells):
        if v is None:
            continue
        orthant = [x]
        for stride in strides:
            span = (n - x // stride % n) * stride
            orthant = [y + s for s in range(0, span, stride) for y in orthant]
        i = rank[x]
        edges += [(i, rank[y]) for y in orthant[1:]
                  if (w := cells[y]) is not None and v > w]
    return edges


def distance_to_monotone_grid_exact(fn: ErasedFunction) -> DistanceReport:
    """Exact grid distance at any size via the matching route.

    A prefix-max sweep first tests for a violated pair in O(d·N) over the
    N grid points, by plain ``>`` as the edge enumeration.  With no violated
    pair, the matching is empty and every point is kept, which is the
    report the matching route returns; otherwise the edges come from
    ``_violated_grid_edges`` and Kuhn's matching runs on them.
    """
    items = _grid_items(fn)
    cells = [None if v is ERASED else v for v in fn.values]
    if _is_monotone(cells, fn.domain):
        keep = range(len(items))
    else:
        _, keep = _min_changes_poset(len(items), _violated_grid_edges(cells, fn.domain))
    return _kept_report("monotone-grid", items, keep)


def _exact_ints(values, sums):
    """``values`` and the bound prefix ``sums`` as ints over one positive
    common denominator, or None when the exact fast accept does not apply:
    the values are neither all floats nor all ints and Fractions, or a sum
    is not an int or Fraction (a float bound entry makes every later sum a
    float, unless its side's sums overflowed into Fractions).
    """
    if not (all(type(v) is float for v in values)
            or all(isinstance(v, (int, Fraction)) for v in values)):
        return None
    if not all(isinstance(s, (int, Fraction)) for s in sums):
        return None
    ratios = [x.as_integer_ratio() for x in itertools.chain(values, sums)]
    scale = math.lcm(*{den for _, den in ratios})
    ints = [num * (scale // den) for num, den in ratios]
    return ints[:len(values)], ints[len(values):]


def _bdp_violation_free(domain, cells, per_dim) -> bool:
    """True only when no two valued cells violate the bounded-derivative
    bounds ``per_dim`` (one ``LineBoundingPair`` of the domain's n per axis,
    as ``check_bounds`` ensures for the two callers, bdp-line verification
    and the bdp-grid bound); False when a pair does or when the exact test
    does not apply.  ``cells`` lists the grid in index order, ERASED where a
    cell has no value.

    For an orthant pattern sigma, let H(p) sum, over each axis r, the upper
    prefix sum at p_r where sigma_r = +1 and the lower one where it is -1.
    Then m(x, y) = H(x) - H(y) for every y in x's sigma-orthant (y_r <= x_r
    where sigma_r = +1, y_r >= x_r where it is -1) with no infinite step
    between them, so no such pair violates iff F = f - H has no cell above a
    smaller one in that order.  That is one min sweep per sigma,
    O(2^d·d·N), the grid form of the G/H maps of Chakrabarty, Dixit, Jha
    and Seshadhri (SODA 2015).

    The test is exact: values and bounds scale to ints.  Exact non-violation
    implies ``value_gt``'s tolerant non-violation only when every segment
    sum is exact (an int or Fraction), every value is finite, and the
    values are all floats (one rounding per difference, and rounding is
    monotone) or all ints and Fractions.  Otherwise this returns False and
    the caller runs its pairwise check, so verdicts are the pairwise ones.
    """
    n, d = domain.n, domain.d
    valued = [i for i, v in enumerate(cells) if v is not ERASED]
    # side 2r holds axis r's lower bounds, 2r + 1 its upper ones
    sums = [pre for b in per_dim for pre in (b._lo_pre, b._up_pre)]
    infs = [inf for b in per_dim for inf in (b._lo_inf, b._up_inf)]
    cuts = [list(map(operator.lt, inf, inf[1:])) for inf in infs]
    exact = _exact_ints([cells[i] for i in valued], list(itertools.chain(*sums)))
    if exact is None:
        return False
    values, flat = exact
    # prefix[k][t]: the finite entries of side k summed over steps before 0-based t
    prefix = [flat[k * n:(k + 1) * n] for k in range(2 * d)]
    size = domain.size
    for signs in itertools.product((1, -1), repeat=d):
        used = [2 * r + (s > 0) for r, s in enumerate(signs)]
        f = [None] * size
        for i, v in zip(valued, values):
            f[i] = v
        for r, k in enumerate(used):
            h, stride = prefix[k], n ** r
            for i in valued:
                f[i] -= h[i // stride % n]
        low = _dominance_sweep(f, domain, operator.lt, signs, [cuts[k] for k in used])
        if any(low[i] < f[i] for i in valued):
            return False
    return True


def bdp_grid_matching_bound(fn: ErasedFunction, family) -> DistanceReport:
    """Matching lower bound on the grid distance to a bounded-derivative
    property; ``family`` is a ``BoundingFamily`` of the domain's n and d.

    ``_bdp_violation_free`` first tests for a violated pair in O(2^d·d·N)
    over the N grid points.  It accepts exactly, and only where that implies
    the float-tolerant verdict: every bound sum is an int or Fraction and
    the values are all finite floats or all ints and Fractions.  When it
    accepts, the matching is empty.
    Otherwise the greedy maximal matching runs over violated pairs in (i, j)
    order: each unmatched point i takes the first later unmatched point j it
    violates with.  Only pairs of two free points are checked, O(m^2) in the
    worst case.
    """
    check_bounds("bdp-grid", family, BoundingFamily, fn.domain)
    items = _grid_items(fn)
    m = len(items)
    matching = []
    if not _bdp_violation_free(fn.domain, fn.values, family.per_dim):
        free = [True] * m
        for i, (p, v) in enumerate(items):
            if not free[i]:
                continue
            for j in range(i + 1, m):
                if free[j] and grid_pair_violates(family, p, v, *items[j]):
                    matching.append((i, j))
                    free[i] = free[j] = False
                    break
    cert = ("matching",) + tuple((items[a][0], items[b][0]) for a, b in matching)
    return DistanceReport("bdp-grid", len(matching),
                          Fraction(len(matching), m), cert,
                          is_lower_bound=True, matching_bound=len(matching))


# ---------------------------------------------------------------------------
# runs of a Boolean function

def count_alternations(bits) -> int:
    bits = list(bits)
    return sum(1 for a, b in zip(bits, bits[1:]) if a != b)


def distance_to_k_runs(fn: ErasedFunction, k: int) -> DistanceReport:
    """Min changes so the nonerased values form at most k runs, i.e. at most
    k-1 alternations.

    DP over (runs used r, last bit c), rolled over the points in two flat
    lists, one per last bit: ``new[r][c] = min(cost[r-1][1-c], cost[r][c])
    + (c != v)``.  On a tie the switch from (r-1, 1-c) wins.  After i + 1
    points only r <= i + 1 is reachable, and unreachable states are never
    read.  One int per point records the switches, bit 2r+c for "entered
    (r, c) from (r-1, 1-c)", for the backtrace.  The report is the least
    (cost, r, c) at the end.  O(m·k) time; O(m) memory, one int of 2k + 2
    bits per point.

    A member exits first: when the nonerased bits alternate at most k - 1
    times, by ``!=``, every point is kept, which is the report the DP gives
    then.  The count stops at the k-th alternation, so the check costs
    O(m) on a member and O(k) on an input that alternates throughout.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if fn.kind != "bit":
        raise ValueError("runs are defined for bit-valued functions")
    pairs = line_pairs(fn)
    m = len(pairs)
    NEG = m + 1
    # cost0[r], cost1[r]: least changes with r runs so far, last bit 0 or 1
    cost0, cost1 = [NEG] * (k + 1), [NEG] * (k + 1)
    first = pairs[0][1]
    alternations = (1 for (_, a), (_, b) in itertools.pairwise(pairs) if a != b)
    if next(itertools.islice(alternations, k - 1, None), None) is None:
        return _kept_report("k-runs", pairs, range(m))
    cost0[1], cost1[1] = first, 1 - first
    switched = [0] * m
    # (r, bit 2r, bit 2r+1), r downward, so cost*[r - 1] still holds the
    # previous point's cost when r is updated in place
    steps = [(r, 1 << 2 * r, 2 << 2 * r) for r in range(k, 0, -1)]
    for i in range(1, m):
        v = pairs[i][1]
        u = 1 - v
        mask = 0
        for r, bit0, bit1 in (steps if i >= k else steps[k - i - 1:]):
            s0 = cost1[r - 1]
            t0 = cost0[r]
            s1 = cost0[r - 1]
            t1 = cost1[r]
            if s0 <= t0:
                cost0[r] = s0 + v
                mask |= bit0
            else:
                cost0[r] = t0 + v
            if s1 <= t1:
                cost1[r] = s1 + u
                mask |= bit1
            else:
                cost1[r] = t1 + u
        switched[i] = mask
    costs = (cost0, cost1)
    ends = [(costs[b][r], r, b) for r in range(1, k + 1) for b in (0, 1) if costs[b][r] <= m]
    absolute, r, b = min(ends)
    labels = [None] * m
    for i in range(m - 1, 0, -1):
        labels[i] = b
        if switched[i] >> (2 * r + b) & 1:
            r, b = r - 1, 1 - b
    labels[0] = b
    report = _kept_report("k-runs", pairs, [i for i in range(m) if labels[i] == pairs[i][1]])
    assert count_alternations(labels) <= k - 1
    assert report.absolute == absolute
    return report


# ---------------------------------------------------------------------------
# low-degree polynomials over a prime field

def is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def poly_eval(coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def interpolate(points, p: int) -> list:
    """Lagrange interpolation through distinct (x, y) pairs over GF(p);
    returns coefficients, low order first, length len(points)."""
    coeffs = [0] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [1]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            new = [0] * (len(basis) + 1)
            for t, c in enumerate(basis):
                new[t] = (new[t] - c * xj) % p
                new[t + 1] = (new[t + 1] + c) % p
            basis = new
            denom = (denom * (xi - xj)) % p
        scale = (yi * pow(denom, p - 2, p)) % p
        for t, c in enumerate(basis):
            coeffs[t] = (coeffs[t] + c * scale) % p
    return coeffs


def check_field_line(fn: ErasedFunction) -> None:
    """Position i names field element i-1, so no two positions may share one."""
    if fn.domain.size > fn.modulus:
        raise ConfigError(f"low-degree needs a line of at most p={fn.modulus} points, "
                          f"got n={fn.domain.size}")


def distance_to_low_degree(fn: ErasedFunction, degree: int) -> DistanceReport:
    """p minus the best agreement over every coefficient vector (erased points
    reduce both sides: distance and |N| count only nonerased points).

    O(p^d * m): for each tail (c1..cd) the best constant term c0 is the most
    common residual y - (c1 x + ... + cd x^d) mod p.  The residuals are built
    one list pass per nonzero coefficient over precomputed columns of x^k,
    then counted by residue.  The least key (-agreement, c0, tail) wins, the
    tails in ``itertools.product`` order: ties go to the smallest
    (c0, c1, ..., cd).

    A member exits first, once 0 <= degree < m: the polynomial through the
    first degree + 1 nonerased points is checked at every point by ``==``,
    the DP's kept rule, and if it agrees everywhere every point is kept,
    which is the report the DP gives then.  O(degree^3 + degree·m), linear
    in m, stopping at the first disagreement, and ahead of the size gate:
    a member is reported at any p, and m <= p, so it meets no refusal.
    """
    if fn.kind != "field":
        raise ValueError("low-degree distance needs a field-valued function")
    check_field_line(fn)
    p = fn.modulus
    if not is_prime(p):
        raise InvalidField(f"{p} is not prime")
    pairs = line_pairs(fn)
    m = len(pairs)
    if 0 <= degree < m:
        coeffs = interpolate([(x - 1, y) for x, y in pairs[:degree + 1]], p)
        if all(poly_eval(coeffs, x - 1, p) == y for x, y in pairs):
            return _kept_report("low-degree", pairs, range(m))
    if p > FIELD_EXHAUSTIVE_GATE or p ** (degree + 1) > _ENUM_CAP:
        raise SizeLimit("beyond the exhaustive coefficient regime")
    if degree + 1 > p:
        raise ValueError("degree too high for the field size")
    ys = [y for _, y in pairs]
    # columns[k - 1][t]: x_t^k for the t-th nonerased point, at position x_t + 1
    columns = [[pow(x - 1, k, p) for x, _ in pairs] for k in range(1, degree + 1)]

    def best_constant(tail):
        residuals = ys
        for c, column in zip(tail, columns):
            if c:
                residuals = [r - c * xk for r, xk in zip(residuals, column)]
        counts = [0] * p
        for r in residuals:
            counts[r % p] += 1
        agree = max(counts)
        return -agree, counts.index(agree), tail

    _, c0, tail = min(map(best_constant, itertools.product(range(p), repeat=degree)))
    coeffs = (c0,) + tail
    return _kept_report("low-degree", pairs, [t for t, (x, y) in enumerate(pairs)
                                              if poly_eval(coeffs, x - 1, p) == y])


# ---------------------------------------------------------------------------
# restorability and report verification

# each property tag: the parameter it cannot do without (None: no parameter),
# the type its bounds take (None: it takes none), and its distance oracle,
# which the lambda looks up by name when called, so a patched oracle is seen
_PROPERTIES = {
    "monotone-line": (None, None, lambda fn, prop: distance_to_monotone_line(fn)),
    "bdp-line": ("bounds", LineBoundingPair,
                 lambda fn, prop: distance_to_bdp_line(fn, prop.bounds)),
    "convex-line": (None, None, lambda fn, prop: distance_to_convex_line(fn)),
    "monotone-grid": (None, None, lambda fn, prop: distance_to_monotone_grid_exact(fn)),
    "bdp-grid": ("bounds", BoundingFamily,
                 lambda fn, prop: bdp_grid_matching_bound(fn, prop.bounds)),
    "k-runs": ("k", None, lambda fn, prop: distance_to_k_runs(fn, prop.k)),
    "low-degree": ("degree", None, lambda fn, prop: distance_to_low_degree(fn, prop.degree)),
}


@dataclass(frozen=True)
class PropertySpec:
    """Descriptor naming a property and its parameters.  An unknown tag, a
    property without the parameter it needs, or bounds of the wrong type for
    it, is refused here; a parameter the property does not use is allowed
    and ignored."""

    tag: str
    bounds: Optional[LineBoundingPair | BoundingFamily] = None
    k: Optional[int] = None
    degree: Optional[int] = None

    def __post_init__(self):
        if self.tag not in _PROPERTIES:
            raise ValueError(f"unknown property {self.tag!r}; known: {sorted(_PROPERTIES)}")
        name, want, _ = _PROPERTIES[self.tag]
        if name is not None and getattr(self, name) is None:
            raise ValueError(f"{self.tag} needs {name}")
        if want is not None:
            check_bounds(self.tag, self.bounds, want)


def _check_fit(domain: Domain, prop: PropertySpec) -> None:
    """Refuse a line property on a grid, as ``validate_config`` words it, and
    bounds that do not fit ``domain``: the generators' check before a draw."""
    if not domain.is_line and prop.tag not in ("monotone-grid", "bdp-grid"):
        raise ConfigError(f"{prop.tag} runs on line domains, got d={domain.d}")
    want = _PROPERTIES[prop.tag][1]
    if want is not None:
        check_bounds(prop.tag, prop.bounds, want, domain)


def compute_distance(fn: ErasedFunction, prop: PropertySpec) -> DistanceReport:
    """The one distance dispatch, after ``_check_fit``: the exact oracle for
    each property, and the matching lower bound for bounded-derivative grids."""
    _check_fit(fn.domain, prop)
    return _PROPERTIES[prop.tag][2](fn, prop)


def is_restorable(fn: ErasedFunction, prop: PropertySpec) -> bool:
    """Extendable properties reduce restorability to the restriction:
    distance of f on its nonerased points is zero.  On convex-line, k-runs
    and low-degree a member costs the oracle's linear exit, not its DP."""
    return compute_distance(fn, prop).absolute == 0


# -- canonical completions, one per property ---------------------------------

def complete_bdp_line(values, kept_idx, bounds: LineBoundingPair) -> list:
    """The line's cells with every nonerased cell outside ``kept_idx`` filled
    so each consecutive nonerased pair fits its directed segment sums; kept
    and erased cells are left as they are.  Greedy left-to-right inside the
    corridor spanned by the previous cell and the next kept cell: its finite
    lower end, else its finite upper end, else 0.  Values are finite, so an
    infinite end comes from an infinite bound alone and is that segment sum
    as it is; a finite end is a value plus a segment sum by ``difference``'s
    rule, in Fractions where a float meets a number past float range."""

    def end(v, seg):
        return seg if seg == INF or seg == -INF else difference(v, -seg)

    kept_set = set(kept_idx)
    cells = list(values)
    prev = None
    next_kept_iter = iter(sorted(kept_idx))
    next_kept = next(next_kept_iter, None)
    for i, v in enumerate(values):
        if v is ERASED:
            continue
        if next_kept is not None and i > next_kept:
            next_kept = next(next_kept_iter, None)
        if i not in kept_set:
            lowers, uppers = [], []
            if prev is not None:
                lowers.append(end(cells[prev], bounds.seg_lower(prev + 1, i + 1)))
                uppers.append(end(cells[prev], bounds.seg_upper(prev + 1, i + 1)))
            if next_kept is not None:
                lowers.append(end(values[next_kept], -bounds.seg_upper(i + 1, next_kept + 1)))
                uppers.append(end(values[next_kept], -bounds.seg_lower(i + 1, next_kept + 1)))
            lo, hi = max(lowers, default=-INF), min(uppers, default=INF)
            cells[i] = lo if lo != -INF else hi if hi != INF else 0
        prev = i
    return cells


def complete_convex_line(values, kept_idx) -> list:
    """The line's cells, piecewise-linear through the kept cells and extended
    with the terminal slopes beyond them; a single kept cell spreads as a
    constant.  Kept and erased cells are left as they are."""
    kept = sorted(kept_idx)
    kept_set = set(kept)
    slopes = [_slope((a, values[a]), (b, values[b])) for a, b in zip(kept, kept[1:])] or [0]
    first, last = kept[0], kept[-1]
    cells = list(values)
    for i, v in enumerate(values):
        if v is ERASED or i in kept_set:
            continue
        if i < first:
            cells[i] = values[first] + slopes[0] * (i - first)
        elif i > last:
            cells[i] = values[last] + slopes[-1] * (i - last)
        else:
            k = bisect_right(kept, i) - 1
            cells[i] = values[kept[k]] + slopes[k] * (i - kept[k])
    return cells


def is_member_bdp_values(cells, bounds: LineBoundingPair) -> bool:
    """Pairwise check of a line's cells, O(m^2): the fallback where the
    exact sweep in ``_bdp_violation_free`` does not apply or finds a violation."""
    for (a, fa), (b, fb) in itertools.combinations(_valued(cells), 2):
        if pair_violates(bounds, a, fa, b, fb):
            return False
    return True


def is_member_convex_values(cells) -> bool:
    """Consecutive chords of a line's nonerased cells never fall, by ``_link_gt``."""
    items = _valued(cells)
    links = list(map(_link, items, items[1:]))
    return not any(map(_link_gt, links, links[1:]))


def complete_monotone_grid(fn: ErasedFunction, kept_idx) -> list:
    """Monotone extension over the nonerased points of a line or grid, by
    domain index (None at erased points): each point takes the max kept
    value below it, by ``>``, else the least kept value.  O(d·N)."""
    kept = [None] * fn.domain.size
    for i in kept_idx:
        kept[i] = fn.values[i]
    floor = min(kept[i] for i in kept_idx)
    below = _dominance_sweep(kept, fn.domain, operator.gt)
    return [None if v is ERASED else floor if b is None else b
            for v, b in zip(fn.values, below)]


def _point_indices(fn: ErasedFunction, points):
    """Domain indices of ``points``, or None unless they are distinct
    nonerased points of ``fn``'s domain.

    A point is looked up as a dict key: ``(1.0,)`` and ``(True,)`` name the
    line's first point, as ``(1,)`` does, and an unhashable point names
    none.  On a line where every point is a plain tuple of one int, the
    index is the coordinate minus 1 after a range check, with no dict over
    the nonerased points; any other points take the dict.
    """
    values = fn.values
    found = None
    if fn.domain.is_line:
        try:
            coords = [c for (c,) in points]
        except (TypeError, ValueError):  # a point that is not of length 1
            coords = None
        if (coords is not None and set(map(type, points)) <= {tuple}
                and set(map(type, coords)) <= {int, bool}):
            if coords and not (1 <= min(coords) and max(coords) <= len(values)):
                return None
            found = [c - 1 for c in coords]
            if ERASED in map(values.__getitem__, found):
                return None
    if found is None:
        valued = fn.nonerased_indices()
        if fn.domain.is_line:  # (i + 1,) is point_at(i), without its range check
            index = {(i + 1,): i for i in valued}
        else:
            index = {fn.domain.point_at(i): i for i in valued}
        try:
            found = list(map(index.__getitem__, points))
        except (KeyError, TypeError):  # not a nonerased point, or unhashable
            return None
    return found if len(set(found)) == len(found) else None


def verify_report(fn: ErasedFunction, prop: PropertySpec, report: DistanceReport) -> bool:
    """Independent re-check, one rule for every kept-set report: the
    certificate names at least one point, each a distinct nonerased point
    of ``fn``; the property's completion of the kept points is a member;
    and it changes exactly the nonerased points the certificate leaves out,
    which number ``absolute``.  Matching reports go to ``_verify_matching``.

    Membership is checked by sweeps: prefix max by plain ``>`` on monotone
    lines and grids alike, O(d·N); on bdp lines ``_bdp_violation_free``,
    O(n), then the tolerant pairwise O(m^2) ``is_member_bdp_values`` where
    it does not accept; consecutive slopes for convexity, O(m log m).  No
    check calls an oracle.  Misfits are refused as ``compute_distance`` does.
    """
    _check_fit(fn.domain, prop)
    cert = report.certificate
    if not isinstance(cert, tuple) or cert[:1] != (
            ("matching",) if report.is_lower_bound else ("kept",)):
        return False
    if report.is_lower_bound:
        return _verify_matching(fn, prop, report)
    kept_idx = _point_indices(fn, cert[1:])
    filled = kept_idx and _member_completion(fn, prop, kept_idx)
    if not filled:  # no point named, or the completion is no member
        return False
    kept = set(kept_idx)
    left_out = [i for i, v in enumerate(fn.values) if v is not ERASED and i not in kept]
    changed = [i for i, v in enumerate(fn.values) if v is not ERASED and filled[i] != v]
    return changed == left_out and len(left_out) == report.absolute


def _member_completion(fn: ErasedFunction, prop: PropertySpec, kept_idx):
    """``prop``'s completion that keeps the points at ``kept_idx``, by domain
    index (erased entries are never read), or None if it is not a member
    or ``prop`` has no kept-set completion (bdp-grid reports are matchings)."""
    values = fn.values
    if prop.tag == "bdp-grid":
        return None
    if prop.tag in ("monotone-line", "monotone-grid"):
        filled = complete_monotone_grid(fn, kept_idx)
        return filled if _is_monotone(filled, fn.domain) else None
    if prop.tag == "k-runs":
        # each point copies the last kept bit at or before it, else the first
        order = sorted(kept_idx)
        if count_alternations(values[i] for i in order) > prop.k - 1:
            return None
        kept, bit = set(kept_idx), values[order[0]]
        return [bit := (v if i in kept else bit) for i, v in enumerate(values)]
    if prop.tag == "low-degree":
        check_field_line(fn)
        coeffs = interpolate([(i, values[i]) for i in kept_idx[:prop.degree + 1]], fn.modulus)
        return [poly_eval(coeffs, x, fn.modulus) for x in range(len(values))]
    if prop.tag == "convex-line":
        cells = complete_convex_line(values, kept_idx)
        return cells if is_member_convex_values(cells) else None
    cells = complete_bdp_line(values, kept_idx, prop.bounds)  # bdp-line
    member = (_bdp_violation_free(fn.domain, cells, (prop.bounds,))
              or is_member_bdp_values(cells, prop.bounds))
    return cells if member else None


def _verify_matching(fn: ErasedFunction, prop: PropertySpec, report: DistanceReport) -> bool:
    """The pairs are disjoint, each pair is violated on ``fn``'s nonerased
    values, and there are exactly ``absolute`` of them."""
    if prop.tag == "monotone-grid":
        def violated(a, fa, b, fb):
            return grid_descends(a, fa, b, fb) or grid_descends(b, fb, a, fa)
    elif prop.tag == "bdp-grid":
        violated = functools.partial(grid_pair_violates, prop.bounds)
    else:
        return False
    pairs = report.certificate[1:]
    if not all(isinstance(pair, tuple) and len(pair) == 2 for pair in pairs):
        return False
    found = _point_indices(fn, [p for pair in pairs for p in pair])
    if found is None:
        return False
    for i, j in zip(found[::2], found[1::2]):
        a, b = fn.domain.point_at(i), fn.domain.point_at(j)
        if not violated(a, fn.values[i], b, fn.values[j]):
            return False
    return len(pairs) == report.absolute

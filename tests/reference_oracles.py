"""Straightforward reference versions of the fast exact oracles.

These are the original direct implementations: simple enough to check by
eye, slow enough that the library no longer uses them.  The cross-check tests
in ``test_oracle_reference.py`` require the library oracles to return the
same ``DistanceReport`` (distance and certificate) on every generated input.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from ertest.core import ERASED, InvalidField, SizeLimit
from ertest.line import LineBoundingPair, pair_violates
from ertest.oracles import (
    _ENUM_CAP,
    FIELD_EXHAUSTIVE_GATE,
    DistanceReport,
    _grid_items,
    _kept_cert,
    _slope,
    greedy_maximal_matching,
    is_prime,
    line_pairs,
    poly_eval,
)


def distance_to_bdp_line(fn, bounds: LineBoundingPair) -> DistanceReport:
    """O(m^2) longest-chain DP over every earlier point."""
    pairs = line_pairs(fn)
    if bounds.n != fn.domain.n:
        raise ValueError("bounds length does not match the domain")
    m = len(pairs)
    best_len = [1] * m
    parent = [None] * m
    for i in range(m):
        pi, vi = pairs[i]
        for j in range(i):
            pj, vj = pairs[j]
            if best_len[j] + 1 > best_len[i] and not pair_violates(bounds, pj, vj, pi, vi):
                best_len[i] = best_len[j] + 1
                parent[i] = j
    if m == 0:
        raise ValueError("no nonerased points")
    end = max(range(m), key=lambda i: best_len[i])
    keep = []
    cur = end
    while cur is not None:
        keep.append(cur)
        cur = parent[cur]
    keep.reverse()
    absolute = m - len(keep)
    kept_pos = [pairs[i][0] for i in keep]
    return DistanceReport("bdp-line", absolute, Fraction(absolute, m), _kept_cert(kept_pos))


def distance_to_convex_line(fn) -> DistanceReport:
    """O(m^3) DP over (previous kept point, current kept point)."""
    pairs = line_pairs(fn)
    m = len(pairs)
    best = {}
    parent = {}
    for i in range(m):
        for j in range(i):
            s_ji = _slope(pairs[j], pairs[i])
            length, par = 2, None
            for h in range(j):
                cand = best[(h, j)]
                if cand + 1 > length and _slope(pairs[h], pairs[j]) <= s_ji:
                    length, par = cand + 1, h
            best[(j, i)] = length
            parent[(j, i)] = par
    if best:
        (bj, bi) = max(best, key=lambda k: best[k])
        keep = [bi, bj]
        while parent[(bj, bi)] is not None:
            h = parent[(bj, bi)]
            keep.append(h)
            bj, bi = h, bj
        keep.reverse()
    else:
        keep = [0] if m else []
    absolute = m - len(keep)
    kept_pos = [pairs[i][0] for i in keep]
    return DistanceReport("convex-line", absolute, Fraction(absolute, m), _kept_cert(kept_pos))


def violated_order_edges(items, le):
    """Every ordered pair, partial order tested first."""
    edges = []
    for i, (p, v) in enumerate(items):
        for j, (q, w) in enumerate(items):
            if i != j and le(p, q) and p != q and v > w:
                edges.append((i, j))
    return edges


def max_bipartite_matching(m: int, edges) -> dict:
    """Recursive Kuhn search; overflows the stack on long augmenting paths."""
    adj = [[] for _ in range(m)]
    for a, b in edges:
        adj[a].append(b)
    match_right = {}

    def try_augment(a, seen):
        for b in adj[a]:
            if b in seen:
                continue
            seen.add(b)
            if b not in match_right or try_augment(match_right[b], seen):
                match_right[b] = a
                return True
        return False

    for a in range(m):
        try_augment(a, set())
    return {a: b for b, a in match_right.items()}


def bdp_grid_matching_bound(fn, family) -> DistanceReport:
    """Every violated pair first, then a greedy matching over them."""
    items = _grid_items(fn)
    edges = []
    for i, (p, v) in enumerate(items):
        for j in range(i + 1, len(items)):
            q, w = items[j]
            if family.pair_violates(p, v, q, w):
                edges.append((i, j))
    matching = greedy_maximal_matching(len(items), edges)
    cert = ("matching",) + tuple((items[a][0], items[b][0]) for a, b in matching)
    return DistanceReport("bdp-grid", len(matching),
                          Fraction(len(matching), len(items)), cert,
                          is_lower_bound=True, matching_bound=len(matching))


def distance_to_low_degree(fn, degree: int) -> DistanceReport:
    """Agreement of every coefficient vector, p^(d+1) * m evaluations."""
    if fn.kind != "field":
        raise ValueError("low-degree distance needs a field-valued function")
    p = fn.modulus
    if not is_prime(p):
        raise InvalidField(f"{p} is not prime")
    if p > FIELD_EXHAUSTIVE_GATE or p ** (degree + 1) > _ENUM_CAP:
        raise SizeLimit("beyond the exhaustive coefficient regime")
    if degree + 1 > p:
        raise ValueError("degree too high for the field size")
    pts = [(i, v) for i, v in enumerate(fn.values) if v is not ERASED]
    best_agree, best_coeffs = -1, None
    for coeffs in itertools.product(range(p), repeat=degree + 1):
        agree = sum(1 for x, y in pts if poly_eval(coeffs, x, p) == y)
        if agree > best_agree:
            best_agree, best_coeffs = agree, coeffs
    m = len(pts)
    absolute = m - best_agree
    kept = [(x + 1,) for x, y in pts if poly_eval(best_coeffs, x, p) == y]
    return DistanceReport("low-degree", absolute, Fraction(absolute, m),
                          ("kept",) + tuple(kept))

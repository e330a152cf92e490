"""Straightforward reference versions of the fast exact oracles.

These are the original direct implementations: simple enough to check by
eye, slow enough that the library no longer uses them.  The cross-check tests
in ``test_oracle_reference.py`` require the library oracles to return the
same ``DistanceReport`` (distance and certificate) on every generated input,
and ``verify_report`` to return the same verdict as the pairwise
``verify_report`` kept here, and ``_point_indices`` the same indices as
the dict lookup ``point_indices``.  The branch-and-bound grid oracle, the
greedy grid matching and the pairwise grid membership check serve only as
references for tests, and ``nonerased_points`` only as a test helper.  The
line completions and membership checks here take {position: value} dicts,
the library's former form, so the pairwise verifier shares none of the
library's completion code, and the library's cells form is compared with them.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from bisect import bisect_right

from ertest.core import ERASED, ErasedFunction, InvalidField, SizeLimit, grid_le, value_gt
from ertest.hypergrid import BoundingFamily, grid_pair_violates
from ertest.line import INF, LineBoundingPair, pair_violates
from ertest.oracles import (
    _ENUM_CAP,
    FIELD_EXHAUSTIVE_GATE,
    DistanceReport,
    PropertySpec,
    _grid_items,
    _min_changes_poset,
    _slope,
    count_alternations,
    interpolate,
    is_prime,
    line_pairs,
    poly_eval,
)

GRID_EXACT_GATE = 20


def nonerased_points(fn: ErasedFunction) -> list:
    """The function's nonerased points, in canonical index order."""
    return [fn.domain.point_at(i) for i in fn.nonerased_indices()]


def _kept_cert(positions) -> tuple:
    return ("kept",) + tuple((p,) if isinstance(p, int) else p for p in positions)


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
            if grid_pair_violates(family, p, v, q, w):
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


def distance_to_k_runs(fn: ErasedFunction, k: int) -> DistanceReport:
    """Min changes so the nonerased values form at most k runs, i.e. at most
    k-1 alternations.  DP over (points assigned, runs used, last bit), with
    a fresh cost table and a table of (r, b) back-pointers per point."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if fn.kind != "bit":
        raise ValueError("runs are defined for bit-valued functions")
    pairs = line_pairs(fn)
    m = len(pairs)
    NEG = m + 1
    # cost[r][b], runs r in 1..k capped, last bit b
    cost = [[NEG] * 2 for _ in range(k + 1)]
    back = []
    first = pairs[0][1]
    for b in (0, 1):
        cost[1][b] = 0 if b == first else 1
    back.append(None)
    for i in range(1, m):
        v = pairs[i][1]
        nxt = [[NEG] * 2 for _ in range(k + 1)]
        choice = [[None] * 2 for _ in range(k + 1)]
        for r in range(1, k + 1):
            for b in (0, 1):
                if cost[r][b] > m:
                    continue
                for c in (0, 1):
                    r2 = r + (1 if c != b else 0)
                    if r2 > k:
                        continue
                    w = cost[r][b] + (0 if c == v else 1)
                    if w < nxt[r2][c]:
                        nxt[r2][c] = w
                        choice[r2][c] = (r, b)
        cost = nxt
        back.append(choice)
    ends = [(cost[r][b], r, b) for r in range(1, k + 1) for b in (0, 1) if cost[r][b] <= m]
    absolute, r, b = min(ends)
    labels = [None] * m
    for i in range(m - 1, 0, -1):
        labels[i] = b
        r, b = back[i][r][b]
    labels[0] = b
    kept_pos = [pairs[i][0] for i in range(m) if labels[i] == pairs[i][1]]
    report = DistanceReport("k-runs", absolute, Fraction(absolute, m), _kept_cert(kept_pos))
    assert count_alternations(labels) <= k - 1
    assert m - len(kept_pos) == absolute
    return report


# ---------------------------------------------------------------------------
# grid monotonicity references

def greedy_maximal_matching(num_nodes: int, edges) -> list:
    """Deterministic greedy maximal matching over an undirected edge list."""
    used = set()
    picked = []
    for a, b in edges:
        if a not in used and b not in used:
            picked.append((a, b))
            used.add(a)
            used.add(b)
    return picked


def _min_vertex_cover_bnb(num_nodes: int, edges) -> list:
    """Exact minimum vertex cover by branching on an uncovered edge, with a
    greedy-matching lower bound for pruning."""
    best = {"size": num_nodes, "cover": frozenset(range(num_nodes))}

    def matching_lb(cover):
        used = set()
        count = 0
        for a, b in edges:
            if a in cover or b in cover or a in used or b in used:
                continue
            used.add(a)
            used.add(b)
            count += 1
        return count

    def rec(cover, size):
        if size + matching_lb(cover) >= best["size"]:
            return
        for a, b in edges:
            if a not in cover and b not in cover:
                rec(cover | {a}, size + 1)
                rec(cover | {b}, size + 1)
                return
        best["size"] = size
        best["cover"] = frozenset(cover)

    rec(set(), 0)
    return sorted(best["cover"])


def distance_to_monotone_grid_small(fn: ErasedFunction) -> DistanceReport:
    items = _grid_items(fn)
    m = len(items)
    if m > GRID_EXACT_GATE:
        raise SizeLimit(f"{m} nonerased points exceeds the exact gate {GRID_EXACT_GATE}")
    edges = violated_order_edges(items, grid_le)
    undirected = sorted(set((min(a, b), max(a, b)) for a, b in edges))
    matching = greedy_maximal_matching(m, undirected)
    cover = _min_vertex_cover_bnb(m, undirected)
    absolute = len(cover)
    assert len(matching) <= absolute <= 2 * len(matching) if matching else absolute == 0
    kept = [i for i in range(m) if i not in set(cover)]
    kept_pts = [items[i][0] for i in kept]
    return DistanceReport("monotone-grid", absolute, Fraction(absolute, m),
                          _kept_cert(kept_pts), matching_bound=len(matching))


def monotone_grid_matching_bound(fn: ErasedFunction) -> DistanceReport:
    """Certified lower bound for grids of any size: each matched violated
    pair forces at least one change."""
    items = _grid_items(fn)
    edges = violated_order_edges(items, grid_le)
    undirected = sorted(set((min(a, b), max(a, b)) for a, b in edges))
    matching = greedy_maximal_matching(len(items), undirected)
    cert = ("matching",) + tuple((items[a][0], items[b][0]) for a, b in matching)
    return DistanceReport("monotone-grid", len(matching),
                          Fraction(len(matching), len(items)), cert,
                          is_lower_bound=True, matching_bound=len(matching))


def is_member_bdp(values: dict, family: BoundingFamily) -> bool:
    """Pairwise membership check for a total function on any sub-domain,
    given as {point: value}."""
    items = list(values.items())
    for (x, fx), (y, fy) in itertools.combinations(items, 2):
        if grid_pair_violates(family, x, fx, y, fy):
            return False
    return True


def distance_to_monotone_grid_exact(fn: ErasedFunction) -> DistanceReport:
    """Exact grid distance via the matching route alone, with no sweep."""
    items = _grid_items(fn)
    absolute, keep = _min_changes_poset(len(items), violated_order_edges(items, grid_le))
    kept_pts = [items[i][0] for i in keep]
    return DistanceReport("monotone-grid", absolute,
                          Fraction(absolute, len(items)), _kept_cert(kept_pts))


# ---------------------------------------------------------------------------
# the pairwise verifier

def complete_convex_line(pairs, kept_pos) -> dict:
    """Piecewise-linear through the kept points, extended with the terminal
    slopes beyond them; a single kept point spreads as a constant."""
    vals = dict(pairs)
    kept = sorted(kept_pos)
    out = {}
    for pos, _ in pairs:
        if pos in vals and pos in set(kept):
            out[pos] = vals[pos]
    if len(kept) == 1:
        for pos, _ in pairs:
            out[pos] = vals[kept[0]]
        return out
    slopes = [_slope((kept[i], vals[kept[i]]), (kept[i + 1], vals[kept[i + 1]]))
              for i in range(len(kept) - 1)]
    for pos, _ in pairs:
        if pos in out:
            continue
        if pos < kept[0]:
            out[pos] = vals[kept[0]] + slopes[0] * (pos - kept[0])
        elif pos > kept[-1]:
            out[pos] = vals[kept[-1]] + slopes[-1] * (pos - kept[-1])
        else:
            i = bisect_right(kept, pos) - 1
            a = kept[i]
            out[pos] = vals[a] + slopes[i] * (pos - a)
    return out


def complete_bdp_line(pairs, kept_pos, bounds: LineBoundingPair) -> dict:
    """Assign values to the dropped points so every consecutive nonerased pair
    fits its directed segment sums; keeps the kept points untouched.  Greedy
    left-to-right inside the corridor spanned by the previous point and the
    next kept point: its finite lower end, else its finite upper end, else 0."""
    kept = set(kept_pos)
    kept_list = [p for p, _ in pairs if p in kept]
    vals = dict(pairs)
    out = {}
    prev = None
    next_kept_iter = iter(kept_list)
    next_kept = next(next_kept_iter, None)
    for pos, _ in pairs:
        if next_kept is not None and pos > next_kept:
            next_kept = next(next_kept_iter, None)
        if pos in kept:
            out[pos] = vals[pos]
            prev = pos
            continue
        lowers, uppers = [], []
        if prev is not None:
            lowers.append(out[prev] + bounds.seg_lower(prev, pos))
            uppers.append(out[prev] + bounds.seg_upper(prev, pos))
        if next_kept is not None:
            lowers.append(vals[next_kept] - bounds.seg_upper(pos, next_kept))
            uppers.append(vals[next_kept] - bounds.seg_lower(pos, next_kept))
        lo = max(lowers) if lowers else -INF
        hi = min(uppers) if uppers else INF
        if lo not in (INF, -INF):
            out[pos] = lo
        elif hi not in (INF, -INF):
            out[pos] = hi
        else:
            out[pos] = 0
        prev = pos
    return out


def is_member_bdp_values(points_values, bounds: LineBoundingPair) -> bool:
    """Pairwise check of a total function on line positions, {position: value}."""
    items = sorted(points_values.items())
    for (a, fa), (b, fb) in itertools.combinations(items, 2):
        if pair_violates(bounds, a, fa, b, fb):
            return False
    return True


def is_member_convex_values(points_values) -> bool:
    """Consecutive slopes of {position: value} never fall, by ``value_gt``."""
    items = sorted(points_values.items())
    last = None
    for (a, fa), (b, fb) in zip(items, items[1:]):
        s = _slope((a, fa), (b, fb))
        if last is not None and value_gt(last, s):
            return False
        last = s
    return True


def complete_monotone_grid(items, kept_idx) -> dict:
    """Monotone extension: each point takes the max kept value below it,
    defaulting to the overall minimum kept value."""
    kept = [items[i] for i in kept_idx]
    floor = min(v for _, v in kept)
    out = {}
    for p, _ in items:
        below = [v for q, v in kept if grid_le(q, p)]
        out[p] = max(below) if below else floor
    return out


def point_indices(fn: ErasedFunction, points):
    """Domain indices of ``points``, or None unless they are distinct
    nonerased points of ``fn``'s domain: a dict over every nonerased point."""
    valued = [i for i, v in enumerate(fn.values) if v is not ERASED]
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
    """Independent re-check: the completion that keeps exactly the certified
    kept-set is a member, and it changes exactly ``absolute`` points.
    Every membership check is pairwise: by plain ``>`` on monotone lines and
    grids, through ``value_gt`` on the other properties."""
    if report.is_lower_bound:
        return _verify_matching(fn, prop, report)
    kept_pts = report.certificate[1:]
    if prop.tag in ("monotone-line", "bdp-line", "convex-line", "k-runs", "low-degree"):
        pairs = line_pairs(fn)
        kept_pos = [p[0] for p in kept_pts]
        if prop.tag == "convex-line":
            filled = complete_convex_line(pairs, kept_pos)
            ok = is_member_convex_values(filled)
        elif prop.tag == "k-runs":
            # a completion exists iff the kept bits already fit inside k runs
            ok = _k_runs_completion_exists(pairs, set(kept_pos), prop.k)
            changed = len(pairs) - len(kept_pos)
            return ok and changed == report.absolute
        elif prop.tag == "low-degree":
            return _verify_low_degree(fn, prop, kept_pos, report)
        elif prop.tag == "bdp-line":
            filled = complete_bdp_line(pairs, kept_pos, prop.bounds)
            ok = is_member_bdp_values(filled, prop.bounds)
        else:  # monotone-line: exact pairwise >, as on the grid
            filled = complete_bdp_line(pairs, kept_pos, LineBoundingPair.monotone(fn.domain.n))
            ok = not any(v > w for (_, v), (_, w) in itertools.combinations(sorted(filled.items()), 2))
        changed = sum(1 for pos, v in pairs if filled[pos] != v)
        return ok and changed == report.absolute == len(pairs) - len(kept_pos)
    if prop.tag == "monotone-grid":
        items = _grid_items(fn)
        index = {p: i for i, (p, _) in enumerate(items)}
        kept_idx = [index[p] for p in kept_pts]
        filled = complete_monotone_grid(items, kept_idx)
        for p, v in filled.items():
            for q, w in filled.items():
                if grid_le(p, q) and v > w:
                    return False
        changed = sum(1 for p, v in items if filled[p] != v)
        return changed == report.absolute == len(items) - len(kept_idx)
    raise ValueError(f"unknown property {prop.tag!r}")


def _k_runs_completion_exists(pairs, kept_pos, k) -> bool:
    # scan: the kept bits must themselves have at most k-1 alternations
    kept_bits = [v for p, v in pairs if p in kept_pos]
    return count_alternations(kept_bits) <= k - 1


def _verify_low_degree(fn, prop, kept_pos, report) -> bool:
    p = fn.modulus
    pts = [(i, v) for i, v in enumerate(fn.values) if v is not ERASED]
    kept = set(x - 1 for x in kept_pos)
    sample = [(x, y) for x, y in pts if x in kept][:prop.degree + 1]
    if not sample:
        return report.absolute == len(pts)
    coeffs = interpolate(sample, p)
    agree = all(poly_eval(coeffs, x, p) == y for x, y in pts if x in kept)
    changed = sum(1 for x, y in pts if poly_eval(coeffs, x, p) != y)
    return agree and changed == report.absolute


def _verify_matching(fn: ErasedFunction, prop: PropertySpec, report: DistanceReport) -> bool:
    """The pairs are disjoint, each pair is violated on ``fn``'s nonerased
    values, and there are exactly ``absolute`` of them."""
    if prop.tag == "monotone-grid":
        def violated(a, fa, b, fb):
            lo, hi, flo, fhi = (a, b, fa, fb) if grid_le(a, b) else (b, a, fb, fa)
            return grid_le(lo, hi) and flo > fhi
    elif prop.tag == "bdp-grid":
        def violated(a, fa, b, fb):
            return grid_pair_violates(prop.bounds, a, fa, b, fb)
    else:
        return False
    pairs = report.certificate[1:]
    seen = set()
    for a, b in pairs:
        if a in seen or b in seen:
            return False
        seen.add(a)
        seen.add(b)
        fa, fb = fn.value_at(a), fn.value_at(b)
        if fa is ERASED or fb is ERASED or not violated(a, fa, b, fb):
            return False
    return len(pairs) == report.absolute

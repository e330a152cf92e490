"""Acceptance gate: twelve criteria, one test and one printed verdict line each.

Statistical criteria run at fixed trial counts with their tolerances spelled
out inline; exact criteria use Fraction arithmetic with zero slack.  Heavy
trial batches are shared between criteria through memoized runners.
"""
import functools
import itertools
import math
import sys
from fractions import Fraction

from ertest.core import (
    ERASED,
    Domain,
    ErasedFunction,
    QueryOracle,
    erased_fraction,
    grid_le,
    restrict_to_line,
)
from ertest.line import LineBoundingPair, bdp_to_monotone_transforms, pair_violates
from ertest.line import test_monotone_line as run_monotone
from ertest.line import test_bdp_line as run_bdp_line
from ertest.line import test_convex_line as run_convex
from ertest.hypergrid import BoundingFamily
from ertest.hypergrid import test_monotone_hypergrid as run_grid_monotone
from ertest.hypergrid import test_bdp_hypergrid as run_grid_bdp
from ertest.transforms import (
    Poset,
    erasure_resilient_extendable,
    erasure_resilient_pot_run,
    low_degree_pot,
    poset_monotone_uniform_spec,
)
from ertest.transforms import test_k_runs as run_k_runs
from ertest.transforms import tester_from_distance_approx as run_adapter
from ertest import oracles as O
from ertest.oracles import PropertySpec
from ertest.adversary import (
    InstanceSpec,
    erase_random,
    generate_far_instance,
    generate_member_instance,
    hypercube_middle_layer,
    middle_layer_matching,
)
from ertest.harness import ExperimentConfig, emit_report, run_experiment
from ertest.rng import make_rng

from reference_oracles import distance_to_monotone_grid_small, is_member_bdp
from reference_testers import poset_le

MASTER = 739411

LINE64 = Domain.line(64)
GRID8x2 = Domain.grid(8, 2)
GF17 = Domain.line(17)
FAM = BoundingFamily.lipschitz(8, 2)
BDP64 = LineBoundingPair.lipschitz(64)
POT17 = low_degree_pot(17, 1)


def verdict_line(num, label):
    """Print one criterion line straight to the terminal, pass or fail."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} {label}: FAIL", file=sys.__stdout__)
                raise
            print(f"criterion {num:2d} {label}: PASS", file=sys.__stdout__)
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# shared test bed for criteria 1-3

def _star_forest():
    edges = []
    for s in range(16):
        center = 4 * s + 1
        edges += [(center, center + j) for j in (1, 2, 3)]
    return Poset(64, edges)


STAR = _star_forest()
STAR_SPEC = poset_monotone_uniform_spec(STAR)


def _poset_restorable(fn, poset):
    live = [(i + 1, v) for i, v in enumerate(fn.values) if v is not ERASED]
    for a, fa in live:
        for b, fb in live:
            if a != b and poset_le(poset, a, b) and fa > fb:
                return False
    return True


def _star_member(rng):
    values = [0 if (i - 1) % 4 == 0 else 1 for i in range(1, 65)]
    fn = erase_random(ErasedFunction(LINE64, values, kind="bit"),
                      Fraction(1, 8), rng)
    assert _poset_restorable(fn, STAR)
    return fn


def _star_far(rng):
    values = [1 if (i - 1) % 4 == 0 else 0 for i in range(1, 65)]
    fn = ErasedFunction(LINE64, values, kind="bit")
    # disjoint stars: the minimum change count is the sum of per-star minima
    total = 0
    pairs = [(1, 2), (1, 3), (1, 4)]
    for s in range(16):
        block = values[4 * s:4 * s + 4]
        total += min(sum(g != v for g, v in zip(assign, block))
                     for assign in itertools.product((0, 1), repeat=4)
                     if all(assign[a - 1] <= assign[b - 1] for a, b in pairs))
    assert Fraction(total, 64) == Fraction(1, 4)
    return fn


def _member(prop, domain, alpha, check):
    def build(rng):
        fn = generate_member_instance(prop, domain, alpha, rng)
        assert check(fn).absolute == 0
        return fn
    return build


def _far(prop, domain, target, alpha, check):
    def build(rng):
        fn, _ = generate_far_instance(prop, domain, target, alpha, rng)
        report = check(fn)
        assert report.relative >= target
        return fn
    return build


def _bdp_grid_member(rng):
    fn = generate_member_instance(PropertySpec("bdp-grid", bounds=FAM),
                                  GRID8x2, 0, rng)
    table = {GRID8x2.point_at(i): v for i, v in enumerate(fn.values)}
    assert is_member_bdp(table, FAM)
    return fn


def _cap(factor, d, log2n):
    def cap(eps, alpha):
        e, a = Fraction(eps), Fraction(alpha)
        return math.ceil(Fraction(factor * d) * log2n / (e * (1 - a)))
    return cap


F = Fraction
TESTBED = {
    "monotone-line": dict(
        member=_member(PropertySpec("monotone-line"), LINE64, F(1, 8),
                       O.distance_to_monotone_line),
        far=_far(PropertySpec("monotone-line"), LINE64, F(1, 4), F(1, 8),
                 O.distance_to_monotone_line),
        run=lambda fn, eps, alpha, rng: run_monotone(QueryOracle(fn), eps, alpha, rng),
        m_eps=F(1, 4), m_alpha=F(1, 8), f_eps=F(1, 4), f_alpha=F(1, 8),
        cap=_cap(60, 1, 6)),
    "monotone-grid": dict(
        member=_member(PropertySpec("monotone-grid"), GRID8x2, 0,
                       O.distance_to_monotone_grid_exact),
        far=_far(PropertySpec("monotone-grid"), GRID8x2, F(1, 4), 0,
                 O.distance_to_monotone_grid_exact),
        run=lambda fn, eps, alpha, rng: run_grid_monotone(QueryOracle(fn), eps, alpha, rng),
        m_eps=F(1, 2), m_alpha=0, f_eps=F(1, 4), f_alpha=0,
        cap=_cap(1200, 2, 3)),
    "bdp-grid": dict(
        member=_bdp_grid_member,
        far=_far(PropertySpec("bdp-grid", bounds=FAM), GRID8x2, F(1, 4), 0,
                 lambda fn: O.bdp_grid_matching_bound(fn, FAM)),
        run=lambda fn, eps, alpha, rng: run_grid_bdp(QueryOracle(fn), FAM, eps, alpha, rng),
        m_eps=F(1, 2), m_alpha=0, f_eps=F(1, 4), f_alpha=0,
        cap=_cap(4800, 2, 3)),
    "bdp-line": dict(
        member=_member(PropertySpec("bdp-line", bounds=BDP64), LINE64, F(1, 8),
                       lambda fn: O.distance_to_bdp_line(fn, BDP64)),
        far=_far(PropertySpec("bdp-line", bounds=BDP64), LINE64, F(1, 4), F(1, 8),
                 lambda fn: O.distance_to_bdp_line(fn, BDP64)),
        run=lambda fn, eps, alpha, rng: run_bdp_line(QueryOracle(fn), BDP64, eps, alpha, rng),
        m_eps=F(1, 4), m_alpha=F(1, 8), f_eps=F(1, 4), f_alpha=F(1, 8),
        cap=_cap(4800, 1, 6)),
    "convex-line": dict(
        member=_member(PropertySpec("convex-line"), LINE64, F(1, 8),
                       O.distance_to_convex_line),
        far=_far(PropertySpec("convex-line"), LINE64, F(1, 4), F(1, 8),
                 O.distance_to_convex_line),
        run=lambda fn, eps, alpha, rng: run_convex(QueryOracle(fn), eps, alpha, rng),
        m_eps=F(1, 4), m_alpha=F(1, 8), f_eps=F(1, 4), f_alpha=F(1, 8),
        cap=_cap(180, 1, 6)),
    "k-runs": dict(
        member=_member(PropertySpec("k-runs", k=2), LINE64, F(1, 8),
                       lambda fn: O.distance_to_k_runs(fn, 2)),
        far=_far(PropertySpec("k-runs", k=2), LINE64, F(1, 5), F(1, 8),
                 lambda fn: O.distance_to_k_runs(fn, 2)),
        run=lambda fn, eps, alpha, rng: run_k_runs(QueryOracle(fn), 2, eps, rng),
        m_eps=F(1, 4), m_alpha=F(1, 8), f_eps=F(1, 5), f_alpha=F(1, 8),
        cap=None),
    "low-degree-pot": dict(
        member=_member(PropertySpec("low-degree", degree=1), GF17, F(2, 17),
                       lambda fn: O.distance_to_low_degree(fn, 1)),
        far=_far(PropertySpec("low-degree", degree=1), GF17, F(1, 2), 0,
                 lambda fn: O.distance_to_low_degree(fn, 1)),
        run=lambda fn, eps, alpha, rng: erasure_resilient_pot_run(POT17, QueryOracle(fn), rng),
        m_eps=F(1, 2), m_alpha=F(2, 17), f_eps=F(1, 2), f_alpha=0,
        cap=None),
    "extendable-poset": dict(
        member=lambda rng: _star_member(rng),
        far=lambda rng: _star_far(rng),
        run=lambda fn, eps, alpha, rng: erasure_resilient_extendable(
            STAR_SPEC, alpha, eps, QueryOracle(fn), rng),
        m_eps=F(1, 4), m_alpha=F(1, 8), f_eps=F(1, 4), f_alpha=0,
        cap=None),
}


@functools.lru_cache(maxsize=None)
def one_sided_runs():
    """200 trials per tester on fresh certified-restorable instances."""
    out = {}
    for tag, ent in TESTBED.items():
        rejections = 0
        max_q = 0
        for i in range(200):
            fn = ent["member"](make_rng(MASTER, "c1", tag, "inst", i))
            verdict = ent["run"](fn, ent["m_eps"], ent["m_alpha"],
                                 make_rng(MASTER, "c1", tag, "run", i))
            rejections += verdict.is_reject
            max_q = max(max_q, verdict.queries_used)
        out[tag] = (rejections, max_q)
    return out


@functools.lru_cache(maxsize=None)
def soundness_runs():
    """500 trials per tester on one certified-far instance."""
    out = {}
    for tag, ent in TESTBED.items():
        fn = ent["far"](make_rng(MASTER, "c2", tag, "inst"))
        rejections = 0
        max_q = 0
        for i in range(500):
            verdict = ent["run"](fn, ent["f_eps"], ent["f_alpha"],
                                 make_rng(MASTER, "c2", tag, "run", i))
            rejections += verdict.is_reject
            max_q = max(max_q, verdict.queries_used)
        out[tag] = (rejections, max_q)
    return out


@verdict_line(1, "one-sidedness, 200 trials x 8 testers, zero rejections")
def test_criterion_01_one_sidedness():
    for tag, (rejections, _) in one_sided_runs().items():
        assert rejections == 0, f"{tag}: {rejections} rejections of a member"


@verdict_line(2, "soundness, 500 trials per tester, reject rate >= 0.6")
def test_criterion_02_soundness():
    for tag, (rejections, _) in soundness_runs().items():
        assert rejections >= 300, f"{tag}: only {rejections}/500 rejections"


@verdict_line(3, "query budgets, observed maxima under the ceilings")
def test_criterion_03_query_budgets():
    one, two = one_sided_runs(), soundness_runs()
    for tag, ent in TESTBED.items():
        if ent["cap"] is None:
            continue
        assert one[tag][1] <= ent["cap"](ent["m_eps"], ent["m_alpha"]), tag
        assert two[tag][1] <= ent["cap"](ent["f_eps"], ent["f_alpha"]), tag
        assert one[tag][1] >= 1 and two[tag][1] >= 1


# ---------------------------------------------------------------------------
# criterion 4: distance oracles against exhaustive kept-set search

def _best_kept_exhaustive(live, consistent):
    m = len(live)
    for size in range(m, 0, -1):
        for combo in itertools.combinations(live, size):
            if consistent(combo):
                return m - size
    return m


def _mono_ok(combo):
    return all(a[1] <= b[1] for a, b in zip(combo, combo[1:]))


def _convex_ok(combo):
    slopes = [Fraction(b[1] - a[1], b[0] - a[0])
              for a, b in zip(combo, combo[1:])]
    return all(s <= t for s, t in zip(slopes, slopes[1:]))


def _bdp_ok_fn(lows, ups):
    pre_l = [0]
    pre_u = [0]
    for l, u in zip(lows, ups):
        pre_l.append(pre_l[-1] + l)
        pre_u.append(pre_u[-1] + u)

    def ok(combo):
        for (a, fa), (b, fb) in zip(combo, combo[1:]):
            gap = fb - fa
            if gap < pre_l[b - 1] - pre_l[a - 1] or gap > pre_u[b - 1] - pre_u[a - 1]:
                return False
        return True
    return ok


def _runs_ok_fn(k):
    def ok(combo):
        runs = 1
        for a, b in zip(combo, combo[1:]):
            runs += a[1] != b[1]
        return runs <= k
    return ok


def _erase_some(values, rng, keep_at_least=2):
    while True:
        vals = [ERASED if rng.random() < 0.2 else v for v in values]
        if sum(v is not ERASED for v in vals) >= keep_at_least:
            return vals


def _live(fn):
    return [(i + 1, v) for i, v in enumerate(fn.values) if v is not ERASED]


@verdict_line(4, "distance oracles == exhaustive kept-set search, 1000 each")
def test_criterion_04_oracle_equivalence():
    rng = make_rng(MASTER, "c4")

    for t in range(1000):
        n = rng.randint(6, 14)
        fn = ErasedFunction(Domain.line(n),
                            _erase_some([rng.randint(0, 5) for _ in range(n)], rng))
        want = _best_kept_exhaustive(_live(fn), _mono_ok)
        assert O.distance_to_monotone_line(fn).absolute == want, f"mono #{t}"

    for t in range(1000):
        if t % 10 < 7:
            n = rng.randint(6, 12)
            vals = [rng.randint(0, 8) for _ in range(n)]
        else:
            n = rng.randint(10, 14)
            c = rng.randint(3, n - 2)
            vals = [(p - c) ** 2 for p in range(1, n + 1)]
            for _ in range(rng.randint(1, 3)):
                vals[rng.randint(0, n - 1)] += rng.randint(-4, 4)
        fn = ErasedFunction(Domain.line(n), _erase_some(vals, rng))
        want = _best_kept_exhaustive(_live(fn), _convex_ok)
        assert O.distance_to_convex_line(fn).absolute == want, f"convex #{t}"

    for t in range(1000):
        if t % 10 < 7:
            n = rng.randint(6, 12)
            lows = [rng.randint(-2, 1) for _ in range(n - 1)]
            ups = [l + rng.randint(1, 4) for l in lows]
            vals = [rng.randint(-6, 6) for _ in range(n)]
        else:
            n = rng.randint(10, 14)
            lows = [rng.randint(-2, 1) for _ in range(n - 1)]
            ups = [l + rng.randint(1, 4) for l in lows]
            vals = [rng.randint(-2, 2)]
            for l, u in zip(lows, ups):
                vals.append(vals[-1] + rng.randint(l, u))
            for _ in range(rng.randint(0, 2)):
                vals[rng.randint(0, n - 1)] += rng.randint(-5, 5)
        bounds = LineBoundingPair(tuple(lows), tuple(ups))
        fn = ErasedFunction(Domain.line(n), _erase_some(vals, rng))
        want = _best_kept_exhaustive(_live(fn), _bdp_ok_fn(lows, ups))
        assert O.distance_to_bdp_line(fn, bounds).absolute == want, f"bdp #{t}"

    for t in range(1000):
        n = rng.randint(4, 12)
        k = rng.randint(1, 3)
        fn = ErasedFunction(Domain.line(n),
                            _erase_some([rng.randint(0, 1) for _ in range(n)],
                                        rng, keep_at_least=1),
                            kind="bit")
        want = _best_kept_exhaustive(_live(fn), _runs_ok_fn(k))
        assert O.distance_to_k_runs(fn, k).absolute == want, f"runs #{t}"


# ---------------------------------------------------------------------------
# criterion 5: the even-dimension middle-layer instance

@verdict_line(5, "middle layer: no violated edges, distance exactly 1/2")
def test_criterion_05_middle_layer():
    for d in (4, 6, 8, 10, 12):
        fn = hypercube_middle_layer(d)
        edges = 0
        for idx in range(fn.domain.size):
            v = fn.values[idx]
            if v is ERASED:
                continue
            pt = fn.domain.point_at(idx)
            for axis in range(d):
                if pt[axis] == 1:
                    w = fn.value_at(pt[:axis] + (2,) + pt[axis + 1:])
                    if w is ERASED:
                        continue
                    edges += 1
                    assert v <= w, f"violated edge at {pt} axis {axis + 1}"
        assert edges > 0

        live = fn.domain.size - fn.erased_count()
        pairs = middle_layer_matching(d)
        touched = set()
        for x, y in pairs:
            assert grid_le(x, y) and x != y
            assert fn.value_at(x) == 1 and fn.value_at(y) == 0
            touched.update((x, y))
        assert len(touched) == 2 * len(pairs)
        # a perfect matching of violated pairs forces live/2 changes, and
        # flattening one side realizes it, so the bound is tight
        assert Fraction(len(pairs), live) == Fraction(1, 2)
        if d == 4:
            assert distance_to_monotone_grid_small(fn).relative == Fraction(1, 2)


# ---------------------------------------------------------------------------
# criterion 6: mean sampling cost along fixed-tree search paths

class _Node:
    __slots__ = ("pivot", "lo", "hi", "left", "right")

    def __init__(self, pivot, lo, hi):
        self.pivot = pivot
        self.lo = lo
        self.hi = hi
        self.left = None
        self.right = None


def _build_search_tree(live_sorted, lo, hi, rng):
    import bisect
    a = bisect.bisect_left(live_sorted, lo)
    b = bisect.bisect_right(live_sorted, hi)
    if a >= b:
        return None
    pivot = live_sorted[rng.randrange(a, b)]
    node = _Node(pivot, lo, hi)
    node.left = _build_search_tree(live_sorted, lo, pivot - 1, rng)
    node.right = _build_search_tree(live_sorted, pivot + 1, hi, rng)
    return node


def _tree_height(node):
    if node is None:
        return 0
    return 1 + max(_tree_height(node.left), _tree_height(node.right))


@verdict_line(6, "fixed-tree path sampling cost <= h/(1-alpha) + 3 SE")
def test_criterion_06_path_sampling_cost():
    n, trials = 1024, 100_000
    erased = set(make_rng(MASTER, "c6", "erase").sample(range(1, n + 1), n // 2))
    live = sorted(set(range(1, n + 1)) - erased)
    alpha = Fraction(len(erased), n)
    root = _build_search_tree(live, 1, n, make_rng(MASTER, "c6", "tree"))
    h = _tree_height(root)
    assert 9 <= h <= 60

    rng = make_rng(MASTER, "c6", "paths")
    is_live = [False] * (n + 1)
    for p in live:
        is_live[p] = True
    total = 0
    total_sq = 0
    for _ in range(trials):
        s = live[rng.randrange(len(live))]
        node = root
        cost = 0
        while True:
            while True:
                cost += 1
                if is_live[rng.randint(node.lo, node.hi)]:
                    break
            if s < node.pivot:
                node = node.left
            elif s > node.pivot:
                node = node.right
            else:
                break
        total += cost
        total_sq += cost * cost

    mean = total / trials
    var = total_sq / trials - mean * mean
    se = math.sqrt(max(var, 0.0) / trials)
    bound = h / (1 - float(alpha))
    assert mean <= bound + 3 * se, (mean, bound, se)


# ---------------------------------------------------------------------------
# criterion 7: random search trees stay shallow

def _random_bst_height(n, rng):
    """Height of the search tree grown by inserting a uniform random key
    order, computed as the matching min-priority cartesian tree."""
    priority = list(range(n))
    rng.shuffle(priority)
    left = [-1] * n
    right = [-1] * n
    stack = []
    for i in range(n):
        last = -1
        while stack and priority[stack[-1]] > priority[i]:
            last = stack.pop()
        left[i] = last
        if stack:
            right[stack[-1]] = i
        stack.append(i)
    root = stack[0]
    height = 0
    todo = [(root, 1)]
    while todo:
        v, depth = todo.pop()
        if depth > height:
            height = depth
        if left[v] != -1:
            todo.append((left[v], depth + 1))
        if right[v] != -1:
            todo.append((right[v], depth + 1))
    return height


@verdict_line(7, "mean height of 1000 random BSTs on 4096 keys <= 60")
def test_criterion_07_random_bst_height():
    rng = make_rng(MASTER, "c7")
    heights = [_random_bst_height(4096, rng) for _ in range(1000)]
    mean = sum(heights) / len(heights)
    assert mean <= 60, mean
    assert 25 <= mean <= 50  # the expectation sits near 36


# ---------------------------------------------------------------------------
# criterion 8: dimension reduction, exact arithmetic on [8]^2

def _crit8_instances():
    rng = make_rng(MASTER, "c8")
    out = []
    fn, _ = generate_far_instance(PropertySpec("monotone-grid"), GRID8x2,
                                  Fraction(1, 4), 0, rng)
    out.append(fn)
    fn, _ = generate_far_instance(PropertySpec("monotone-grid"), GRID8x2,
                                  Fraction(1, 4), Fraction(1, 8), rng)
    out.append(fn)
    for _ in range(2):
        vals = [rng.randint(0, 9) for _ in range(64)]
        out.append(erase_random(ErasedFunction(GRID8x2, vals), Fraction(1, 8), rng))
    member = generate_member_instance(PropertySpec("monotone-grid"), GRID8x2, 0, rng)
    out.append(erase_random(member, Fraction(1, 8), rng))
    return out


@verdict_line(8, "line averages: E[alpha_l] == alpha, E[eps_l] >= bound")
def test_criterion_08_dimension_reduction():
    for fn in _crit8_instances():
        alpha = erased_fraction(fn)
        eps_f = O.distance_to_monotone_grid_exact(fn).relative
        eps_sum = Fraction(0)
        alpha_sum = Fraction(0)
        count = 0
        for axis in (1, 2):
            for fixed in range(1, 9):
                lfn = restrict_to_line(fn, axis, (fixed,))
                assert lfn.erased_count() < 8, "a fully erased line"
                eps_sum += O.distance_to_monotone_line(lfn).relative
                alpha_sum += Fraction(lfn.erased_count(), 8)
                count += 1
        assert count == 16
        assert alpha_sum / 16 == alpha
        assert eps_sum / 16 >= (1 - alpha) * eps_f / 8 - alpha


# ---------------------------------------------------------------------------
# criterion 9: pairwise bound violations map onto monotonicity violations

@verdict_line(9, "bound-violation pairs == monotone violations of G/H maps")
def test_criterion_09_violation_mapping():
    rng = make_rng(MASTER, "c9")
    checked = 0
    for t in range(1000):
        n = rng.randint(2, 12)
        lows = [rng.randint(-3, 2) for _ in range(n - 1)]
        ups = [l + rng.randint(1, 5) for l in lows]
        bounds = LineBoundingPair(tuple(lows), tuple(ups))
        values = [rng.randint(-8, 8) for _ in range(n)]
        if t % 3 == 0:
            values = _erase_some(values, rng)
        g_map, h_map = bdp_to_monotone_transforms(bounds)
        pre_l = [0]
        pre_u = [0]
        for l, u in zip(lows, ups):
            pre_l.append(pre_l[-1] + l)
            pre_u.append(pre_u[-1] + u)
        live = [(i + 1, v) for i, v in enumerate(values) if v is not ERASED]
        for i, (a, fa) in enumerate(live):
            for b, fb in live[i + 1:]:
                direct = (fb - fa < pre_l[b - 1] - pre_l[a - 1]
                          or fb - fa > pre_u[b - 1] - pre_u[a - 1])
                assert pair_violates(bounds, a, fa, b, fb) == direct
                mapped = (g_map(a, fa) > g_map(b, fb)
                          or h_map(a, fa) > h_map(b, fb))
                assert mapped == direct, (t, a, b)
                checked += 1
    assert checked > 10_000


# ---------------------------------------------------------------------------
# criterion 10: sampler-level rejection rate of the low-degree check

@verdict_line(10, "degree-1 check over GF(17): rate >= rho(eps(1-a)) - a*q - 3 SE")
def test_criterion_10_pot_bound():
    total = ErasedFunction(GF17, [(x * x) % 17 for x in range(17)],
                           kind="field", modulus=17)
    eps_f = O.distance_to_low_degree(total, 1).relative
    assert eps_f == Fraction(15, 17)
    q = POT17.q
    assert q == 3
    trials = 100_000

    erased_one = ErasedFunction(GF17, [ERASED] + total.values[1:],
                                kind="field", modulus=17,
                                declared_alpha=Fraction(1, 17))
    for alpha, fn in ((Fraction(0), total), (Fraction(1, 17), erased_one)):
        rng = make_rng(MASTER, "c10", str(alpha))
        rejections = 0
        for _ in range(trials):
            rejections += erasure_resilient_pot_run(POT17, QueryOracle(fn), rng).is_reject
        rate = rejections / trials
        floor = float(eps_f * (1 - alpha) - alpha * q)
        se = math.sqrt(rate * (1 - rate) / trials)
        assert rate >= floor - 3 * se, (alpha, rate, floor, se)


# ---------------------------------------------------------------------------
# criterion 11: the distance-approximation adapter with an exact oracle

def _lis_distance(values):
    """Independent route: n^2 longest-nondecreasing-subsequence count."""
    best = [1] * len(values)
    for j in range(len(values)):
        for i in range(j):
            if values[i] <= values[j] and best[i] + 1 > best[j]:
                best[j] = best[i] + 1
    return len(values) - max(best)


def _adapter_pair(fn, alpha):
    approx = lambda view: O.distance_to_monotone_line(view).relative
    v1 = run_adapter(approx, 0, alpha, Fraction(1, 4), QueryOracle(fn))
    v2 = run_adapter(approx, 0, alpha, Fraction(1, 4), QueryOracle(fn))
    assert v1.outcome == v2.outcome and v1.certificate == v2.certificate
    return v1


@verdict_line(11, "adapter: exact accept/reject split at the alpha threshold")
def test_criterion_11_distance_adapter():
    n = 20
    rng = make_rng(MASTER, "c11")
    bases = [list(range(1, n + 1)), [5] * n,
             sorted(rng.randint(0, 9) for _ in range(n))]
    masks = [()]
    masks += [m for r in (1, 2) for m in itertools.combinations(range(1, n + 1), r)]
    assert len(masks) == 211

    for base in bases:
        for mask in masks:
            vals = [ERASED if p in mask else base[p - 1] for p in range(1, n + 1)]
            fn = ErasedFunction(Domain.line(n), vals)
            assert O.distance_to_monotone_line(fn).absolute == 0
            assert not _adapter_pair(fn, Fraction(len(mask), n)).is_reject

    far_seen = near_seen = 0
    for t in range(300):
        if t % 3 == 0:
            vals = [rng.randint(0, 9) for _ in range(n)]
        elif t % 3 == 1:
            vals = sorted(rng.randint(0, 9) for _ in range(n))
            for _ in range(rng.randint(1, 2)):
                vals[rng.randrange(n)] = rng.randint(0, 9)
        else:
            vals = sorted(rng.randint(0, 9) for _ in range(n))
        mask = set(rng.sample(range(1, n + 1), rng.randint(0, 2)))
        alpha = Fraction(len(mask), n)
        filled = [0 if p in mask else vals[p - 1] for p in range(1, n + 1)]
        fn = ErasedFunction(Domain.line(n),
                            [ERASED if p in mask else vals[p - 1]
                             for p in range(1, n + 1)])
        gap = Fraction(_lis_distance(filled), n)
        verdict = _adapter_pair(fn, alpha)
        if gap > alpha:
            far_seen += 1
            assert verdict.is_reject
            assert verdict.certificate == ("estimated-distance", gap, alpha)
        else:
            near_seen += 1
            assert not verdict.is_reject
    assert far_seen > 50 and near_seen > 50, (far_seen, near_seen)


# ---------------------------------------------------------------------------
# criterion 12: byte-identical experiment output on a fixed seed

@verdict_line(12, "same config and seed give byte-identical CSV")
def test_criterion_12_determinism(tmp_path):
    instance = InstanceSpec(domain=Domain.line(32),
                            prop=PropertySpec("monotone-line"),
                            member=False, target_eps=Fraction(1, 4),
                            erasure="random", alpha=Fraction(1, 8), seed=5)
    cfg = ExperimentConfig(tester="monotone-line", instance=instance,
                           trials=40, seed=2026, eps=Fraction(1, 4),
                           alpha=Fraction(1, 8))
    for name in ("one.csv", "two.csv"):
        emit_report([run_experiment(cfg)], "csv", str(tmp_path / name))
    one = (tmp_path / "one.csv").read_bytes()
    two = (tmp_path / "two.csv").read_bytes()
    assert one == two and one.startswith(b"tester,")

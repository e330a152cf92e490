"""The fast exact oracles against their straightforward references.

Each library oracle must return the identical DistanceReport (distance,
certificate and all) as the reference in ``reference_oracles.py`` on
generated int, Fraction and float inputs with erasures, and ``verify_report``
the same verdict as the pairwise reference verifier.  Member-heavy inputs (a
member template, sometimes nudged at one point) make the sweeps' exact fast
accept and their pairwise fallback both run.  The matching search is also
checked on a long augmenting chain, against scipy.
"""
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ertest import oracles as O
from ertest.adversary import generate_member_instance
from ertest.core import ERASED, Domain, ErasedFunction, grid_le
from ertest.hypergrid import BoundingFamily
from ertest.line import INF, LineBoundingPair
from ertest.rng import make_rng

import reference_oracles as ref

SETTINGS = settings(max_examples=150, deadline=None)

_NUMBERS = {
    # small ranges, so equal values and equal slopes are common
    "int": st.integers(-6, 6),
    "fraction": st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)),
    "float": st.one_of(st.integers(-30, 30).map(lambda k: k / 10),
                       st.floats(-8, 8, allow_nan=False, allow_infinity=False)),
}


@st.composite
def values_with_erasures(draw, size):
    kind = draw(st.sampled_from(sorted(_NUMBERS)))
    vals = draw(st.lists(_NUMBERS[kind], min_size=size, max_size=size))
    erased = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    if all(erased):
        erased[draw(st.integers(0, size - 1))] = False
    return [ERASED if e else v for v, e in zip(vals, erased)]


@st.composite
def line_functions(draw, max_n):
    n = draw(st.integers(1, max_n))
    return ErasedFunction(Domain.line(n), draw(values_with_erasures(n)))


@st.composite
def grid_functions(draw):
    n = draw(st.integers(2, 4))
    d = draw(st.integers(2, 3)) if n < 4 else 2
    dom = Domain.grid(n, d)
    return ErasedFunction(dom, draw(values_with_erasures(dom.size)))


@st.composite
def mixed_grid_functions(draw):
    """A grid of d = 1 or d = 4, the dimensions ``grid_functions`` does not
    draw, whose values mix ints, floats and Fractions, with erased cells."""
    d = draw(st.sampled_from([1, 4]))
    n = draw(st.integers(1, 16 if d == 1 else 3))
    dom = Domain.grid(n, d)
    number = st.one_of(*(_NUMBERS[kind] for kind in sorted(_NUMBERS)))
    vals = draw(st.lists(st.one_of(number, st.just(ERASED)), min_size=dom.size,
                         max_size=dom.size))
    if all(v is ERASED for v in vals):
        vals[draw(st.integers(0, dom.size - 1))] = 0
    return ErasedFunction(dom, vals)


@st.composite
def bit_lines(draw):
    """Bit-valued lines with erasures, down to one nonerased point."""
    n = draw(st.integers(1, 40))
    bits = draw(st.lists(st.sampled_from([0, 1, ERASED]), min_size=n, max_size=n))
    if all(b is ERASED for b in bits):
        bits[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0, 1]))
    return ErasedFunction(Domain.line(n), bits, kind="bit")


@st.composite
def line_bounds(draw, n):
    lower, upper = [], []
    for _ in range(n - 1):
        lo = draw(st.sampled_from([-INF, -2, -1, Fraction(-1, 2), 0, 1]))
        width = draw(st.sampled_from([Fraction(1, 2), 1, 2, 3, INF]))
        lower.append(lo)
        # an unbounded lower side takes the width itself as its upper side,
        # so a step may be unbounded on both sides
        upper.append(width if lo == -INF else lo + width)
    return LineBoundingPair(lower, upper)


@st.composite
def any_line_bounds(draw, n):
    """``line_bounds``, or the same bounds with float entries, whose prefix
    sums round, so the sweeps' exact fast accept does not apply."""
    bounds = draw(line_bounds(n))
    if draw(st.booleans()):
        return bounds
    return LineBoundingPair([float(e) for e in bounds.lower],
                            [float(e) for e in bounds.upper])


@st.composite
def member_walk(draw, bounds):
    """Values on the line that fit ``bounds``, often with a step on a bound."""
    vals = [draw(_NUMBERS["int"])]
    for lo, up in zip(bounds.lower, bounds.upper):
        if lo == -INF and up == INF:
            steps = [-1, 0, 1]  # a step bounded on neither side: any finite step fits
        elif lo == -INF:
            steps = [up, up - 1]
        elif up == INF:
            steps = [lo, lo + 1]
        else:
            steps = [lo, up, (lo + up) / 2]
        vals.append(vals[-1] + draw(st.sampled_from(steps)))
    return vals


_NUDGES = [1e-12, -1e-12, 1, -1, Fraction(1, 3), 3]


@st.composite
def member_values(draw, template):
    """``template`` as exact, float or mixed values, sometimes with one point
    nudged, then erased at random (one point always stays)."""
    kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    vals = [v if kind == "exact" or (kind == "mixed" and i % 2) else float(v)
            for i, v in enumerate(template)]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(vals) - 1))
        vals[i] += draw(st.sampled_from(_NUDGES))
    erased = draw(st.lists(st.booleans(), min_size=len(vals), max_size=len(vals)))
    erased[draw(st.integers(0, len(vals) - 1))] = False
    return [ERASED if e else v for v, e in zip(vals, erased)]


@st.composite
def grid_members(draw, family_of):
    """A grid function that sums one member walk per axis (a member of the
    family ``family_of(n, d)`` draws), with ``member_values``' changes."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, 3)) if n < 4 else draw(st.integers(1, 2))
    family = draw(family_of(n, d))
    dom = Domain.grid(n, d)
    walks = [draw(member_walk(b)) for b in family.per_dim]
    template = [sum(w[c - 1] for w, c in zip(walks, p)) for p in dom.points()]
    return ErasedFunction(dom, draw(member_values(template))), family


@st.composite
def any_families(draw, n, d):
    return BoundingFamily(tuple(draw(any_line_bounds(n)) for _ in range(d)))


def monotone_families(n, d):
    return st.just(BoundingFamily.monotone(n, d))


def _report_variants(fn, report):
    """The report, a claim that every point is kept, and the report with one
    kept point dropped: all checkable by the pairwise reference."""
    points = ref.nonerased_points(fn)
    kept = report.certificate[1:]
    yield report
    yield replace(report, absolute=0, relative=Fraction(0),
                  certificate=("kept",) + tuple(points))
    if len(kept) > 1:
        yield replace(report, absolute=report.absolute + 1,
                      certificate=("kept",) + kept[1:])


@SETTINGS
@given(st.data())
def test_verify_report_matches_reference_on_lines(data):
    tag = data.draw(st.sampled_from(["monotone-line", "bdp-line", "convex-line"]))
    n = data.draw(st.integers(1, 16))
    bounds = data.draw(any_line_bounds(n)) if tag == "bdp-line" else LineBoundingPair.monotone(n)
    if tag != "convex-line" and data.draw(st.booleans()):
        fn = ErasedFunction(Domain.line(n), data.draw(member_values(data.draw(member_walk(bounds)))))
    else:
        fn = data.draw(line_functions(16))
        bounds = data.draw(any_line_bounds(fn.domain.n))
    prop = O.PropertySpec(tag, bounds=bounds if tag == "bdp-line" else None)
    for report in _report_variants(fn, O.compute_distance(fn, prop)):
        assert O.verify_report(fn, prop, report) == ref.verify_report(fn, prop, report)


@SETTINGS
@given(st.data())
def test_line_completions_match_the_dict_form_reference(data):
    # the library fills a line's cells; the reference fills {position: value}
    fn = data.draw(line_functions(16))
    bounds = data.draw(any_line_bounds(fn.domain.n))
    valued = fn.nonerased_indices()
    kept_idx = data.draw(st.lists(st.sampled_from(valued), min_size=1, unique=True))
    pairs = O.line_pairs(fn)
    kept_pos = [i + 1 for i in kept_idx]
    for cells, filled in ((O.complete_convex_line(fn.values, kept_idx),
                           ref.complete_convex_line(pairs, kept_pos)),
                          (O.complete_bdp_line(fn.values, kept_idx, bounds),
                           ref.complete_bdp_line(pairs, kept_pos, bounds))):
        assert [i for i, v in enumerate(cells) if v is ERASED] == \
            [i for i, v in enumerate(fn.values) if v is ERASED]
        assert {i + 1: v for i, v in enumerate(cells) if v is not ERASED} == filled
        assert all(cells[i] is fn.values[i] for i in kept_idx)
        assert O.is_member_convex_values(cells) == ref.is_member_convex_values(filled)
        assert O.is_member_bdp_values(cells, bounds) == \
            ref.is_member_bdp_values(filled, bounds)


@SETTINGS
@given(st.data())
def test_verify_report_matches_reference_on_grids(data):
    if data.draw(st.booleans()):
        fn, _ = data.draw(grid_members(monotone_families))
    else:
        fn = data.draw(grid_functions())
    prop = O.PropertySpec("monotone-grid")
    for report in _report_variants(fn, O.compute_distance(fn, prop)):
        assert O.verify_report(fn, prop, report) == ref.verify_report(fn, prop, report)


# coordinates a hand-made certificate might hold: in and out of range, and
# values equal to a position without being ints
_COORDS = st.one_of(
    st.integers(-1, 17), st.booleans(),
    st.integers(0, 17).map(float), st.integers(0, 17).map(Fraction),
    st.sampled_from([1.5, float("nan"), float("inf"), -0.0, 1 + 0j, Decimal(2), "1", None]))


@st.composite
def named_points(draw):
    """A function, and what a certificate might name on it: mostly its own
    points, some erased or repeated, and some of another shape, type or
    hashability."""
    fn = draw(st.one_of(line_functions(12), grid_functions()))
    d = fn.domain.d
    point = st.one_of(
        st.sampled_from(list(fn.domain.points())),
        st.tuples(*[_COORDS] * d),
        st.lists(_COORDS, min_size=d, max_size=d),          # unhashable
        st.tuples(st.lists(st.integers(1, 2), max_size=1)),  # unhashable inside
        st.lists(_COORDS, max_size=d + 1).map(tuple),       # any length
        _COORDS)
    points = draw(st.lists(point, max_size=8))
    return fn, tuple(points) if draw(st.booleans()) else points


@SETTINGS
@given(named_points())
@example((ErasedFunction(Domain.line(3), [0, 1, 2]), [(1.0,), (True,)]))
@example((ErasedFunction(Domain.line(3), [0, 1, 2]), ((3,), (1.0,), (Fraction(2),))))
@example((ErasedFunction(Domain.line(3), [0, ERASED, 2]), ((1,), (2,))))
@example((ErasedFunction(Domain.line(3), [0, 1, 2]), [(1,), [2]]))
def test_point_lookup_matches_reference(case):
    fn, points = case
    assert O._point_indices(fn, points) == ref.point_indices(fn, points)


@SETTINGS
@given(grid_members(monotone_families))
def test_monotone_grid_matches_reference_on_members(member):
    fn, _ = member
    assert O.distance_to_monotone_grid_exact(fn) == ref.distance_to_monotone_grid_exact(fn)


@SETTINGS
@given(grid_members(any_families))
def test_bdp_grid_matches_reference_on_members(member):
    fn, family = member
    assert O.bdp_grid_matching_bound(fn, family) == ref.bdp_grid_matching_bound(fn, family)


@SETTINGS
@given(line_functions(14))
def test_convex_line_matches_reference(fn):
    assert O.distance_to_convex_line(fn) == ref.distance_to_convex_line(fn)


_SLOPE_STEPS = {
    # 0 often, so equal consecutive slopes are common
    "int": st.sampled_from([0, 0, 1, 2]),
    "fraction": st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 3), Fraction(1, 2)]),
    "float": st.sampled_from([0.0, 0.0, 0.1, 0.7]),
}


@st.composite
def convex_members(draw, max_n=14):
    """A convex line of ints, Fractions or floats: consecutive slopes that
    never fall, often equal; sometimes one point nudged, then erased at
    random (one point always stays)."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(sorted(_NUMBERS)))
    vals = [draw(_NUMBERS[kind])]
    slope = draw(_NUMBERS[kind])
    for _ in range(n - 1):
        vals.append(vals[-1] + slope)
        slope += draw(_SLOPE_STEPS[kind])
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        vals[i] += draw(st.sampled_from(_NUDGES))
    erased = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    erased[draw(st.integers(0, n - 1))] = False
    return ErasedFunction(Domain.line(n), [ERASED if e else v for v, e in zip(vals, erased)])


@SETTINGS
@given(convex_members())
def test_convex_line_matches_reference_on_members(fn):
    assert O.distance_to_convex_line(fn) == ref.distance_to_convex_line(fn)


@pytest.mark.parametrize("vals", [
    [(t - 5) ** 2 for t in range(1, 13)],
    [3 * t - 7 for t in range(1, 9)],                       # every slope equal
    [Fraction(t * t, 3) if t % 3 else ERASED for t in range(1, 11)],
    [40, 4, 1, 0, 0, 1, 40],                                # steep ends
    [2, 5],
])
def test_convex_member_makes_one_slope_per_link(vals):
    fn = ErasedFunction(Domain.line(len(vals)), vals)
    m = len(O.line_pairs(fn))
    with mock.patch.object(O, "_slope", wraps=O._slope) as spy:
        report = O.distance_to_convex_line(fn)
    assert report.absolute == 0
    assert spy.call_count == m - 1
    assert report == ref.distance_to_convex_line(fn)


@SETTINGS
@given(st.data())
def test_bdp_line_matches_reference(data):
    fn = data.draw(line_functions(24))
    bounds = data.draw(line_bounds(fn.domain.n))
    assert O.distance_to_bdp_line(fn, bounds) == ref.distance_to_bdp_line(fn, bounds)


@SETTINGS
@given(grid_functions())
def test_monotone_grid_matches_reference(fn):
    items = O._grid_items(fn)
    cells = [None if v is ERASED else v for v in fn.values]
    assert O._violated_grid_edges(cells, fn.domain) == \
        ref.violated_order_edges(items, grid_le)
    fast = O.distance_to_monotone_grid_exact(fn)

    def reference_edges(cells, domain):
        return ref.violated_order_edges(items, grid_le)

    def reference_matching(adj):
        return ref.max_bipartite_matching(len(adj), _edges_of(adj))

    with mock.patch.object(O, "_violated_grid_edges", reference_edges), \
            mock.patch.object(O, "_max_bipartite_matching", reference_matching):
        assert fast == O.distance_to_monotone_grid_exact(fn)


@SETTINGS
@given(st.one_of(grid_functions(), mixed_grid_functions()))
def test_grid_edge_enumeration_matches_reference(fn):
    cells = [None if v is ERASED else v for v in fn.values]
    assert O._violated_grid_edges(cells, fn.domain) == \
        ref.violated_order_edges(O._grid_items(fn), grid_le)


@SETTINGS
@given(bit_lines(), st.integers(1, 6))
@example(ErasedFunction(Domain.line(3), [ERASED, 1, ERASED], kind="bit"), 1)
@example(ErasedFunction(Domain.line(1), [0], kind="bit"), 6)
def test_k_runs_matches_reference(fn, k):
    assert O.distance_to_k_runs(fn, k) == ref.distance_to_k_runs(fn, k)


@st.composite
def k_runs_members(draw):
    """A bit line of at most k runs, k >= 1, sometimes with one bit flipped,
    erased at random (one point always stays); returns (function, k)."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    cuts = draw(st.lists(st.integers(1, n - 1), max_size=k - 1, unique=True)) if n > 1 else []
    bit = draw(st.sampled_from([0, 1]))
    bits = [bit ^ (sum(c <= t for c in cuts) % 2) for t in range(n)]
    if draw(st.booleans()):
        bits[draw(st.integers(0, n - 1))] ^= 1
    erased = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    erased[draw(st.integers(0, n - 1))] = False
    return ErasedFunction(Domain.line(n), [ERASED if e else b for b, e in zip(bits, erased)],
                          kind="bit"), k


@SETTINGS
@given(k_runs_members())
def test_k_runs_matches_reference_on_members(member):
    fn, k = member
    assert O.distance_to_k_runs(fn, k) == ref.distance_to_k_runs(fn, k)


@SETTINGS
@given(st.data())
def test_bdp_grid_matches_reference(data):
    fn = data.draw(grid_functions())
    n, d = fn.domain.n, fn.domain.d
    family = BoundingFamily(tuple(data.draw(line_bounds(n)) for _ in range(d)))
    assert O.bdp_grid_matching_bound(fn, family) == ref.bdp_grid_matching_bound(fn, family)


@SETTINGS
@given(st.data())
def test_low_degree_matches_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 11]))
    degree = data.draw(st.integers(0, min(2, p - 1)))
    if data.draw(st.booleans()):
        # a polynomial of the right degree with a few corrupted points
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=degree + 1,
                                    max_size=degree + 1))
        vals = [O.poly_eval(coeffs, x, p) for x in range(p)]
        for x in data.draw(st.lists(st.integers(0, p - 1), max_size=p // 2)):
            vals[x] = data.draw(st.integers(0, p - 1))
    else:
        vals = data.draw(st.lists(st.integers(0, p - 1), min_size=p, max_size=p))
    erased = data.draw(st.lists(st.booleans(), min_size=p, max_size=p))
    if all(erased):
        erased[0] = False
    vals = [ERASED if e else v for v, e in zip(vals, erased)]
    fn = ErasedFunction(Domain.line(p), vals, kind="field", modulus=p)
    assert O.distance_to_low_degree(fn, degree) == ref.distance_to_low_degree(fn, degree)


@SETTINGS
@given(st.data())
def test_low_degree_matches_reference_at_most_degree_points(data):
    # m <= degree nonerased points: any values fit, and the exit is skipped
    p = data.draw(st.sampled_from([3, 5, 7, 11]))
    degree = data.draw(st.integers(1, min(3, p - 1)))
    kept = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=degree, unique=True))
    vals = [data.draw(st.integers(0, p - 1)) if x in kept else ERASED for x in range(p)]
    fn = ErasedFunction(Domain.line(p), vals, kind="field", modulus=p)
    assert O.distance_to_low_degree(fn, degree) == ref.distance_to_low_degree(fn, degree)


_GENERATED = {
    # tag: (sizes, the property drawn for a size n, the reference oracle)
    "convex-line": (st.integers(1, 32), lambda n: st.just(O.PropertySpec("convex-line")),
                    lambda fn, prop: ref.distance_to_convex_line(fn)),
    "k-runs": (st.integers(1, 64),
               lambda n: st.integers(1, 6).map(lambda k: O.PropertySpec("k-runs", k=k)),
               lambda fn, prop: ref.distance_to_k_runs(fn, prop.k)),
    # the field has p = n elements, so the degree stays below n
    "low-degree": (st.sampled_from([2, 3, 5, 7, 11, 13]),
                   lambda n: st.integers(0, min(2, n - 1)).map(
                       lambda d: O.PropertySpec("low-degree", degree=d)),
                   lambda fn, prop: ref.distance_to_low_degree(fn, prop.degree)),
}


@SETTINGS
@given(st.sampled_from(sorted(_GENERATED)), st.integers(0, 2 ** 32), st.data())
def test_generated_members_match_reference(tag, seed, data):
    sizes, props, reference = _GENERATED[tag]
    n = data.draw(sizes)
    prop = data.draw(props(n))
    alpha = Fraction(data.draw(st.integers(0, 7)), 8)
    fn = generate_member_instance(prop, Domain.line(n), alpha, make_rng(seed))
    report = O.compute_distance(fn, prop)
    assert report.absolute == 0
    assert report == reference(fn, prop)


def _adjacency(m, edges):
    """The right nodes of each left node 0..m-1, in edge order."""
    adj = [[] for _ in range(m)]
    for a, b in edges:
        adj[a].append(b)
    return adj


def _edges_of(adj):
    return [(a, b) for a, right in enumerate(adj) for b in right]


@SETTINGS
@given(st.integers(1, 12), st.data())
def test_matching_search_matches_reference(m, data):
    edges = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                               max_size=3 * m))
    fast = O._max_bipartite_matching(_adjacency(m, edges))
    assert list(fast.items()) == list(ref.max_bipartite_matching(m, edges).items())


def _augmenting_chain(length):
    """Left k joins right k and k+1; the last left node joins right 0 only,
    so its augmenting path runs through every earlier match."""
    edges = [e for k in range(length) for e in ((k, k), (k, k + 1))]
    return length + 1, edges + [(length, 0)]


def test_matching_survives_a_long_augmenting_chain():
    m, edges = _augmenting_chain(1200)
    match = O._max_bipartite_matching(_adjacency(m, edges))
    assert len(match) == m
    assert sorted(match.values()) == list(range(m))
    assert all((a, b) in set(edges) for a, b in match.items())
    assert match[m - 1] == 0 and all(match[k] == k + 1 for k in range(m - 1))


def test_matching_size_agrees_with_scipy():
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    m, edges = _augmenting_chain(1200)
    rows, cols = zip(*edges)
    graph = sparse.csr_matrix(([1] * len(edges), (rows, cols)), shape=(m, m))
    theirs = csgraph.maximum_bipartite_matching(graph, perm_type="column")
    assert len(O._max_bipartite_matching(_adjacency(m, edges))) == int((theirs >= 0).sum()) == m

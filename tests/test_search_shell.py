"""Every search tester in the budgeted search shell queries the same points,
in the same order, as its reference in ``reference_testers.py``, returns
the same verdict and leaves its RNG in the same state.

The verdict cross-checks in ``test_tester_reference.py`` cannot see the order
of the queries inside one search level (the convexity search walks right
before it walks left): a spent budget stops either order at the same count.
The query log does see it.
"""
import random
from fractions import Fraction

from hypothesis import example, given, strategies as st

from ertest import hypergrid as HG
from ertest import line as L
from ertest.core import Domain, ErasedFunction, QueryOracle

import reference_testers as ref
from test_line import sparse_squares
from test_tester_reference import (
    EPS,
    GRID_SETTINGS,
    SEEDS,
    SETTINGS,
    grid_functions,
    line_bounds,
    line_functions,
)

ALPHAS = st.sampled_from([0, Fraction(1, 8), 0.5])


class RecordingOracle(QueryOracle):
    """A query oracle that logs every point asked for, in order.  Every
    read, by point or by flat index, is one ``query_index``."""

    __slots__ = ("log",)

    def __init__(self, fn):
        super().__init__(fn)
        self.log = []

    def query_index(self, idx):
        self.log.append(self.fn.domain.point_at(idx))
        return super().query_index(idx)


def _same_queries(lib_tester, ref_tester, fn, seed, *args):
    lib, want = RecordingOracle(fn), RecordingOracle(fn)
    lib_rng, ref_rng = random.Random(seed), random.Random(seed)
    assert lib_tester(lib, *args, lib_rng) == ref_tester(want, *args, ref_rng)
    assert lib.log == want.log
    assert lib_rng.getstate() == ref_rng.getstate()


@SETTINGS
@given(line_functions(), EPS, ALPHAS, SEEDS)
# float pairs that descend by less than ``value_gt``'s tolerance
@example(ErasedFunction(Domain.line(2), [0.0, -5e-324]), Fraction(1, 4), 0, 0)
@example(ErasedFunction(Domain.line(2), [1.0, 0.999999999999999]), Fraction(1, 4), 0, 0)
def test_classic_monotone_line_matches_reference(fn, eps, alpha, seed):
    _same_queries(L.classic_monotone_line, ref.classic_monotone_line, fn, seed, eps, alpha)


@SETTINGS
@given(line_functions(), EPS, ALPHAS, SEEDS)
def test_monotone_line_queries_match_reference(fn, eps, alpha, seed):
    _same_queries(L.test_monotone_line, ref.test_monotone_line, fn, seed, eps, alpha)


@SETTINGS
@given(line_functions(), EPS, ALPHAS, SEEDS)
# an exhausted verdict, whose stats split the reference must give too
@example(sparse_squares(), 0.9, 0, 0)
def test_convex_line_queries_match_reference(fn, eps, alpha, seed):
    _same_queries(L.test_convex_line, ref.test_convex_line, fn, seed, eps, alpha)


@SETTINGS
@given(st.data(), EPS, SEEDS)
def test_bdp_line_queries_match_reference(data, eps, seed):
    fn = data.draw(line_functions(max_n=24))
    bounds = data.draw(line_bounds(fn.domain.n))
    _same_queries(L.test_bdp_line, ref.test_bdp_line, fn, seed, bounds, eps, 0)


@GRID_SETTINGS
@given(grid_functions(), EPS, SEEDS)
def test_monotone_grid_queries_match_reference(fn, eps, seed):
    _same_queries(HG.test_monotone_hypergrid, ref.test_monotone_hypergrid, fn, seed, eps, 0)

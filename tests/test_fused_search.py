"""The fused pivot loop of ``randomized_binary_search_step_loop`` against the
loop through ``sample_nonerased_uniform``, and what a counting wrapper of
the sampler sees.

A plain ``random.Random`` with a plain ``QueryOracle`` (a line oracle, or an
axis-line view of a grid oracle) runs the fused loop.  A ``Random`` subclass
draws the same values through its inherited ``randint`` and runs the loop
through the sampler, as a rebound sampler name does.  Both must return the
same pair, check the same pairs, charge the same queries, leave the same
``getstate()`` and run out of budget at the same query.
"""
import functools
import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from ertest import hypergrid as HG
from ertest import line as L
from ertest.core import ERASED, BudgetExhausted, Domain, ErasedFunction, LazyValues, QueryOracle
from ertest.hypergrid import BoundingFamily
from ertest.line import LineBoundingPair

from test_tester_reference import values_with_erasures

FUSED_SETTINGS = settings(max_examples=400, deadline=None)


class _Unfused(random.Random):
    """A ``Random`` in all but its type, so the step loop samples its pivots
    through ``sample_nonerased_uniform``."""


def _no_draw(*args):
    raise AssertionError("the fused loop went through the sampler's draw")


@st.composite
def search_cases(draw):
    """A line or a d = 2, 3 grid of int, Fraction, float or lazily parsed
    int values with up to 95% erased; the seed of the axis line a grid
    search runs on; a start s in a range [lo, hi] of the searched line,
    nonerased when the line has a nonerased point; a pair check; a spent
    count and a budget small enough to run out mid-search."""
    d = draw(st.sampled_from([1, 1, 2, 3]))
    n = draw(st.integers(1, 40) if d == 1 else st.integers(2, 6 if d == 2 else 4))
    dom = Domain.grid(n, d)
    values = draw(values_with_erasures(dom.size))
    if all(type(v) is int for v in values if v is not ERASED) and draw(st.booleans()):
        values = LazyValues(["_" if v is ERASED else str(v) for v in values])
    fn = ErasedFunction(dom, values)
    line_seed = draw(st.integers(0, 2 ** 32 - 1))
    _, read = _target(QueryOracle(fn), line_seed)
    flat = [read(p) for p in range(1, n + 1)]
    kept = [p for p in range(1, n + 1) if flat[p - 1] is not ERASED]
    s = draw(st.sampled_from(kept)) if kept else draw(st.integers(1, n))
    fs = flat[s - 1] if kept else 0
    lo, hi = draw(st.integers(1, s)), draw(st.integers(s, n))
    check = draw(st.sampled_from(["descends", "lipschitz"]))
    check = L._descends if check == "descends" else L._bdp_check(LineBoundingPair.lipschitz(n))
    spent = draw(st.integers(0, 4))
    budget = spent + draw(st.integers(0, 60))
    return fn, line_seed, lo, hi, s, fs, check, spent, budget


def _target(oracle, line_seed):
    """What a search runs on: the line oracle itself, or the view of one
    axis line drawn from ``line_seed``; and an uncharged read of position p."""
    values = oracle.fn.values
    if oracle.fn.domain.d == 1:
        return oracle, lambda p: values[p - 1]
    ((view, _, _),) = HG._axis_searches(oracle, 1, (None,) * oracle.fn.domain.d,
                                        random.Random(line_seed))
    return view, lambda p: values[view.base + (p - 1) * view.stride]


def _search(rng_type, seed, case):
    fn, line_seed, lo, hi, s, fs, check, spent, budget = case
    oracle = QueryOracle(fn, budget)
    oracle.count = spent
    target, _ = _target(oracle, line_seed)
    rng, pairs = rng_type(seed), []

    def violated(*pair):
        pairs.append(pair)
        return check(*pair)

    try:
        out = ("found", L.randomized_binary_search_step_loop(target, lo, hi, s, fs, rng,
                                                              violated))
    except BudgetExhausted as e:
        out = ("budget", e.args)
    return out, oracle.count, rng.getstate(), pairs


@FUSED_SETTINGS
@given(search_cases(), st.integers(0, 2 ** 32 - 1))
def test_fused_loop_matches_the_sampler_loop_draw_for_draw(case, seed):
    with mock.patch.object(L, "draw", _no_draw):
        fused = _search(random.Random, seed, case)
    assert fused == _search(_Unfused, seed, case)
    (kind, got), count, _, _ = fused
    if kind == "budget":
        # raised at the query that passes the budget, with the count written back
        assert got == (count,) and count == case[-1]


def test_fused_loop_runs_only_with_the_library_sampler():
    # a rebound sampler name, a recording oracle subclass, a Random subclass
    # and an unset budget each run the loop through the sampler
    fn = ErasedFunction(Domain.line(8), [1, ERASED, 3, 4, 5, ERASED, 7, 8])
    plain = QueryOracle(fn, 50)
    assert L._flat_reads(plain, 1, 8, random.Random(0)) == (plain, -1, 1)
    assert L._flat_reads(plain, 0, 8, random.Random(0)) is None
    assert L._flat_reads(plain, 1, 9, random.Random(0)) is None
    assert L._flat_reads(plain, 1, 8, _Unfused(0)) is None
    assert L._flat_reads(QueryOracle(fn), 1, 8, random.Random(0)) is None
    assert L._flat_reads(type("Sub", (QueryOracle,), {})(fn, 50), 1, 8, random.Random(0)) is None
    with mock.patch.object(L, "sample_nonerased_uniform",
                           functools.partial(L.sample_nonerased_uniform)):
        assert L._flat_reads(plain, 1, 8, random.Random(0)) is None
    grid = QueryOracle(ErasedFunction(Domain.grid(3, 2), list(range(9))), 50)
    ((view, _, _),) = HG._axis_searches(grid, 1, (None, None), random.Random(3))
    assert L._flat_reads(view, 1, 3, random.Random(0)) == (
        grid, view.base - view.stride, view.stride)


class _CountingSampler:
    """``line.sample_nonerased_uniform`` and
    ``randomized_binary_search_step_loop`` rebound by name, as the bench's
    tracer rebinds them: a sampler call that returns inside a search is one
    of its pivots, any other its start; every call's queries are counted,
    those of a call that runs out of budget too."""

    def __init__(self, monkeypatch):
        self.searches = self.starts = self.pivots = self.queries = 0
        self._depth = 0
        sampler, search = L.sample_nonerased_uniform, L.randomized_binary_search_step_loop

        def counted_sampler(line, lo, hi, rng):
            oracle = getattr(line, "oracle", line)
            before = oracle.count
            try:
                found = sampler(line, lo, hi, rng)
            finally:
                self.queries += oracle.count - before
            if self._depth:
                self.pivots += 1
            else:
                self.starts += 1
            return found

        def counted_search(*args):
            self.searches += 1
            self._depth += 1
            try:
                return search(*args)
            finally:
                self._depth -= 1

        monkeypatch.setattr(L, "sample_nonerased_uniform", counted_sampler)
        monkeypatch.setattr(L, "randomized_binary_search_step_loop", counted_search)


def _line_fn(n, erase_every):
    return ErasedFunction(Domain.line(n), [ERASED if erase_every and i % erase_every == 3
                                           else i // 3 for i in range(n)])


def _grid_fn(n, d, erase_every):
    dom = Domain.grid(n, d)
    return ErasedFunction(dom, [ERASED if erase_every and i % erase_every == 3
                                else sum(dom.point_at(i)) for i in range(dom.size)])


_CASES = [
    ("monotone-line", lambda e: _line_fn(512, e),
     lambda o, rng: L.test_monotone_line(o, Fraction(1, 4), 0, rng)),
    ("bdp-grid", lambda e: _grid_fn(6, 2, e),
     lambda o, rng: HG.test_bdp_hypergrid(o, BoundingFamily.lipschitz(6, 2), Fraction(1, 2), 0,
                                          rng)),
]


def test_a_rebound_sampler_sees_every_start_and_pivot(monkeypatch):
    # the bench's tracer reads pivots and erased draws through these names;
    # the fused loop steps aside for it and the verdicts stay the same
    for name, make_fn, run in _CASES:
        for erase_every in (0, 5):
            fn = make_fn(erase_every)
            fused = run(QueryOracle(fn), random.Random(7))
            with monkeypatch.context() as patched:
                counts = _CountingSampler(patched)
                traced = run(QueryOracle(fn), random.Random(7))
            assert traced == fused, name
            # one start per search, and the pivots the tracer counts
            assert counts.starts == counts.searches > 0 and counts.pivots > 0, name
            # every query is a draw of some start or pivot, that call's own
            # erased draws included; with no erasures, each call is one draw
            assert counts.queries == traced.queries_used, name
            if not erase_every:
                assert counts.starts + counts.pivots == traced.queries_used, name
            else:
                assert counts.starts + counts.pivots < traced.queries_used, name

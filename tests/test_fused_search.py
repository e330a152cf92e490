"""The fused search of ``line._axis_searches`` against the path through
``sample_nonerased_uniform`` and the step loop, and what a counting wrapper
of the sampler sees.

A plain ``random.Random`` with a plain ``QueryOracle`` (a line oracle or a
grid oracle) runs ``line._fused_search``: each search's start and its
pivots in one draw-and-read loop, after ``_axis_searches`` has drawn the
axis line (on a line, none: a line is its own one axis line).  A
``Random`` subclass draws the same values through its inherited ``randint``
and takes the sampler path, as a rebound sampler name does.  Both must find
the same pairs, certify the same, charge the same queries, leave the same
``getstate()`` and run out of budget at the same query.  On a line, both
must also match ``reference_testers.line_searches``, the sampler loop run
on the line oracle itself with no view.
"""
import functools
import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ertest import hypergrid as HG
from ertest import line as L
from ertest.core import (ERASED, BudgetExhausted, Domain, ErasedFunction, LazyValues, QueryOracle,
                         draw)
from ertest.hypergrid import BoundingFamily
from ertest.line import LineBoundingPair

from reference_testers import axis_line_views, line_searches, sample_axis_line
from test_tester_reference import values_with_erasures

FUSED_SETTINGS = settings(max_examples=400, deadline=None)


class _Unfused(random.Random):
    """A ``Random`` in all but its type, so every search takes the sampler
    path."""


def _no_draw(*args):
    raise AssertionError("the fused search went through the sampler's draw")


def _rebound_sampler():
    """The sampler's name bound to a wrapper of itself, as a tracer binds
    it: a plain ``Random`` then takes the sampler path too."""
    return mock.patch.object(L, "sample_nonerased_uniform",
                             functools.partial(L.sample_nonerased_uniform))


@st.composite
def search_cases(draw):
    """A line or a d = 2, 3 grid of int, Fraction, float or lazily parsed
    int values with up to 95% erased; a pair check; a spent count and a
    budget small enough to run out inside a start or among the pivots."""
    d = draw(st.sampled_from([1, 1, 2, 3]))
    n = draw(st.integers(1, 40) if d == 1 else st.integers(2, 6 if d == 2 else 4))
    dom = Domain.grid(n, d)
    values = draw(values_with_erasures(dom.size))
    if all(type(v) is int for v in values if v is not ERASED) and draw(st.booleans()):
        values = LazyValues(["_" if v is ERASED else str(v) for v in values])
    fn = ErasedFunction(dom, values)
    check = draw(st.sampled_from(["descends", "lipschitz"]))
    check = L._descends if check == "descends" else L._bdp_check(LineBoundingPair.lipschitz(n))
    spent = draw(st.integers(0, 4))
    budget = spent + draw(st.integers(0, 60))
    return fn, check, spent, budget


def _search(rng, case, how):
    """One search on the axis line ``rng`` draws first, a line being its
    own: ``_fused_search`` when ``how`` is "fused", the sampler path over
    the line's view when "sampled", and, on a line, ``line_searches`` on
    the line oracle itself when "reference".  Returns the outcome, the
    pairs checked, ``oracle.count`` and ``rng.getstate()``."""
    fn, check, spent, budget = case
    oracle, n, pairs = QueryOracle(fn, budget), fn.domain.n, []
    oracle.count = spent

    def violated(*pair):
        pairs.append(pair)
        return check(*pair)

    try:
        if how == "reference":
            hit = next(line_searches(oracle, [violated], rng, lambda *pair: pair))
        else:
            ((view, *_),) = axis_line_views(oracle, 1, (None,) * fn.domain.d, rng)
            if how == "fused":
                hit = L._fused_search(oracle, view.base - view.stride, view.stride, n, rng,
                                      violated)
            else:
                s, fs = L.sample_nonerased_uniform(view, 1, n, rng)
                hit = L.randomized_binary_search_step_loop(view, 1, n, s, fs, rng, violated)
        out = ("found", hit)
    except BudgetExhausted as e:
        out = ("budget", e.args)
    return out, pairs, oracle.count, rng.getstate()


@FUSED_SETTINGS
@given(search_cases(), st.integers(0, 2 ** 32 - 1))
def test_fused_loop_matches_the_sampler_loop_draw_for_draw(case, seed):
    with mock.patch.object(L, "draw", _no_draw):
        fused = _search(random.Random(seed), case, "fused")
    assert fused == _search(_Unfused(seed), case, "sampled")
    if case[0].domain.d == 1:
        assert fused == _search(random.Random(seed), case, "reference")
    (kind, got), _, count, _ = fused
    if kind == "budget":
        # raised at the query that passes the budget, with the count written back
        assert got == (count,) and count == case[-1]


def _run(case, iterations, rng, reference=False):
    """The searches of ``iterations`` lines of ``case``, as a tester runs
    them but with every certificate recorded, one in three passed over:
    per search, what it yields, the pairs it checked, ``oracle.count`` and
    ``rng.getstate()``; then how the searches ended.  ``reference`` runs
    a line's searches through ``line_searches`` in place of
    ``_axis_searches``."""
    fn, check, spent, budget = case
    oracle, d, pairs = QueryOracle(fn, budget), fn.domain.d, []
    oracle.count = spent

    def violated(*pair):
        pairs.append(pair)
        return check(*pair)

    def certify(view, pa, fa, pb, fb):
        # line_searches hands no view: its line is the line oracle's axis 1
        axis, point = (1, lambda p: (p,)) if view is None else (view.axis, view.point)
        hit = (axis, (point(pa), fa), (point(pb), fb))
        return None if len(pairs) % 3 == 0 else hit

    if d == 1:  # two checks in turn, as bdp-line's views take turns
        checks = itertools.islice(itertools.cycle([(violated,), (L._descends,)]), iterations)
    else:
        checks = itertools.repeat((violated,) * d, iterations)
    if reference:
        searches = line_searches(oracle, (check for (check,) in checks), rng,
                                 functools.partial(certify, None))
    else:
        searches = L._axis_searches(oracle, checks, rng, certify)
    log = []
    try:
        for got in searches:
            log.append((got, list(pairs), oracle.count, rng.getstate()))
        end = "done"
    except BudgetExhausted as e:
        end = ("budget", e.args)
    return log, end, oracle.count, rng.getstate()


@FUSED_SETTINGS
@given(search_cases(), st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.booleans())
def test_fused_searches_match_the_sampler_path_search_for_search(case, seed, iterations,
                                                                 rebound):
    with mock.patch.object(L, "draw", _no_draw):
        fused = _run(case, iterations, random.Random(seed))
    if rebound:
        with _rebound_sampler():
            unfused = _run(case, iterations, random.Random(seed))
    else:
        unfused = _run(case, iterations, _Unfused(seed))
    assert fused == unfused
    if case[0].domain.d == 1:
        assert fused == _run(case, iterations, random.Random(seed), reference=True)
    _, end, count, _ = fused
    if end != "done":
        assert end == ("budget", (count,)) and count == case[-1]


@pytest.mark.parametrize("budget", [0, 1, 5])
@pytest.mark.parametrize("d, n", [(1, 9), (2, 5), (3, 4)])
def test_a_budget_spent_inside_a_start_is_raised_after_its_one_draw(d, n, budget):
    # nothing nonerased: every start draws until the budget runs out, and
    # the query that raises is the start's own, right after its one plain
    # draw over [1, n], on a grid as on a line
    dom = Domain.grid(n, d)
    case = (ErasedFunction(dom, [ERASED] * (dom.size - 1) + [0]), L._descends, 0, budget)
    spent = 0
    for seed in range(12):
        with mock.patch.object(L, "draw", _no_draw):
            fused = _search(random.Random(seed), case, "fused")
        assert fused == _search(_Unfused(seed), case, "sampled")
        with _rebound_sampler():
            assert fused == _search(random.Random(seed), case, "sampled")
        if d == 1:
            assert fused == _search(random.Random(seed), case, "reference")
        (kind, got), pairs, count, state = fused
        if kind == "budget":
            assert got == (budget,) and count == budget and pairs == []
            # a grid line's one draw (a line draws none for itself), then
            # one draw over [1, n] per query, the one that raises included
            want = random.Random(seed)
            if d > 1:
                sample_axis_line(dom, want)
            for _ in range(budget + 1):
                draw(want, 1, n)
            assert state == want.getstate()
            spent += 1
    assert spent >= 6


def test_fused_loop_runs_only_with_the_library_sampler():
    # a rebound sampler name, a recording oracle subclass, a Random subclass
    # and an unset budget each take the sampler path
    fn = ErasedFunction(Domain.line(8), [1, ERASED, 3, 4, 5, ERASED, 7, 8])
    plain = QueryOracle(fn, 50)
    assert L._fuses(plain, random.Random(0))
    assert not L._fuses(plain, _Unfused(0))
    assert not L._fuses(QueryOracle(fn), random.Random(0))
    assert not L._fuses(type("Sub", (QueryOracle,), {})(fn, 50), random.Random(0))
    with _rebound_sampler():
        assert not L._fuses(plain, random.Random(0))
    grid = QueryOracle(ErasedFunction(Domain.grid(3, 2), list(range(9))), 50)
    assert L._fuses(grid, random.Random(0))
    assert not L._fuses(grid, _Unfused(0))


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
    # the fused search steps aside for it and the verdicts stay the same
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

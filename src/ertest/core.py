"""Domains, partially erased functions, and the budgeted query oracle.

Points on a ``Domain`` are 1-based coordinate tuples.  A function value is
either a real number (an int, a finite float or a Fraction), a bit, a field
element, or the erasure symbol ``ERASED``.  Testers read values only through
``QueryOracle``, which counts every access and signals ``BudgetExhausted``
once the budget is spent; testers translate that signal into an accepting
verdict.
"""
from __future__ import annotations

import itertools
import math
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterator, Optional

REL_TOL = 1e-9
INF = float("inf")

VALUE_KINDS = ("real", "bit", "field")


class _Erased:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ERASED"

    def __reduce__(self):
        # pickling must preserve the singleton, identity checks rely on it
        return (_Erased, ())


ERASED = _Erased()


class BudgetExhausted(Exception):
    """Signal, not an error: the oracle budget is spent.

    Testers catch it at the top level and accept (reason ``budget_exhausted``).
    """


class PreconditionViolated(ValueError):
    """A tester was called outside its stated parameter regime."""


class SizeLimit(ValueError):
    """An exact oracle was asked for an instance above its size gate."""


class GenerationFailed(RuntimeError):
    """An instance generator could not certify a sample within its retry cap."""


class ConfigError(ValueError):
    """Malformed experiment configuration or input file."""


class InvalidField(ValueError):
    """The claimed field modulus is not prime."""


def value_gt(a, b) -> bool:
    """Strict a > b.  Uses a relative tolerance when floats are involved so
    representation noise never flips a comparison; exact types compare exactly,
    and so does an int or Fraction past float range, beyond any float's tolerance."""
    if isinstance(a, float) or isinstance(b, float):
        try:
            fa, fb = float(a), float(b)
        except OverflowError:  # a plain float, unlike numpy's, is exact beside any int or Fraction
            return float(a) > b if isinstance(a, float) else a > float(b)
        if fa == fb or math.isinf(fa) or math.isinf(fb):
            return fa > fb
        return fa - fb > REL_TOL * max(1.0, abs(fa), abs(fb))
    return a > b


def difference(a, b):
    """``a - b``, in Fractions when a float meets a number past float range
    and the subtraction overflows; ``value_gt`` compares that exactly."""
    try:
        return a - b
    except OverflowError:
        return Fraction(a) - Fraction(b)


def draw(rng, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``, the one draw rule of every tester.  On a
    plain ``random.Random`` it takes ``span.bit_length()`` random bits and
    redraws while they reach ``span = hi - lo + 1``, which is what
    ``randint`` does on CPython 3.10-3.13 (``_randbelow_with_getrandbits``)
    three Python frames deeper: the same value and the same ``getstate()``.
    Any other object, a ``Random`` subclass among them, gets its own
    ``randint``.  An empty range raises ValueError, as ``randint`` does,
    where the loop would never end."""
    if type(rng) is not Random:
        return rng.randint(lo, hi)
    span = hi - lo + 1
    if span < 1:
        raise ValueError(f"empty range for draw({lo}, {hi})")
    k = span.bit_length()
    r = rng.getrandbits(k)
    while r >= span:
        r = rng.getrandbits(k)
    return lo + r


def exact_fraction(x) -> Fraction:
    """Exact rational for a parameter given as float/str/Fraction.

    Floats go through their shortest decimal repr, so 0.2 means 1/5.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def check_params(eps=None, alpha=None) -> tuple:
    """(eps, alpha) as exact rationals, with the proximity parameter eps in
    (0,1) and the erasure bound alpha in [0,1).  A tester that takes only
    one of them passes that one; the other comes back None, unchecked."""
    e = None if eps is None else exact_fraction(eps)
    a = None if alpha is None else exact_fraction(alpha)
    # int comparisons, as a Fraction's denominator is positive: Fraction ones cost µs
    if e is not None and not 0 < e.numerator < e.denominator:
        raise ValueError(f"proximity parameter {eps} outside (0,1)")
    if a is not None and not 0 <= a.numerator < a.denominator:
        raise ValueError(f"erasure bound {alpha} outside [0,1)")
    return e, a


def exact_log2(n: int):
    """log2(n) as an int when n is a power of two, else an exact rational of
    the float value.  Keeps budget formulas deterministic."""
    if n >= 1 and n & (n - 1) == 0:
        return n.bit_length() - 1
    return Fraction(math.log2(n))


def ceil_frac(x) -> int:
    f = Fraction(x)
    return -((-f.numerator) // f.denominator)


@dataclass(frozen=True)
class Domain:
    """A line [n] or hypergrid [n]^d; points are tuples (x_1, ..., x_d)."""

    n: int
    d: int = 1

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("domain needs n >= 1 and d >= 1")
        if self.n ** self.d > 2 ** 62:
            raise SizeLimit("domain too large to index")

    @classmethod
    def line(cls, n: int) -> "Domain":
        return cls(n, 1)

    @classmethod
    def grid(cls, n: int, d: int) -> "Domain":
        return cls(n, d)

    @classmethod
    def hamming_cube(cls, d: int) -> "Domain":
        return cls(2, d)

    @property
    def size(self) -> int:
        return self.n ** self.d

    @property
    def is_line(self) -> bool:
        return self.d == 1

    def contains(self, pt) -> bool:
        return len(pt) == self.d and all(1 <= c <= self.n for c in pt)

    def index_of(self, pt) -> int:
        """Canonical index in [0, size); coordinate 1 varies fastest."""
        if not self.contains(pt):
            raise ValueError(f"point {pt!r} outside {self}")
        idx = 0
        for c in reversed(pt):
            idx = idx * self.n + (c - 1)
        return idx

    def point_at(self, idx: int) -> tuple:
        if not 0 <= idx < self.size:
            raise ValueError(f"index {idx} outside domain of size {self.size}")
        coords = []
        for _ in range(self.d):
            idx, r = divmod(idx, self.n)
            coords.append(r + 1)
        return tuple(coords)

    def points(self) -> Iterator[tuple]:
        """Every point in index order, ``point_at(0)`` first, in one pass."""
        return (p[::-1] for p in itertools.product(range(1, self.n + 1), repeat=self.d))


def grid_le(x, y) -> bool:
    """Coordinatewise partial order x <= y on grid points."""
    return all(a <= b for a, b in zip(x, y))


def grid_descends(x, fx, y, fy) -> bool:
    """x lies strictly below y in the grid order, yet f(x) > f(y) by ``value_gt``."""
    return grid_le(x, y) and x != y and value_gt(fx, fy)


def _check_kind(kind: str, value, modulus) -> bool:
    if kind == "real":
        if isinstance(value, float):
            return -INF < value < INF  # a real value is finite: not inf, -inf or NaN
        return isinstance(value, (int, Fraction)) and not isinstance(value, bool)
    if kind == "bit":
        return isinstance(value, int) and not isinstance(value, bool) and value in (0, 1)
    if kind == "field":
        return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < modulus
    raise ValueError(f"unknown value kind {kind!r}")


# the value types of kind "real" that need no per-value check; a bool, or
# an int or Fraction subclass, is a type of its own and takes the check
_EXACT_REAL_TYPES = frozenset((int, Fraction, _Erased))


class LazyValues(Sequence):
    """The real values of a file whose every token is ``_`` or a plain
    integer (an optional ``-``, then ``str.isdecimal`` digits) no longer
    than the int digit limit; any other token list raises ValueError.  A
    read builds its value, the ``int(token)`` (or ERASED) that an eager
    parse gives by ``fileio``'s one number rule, and keeps it.  Iterating,
    slicing and ``==`` build every value once, so they see the eager
    parse's list.  Read-only; it pickles as its tokens."""

    __slots__ = ("tokens", "erased", "_values", "_built")

    def __init__(self, tokens: list):
        self.erased = tokens.count("_")
        plain = sum(map(str.isdecimal, map(str.removeprefix, tokens, itertools.repeat("-"))))
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        if plain + self.erased != len(tokens) or limit and max(map(len, tokens), default=0) > limit:
            raise ValueError("a token is not `_` or a plain integer within the digit limit")
        self.tokens = tokens
        self._values = [None] * len(tokens)
        self._built = False

    def __len__(self):
        return len(self.tokens)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._all()[i]
        v = self._values[i]
        if v is None:
            token = self.tokens[i]
            v = self._values[i] = ERASED if token == "_" else int(token)
        return v

    def _all(self) -> list:
        if not self._built:
            self._values = [(ERASED if t == "_" else int(t)) if v is None else v
                            for v, t in zip(self._values, self.tokens)]
            self._built = True
        return self._values

    def __iter__(self):
        return iter(self._all())

    def __eq__(self, other):
        return self._all() == (other._all() if isinstance(other, LazyValues) else other)

    def __reduce__(self):
        return (LazyValues, (self.tokens,))


class ErasedFunction:
    """A function on a domain where some points carry ERASED instead of a value.

    ``declared_alpha`` is the erasure bound the instance promises, which
    testers trust; construction refuses an erased fraction above it.  All
    nonerased values must share one kind; mixing is rejected here, at
    construction.  A real value is an int, a Fraction or a finite float:
    ``inf``, ``-inf`` and NaN are refused.  Real values whose types are only
    int and Fraction are accepted by one pass over their types; any other
    type sends every value through ``_check_kind`` in order, so the first
    misfit is the one named.
    Real ``LazyValues`` are kept as they are, unbuilt: every token builds an
    int or ERASED, so only their erased count is taken.  A loaded file's
    values follow one rule: a plain integer token is an int, any other
    finite token a Fraction.
    """

    __slots__ = ("domain", "values", "kind", "modulus", "declared_alpha")

    def __init__(self, domain: Domain, values, kind: str = "real",
                 declared_alpha=None, modulus: Optional[int] = None):
        if kind not in VALUE_KINDS:
            raise ValueError(f"unknown value kind {kind!r}")
        if kind == "field":
            if modulus is None:
                raise ValueError("field functions need a modulus")
        elif modulus is not None:
            raise ValueError("modulus only applies to field functions")
        lazy = kind == "real" and type(values) is LazyValues
        if not lazy:
            values = list(values)
        if len(values) != domain.size:
            raise ValueError(f"expected {domain.size} values, got {len(values)}")
        if lazy:
            erased = values.erased
        elif kind == "real" and set(map(type, values)) <= _EXACT_REAL_TYPES:
            # every value fits: an exact type is neither a bool nor infinite
            erased = sum(map(operator.is_, values, itertools.repeat(ERASED)))
        else:
            erased = 0
            for v in values:
                if v is ERASED:
                    erased += 1
                elif not _check_kind(kind, v, modulus):
                    raise ValueError(f"value {v!r} does not fit kind {kind!r}")
        if erased == len(values):
            raise ValueError("function has no nonerased points")
        exact = Fraction(erased, len(values))
        if declared_alpha is None:
            declared_alpha = exact
        else:
            declared_alpha = exact_fraction(declared_alpha)
            if not 0 <= declared_alpha < 1:
                raise ValueError("declared_alpha must lie in [0, 1)")
            if exact > declared_alpha:
                raise ValueError(
                    f"erased fraction {exact} exceeds declared_alpha {declared_alpha}")
        self.domain = domain
        self.values = values
        self.kind = kind
        self.modulus = modulus
        self.declared_alpha = declared_alpha

    def value_at(self, pt):
        """Direct read for generators, oracles and certificate checks.
        Tester code paths must go through QueryOracle instead."""
        return self.values[self.domain.index_of(pt)]

    def erased_count(self) -> int:
        return sum(1 for v in self.values if v is ERASED)

    def nonerased_indices(self) -> list:
        return [i for i, v in enumerate(self.values) if v is not ERASED]

    def __repr__(self):
        return (f"ErasedFunction(n={self.domain.n}, d={self.domain.d}, "
                f"kind={self.kind}, erased={self.erased_count()}/{self.domain.size})")


def erased_fraction(fn: ErasedFunction) -> Fraction:
    return Fraction(fn.erased_count(), fn.domain.size)


def holds_values(fn: ErasedFunction, named) -> bool:
    """Every (point, value) in ``named`` is a point of ``fn``'s domain that
    holds exactly that value, which is not ERASED: O(d) per pair, with no
    scan of ``fn``, so certificate checks can call it on every trial."""
    try:
        for pt, v in named:
            if v is ERASED or fn.value_at(pt) != v:
                return False
    except (TypeError, ValueError):  # outside the domain, or of the wrong shape
        return False
    return True


class QueryOracle:
    """The only read channel testers may use.  Every read is one
    ``query_index``, which counts it; ``query`` is that read at a point."""

    __slots__ = ("fn", "budget", "count")

    def __init__(self, fn: ErasedFunction, budget: Optional[int] = None):
        self.fn, self.budget, self.count = fn, None, 0
        if budget is not None:
            self.set_budget(budget)

    def set_budget(self, budget: int):
        """Caps the reads at ``budget``, refused below 0 and past
        ``sys.maxsize``: no run spends such a cap, so a search of a member
        under it would not end."""
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        if budget > sys.maxsize:
            raise ValueError(f"query budget of at least 2**{int(budget).bit_length() - 1} "
                             f"exceeds sys.maxsize ({sys.maxsize})")
        self.budget = budget

    def query(self, pt):
        """``query_index(fn.domain.index_of(pt))``: an outside point raises uncharged."""
        return self.query_index(self.fn.domain.index_of(pt))

    def query_index(self, idx: int):
        """The one read, so an override sees every read a tester makes: the
        value at flat index ``idx`` (``Domain.index_of`` order), charged one
        query, or BudgetExhausted, uncharged, once the budget is spent.  An
        index outside [0, size) raises ValueError once charged."""
        if self.budget is None:
            raise RuntimeError("query before any budget was set")
        if self.count >= self.budget:
            raise BudgetExhausted(self.count)
        self.count += 1
        values = self.fn.values
        if 0 <= idx < len(values):
            return values[idx]
        raise ValueError(f"index {idx} outside domain of size {len(values)}")


def restrict_to_line(fn: ErasedFunction, axis: int, fixed: tuple) -> ErasedFunction:
    """Restriction to the axis-parallel line along ``axis`` (1-based) with the
    other coordinates fixed (in increasing dimension order)."""
    d, n = fn.domain.d, fn.domain.n
    if not 1 <= axis <= d:
        raise ValueError(f"axis {axis} outside 1..{d}")
    if len(fixed) != d - 1 or any(not 1 <= c <= n for c in fixed):
        raise ValueError("fixed coordinates do not match the domain")
    values = []
    for pos in range(1, n + 1):
        pt = fixed[:axis - 1] + (pos,) + fixed[axis - 1:]
        values.append(fn.value_at(pt))
    line = Domain.line(n)
    return ErasedFunction(line, values, kind=fn.kind, modulus=fn.modulus)


ACCEPT = "accept"
REJECT = "reject"

BUDGET_EXHAUSTED = "budget_exhausted"
VIOLATION_FOUND = "violation_found"
ALL_CHECKS_PASSED = "all_checks_passed"
ERASED_SAMPLE_ACCEPT = "erased_sample_accept"

_ACCEPT_REASONS = (BUDGET_EXHAUSTED, ALL_CHECKS_PASSED, ERASED_SAMPLE_ACCEPT)


@dataclass(frozen=True)
class Verdict:
    """Tester output.  Reject always carries a machine-checkable certificate;
    budget exhaustion is always an accept."""

    outcome: str
    reason: str
    queries_used: int
    certificate: object = None
    stats: Optional[dict] = None

    def __post_init__(self):
        if self.outcome == REJECT:
            if self.reason != VIOLATION_FOUND:
                raise ValueError("reject must be reasoned violation_found")
            if self.certificate is None:
                raise ValueError("reject needs a certificate")
        elif self.outcome == ACCEPT:
            if self.reason not in _ACCEPT_REASONS:
                raise ValueError(f"bad accept reason {self.reason!r}")
        else:
            raise ValueError(f"bad outcome {self.outcome!r}")

    @classmethod
    def accepted(cls, reason: str, queries: int, stats=None) -> "Verdict":
        return cls(ACCEPT, reason, queries, None, stats)

    @classmethod
    def rejected(cls, certificate, queries: int, stats=None) -> "Verdict":
        return cls(REJECT, VIOLATION_FOUND, queries, certificate, stats)

    @property
    def is_reject(self) -> bool:
        return self.outcome == REJECT

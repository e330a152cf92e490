"""Flat-file formats: functions, step bounds, posets, and certificates.

Function files are line-oriented text: a `domain` header, then one token
per point in canonical index order, `_` for an erased value.  Bounds files
start `bounds d n` with d >= 1 and n >= 2, then per dimension a row of n-1
lower and a row of n-1 upper bounds; a bound may also be `inf` or `-inf`.

Every number token, value or bound, follows one rule (``_parse_number``):
a plain integer token (an optional ``-``, then decimal digits) loads as
``int(token)``, and any other finite token (``7/3``, ``2.50``, ``1e-3``,
``+5``) as ``Fraction(token)``.  Both are exact, so slope comparisons stay
exact, and both refuse exactly the tokens Fraction refuses; ``int`` only
skips Fraction's regex.  A bounds file parses each distinct token once.

Every loader reads its file whole and splits it with one ``str.split``;
comments (``#`` to the end of a line) are cut line by line only when the
text holds a ``#``.  A real function file whose every value token is ``_``
or a plain integer, with one token per point, loads lazily: its values
are a ``core.LazyValues`` over the tokens, which builds a point's int the
first time it is read, so a tester pays only for the points it queries.
A token longer than CPython's int digit limit
(``sys.get_int_max_str_digits()``) keeps a file off that path, so the
parser refuses it at load, at its line, as it does any other bad token.
Every other file (a ``7/3`` or ``2e1`` token, a token count that does
not match the domain, a ``bit`` or ``field`` kind) is parsed token by
token, with the same values and errors.

What a parsed load builds is checked in C-level passes, not per token in
Python: ``ErasedFunction`` accepts real values by one pass over their
types (ints and Fractions here), and ``LineBoundingPair`` builds every row
with one side builder in O(n), summing a row of ints and its infinity as
plain ints.  Rows of ints, Fractions and their own infinity are ordered by
one C-level ``>`` pass, past float range too; others, and rows out of
order, take the per-entry checks, so every error names the first bad token.
"""
from __future__ import annotations

import contextlib
import json
from fractions import Fraction

from .core import (ERASED, ConfigError, Domain, ErasedFunction, LazyValues, _check_kind,
                   value_gt)
from .line import INF, LineBoundingPair
from .hypergrid import BoundingFamily
from .oracles import DistanceReport
from .transforms import Poset


def _tokens(path: str) -> list:
    """Every token of the file, by one ``str.split`` of its text; a ``#``
    starts a comment that runs to the end of its line."""
    with open(path) as fh:
        text = fh.read()
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.split("\n"))
    return text.split()


def _line_of(path: str, index: int) -> int:
    """Line number of the index-th token (0-based), or of the last line when
    the file has fewer tokens.  Reads the file again: error paths only."""
    count = 0
    lineno = 1
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            count += len(line.split("#", 1)[0].split())
            if count > index:
                break
    return lineno


_PARSE_ERRORS = (ValueError, ZeroDivisionError)


class _Reader:
    """The tokens of a flat file, in order.  It counts the tokens it hands
    out, so that every error names ``path:line`` (or ``path`` alone when no
    single line is at fault); the line itself is looked up only when an error
    is raised, so reading costs what it did without."""

    def __init__(self, path: str):
        self.path = path
        self.tokens = _tokens(path)
        self.taken = 0

    def error(self, index, message: str) -> ConfigError:
        where = self.path if index is None else f"{self.path}:{_line_of(self.path, index)}"
        return ConfigError(f"{where}: {message}")

    def build(self, make, at):
        """``make()``, with a ValueError it raises turned into an error at the
        token index ``at()`` returns (None: the whole file)."""
        try:
            return make()
        except ValueError as exc:
            raise self.error(at(), str(exc)) from None

    def take(self, what: str, parse=str):
        return self.take_many(1, what, parse)[0]

    def header(self, keyword: str) -> None:
        head = self.tokens[0] if self.tokens else None
        self.taken += 1
        if head != keyword:
            raise self.error(0, f"expected `{keyword}` header, got {head!r}")

    def take_many(self, count, what: str, parse) -> list:
        """The next ``count`` tokens (None: every remaining token), parsed.
        Errors name the first bad token, else the end of the file."""
        start = self.taken
        toks = self.tokens[start:None if count is None else start + count]
        self.taken += len(toks)
        try:
            out = list(map(parse, toks))
        except _PARSE_ERRORS:
            for i, tok in enumerate(toks):
                try:
                    parse(tok)
                except _PARSE_ERRORS:
                    raise self.error(start + i, f"expected {what}, got {tok!r}") from None
            raise
        if count is not None and len(toks) < count:
            raise self.error(self.taken, f"expected {what}, got end of file")
        return out


def _parse_number(token: str):
    """The one rule of every number token: ``int(token)`` for a plain
    integer token (an optional ``-``, then decimal digits), and
    ``Fraction(token)`` for any other.  It gives Fraction's value and
    refuses exactly the tokens Fraction refuses: ``int`` takes every plain
    integer token and skips Fraction's regex.  Every other token goes to
    Fraction directly: a failed ``int`` would cost more than the regex
    saves, and ``int`` accepts digit separators, which CPython 3.10's
    Fraction refuses."""
    if token.removeprefix("-").isdecimal():
        return int(token)
    return Fraction(token)


def _parse_real(token: str):
    """A function value token: ERASED for ``_``, else ``_parse_number``."""
    return ERASED if token == "_" else _parse_number(token)


def _parse_int(token: str):
    return ERASED if token == "_" else int(token)


def load_function(path: str, kind: str = "real", modulus=None) -> ErasedFunction:
    reader = _Reader(path)
    reader.header("domain")
    shape = reader.take("a domain shape")
    if shape == "line":
        sides = (reader.take("a side length", int), 1)
    elif shape == "grid":
        sides = (reader.take("a side length", int), reader.take("a dimension", int))
    else:
        raise reader.error(reader.taken - 1, f"unknown domain shape {shape!r}")
    start = reader.taken
    domain = reader.build(lambda: Domain(*sides), lambda: start - 1)
    values = None
    if kind == "real" and len(reader.tokens) - start == domain.size:
        with contextlib.suppress(ValueError):  # a token LazyValues refuses: parsed below
            values = LazyValues(reader.tokens[start:])
    if values is None:
        values = reader.take_many(None, f"a {kind} value or `_`",
                                  _parse_real if kind == "real" else _parse_int)
    if len(values) != domain.size:
        raise reader.error(start + domain.size,
                           f"{domain.size} points expected, {len(values)} tokens found")
    return reader.build(lambda: ErasedFunction(domain, values, kind=kind, modulus=modulus),
                        lambda: _misfit(values, kind, modulus, start))


def _first(start: int, faults):
    """``start`` plus the position of the first true flag in ``faults``, or None."""
    return next((start + i for i, bad in enumerate(faults) if bad), None)


def _misfit(values, kind, modulus, start):
    """Token index of the first value that does not fit ``kind``, or None
    when no single value is at fault (a missing modulus, no nonerased point)."""
    try:
        return _first(start, (v is not ERASED and not _check_kind(kind, v, modulus)
                              for v in values))
    except (TypeError, ValueError):
        return None


def _format_value(v) -> str:
    """A value's or bound's token: a float, or a float subclass such as
    numpy's, as the plain float's repr (``inf`` and ``-inf`` included)."""
    if v is ERASED:
        return "_"
    return repr(float(v)) if isinstance(v, float) else str(v)


def _write_lines(path: str, lines) -> None:
    """Formats every line before the file is opened: a failed save writes nothing."""
    text = "".join(line + "\n" for line in lines)
    with open(path, "w") as fh:
        fh.write(text)


def save_function(fn: ErasedFunction, path: str) -> None:
    dom = fn.domain
    header = f"domain line {dom.n}" if dom.is_line else f"domain grid {dom.n} {dom.d}"
    rows = (fn.values[start:start + dom.n] for start in range(0, dom.size, dom.n))
    _write_lines(path, [header, *(" ".join(map(_format_value, row)) for row in rows)])


def _parse_bound(token: str):
    """A bound token: the infinities for ``inf`` and ``-inf``, else
    ``_parse_number``."""
    if token == "inf":
        return INF
    if token == "-inf":
        return -INF
    return _parse_number(token)


def load_bounds(path: str):
    """LineBoundingPair for d=1, BoundingFamily otherwise.  Per dimension:
    a row of lower bounds, then a row of upper bounds, n-1 tokens each."""
    reader = _Reader(path)
    reader.header("bounds")
    d = reader.take("a dimension count", int)
    if d < 1:
        raise reader.error(1, f"bounds need a dimension count >= 1, got {d}")
    n = reader.take("a side length", int)
    if n < 2:
        raise reader.error(2, f"bounds need a side length >= 2, got {n}")
    # each distinct token parsed once, by a C-level map; a file holding a
    # bad token parses token by token, so the error names its own line
    distinct = set(reader.tokens[reader.taken:])
    try:
        parse = dict(zip(distinct, map(_parse_bound, distinct))).__getitem__
    except _PARSE_ERRORS:
        parse = _parse_bound
    pairs = []
    for _ in range(d):
        lower = reader.take_many(n - 1, "a lower bound", parse)
        upper = reader.take_many(n - 1, "an upper bound", parse)
        # an error names the line of the first upper bound not above its lower
        first_upper = reader.taken - len(upper)
        pairs.append(reader.build(
            lambda: LineBoundingPair(lower, upper),
            lambda: _first(first_upper, (not value_gt(u, l) for l, u in zip(lower, upper)))))
    if reader.taken < len(reader.tokens):
        raise reader.error(reader.taken, f"trailing tokens after {d} bound pairs")
    if d == 1:
        return pairs[0]
    return reader.build(lambda: BoundingFamily(tuple(pairs)), lambda: 1)


def save_bounds(obj, path: str) -> None:
    pairs = obj.per_dim if isinstance(obj, BoundingFamily) else (obj,)
    rows = (side for pair in pairs for side in (pair.lower, pair.upper))
    _write_lines(path, [f"bounds {len(pairs)} {pairs[0].n}",
                        *(" ".join(map(_format_value, row)) for row in rows)])


def load_poset(path: str) -> Poset:
    reader = _Reader(path)
    reader.header("poset")
    size = reader.take("a poset size", int)
    ends = reader.take_many(None, "an edge endpoint", int)
    if len(ends) % 2:
        raise reader.error(reader.taken, "expected the second endpoint of an edge, "
                                         "got end of file")
    # the size's line, an out-of-range endpoint's line, or (a cycle) no line
    return reader.build(lambda: Poset(size, list(zip(ends[::2], ends[1::2]))),
                        lambda: 1 if size < 1 else _first(2, (not 1 <= e <= size for e in ends)))


def save_poset(size: int, edges, path: str) -> None:
    _write_lines(path, [f"poset {size}", *(f"{u} {v}" for u, v in edges)])


# ---------------------------------------------------------------------------
# distance reports as JSON

def report_to_dict(report: DistanceReport) -> dict:
    cert = report.certificate
    payload = {
        "property": report.property,
        "absolute": report.absolute,
        "relative": str(report.relative),
        "is_lower_bound": report.is_lower_bound,
        "certificate_kind": cert[0],
    }
    if cert[0] == "kept":
        payload["kept"] = [list(pt) for pt in cert[1:]]
    else:
        payload["pairs"] = [[list(a), list(b)] for a, b in cert[1:]]
    if report.matching_bound is not None:
        payload["matching_bound"] = report.matching_bound
    return payload


def report_json_line(report: DistanceReport) -> str:
    return json.dumps(report_to_dict(report), separators=(",", ":"))

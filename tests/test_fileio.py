"""Token parsing in the flat-file loaders: every loaded real value and
finite bound has the value ``Fraction(token)`` gives, with the same
refusals, by one number rule: ``int(token)`` for a plain integer token (an
optional ``-``, then decimal digits) and ``Fraction(token)`` for any other."""
import math
import pickle
import re
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ertest import core, fileio
from ertest.core import ERASED, ConfigError, Domain, ErasedFunction, LazyValues, QueryOracle
from ertest.fileio import (
    _parse_bound,
    _parse_number,
    _parse_real,
    load_bounds,
    load_function,
    save_bounds,
    save_function,
)
from ertest.hypergrid import BoundingFamily
from ertest.line import INF, LineBoundingPair, _step_side, pair_violates

SETTINGS = settings(max_examples=300, deadline=None)


def _outcome(parse, token):
    """(type, value) of the result, or the type of the exception raised."""
    try:
        value = parse(token)
    except Exception as exc:  # the outcome under test, whatever it is
        return type(exc)
    return type(value), value


def _reference_number(token):
    """The number rule by a regex: int for a plain integer token, else Fraction."""
    return int(token) if re.fullmatch(r"-?\d+", token) else Fraction(token)


def _reference_value(token):
    return ERASED if token == "_" else _reference_number(token)


def _reference_bound(token):
    if token in ("inf", "-inf"):
        return float(token)
    return _reference_number(token)


# number-like text: signs, digits (ASCII and not), separators, points,
# exponents and slashes, so that the int path and its edges come up often
_NUMBERISH = st.text(alphabet="0123456789+-_./eE ٣²", min_size=1, max_size=8)
_BIG_INTS = st.integers(-2 ** 200, 2 ** 200).map(str)
_PADDED_INTS = st.builds(lambda sign, zeros, k: f"{sign}{'0' * zeros}{k}",
                         st.sampled_from(["", "+", "-"]), st.integers(0, 3),
                         st.integers(0, 10 ** 30))
_TOKENS = st.one_of(st.text(), _NUMBERISH, _BIG_INTS, _PADDED_INTS)

_LISTED = ["+5", "-0", "007", "1_000", "1e3", "7/3", "2.50", "٣", "²", "inf", "-inf",
           str(2 ** 63), str(2 ** 64 + 1), str(-2 ** 63 - 1), "1/0", "", " 5", "5 ", "_",
           "-", "--5", "+-5", "-+5", "-٣", "-²", "𝟓"]


def _with_listed(test):
    for token in _LISTED:
        test = example(token)(test)
    return test


@SETTINGS
@given(_TOKENS)
@_with_listed
def test_parse_exact_equals_fraction(token):
    """``_parse_number`` gives the number rule's type and value, refuses
    exactly the tokens Fraction refuses, and gives Fraction's value."""
    got, fraction = _outcome(_parse_number, token), _outcome(Fraction, token)
    assert got == _outcome(_reference_number, token)
    assert isinstance(got, tuple) == isinstance(fraction, tuple)
    if isinstance(got, tuple):
        assert got[1] == fraction[1]


@SETTINGS
@given(_TOKENS)
@_with_listed
def test_parse_real_and_bound_equal_their_references(token):
    assert _outcome(_parse_real, token) == _outcome(_reference_value, token)
    assert _outcome(_parse_bound, token) == _outcome(_reference_bound, token)


class _Fraction310(Fraction):
    """``Fraction`` as CPython 3.10 reads strings: no digit separators."""

    def __new__(cls, numerator=0, denominator=None):
        if isinstance(numerator, str) and "_" in numerator:
            raise ValueError(f"Invalid literal for Fraction: {numerator!r}")
        return Fraction(numerator, denominator)


@pytest.mark.parametrize("token", ["1_000", "-1_0", "+7_7", "1_0/3"])
def test_int_path_refuses_what_fraction_refuses(monkeypatch, tmp_path, token):
    """Where Fraction refuses digit separators, so does the loader, at the
    token's line, although ``int`` would take the token."""
    monkeypatch.setattr(fileio, "Fraction", _Fraction310)
    with pytest.raises(ValueError):
        _parse_number(token)
    path = tmp_path / "sep.fn"
    path.write_text(f"domain line 3\n1 2\n{token}\n")
    with pytest.raises(ConfigError) as info:
        load_function(str(path))
    assert str(info.value) == f"{path}:3: expected a real value or `_`, got {token!r}"


_FINITE = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 6)),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _erased_functions(draw):
    n = draw(st.integers(2, 6))
    domain = Domain.line(n) if draw(st.booleans()) else Domain.grid(n, 2)
    values = draw(st.lists(st.one_of(_FINITE, st.just(ERASED)),
                           min_size=domain.size, max_size=domain.size))
    if all(v is ERASED for v in values):
        values[0] = 0
    return ErasedFunction(domain, values)


@SETTINGS
@given(_erased_functions())
def test_function_round_trip_loads_fractions(tmp_path_factory, fn):
    """A saved value loads back by the number rule from its token: an int
    for an integral int or Fraction, a Fraction for any other, and a float
    as the Fraction of its repr."""
    path = str(tmp_path_factory.mktemp("fn") / "f.fn")
    save_function(fn, path)
    back = load_function(path)
    assert back.domain == fn.domain
    for v, w in zip(fn.values, back.values, strict=True):
        assert (type(w), w) == _outcome(_reference_value, "_" if v is ERASED else str(v))
        if not isinstance(v, float):
            assert w is ERASED if v is ERASED else w == v


def test_integral_fractions_load_back_as_ints(tmp_path):
    """An integral Fraction saves as a plain integer token and loads back as
    an int of equal value; any other Fraction loads back as itself."""
    values = [Fraction(6, 3), Fraction(-4), Fraction(0), ERASED, Fraction(10 ** 30),
              Fraction(7, 3), Fraction(-1, 2)]
    path = str(tmp_path / "f.fn")
    save_function(ErasedFunction(Domain.line(len(values)), values), path)
    back = load_function(path)
    assert _typed(back.values) == [(int, 2), (int, -4), (int, 0), (type(ERASED), ERASED),
                                   (int, 10 ** 30), (Fraction, Fraction(7, 3)),
                                   (Fraction, Fraction(-1, 2))]
    assert back.values == values


@st.composite
def _bound_pairs(draw, n):
    lower, upper = [], []
    for _ in range(n - 1):
        lo = draw(st.one_of(_FINITE, st.just(-INF)))
        if lo == -INF:
            up = draw(st.one_of(_FINITE, st.just(INF)))
        else:
            step = draw(st.one_of(st.integers(1, 10 ** 6), st.just(INF)))
            up = step if step == INF else lo + step
        lower.append(lo)
        upper.append(up)
    return LineBoundingPair(lower, upper)


@st.composite
def _bounds(draw):
    n = draw(st.integers(2, 7))
    d = draw(st.integers(1, 3))
    pairs = tuple(draw(_bound_pairs(n)) for _ in range(d))
    return pairs[0] if d == 1 else BoundingFamily(pairs)


def _entries(bounds):
    pairs = bounds.per_dim if isinstance(bounds, BoundingFamily) else (bounds,)
    return [v for pair in pairs for v in pair.lower + pair.upper]


@SETTINGS
@given(_bounds())
def test_bounds_round_trip_loads_fractions(tmp_path_factory, bounds):
    path = str(tmp_path_factory.mktemp("bounds") / "b.bounds")
    save_bounds(bounds, path)
    back = load_bounds(path)
    assert type(back) is type(bounds)
    for v, w in zip(_entries(bounds), _entries(back), strict=True):
        assert (type(w), w) == _outcome(_reference_bound, str(v))


def test_numpy_floats_save_as_plain_floats(tmp_path):
    np = pytest.importorskip("numpy")
    values, lower, upper = [0.5, ERASED, -0.0, 1e300], [-INF, -0.0, 0.5], [1.5, 1e300, INF]

    def numpy(vs):
        return [v if v is ERASED else np.float64(v) for v in vs]

    line = Domain.line(4)
    for save, load, plain, wrapped in [
            (save_function, load_function, ErasedFunction(line, values),
             ErasedFunction(line, numpy(values))),
            (save_bounds, load_bounds, LineBoundingPair(lower, upper),
             LineBoundingPair(numpy(lower), numpy(upper)))]:
        want, got = tmp_path / "plain", tmp_path / "numpy"
        save(plain, str(want))
        save(wrapped, str(got))
        assert got.read_bytes() == want.read_bytes()
        load(str(got))


@pytest.fixture
def default_digit_limit():
    """CPython's default int-to-str digit limit, whatever the environment set."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_a_failed_save_writes_nothing(tmp_path, default_digit_limit):
    """A value past the digit limit has no token; the save raises before the
    file is opened, so it creates no file and leaves an existing one as it was."""
    huge = Fraction(10 ** 4300)
    for save, obj in [(save_function, ErasedFunction(Domain.line(2), [1, huge])),
                      (save_bounds, LineBoundingPair([0], [huge]))]:
        fresh, kept = tmp_path / f"{save.__name__}.new", tmp_path / f"{save.__name__}.old"
        kept.write_text("kept\n")
        for path in (fresh, kept):
            with pytest.raises(ValueError):
                save(obj, str(path))
        assert not fresh.exists()
        assert kept.read_text() == "kept\n"


# tokens of every kind a file may hold, and number-like text, as one token
_FILE_TOKENS = st.one_of(
    st.sampled_from(["-0", "+5", "7/3", "1e-3", "inf", "-inf", "1_000", "_", "2.50",
                     "1/0", "-", "0x10", str(2 ** 70)]),
    _NUMBERISH.map(lambda t: t.replace(" ", "")).filter(bool),
)


@SETTINGS
@given(_FILE_TOKENS)
def test_loaded_values_are_what_fraction_gives(tmp_path_factory, token):
    """A token on line 3 of a function file loads by the number rule, by
    value and type (``_`` as ERASED), or is refused at ``path:3`` as
    Fraction refuses it."""
    path = str(tmp_path_factory.mktemp("fn") / "f.fn")
    with open(path, "w") as fh:
        fh.write(f"domain line 3\n1 2\n{token}\n")
    expected = _outcome(_reference_value, token)
    try:
        got = load_function(path).values[2]
    except ConfigError as exc:
        assert not isinstance(expected, tuple)
        assert str(exc) == f"{path}:3: expected a real value or `_`, got {token!r}"
    else:
        assert (type(got), got) == expected


def _shown(v):
    """A number as an error message shows it: past CPython's int-digit
    limit, where ``str`` refuses it, by its type and that limit."""
    try:
        return str(v)
    except ValueError:
        return f"a {type(v).__name__} of over {sys.get_int_max_str_digits()} digits"


@SETTINGS
@given(_FILE_TOKENS)
@example("-1E4300")  # a refused bound too long for str
def test_loaded_bounds_are_what_fraction_gives(tmp_path_factory, token):
    """An upper bound token loads as ``_reference_bound`` gives it, by value
    and type, or is refused at ``path:3``: as a token Fraction refuses, or
    as an upper bound not above its lower bound -10."""
    path = str(tmp_path_factory.mktemp("bounds") / "b.bounds")
    with open(path, "w") as fh:
        fh.write(f"bounds 1 3\n-10 -10\n{token} 10\n")
    expected = _outcome(_reference_bound, token)
    try:
        got = load_bounds(path)
    except ConfigError as exc:
        if isinstance(expected, tuple):
            message = f"need lower < upper, got -10 vs {_shown(expected[1])}"
        else:
            message = f"expected an upper bound, got {token!r}"
        assert str(exc) == f"{path}:3: {message}"
    else:
        assert (type(got.upper[0]), got.upper[0]) == expected
        assert got.seg_upper(1, 3) == expected[1] + 10


# bound tokens of every kind: plain and signed integers, fractions,
# decimals and the infinities
_BOUND_TOKENS = st.one_of(
    st.integers(-30, 30).map(str),
    st.integers(0, 30).map(lambda k: f"+{k}"),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-30, 30), st.integers(1, 4)),
    st.integers(-120, 120).map(lambda k: str(k / 4)),
    st.sampled_from(["inf", "-inf"]),
)
_PAIR_VALUES = st.one_of(st.integers(-90, 90),
                         st.builds(Fraction, st.integers(-90, 90), st.integers(1, 4)),
                         st.floats(-90, 90))


def _fraction_bound(token):
    return float(token) if token in ("inf", "-inf") else Fraction(token)


@st.composite
def _bound_rows(draw):
    """Lower and upper token rows of one length, each step in order."""
    steps = draw(st.lists(st.tuples(_BOUND_TOKENS, _BOUND_TOKENS).filter(
        lambda s: _fraction_bound(s[0]) != _fraction_bound(s[1])), min_size=1, max_size=6))
    steps = [sorted(s, key=_fraction_bound) for s in steps]
    return [l for l, _ in steps], [u for _, u in steps]


@SETTINGS
@given(_bound_rows(), st.data())
def test_loaded_bounds_sum_and_check_as_fraction_bounds(tmp_path_factory, rows, data):
    """A loaded pair gives every segment sum and every pair verdict that the
    pair of the tokens' ``Fraction`` entries gives; a side of plain
    integers and its own infinity takes the int path."""
    lower, upper = rows
    n = len(lower) + 1
    path = str(tmp_path_factory.mktemp("bounds") / "b.bounds")
    with open(path, "w") as fh:
        fh.write(f"bounds 1 {n}\n{' '.join(lower)}\n{' '.join(upper)}\n")
    got = load_bounds(path)
    want = LineBoundingPair(list(map(_fraction_bound, lower)), list(map(_fraction_bound, upper)))
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            assert got.seg_lower(a, b) == want.seg_lower(a, b)
            assert got.seg_upper(a, b) == want.seg_upper(a, b)
    for _ in range(8):
        a, b = sorted(data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
        fa, fb = data.draw(_PAIR_VALUES), data.draw(_PAIR_VALUES)
        assert pair_violates(got, a, fa, b, fb) == pair_violates(want, a, fa, b, fb)
    for side, sign, tokens, own in ((got.lower, -1, lower, "-inf"), (got.upper, 1, upper, "inf")):
        if all(t == own or re.fullmatch(r"-?\d+", t) for t in tokens):
            exact, sums, _ = _step_side(side, sign)
            assert exact is True and all(type(s) is int for s in sums)


class _Int(int):
    pass


def test_a_bound_past_float_range_beside_infinity_loads(tmp_path):
    """A 400-digit lower bound beside ``inf`` uppers is in order: the file
    loads, and its sums are exact."""
    path = tmp_path / "huge.bounds"
    path.write_text(f"bounds 1 3\n{'1' * 400} 0\ninf inf\n")
    pair = load_bounds(str(path))
    assert pair.lower == (int("1" * 400), 0) and pair.upper == (INF, INF)
    assert (pair.seg_lower(1, 3), pair.seg_upper(1, 3)) == (int("1" * 400), INF)


_REAL = st.one_of(st.integers(-5, 5), st.integers(-5, 5).map(Fraction),
                  st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)), st.just(ERASED))
_MISFITS = st.one_of(st.booleans(), st.just(math.nan), st.floats(-5, 5),
                     st.sampled_from(["1", None, 1j, (1,), _Int(3)]))


def _reference_construction(values, kind, modulus):
    """What ``ErasedFunction`` does, checking one value at a time: the
    erased count, or the message of its first refusal."""
    def fits(v):
        if kind == "real":
            if isinstance(v, float):
                return v == v
            return isinstance(v, (int, Fraction)) and not isinstance(v, bool)
        ok = isinstance(v, int) and not isinstance(v, bool)
        return ok and (v in (0, 1) if kind == "bit" else 0 <= v < modulus)

    for v in values:
        if v is not ERASED and not fits(v):
            return f"value {v!r} does not fit kind {kind!r}"
    if all(v is ERASED for v in values):
        return "function has no nonerased points"
    return sum(v is ERASED for v in values)


@SETTINGS
@given(st.lists(st.one_of(_REAL, _MISFITS), min_size=1, max_size=8),
       st.sampled_from([("real", None), ("bit", None), ("field", 5)]))
def test_erased_function_refuses_misfits_as_before(values, kind_modulus):
    """bool, NaN, values of another kind and unknown types are refused with
    the message the first of them gets; every other list is accepted with
    its erased count."""
    kind, modulus = kind_modulus
    try:
        fn = ErasedFunction(Domain.line(len(values)), values, kind=kind, modulus=modulus)
    except ValueError as exc:
        got = str(exc)
    else:
        got = fn.erased_count()
        assert fn.declared_alpha == Fraction(got, len(values))
    assert got == _reference_construction(values, kind, modulus)


# ---------------------------------------------------------------------------
# plain-integer function files load lazily


def _no_lazy(tokens):
    raise ValueError("every file takes the token parser")


def _load(path, lazy=True):
    """The loaded function, or the message of the loader's refusal; with
    ``lazy=False`` every file goes through the token parser."""
    with mock.patch.object(fileio, "LazyValues", LazyValues if lazy else _no_lazy):
        try:
            return load_function(path)
        except ConfigError as exc:
            return str(exc)


def _typed(values):
    return [(type(v), v) for v in values]


# what each check reads of a freshly loaded function's values
_READS = {
    "index": lambda vs: [vs[i] for i in range(len(vs))],
    "negative-index": lambda vs: [vs[i] for i in range(-len(vs), 0)],
    "iteration": list,
    "slice": lambda vs: vs[1:-1] + vs[::-1],
    "pickle": lambda vs: list(pickle.loads(pickle.dumps(vs))),
}

_PLAIN_TOKENS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.integers(-2 ** 80, 2 ** 80).map(str),
    st.just("_"),
    st.sampled_from(["-0", "0", "007", "-007", "٣", "-٣٤", "𝟓", "0" * 30]),
)
_NOT_PLAIN_TOKENS = st.sampled_from(["7/3", "+5", "1_0", "x", "2e1", "-", "--5", "-_", "²"])


@st.composite
def _plain_files(draw):
    """(text, lazy): a function file of plain-integer tokens, perhaps with
    one token too few or too many, one token that is not plain, a token at
    or one past the int digit limit, or every point erased; ``lazy`` says
    whether it should load lazily."""
    if draw(st.booleans()):
        n, d = draw(st.integers(1, 12)), 1
        header = f"domain line {n}"
    else:
        n, d = draw(st.integers(1, 4)), draw(st.integers(2, 3))
        header = f"domain grid {n} {d}"
    tokens = draw(st.lists(_PLAIN_TOKENS, min_size=n ** d, max_size=n ** d))
    lazy = True
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit and draw(st.booleans()):
        long_token = draw(st.sampled_from(
            ["7" * limit, "-" + "7" * limit, "1" * (limit + 1), "0" * limit + "1"]))
        tokens[draw(st.integers(0, len(tokens) - 1))] = long_token
        lazy = len(long_token) <= limit
    change = draw(st.sampled_from(["none", "short", "extra", "not-plain", "all-erased"]))
    if change == "short":
        tokens.pop(draw(st.integers(0, len(tokens) - 1)))
    elif change == "extra":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_PLAIN_TOKENS))
    elif change == "not-plain":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_NOT_PLAIN_TOKENS)
    elif change == "all-erased":
        tokens = ["_"] * len(tokens)
    lazy = lazy and change in ("none", "all-erased")
    lines = [header + draw(st.sampled_from(["", " # header", "#"]))]
    line = []
    for token in tokens:
        line.append(token)
        if draw(st.integers(0, 3)) == 0:
            lines.append(" ".join(line) + draw(st.sampled_from(["", " # 1 2 x", "#_"])))
            line = []
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["# 5 6", "", "  "])))
    lines.append(" ".join(line))
    return "\n".join(lines) + "\n", lazy


@SETTINGS
@given(_plain_files())
def test_plain_integer_files_load_lazily_as_the_parser_loads_them(tmp_path_factory, file):
    """A real function file of ``_`` and plain integer tokens, of the
    domain's size and within the digit limit, loads lazily; every read of
    it gives the parser's values and types, and every other file goes
    through the parser, with the same refusal at the same ``path:line``."""
    text, lazy = file
    path = str(tmp_path_factory.mktemp("fn") / "f.fn")
    with open(path, "w") as fh:
        fh.write(text)
    eager = _load(path, lazy=False)
    got = _load(path)
    if isinstance(eager, str):
        assert got == eager
        return
    assert type(eager.values) is list
    assert type(got.values) is (LazyValues if lazy else list)
    assert got.domain == eager.domain and got.kind == eager.kind
    for name, read in _READS.items():
        fresh = _load(path)
        assert _typed(read(fresh.values)) == _typed(read(eager.values)), name
    fresh = _load(path)
    again = pickle.loads(pickle.dumps(fresh))
    assert type(again.values) is type(fresh.values)
    for fn in (_load(path), again):
        assert fn.values == eager.values and eager.values == fn.values
        assert fn.values == _load(path).values
        assert not fn.values != eager.values
    for fn in (_load(path), again):
        assert fn.erased_count() == eager.erased_count()
        assert (type(fn.declared_alpha), fn.declared_alpha) == (
            type(eager.declared_alpha), eager.declared_alpha)
        assert fn.nonerased_indices() == eager.nonerased_indices()


def test_one_query_builds_one_value(tmp_path, monkeypatch):
    """Loading builds no value, and one query builds the one int it reads."""
    path = tmp_path / "big.fn"
    path.write_text("domain line 1024\n" + " ".join(map(str, range(1024))) + "\n")
    fn = load_function(str(path))
    built = []

    def counted(*args):
        built.append(args)
        return int(*args)

    # ``core`` looks ``int`` up in its globals before the builtins
    monkeypatch.setattr(core, "int", counted, raising=False)
    oracle = QueryOracle(fn, budget=2)
    for _ in range(2):
        value = oracle.query((700,))
        assert (type(value), value) == (int, 699)
    assert built == [("699",)]


@pytest.mark.parametrize("token", ["x", "--5", "1" * 4301, "0" * 4300 + "1"],
                         ids=["x", "double-minus", "4301-digits", "4301-digits-leading-zeros"])
def test_a_bad_token_in_an_integer_file_is_refused_at_its_line(tmp_path, token,
                                                               default_digit_limit):
    """A token past the digit limit is refused at load, at its line, as any
    other token the parser refuses: no value is left to fail at a query."""
    path = tmp_path / "bad.fn"
    path.write_text(f"domain line 4\n1 2\n{token} 4\n")
    with pytest.raises(ConfigError) as info:
        load_function(str(path))
    assert str(info.value) == f"{path}:3: expected a real value or `_`, got {token!r}"

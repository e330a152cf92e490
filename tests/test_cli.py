"""Command-line surface and the flat-file formats underneath it."""
import json
from fractions import Fraction

import pytest

from ertest.cli import main
from ertest.core import (ALL_CHECKS_PASSED, ERASED, ConfigError, Domain, ErasedFunction,
                         LazyValues, Verdict, erased_fraction)
from ertest.fileio import (
    load_bounds,
    load_function,
    load_poset,
    report_to_dict,
    save_bounds,
    save_function,
    save_poset,
)
from ertest.harness import CSV_COLUMNS, TESTERS, WORKERS_ENV
from ertest.harness import TesterEntry as RegistryEntry
from ertest.line import INF, LineBoundingPair
from ertest.hypergrid import BoundingFamily
from ertest.oracles import PropertySpec
from ertest import adversary
from ertest.adversary import certify_distance

from reference_testers import poset_le


def write_lines(path, text):
    path.write_text(text)
    return str(path)


def sorted_line_file(tmp_path, n=16, name="sorted.fn"):
    fn = ErasedFunction(Domain.line(n), list(range(1, n + 1)))
    path = tmp_path / name
    save_function(fn, str(path))
    return str(path)


def reversed_line_file(tmp_path, n=64, name="reversed.fn"):
    fn = ErasedFunction(Domain.line(n), list(range(n, 0, -1)))
    path = tmp_path / name
    save_function(fn, str(path))
    return str(path)


# ---------------------------------------------------------------------------
# file formats

def test_function_file_round_trip(tmp_path):
    vals = [Fraction(1, 3), ERASED, Fraction(-7, 2), 4]
    fn = ErasedFunction(Domain.line(4), vals)
    path = tmp_path / "f.fn"
    save_function(fn, str(path))
    back = load_function(str(path))
    assert back.values == [Fraction(1, 3), ERASED, Fraction(-7, 2), 4]
    assert back.domain == fn.domain

    grid = ErasedFunction(Domain.grid(3, 2), [ERASED] + list(range(8)))
    gpath = tmp_path / "g.fn"
    save_function(grid, str(gpath))
    gback = load_function(str(gpath))
    assert gback.domain == Domain.grid(3, 2)
    assert gback.values == grid.values


def test_function_file_tokens_and_comments(tmp_path):
    path = write_lines(tmp_path / "c.fn", (
        "domain line 4   # four points\n"
        "1.5 _  # hole\n"
        "7/3 2e1\n"))
    fn = load_function(path)
    assert fn.values == [Fraction(3, 2), ERASED, Fraction(7, 3), 20]

    bits = write_lines(tmp_path / "b.fn", "domain line 3\n0 1 _\n")
    assert load_function(bits, kind="bit").values == [0, 1, ERASED]
    field = write_lines(tmp_path / "q.fn", "domain line 3\n0 1 2\n")
    assert load_function(field, kind="field", modulus=5).modulus == 5


def test_function_file_errors(tmp_path):
    short = write_lines(tmp_path / "s.fn", "domain line 4\n1 2 3\n")
    with pytest.raises(ValueError, match="4 points expected"):
        load_function(short)
    noheader = write_lines(tmp_path / "n.fn", "1 2 3\n")
    with pytest.raises(ValueError, match="expected `domain` header"):
        load_function(noheader)
    badshape = write_lines(tmp_path / "t.fn", "domain torus 4\n1 2 3 4\n")
    with pytest.raises(ValueError, match="unknown domain shape"):
        load_function(badshape)


def _config_error(loader, path, message):
    with pytest.raises(ConfigError) as info:
        loader(path)
    assert str(info.value) == f"{path}:{message}"


def test_function_file_errors_name_file_and_line(tmp_path, capsys):
    truncated = write_lines(tmp_path / "t.fn", "# a line function\ndomain line\n")
    _config_error(load_function, truncated, "2: expected a side length, got end of file")
    noshape = write_lines(tmp_path / "e.fn", "domain\n")
    _config_error(load_function, noshape, "1: expected a domain shape, got end of file")
    badsize = write_lines(tmp_path / "z.fn", "domain grid 3 two\n")
    _config_error(load_function, badsize, "1: expected a dimension, got 'two'")
    badtoken = write_lines(tmp_path / "x.fn", "domain line 4\n1 2\n3 x  # typo\n")
    _config_error(load_function, badtoken, "3: expected a real value or `_`, got 'x'")
    badbit = write_lines(tmp_path / "b.fn", "domain line 3\n0\n1/2 1\n")
    with pytest.raises(ConfigError, match=r"b\.fn:3: expected a bit value or `_`, got '1/2'"):
        load_function(badbit, kind="bit")
    short = write_lines(tmp_path / "s.fn", "domain line 4\n1 2\n3\n\n")
    _config_error(load_function, short, "4: 4 points expected, 3 tokens found")
    long = write_lines(tmp_path / "l.fn", "domain line 2\n1 2\n3\n")
    _config_error(load_function, long, "3: 2 points expected, 3 tokens found")
    # the CLI prints the located message, not an empty `error: `
    assert main(["test", "--tester", "monotone-line", "--input", truncated,
                 "--eps", "1/4"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {truncated}:2: expected a side length, got end of file\n"


def test_bounds_file_errors_name_file_and_line(tmp_path):
    truncated = write_lines(tmp_path / "t.bounds", "bounds 2 3\n0 0\n1 1\n0 0\n1\n")
    _config_error(load_bounds, truncated, "5: expected an upper bound, got end of file")
    noside = write_lines(tmp_path / "n.bounds", "bounds 1\n")
    _config_error(load_bounds, noside, "1: expected a side length, got end of file")
    badtoken = write_lines(tmp_path / "x.bounds", "bounds 1 3\n0 -1/0\n1 1\n")
    _config_error(load_bounds, badtoken, "2: expected a lower bound, got '-1/0'")
    trailing = write_lines(tmp_path / "y.bounds", "bounds 1 3\n0 0\n1 1\n\n99\n")
    _config_error(load_bounds, trailing, "5: trailing tokens after 1 bound pairs")


@pytest.mark.parametrize("header, message", [
    ("bounds 1 1", "1: bounds need a side length >= 2, got 1"),
    ("bounds 1 0", "1: bounds need a side length >= 2, got 0"),
    ("bounds 1 -3", "1: bounds need a side length >= 2, got -3"),
    ("bounds 0 3", "1: bounds need a dimension count >= 1, got 0"),
    ("bounds -2 3", "1: bounds need a dimension count >= 1, got -2"),
    ("bounds\n1\n0", "3: bounds need a side length >= 2, got 0"),
], ids=["side-1", "side-0", "side-negative", "dims-0", "dims-negative", "split-header"])
def test_bounds_file_refuses_bad_headers(tmp_path, header, message):
    path = write_lines(tmp_path / "h.bounds", header + "\n0 0\n1 1\n")
    _config_error(load_bounds, path, message)


def test_poset_file_errors_name_file_and_line(tmp_path):
    truncated = write_lines(tmp_path / "t.poset", "poset 4\n1 2\n3\n")
    _config_error(load_poset, truncated,
                  "3: expected the second endpoint of an edge, got end of file")
    nosize = write_lines(tmp_path / "n.poset", "poset\n")
    _config_error(load_poset, nosize, "1: expected a poset size, got end of file")
    badtoken = write_lines(tmp_path / "x.poset", "poset 4\n1 2\n2 three\n")
    _config_error(load_poset, badtoken, "3: expected an edge endpoint, got 'three'")
    empty = write_lines(tmp_path / "e.poset", "")
    _config_error(load_poset, empty, "1: expected `poset` header, got None")


# (file name, contents, `ertest test` arguments before the path, message after it)
VALUE_FAULTS = [
    ("zero.fn", "domain line 0\n", ["--input"], ":1: domain needs n >= 1 and d >= 1"),
    ("two.fn", "domain line 3\n0 1\n2\n", ["--kind", "bit", "--input"],
     ":3: value 2 does not fit kind 'bit'"),
    ("nomod.fn", "domain line 3\n0 1 2\n", ["--kind", "field", "--input"],
     ": field functions need a modulus"),
    ("badmod.fn", "domain line 3\n0 1\n4\n", ["--kind", "field", "--modulus", "3", "--input"],
     ":3: value 4 does not fit kind 'field'"),
    ("step.bounds", "bounds 1 3\n0 1\n1 1\n", ["--bounds"], ":3: need lower < upper, got 1 vs 1"),
    ("cycle.poset", "poset 3\n1 2\n2 3\n3 1\n", ["--poset"], ": edge list contains a cycle"),
]


@pytest.mark.parametrize("name, text, args, message", VALUE_FAULTS,
                         ids=[case[0] for case in VALUE_FAULTS])
def test_invalid_file_values_name_the_file(tmp_path, capsys, name, text, args, message):
    path = write_lines(tmp_path / name, text)
    argv = ["test", "--tester", "monotone-line", "--eps", "1/4", *args, path]
    if "--input" not in args:
        argv += ["--input", sorted_line_file(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}{message}\n"


GRID_3x3 = "domain grid 3 2\n0 1 2\n1 2 3\n2 3 4\n"

# (tester or property, function file contents, bounds file contents, message):
# ``ertest test`` and ``ertest distance`` refuse each pair, and each line
# property on a grid, with the same line
BOUNDS_MISFITS = [
    ("bdp-grid", GRID_3x3, "bounds 1 3\n-1 -1\n1 1\n",
     "bdp-grid needs BoundingFamily bounds, got LineBoundingPair"),
    ("bdp-line", "domain line 3\n0 1 2\n", "bounds 2 3\n0 0\n1 1\n0 0\n1 1\n",
     "bdp-line needs LineBoundingPair bounds, got BoundingFamily"),
    ("bdp-line", "domain line 4\n0 1 2 3\n", "bounds 1 3\n0 0\n1 1\n",
     "bdp-line bounds have n=3, d=1; the domain has n=4, d=1"),
    ("bdp-grid", GRID_3x3, "bounds 2 4\n-1 -1 -1\n1 1 1\n-1 -1 -1\n1 1 1\n",
     "bdp-grid bounds have n=4, d=2; the domain has n=3, d=2"),
    ("bdp-grid", GRID_3x3, "bounds 3 3\n-1 -1\n1 1\n-1 -1\n1 1\n-1 -1\n1 1\n",
     "bdp-grid bounds have n=3, d=3; the domain has n=3, d=2"),
    *((tag, GRID_3x3, "bounds 1 3\n-1 -1\n1 1\n", f"{tag} runs on line domains, got d=2")
      for tag in ("bdp-line", "monotone-line", "convex-line")),
]
MISFIT_IDS = ["line-bounds-on-grid", "grid-bounds-on-line", "line-length", "grid-side",
              "grid-dimension", "bdp-line-on-grid", "monotone-line-on-grid",
              "convex-line-on-grid"]


@pytest.mark.parametrize("tester, fn_text, bounds_text, message", BOUNDS_MISFITS,
                         ids=MISFIT_IDS)
def test_bounds_that_do_not_fit_the_tester_name_it(tmp_path, capsys, tester, fn_text,
                                                   bounds_text, message):
    fn_path = write_lines(tmp_path / "f.fn", fn_text)
    bounds_path = write_lines(tmp_path / "b.bounds", bounds_text)
    assert main(["test", "--tester", tester, "--input", fn_path, "--eps", "1/4",
                 "--bounds", bounds_path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bounds_file_round_trip(tmp_path):
    pair = LineBoundingPair((0, -INF, Fraction(1, 2)), (1, INF, 2))
    path = tmp_path / "b.bounds"
    save_bounds(pair, str(path))
    back = load_bounds(str(path))
    assert back.lower == pair.lower and back.upper == pair.upper

    fam = BoundingFamily.lipschitz(3, 2, c=2)
    fpath = tmp_path / "f.bounds"
    save_bounds(fam, str(fpath))
    fback = load_bounds(str(fpath))
    assert isinstance(fback, BoundingFamily)
    for got, want in zip(fback.per_dim, fam.per_dim):
        assert got.lower == want.lower and got.upper == want.upper


def test_bounds_file_errors(tmp_path):
    trailing = write_lines(tmp_path / "x.bounds",
                           "bounds 1 3\n0 0\n1 1\n99\n")
    with pytest.raises(ValueError, match="trailing tokens"):
        load_bounds(trailing)
    noheader = write_lines(tmp_path / "y.bounds", "1 3\n0 0\n1 1\n")
    with pytest.raises(ValueError, match="expected `bounds` header"):
        load_bounds(noheader)


def test_poset_file_round_trip(tmp_path):
    path = tmp_path / "p.poset"
    save_poset(4, [(1, 2), (1, 3), (3, 4)], str(path))
    poset = load_poset(str(path))
    assert poset_le(poset, 1, 4)  # through 3
    assert not poset_le(poset, 2, 3)
    noheader = write_lines(tmp_path / "z.poset", "4\n1 2\n")
    with pytest.raises(ValueError, match="expected `poset` header"):
        load_poset(noheader)


# ---------------------------------------------------------------------------
# test subcommand

def test_cli_test_accepts_member(tmp_path, capsys):
    path = sorted_line_file(tmp_path)
    code = main(["test", "--tester", "monotone-line", "--input", path,
                 "--eps", "1/4", "--seed", "3"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "accept"
    assert out["queries_used"] >= 1


def test_cli_test_rejects_far_input(tmp_path, capsys):
    path = reversed_line_file(tmp_path)
    code = main(["test", "--tester", "monotone-line", "--input", path,
                 "--eps", "1/4", "--seed", "0"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "reject"
    assert out["certificate"][0] == "monotone-violation"


def test_cli_test_prints_integer_values_as_json_numbers(tmp_path, capsys):
    """A plain integer token loads as an int, so a certificate prints its
    value as a JSON number; a ``3/2`` token loads as a Fraction and prints
    as a string."""
    path = reversed_line_file(tmp_path)
    assert main(["test", "--tester", "monotone-line", "--input", path,
                 "--eps", "1/4", "--seed", "0"]) == 1
    tag, *named = json.loads(capsys.readouterr().out)["certificate"]
    assert tag == "monotone-violation" and len(named) == 2
    for pos, value in named:
        assert type(value) is int and value == 65 - pos
    mixed = write_lines(tmp_path / "mixed.fn", "domain line 4\n1 2 3/2 4\n")
    assert main(["test", "--tester", "monotone-line", "--input", mixed,
                 "--eps", "1/4", "--seed", "0"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["certificate"] == ["monotone-violation", [2, 2], [3, "3/2"]]


def test_cli_test_k_runs_and_low_degree(tmp_path, capsys):
    bits = write_lines(tmp_path / "bits.fn",
                       "domain line 8\n0 0 0 0 1 1 1 1\n")
    assert main(["test", "--tester", "k-runs", "--input", bits,
                 "--kind", "bit", "--k", "2", "--eps", "3/4"]) == 0
    affine = write_lines(tmp_path / "aff.fn", "domain line 17\n" + " ".join(
        str((3 * x + 2) % 17) for x in range(17)) + "\n")
    assert main(["test", "--tester", "low-degree", "--input", affine,
                 "--kind", "field", "--modulus", "17", "--degree", "1"]) == 0
    capsys.readouterr()


def test_a_line_longer_than_the_field_is_refused_alike(tmp_path, capsys):
    """(3x+2) mod 7 on 14 points: positions 2 and 9 name elements 1 and
    8 = 1 (mod 7), so the tester's interpolation nodes would coincide and it
    would reject this member.  Both commands refuse the file with one line."""
    path = write_lines(tmp_path / "gf7.fn", "domain line 14\n" + " ".join(
        str((3 * x + 2) % 7) for x in range(14)) + "\n")
    field = ["--input", path, "--kind", "field", "--modulus", "7", "--degree", "1"]
    for command in (["test", "--tester", "low-degree", "--seed", "30"],
                    ["distance", "--property", "low-degree"]):
        assert main(command + field) == 2
        assert capsys.readouterr().err == (
            "error: low-degree needs a line of at most p=7 points, got n=14\n")


def test_cli_error_paths_exit_two(tmp_path, capsys):
    path = sorted_line_file(tmp_path)
    assert main(["test", "--tester", "monotone-line",
                 "--input", str(tmp_path / "missing.fn"), "--eps", "1/4"]) == 2
    assert main(["test", "--tester", "nonsense", "--input", path,
                 "--eps", "1/4"]) == 2
    assert main(["test", "--tester", "monotone-line", "--input", path]) == 2
    bits = write_lines(tmp_path / "b.fn", "domain line 4\n0 1 0 1\n")
    assert main(["test", "--tester", "k-runs", "--input", bits,
                 "--kind", "bit", "--eps", "1/2"]) == 2  # k missing
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("eps", ["0", "-1", "2"])
def test_cli_test_refuses_eps_outside_unit_interval(tmp_path, capsys, eps):
    bits = write_lines(tmp_path / "b.fn", "domain line 4\n0 0 1 1\n")
    poset = write_lines(tmp_path / "chain.poset", "poset 4\n1 2\n2 3\n3 4\n")
    assert main(["test", "--tester", "poset-monotone", "--kind", "bit",
                 "--input", bits, "--poset", poset, "--eps", eps]) == 2
    assert "proximity parameter" in capsys.readouterr().err


def test_cli_test_range_errors_print_the_value(tmp_path, capsys):
    bits = write_lines(tmp_path / "b.fn", "domain line 4\n0 0 1 1\n")
    poset = write_lines(tmp_path / "chain.poset", "poset 4\n1 2\n2 3\n3 4\n")
    assert main(["test", "--tester", "poset-monotone", "--kind", "bit",
                 "--input", bits, "--poset", poset, "--eps", "0"]) == 2
    assert capsys.readouterr().err == "error: proximity parameter 0 outside (0,1)\n"
    assert main(["test", "--tester", "monotone-line", "--input", sorted_line_file(tmp_path),
                 "--eps", "1/4", "--alpha", "1"]) == 2
    assert capsys.readouterr().err == "error: erasure bound 1 outside [0,1)\n"


@pytest.mark.parametrize("size", [4, 16])
def test_cli_test_refuses_a_poset_that_does_not_fit(tmp_path, capsys, size):
    """A poset of another size than the domain is refused with one named
    line, not an IndexError (smaller) or a verdict on part of it (larger)."""
    bits = write_lines(tmp_path / "b.fn", "domain line 8\n0 0 1 1 0 1 1 1\n")
    edges = "".join(f"{i} {i + 1}\n" for i in range(1, size))
    poset = write_lines(tmp_path / "chain.poset", f"poset {size}\n{edges}")
    assert main(["test", "--tester", "poset-monotone", "--kind", "bit",
                 "--input", bits, "--poset", poset, "--eps", "1/4"]) == 2
    assert capsys.readouterr().err == (
        f"error: poset-monotone needs a poset of 8 elements, got {size}\n")


def test_cli_test_enforces_the_budget(tmp_path, capsys):
    def run(cfg, oracle, alpha, rng):
        oracle.set_budget(5)
        for _ in range(3):
            oracle.query((1,))
        return Verdict.accepted(ALL_CHECKS_PASSED, oracle.count)

    TESTERS["overbudget-probe"] = RegistryEntry(
        run=run, budget=lambda cfg, fn, alpha: 2,
        validate=lambda cfg, fn, cert: True, needs=())
    try:
        assert main(["test", "--tester", "overbudget-probe",
                     "--input", sorted_line_file(tmp_path)]) == 2
    finally:
        del TESTERS["overbudget-probe"]
    assert "exceeded the budget 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# distance subcommand

def test_cli_distance_reports(tmp_path, capsys):
    path = reversed_line_file(tmp_path, n=8)
    assert main(["distance", "--property", "monotone-line",
                 "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["property"] == "monotone-line"
    assert report["absolute"] == 7
    assert report["relative"] == "7/8"
    assert report["certificate_kind"] == "kept"
    assert len(report["kept"]) == 1

    bits = write_lines(tmp_path / "alt.fn", "domain line 8\n0 1 0 1 0 1 0 1\n")
    assert main(["distance", "--property", "k-runs", "--input", bits,
                 "--kind", "bit", "--k", "2"]) == 0
    runs = json.loads(capsys.readouterr().out)
    assert runs["absolute"] == 3


def test_cli_distance_error(tmp_path, capsys):
    path = sorted_line_file(tmp_path)
    assert main(["distance", "--property", "unheard-of", "--input", path]) == 2
    assert capsys.readouterr().err.startswith("error: unknown property 'unheard-of'; known: [")


@pytest.mark.parametrize("prop, text, args, name", [
    ("k-runs", "domain line 4\n0 0 1 1\n", ["--kind", "bit"], "k"),
    ("bdp-line", "domain line 4\n1 2 3 4\n", [], "bounds"),
    ("low-degree", "domain line 5\n0 1 2 3 4\n", ["--kind", "field", "--modulus", "5"],
     "degree"),
], ids=["k-runs", "bdp-line", "low-degree"])
def test_cli_distance_names_a_missing_parameter(tmp_path, capsys, prop, text, args, name):
    """Refused when the property is named, not by a crash in its oracle."""
    path = write_lines(tmp_path / "in.fn", text)
    assert main(["distance", "--property", prop, "--input", path, *args]) == 2
    assert capsys.readouterr().err == f"error: {prop} needs {name}\n"


def test_cli_distance_reports_a_matching(tmp_path, capsys):
    path = write_lines(tmp_path / "g.fn", "domain grid 2 2\n0 9\n9 0\n")
    bounds = write_lines(tmp_path / "lip.bounds", "bounds 2 2\n-1\n1\n-1\n1\n")
    assert main(["distance", "--property", "bdp-grid", "--input", path,
                 "--bounds", bounds]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "property": "bdp-grid", "absolute": 2, "relative": "1/2", "is_lower_bound": True,
        "certificate_kind": "matching", "pairs": [[[1, 1], [2, 1]], [[1, 2], [2, 2]]],
        "matching_bound": 2}


@pytest.mark.parametrize("prop, fn_text, bounds_text, message", BOUNDS_MISFITS,
                         ids=MISFIT_IDS)
def test_cli_distance_refuses_bounds_of_another_shape(tmp_path, capsys, prop, fn_text,
                                                     bounds_text, message):
    path = write_lines(tmp_path / "f.fn", fn_text)
    bounds = write_lines(tmp_path / "b.bounds", bounds_text)
    assert main(["distance", "--property", prop, "--input", path, "--bounds", bounds]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# adversary subcommand

def test_cli_adversary_random_and_pivots(tmp_path, capsys):
    src = sorted_line_file(tmp_path, n=16)
    out = tmp_path / "erased.fn"
    assert main(["adversary", "--strategy", "random", "--input", src,
                 "--alpha", "1/2", "--seed", "5", "--out", str(out)]) == 0
    fn = load_function(str(out))
    assert fn.erased_count() == 8

    src15 = sorted_line_file(tmp_path, n=15, name="s15.fn")
    pivout = tmp_path / "pivots.fn"
    assert main(["adversary", "--strategy", "pivots", "--input", src15,
                 "--alpha", "7/15", "--out", str(pivout)]) == 0
    pivfn = load_function(str(pivout))
    gone = {i + 1 for i, v in enumerate(pivfn.values) if v is ERASED}
    assert gone == {8, 4, 12, 2, 6, 10, 14}
    capsys.readouterr()


def test_cli_adversary_middle_layer(tmp_path, capsys):
    out = tmp_path / "middle.fn"
    assert main(["adversary", "--strategy", "middle-layer", "--d", "4",
                 "--out", str(out)]) == 0
    fn = load_function(str(out), kind="real")
    assert fn.domain == Domain.grid(2, 4)
    assert erased_fraction(fn) == Fraction(6, 16)
    assert main(["adversary", "--strategy", "middle-layer",
                 "--out", str(tmp_path / "x.fn")]) == 2  # --d missing
    assert main(["adversary", "--strategy", "random",
                 "--out", str(tmp_path / "y.fn")]) == 2  # input missing
    capsys.readouterr()


# ---------------------------------------------------------------------------
# generate subcommand

def test_cli_generate_far_with_sidecar(tmp_path, capsys):
    out = tmp_path / "far.fn"
    spec = {
        "property": "monotone-line",
        "domain": ["line", 24],
        "target_eps": "1/4",
        "alpha": "1/6",
        "seed": 12,
        "out": str(out),
    }
    spec_path = write_lines(tmp_path / "far.json", json.dumps(spec))
    assert main(["generate", "--spec", spec_path]) == 0
    capsys.readouterr()

    fn = load_function(str(out))
    assert fn.erased_count() == 4
    sidecar = json.loads((tmp_path / "far.fn.cert.json").read_text())
    assert sidecar["property"] == "monotone-line"
    assert not sidecar["member"]
    # the sidecar's report matches a fresh certification of the saved file
    fresh = certify_distance(fn, PropertySpec("monotone-line"))
    assert sidecar["distance"] == report_to_dict(fresh)
    assert Fraction(sidecar["distance"]["relative"]) >= Fraction(1, 4)


def test_cli_generate_member(tmp_path, capsys):
    out = tmp_path / "member.fn"
    spec = {
        "property": "k-runs",
        "k": 2,
        "domain": ["line", 32],
        "member": True,
        "alpha": "1/8",
        "seed": 3,
        "out": str(out),
    }
    spec_path = write_lines(tmp_path / "member.json", json.dumps(spec))
    assert main(["generate", "--spec", spec_path]) == 0
    capsys.readouterr()
    fn = load_function(str(out), kind="bit")
    assert fn.erased_count() == 4
    sidecar = json.loads((tmp_path / "member.fn.cert.json").read_text())
    assert sidecar["member"] and "distance" not in sidecar


def test_cli_generate_names_a_member_that_is_not_restorable(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(adversary, "is_restorable", lambda fn, prop: False)
    out = tmp_path / "member.fn"
    spec = {"property": "monotone-line", "domain": ["line", 8], "member": True,
            "seed": 3, "out": str(out)}
    assert main(["generate", "--spec", write_lines(tmp_path / "m.json", json.dumps(spec))]) == 2
    assert capsys.readouterr().err == (
        "error: the monotone-line member instance is not restorable\n")
    assert not out.exists()


def test_cli_generate_on_a_grid_and_an_unknown_shape(tmp_path, capsys):
    out = tmp_path / "grid.fn"
    spec = {"property": "monotone-grid", "domain": ["grid", 3, 2], "target_eps": "1/4",
            "seed": 5, "out": str(out)}
    assert main(["generate", "--spec", write_lines(tmp_path / "g.json", json.dumps(spec))]) == 0
    capsys.readouterr()
    fn = load_function(str(out))
    assert fn.domain == Domain.grid(3, 2)
    sidecar = json.loads((tmp_path / "grid.fn.cert.json").read_text())
    assert sidecar["distance"] == report_to_dict(
        certify_distance(fn, PropertySpec("monotone-grid")))

    spec = {"property": "monotone-line", "domain": ["torus", 4], "out": str(tmp_path / "t.fn")}
    assert main(["generate", "--spec", write_lines(tmp_path / "t.json", json.dumps(spec))]) == 2
    assert capsys.readouterr().err == "error: unknown domain shape 'torus'\n"
    assert not (tmp_path / "t.fn").exists()


SPEC_MISFITS = [
    ({"property": "bdp-line", "domain": ["line", 9]}, "bdp-line",
     "bdp-line bounds have n=8, d=1; the domain has n=9, d=1"),
    ({"property": "monotone-line", "domain": ["grid", 4, 2]}, "monotone-line",
     "monotone-line runs on line domains, got d=2"),
]


@pytest.mark.parametrize("spec, tester, message", SPEC_MISFITS,
                         ids=["line-length", "line-on-grid"])
@pytest.mark.parametrize("member", [True, False], ids=["member", "far"])
def test_cli_generate_and_experiment_refuse_a_misfit_spec(tmp_path, capsys, spec, tester,
                                                          message, member):
    """Both commands name the property and the sizes, before any draw."""
    bounds = write_lines(tmp_path / "lip8.bounds", "bounds 1 8\n" + "-1 " * 7 + "\n"
                         + "1 " * 7 + "\n")
    spec = dict(spec, bounds=bounds, member=member, target_eps="1/4", alpha="1/8",
                out=str(tmp_path / "misfit.fn"))
    assert main(["generate", "--spec", write_lines(tmp_path / "g.json", json.dumps(spec))]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "misfit.fn").exists()
    cfg = {"tester": tester, "instance": spec, "trials": 2, "seed": 1, "eps": "1/4",
           "bounds": bounds}
    assert main(["experiment", "--config", write_lines(tmp_path / "e.json", json.dumps(cfg))]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# experiment subcommand

def experiment_config(tmp_path, out_name, fmt="csv", trials=30):
    src = reversed_line_file(tmp_path, n=64, name=f"rev-{out_name}.fn")
    cfg = {
        "tester": "monotone-line",
        "instance": {"file": src},
        "trials": trials,
        "seed": 99,
        "eps": "1/4",
        "format": fmt,
        "output": str(tmp_path / out_name),
    }
    return write_lines(tmp_path / f"cfg-{out_name}.json", json.dumps(cfg))


def test_cli_experiment_writes_stable_csv(tmp_path, capsys):
    cfg1 = experiment_config(tmp_path, "one.csv")
    cfg2 = experiment_config(tmp_path, "two.csv")
    assert main(["experiment", "--config", cfg1]) == 0
    assert main(["experiment", "--config", cfg2]) == 0
    capsys.readouterr()
    one = (tmp_path / "one.csv").read_bytes()
    two = (tmp_path / "two.csv").read_bytes()
    assert one == two
    header, row = one.decode().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    assert row.startswith("monotone-line,64,1,1/4,0,30,99,")


def test_cli_experiment_json_and_stdout(tmp_path, capsys):
    jcfg = experiment_config(tmp_path, "r.json", fmt="json")
    assert main(["experiment", "--config", jcfg]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "r.json").read_text())
    assert data[0]["tester"] == "monotone-line"
    assert data[0]["trials"] == 30

    src = sorted_line_file(tmp_path, name="stdout-src.fn")
    cfg = {
        "tester": "monotone-line",
        "instance": {"file": src},
        "trials": 10,
        "seed": 4,
        "eps": "1/4",
    }
    path = write_lines(tmp_path / "stdout.json", json.dumps(cfg))
    assert main(["experiment", "--config", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ",".join(CSV_COLUMNS)
    assert len(out) == 2


def test_cli_experiment_on_a_file_writes_the_serial_bytes_pooled(tmp_path, capsys, monkeypatch):
    """A plain-integer file instance loads lazily and crosses the worker
    pool by pickle; the pooled CSV is the serial one, byte for byte."""
    src = write_lines(tmp_path / "far.fn", "domain line 64\n" + " ".join(
        "_" if i % 9 == 4 else str(((i * 37) % 64) - 20) for i in range(64)) + "\n")
    assert type(load_function(src).values) is LazyValues
    out = {}
    for workers in ("1", "2"):
        monkeypatch.setenv(WORKERS_ENV, workers)
        cfg = {"tester": "monotone-line", "instance": {"file": src}, "trials": 23,
               "seed": 41, "eps": "1/4", "output": str(tmp_path / f"{workers}.csv")}
        assert main(["experiment", "--config",
                     write_lines(tmp_path / f"{workers}.json", json.dumps(cfg))]) == 0
        out[workers] = (tmp_path / f"{workers}.csv").read_bytes()
    capsys.readouterr()
    assert out["1"] == out["2"]
    assert out["1"].decode().splitlines()[1].startswith("monotone-line,64,1,")


def test_cli_experiment_with_inline_instance_spec(tmp_path, capsys):
    cfg = {
        "tester": "monotone-line",
        "instance": {
            "property": "monotone-line",
            "domain": ["line", 32],
            "target_eps": "1/4",
            "alpha": "1/8",
        },
        "trials": 20,
        "seed": 7,
        "eps": "1/4",
        "alpha": "1/8",
        "output": str(tmp_path / "spec.csv"),
    }
    path = write_lines(tmp_path / "spec.json", json.dumps(cfg))
    assert main(["experiment", "--config", path]) == 0
    capsys.readouterr()
    row = (tmp_path / "spec.csv").read_text().splitlines()[1]
    cells = dict(zip(CSV_COLUMNS, row.split(",")))
    assert cells["alpha"] == "1/8"
    assert float(cells["accept_rate"]) <= 0.4


def test_cli_experiment_instance_spec_without_its_parameter_exits_two(tmp_path, capsys):
    """The tester's ``k`` does not fill in the instance property's."""
    cfg = {
        "tester": "k-runs",
        "k": 2,
        "instance": {"property": "k-runs", "domain": ["line", 32], "member": True},
        "trials": 4,
        "seed": 7,
        "eps": "1/4",
    }
    path = write_lines(tmp_path / "no-k.json", json.dumps(cfg))
    assert main(["experiment", "--config", path]) == 2
    assert capsys.readouterr().err == "error: k-runs needs k\n"


def test_cli_experiment_bad_config_exits_two(tmp_path, capsys):
    src = sorted_line_file(tmp_path, name="bad-src.fn")
    cfg = {"tester": "monotone-line", "instance": {"file": src},
           "trials": 0, "seed": 1, "eps": "1/4"}
    path = write_lines(tmp_path / "bad.json", json.dumps(cfg))
    assert main(["experiment", "--config", path]) == 2
    assert "error:" in capsys.readouterr().err

"""Experiment runner: config validation, per-trial invariants, aggregation,
determinism, and report emission."""
import itertools
import math
from dataclasses import asdict, fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ertest.core import (
    ALL_CHECKS_PASSED,
    ERASED,
    ConfigError,
    Domain,
    ErasedFunction,
    QueryOracle,
    Verdict,
)
from ertest.adversary import InstanceSpec
from ertest.harness import (
    CSV_COLUMNS,
    TESTERS,
    WORKERS_ENV,
    Z99,
    ExperimentConfig,
    emit_report,
    run_experiment,
    run_trial,
    summaries_from_json,
    summary_rows,
    validate_config,
    _wilson_interval,
)
# aliased so pytest does not try to collect the class as tests
from ertest.harness import TesterEntry as RegistryEntry
from ertest.line import LineBoundingPair, bdp_line_budget, monotone_line_budget
from ertest.hypergrid import BoundingFamily
from ertest.oracles import PropertySpec
from ertest.transforms import Poset
from ertest.adversary import generate_member_instance
from ertest.rng import make_rng


def line_fn(values, **kw):
    return ErasedFunction(Domain.line(len(values)), values, **kw)


SORTED_64 = line_fn(list(range(1, 65)))
REVERSED_64 = line_fn(list(range(64, 0, -1)))


def cfg_for(tester, instance, trials=20, seed=11, **kw):
    return ExperimentConfig(tester=tester, instance=instance, trials=trials,
                            seed=seed, **kw)


# ---------------------------------------------------------------------------
# config validation

def test_config_rejects_basic_mistakes():
    good = cfg_for("monotone-line", SORTED_64, eps=Fraction(1, 4))
    entry, fn0 = validate_config(good)
    assert entry is TESTERS["monotone-line"] and fn0 is SORTED_64
    with pytest.raises(ConfigError):
        validate_config(cfg_for("monotone-line", SORTED_64, trials=0,
                                eps=Fraction(1, 4)))
    with pytest.raises(ConfigError):
        validate_config(cfg_for("no-such-tester", SORTED_64, eps=Fraction(1, 4)))
    with pytest.raises(ConfigError):
        validate_config(cfg_for("monotone-line", SORTED_64))  # eps missing
    with pytest.raises(ConfigError):
        validate_config(cfg_for("monotone-line", [1, 2, 3], eps=Fraction(1, 4)))


def test_config_requires_property_parameters():
    with pytest.raises(ConfigError):
        validate_config(cfg_for("bdp-line", SORTED_64, eps=Fraction(1, 4)))
    bits = line_fn([0] * 16, kind="bit")
    with pytest.raises(ConfigError):
        validate_config(cfg_for("k-runs", bits, eps=Fraction(1, 4)))
    field = line_fn([(3 * x) % 17 for x in range(17)], kind="field", modulus=17)
    with pytest.raises(ConfigError):
        validate_config(cfg_for("low-degree", field))
    with pytest.raises(ConfigError):
        validate_config(cfg_for("poset-monotone", SORTED_64, eps=Fraction(1, 4)))


@pytest.mark.parametrize("size", [4, 16])
def test_config_refuses_a_poset_of_another_size(size):
    chain = Poset(size, [(i, i + 1) for i in range(1, size)])
    cfg = cfg_for("poset-monotone", line_fn([0, 0, 1, 1, 0, 1, 1, 1], kind="bit"),
                  eps=Fraction(1, 4), poset=chain)
    with pytest.raises(ConfigError) as info:
        run_experiment(cfg)
    assert str(info.value) == f"poset-monotone needs a poset of 8 elements, got {size}"


def _member_config(tester):
    return next(cfg for cfg in member_configs() if cfg.tester == tester)


@pytest.mark.parametrize("tester", sorted(TESTERS))
def test_config_requires_every_needed_field(tester):
    entry = TESTERS[tester]
    assert set(entry.needs) <= {f.name for f in fields(ExperimentConfig)}
    cfg = _member_config(tester)
    validate_config(cfg)
    for name in entry.needs:
        with pytest.raises(ConfigError, match=f"{tester} needs {name}"):
            validate_config(replace(cfg, **{name: None}))


def test_config_checks_domain_and_kind():
    grid = ErasedFunction(Domain.grid(4, 2), [0] * 16)
    with pytest.raises(ConfigError):
        validate_config(cfg_for("monotone-line", grid, eps=Fraction(1, 4)))
    with pytest.raises(ConfigError):
        validate_config(cfg_for("monotone-grid", SORTED_64, eps=Fraction(1, 4)))
    with pytest.raises(ConfigError):
        validate_config(cfg_for("k-runs", SORTED_64, eps=Fraction(1, 4), k=1))
    bits = line_fn([0] * 16, kind="bit")
    with pytest.raises(ConfigError):
        validate_config(cfg_for("low-degree", bits, degree=1))


def test_config_refuses_a_line_longer_than_the_field():
    """A 14-point line over GF(7) holding (3x+2) mod 7 is a member on the
    oracle's reading, but the tester's interpolation nodes coincide on it,
    so it rejected 8 of 200 trials at seed 1 before it was refused."""
    wrapped = line_fn([(3 * x + 2) % 7 for x in range(14)], kind="field", modulus=7)
    cfg = cfg_for("low-degree", wrapped, trials=200, seed=1, degree=1)
    for call in (validate_config, run_experiment):
        with pytest.raises(ConfigError) as err:
            call(cfg)
        assert str(err.value) == "low-degree needs a line of at most p=7 points, got n=14"


# ---------------------------------------------------------------------------
# running experiments

def test_member_experiment_never_rejects():
    cfg = cfg_for("monotone-line", SORTED_64, trials=200, eps=Fraction(1, 4))
    summary = run_experiment(cfg)
    assert summary.rejections == 0
    assert summary.accept_rate == 1.0
    # Wilson at p-hat = 1: the upper end is 1 and the lower end t / (t + z^2)
    assert summary.ci_high == 1.0
    assert summary.ci_low == pytest.approx(200 / (200 + Z99 ** 2))
    assert not summary.ci_flagged
    assert summary.max_q <= summary.budget_Q
    assert summary.budget_Q == monotone_line_budget(64, Fraction(1, 4), 0)
    assert summary.mean_sampling is None and summary.mean_walking is None


@pytest.mark.parametrize("bounds, expected", [
    # an infinite bound runs one monotonicity search's budget, not two views'
    (LineBoundingPair.monotone(256), 2195),
    (LineBoundingPair.lipschitz(256), 17556),
], ids=["infinite-bound", "finite-bounds"])
def test_bdp_line_budget_q_is_the_testers_budget(bounds, expected):
    eps, alpha = Fraction(1, 4), Fraction(1, 8)
    fn = line_fn(list(range(256)))
    summary = run_experiment(cfg_for("bdp-line", fn, trials=3, eps=eps,
                                     alpha=alpha, bounds=bounds))
    assert summary.budget_Q == expected
    assert expected == (bdp_line_budget(256, eps, alpha) if bounds.all_finite
                        else monotone_line_budget(256, eps, alpha))
    oracle = QueryOracle(fn)
    TESTERS["bdp-line"].run(
        cfg_for("bdp-line", fn, eps=eps, bounds=bounds), oracle, alpha, make_rng(7))
    assert oracle.budget == summary.budget_Q


def test_far_experiment_rejects_often():
    cfg = cfg_for("monotone-line", REVERSED_64, trials=500, seed=23,
                  eps=Fraction(1, 4))
    summary = run_experiment(cfg)
    assert summary.rejections >= 300
    assert summary.accept_rate <= 0.4
    assert summary.mean_q <= summary.max_q <= summary.budget_Q


def test_small_trial_counts_get_flagged():
    cfg = cfg_for("monotone-line", SORTED_64, trials=50, eps=Fraction(1, 4))
    summary = run_experiment(cfg)
    assert summary.ci_flagged
    assert 0.0 <= summary.ci_low <= summary.ci_high <= 1.0


def test_identical_configs_reproduce_identical_rows():
    cfg = cfg_for("monotone-line", REVERSED_64, trials=60, seed=77,
                  eps=Fraction(1, 4))
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert summary_rows([first]) == summary_rows([second])
    a, b = asdict(first), asdict(second)
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


def test_parallel_equals_serial(monkeypatch):
    spec = InstanceSpec(Domain.line(32), PropertySpec("monotone-line"),
                        member=False, target_eps=Fraction(1, 4),
                        alpha=Fraction(1, 8))
    cfg = cfg_for("monotone-line", spec, trials=24, seed=41, eps=Fraction(1, 4))
    monkeypatch.setenv(WORKERS_ENV, "1")
    serial = run_experiment(cfg)
    monkeypatch.setenv(WORKERS_ENV, "4")
    parallel = run_experiment(cfg)
    assert summary_rows([serial]) == summary_rows([parallel])
    assert serial.rejections == parallel.rejections
    assert serial.max_q == parallel.max_q


def _far_monotone_config():
    spec = InstanceSpec(Domain.line(32), PropertySpec("monotone-line"),
                        member=False, target_eps=Fraction(1, 4),
                        alpha=Fraction(1, 8))
    return cfg_for("monotone-line", spec, trials=23, seed=41, eps=Fraction(1, 4))


def _far_convex_config():
    spec = InstanceSpec(Domain.line(32), PropertySpec("convex-line"),
                        member=False, target_eps=Fraction(1, 4),
                        alpha=Fraction(1, 8))
    return cfg_for("convex-line", spec, trials=23, seed=43, eps=Fraction(1, 4))


def _member_convex_config():
    member = generate_member_instance(PropertySpec("convex-line"),
                                      Domain.line(32), Fraction(1, 8),
                                      make_rng(400))
    return cfg_for("convex-line", member, trials=23, eps=Fraction(1, 4))


@pytest.mark.parametrize("make", [_far_monotone_config, _far_convex_config,
                                  _member_convex_config],
                         ids=["far-monotone-line", "far-convex-line", "member-convex-line"])
def test_summary_is_the_per_trial_sums_serial_or_pooled(monkeypatch, make):
    """Serial and pooled runs give one summary, and it is what the trials'
    own verdicts and budget caps add up to: all rejecting, none rejecting,
    with and without stats."""
    cfg = make()
    summaries = []
    for workers in ("1", "4"):
        monkeypatch.setenv(WORKERS_ENV, workers)
        record = asdict(run_experiment(cfg))
        record.pop("wall_time")
        summaries.append(record)
    assert summaries[0] == summaries[1]

    entry, _ = validate_config(cfg)
    fixed = isinstance(cfg.instance, ErasedFunction)
    runs = [run_trial(cfg, entry, cfg.instance if fixed else
                      cfg.instance.realize(make_rng(cfg.seed, "inst", i))[0], i)
            for i in range(cfg.trials)]
    qs = [v.queries_used for v, _ in runs]
    stats = [v.stats for v, _ in runs if v.stats]
    t = cfg.trials
    mean_q = sum(qs) / t
    expected = {
        "rejections": sum(v.is_reject for v, _ in runs),
        "mean_q": mean_q,
        "max_q": max(qs),
        "stddev_q": math.sqrt(max(0.0, sum(q * q for q in qs) / t - mean_q * mean_q)),
        "budget_Q": max(cap for _, cap in runs),
        "mean_sampling": sum(s["sampling"] for s in stats) / len(stats) if stats else None,
        "mean_walking": sum(s["walking"] for s in stats) / len(stats) if stats else None,
    }
    assert {key: summaries[0][key] for key in expected} == expected
    assert type(summaries[0]["rejections"]) is int
    assert expected["rejections"] in (0, t)
    assert (expected["mean_sampling"] is not None) == (cfg.tester == "convex-line")


def test_one_rejecting_trial_counts_as_an_int(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    summary = run_experiment(cfg_for("monotone-line", REVERSED_64, trials=1,
                                     seed=23, eps=Fraction(1, 4)))
    assert summary.rejections == 1 and type(summary.rejections) is int


@pytest.mark.parametrize("raw", ["0", "-3", "two", "1.5", ""])
def test_bad_worker_counts_are_config_errors(monkeypatch, raw):
    started = []
    monkeypatch.setattr("ertest.harness.ProcessPoolExecutor",
                        lambda *a, **kw: started.append(1))
    monkeypatch.setenv(WORKERS_ENV, raw)
    cfg = cfg_for("monotone-line", SORTED_64, trials=4, eps=Fraction(1, 4))
    with pytest.raises(ConfigError, match=WORKERS_ENV):
        run_experiment(cfg)
    assert not started


def test_wilson_interval_stays_wide_at_the_boundaries():
    assert _wilson_interval(20, 20) == (pytest.approx(20 / (20 + Z99 ** 2)), 1.0)
    assert _wilson_interval(0, 20) == (0.0, pytest.approx(Z99 ** 2 / (20 + Z99 ** 2)))
    low, high = _wilson_interval(10, 20)
    assert low + high == pytest.approx(1.0) and 0.0 < low < 0.5 < high < 1.0


def test_trial_zero_is_realized_once(monkeypatch):
    spec = InstanceSpec(Domain.line(32), PropertySpec("monotone-line"),
                        member=False, target_eps=Fraction(1, 4),
                        alpha=Fraction(1, 8))
    calls = []
    realize = InstanceSpec.realize

    def counting(self, rng):
        calls.append(1)
        return realize(self, rng)

    monkeypatch.setattr(InstanceSpec, "realize", counting)
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    run_experiment(cfg_for("monotone-line", spec, trials=7, seed=5,
                           eps=Fraction(1, 4)))
    assert len(calls) == 7


def test_instance_specs_redraw_per_trial():
    spec = InstanceSpec(Domain.line(32), PropertySpec("monotone-line"),
                        member=False, target_eps=Fraction(1, 4),
                        alpha=Fraction(1, 8))
    fn0, _ = spec.realize(make_rng(11, "inst", 0))
    fn1, _ = spec.realize(make_rng(11, "inst", 1))
    assert fn0.values != fn1.values


def test_convexity_stats_are_aggregated():
    member = generate_member_instance(PropertySpec("convex-line"),
                                      Domain.line(32), Fraction(1, 8),
                                      make_rng(400))
    cfg = cfg_for("convex-line", member, trials=50, eps=Fraction(1, 4))
    summary = run_experiment(cfg)
    assert summary.rejections == 0
    assert summary.mean_sampling is not None and summary.mean_sampling > 0
    assert summary.mean_walking is not None and summary.mean_walking >= 0


# ---------------------------------------------------------------------------
# per-trial hard gates

def _register(name, entry):
    TESTERS[name] = entry


def test_budget_overrun_aborts_experiment():
    def run(cfg, oracle, alpha, rng):
        oracle.set_budget(5)
        for _ in range(3):
            oracle.query((1,))
        return Verdict.accepted(ALL_CHECKS_PASSED, oracle.count)

    _register("overbudget-probe", RegistryEntry(
        run=run, budget=lambda cfg, fn, alpha: 2,
        validate=lambda cfg, fn, cert: True, needs=()))
    try:
        cfg = cfg_for("overbudget-probe", SORTED_64, trials=1)
        with pytest.raises(AssertionError, match="exceeded the budget"):
            run_experiment(cfg)
    finally:
        del TESTERS["overbudget-probe"]


def test_unverifiable_certificate_aborts_experiment():
    def run(cfg, oracle, alpha, rng):
        oracle.set_budget(1)
        return Verdict.rejected(("made-up", ()), 0)

    _register("badcert-probe", RegistryEntry(
        run=run, budget=lambda cfg, fn, alpha: 10,
        validate=lambda cfg, fn, cert: False, needs=()))
    try:
        cfg = cfg_for("badcert-probe", SORTED_64, trials=1)
        with pytest.raises(RuntimeError, match="failed re-validation"):
            run_experiment(cfg)
    finally:
        del TESTERS["badcert-probe"]


def test_classic_baseline_rejects_only_by_the_certificate_rule():
    # the first half sits 1e-12 above the second: float noise, not a
    # descent, by the tolerant rule the certificate check applies
    fn = ErasedFunction(Domain.line(16), [1.0 + 1e-12] * 8 + [1.0] * 8)
    cfg = cfg_for("classic-monotone-line", fn, seed=1, eps=Fraction(1, 2))
    assert run_experiment(cfg).rejections == 0


_PAIR_TESTERS = ("monotone-line", "classic-monotone-line", "bdp-line",
                 "monotone-grid", "bdp-grid")


@st.composite
def _nudged_members(draw):
    """(tester, function, bounds): a float member of the tester's property
    (monotone, or 1-Lipschitz for the bounded-derivative testers) with every
    value moved by at most 1e-12.  Line members may carry erasures; grid
    members carry none, since the grid testers' gate needs a tiny alpha."""
    tester = draw(st.sampled_from(_PAIR_TESTERS))
    lowest = -1 if tester.startswith("bdp") else 0
    grid = tester.endswith("grid")
    n = draw(st.integers(2, 4 if grid else 24))
    d = draw(st.integers(2, 3)) if grid else 1
    # one walk of steps in [lowest, 1] per axis; the value sums the walks
    walks = [list(itertools.accumulate(draw(st.lists(st.integers(lowest, 1),
                                                     min_size=n - 1, max_size=n - 1)),
                                       initial=0))
             for _ in range(d)]
    domain = Domain.grid(n, d)
    values = [float(sum(walk[c - 1] for walk, c in zip(walks, pt)))
              + draw(st.floats(-1e-12, 1e-12)) for pt in domain.points()]
    if not grid:
        for i in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
            values[i] = ERASED
    if not tester.startswith("bdp"):
        bounds = None
    elif grid:
        bounds = BoundingFamily.lipschitz(n, d)
    else:
        bounds = LineBoundingPair.lipschitz(n)
    return tester, ErasedFunction(domain, values), bounds


@settings(max_examples=300, deadline=None)
@given(_nudged_members(), st.integers(0, 2 ** 16))
def test_pair_testers_accept_float_noise_on_members(case, seed):
    # one-sided: float noise on a member is never evidence, so no tester
    # rejects, and run_trial never sees a certificate fail re-validation
    tester, fn, bounds = case
    cfg = cfg_for(tester, fn, trials=1, seed=seed, eps=Fraction(1, 2), bounds=bounds)
    verdict, _ = run_trial(cfg, TESTERS[tester], fn, 0)
    assert not verdict.is_reject


# ---------------------------------------------------------------------------
# every registered tester runs a member config cleanly

def member_configs():
    chain16 = Poset(16, [(i, i + 1) for i in range(1, 16)])
    rng = make_rng
    yield cfg_for("monotone-line", SORTED_64, eps=Fraction(1, 4))
    yield cfg_for("classic-monotone-line", SORTED_64, eps=Fraction(1, 4))
    bdp_member = generate_member_instance(
        PropertySpec("bdp-line", bounds=LineBoundingPair.lipschitz(16)),
        Domain.line(16), 0, rng(401))
    yield cfg_for("bdp-line", bdp_member, eps=Fraction(1, 4),
                  bounds=LineBoundingPair.lipschitz(16))
    convex_member = generate_member_instance(PropertySpec("convex-line"),
                                             Domain.line(16), 0, rng(402))
    yield cfg_for("convex-line", convex_member, eps=Fraction(1, 4))
    grid_member = generate_member_instance(PropertySpec("monotone-grid"),
                                           Domain.grid(4, 2), 0, rng(403))
    yield cfg_for("monotone-grid", grid_member, eps=Fraction(1, 4))
    fam = BoundingFamily.lipschitz(4, 2)
    bdp_grid_member = generate_member_instance(
        PropertySpec("bdp-grid", bounds=fam), Domain.grid(4, 2), 0, rng(404))
    yield cfg_for("bdp-grid", bdp_grid_member, eps=Fraction(1, 4), bounds=fam)
    yield cfg_for("k-runs", line_fn([0] * 32, kind="bit"),
                  eps=Fraction(1, 4), k=1)
    affine = line_fn([(3 * x + 2) % 17 for x in range(17)],
                     kind="field", modulus=17)
    yield cfg_for("low-degree", affine, degree=1)
    yield cfg_for("poset-monotone", line_fn(list(range(1, 17))),
                  eps=Fraction(1, 4), poset=chain16)


def test_every_tester_accepts_its_member():
    seen = set()
    for cfg in member_configs():
        summary = run_experiment(cfg)
        seen.add(cfg.tester)
        assert summary.rejections == 0, cfg.tester
        assert summary.max_q <= summary.budget_Q, cfg.tester
    assert seen == set(TESTERS)


# ---------------------------------------------------------------------------
# reports

def test_csv_shape_and_cells():
    cfg = cfg_for("monotone-line", SORTED_64, trials=20, eps=Fraction(1, 4))
    rows = summary_rows([run_experiment(cfg)])
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert len(rows) == 2
    cells = dict(zip(CSV_COLUMNS, rows[1].split(",")))
    assert cells["tester"] == "monotone-line"
    assert cells["n"] == "64" and cells["d"] == "1"
    assert cells["eps"] == "1/4"
    assert cells["alpha"] == "0"
    assert cells["accept_rate"] == "1.0"
    assert cells["budget_Q"] == str(monotone_line_budget(64, Fraction(1, 4), 0))


def test_alpha_cell_defaults_to_declared():
    member = generate_member_instance(PropertySpec("monotone-line"),
                                      Domain.line(64), Fraction(1, 8),
                                      make_rng(405))
    cfg = cfg_for("monotone-line", member, trials=10, eps=Fraction(1, 4))
    summary = run_experiment(cfg)
    assert summary.alpha == "1/8"
    affine = line_fn([(3 * x + 2) % 17 for x in range(17)],
                     kind="field", modulus=17)
    nodeps = run_experiment(cfg_for("low-degree", affine, trials=10, degree=1))
    assert nodeps.eps == ""


def test_emit_report_csv_and_json(tmp_path):
    cfg = cfg_for("monotone-line", REVERSED_64, trials=30, seed=9,
                  eps=Fraction(1, 4))
    summary = run_experiment(cfg)

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report([summary], "csv", str(a))
    emit_report(run_experiment(cfg), "csv", str(b))  # bare summary allowed
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)

    j = tmp_path / "r.json"
    emit_report([summary], "json", str(j))
    assert summaries_from_json(str(j)) == [summary]

    with pytest.raises(ConfigError):
        emit_report([], "csv", str(tmp_path / "empty.csv"))
    with pytest.raises(ConfigError):
        emit_report([summary], "yaml", str(tmp_path / "r.yaml"))

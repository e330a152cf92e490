"""Checks on the benchmark itself.

    python3 -m pytest -q bench/test_counts.py

The exact counts of the traced run must repeat for a seed, since a later
change may cite them; BENCHMARK.json must list exactly what the runner prints.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

EXACT_COUNTS = ("core.queries_per_trial", "adversary.realize_per_trial",
                "adversary.far_attempts_per_instance",
                "line.bdp_transforms_calls_per_trial", "rng.make_rng_calls_per_trial",
                "line.search_calls_per_trial", "core.budget_used_frac")


def _traced(workload: str, seed: int) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", "1"])
    assert code == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    digests = [text for text in lines if text.startswith("digest ")]
    return result, digests


def test_exact_counts_repeat_for_a_seed():
    for workload in ("experiment-fresh", "experiment-fixed"):
        first, first_digest = _traced(workload, 7)
        second, second_digest = _traced(workload, 7)
        assert first["correct"] and second["correct"], workload
        assert first_digest == second_digest and "equal" in first_digest[0]
        for name in EXACT_COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            assert a == b, f"{workload} {name}: {a!r} != {b!r}"
        assert first["metrics"]["core.queries_per_trial"]["value"] > 0


def test_benchmark_json_lists_what_the_runner_prints():
    assert run.use_src() is None
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(run.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == run.per_layer_specs()


if __name__ == "__main__":
    test_benchmark_json_lists_what_the_runner_prints()
    test_exact_counts_repeat_for_a_seed()
    print("ok")

"""Command-line surface.

Subcommands: test (one verdict on one input), experiment (seeded trial
batches with CSV/JSON reports), generate (certified instances to files),
distance (exact oracle reports as JSON lines), adversary (erasure
strategies applied to function files).  Exit code 0 means accept or
success, 1 means reject, 2 means any error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import Domain, exact_fraction
from .oracles import PropertySpec
from .adversary import (
    ERASERS,
    InstanceSpec,
    certify_distance,
    hypercube_middle_layer,
)
from .fileio import (
    load_bounds,
    load_function,
    load_poset,
    report_json_line,
    report_to_dict,
    save_function,
)
from .harness import (
    ExperimentConfig,
    run_experiment,
    emit_report,
    run_trial,
    summary_rows,
    validate_config,
)
from .rng import make_rng


def _add_value_kind_args(p):
    p.add_argument("--kind", default="real", choices=("real", "bit", "field"))
    p.add_argument("--modulus", type=int, default=None,
                   help="field size (field kind only)")


def _add_property_args(p):
    p.add_argument("--bounds", default=None, help="bounds file")
    p.add_argument("--poset", default=None, help="poset file")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--degree", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ertest")
    sub = top.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="run one tester on one input file")
    t.add_argument("--tester", required=True)
    t.add_argument("--input", required=True)
    t.add_argument("--eps", default=None)
    t.add_argument("--alpha", default=None)
    t.add_argument("--seed", type=int, default=0)
    _add_property_args(t)
    _add_value_kind_args(t)

    e = sub.add_parser("experiment", help="run a config of seeded trials")
    e.add_argument("--config", required=True)

    g = sub.add_parser("generate", help="write a certified instance")
    g.add_argument("--spec", required=True)

    d = sub.add_parser("distance", help="exact distance report for a file")
    d.add_argument("--property", required=True, dest="prop")
    d.add_argument("--input", required=True)
    _add_property_args(d)
    _add_value_kind_args(d)

    a = sub.add_parser("adversary", help="apply an erasure strategy")
    a.add_argument("--strategy", required=True,
                   choices=("random", "pivots", "middle-layer"))
    a.add_argument("--input", default=None)
    a.add_argument("--alpha", default=None)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--d", type=int, default=None, help="cube dimension")
    a.add_argument("--out", required=True)
    _add_value_kind_args(a)
    return top


def _load_prop_objects(args):
    bounds = load_bounds(args.bounds) if args.bounds else None
    poset = load_poset(args.poset) if args.poset else None
    return bounds, poset


def cmd_test(args) -> int:
    fn = load_function(args.input, kind=args.kind, modulus=args.modulus)
    bounds, poset = _load_prop_objects(args)
    cfg = ExperimentConfig(
        tester=args.tester, instance=fn, trials=1, seed=args.seed,
        eps=None if args.eps is None else exact_fraction(args.eps),
        alpha=None if args.alpha is None else exact_fraction(args.alpha),
        k=args.k, degree=args.degree, bounds=bounds, poset=poset)
    entry, _ = validate_config(cfg)
    verdict, _ = run_trial(cfg, entry, fn, 0)
    print(json.dumps({
        "outcome": verdict.outcome,
        "reason": verdict.reason,
        "queries_used": verdict.queries_used,
        "certificate": _jsonable(verdict.certificate),
    }))
    return 1 if verdict.is_reject else 0


def _jsonable(obj):
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)


def _domain_from_json(node) -> Domain:
    shape = node[0]
    if shape == "line":
        return Domain.line(int(node[1]))
    if shape == "grid":
        return Domain.grid(int(node[1]), int(node[2]))
    raise ValueError(f"unknown domain shape {shape!r}")


def _spec_from_json(node, default_bounds) -> InstanceSpec:
    """A spec from JSON; its own ``bounds`` file wins over ``default_bounds``."""
    bounds = load_bounds(node["bounds"]) if node.get("bounds") else default_bounds
    return InstanceSpec(
        domain=_domain_from_json(node["domain"]),
        prop=PropertySpec(node["property"], bounds=bounds,
                          k=node.get("k"), degree=node.get("degree")),
        member=bool(node.get("member", False)),
        target_eps=node.get("target_eps"),
        erasure=node.get("erasure", "random"),
        alpha=node.get("alpha", 0),
        seed=int(node.get("seed", 0)),
    )


def _instance_from_json(node, cfg_bounds):
    if "file" in node:
        return load_function(node["file"], kind=node.get("kind", "real"),
                             modulus=node.get("modulus"))
    return _spec_from_json(node, cfg_bounds)


def cmd_experiment(args) -> int:
    with open(args.config) as fh:
        data = json.load(fh)
    bounds = load_bounds(data["bounds"]) if data.get("bounds") else None
    poset = load_poset(data["poset"]) if data.get("poset") else None
    cfg = ExperimentConfig(
        tester=data["tester"],
        instance=_instance_from_json(data["instance"], bounds),
        trials=int(data["trials"]),
        seed=int(data["seed"]),
        eps=data.get("eps"),
        alpha=data.get("alpha"),
        k=data.get("k"),
        degree=data.get("degree"),
        bounds=bounds,
        poset=poset,
    )
    summary = run_experiment(cfg)
    fmt = data.get("format", "csv")
    if data.get("output"):
        emit_report([summary], fmt, data["output"])
    else:
        print("\n".join(summary_rows([summary])))
    return 0


def cmd_generate(args) -> int:
    with open(args.spec) as fh:
        data = json.load(fh)
    spec = _spec_from_json(data, None)
    fn, report = spec.realize(make_rng(spec.seed, "instance"))
    out = data["out"]
    save_function(fn, out)
    sidecar = {"property": spec.prop.tag, "member": spec.member}
    if report is not None:
        sidecar["distance"] = report_to_dict(report)
    with open(out + ".cert.json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out} and {out}.cert.json")
    return 0


def cmd_distance(args) -> int:
    fn = load_function(args.input, kind=args.kind, modulus=args.modulus)
    bounds, _ = _load_prop_objects(args)
    prop = PropertySpec(args.prop, bounds=bounds, k=args.k, degree=args.degree)
    print(report_json_line(certify_distance(fn, prop)))
    return 0


def cmd_adversary(args) -> int:
    if args.strategy == "middle-layer":
        if args.d is None:
            raise ValueError("middle-layer needs --d")
        fn = hypercube_middle_layer(args.d)
    else:
        if args.input is None or args.alpha is None:
            raise ValueError(f"{args.strategy} needs --input and --alpha")
        base = load_function(args.input, kind=args.kind, modulus=args.modulus)
        fn = ERASERS[args.strategy](base, args.alpha, make_rng(args.seed, "erase"))
    save_function(fn, args.out)
    print(f"wrote {args.out} ({fn.erased_count()}/{fn.domain.size} erased)")
    return 0


COMMANDS = {
    "test": cmd_test,
    "experiment": cmd_experiment,
    "generate": cmd_generate,
    "distance": cmd_distance,
    "adversary": cmd_adversary,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first call and reused: a parse
    leaves the parser as it was, and a build costs about twenty parses."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps all errors to 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

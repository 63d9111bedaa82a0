"""Command-line entry point.

Subcommands: validate, simulate, analyze, peff, generate; simulate, analyze
and generate require --model, simulate also with --flows-csv.  A --config
file is a JSON object of long flags, each overridden by an explicit one.
All randomness flows from explicit --seed/--seeds flags; identical flag
sets produce byte-identical outputs for any --jobs value, and analyze's
for any number of usable CPUs.  Exit codes: 0 success, 1 runtime
failure, 2 validation error, 3 model-consistency error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .algorithms import DURATION_MODELS, PathProfile, p_eff_avg, p_eff_paths
from .algorithms import check_algorithms as _check_algorithms  # private: traced runs skip it
from .analytic import UnreachableError, invert_for_coverage
from .generator import GeneratorConfig, generate_arrays, write_flow_csv
from .model import DominanceError, ModelError, load_model
from .sweep import SweepSpec, _fork_join, emit_table, run_sweep

__all__ = ["main"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2
EXIT_CONSISTENCY = 3

DEFAULT_COVERAGES = tuple(float(c) for c in range(1, 100)) + (99.9,)

# --formats name -> (emit_table format, output file suffix)
_TABLE_FORMATS = {"csv": ("csv", ".csv"), "md": ("markdown", ".md"),
                  "plot": ("plotdata", ".plot.csv")}


def _float_list(text: str) -> tuple[float, ...]:
    """Comma list with scientific notation, or 'geom:first:ratio:count'."""
    text = text.strip()
    if text.startswith("geom:"):
        _, first, ratio, count = text.split(":")
        first, ratio, count = float(first), float(ratio), _count(count)
        return tuple(first * ratio ** k for k in range(count))
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(_count(tok) for tok in text.split(",") if tok.strip())


def _count(text: str) -> int:
    """An integer, also in scientific notation such as 1e6; a fraction, an
    infinity or a NaN is a ValueError, which argparse reports with exit 2."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not value.is_integer():
        raise ValueError(f"{text!r} is not an integer")
    return int(value)


def _algorithms(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowtab",
        description="Flow-table usage reduction boundaries: simulation and analytics "
        "over flow length/size mixture models.",
    )
    parser.add_argument("--config", help="JSON file of default flag values", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a model file")
    p.add_argument("model")

    p = sub.add_parser("simulate", help="run a multi-seed simulation sweep")
    p.add_argument("--model", required=True)
    p.add_argument("--flows-csv", default=None, help="ingest flows instead of generating")
    p.add_argument("--axis", choices=("length", "size"), default="length")
    p.add_argument("--algorithms", type=_algorithms, default=("first", "threshold", "sampling"))
    # omitted, a series is the axis' default one; given, it names one value at least
    p.add_argument("--thresholds", type=_float_list, default=None)
    p.add_argument("--probabilities", type=_float_list, default=None)
    p.add_argument("--flows", type=_count, default=SweepSpec.flow_count)
    p.add_argument("--seeds", type=_int_list, default=(1,))
    p.add_argument("--duration-model", choices=DURATION_MODELS, default="equal")
    p.add_argument("--min-packet", type=_count, default=SweepSpec.min_packet)
    p.add_argument("--jobs", type=_count, default=1)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--formats", type=_algorithms, default=("csv",),
                   help="comma set of csv,md,plot")

    p = sub.add_parser("analyze", help="coverage-target inversion curves (analytic)")
    p.add_argument("--model", required=True)
    p.add_argument("--axis", choices=("length", "size"), default="length")
    p.add_argument("--algorithms", type=_algorithms, default=("first", "threshold", "sampling"))
    p.add_argument("--coverages", type=_float_list, default=DEFAULT_COVERAGES)
    p.add_argument("--out", required=True, help="output path prefix")

    p = sub.add_parser("peff", help="effective sampling probability across a path")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--l-avg", type=float, default=None)
    p.add_argument("--paths", default=None, help="JSON path-profile file")

    p = sub.add_parser("generate", help="write a generated population as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--flows", type=_count, required=True)
    p.add_argument("--seed", type=_count, required=True)
    p.add_argument("--min-packet", type=_count, default=GeneratorConfig.min_packet)
    p.add_argument("--out", required=True)
    return parser


def _cmd_validate(args) -> int:
    try:
        model = load_model(args.model)
        report = {"valid": True, "name": model.name, "avg_flow_length": model.avg_flow_length,
                  "avg_flow_size": model.avg_flow_size, "avg_packet_size": model.avg_packet_size,
                  "max_packet_size": model.max_packet_size, "errors": []}
    except ModelError as exc:  # a diverging average too, read here or in the load
        code = EXIT_CONSISTENCY if isinstance(exc, DominanceError) else EXIT_VALIDATION
        print(json.dumps({"valid": False,
                          "errors": [{"type": type(exc).__name__, "message": str(exc)}]}))
        return code
    print(json.dumps(report))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.flows_csv is not None:
        ignored = [flag for flag, value, default in (
            ("--flows", args.flows, SweepSpec.flow_count),
            ("--min-packet", args.min_packet, SweepSpec.min_packet)) if value != default]
        if ignored:
            raise ValueError(f"{', '.join(ignored)} would be ignored with --flows-csv")
    bad = [fmt for fmt in args.formats if fmt not in _TABLE_FORMATS]
    if bad:
        raise ValueError(f"unknown output format(s) {bad}")
    if not args.formats:
        raise ValueError("simulate requires at least one output format")
    for flag, series in ("--thresholds", args.thresholds), ("--probabilities", args.probabilities):
        if series == ():
            raise ValueError(f"{flag} names no value")
    spec = SweepSpec(model=load_model(args.model), axis=args.axis, algorithms=args.algorithms,
                     thresholds=args.thresholds or (), probabilities=args.probabilities or (),
                     seeds=args.seeds, flow_count=args.flows, duration_model=args.duration_model,
                     min_packet=args.min_packet, jobs=args.jobs, population_csv=args.flows_csv)
    result = run_sweep(spec)
    for fmt in args.formats:
        table, suffix = _TABLE_FORMATS[fmt]
        path = args.out + suffix
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_table(result, table))
        print(f"wrote {path}")
    return EXIT_OK


def _invert(model, kind: str, axis: str, target: float):
    """invert_for_coverage's (parameter, report), or None for an unreachable target."""
    try:
        return invert_for_coverage(model, kind, axis, target)
    except UnreachableError:
        return None


def _rows(model, args, targets) -> dict[float, list[str]]:
    """Each target's .analytic.csv rows."""
    rows = {}
    for target in targets:
        # first is the ratio baseline; it is unreachable only past 100 %,
        # where every kind is, so each reachable row has it
        first = _invert(model, "first", args.axis, target)
        lines = rows[target] = []
        for kind in args.algorithms:
            inverted = first if kind == "first" else _invert(model, kind, args.axis, target)
            if inverted is None:
                lines.append(f"{kind},{target:g},unreachable,,,,,\n")
                continue
            param, rep = inverted
            lines.append(
                f"{kind},{target:g},{param:.6e},{rep.coverage_pct:.4f},"
                f"{rep.operations_reduction:.4f},{rep.occupancy_reduction:.4f},"
                f"{first[1].operations_reduction / rep.operations_reduction:.4f},"
                f"{first[1].occupancy_reduction / rep.occupancy_reduction:.4f}\n"
            )
    return rows


def _usable_cpus() -> int:  # taskset limits them
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _cmd_analyze(args) -> int:
    _check_algorithms(args.algorithms)
    if not args.coverages:
        raise ValueError("analyze requires at least one coverage target")
    model = load_model(args.model)
    head, *rest = dict.fromkeys(args.coverages)  # a target named twice reuses its rows
    rows = _rows(model, args, [head])  # builds the model's tables and first probe sums
    # the rest are dealt round-robin to a worker per usable CPU, forked to inherit them
    workers = max(1, min(_usable_cpus(), len(rest)))
    calls = [(_rows, (model, args, rest[w::workers])) for w in range(workers)]
    for dealt in _fork_join(calls) if workers > 1 else [fn(*a) for fn, a in calls]:
        rows.update(dealt)
    path = args.out + ".analytic.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("algorithm,target_coverage,parameter,coverage,ops_reduction,occ_reduction,"
                 "ops_vs_first,occ_vs_first\n")
        fh.writelines(row for target in args.coverages for row in rows[target])
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_peff(args) -> int:
    if args.paths is not None:
        ignored = [flag for flag, value in (("--p", args.p), ("--l-avg", args.l_avg))
                   if value is not None]
        if ignored:
            raise ValueError(f"{', '.join(ignored)} would be ignored with --paths")
        with open(args.paths, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            paths = tuple(
                (float(p["probability"]), tuple(float(q) for q in p["switch_probabilities"]))
                for p in doc["paths"]
            )
        except (KeyError, TypeError) as exc:
            raise ValueError("path profile: expected an object whose 'paths' hold 'probability' "
                             f"and 'switch_probabilities' ({type(exc).__name__}: {exc})") from exc
        value = p_eff_paths(PathProfile(paths=paths))
    elif args.p is not None and args.l_avg is not None:
        value = p_eff_avg(args.p, args.l_avg)
    else:
        raise ValueError("peff requires either --paths or both --p and --l-avg")
    print(f"{value:.12g}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    model = load_model(args.model)
    config = GeneratorConfig(seed=args.seed, flow_count=args.flows, min_packet=args.min_packet)
    lengths, sizes = generate_arrays(model, config)
    write_flow_csv(args.out, lengths, sizes)
    print(f"wrote {args.out} ({len(lengths)} flows)")
    return EXIT_OK


_COMMANDS = {"validate": _cmd_validate, "simulate": _cmd_simulate, "analyze": _cmd_analyze,
             "peff": _cmd_peff, "generate": _cmd_generate}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    # the config path as argparse reads it before the subcommand (--config=F, --conf F)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", nargs="?")  # a missing path is the parser's error
    pre.add_argument("rest", nargs=argparse.REMAINDER)  # the subcommand and its flags
    config_path = pre.parse_known_args(argv)[0].config
    if config_path is not None:
        # every flag and positional of each (sub)parser: a config key names one's dest
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = [action for p in (parser, *sub.choices.values()) for action in p._actions
                   if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))]
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError("a config file holds a JSON object of flag values")
            for key, value in config.items():
                named = [action for action in actions if action.dest == key.replace("-", "_")]
                if not named:
                    raise ValueError(f"config key {key!r} names no flag")
                if value is None or isinstance(value, (bool, dict)):  # no command-line text
                    raise ValueError(f"config key {key!r}: expected a string, number or list")
                # carried as the command line's text, converted and checked against its
                # choices as its flag's would be (argparse checks command-line text alone),
                # and made the flag's default, which also satisfies a required flag
                text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                for action in named:
                    action.default, action.required = (action.type or str)(text), False
                    if action.default not in (action.choices or [action.default]):
                        raise ValueError(f"config key {key!r}: {action.default!r} is not one of "
                                         f"{', '.join(map(repr, action.choices))}")
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            print(json.dumps({"errors": [{"type": "ConfigError", "message": str(exc)}]}))
            return EXIT_VALIDATION
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # a DominanceError is a ValueError
        named = isinstance(exc, (ValueError, FileNotFoundError))
        print(json.dumps({"errors": [{"type": type(exc).__name__ if named else "OSError",
                                      "message": str(exc)}]}))
        return EXIT_CONSISTENCY if isinstance(exc, DominanceError) else \
            EXIT_VALIDATION if isinstance(exc, ValueError) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

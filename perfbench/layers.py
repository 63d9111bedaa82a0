"""Per-layer metrics from the spans of one traced run (standard library only).

A layer is a flowtab module: cli, sweep, model, generator, algorithms,
analytic.  A span's self time is its duration minus the part of it that its
child spans cover; child spans include those recorded in forked pool
workers, whose parent is the ``run_sweep`` span that forked them.
"""
from __future__ import annotations

import glob
import json
import os
from collections import defaultdict

LAYERS = ("cli", "sweep", "model", "generator", "algorithms", "analytic")
KINDS = ("first", "threshold", "sampling")
POPULATION_LAYERS = ("generator", "algorithms")  # the work of one pool task

# metric -> span name (or dotted prefix) whose total duration it reports
DURATIONS = {
    "model.load_model_s": "model.load_model",
    "model.quantile.length_s": "model.Mixture.quantile.length",
    "model.quantile.size_s": "model.Mixture.quantile.size",
    "generator.generate_arrays_s": "generator.generate_arrays",
    "generator.read_flow_csv_s": "generator.read_flow_csv",
    **{f"algorithms.evaluate_batch.{k}_s": f"algorithms.evaluate_batch.{k}" for k in KINDS},
    "algorithms.aggregate_batch_s": "algorithms.aggregate_batch",
    **{f"analytic.analytic_for_spec.{k}_s": f"analytic.analytic_for_spec.{k}" for k in KINDS},
    "analytic.invert_for_coverage.length_s": "analytic.invert_for_coverage.length",
    "analytic.invert_for_coverage.size_s": "analytic.invert_for_coverage.size",
    "sweep.run_sweep_s": "sweep.run_sweep",
    "sweep.emit_table_s": "sweep.emit_table",
    "cli.main_s": "cli.main",
}
# metric -> span name (or dotted prefix) whose recorded counts it sums
COUNTS = {
    "model.quantile.points": "model.Mixture.quantile",
    "generator.flows_generated": "generator.generate_arrays",
    "generator.rows_read": "generator.read_flow_csv",
    "algorithms.flow_evals": "algorithms.evaluate_batch",
}

# spans each workload must produce; a missing one is a failed check
_SWEEP = ["cli.main", "model.load_model", "sweep.run_sweep", "sweep.emit_table",
          "algorithms.aggregate_batch"] + \
         [f"algorithms.evaluate_batch.{k}" for k in KINDS] + \
         [f"analytic.analytic_for_spec.{k}" for k in KINDS]
EXPECTED = {
    "simulate-length": _SWEEP + ["generator.generate_arrays", "model.Mixture.quantile.length",
                                 "model.Mixture.quantile.size"],
    "replay-size": _SWEEP + ["generator.read_flow_csv"],
    "analyze": ["cli.main", "model.load_model", "analytic.invert_for_coverage.length",
                "analytic.invert_for_coverage.size"],
}
EXPECTED_SETUP = {"replay-size": ["generator.generate_arrays", "generator.write_flow_csv"]}
# spans a workload is chosen not to reach; seeing one is reported as a note
ABSENT = {
    "simulate-length": ["generator.read_flow_csv", "analytic.invert_for_coverage"],
    "replay-size": ["generator.generate_arrays", "model.Mixture.quantile",
                    "analytic.invert_for_coverage"],
    "analyze": ["sweep.run_sweep", "generator", "algorithms", "model.Mixture.quantile"],
}

# every per-layer metric the traced run reports, with its unit (BENCHMARK.json
# lists the same names)
UNITS = {
    **{m: "s" for m in DURATIONS},
    **{m: "count" for m in COUNTS},
    "generator.write_flow_csv_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "analytic.inversions_unreachable": "count",
    "analytic.mixture_evals_per_inversion": "count",
    "sweep.worker_busy_s": "s",
    "sweep.imbalance": "ratio",
    "tracing_overhead_s": "s",
}


def load(trace_dir: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path, "r", encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def matches(name: str, key: str) -> bool:
    return name == key or name.startswith(key + ".")


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                   for c in children[s["id"]]]
        covered = [(a, b) for a, b in covered if b > a]
        out[s["id"]] = (s["end"] - s["start"]) - union_length(covered)
    return out


def per_layer(tally, spans: list[dict], setup_spans: list[dict], workload: str, jobs: int,
              seeds: int) -> tuple[dict[str, float], dict]:
    """Per-layer metrics and a detail record with shares and notes.  Each
    expected span and the self-time sum is one check on ``tally``."""
    names = {s["name"] for s in spans}
    setup_names = {s["name"] for s in setup_spans}
    for key in EXPECTED[workload]:
        tally.check(any(matches(n, key) for n in names),
                    f"missing span {key}: its per-layer metrics were not measured")
    for key in EXPECTED_SETUP.get(workload, []):
        tally.check(any(matches(n, key) for n in setup_names),
                    f"missing set-up span {key}: its per-layer metrics were not measured")
    notes = [f"span {key} appeared, though {workload} is chosen not to reach it"
             for key in ABSENT[workload] if any(matches(n, key) for n in names)]

    metrics = {}
    for metric, key in DURATIONS.items():
        metrics[metric] = sum(s["end"] - s["start"] for s in spans if matches(s["name"], key))
    for metric, key in COUNTS.items():
        metrics[metric] = sum(s["count"] or 0 for s in spans if matches(s["name"], key))
    metrics["generator.write_flow_csv_s"] = sum(
        s["end"] - s["start"] for s in setup_spans if s["name"] == "generator.write_flow_csv")

    own = self_times(spans)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(own[s["id"]] for s in spans if s["name"].split(".")[0] == layer)

    by_id = {s["id"]: s for s in spans}
    inversions = [s for s in spans if matches(s["name"], "analytic.invert_for_coverage")]
    metrics["analytic.inversions_unreachable"] = sum(s["error"] == "UnreachableError" for s in inversions)
    inverting = {s["id"] for s in inversions}
    evals = 0
    for s in spans:
        if s["name"].startswith("model.Mixture."):
            parent = s["parent"]
            while parent is not None and parent not in inverting:
                parent = by_id[parent]["parent"] if parent in by_id else None
            evals += parent is not None
    metrics["analytic.mixture_evals_per_inversion"] = evals / len(inversions) if inversions else 0.0

    # pool tasks: population and evaluation work directly under run_sweep,
    # grouped by the process that did it
    sweeps = {s["id"] for s in spans if s["name"] == "sweep.run_sweep"}
    busy = defaultdict(float)
    for s in spans:
        if s["parent"] in sweeps and s["name"].split(".")[0] in POPULATION_LAYERS:
            busy[s["pid"]] += s["end"] - s["start"]
    workers = min(jobs, seeds) if jobs > 1 and seeds > 1 else 1
    loads = sorted(busy.values(), reverse=True) + [0.0] * max(0, workers - len(busy))
    metrics["sweep.worker_busy_s"] = sum(loads)
    metrics["sweep.imbalance"] = max(loads) / (sum(loads) / len(loads)) if sum(loads) > 0 else 0.0

    # self times of the main process, plus the stretch its pool workers
    # covered while it waited, must add up to the time inside main()
    roots = [s for s in spans if s["parent"] is None]
    main_pid = roots[0]["pid"] if roots else None
    tally.check(all(s["name"] == "cli.main" for s in roots) and len({s["pid"] for s in roots}) == 1,
                f"spans outside cli.main: {sorted({s['name'] for s in roots})}")
    main_self = sum(own[s["id"]] for s in spans if s["pid"] == main_pid)
    worker_cover = union_length([(s["start"], s["end"]) for s in spans
                                 if s["pid"] != main_pid and by_id.get(s["parent"], {}).get("pid") == main_pid])
    total = metrics["cli.main_s"]
    tally.check(abs(main_self + worker_cover - total) <= 1e-6 * total + 1e-9,
                f"self times add up to {main_self + worker_cover:.6f} s, not cli.main_s = {total:.6f} s")

    # shares of the time all processes spent in flowtab, so that work done
    # by two pool workers at once is not counted against one wall clock
    busy_total = sum(own.values())
    shares = {m: round(metrics[m] / busy_total, 4) for m in DURATIONS if metrics[m] > 0}
    detail = {
        "spans": len(spans),
        "processes": len({s["pid"] for s in spans}),
        "busy_s": busy_total,
        "share_of_busy": shares,
        "worker_busy_s": {str(pid): round(v, 4) for pid, v in busy.items()},
        "notes": notes,
    }
    return metrics, detail

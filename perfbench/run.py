"""flowtab benchmark: ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1``.

Run from the root of a flowtab checkout.  Each timed iteration is a fresh
child interpreter (``child.py``) that imports flowtab from ``src/`` and calls
``flowtab.cli.main`` with the workload's arguments, so every figure is taken
from outside the program.  A run repeats iterations until T seconds of them
are measured (at least MIN_ITERATIONS), checks every output, and prints a
detail record and then, as its last line, the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
one untraced iteration is followed by one under the span recorder
(``spans.py``) and the metrics are the per-layer ones (``layers.py``).
Every file the run writes lives in a ``.perfbench-*`` directory under the
checkout, removed at exit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import checks
import layers
import workloads

MIN_ITERATIONS = 2         # timed iterations per untraced run
SETUP_SAMPLES = 5          # set-up times per untraced run; set-up-only children add the rest
RUN_BUDGET_S = 100.0       # start no iteration that could end past this
DEADLINE_S = 170.0         # kill any child still running this long into the run
# end-to-end metrics (trace 0) and their units, as BENCHMARK.json lists them
END_TO_END = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MiB"}
# Load comes from the flowtab processes alone: BLAS and OpenMP pools would
# add a thread per CPU to each process and its fork workers, and on two CPUs
# their spinning made the analyze timings follow the host's load
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HERE = os.path.dirname(os.path.abspath(__file__))
TOLERANCES = os.path.join(HERE, "tolerances.json")


@dataclass
class Child:
    """Result of one child interpreter: its JSON result (None on failure),
    exit status, wall time and the peak resident set of it and every process
    it waited for, its fork workers included."""

    result: dict | None
    exit_code: int
    elapsed_s: float
    peak_rss_mb: float
    log: str

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.result is not None and \
            all(c["exit"] == 0 for c in self.result["calls"])


class Runner:
    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.count = 0
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, commands, trace_dir=None, reference=None) -> Child:
        self.count += 1
        stem = os.path.join(self.work, f"child-{self.count}")
        job = {
            "src": os.path.join(self.root, "src"),
            "model": os.path.join(self.root, workloads.MODEL),
            "commands": commands,
            "trace_dir": trace_dir,
            "reference": reference,
            "result": stem + ".result.json",
        }
        with open(stem + ".job.json", "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        with open(stem + ".log", "w", encoding="utf-8") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), stem + ".job.json"],
                stdout=log, stderr=subprocess.STDOUT, cwd=self.work, start_new_session=True,
                env={**os.environ, **ONE_THREAD},
            )
            status, usage = _wait(proc, self.deadline)
            elapsed = time.perf_counter() - start
        result = None
        if status == 0 and os.path.exists(job["result"]):
            with open(job["result"], "r", encoding="utf-8") as fh:
                result = json.load(fh)
        with open(stem + ".log", "r", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        return Child(result, status, elapsed, usage.ru_maxrss / 1024.0, tail)


def _wait(proc: subprocess.Popen, deadline: float):
    """wait4 the child (its rusage covers the workers it reaped), killing
    its whole session if it is still running at the monotonic deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": [round(v, 6) for v in values]}


def _digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cache_sizes() -> dict:
    """L2 and L3 sizes of CPU 0, as the kernel reports them."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        indexes = [name for name in os.listdir(base) if name.startswith("index")]
    except OSError:
        return out
    for index in sorted(indexes):
        try:
            fields = {}
            for field in ("level", "type", "size"):
                with open(os.path.join(base, index, field), "r", encoding="ascii") as fh:
                    fields[field] = fh.read().strip()
        except OSError:
            continue
        if fields["level"] in ("2", "3") and fields["type"] in ("Unified", "Data"):
            out[f"L{fields['level']}"] = fields["size"]
    return out


def _git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None  # a plain checkout; source_sha256 identifies the code
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except OSError:
        return None
    return out.stdout.strip() or None


def _source_sha256(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "flowtab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root: str, plan: workloads.Plan, versions: dict | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "caches": _cache_sizes(),
        "versions": versions,
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(root),
        "model_sha256": _digest(os.path.join(root, workloads.MODEL)),
        # two int64 arrays per flow; computed, not measured
        "population_bytes_computed": plan.flows * workloads.FLOW_BYTES,
        "jobs": plan.jobs,
    }


def _load_sigma(workload: str) -> dict[str, float]:
    with open(TOLERANCES, "r", encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload, {})


def reference_job(plan: workloads.Plan) -> dict:
    if plan.kind == "simulate":
        return {"kind": "simulate", "axis": plan.axis}
    return {"kind": "analyze", "length_csv": plan.outputs["length"]}


def _check_outputs(tally: checks.Tally, workload: str, plan: workloads.Plan, reference: dict) -> None:
    if plan.kind == "simulate":
        checks.check_simulate(tally, plan.outputs, plan.axis, plan.flows, reference["cells"],
                              _load_sigma(workload))
    else:
        for axis in workloads.ANALYZE_AXES:
            checks.check_analyze(tally, plan.outputs[axis], axis, plan.targets,
                                 reference["first_length_steps"] if axis == "length" else {})


def run(workload: str, seed: int, seconds: float, trace: bool, root: str,
        work: str) -> tuple[dict, dict, dict | None]:
    """One run in the caller's work directory: (result, detail record, the
    reference values the outputs were checked against).  The first timed
    iteration's outputs are under ``<work>/iter-0``."""
    started = time.perf_counter()
    runner = Runner(root, work)
    tally = checks.Tally()

    def plan_for(iteration: str) -> workloads.Plan:
        p = workloads.plan(workload, seed, root, work, iteration)
        os.makedirs(os.path.join(work, iteration), exist_ok=True)
        return p

    def launched(child: Child, what: str) -> bool:
        return tally.check(child.ok, f"{what}: exit {child.exit_code}: {child.log[-600:]}")

    first = plan_for("iter-0")
    setup_trace = None
    if first.setup:
        if trace:
            setup_trace = os.path.join(work, "trace-setup")
            os.makedirs(setup_trace)
        launched(runner.child(first.setup, trace_dir=setup_trace), "set-up")

    walls, setups, rss, digests, plans = [], [], [], [], []
    measured = 0.0
    versions = None
    reference = None
    # a traced run needs one untraced iteration, for the reference values
    # and as the output the traced one must reproduce
    min_iterations = 1 if trace else MIN_ITERATIONS
    target = 0.0 if trace else seconds
    while True:
        p = plan_for(f"iter-{len(plans)}")
        child = runner.child(p.commands, reference=None if plans else reference_job(p))
        measured += child.elapsed_s
        if launched(child, f"iteration {len(plans)}"):
            walls.append(sum(c["wall_s"] for c in child.result["calls"]))
            setups.append(child.result["setup_s"])
            rss.append(child.peak_rss_mb)
            versions = child.result["versions"]
            reference = reference or child.result.get("reference")
        plans.append(p)
        digests.append({name: _digest(path) for name, path in p.outputs.items()})
        elapsed = time.perf_counter() - started
        if len(plans) >= min_iterations and measured >= target:
            break
        if elapsed + 2 * child.elapsed_s > RUN_BUDGET_S or not child.ok:
            break
    # set-up is about 1 s, so more samples of it cost little: fresh children
    # that import flowtab and load the model, and run no command
    while (not trace and walls and len(setups) < SETUP_SAMPLES
           and time.perf_counter() - started < RUN_BUDGET_S):
        child = runner.child([])
        if not launched(child, "set-up-only child"):
            break
        setups.append(child.result["setup_s"])

    layer_metrics, layer_detail = {}, {}
    if trace:
        p = plan_for("iter-traced")
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir)
        traced = runner.child(p.commands, trace_dir=trace_dir)
        plans.append(p)
        digests.append({name: _digest(path) for name, path in p.outputs.items()})
        if launched(traced, "traced iteration"):
            spans = layers.load(trace_dir)
            setup_spans = layers.load(setup_trace) if setup_trace else []
            layer_metrics, layer_detail = layers.per_layer(
                tally, spans, setup_spans, workload, p.jobs, len(p.seeds))
            # the recorder's cost per span, timed in the traced child, times
            # the spans of all its processes
            layer_metrics["tracing_overhead_s"] = traced.result["span_cost_s"] * len(spans)

    if reference is not None:
        _check_outputs(tally, workload, plans[0], reference)
    else:
        tally.check(False, "no reference values: the first iteration failed")
    for i, d in enumerate(digests[1:], start=1):
        for name, value in d.items():
            tally.check(value is not None and value == digests[0][name],
                        f"iteration {i}: {name} output differs from iteration 0 (same seed)")

    if trace:
        metrics = {name: {"value": layer_metrics.get(name, 0.0), "unit": unit}
                   for name, unit in layers.UNITS.items()}
    else:
        values = {
            "wall_s": statistics.median(walls) if walls else 0.0,
            "setup_s": statistics.median(setups) if setups else 0.0,
            "work_per_s": statistics.median(first.work / w for w in walls) if walls else 0.0,
            "peak_rss_mb": max(rss) if rss else 0.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seeds": list(first.seeds),
        "trace": trace,
        "work_per_iteration": first.work,
        "wall_s": _quartiles(walls) if walls else None,
        "setup_s": _quartiles(setups) if setups else None,
        "peak_rss_mb": rss,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "failures": tally.failures[:20],
        "layers": layer_detail,
        "environment": environment(root, first, versions),
        "run_s": time.perf_counter() - started,
    }
    return result, detail, reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.path.dirname(HERE)
    missing = [p for p in ("src/flowtab/cli.py", workloads.MODEL)
               if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: not a flowtab checkout, missing {missing}", file=sys.stderr)
        return 2

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        result, detail, _ = run(args.workload, args.seed, args.seconds, bool(args.trace), root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in detail["failures"]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write tolerances.json: the spread of each simulate cell's coverage between seeds.

    python3 perfbench/calibrate.py

Runs each simulate workload once per calibration seed (``run.run``, the
benchmark's own runs) and records, per cell, the standard deviation of the
simulated coverage across those seeds.  The output checks allow a simulated
coverage to sit checks.Z of these deviations from the analytic value.  The
calibration seeds are kept apart from the seeds the benchmark is run and
checked with.  It prints, per workload, the largest gap to the analytic
value in units of the deviation.
"""
from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile

import checks
import run
import workloads

CALIBRATION_SEEDS = range(1001, 1009)


def calibrate(name: str, root: str, work: str) -> tuple[dict, float]:
    coverage: dict[str, list[float]] = {}
    entries: dict[str, float] = {}
    analytic = None
    for seed in CALIBRATION_SEEDS:
        seed_work = os.path.join(work, f"{name}-{seed}")
        os.makedirs(seed_work)
        _, detail, reference = run.run(name, seed, 0.0, False, root, seed_work)
        if reference is None:
            raise RuntimeError(f"{name} seed {seed}: {detail['failures']}")
        for message in detail["failures"]:
            print(f"{name} seed {seed}: check failed: {message}", file=sys.stderr)
        analytic = {checks.cell_key(c["kind"], c["param"]): c["coverage"] for c in reference["cells"]}
        plan = workloads.plan(name, seed, root, seed_work, "iter-0")
        header, rows = checks.read_table(plan.outputs["csv"])
        for cell in checks.simulate_cells(header, rows):
            key = f"{cell['kind']}:{cell['param']}"
            coverage.setdefault(key, []).append(checks.number(cell["cov"]))
            entries[key] = min(entries.get(key, float("inf")),
                               plan.flows / checks.number(cell["ops"]))
        shutil.rmtree(seed_work)
        print(f"{name}: seed {seed} done", file=sys.stderr)
    sigma = {key: statistics.stdev(values) for key, values in coverage.items()}
    worst = 0.0
    for key, values in coverage.items():
        if entries[key] >= checks.MIN_ENTRIES and sigma[key] > 0:
            gaps = [abs(v - analytic[key]) / sigma[key] for v in values]
            worst = max(worst, *gaps)
            print(f"  {key}: sigma {sigma[key]:.4f}, mean gap "
                  f"{statistics.mean(values) - analytic[key]:+.4f}, worst {max(gaps):.2f} sigma",
                  file=sys.stderr)
    return sigma, worst


def main() -> int:
    root = os.path.dirname(run.HERE)
    out = {"calibration_seeds": list(CALIBRATION_SEEDS), "workloads": {}}
    work = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        for name in workloads.NAMES:
            if workloads.plan(name, 0, root, work, "probe").kind != "simulate":
                continue
            sigma, worst = calibrate(name, root, work)
            out["workloads"][name] = {key: round(value, 6) for key, value in sigma.items()}
            print(f"{name}: largest |simulated - analytic| on checked cells = {worst:.2f} sigma")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.TOLERANCES, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

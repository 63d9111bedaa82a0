"""Output checks for the benchmark's workloads (standard library only).

Every rule applied to one row or cell is one attempted check; a rule that
does not hold is one failed check.  The rules hold for any correct build of
flowtab, so they do not pin the exact bytes an evaluator produces: a change
that legitimately moves covered bytes still passes, while an edited or
inconsistent table does not.
"""
from __future__ import annotations

import csv
import math

SIMULATE_HEADER = ["param", "first_cov", "first_ops", "first_occ", "thr_cov", "thr_ops",
                   "thr_occ", "prob", "smp_cov", "smp_ops", "smp_occ"]
ANALYZE_HEADER = ["algorithm", "target_coverage", "parameter", "coverage", "ops_reduction",
                  "occ_reduction", "ops_vs_first", "occ_vs_first"]
PREFIX = {"first": "first", "threshold": "thr", "sampling": "smp"}

# Simulated coverage must lie within Z standard deviations of the analytic
# value, the deviation being the spread of that cell between seeds
# (tolerances.json, written by calibrate.py), on cells where at least
# MIN_ENTRIES flows created an entry.  The analytic model is itself an
# approximation (continuous bytes, no size clamping), with gaps of up to
# 0.25 percentage points that no seed spread covers, so the tolerance never
# falls below the model error acceptance test A4 allows: 2% of the analytic
# value, 3% for size-scaled sampling.
Z = 4.0
MIN_ENTRIES = 1000
MODEL_ERROR = 0.02
MODEL_ERROR_SIZE_SAMPLING = 0.03
ROUNDING = 0.005      # the tables print two decimals
TARGET_TOL = 0.01     # analyze: achieved coverage vs target, percentage points


class Tally:
    """Counts attempted checks and keeps a message for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def number(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def read_table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def read_markdown(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    return (rows[0], rows[2:]) if len(rows) >= 2 else ([], [])


def simulate_cells(header: list[str], rows: list[list[str]]) -> list[dict]:
    """The sweep cells of a simulate csv: kind, parameter text and metrics."""
    out = []
    for row in rows:
        record = dict(zip(header, row))
        for kind, prefix in PREFIX.items():
            if record.get(f"{prefix}_cov", "") == "":
                continue
            out.append({
                "kind": kind,
                "param": record["prob" if kind == "sampling" else "param"],
                "cov": record[f"{prefix}_cov"],
                "ops": record[f"{prefix}_ops"],
                "occ": record[f"{prefix}_occ"],
            })
    return out


def cell_key(kind: str, param: float) -> str:
    """The parameter as the tables print it, prefixed with the algorithm."""
    text = f"{param:.2e}" if kind == "sampling" else f"{param:g}"
    return f"{kind}:{text}"


def check_simulate(tally: Tally, outputs: dict[str, str], axis: str, flows: int,
                   reference: list[dict], sigma: dict[str, float]) -> None:
    header, rows = read_table(outputs["csv"])
    tally.check(header == SIMULATE_HEADER, f"csv header {header}")
    rows = [r for r in rows if len(r) == len(SIMULATE_HEADER)] if header == SIMULATE_HEADER else []
    cells = simulate_cells(header, rows)
    expected = [cell_key(c["kind"], c["param"]) for c in reference]
    got = [f"{c['kind']}:{c['param']}" for c in cells]
    tally.check(sorted(got) == sorted(expected),
                f"csv has {len(got)} cells, expected one row per cell ({len(expected)})")

    md_header, md_rows = read_markdown(outputs["md"])
    tally.check(md_header == header and md_rows == rows, "markdown table differs from csv")
    plot_header, plot_rows = read_table(outputs["plot"])
    tally.check(plot_header == ["algorithm", "coverage", "occ_reduction"], "plot header")
    by_kind = sorted(cells, key=lambda c: list(PREFIX).index(c["kind"]))
    tally.check([[c["kind"], c["cov"], c["occ"]] for c in by_kind] == plot_rows,
                "plot rows differ from csv cells")

    for c in cells:
        name = f"{c['kind']} {c['param']}"
        cov, ops, occ = number(c["cov"]), number(c["ops"]), number(c["occ"])
        tally.check(0.0 <= cov <= 100.0, f"{name}: coverage {c['cov']} outside [0, 100]")
        tally.check(ops >= 1.0, f"{name}: ops reduction {c['ops']} below 1")
        tally.check(occ >= 1.0, f"{name}: occ reduction {c['occ']} below 1")

    record = [dict(zip(header, r)) for r in rows]
    for prev, cur in zip(record, record[1:]):
        tally.check(number(cur["first_cov"]) <= number(prev["first_cov"]),
                    f"first_cov rises from {prev['first_cov']} at {prev['param']} "
                    f"to {cur['first_cov']} at {cur['param']}")
    for r in record:
        # threshold creates its entry for exactly the flows first does
        tally.check(r["thr_ops"] == r["first_ops"],
                    f"param {r['param']}: thr_ops {r['thr_ops']} != first_ops {r['first_ops']}")
        tally.check(number(r["thr_cov"]) <= number(r["first_cov"]),
                    f"param {r['param']}: thr_cov {r['thr_cov']} > first_cov {r['first_cov']}")
    if axis == "length":
        # uniform sampling at p = 1 creates every entry at the first packet
        ones = [r for r in record if r["prob"] == "1.00e+00"]
        tally.check(len(ones) == 1 and ones[0]["smp_cov"] == "100.00" and ones[0]["smp_ops"] == "1.00",
                    f"sampling at p = 1 is not (100.00 %, 1.00): {ones}")

    analytic = {cell_key(c["kind"], c["param"]): c["coverage"] for c in reference}
    for c in cells:
        key = f"{c['kind']}:{c['param']}"
        ops = number(c["ops"])
        if key not in analytic or key not in sigma or flows / ops < MIN_ENTRIES:
            continue
        gap = abs(number(c["cov"]) - analytic[key])
        rel = MODEL_ERROR_SIZE_SAMPLING if (axis, c["kind"]) == ("size", "sampling") else MODEL_ERROR
        tol = max(Z * sigma[key], rel * analytic[key]) + ROUNDING
        tally.check(gap <= tol, f"{key}: simulated coverage {c['cov']} is {gap:.3f} from "
                                f"analytic {analytic[key]:.3f} (tolerance {tol:.3f})")


def check_analyze(tally: Tally, path: str, axis: str, targets: tuple[str, ...],
                  steps: dict[str, float]) -> None:
    header, rows = read_table(path)
    tally.check(header == ANALYZE_HEADER, f"{axis}: analyze header {header}")
    expected = [(kind, f"{float(t):g}") for t in targets for kind in ("first", "threshold", "sampling")]
    tally.check([(r[0], r[1]) for r in rows] == expected,
                f"{axis}: rows are not one per (target, algorithm)")
    for r in rows:
        if len(r) != len(ANALYZE_HEADER):
            tally.check(False, f"{axis}: malformed row {r}")
            continue
        kind, target, param = r[0], r[1], r[2]
        name = f"{axis} {kind} {target}"
        if param == "unreachable":
            tally.check(kind == "sampling", f"{name}: only sampling may be unreachable")
            continue
        gap = abs(float(r[3]) - float(target))
        # the integer length axis moves first's coverage in pmass steps
        tol = steps.get(target, 0.0) + 1e-4 if (axis == "length" and kind == "first") else TARGET_TOL
        tally.check(gap <= tol, f"{name}: coverage {r[3]} misses target by {gap:.4f} (tol {tol:.4f})")
        if r[6]:
            # first is the upper bound on the ops reduction at equal coverage
            tally.check(float(r[6]) >= 1.0, f"{name}: ops_vs_first {r[6]} below 1")

"""Batch experiment runner: multi-seed simulation sweeps with analytic columns.

A sweep evaluates the first/threshold algorithms over a threshold series
and the sampling algorithm over a probability series, for every seed,
over one generated population per seed (the population depends only on
(seed, flow_count), so it is shared across all cells of that seed), or
over one ingested population shared by every seed.  Each population is
one PacketLayout, built once and shared by all of its cells.

One population, ingested or a single seed's, is made before the pool
starts.  Over it only sampling draws on the seed, so each first and
threshold cell runs once and its result is every seed's, and each
sampling cell runs once per seed; each of those evaluations is one task
for the worker pool, whose forked workers inherit the running sweep.
Several generated seeds keep the seed as the task.  The analytic column,
which needs no population, is one more task, so the workers share it
too.  Cells are merged into per-parameter means and standard deviations,
with the analytic value alongside.  Output is byte-identical for
identical specs regardless of the worker count.
"""
from __future__ import annotations

import itertools
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import multiprocessing
import numpy as np

from .algorithms import (
    AXES,
    DURATION_MODELS,
    AlgorithmSpec,
    DegenerateError,
    MetricsReport,
    PacketLayout,
    aggregate_batch,
    check_algorithms as _check_algorithms,  # private: traced runs skip it
    evaluate_batch,
)
from .analytic import analytic_for_spec
from .generator import GeneratorConfig, generate_arrays, read_flow_csv
from .model import TrafficModel

__all__ = [
    "SweepSpec",
    "SweepCell",
    "SweepResult",
    "run_sweep",
    "emit_table",
    "default_thresholds",
    "default_probabilities",
]

# spawn-key tag of sampling cells per axis: changing it changes every sampled result
_SAMPLING_TAG = {"length": 2, "size": 3}


def default_thresholds(axis: str) -> tuple[float, ...]:
    """Powers of two: 1..2^21 packets, or 64..2^30 bytes."""
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}")
    return tuple(float(2 ** k) for k in (range(0, 22) if axis == "length" else range(6, 31)))


def default_probabilities(axis: str) -> tuple[float, ...]:
    """Halving series 1, 0.5, ... matching the length of the threshold series."""
    return tuple(0.5 ** k for k in range(len(default_thresholds(axis))))


@dataclass(frozen=True)
class SweepSpec:
    model: TrafficModel
    axis: str = "length"
    algorithms: tuple[str, ...] = ("first", "threshold", "sampling")
    thresholds: tuple[float, ...] = ()
    probabilities: tuple[float, ...] = ()
    seeds: tuple[int, ...] = (1,)
    flow_count: int = 1_000_000
    duration_model: str = "equal"
    min_packet: int = GeneratorConfig.min_packet
    jobs: int = 1
    population_csv: str | None = None

    def __post_init__(self) -> None:
        if not self.seeds or not all(isinstance(seed, numbers.Real) for seed in self.seeds):
            raise ValueError(f"sweep requires one or more integer seeds, got {self.seeds!r}")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {min(self.seeds)}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"a seed is named twice in {list(self.seeds)}")
        for seed in self.seeds:  # refuses a bad seed, flow_count or min_packet
            self.generator_config(seed)
        if self.duration_model not in DURATION_MODELS:
            raise ValueError(f"unknown duration_model {self.duration_model!r}")
        if isinstance(self.jobs, bool) or not isinstance(self.jobs, int) or self.jobs < 1:
            raise ValueError(f"jobs must be an integer >= 1, got {self.jobs!r}")
        _check_algorithms(self.algorithms)
        if not self.thresholds and {"first", "threshold"} & set(self.algorithms):
            object.__setattr__(self, "thresholds", default_thresholds(self.axis))
        if "sampling" in self.algorithms and not self.probabilities:
            object.__setattr__(self, "probabilities", default_probabilities(self.axis))
        self.cells()  # refuses a bad axis or parameter

    def generator_config(self, seed: int) -> GeneratorConfig:
        """The settings that generate the seed's population."""
        return GeneratorConfig(seed=seed, flow_count=self.flow_count, min_packet=self.min_packet)

    def cells(self) -> list[AlgorithmSpec]:
        return [AlgorithmSpec.of(kind, self.axis, parameter) for kind in self.algorithms
                for parameter in (self.probabilities if kind == "sampling" else self.thresholds)]


@dataclass(frozen=True)
class SweepCell:
    kind: str
    parameter: float
    mean: tuple[float, float, float]  # coverage %, ops reduction, occ reduction
    std: tuple[float, float, float]
    analytic: MetricsReport
    per_seed: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class SweepResult:
    flow_count: int
    cells: tuple[SweepCell, ...]

    def cell(self, kind: str, parameter: float) -> SweepCell:
        for c in self.cells:
            if c.kind == kind and c.parameter == parameter:
                return c
        raise KeyError((kind, parameter))

    def series(self, kind: str) -> list[SweepCell]:
        return [c for c in self.cells if c.kind == kind]


def _sampling_rng(seed: int, spec: AlgorithmSpec) -> np.random.Generator:
    # value-derived spawn key: identical (seed, axis, p) cells draw identically
    bits = int(np.float64(spec.probability).view(np.uint64))
    key = (_SAMPLING_TAG[spec.axis], bits >> 32, bits & 0xFFFFFFFF)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


def _report(leg, *args) -> MetricsReport:
    """leg(*args), or on either leg the degenerate cell where no flow gains an entry."""
    try:
        return leg(*args)
    except DegenerateError:
        return MetricsReport(0.0, math.inf, math.inf)


def _metrics_tuple(layout, spec, seed, duration_model) -> tuple[float, float, float]:
    rng = _sampling_rng(seed, spec) if spec.kind == "sampling" else None
    entries = evaluate_batch(layout, spec=spec, rng=rng)  # traced runs label spans by spec=
    rep = _report(aggregate_batch, layout, *entries, duration_model)
    return (rep.coverage_pct, rep.operations_reduction, rep.occupancy_reduction)


def _generated(spec: SweepSpec, seed: int) -> PacketLayout:
    population = generate_arrays(spec.model, spec.generator_config(seed))
    return PacketLayout(*population, spec.model.max_packet_size)


# cell kinds, dearest evaluation first
_DEAREST_FIRST = ("sampling", "threshold", "first")


def _tasks(spec: SweepSpec, cells: Sequence[AlgorithmSpec], one_population: bool):
    """Units of work as ((seed, cell indices), rows): a task evaluates its
    cells for one seed, and its metrics fill those rows of ``per_seed``;
    the analytic task, seed None and no rows, reports every cell's analytic
    value.  It follows the whole-seed tasks of several generated seeds and
    precedes the tasks of one population, ingested or a single seed's,
    each one evaluation (see the module docstring), dearest kind first, so
    that the pool's dynamic dispatch ends on the cheap ones."""
    every_cell = tuple(range(len(cells)))
    analytic = ((None, every_cell), ())
    if not one_population:
        return [((seed, every_cell), (j,)) for j, seed in enumerate(spec.seeds)] + [analytic]
    every_row = tuple(range(len(spec.seeds)))
    tasks = [analytic]
    for i, cell in sorted(enumerate(cells), key=lambda ic: _DEAREST_FIRST.index(ic[1].kind)):
        if cell.kind == "sampling":
            tasks.extend(((seed, (i,)), (j,)) for j, seed in enumerate(spec.seeds))
        else:
            tasks.append(((spec.seeds[0], (i,)), every_row))
    return tasks


# the running sweep's (spec, population, cells), None between sweeps; the population
# is the shared PacketLayout, ingested or the single seed's, or None.  Forked workers inherit
# it without pickling and share its pages with the parent, so each copies none.
_inherited = None


def _run_task(task) -> list:
    """Evaluate a task's cells for its seed, over the shared population or
    else over the one generated for the seed, or, for the analytic task,
    their analytic reports."""
    spec, population, cells = _inherited
    seed, indices = task
    if seed is None:
        return [_report(analytic_for_spec, spec.model, cells[i]) for i in indices]
    if population is None:
        population = _generated(spec, seed)
    return [_metrics_tuple(population, cells[i], seed, spec.duration_model) for i in indices]


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    if any(math.isinf(v) for v in values):
        return math.inf, math.nan
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return mean, std


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run the full sweep; deterministic for a given spec (seeds explicit)."""
    global _inherited
    cells, population, max_packet = spec.cells(), None, spec.model.max_packet_size
    if spec.population_csv is not None:
        # an ingested population is the same for every seed: read it once
        population = PacketLayout(*read_flow_csv(spec.population_csv, max_packet), max_packet)
    elif len(spec.seeds) == 1:
        population = _generated(spec, spec.seeds[0])
    tasks = _tasks(spec, cells, population is not None)
    _inherited = (spec, population, cells)
    # a fork pool starts all its workers at once: start no more than there are tasks
    workers = min(spec.jobs, len(tasks))
    try:
        if workers > 1:
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                outcomes = list(pool.map(_run_task, [task for task, _ in tasks]))
        else:
            outcomes = [_run_task(task) for task, _ in tasks]
    finally:
        _inherited = None
    per_seed = [[None] * len(cells) for _ in spec.seeds]
    for ((seed, indices), rows), metrics in zip(tasks, outcomes):
        if seed is None:
            analytic = metrics
        for i, m in zip(indices, metrics):
            for j in rows:
                per_seed[j][i] = m

    out = []
    for i, cell in enumerate(cells):
        rows = [per_seed[j][i] for j in range(len(spec.seeds))]
        # (coverage, ops, occ) means and standard deviations
        mean, std = zip(*(_mean_std(column) for column in zip(*rows)))
        out.append(SweepCell(kind=cell.kind, parameter=float(cell.parameter), mean=mean, std=std,
                             analytic=analytic[i], per_seed=tuple(rows)))
    return SweepResult(len(population.lengths) if population else spec.flow_count, tuple(out))


# -- rendering ----------------------------------------------------------------


def _means(header: str, cells: Sequence[SweepCell], k: int) -> list[str]:
    return [header] + [f"{c.mean[k]:.2f}" for c in cells]


def _metrics(prefix: str, series: Sequence[SweepCell]) -> list[list[str]]:
    """A series' coverage, ops and occ columns; none for an empty series."""
    names = ("cov", "ops", "occ") if series else ()
    return [_means(f"{prefix}_{m}", series, k) for k, m in enumerate(names)]


def emit_table(result: SweepResult, fmt: str) -> str:
    """Render a sweep as csv, markdown, or plotdata.

    Every format is a list of columns, each a header followed by its cells,
    and its rows are those columns read across, a short column ending in
    empty cells.  csv / markdown mirror the reference layout: a ``param``
    column of the thresholds with the first and threshold metrics beside
    it, then a ``prob`` column of the probabilities with the sampling
    metrics.  plotdata emits (algorithm, coverage, occ_reduction) over the
    first, threshold and sampling cells for curve plotting.
    """
    if fmt not in ("csv", "markdown", "plotdata"):
        raise ValueError(f"unknown table format {fmt!r}")
    first, thr, smp = (result.series(kind) for kind in ("first", "threshold", "sampling"))
    if fmt == "plotdata":
        cells = first + thr + smp
        columns = [["algorithm"] + [c.kind for c in cells],
                   _means("coverage", cells, 0), _means("occ_reduction", cells, 2)]
    else:
        columns = []
        if first or thr:
            columns.append(["param"] + [f"{c.parameter:g}" for c in first or thr])
        columns += _metrics("first", first) + _metrics("thr", thr)
        if smp:
            columns.append(["prob"] + [f"{c.parameter:.2e}" for c in smp])
        columns += _metrics("smp", smp)
    rows = itertools.zip_longest(*columns, fillvalue="")
    if fmt != "markdown":
        return "".join(",".join(row) + "\n" for row in rows)
    lines = ["| " + " | ".join(row) + " |\n" for row in rows]
    lines.insert(1, "|---" * len(columns) + "|\n")
    return "".join(lines)

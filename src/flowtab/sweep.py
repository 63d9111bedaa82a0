"""Batch experiment runner: multi-seed simulation sweeps with analytic columns.

A sweep evaluates the first/threshold algorithms over a threshold series
and the sampling algorithm over a probability series, for every seed,
over one generated population per seed (the population depends only on
(seed, flow_count), so it is shared across all cells of that seed), or
over one ingested population shared by every seed.  Each population is
one PacketLayout, built once and shared by all of its cells.

One population, ingested or a single seed's, is made first.  Over it only
sampling draws on the seed, so each first and threshold cell runs once
and its result is every seed's, and each sampling cell runs once per
seed; each of those evaluations is one task.  Several generated seeds
keep the seed as the task.  With ``jobs`` above 1 the sweep forks
``min(jobs, tasks)`` workers that are dealt the tasks round-robin in
series order.  Before them, a child reads or generates the one population
and sends it back, while a second sums the analytic column, which needs
no population; over several generated seeds the last worker sums it
first.  Each child inherits the spec, the population and the cells, sends
its value or its error back through a pipe, and is reaped before the
sweep returns or raises.  Cells are merged into per-parameter means and
standard deviations, with the analytic value alongside.  Output is
byte-identical for identical specs regardless of the worker count.
"""
from __future__ import annotations

import copy
import itertools
import math
import numbers
import os
import pickle
from dataclasses import dataclass
from typing import Sequence

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
from .generator import GeneratorConfig, _rng, generate_arrays, read_flow_csv
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
        return {(c.kind, c.parameter): c for c in self.cells}[kind, parameter]


def _sampling_rng(seed: int, spec: AlgorithmSpec) -> np.random.Generator:
    # value-derived spawn key: identical (seed, axis, p) cells draw identically
    bits = int(np.float64(spec.probability).view(np.uint64))
    return _rng(seed, _SAMPLING_TAG[spec.axis], bits >> 32, bits & 0xFFFFFFFF)


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


def _flows(spec: SweepSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (lengths, sizes) of the ingested population, else of the seed's."""
    if spec.population_csv is not None:
        return read_flow_csv(spec.population_csv, spec.model.max_packet_size)
    return generate_arrays(spec.model, spec.generator_config(seed))


def _tasks(spec: SweepSpec, cells: Sequence[AlgorithmSpec], one_population: bool):
    """Units of work as (seed, cell indices, rows): a task evaluates its
    cells for one seed and its metrics fill those seed rows.  Several
    generated seeds give one task per seed, one population one task per
    evaluation (see the module docstring), in series order."""
    if not one_population:
        return [(seed, range(len(cells)), (j,)) for j, seed in enumerate(spec.seeds)]
    return [(seed, (i,), (j,) if cell.kind == "sampling" else range(len(spec.seeds)))
            for i, cell in enumerate(cells)
            for j, seed in enumerate(spec.seeds if cell.kind == "sampling" else spec.seeds[:1])]


def _run_tasks(spec: SweepSpec, population, cells, tasks, analytic: bool):
    """Each task's metrics: its cells evaluated for its seed, over the shared
    population or else over the one generated for the seed; and, made first
    over a copy of the model whose tail tables die with it, the analytic
    column if ``analytic``, else None."""
    column = [_report(analytic_for_spec, model, cell) for model in [copy.deepcopy(spec.model)]
              for cell in cells] if analytic else None
    max_packet = spec.model.max_packet_size
    return [[_metrics_tuple(layout, cells[i], seed, spec.duration_model) for i in indices]
            for seed, indices, _ in tasks
            for layout in [population or PacketLayout(*_flows(spec, seed), max_packet)]], column


def _fork_join(calls) -> list:
    """fn(*args) for each (fn, args) of ``calls``, each in a forked child that
    inherits its arguments; their values in order.  A child pickles its value,
    or its exception and traceback, into its pipe and leaves through os._exit.
    Every child is reaped before this returns or raises the first exception sent,
    caused by its traceback; a child that sent nothing is a ChildProcessError."""
    children, sent = [], []
    try:
        for fn, args in calls:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:  # no child holds the pipe
                os.close(read)
                os.close(write)
                raise
            if pid == 0:  # the child: send the outcome, never return
                try:
                    try:
                        data = pickle.dumps((fn(*args), None))
                    except BaseException as exc:
                        import traceback  # only a failing child loads it
                        tb = traceback.format_exc()
                        try:
                            data = pickle.dumps((exc, tb))
                        except Exception:  # an exception that pickle cannot carry
                            data = pickle.dumps((RuntimeError(repr(exc)), tb))
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(data)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read))
    finally:
        for pid, read in children:
            with os.fdopen(read, "rb") as pipe:
                sent.append((pipe.read(), os.waitpid(pid, 0)[1]))
    values = []
    for data, status in sent:
        if not data:
            raise ChildProcessError(f"a forked child sent nothing (wait status {status})")
        value, tb = pickle.loads(data)
        if tb is not None:
            raise value from RuntimeError(f"in a forked child:\n{tb}")
        values.append(value)
    return values


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    if any(math.isinf(v) for v in values):
        return math.inf, math.nan
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), (float(arr.std(ddof=1)) if len(arr) > 1 else 0.0)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run the full sweep; deterministic for a given spec (seeds explicit)."""
    cells, population, column = spec.cells(), None, None
    run = _fork_join if spec.jobs > 1 else lambda calls: [fn(*args) for fn, args in calls]
    if spec.jobs > 1:  # the children share numpy.random, not each loading its own
        import numpy.random  # noqa: F401
    if spec.population_csv is not None or len(spec.seeds) == 1:
        # one population: a child reads or generates it, another sums the analytic column
        flows, (_, column) = run([(_flows, (spec, spec.seeds[0])),
                                  (_run_tasks, (spec, None, cells, (), True))])
        population = PacketLayout(*flows, spec.model.max_packet_size)
    tasks = _tasks(spec, cells, population is not None)
    # else the last worker, whose hand is the shortest, adds the analytic column
    workers = min(spec.jobs, len(tasks))
    hands = [tasks[w::workers] for w in range(workers)]
    calls = [(_run_tasks, (spec, population, cells, hand, column is None and w == workers - 1))
             for w, hand in enumerate(hands)]
    dealt, columns = zip(*run(calls))
    per_cell = [[None] * len(spec.seeds) for _ in cells]
    for (_, indices, rows), metrics in zip(itertools.chain(*hands), itertools.chain(*dealt)):
        for i, m in zip(indices, metrics):
            for j in rows:
                per_cell[i][j] = m

    out = []
    for cell, rows, report in zip(cells, per_cell, column or columns[-1]):
        # (coverage, ops, occ) means and standard deviations
        mean, std = zip(*(_mean_std(metric) for metric in zip(*rows)))
        out.append(SweepCell(kind=cell.kind, parameter=float(cell.parameter), mean=mean, std=std,
                             analytic=report, per_seed=tuple(rows)))
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
    first, thr, smp = ([c for c in result.cells if c.kind == kind]
                       for kind in ("first", "threshold", "sampling"))
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

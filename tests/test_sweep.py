from __future__ import annotations

import dataclasses
import errno
import json
import math
import os
import pathlib
import signal

import numpy as np
import pytest

import flowtab.sweep
from flowtab.algorithms import AlgorithmSpec, DegenerateError, MetricsReport
from flowtab.analytic import analytic_for_spec
from flowtab.generator import SHARD_SIZE, GeneratorConfig, generate_arrays, write_flow_csv
from flowtab.model import parse_model
from flowtab.sweep import (
    SweepSpec,
    default_probabilities,
    default_thresholds,
    emit_table,
    run_sweep,
)
from test_generator import shape5_document

GOLDEN = pathlib.Path(__file__).parent / "golden"


def toy_spec(toy_model, **kw):
    defaults = dict(
        model=toy_model,
        axis="length",
        thresholds=(0.0, 1.0, 2.0, 4.0),
        probabilities=(1.0, 0.5, 0.25, 0.125),
        seeds=(1, 2, 3),
        flow_count=20_000,
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


def test_default_series_mirror_reference_layout():
    assert default_thresholds("length") == tuple(float(2 ** k) for k in range(22))
    assert default_thresholds("size")[0] == 64.0
    assert len(default_thresholds("size")) == 25
    probs = default_probabilities("length")
    assert probs[0] == 1.0 and probs[1] == 0.5 and len(probs) == 22
    assert default_probabilities("size")[-1] == 0.5 ** 24


def test_run_sweep_toy_rows(toy_model):
    res = run_sweep(toy_spec(toy_model, thresholds=(0.0, 1.0), probabilities=(1.0,),
                             seeds=(1,), flow_count=100_000))
    base = res.cell("first", 0.0)
    assert base.mean == (100.0, 1.0, 1.0)
    t1 = res.cell("first", 1.0)
    assert t1.mean[0] == pytest.approx(100 * 10 / 11, abs=0.5)
    assert t1.mean[1] == pytest.approx(2.0, abs=0.02)
    assert t1.analytic.operations_reduction == pytest.approx(2.0, abs=1e-9)


def test_sampling_p_one_row_is_exact_baseline(toy_model):
    res = run_sweep(toy_spec(toy_model))
    cell = res.cell("sampling", 1.0)
    assert cell.mean == (100.0, 1.0, 1.0)
    assert cell.std == (0.0, 0.0, 0.0)


def test_within_row_reduction_identities(toy_model):
    res = run_sweep(toy_spec(toy_model))
    for t in (0.0, 1.0, 2.0, 4.0):
        first = res.cell("first", t)
        thr = res.cell("threshold", t)
        for s in range(len(first.per_seed)):
            assert first.per_seed[s][1] == first.per_seed[s][2]  # ops == occ, bit-exact
            assert thr.per_seed[s][1] == first.per_seed[s][1]  # same entry set
            assert thr.per_seed[s][2] >= thr.per_seed[s][1]


def test_sweep_deterministic_and_jobs_invariant(toy_model):
    spec = toy_spec(toy_model, flow_count=5000)
    res1 = run_sweep(spec)
    res2 = run_sweep(spec)
    res4 = run_sweep(toy_spec(toy_model, flow_count=5000, jobs=3))
    assert emit_table(res1, "csv") == emit_table(res2, "csv") == emit_table(res4, "csv")
    # one seed's cells are spread over the pool
    one = [run_sweep(toy_spec(toy_model, seeds=(2,), flow_count=5000, jobs=jobs)) for jobs in (1, 2)]
    assert one[0] == one[1]
    assert [c.per_seed for c in one[0].cells] == [c.per_seed[1:2] for c in res1.cells]


def test_std_is_the_sample_deviation_over_seeds(toy_model):
    # each cell's std over three seeds divides by n - 1, not by n
    res = run_sweep(toy_spec(toy_model, flow_count=5000))
    varied = 0
    for cell in res.cells:
        for k, per_seed in enumerate(zip(*cell.per_seed)):
            assert cell.std[k] == np.std(per_seed, ddof=1), (cell.kind, cell.parameter, k)
            varied += cell.std[k] > 0
    assert varied > 0


def test_degenerate_rows_render_as_infinity(toy_model):
    res = run_sweep(toy_spec(toy_model, thresholds=(50.0,), algorithms=("first",),
                             seeds=(1,), flow_count=1000))
    cell = res.cell("first", 50.0)
    assert cell.mean[0] == 0.0 and math.isinf(cell.mean[1])
    table = emit_table(res, "csv")
    assert "inf" in table


def test_emit_csv_header_layout(toy_model):
    res = run_sweep(toy_spec(toy_model, flow_count=2000, seeds=(1,)))
    table = emit_table(res, "csv")
    assert table.splitlines()[0] == (
        "param,first_cov,first_ops,first_occ,thr_cov,thr_ops,thr_occ,"
        "prob,smp_cov,smp_ops,smp_occ"
    )
    plot = emit_table(res, "plotdata")
    assert plot.splitlines()[0] == "algorithm,coverage,occ_reduction"
    assert len(plot.splitlines()) == 1 + 3 * 4
    with pytest.raises(ValueError):
        emit_table(res, "yaml")


def test_emit_markdown_matches_golden(toy_model):
    res = run_sweep(toy_spec(toy_model))
    golden = (GOLDEN / "toy_sweep.md").read_text()
    assert emit_table(res, "markdown") == golden


# emit_table's edge cases: every algorithm set against series of unequal length
_EDGE_SETS = ("first", "threshold", "sampling", "first,threshold", "first,sampling",
              "threshold,sampling", "first,threshold,sampling", "sampling,first")
_EDGE_SERIES = {
    "more_thresholds": dict(thresholds=(0.0, 1.0, 2.5, 4.0), probabilities=(1.0, 0.25)),
    "more_probabilities": dict(thresholds=(1.0, 2.0), probabilities=(1.0, 0.5, 0.25, 0.125)),
    # sampling then runs the default probabilities, where it runs at all
    "no_sampling": dict(thresholds=(0.0, 1.0, 2.0), probabilities=()),
}
_edge_results: dict = {}


@pytest.mark.parametrize("fmt", ["csv", "markdown", "plotdata"])
@pytest.mark.parametrize("series", sorted(_EDGE_SERIES))
@pytest.mark.parametrize("algorithms", _EDGE_SETS)
def test_emit_table_edge_cases_match_golden(toy_model, algorithms, series, fmt):
    key = (algorithms, series)
    if key not in _edge_results:
        _edge_results[key] = run_sweep(toy_spec(toy_model, algorithms=tuple(algorithms.split(",")),
                                                seeds=(1, 2), flow_count=3000,
                                                **_EDGE_SERIES[series]))
    golden = json.loads((GOLDEN / "emit_table_edges.json").read_text())
    assert emit_table(_edge_results[key], fmt) == golden[f"{algorithms}/{series}/{fmt}"]


@pytest.mark.parametrize("duration_model", ["equal", "proportional"])
@pytest.mark.parametrize("axis", ["length", "size"])
def test_heavytail_sweep_matches_golden(heavytail_model, axis, duration_model):
    # 150,000 flows: two full evaluation blocks of 65,536 flows and a partial third
    res = run_sweep(SweepSpec(model=heavytail_model, axis=axis, seeds=(1, 2),
                              flow_count=150_000, duration_model=duration_model))
    for fmt, suffix in (("csv", ".csv"), ("markdown", ".md"), ("plotdata", ".plot.csv")):
        golden = GOLDEN / f"heavytail_sweep_{axis}_{duration_model}{suffix}"
        assert emit_table(res, fmt) == golden.read_text(), golden.name


def test_sweep_over_ingested_csv(tmp_path, toy_model):
    lengths, sizes = generate_arrays(toy_model, GeneratorConfig(seed=6, flow_count=4000))
    path = tmp_path / "pop.csv"
    write_flow_csv(str(path), lengths, sizes)
    direct = run_sweep(toy_spec(toy_model, seeds=(6,), flow_count=4000,
                                algorithms=("first", "threshold"), thresholds=(1.0,)))
    ingested = run_sweep(toy_spec(toy_model, seeds=(6,), flow_count=4000,
                                  algorithms=("first", "threshold"), thresholds=(1.0,),
                                  population_csv=str(path)))
    assert direct.cell("first", 1.0).mean == ingested.cell("first", 1.0).mean
    assert direct.cell("threshold", 1.0).mean == ingested.cell("threshold", 1.0).mean


def test_ingested_flow_count(tmp_path, toy_model):
    lengths, sizes = generate_arrays(toy_model, GeneratorConfig(seed=2, flow_count=3000))
    path = tmp_path / "pop.csv"
    write_flow_csv(str(path), lengths, sizes)
    for jobs in (1, 2):
        result = run_sweep(toy_spec(toy_model, seeds=(1, 2), jobs=jobs, population_csv=str(path)))
        assert result.flow_count == 3000


def _toy_csv(tmp_path, toy_model, seed=2, count=3000) -> str:
    lengths, sizes = generate_arrays(toy_model, GeneratorConfig(seed=seed, flow_count=count))
    path = tmp_path / "pop.csv"
    write_flow_csv(str(path), lengths, sizes)
    return str(path)


@pytest.mark.parametrize("axis, thresholds", [("length", (0.0, 1.0, 2.0, 4.0)),
                                              ("size", (0.0, 100.0, 150.0, 999.0))])
def test_ingested_sweep_jobs_invariant(tmp_path, toy_model, axis, thresholds):
    path = _toy_csv(tmp_path, toy_model)
    results = [run_sweep(toy_spec(toy_model, axis=axis, thresholds=thresholds, jobs=jobs,
                                  population_csv=path))
               for jobs in (1, 2, 3)]
    for res in results[1:]:
        assert [c.per_seed for c in res.cells] == [c.per_seed for c in results[0].cells]
        for fmt in ("csv", "markdown", "plotdata"):
            assert emit_table(res, fmt) == emit_table(results[0], fmt)
    # sampling rows differ between seeds; the others are the one evaluation's
    sampled = results[0].cell("sampling", 0.5).per_seed
    assert len(set(sampled)) == 3
    assert len(set(results[0].cell("threshold", thresholds[1]).per_seed)) == 1


def _count_evaluations(monkeypatch) -> list[str]:
    calls = []
    evaluate = flowtab.sweep.evaluate_batch

    # spec keyword-only, as a traced run needs it to label the span
    def counted(layout, *, spec, rng=None):
        calls.append(spec.kind)
        return evaluate(layout, spec=spec, rng=rng)

    monkeypatch.setattr(flowtab.sweep, "evaluate_batch", counted)
    return calls


def test_ingested_sweep_runs_seed_invariant_cells_once(monkeypatch, tmp_path, toy_model):
    path = _toy_csv(tmp_path, toy_model)
    calls = _count_evaluations(monkeypatch)
    spec = toy_spec(toy_model, population_csv=path)
    run_sweep(spec)
    assert len(calls) == 2 * len(spec.thresholds) + len(spec.seeds) * len(spec.probabilities)
    # a generated population is drawn per seed, so every cell runs for every seed
    calls.clear()
    spec = toy_spec(toy_model, flow_count=2000)
    run_sweep(spec)
    assert len(calls) == len(spec.seeds) * (2 * len(spec.thresholds) + len(spec.probabilities))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("population", ["one seed", "ingested", "several seeds"])
def test_analytic_column_is_the_analytic_report(tmp_path, toy_model, population, jobs):
    # the analytic task's reports land on their own cells, whatever the
    # task order and the worker count; threshold 50 is past every flow
    kw = {"one seed": dict(seeds=(2,)),
          "ingested": dict(population_csv=_toy_csv(tmp_path, toy_model)),
          "several seeds": dict(seeds=(1, 2, 3))}[population]
    spec = toy_spec(toy_model, thresholds=(0.0, 1.0, 4.0, 50.0), flow_count=2000, jobs=jobs, **kw)
    cells = run_sweep(spec).cells
    assert len(cells) == len(spec.cells())
    degenerate = MetricsReport(0.0, math.inf, math.inf, 0.0)
    for cell, want in zip(cells, spec.cells()):
        parameter = want.probability if want.kind == "sampling" else want.threshold
        assert (cell.kind, cell.parameter) == (want.kind, parameter)
        try:
            assert cell.analytic == analytic_for_spec(toy_model, want), want
        except DegenerateError:
            assert cell.analytic == degenerate, want
    assert sum(c.analytic == degenerate for c in cells) == 2  # first and threshold at 50


def _record_forks(monkeypatch) -> tuple[list[int], list[list[int]]]:
    """Counts the children of each fork-join the sweep makes and which of
    them sums the analytic column, then lets it fork them."""
    forked, summing = [], []
    fork_join = flowtab.sweep._fork_join

    def recorded(calls):
        forked.append(len(calls))
        summing.append([i for i, (fn, args) in enumerate(calls)
                        if fn is flowtab.sweep._run_tasks and args[-1]])
        return fork_join(calls)

    monkeypatch.setattr(flowtab.sweep, "_fork_join", recorded)
    return forked, summing


def _assert_no_child_left():
    # every child the sweep forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_starts_no_more_workers_than_tasks(monkeypatch, tmp_path, toy_model):
    forked, summing = _record_forks(monkeypatch)
    serial = run_sweep(toy_spec(toy_model, seeds=(1, 2), flow_count=2000))
    assert forked == []  # no child at jobs 1
    pooled = run_sweep(toy_spec(toy_model, seeds=(1, 2), flow_count=2000, jobs=8))
    # one task per generated seed: two workers, the last of which sums the column
    assert forked == [2] and summing == [[1]]
    _assert_no_child_left()
    assert emit_table(pooled, "csv") == emit_table(serial, "csv")
    assert pooled.cells == serial.cells
    one_seed = run_sweep(toy_spec(toy_model, seeds=(1,), flow_count=2000, jobs=4))
    # one seed's population: a child generates it while a second sums the
    # column, then 12 single-cell tasks go to four workers that sum nothing
    assert forked == [2, 2, 4] and summing == [[1], [1], []]
    assert one_seed.cells == tuple(
        dataclasses.replace(c, per_seed=c.per_seed[:1], mean=c.per_seed[0], std=(0.0,) * 3)
        for c in serial.cells)
    spec = toy_spec(toy_model, seeds=(1,), jobs=5, population_csv=_toy_csv(tmp_path, toy_model))
    run_sweep(spec)
    # an ingested population: a child reads it while a second sums the
    # column, then its 12 single-cell tasks go to five workers that sum nothing
    assert forked == [2, 2, 4, 2, 5] and summing == [[1], [1], [], [1], []]
    _assert_no_child_left()


def _made_in_a_child_only_when_forking(monkeypatch, tmp_path, spec, maker):
    # each call of the maker appends its process id; a forked child inherits the patch
    record = tmp_path / "pids"
    make = getattr(flowtab.sweep, maker)

    def recorded(*args, **kwargs):
        with open(record, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return make(*args, **kwargs)

    monkeypatch.setattr(flowtab.sweep, maker, recorded)
    result = run_sweep(spec)
    pids = [int(line) for line in record.read_text().split()]
    assert len(pids) == 1 and (pids[0] == os.getpid()) == (spec.jobs == 1)
    _assert_no_child_left()
    monkeypatch.undo()
    assert result == run_sweep(dataclasses.replace(spec, jobs=1))


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_seed_is_generated_in_a_child_only_when_forking(monkeypatch, tmp_path, toy_model,
                                                            jobs):
    spec = toy_spec(toy_model, seeds=(1,), flow_count=2000, jobs=jobs)
    _made_in_a_child_only_when_forking(monkeypatch, tmp_path, spec, "generate_arrays")


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_ingested_population_is_read_in_a_child_only_when_forking(monkeypatch, tmp_path,
                                                                     toy_model, jobs):
    # read once for every seed, whatever the worker count
    spec = toy_spec(toy_model, seeds=(1, 2), jobs=jobs,
                    population_csv=_toy_csv(tmp_path, toy_model))
    _made_in_a_child_only_when_forking(monkeypatch, tmp_path, spec, "read_flow_csv")


def test_an_overflowing_length_draw_is_the_same_error_at_any_jobs(toy_document):
    # the generating child's error reaches the caller with the in-process text
    model = parse_model(json.dumps(shape5_document(toy_document, "length", 0.5, 1.0)))
    texts = []
    for jobs in (1, 2):
        spec = SweepSpec(model=model, algorithms=("first",), thresholds=(1.0,), seeds=(3,),
                         flow_count=SHARD_SIZE, jobs=jobs)
        with pytest.raises(ValueError, match=r"^length draw [0-9.e+]+ packets: flows of up to "
                                             r"1518 B per packet overflow int64 byte counts$") as caught:
            run_sweep(spec)
        texts.append(str(caught.value))
        _assert_no_child_left()
    assert texts[0] == texts[1]


@pytest.mark.parametrize("victim", ["read_flow_csv", "generate_arrays", "analytic_for_spec"])
def test_a_killed_round_one_child_is_a_child_process_error(monkeypatch, tmp_path, toy_model,
                                                           victim):
    # the child that reads the ingested flows or generates the seed's, or the
    # one that sums the column
    parent, call = os.getpid(), getattr(flowtab.sweep, victim)

    def killed(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return call(*args)

    monkeypatch.setattr(flowtab.sweep, victim, killed)
    ingested = _toy_csv(tmp_path, toy_model) if victim == "read_flow_csv" else None
    with pytest.raises(ChildProcessError, match="sent nothing"):
        run_sweep(toy_spec(toy_model, seeds=(1,), flow_count=2000, jobs=2,
                           population_csv=ingested))
    _assert_no_child_left()


@pytest.mark.parametrize("fault", ["malformed row", "missing file"])
def test_an_unreadable_population_is_the_same_error_at_any_jobs(tmp_path, toy_model, fault):
    # the reading child's error reaches the caller with the in-process type and text
    path = tmp_path / "pop.csv"
    want = FileNotFoundError, f"[Errno 2] No such file or directory: '{path}'"
    if fault == "malformed row":
        path.write_text("length_packets,size_bytes\n3,300\n2,x\n", encoding="utf-8")
        want = ValueError, f"{path}: row 3: expected two integer fields, got ['2', 'x']"
    for jobs in (1, 2):
        with pytest.raises(Exception) as caught:
            run_sweep(toy_spec(toy_model, seeds=(1, 2), jobs=jobs, population_csv=str(path)))
        assert (type(caught.value), str(caught.value)) == want, jobs
        _assert_no_child_left()


def test_fork_join_closes_the_pipe_when_a_fork_fails(monkeypatch):
    # the second fork fails: the first child is reaped and no descriptor is left open
    fork, forks = os.fork, []

    def failing():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    before = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", failing)
    with pytest.raises(BlockingIOError):
        flowtab.sweep._fork_join([(pow, (2, 1)), (pow, (2, 2))])
    monkeypatch.undo()
    assert len(os.listdir("/proc/self/fd")) == before
    _assert_no_child_left()


def test_sweep_releases_what_it_shares_with_its_tasks(monkeypatch, toy_model):
    # a failing task raises its own error, in-process or from a worker,
    # and the sweep reaps every child it forked before it raises
    def fail(*args):
        raise RuntimeError("task failed")

    monkeypatch.setattr(flowtab.sweep, "_metrics_tuple", fail)
    for seeds, jobs in (((1,), 1), ((1, 2), 2), ((1,), 2)):
        with pytest.raises(RuntimeError, match="task failed"):
            run_sweep(toy_spec(toy_model, seeds=seeds, flow_count=2000, jobs=jobs))
        _assert_no_child_left()


def test_a_killed_worker_is_a_child_process_error(monkeypatch, toy_model):
    parent = os.getpid()

    def killed(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("a worker task ran in the parent")

    monkeypatch.setattr(flowtab.sweep, "_run_tasks", killed)
    with pytest.raises(ChildProcessError, match="sent nothing"):
        run_sweep(toy_spec(toy_model, seeds=(1, 2), flow_count=2000, jobs=2))
    _assert_no_child_left()


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception does not pickle")


def test_fork_join_returns_values_in_order_and_raises_the_first_error():
    fork_join = flowtab.sweep._fork_join
    assert fork_join([(pow, (2, k)) for k in range(4)]) == [1, 2, 4, 8]

    def divide(a, b):
        return a / b

    # the child's error, caused by its traceback
    with pytest.raises(ZeroDivisionError) as caught:
        fork_join([(pow, (2, 1)), (divide, (1, 0)), (int, ("x",))])
    assert "in divide" in str(caught.value.__cause__)

    def unpicklable():
        raise _Unpicklable("a worker's own error")

    # an error that does not pickle arrives as a RuntimeError naming it
    with pytest.raises(RuntimeError, match="a worker's own error") as caught:
        fork_join([(unpicklable, ())])
    assert "in unpicklable" in str(caught.value.__cause__)
    # so does a value that does not pickle: the pickling error is sent
    with pytest.raises(TypeError, match="does not pickle"):
        fork_join([(_Unpicklable, ())])
    _assert_no_child_left()


def test_sweep_requires_parameters(toy_model):
    with pytest.raises(ValueError):
        SweepSpec(model=toy_model, algorithms=("bogus",))
    with pytest.raises(ValueError):
        SweepSpec(model=toy_model, seeds=())
    for jobs in (0, -1, 2.5, 2.0):
        with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
            SweepSpec(model=toy_model, jobs=jobs)
    with pytest.raises(ValueError, match="seeds must be non-negative"):
        SweepSpec(model=toy_model, seeds=(1, -2))
    with pytest.raises(ValueError, match="unknown duration_model"):
        SweepSpec(model=toy_model, duration_model="uniform")
    with pytest.raises(ValueError, match=r"a seed is named twice in \[1, 2, 1\]"):
        SweepSpec(model=toy_model, seeds=(1, 2, 1))
    # omitted series fall back to the reference defaults
    spec = SweepSpec(model=toy_model, algorithms=("sampling",))
    assert spec.probabilities == default_probabilities("length")


@pytest.mark.parametrize("setting, message", [
    ({"flow_count": 0}, "flow_count must be >= 1"),
    ({"min_packet": 0}, "min_packet must be >= 1 byte"),
    ({"flow_count": 0, "seeds": (1, 2, 3)}, "flow_count must be >= 1"),
    ({"seeds": (1, 2.5), "jobs": 2}, "seed must be an integer, got 2.5"),
    ({"seeds": (True,)}, "seed must be an integer, got True"),
    ({"flow_count": 1e6}, "flow_count must be an integer, got 1000000.0"),
    ({"min_packet": 64.5}, "min_packet must be an integer, got 64.5"),
    ({"jobs": True}, "jobs must be an integer >= 1, got True"),
])
def test_spec_refuses_bad_generation_settings_when_built(toy_model, setting, message):
    # refused by the spec itself, not later in a pool worker generating a seed
    with pytest.raises(ValueError, match=message):
        SweepSpec(model=toy_model, **setting)


@pytest.mark.parametrize("axis", ["length", "size"])
def test_cells_round_trip_through_their_parameter(toy_model, axis):
    cells = SweepSpec(model=toy_model, axis=axis).cells()
    assert {c.kind for c in cells} == {"first", "threshold", "sampling"}
    for cell in cells:
        assert AlgorithmSpec.of(cell.kind, cell.axis, cell.parameter) == cell

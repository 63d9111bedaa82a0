"""Tests of the benchmark itself: ``python3 -m pytest perfbench/selftest.py``.

They run small flowtab calls through the same child process as the
benchmark (a few seconds in all) and feed the output checks and the span
analysis inputs that must fail.
"""
from __future__ import annotations

import json
import os
import shutil
import tempfile

import pytest

import checks
import layers
import run
import spans
import workloads

ROOT = os.path.dirname(run.HERE)
SMALL_FLOWS = "16384"


@pytest.fixture()
def runner():
    work = tempfile.mkdtemp(prefix=".perfbench-test-", dir=ROOT)
    try:
        yield run.Runner(ROOT, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _small_simulate(runner, axis: str, seeds: str, trace_dir=None):
    prefix = os.path.join(runner.work, f"sim-{axis}")
    argv = ["simulate", "--model", os.path.join(ROOT, workloads.MODEL), "--axis", axis,
            "--flows", SMALL_FLOWS, "--seeds", seeds, "--jobs", "2",
            "--formats", workloads.FORMATS, "--out", prefix]
    reference = None if trace_dir else {"kind": "simulate", "axis": axis}
    child = runner.child([argv], trace_dir=trace_dir, reference=reference)
    assert child.ok, child.log
    outputs = {fmt: prefix + suffix for fmt, suffix in workloads.SUFFIXES.items()}
    return child, outputs


def _edit_csv(path: str, column: str, row: int, value: str) -> None:
    header, rows = checks.read_table(path)
    rows[row][header.index(column)] = value
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(r) for r in [header] + rows) + "\n")


def test_simulate_checks_pass_then_catch_an_edited_cell(runner):
    child, outputs = _small_simulate(runner, "length", "5")
    cells = child.result["reference"]["cells"]
    sigma = {checks.cell_key(c["kind"], c["param"]): 1.0 for c in cells}
    clean = checks.Tally()
    checks.check_simulate(clean, outputs, "length", int(SMALL_FLOWS), cells, sigma)
    assert clean.failed == 0, clean.failures
    assert clean.attempted > 200

    header, rows = checks.read_table(outputs["csv"])
    ops = rows[3][header.index("thr_ops")]
    _edit_csv(outputs["csv"], "thr_ops", 3, f"{float(ops) + 0.01:.2f}")
    edited = checks.Tally()
    checks.check_simulate(edited, outputs, "length", int(SMALL_FLOWS), cells, sigma)
    assert edited.failed > 0
    assert any("thr_ops" in f for f in edited.failures)
    assert any("markdown" in f for f in edited.failures)


def test_simulated_coverage_far_from_analytic_fails(runner):
    child, outputs = _small_simulate(runner, "length", "5")
    cells = child.result["reference"]["cells"]
    sigma = {checks.cell_key(c["kind"], c["param"]): 0.01 for c in cells}
    _edit_csv(outputs["csv"], "smp_cov", 2, "50.00")
    tally = checks.Tally()
    checks.check_simulate(tally, outputs, "length", int(SMALL_FLOWS), cells, sigma)
    assert any("analytic" in f for f in tally.failures)


def _analyze_csv(path: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(checks.ANALYZE_HEADER) + "\n" + "\n".join(rows) + "\n")


def test_analyze_checks(tmp_path):
    path = str(tmp_path / "a.analytic.csv")
    good = ["first,50,7.6e+05,50.0000,183.0,183.0,1.0000,1.0000",
            "threshold,50,2.8e+05,50.0010,69.0,137.7,2.6489,1.3288",
            "sampling,50,unreachable,,,,,"]
    _analyze_csv(path, good)
    tally = checks.Tally()
    checks.check_analyze(tally, path, "size", ("50",), {})
    assert tally.failed == 0, tally.failures

    bad = [good[0], "threshold,50,unreachable,,,,,", "sampling,50,3e-03,49.5,40.6,70.0,0.9000,2.6"]
    _analyze_csv(path, bad)
    tally = checks.Tally()
    checks.check_analyze(tally, path, "size", ("50",), {})
    assert len(tally.failures) == 3, tally.failures


def _span(i, parent, name, start, end, pid=1, count=None, error=None):
    return {"id": f"{pid}:{i}", "parent": parent, "name": name, "start": start, "end": end,
            "pid": pid, "count": count, "error": error}


def _replay_trace():
    kinds = [("analytic.analytic_for_spec." + k) for k in layers.KINDS]
    spans = [_span(0, None, "cli.main", 0.0, 10.0), _span(1, "1:0", "model.load_model", 0.0, 0.5),
             _span(2, "1:0", "sweep.run_sweep", 1.0, 9.0), _span(3, "1:0", "sweep.emit_table", 9.0, 9.5)]
    # two forked workers: worker 2 ran two seeds, worker 3 one
    spans += [_span(0, "1:2", "generator.read_flow_csv", 1.5, 2.5, pid=2, count=100),
              _span(1, "1:2", "algorithms.evaluate_batch.first", 2.5, 4.5, pid=2, count=100),
              _span(2, "1:2", "generator.read_flow_csv", 4.5, 5.5, pid=2, count=100),
              _span(3, "1:2", "algorithms.aggregate_batch", 5.5, 6.5, pid=2),
              _span(0, "1:2", "generator.read_flow_csv", 1.5, 2.5, pid=3, count=100),
              _span(1, "1:2", "algorithms.evaluate_batch.threshold", 2.5, 3.5, pid=3, count=100)]
    spans += [_span(10 + i, "1:2", name, 7.0 + 0.2 * i, 7.1 + 0.2 * i) for i, name in enumerate(kinds)]
    spans.append(_span(20, "1:2", "algorithms.evaluate_batch.sampling", 6.6, 6.7, pid=3))
    setup = [_span(0, None, "generator.generate_arrays", 0, 1, pid=9),
             _span(1, None, "generator.write_flow_csv", 1, 2, pid=9)]
    return spans, setup


def test_layer_metrics_from_a_forked_trace():
    spans, setup = _replay_trace()
    tally = checks.Tally()
    metrics, _ = layers.per_layer(tally, spans, setup, "replay-size", jobs=2, seeds=3)
    assert tally.failures == []
    assert metrics["cli.main_s"] == 10.0
    assert metrics["cli.self_s"] == pytest.approx(10.0 - 0.5 - 8.0 - 0.5)
    assert metrics["generator.rows_read"] == 300
    assert metrics["generator.write_flow_csv_s"] == 1.0
    assert metrics["sweep.worker_busy_s"] == pytest.approx(5.0 + 2.1)
    assert metrics["sweep.imbalance"] == pytest.approx(5.0 / 3.55)
    # workers covered 5.1 s of run_sweep and its own analytic_for_spec calls
    # 0.3 s; emit_table has no children
    assert metrics["sweep.self_s"] == pytest.approx(8.0 - 5.1 - 0.3 + 0.5)
    assert set(metrics) <= set(layers.UNITS)


def test_missing_span_is_reported_not_zeroed():
    spans, setup = _replay_trace()
    spans = [s for s in spans if s["name"] != "generator.read_flow_csv"]
    tally = checks.Tally()
    metrics, _ = layers.per_layer(tally, spans, setup, "replay-size", jobs=2, seeds=3)
    assert metrics["generator.read_flow_csv_s"] == 0
    assert any("generator.read_flow_csv" in f for f in tally.failures)
    tally = checks.Tally()
    layers.per_layer(tally, spans, [], "replay-size", jobs=2, seeds=3)
    assert any("generator.write_flow_csv" in f for f in tally.failures)


def test_self_times_that_do_not_add_up_are_reported():
    spans, setup = _replay_trace()
    # a main-process span outside its parent breaks the nesting
    spans.append(_span(30, "1:3", "sweep.emit_table", 9.2, 12.0))
    tally = checks.Tally()
    layers.per_layer(tally, spans, setup, "replay-size", jobs=2, seeds=3)
    assert any("self times add up" in f for f in tally.failures)


def test_tracer_collects_spans_from_fork_workers(runner):
    trace_dir = os.path.join(runner.work, "trace")
    os.makedirs(trace_dir)
    child, outputs = _small_simulate(runner, "size", "1,2,3", trace_dir=trace_dir)
    spans = layers.load(trace_dir)
    by_id = {s["id"]: s for s in spans}
    main = [s for s in spans if s["name"] == "cli.main"]
    assert len(main) == 1
    workers = {s["pid"] for s in spans} - {main[0]["pid"]}
    assert len(workers) == 2
    generated = [s for s in spans if s["name"] == "generator.generate_arrays"]
    assert len(generated) == 3 and all(s["pid"] in workers for s in generated)
    assert all(by_id[s["parent"]]["name"] == "sweep.run_sweep" for s in generated)
    assert sum(s["count"] for s in generated) == 3 * int(SMALL_FLOWS)
    tally = checks.Tally()
    metrics, _ = layers.per_layer(tally, spans, [], "simulate-length", jobs=2, seeds=3)
    assert tally.failures == []
    assert metrics["model.quantile.points"] == 2 * 3 * int(SMALL_FLOWS)


def test_span_cost_is_timed_without_touching_the_trace(tmp_path):
    tracer = spans.Tracer(str(tmp_path))
    cost = spans.span_cost(tracer)
    assert 0 < cost < 1e-3
    assert tracer.spans == [] and list(tmp_path.iterdir()) == []


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == list(layers.UNITS)
    assert [m["unit"] for m in bench["per_layer"]] == list(layers.UNITS.values())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)


def test_analyze_targets_follow_the_seed():
    assert workloads.analyze_targets(7) == workloads.analyze_targets(7)
    assert workloads.analyze_targets(7) != workloads.analyze_targets(8)
    targets = [float(t) for t in workloads.analyze_targets(7)]
    assert len(targets) == 21 and targets[-2:] == [99.0, 99.9]
    assert all(5 * k - 2.5 < t <= 5 * k for k, t in enumerate(targets[:19], start=1))

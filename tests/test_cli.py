from __future__ import annotations

import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import flowtab.cli
from flowtab.algorithms import ALGORITHM_KINDS, AlgorithmSpec
from flowtab.analytic import UnreachableError, analytic_for_spec, invert_for_coverage
from flowtab.cli import DEFAULT_COVERAGES, main
from flowtab.model import Mixture, load_model
from flowtab.sweep import default_probabilities, default_thresholds, run_sweep

MODELS = pathlib.Path(__file__).resolve().parents[1] / "models"
TOY = str(MODELS / "toy_twopoint.json")
HEAVY = str(MODELS / "example_heavytail.json")
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", TOY)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["errors"] == []
    assert doc["avg_flow_length"] == 5.5


def test_validate_weight_error_exits_2(capsys, tmp_path, toy_document):
    doc = json.loads(json.dumps(toy_document))
    doc["axes"]["length"]["flows"]["components"][0]["weight"] = 0.6
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(out)["errors"][0]["type"] == "WeightError"


def test_validate_dominance_error_exits_3(capsys, tmp_path, toy_document):
    doc = json.loads(json.dumps(toy_document))
    doc["axes"]["length"]["octets"]["components"][0]["weight"] = 0.9090909090909091
    doc["axes"]["length"]["octets"]["components"][1]["weight"] = 0.09090909090909091
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(path))
    assert code == 3
    assert json.loads(out)["errors"][0]["type"] == "DominanceError"


@pytest.mark.parametrize("declared", [{}, {"avg_packet_size": 100.0}])
def test_validate_reports_a_diverging_average(capsys, tmp_path, toy_document, declared):
    # a generalized-Pareto size axis of shape 1.5 has no mean: with no
    # average declared the load fails, and with only avg_packet_size declared
    # reading avg_flow_size does; both are invalid models
    pareto = {"components": [{"kind": "generalized-pareto", "weight": 1.0,
                              "params": {"shape": 1.5, "location": 64.0, "scale": 100.0}}],
              "domain_min": 64}
    doc = {key: value for key, value in toy_document.items() if not key.startswith("avg_")}
    doc["axes"] = dict(doc["axes"], size={w: pareto for w in ("flows", "packets", "octets")})
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(dict(doc, **declared)))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(out) == {"valid": False, "errors": [
        {"type": "ModelError", "message": "average flow size diverges for this model"}]}


_LOGNORMAL = {"kind": "lognormal", "weight": 0.5, "params": {"mu": math.nan, "sigma": 1.0}}


@pytest.mark.parametrize("path,value,field", [
    (("max_packet_size",), 1518.7, "model.max_packet_size"),
    (("max_packet_size",), math.inf, "model.max_packet_size"),
    (("max_packet_size",), math.nan, "model.max_packet_size"),
    (("axes", "length", "flows", "domain_min"), math.inf, "model.axes.length.flows.domain_min"),
    (("axes", "size", "flows", "domain_min"), math.nan, "model.axes.size.flows.domain_min"),
    (("axes", "size", "flows", "components", 0), _LOGNORMAL,
     "model.axes.size.flows.components[0].params.mu"),
    (("axes", "size", "octets", "components", 1, "params", "high"), math.inf,
     "model.axes.size.octets.components[1].params.high"),
    (("axes", "length", "packets", "components", 0, "weight"), math.nan,
     "model.axes.length.packets.components[0].weight"),
    (("avg_flow_length",), math.nan, "model.avg_flow_length"),
    (("avg_flow_size",), -math.inf, "model.avg_flow_size"),
    (("avg_packet_size",), 10 ** 400, "model.avg_packet_size"),
    (("max_packet_size",), 2 ** 31, "model.max_packet_size"),
])
def test_validate_rejects_non_finite_and_fractional_numbers(capsys, tmp_path, toy_document,
                                                            path, value, field):
    # json reads NaN, Infinity and integers past the largest float; every
    # model number must be finite, and max_packet_size a whole number
    doc = json.loads(json.dumps(toy_document))
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    node[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(bad))
    assert code == 2
    error = json.loads(out)["errors"][0]
    assert error["type"] == "SchemaError"
    assert error["message"].startswith(field + ":"), error


def test_validate_accepts_a_whole_float_packet_size(capsys, tmp_path, toy_document):
    doc = dict(toy_document, max_packet_size=1518.0)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(good))
    assert code == 0
    assert json.loads(out)["max_packet_size"] == 1518


def _validate_document(capsys, tmp_path, text: str) -> tuple[int, dict]:
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out = run(capsys, "validate", str(bad))
    return code, json.loads(out)


def _mutated(document: dict, path: tuple, value) -> dict:
    doc = json.loads(json.dumps(document))
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    node[key] = value
    return doc


_FLOWS = ("axes", "length", "flows")
_SIZE_FLOWS = ("axes", "size", "flows")
_DIVERGING_LENGTH = {"components": [{"kind": "generalized-pareto", "weight": 1.0,
                                     "params": {"shape": 1.5, "location": 1.0, "scale": 2.0}}],
                     "domain_min": 1}


@pytest.mark.parametrize("path, value, kind, where", [
    (("name",), 5, "SchemaError", "model.name:"),
    (_FLOWS + ("components", 0, "weight"), "0.5", "SchemaError",
     "model.axes.length.flows.components[0].weight:"),
    (_FLOWS + ("components", 1, "params", "low"), None, "SchemaError",
     "model.axes.length.flows.components[1].params.low:"),
    (_FLOWS + ("components", 0, "kind"), "weibull", "SchemaError",
     "model.axes.length.flows.components[0]: unknown component kind 'weibull'"),
    (_FLOWS + ("components", 0, "kind"), [], "SchemaError",
     "model.axes.length.flows.components[0]: unknown component kind []"),
    (_FLOWS + ("components", 0, "kind"), {}, "SchemaError",
     "model.axes.length.flows.components[0]: unknown component kind {}"),
    (_FLOWS + ("components", 0, "params", "scale"), 1.0, "SchemaError",
     "model.axes.length.flows.components[0]: uniform component expects params"),
    (_FLOWS + ("components", 0, "weight"), 2.0, "WeightError",
     "model.axes.length.flows.components[0]: component weight 2.0 outside [0, 1]"),
    (_FLOWS + ("components", 0, "weight"), 0.6, "WeightError",
     "model.axes.length.flows: mixture weights sum to"),
    (_FLOWS + ("components",), [], "SchemaError",
     "model.axes.length.flows: mixture requires at least one component"),
    (_FLOWS + ("components",), {}, "SchemaError",
     "model.axes.length.flows.components: expected a list"),
    (_FLOWS + ("domain_min",), 1.5, "SchemaError",
     "model.axes.length.flows.domain_min: length axis requires an integer"),
    (_FLOWS + ("domain_min",), 0, "SchemaError",
     "model.axes.length.flows: domain_min must be positive"),
    (_SIZE_FLOWS + ("domain_min",), -64, "SchemaError",
     "model.axes.size.flows: domain_min must be positive"),
    (_FLOWS + ("domain_min",), 3, "SchemaError",
     "model.axes.length.flows: uniform component carries probability"),
    (_SIZE_FLOWS + ("domain_min",), 999.5, "SchemaError",
     "model.axes.size.flows: uniform component has no mass above domain_min"),
])
def test_validate_names_the_json_path_of_each_error(capsys, tmp_path, toy_document,
                                                     path, value, kind, where):
    code, report = _validate_document(capsys, tmp_path,
                                      json.dumps(_mutated(toy_document, path, value)))
    assert code == 2
    assert report["valid"] is False
    error = report["errors"][0]
    assert error["type"] == kind
    assert error["message"].startswith(where), error


def test_validate_names_the_component_of_a_parameter_domain_error(capsys, tmp_path,
                                                                  toy_document):
    lognormal = {"kind": "lognormal", "weight": 0.5, "params": {"mu": 2.0, "sigma": -1.0}}
    doc = _mutated(toy_document, _SIZE_FLOWS + ("components", 1), lognormal)
    code, report = _validate_document(capsys, tmp_path, json.dumps(doc))
    assert code == 2
    assert report["errors"] == [{"type": "SchemaError", "message":
                                 "model.axes.size.flows.components[1]: "
                                 "lognormal component requires sigma > 0"}]


@pytest.mark.parametrize("text", ["{\"name\": ", "[1]", "\"model\""])
def test_validate_rejects_a_document_that_is_no_json_object(capsys, tmp_path, text):
    code, report = _validate_document(capsys, tmp_path, text)
    assert code == 2
    assert report["valid"] is False and report["errors"][0]["type"] == "SchemaError"


def test_validate_reports_an_undeclared_diverging_flow_length(capsys, tmp_path, toy_document):
    doc = {key: value for key, value in toy_document.items() if not key.startswith("avg_")}
    doc["axes"] = dict(doc["axes"], length={w: _DIVERGING_LENGTH
                                            for w in ("flows", "packets", "octets")})
    code, report = _validate_document(capsys, tmp_path, json.dumps(doc))
    assert code == 2
    assert report == {"valid": False, "errors": [
        {"type": "ModelError", "message": "average flow length diverges for this model"}]}


def _dominance_violation(tmp_path, toy_document) -> str:
    doc = json.loads(json.dumps(toy_document))
    doc["axes"]["length"]["octets"]["components"][0]["weight"] = 0.9090909090909091
    doc["axes"]["length"]["octets"]["components"][1]["weight"] = 0.09090909090909091
    path = tmp_path / "dominance.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", [
    ("simulate", "--flows", "100", "--thresholds", "1", "--probabilities", "0.5"),
    ("analyze", "--coverages", "50"),
])
def test_a_dominance_violation_exits_3_before_writing(capsys, tmp_path, toy_document, command):
    model = _dominance_violation(tmp_path, toy_document)
    out = tmp_path / "out"
    out.mkdir()
    code, text = run(capsys, command[0], "--model", model, *command[1:], "--out", str(out / "x"))
    assert code == 3
    assert json.loads(text)["errors"][0]["type"] == "DominanceError"
    assert list(out.iterdir()) == []


def test_generate_deterministic(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code, _ = run(capsys, "generate", "--model", TOY, "--flows", "100",
                  "--seed", "7", "--out", str(out1))
    assert code == 0
    run(capsys, "generate", "--model", TOY, "--flows", "100", "--seed", "7",
        "--out", str(out2))
    body = out1.read_text()
    assert body == out2.read_text()
    rows = body.strip().splitlines()
    assert rows[0] == "length_packets,size_bytes"
    assert len(rows) == 101
    for row in rows[1:]:
        length, size = row.split(",")
        assert (length, size) in (("1", "100"), ("10", "1000"))


def test_generate_rejects_zero_flows(capsys, tmp_path):
    code, out = run(capsys, "generate", "--model", TOY, "--flows", "0",
                    "--seed", "1", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "flow_count" in json.loads(out)["errors"][0]["message"]


@pytest.mark.parametrize("command", [
    ("generate", "--seed", "1"),
    ("simulate", "--seeds", "1"),
    ("simulate", "--seeds", "1,2", "--jobs", "2"),
    ("simulate", "--seeds", "1", "--jobs", "2"),
])
def test_min_packet_above_max_packet_size_exits_2_before_writing(capsys, tmp_path, command):
    # no size fits between 2000 B and 1518 B per packet: clamping would pin
    # every flow to the maximum, so the run is refused
    name, *flags = command
    out = tmp_path / "x.csv"
    code, text = run(capsys, name, "--model", HEAVY, "--flows", "5", "--min-packet", "2000",
                     *flags, "--out", str(out))
    assert code == 2
    assert json.loads(text)["errors"][0]["message"] == (
        "min_packet 2000 B exceeds the model's max_packet_size 1518 B")
    assert list(tmp_path.iterdir()) == []


def test_generate_rejects_min_packet_zero(capsys, tmp_path):
    code, out = run(capsys, "generate", "--model", TOY, "--flows", "50", "--seed", "1",
                    "--min-packet", "0", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert json.loads(out)["errors"][0] == {"type": "ValueError",
                                            "message": "min_packet must be >= 1 byte"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source", [(), ("--flows-csv", "flows.csv")])
def test_simulate_without_a_model_exits_2(capsys, tmp_path, source):
    # argparse refuses it, also when the flows come from a file: the model
    # still gives max_packet_size and the analytic column
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", *source, "--thresholds", "1", "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2
    assert "--model" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_min_packet_at_max_packet_size_is_valid(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, _ = run(capsys, "generate", "--model", TOY, "--flows", "50", "--seed", "1",
                  "--min-packet", "1518", "--out", str(out))
    assert code == 0
    for row in out.read_text().strip().splitlines()[1:]:
        length, size = map(int, row.split(","))
        assert size == 1518 * length


def test_simulate_writes_all_formats_deterministically(capsys, tmp_path):
    args = ("simulate", "--model", TOY, "--axis", "length",
            "--thresholds", "0,1", "--probabilities", "1,0.5",
            "--flows", "1e4", "--seeds", "1,2", "--formats", "csv,md,plot")
    code, _ = run(capsys, *args, "--out", str(tmp_path / "one"))
    assert code == 0
    run(capsys, *args, "--out", str(tmp_path / "two"))
    run(capsys, *args, "--jobs", "2", "--out", str(tmp_path / "three"))
    for suffix in (".csv", ".md", ".plot.csv"):
        a = (tmp_path / ("one" + suffix)).read_bytes()
        assert a == (tmp_path / ("two" + suffix)).read_bytes()
        assert a == (tmp_path / ("three" + suffix)).read_bytes()
    first_line = (tmp_path / "one.csv").read_text().splitlines()[1]
    assert first_line.startswith("0,100.00,1.00,1.00,")


def test_simulate_geometric_series(capsys, tmp_path):
    code, _ = run(capsys, "simulate", "--model", TOY, "--algorithms", "sampling",
                  "--probabilities", "geom:1:0.5:3", "--flows", "2000",
                  "--seeds", "1", "--out", str(tmp_path / "g"))
    assert code == 0
    rows = (tmp_path / "g.csv").read_text().strip().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["1.00e+00", "5.00e-01", "2.50e-01"]


def test_simulate_rejects_unknown_format_before_writing(capsys, tmp_path):
    code, out = run(capsys, "simulate", "--model", TOY, "--flows", "2000",
                    "--formats", "csv,xyz", "--out", str(tmp_path / "s"))
    assert code == 2
    error = json.loads(out)["errors"][0]
    assert error["type"] == "ValueError" and "xyz" in error["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("formats", ["", ","])
def test_simulate_without_a_format_exits_2_before_the_sweep(monkeypatch, capsys, tmp_path, formats):
    def no_sweep(spec):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(flowtab.cli, "run_sweep", no_sweep)
    code, out = run(capsys, "simulate", "--model", TOY, "--flows", "2000",
                    "--formats", formats, "--out", str(tmp_path / "s"))
    assert code == 2
    error = json.loads(out)["errors"][0]
    assert error["type"] == "ValueError" and "output format" in error["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("formats", ["markdown", "plotdata", "csv,markdown"])
def test_simulate_takes_only_the_documented_format_names(capsys, tmp_path, formats):
    code, out = run(capsys, "simulate", "--model", TOY, "--flows", "2000",
                    "--formats", formats, "--out", str(tmp_path / "s"))
    assert code == 2
    assert "unknown output format" in json.loads(out)["errors"][0]["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, series", [
    ("--thresholds", ","), ("--thresholds", "geom:1:2:0"), ("--thresholds", "geom:1:2:-3"),
    ("--probabilities", ","), ("--probabilities", "geom:0.5:0.5:0"),
])
def test_simulate_refuses_an_explicitly_empty_series(monkeypatch, capsys, tmp_path, flag, series):
    def no_sweep(spec):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(flowtab.cli, "run_sweep", no_sweep)
    code, out = run(capsys, "simulate", "--model", TOY, "--flows", "2000",
                    flag, series, "--out", str(tmp_path / "s"))
    assert code == 2
    assert json.loads(out)["errors"][0] == {"type": "ValueError",
                                            "message": f"{flag} names no value"}
    # a config value of [] is as explicit as the flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[2:]: []}))
    code, out = run(capsys, "--config", str(cfg), "simulate", "--model", TOY,
                    "--out", str(tmp_path / "s"))
    assert code == 2
    assert json.loads(out)["errors"][0]["message"] == f"{flag} names no value"
    assert list(tmp_path.iterdir()) == [cfg]


def test_simulate_without_a_series_flag_runs_the_default_series(monkeypatch, capsys, tmp_path):
    specs = []

    def recording_sweep(spec):
        specs.append(spec)
        return run_sweep(spec)

    monkeypatch.setattr(flowtab.cli, "run_sweep", recording_sweep)
    code, _ = run(capsys, "simulate", "--model", TOY, "--flows", "2000", "--out",
                  str(tmp_path / "s"))
    assert code == 0
    assert specs[0].thresholds == default_thresholds("length")
    assert specs[0].probabilities == default_probabilities("length")


def test_simulate_refuses_a_seed_named_twice(capsys, tmp_path):
    code, out = run(capsys, "simulate", "--model", TOY, "--flows", "2000", "--seeds", "2,1,2",
                    "--out", str(tmp_path / "s"))
    assert code == 2
    assert json.loads(out)["errors"][0] == {"type": "ValueError",
                                            "message": "a seed is named twice in [2, 1, 2]"}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_simulate_rejects_non_finite_threshold_before_writing(capsys, tmp_path, value):
    code, out = run(capsys, "simulate", "--model", TOY, "--flows", "2000",
                    "--thresholds", f"1,{value}", "--out", str(tmp_path / "s"))
    assert code == 2
    error = json.loads(out)["errors"][0]
    assert error["type"] == "ValueError" and "finite threshold" in error["message"]
    assert not (tmp_path / "s.csv").exists()


def test_analyze_relative_to_first(capsys, tmp_path):
    code, _ = run(capsys, "analyze", "--model", TOY, "--axis", "length",
                  "--coverages", "90.90909090909092", "--out", str(tmp_path / "a"))
    assert code == 0
    rows = (tmp_path / "a.analytic.csv").read_text().strip().splitlines()
    first_row = next(r for r in rows if r.startswith("first,"))
    cols = first_row.split(",")
    assert float(cols[2]) == pytest.approx(1.0, abs=1e-3)  # threshold parameter
    assert float(cols[6]) == 1.0 and float(cols[7]) == 1.0  # relative-to-first columns


@pytest.mark.parametrize("axis", ["length", "size"])
def test_analyze_matches_golden(capsys, tmp_path, axis):
    code, _ = run(capsys, "analyze", "--model", HEAVY, "--axis", axis,
                  "--coverages", "1,10,25,50,75,90,95,99,99.5,99.9",
                  "--out", str(tmp_path / "a"))
    assert code == 0
    golden = GOLDEN / f"analyze_heavytail_{axis}.analytic.csv"
    assert (tmp_path / "a.analytic.csv").read_bytes() == golden.read_bytes()


@pytest.fixture
def cpus(monkeypatch):
    """Pins analyze to a given number of usable CPUs; records each fork's
    hands, and checks that every forked worker was reaped."""
    forks = []

    def fork_join(calls):
        forks.append([args[-1] for _, args in calls])
        return fork_join_(calls)

    def pin(n: int) -> list:
        monkeypatch.setattr(flowtab.cli, "_usable_cpus", lambda: n)
        return forks

    fork_join_ = flowtab.cli._fork_join
    monkeypatch.setattr(flowtab.cli, "_fork_join", fork_join)
    yield pin
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("model, golden", [(TOY, "analyze_toy_{}"),
                                           (HEAVY, "analyze_heavytail_{}_default")])
@pytest.mark.parametrize("axis", ["length", "size"])
def test_analyze_is_byte_identical_for_any_cpu_count(capsys, tmp_path, cpus, model, golden,
                                                      axis):
    # the first target runs here, the other 99 are dealt round-robin to a
    # forked worker per CPU; one CPU runs them all here
    expected = (GOLDEN / f"{golden.format(axis)}.analytic.csv").read_bytes()
    for n in (1, 2, 3):
        forks = cpus(n)
        code, _ = run(capsys, "analyze", "--model", model, "--axis", axis,
                      "--out", str(tmp_path / f"a{n}"))
        assert code == 0
        assert (tmp_path / f"a{n}.analytic.csv").read_bytes() == expected
    targets = list(DEFAULT_COVERAGES[1:])
    assert forks == [[targets[0::2], targets[1::2]],
                     [targets[0::3], targets[1::3], targets[2::3]]]


def test_forked_analyze_repeats_targets_and_marks_unreachable_ones(capsys, tmp_path, cpus):
    # size-axis sampling tops out below 99 %: those rows are unreachable
    # whichever worker inverts them, and a repeated target reuses its rows
    outputs = []
    for n in (1, 2, 3):
        cpus(n)
        code, _ = run(capsys, "analyze", "--model", HEAVY, "--axis", "size",
                      "--coverages", "50,99,10,50,99.9,99,150,10", "--out", str(tmp_path / "a"))
        assert code == 0
        outputs.append((tmp_path / "a.analytic.csv").read_text())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].count("sampling,99,unreachable,,,,,\n") == 2
    assert outputs[0].count("\n") == 1 + 8 * 3


@pytest.mark.parametrize("coverages", ["50,0", "50,nan", "50,10,0,20,30", "50,10,20,nan"])
def test_forked_analyze_reports_a_bad_target_as_one_cpu_does(capsys, tmp_path, cpus, coverages):
    # every bad target raises the same ValueError, so the report does not
    # depend on the worker that sent it
    outputs = []
    for n in (1, 2, 3):
        forks = cpus(n)
        code, out = run(capsys, "analyze", "--model", TOY, "--coverages", coverages,
                        "--out", str(tmp_path / "a"))
        assert code == 2
        outputs.append(json.loads(out))
        assert list(tmp_path.iterdir()) == []
    assert outputs[0] == outputs[1] == outputs[2] == {"errors": [
        {"type": "ValueError", "message": "target coverage must lie in (0, 100]"}]}
    assert len(forks) == (2 if coverages.count(",") > 1 else 0)


@pytest.fixture
def weighted_sums(monkeypatch):
    """The number of weighted Mixture.expect sums made since the fixture
    was set up, in a list so that a test can reset it.  analyze runs on
    one CPU, in this process, where the counting wrapper sees every sum."""
    monkeypatch.setattr(flowtab.cli, "_usable_cpus", lambda: 1)
    count, expect = [0], Mixture.expect

    def counted(mix, weight, start):
        count[0] += weight is not None
        return expect(mix, weight, start)

    monkeypatch.setattr(Mixture, "expect", counted)
    return count


@pytest.mark.parametrize("axis, shared, separate", [("length", 247, 256), ("size", 212, 227)])
def test_analyze_targets_share_their_probes(capsys, tmp_path, weighted_sums, axis, shared,
                                            separate):
    # a model keeps its probe sums, so a parameter that several targets of
    # one command probe, such as sampling's bracket ends, is summed once
    targets = "1,10,25,50,75,90,95,99,99.5,99.9"
    code, _ = run(capsys, "analyze", "--model", HEAVY, "--axis", axis,
                  "--coverages", targets, "--out", str(tmp_path / "a"))
    assert code == 0
    golden = GOLDEN / f"analyze_heavytail_{axis}.analytic.csv"
    assert (tmp_path / "a.analytic.csv").read_bytes() == golden.read_bytes()
    assert weighted_sums[0] == shared

    def inversions(model_per_call: bool) -> int:
        weighted_sums[0] = 0
        model = load_model(HEAVY)
        for target in map(float, targets.split(",")):
            for kind in ALGORITHM_KINDS:
                try:
                    invert_for_coverage(load_model(HEAVY) if model_per_call else model,
                                        kind, axis, target)
                except UnreachableError:
                    pass
        return weighted_sums[0]

    # separate calls over one model make the command's sums, a newly loaded
    # model makes them again, and a model per call shares none
    assert [inversions(False), inversions(False), inversions(True)] == [shared, shared, separate]


@pytest.mark.parametrize("axis", ["length", "size"])
def test_analyze_target_named_twice_costs_nothing(capsys, tmp_path, weighted_sums, axis):
    # each row is the default golden's row for its target, and a target
    # named again repeats its rows without a sum
    golden = (GOLDEN / f"analyze_heavytail_{axis}_default.analytic.csv").read_bytes()
    header, *body = golden.splitlines(keepends=True)
    rows = {}
    for row in body:
        rows.setdefault(row.split(b",")[1], []).append(row)
    sums = []
    for coverages in ("99.9,50,5", "99.9,50,5,50"):
        weighted_sums[0] = 0
        code, _ = run(capsys, "analyze", "--model", HEAVY, "--axis", axis,
                      "--coverages", coverages, "--out", str(tmp_path / "a"))
        assert code == 0
        sums.append(weighted_sums[0])
    got = (tmp_path / "a.analytic.csv").read_bytes().splitlines(keepends=True)
    assert got == [header] + [row for t in (b"99.9", b"50", b"5", b"50") for row in rows[t]]
    assert sums[0] == sums[1] > 0


@pytest.mark.parametrize("argv", [
    ("simulate", "--flows", "2000", "--algorithms", "first,first"),
    ("simulate", "--flows", "2000", "--algorithms", "sampling,first,sampling"),
    ("analyze", "--coverages", "50", "--algorithms", "sampling,sampling"),
    ("analyze", "--coverages", "50", "--algorithms", "threshold,first,threshold"),
])
def test_algorithm_named_twice_exits_2_before_writing(capsys, tmp_path, argv):
    code, out = run(capsys, argv[0], "--model", TOY, *argv[1:], "--out", str(tmp_path / "a"))
    assert code == 2
    error = json.loads(out)["errors"][0]
    assert error["type"] == "ValueError" and "named twice" in error["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("axis", ["length", "size"])
def test_analyze_toy_default_targets_match_golden(capsys, tmp_path, axis):
    # the toy length axis has mass at 1 and 10 packets only, so its tail
    # sums stop after the last nonzero mass of the survival table
    code, _ = run(capsys, "analyze", "--model", TOY, "--axis", axis,
                  "--out", str(tmp_path / "a"))
    assert code == 0
    golden = GOLDEN / f"analyze_toy_{axis}.analytic.csv"
    assert (tmp_path / "a.analytic.csv").read_bytes() == golden.read_bytes()


def test_analyze_nan_target_exits_2(capsys, tmp_path):
    code, out = run(capsys, "analyze", "--model", TOY, "--coverages", "50,nan",
                    "--out", str(tmp_path / "a"))
    assert code == 2
    assert json.loads(out)["errors"][0]["type"] == "ValueError"
    assert not (tmp_path / "a.analytic.csv").exists()


def test_analyze_length_prints_target_coverage(capsys, tmp_path):
    # the probe that picks the parameter and the report that prints its
    # coverage sum the same terms, so the printed coverage is the target
    code, _ = run(capsys, "analyze", "--model", HEAVY, "--axis", "length",
                  "--algorithms", "threshold,sampling", "--coverages", "10,25,50",
                  "--out", str(tmp_path / "a"))
    assert code == 0
    with open(tmp_path / "a.analytic.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    for row in rows:
        assert float(row["coverage"]) == float(row["target_coverage"]), row


@pytest.mark.parametrize("flags", [
    ("--coverages", "5,50"),
    ("--coverages", "5,50", "--algorithms", "threshold,sampling"),
    (),
])
def test_analyze_toy_length_step_curve(capsys, tmp_path, flags):
    # first's toy length-axis coverage steps from 90.9% to 0 at T = 10, where
    # no flow gains an entry; a target inside that last step is answered at
    # T = 9
    code, _ = run(capsys, "analyze", "--model", TOY, "--axis", "length", *flags,
                  "--out", str(tmp_path / "a"))
    assert code == 0
    with open(tmp_path / "a.analytic.csv", newline="") as fh:
        rows = [(r["algorithm"], float(r["target_coverage"])) for r in csv.DictReader(fh)]
    targets = (5.0, 50.0) if flags else DEFAULT_COVERAGES
    kinds = flags[3].split(",") if len(flags) > 2 else ["first", "threshold", "sampling"]
    assert rows == [(kind, target) for target in targets for kind in kinds]


@pytest.mark.parametrize("axis", ["length", "size"])
def test_analyze_subset_prints_the_full_runs_rows(capsys, tmp_path, axis):
    # every reachable row is the full run's, ratios to first included, and
    # past 100 % each requested kind gets an unreachable row
    for name, flags in (("full", ()), ("part", ("--algorithms", "sampling,threshold"))):
        code, _ = run(capsys, "analyze", "--model", HEAVY, "--axis", axis, *flags,
                      "--coverages", "50,150", "--out", str(tmp_path / name))
        assert code == 0
    full = (tmp_path / "full.analytic.csv").read_text().splitlines(keepends=True)
    part = (tmp_path / "part.analytic.csv").read_text().splitlines(keepends=True)
    rows = {tuple(row.split(",")[:2]): row for row in full[1:]}
    assert part == [full[0], rows["sampling", "50"], rows["threshold", "50"],
                    "sampling,150,unreachable,,,,,\n", "threshold,150,unreachable,,,,,\n"]
    assert rows["first", "150"] == "first,150,unreachable,,,,,\n"
    assert all(row.count(",") == 7 and not row.endswith(",,\n")
               for key, row in rows.items() if key[1] == "50")


def test_analyze_rejects_unknown_algorithm(capsys, tmp_path):
    code, out = run(capsys, "analyze", "--model", TOY, "--algorithms", "firts,threshold",
                    "--coverages", "50", "--out", str(tmp_path / "a"))
    assert code == 2
    error = json.loads(out)["errors"][0]
    assert error["type"] == "ValueError" and "firts" in error["message"]
    assert not (tmp_path / "a.analytic.csv").exists()


@pytest.mark.parametrize("flags", [("--coverages", ","), ("--algorithms", ",")])
def test_analyze_with_nothing_to_do_exits_2(capsys, tmp_path, flags):
    code, out = run(capsys, "analyze", "--model", TOY, *flags, "--out", str(tmp_path / "a"))
    assert code == 2
    assert json.loads(out)["errors"][0]["type"] == "ValueError"
    assert not (tmp_path / "a.analytic.csv").exists()


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # the runtime needs numpy only: importing the CLI, loading a model and
    # running analyze and simulate load no scipy module at all
    probe = (
        "import sys, flowtab.cli\n"
        "from flowtab.model import load_model\n"
        "model, out = sys.argv[1:]\n"
        "load_model(model)\n"
        "assert flowtab.cli.main(['analyze', '--model', model, '--axis', 'size',\n"
        "                         '--coverages', '50,99', '--out', out + '/a']) == 0\n"
        "assert flowtab.cli.main(['simulate', '--model', model, '--flows', '2000',\n"
        "                         '--seeds', '1', '--out', out + '/s']) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", probe, HEAVY, str(tmp_path)], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_cli_import_leaves_the_pool_and_the_tail_rules_unloaded(tmp_path):
    # the CLI imports no process pool, and the Gauss-Legendre rules (numpy.polynomial)
    # are built only in a process that sums a tail: a forked sweep's analytic child.
    # A forking sweep loads numpy.random before its first fork, whether it ingests
    # its flows or generates one seed's, so that its children share it instead of
    # each loading its own
    assert main(["generate", "--model", HEAVY, "--flows", "2000", "--seed", "1",
                 "--out", str(tmp_path / "flows.csv")]) == 0
    probe = (
        "import sys, flowtab.cli, flowtab.sweep\n"
        "unloaded = ['concurrent.futures', 'multiprocessing', 'numpy.polynomial', 'numpy.random']\n"
        "print(sorted(m for m in unloaded if m in sys.modules))\n"
        "model, out, first = sys.argv[1:]\n"
        "fork_join = flowtab.sweep._fork_join\n"
        "def recorded(calls):\n"
        "    print('numpy.random' in sys.modules)\n"
        "    return fork_join(calls)\n"
        "flowtab.sweep._fork_join = recorded\n"
        "runs = {'ingested': ['--flows-csv', out + '/flows.csv', '--seeds', '1,2'],\n"
        "        'one seed': ['--flows', '2000', '--seeds', '1']}\n"
        "for name in sorted(runs, key=lambda name: name != first):\n"
        "    assert flowtab.cli.main(['simulate', '--model', model, *runs[name], '--jobs', '2',\n"
        "                             '--out', out + '/' + name]) == 0\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    for first in ("ingested", "one seed"):
        out = subprocess.run([sys.executable, "-c", probe, HEAVY, str(tmp_path), first],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        lines = [line for line in out.stdout.splitlines() if not line.startswith("wrote ")]
        # two fork-joins for each population: reading or generating it, then its cells
        assert lines == ["[]", "True", "True", "True", "True", "False"], first


def test_peff_flags_and_profile(capsys, tmp_path):
    code, out = run(capsys, "peff", "--p", "0.1", "--l-avg", "3")
    assert code == 0
    assert float(out) == pytest.approx(0.271, abs=1e-12)
    profile = {"paths": [{"probability": 1.0, "switch_probabilities": [0.1, 0.1, 0.1]}]}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    code, out = run(capsys, "peff", "--paths", str(path))
    assert float(out) == pytest.approx(0.271, abs=1e-12)
    code, _ = run(capsys, "peff", "--p", "0.1")
    assert code == 2
    # a flag the profile would override is refused, not ignored
    for flags, named in ((("--p", "0.01", "--l-avg", "3"), "--p, --l-avg"),
                         (("--p", "0.1"), "--p"), (("--l-avg", "3"), "--l-avg")):
        code, out = run(capsys, "peff", "--paths", str(path), *flags)
        assert code == 2
        assert json.loads(out)["errors"][0]["message"] == f"{named} would be ignored with --paths"
    code, out = run(capsys, "peff", "--p", "0.5", "--l-avg", "nan")
    assert code == 2
    assert "l_avg must be >= 1" in json.loads(out)["errors"][0]["message"]
    # a malformed profile is a validation error, reported as JSON
    for doc in ({"routes": profile["paths"]}, {"paths": [{"probability": 1.0}]},
                profile["paths"]):
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "peff", "--paths", str(path))
        assert code == 2
        assert json.loads(out)["errors"][0]["type"] == "ValueError"


def test_config_file_supplies_defaults(capsys, tmp_path):
    config = {"model": TOY, "flows": "500", "seed": 3}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out_csv = tmp_path / "flows.csv"
    code, _ = run(capsys, "--config", str(cfg), "generate", "--out", str(out_csv))
    assert code == 0
    assert len(out_csv.read_text().strip().splitlines()) == 501


@pytest.mark.parametrize("spelling", ["equals", "abbreviation"])
def test_config_path_is_read_in_every_spelling_argparse_takes(capsys, tmp_path, spelling):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "flows": 5}))
    flag = [f"--config={cfg}"] if spelling == "equals" else ["--conf", str(cfg)]
    code, _ = run(capsys, *flag, "generate", "--model", TOY, "--out", str(tmp_path / "c.csv"))
    assert code == 0
    code, _ = run(capsys, "generate", "--model", TOY, "--seed", "3", "--flows", "5",
                  "--out", str(tmp_path / "x.csv"))
    assert code == 0
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "x.csv").read_bytes()


def test_a_subcommand_flag_abbreviation_names_no_config_file(capsys, tmp_path):
    # after the subcommand, --co abbreviates analyze's --coverages and is also a
    # prefix of the top-level --config; the config pass must not read it as one
    code, _ = run(capsys, "analyze", "--model", TOY, "--co", "50", "--out", str(tmp_path / "x"))
    assert code == 0
    code, _ = run(capsys, "analyze", "--model", TOY, "--coverages", "50",
                  "--out", str(tmp_path / "y"))
    assert code == 0
    assert ((tmp_path / "x.analytic.csv").read_bytes()
            == (tmp_path / "y.analytic.csv").read_bytes())
    # and --mi abbreviates generate's --min-packet
    code, _ = run(capsys, "generate", "--model", TOY, "--seed", "3", "--flows", "5",
                  "--mi", "64", "--out", str(tmp_path / "x.csv"))
    assert code == 0
    code, _ = run(capsys, "generate", "--model", TOY, "--seed", "3", "--flows", "5",
                  "--out", str(tmp_path / "y.csv"))
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()


def test_invalid_config_given_with_an_equals_sign_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"seed": "x"}))
    code, out = run(capsys, f"--config={cfg}", "validate", TOY)
    assert code == 2
    assert json.loads(out)["errors"][0]["type"] == "ConfigError"


@pytest.mark.parametrize("document", ["[1]", "\"x\"", "3", "null"])
def test_config_that_is_no_json_object_exits_2(capsys, tmp_path, document):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(document)
    code, out = run(capsys, "--config", str(cfg), "validate", TOY)
    assert code == 2
    assert json.loads(out) == {"errors": [{
        "type": "ConfigError", "message": "a config file holds a JSON object of flag values"}]}


@pytest.mark.parametrize("key, value", [
    ("command", "peff"), ("command", "validate"), ("help", True), ("flow", 10),
    ("--model", "toy_twopoint.json"), ("model_path", "toy_twopoint.json"),
    ("coupling", "comonotone"),
])
def test_config_key_that_names_no_flag_exits_2(capsys, tmp_path, key, value):
    # only a flag's (or a positional's) dest may be set; "command" would
    # otherwise replace the subcommand given on the command line
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out = run(capsys, "--config", str(cfg), "validate", TOY)
    assert code == 2
    assert json.loads(out) == {"errors": [{
        "type": "ConfigError", "message": f"config key {key!r} names no flag"}]}


def test_config_values_of_string_flags_are_carried_as_text(capsys, tmp_path, monkeypatch):
    # a JSON list or number for a string flag reaches the command as the
    # text the command line would carry, not as a list or an int
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": [TOY], "out": 5}))
    code, _ = run(capsys, "--config", str(cfg), "analyze", "--coverages", "50")
    assert code == 0 and (tmp_path / "5.analytic.csv").exists()
    cfg.write_text(json.dumps({"flows_csv": 7}))
    code, out = run(capsys, "--config", str(cfg), "simulate", "--model", TOY, "--out", "x")
    assert code == 1
    assert json.loads(out)["errors"][0]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("value", [None, True, {}])
def test_config_value_with_no_command_line_text_exits_2(capsys, tmp_path, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": value}))
    code, out = run(capsys, "--config", str(cfg), "analyze", "--model", TOY, "--coverages", "50")
    assert code == 2
    assert json.loads(out) == {"errors": [{
        "type": "ConfigError", "message": "config key 'out': expected a string, number or list"}]}
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("key, command, allowed", [
    ("axis", ["analyze", "--coverages", "50"], "'length', 'size'"),
    ("axis", ["simulate", "--flows", "1e3"], "'length', 'size'"),
    ("duration-model", ["simulate", "--flows", "1e3"], "'equal', 'proportional'"),
], ids=["analyze-axis", "simulate-axis", "duration-model"])
def test_config_value_outside_its_flags_choices_exits_2(capsys, tmp_path, key, command, allowed):
    # argparse checks choices on command-line text alone, so the config pass does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "bogus"}))
    code, out = run(capsys, "--config", str(cfg), *command, "--model", TOY,
                    "--out", str(tmp_path / "x"))
    assert code == 2
    assert json.loads(out) == {"errors": [{
        "type": "ConfigError", "message": f"config key {key!r}: 'bogus' is not one of {allowed}"}]}
    assert list(tmp_path.iterdir()) == [cfg]


def test_simulate_from_ingested_flows(capsys, tmp_path):
    pop = tmp_path / "pop.csv"
    run(capsys, "generate", "--model", TOY, "--flows", "3000", "--seed", "2",
        "--out", str(pop))
    code, _ = run(capsys, "simulate", "--model", TOY, "--flows-csv", str(pop),
                  "--thresholds", "1", "--probabilities", "0.5", "--seeds", "1",
                  "--out", str(tmp_path / "ingested"))
    assert code == 0
    rows = (tmp_path / "ingested.csv").read_text().strip().splitlines()
    first_cov = float(rows[1].split(",")[1])
    assert first_cov == pytest.approx(100 * 10 / 11, abs=1.5)


@pytest.mark.parametrize("flags, named", [
    (("--flows", "7"), "--flows"),
    (("--min-packet", "5000"), "--min-packet"),
    (("--min-packet", "1"), "--min-packet"),
    (("--min-packet", "5000", "--flows", "7"), "--flows, --min-packet")])
def test_simulate_refuses_generation_flags_with_flows_csv(capsys, tmp_path, flags, named):
    # the file's flows replace the generated ones: a generation flag would do nothing
    pop = tmp_path / "pop.csv"
    pop.write_text("length_packets,size_bytes\n10,1000\n1,100\n")
    code, out = run(capsys, "simulate", "--model", TOY, "--flows-csv", str(pop), *flags,
                    "--algorithms", "first", "--thresholds", "1", "--out", str(tmp_path / "s"))
    assert code == 2
    assert json.loads(out)["errors"][0]["message"] == f"{named} would be ignored with --flows-csv"
    assert not (tmp_path / "s.csv").exists()
    # at their defaults the two stay accepted
    code, _ = run(capsys, "simulate", "--model", TOY, "--flows-csv", str(pop), "--flows", "1e6",
                  "--min-packet", "64", "--algorithms", "first",
                  "--thresholds", "1", "--out", str(tmp_path / "s"))
    assert code == 0 and (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("ingested, algorithms", [
    (True, "first,threshold"), (True, "sampling"), (False, "first,threshold")])
def test_simulate_rejects_negative_seed_before_writing(capsys, tmp_path, ingested, algorithms):
    # a negative seed is refused whether or not any cell would draw on it
    pop = tmp_path / "pop.csv"
    pop.write_text("length_packets,size_bytes\n10,1000\n1,100\n")
    source = ("--flows-csv", str(pop)) if ingested else ("--flows", "2000")
    code, out = run(capsys, "simulate", "--model", TOY, *source, "--seeds", "1,-1",
                    "--algorithms", algorithms, "--out", str(tmp_path / "s"))
    assert code == 2
    assert "seeds must be non-negative, got -1" in json.loads(out)["errors"][0]["message"]
    assert not (tmp_path / "s.csv").exists()


def test_generate_rejects_negative_seed(capsys, tmp_path):
    code, out = run(capsys, "generate", "--model", TOY, "--flows", "100",
                    "--seed", "-1", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "seed must be non-negative, got -1" in json.loads(out)["errors"][0]["message"]
    assert not (tmp_path / "x.csv").exists()


def test_simulate_rejects_unpacketizable_flow(capsys, tmp_path):
    pop = tmp_path / "pop.csv"
    pop.write_text("length_packets,size_bytes\n10,1000\n2,3037\n")
    code, out = run(capsys, "simulate", "--model", TOY, "--flows-csv", str(pop),
                    "--thresholds", "1", "--probabilities", "0.5",
                    "--out", str(tmp_path / "ingested"))
    assert code == 2
    error = json.loads(out)["errors"][0]
    assert error["type"] == "ValueError" and "row 3" in error["message"]
    assert not (tmp_path / "ingested.csv").exists()
    pop.write_text("length_packets,size_bytes\n10,1000\n3\n")
    code, out = run(capsys, "simulate", "--model", TOY, "--flows-csv", str(pop),
                    "--thresholds", "1", "--probabilities", "0.5",
                    "--out", str(tmp_path / "ingested"))
    assert code == 2
    assert "row 3: expected two integer fields" in json.loads(out)["errors"][0]["message"]


def test_simulate_rejects_int64_overflowing_flow(capsys, tmp_path):
    pop = tmp_path / "pop.csv"
    for row in ("99999999999999999999,99999999999999999999", "6076006101006101,6076006101006101"):
        pop.write_text(f"length_packets,size_bytes\n10,1000\n{row}\n")
        code, out = run(capsys, "simulate", "--model", TOY, "--flows-csv", str(pop),
                        "--thresholds", "1", "--probabilities", "0.5",
                        "--out", str(tmp_path / "ingested"))
        assert code == 2
        assert "row 3: flow of " in json.loads(out)["errors"][0]["message"]


@pytest.mark.parametrize("axis, threshold", [("size", "1e13"), ("length", "1e14")])
def test_far_tail_threshold_reports_unbounded_occupancy(capsys, tmp_path, axis, threshold):
    # the analytic occupancy sum underflows to 0 where entries remain
    code, _ = run(capsys, "simulate", "--model", HEAVY, "--flows", "1000", "--axis", axis,
                  "--algorithms", "threshold", "--thresholds", threshold,
                  "--out", str(tmp_path / "far"))
    assert code == 0
    assert (tmp_path / "far.csv").read_text().splitlines()[1] == f"{float(threshold):g},0.00,inf,inf"
    spec = AlgorithmSpec("threshold", axis, threshold=float(threshold))
    report = analytic_for_spec(load_model(HEAVY), spec)
    assert math.isfinite(report.operations_reduction) and report.occupancy_reduction == math.inf


def test_simulate_rejects_a_byte_total_past_int64(capsys, tmp_path):
    # ten flows of 10^18 bytes: the total, 10^19, wraps around int64
    pop = tmp_path / "pop.csv"
    pop.write_text("length_packets,size_bytes\n" + "1000000000000000,1000000000000000000\n" * 10
                   + "1,100\n")
    code, out = run(capsys, "simulate", "--model", HEAVY, "--flows-csv", str(pop), "--axis", "size",
                    "--algorithms", "sampling", "--probabilities", "1e-12",
                    "--out", str(tmp_path / "wrap"))
    assert code == 2
    assert json.loads(out)["errors"][0]["message"] == "the flows' byte total overflows int64"
    assert not (tmp_path / "wrap.csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--jobs", "2.5"), ("--jobs", "inf"), ("--jobs", "nan"), ("--seeds", "1.5"),
    ("--seeds", "1,2.5"), ("--flows", "1e3.5"), ("--flows", "2500.5"),
])
def test_count_flags_reject_non_integers(capsys, tmp_path, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--model", TOY, "--thresholds", "1", "--probabilities", "0.5",
              "--flows", "1000", flag, value, "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exits_2(capsys, tmp_path, jobs):
    code, out = run(capsys, "simulate", "--model", TOY, "--flows", "1e3", "--jobs", jobs,
                    "--out", str(tmp_path / "x"))
    assert code == 2
    assert "jobs must be an integer >= 1" in json.loads(out)["errors"][0]["message"]


def test_config_counts_must_be_integers(capsys, tmp_path):
    # a config value goes through its flag's type, as the command line's
    # string would
    cfg = tmp_path / "cfg.json"
    for config, message in (({"jobs": 2.5}, "'2.5' is not an integer"),
                            ({"seeds": "1,2.5"}, "'2.5' is not an integer"),
                            ({"seeds": [1.5, 2]}, "'1.5' is not an integer"),
                            ({"flows": 2500.5}, "'2500.5' is not an integer"),
                            ({"min_packet": 64.5}, "'64.5' is not an integer")):
        cfg.write_text(json.dumps(config))
        for command in (["simulate", "--flows", "1e3"],
                        ["generate", "--flows", "1e3", "--seed", "1"]):
            code, out = run(capsys, "--config", str(cfg), *command, "--model", TOY,
                            "--out", str(tmp_path / "x"))
            assert code == 2
            assert json.loads(out)["errors"][0] == {"type": "ConfigError", "message": message}
    assert not (tmp_path / "x").exists() and not (tmp_path / "x.csv").exists()


def test_config_values_convert_like_flags(capsys, tmp_path):
    config = {"flows": 1000.0, "seeds": [1, 2], "thresholds": [1, 2.5],
              "probabilities": "geom:0.5:0.5:2", "min-packet": "64", "algorithms": "first"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _ = run(capsys, "--config", str(cfg), "simulate", "--model", TOY,
                  "--out", str(tmp_path / "cfg"))
    assert code == 0
    code, _ = run(capsys, "simulate", "--model", TOY, "--flows", "1000", "--seeds", "1,2",
                  "--thresholds", "1,2.5", "--probabilities", "geom:0.5:0.5:2",
                  "--min-packet", "64", "--algorithms", "first", "--out", str(tmp_path / "flags"))
    assert code == 0
    assert (tmp_path / "cfg.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()


def test_model_dir_env_resolution(capsys, monkeypatch):
    monkeypatch.setenv("FLOWTAB_MODEL_DIR", str(MODELS))
    code, out = run(capsys, "validate", "toy_twopoint.json")
    assert code == 0 and json.loads(out)["valid"]


def test_missing_model_is_runtime_error(capsys):
    code, out = run(capsys, "validate", "no_such_model.json")
    assert code == 1
    assert json.loads(out)["errors"][0]["type"] == "FileNotFoundError"


def test_a_file_error_other_than_a_missing_file_exits_1_as_an_os_error(capsys, tmp_path):
    # an output path that is a directory
    (tmp_path / "a.analytic.csv").mkdir()
    code, out = run(capsys, "analyze", "--model", TOY, "--coverages", "50",
                    "--out", str(tmp_path / "a"))
    assert (code, json.loads(out)["errors"][0]["type"]) == (1, "OSError")

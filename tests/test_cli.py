from __future__ import annotations

import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from flowtab.cli import DEFAULT_COVERAGES, main

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

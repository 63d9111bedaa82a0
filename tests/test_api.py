"""The package's public names: ``flowtab`` re-exports each module's ``__all__``;
and its edge: a public call refuses a wrong-typed or ill-shaped argument with
a ValueError."""
from __future__ import annotations

import math

import numpy as np
import pytest

import flowtab
from flowtab import algorithms, analytic, generator, model, sweep
from flowtab.algorithms import AlgorithmSpec, PacketLayout, PathProfile, p_eff_avg, p_total
from flowtab.sweep import SweepSpec, default_probabilities, default_thresholds

MODULES = (algorithms, analytic, generator, model, sweep)

# the names the package exported when it listed them one by one, by module
LISTED = {
    algorithms: ["AlgorithmSpec", "DegenerateError", "MetricsReport", "PathProfile",
                 "p_eff_avg", "p_eff_paths", "p_total"],
    analytic: ["UnreachableError", "analytic_for_spec", "invert_for_coverage"],
    generator: ["GeneratorConfig", "generate_arrays", "read_flow_csv", "write_flow_csv"],
    model: ["AxisModel", "DominanceError", "Mixture", "MixtureComponent", "ModelError",
            "SchemaError", "TrafficModel", "WeightError", "load_model", "parse_model",
            "resolve_model_path"],
    sweep: ["SweepCell", "SweepResult", "SweepSpec", "default_probabilities",
            "default_thresholds", "emit_table", "run_sweep"],
}


def test_listed_names_resolve_to_their_module_objects():
    assert sum(map(len, LISTED.values())) == 32
    for module, names in LISTED.items():
        for name in names:
            assert name in flowtab.__all__, name
            assert getattr(flowtab, name) is getattr(module, name), name


def test_all_is_each_module_all_once():
    names = [name for module in MODULES for name in module.__all__]
    assert flowtab.__all__ == names
    assert len(set(names)) == len(names)
    assert {"PacketLayout", "evaluate_batch", "aggregate_batch"} <= set(names)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from flowtab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(flowtab.__all__)
    for name, value in namespace.items():
        assert value is getattr(flowtab, name), name


LAYOUT_REFUSED = "are not equal-length, non-empty 1-D int64 arrays"

# (case, call with the toy model, message): each is refused when built or called
REFUSED = [
    ("string threshold", lambda m: AlgorithmSpec("threshold", threshold="4"),
     "threshold requires a finite threshold >= 0"),
    ("string probability", lambda m: AlgorithmSpec("sampling", probability="0.5"),
     r"sampling requires probability in \(0, 1\]"),
    ("string path probability", lambda m: PathProfile(paths=(("1", (0.1,)),)),
     r"probabilities must lie in \[0, 1\]"),
    ("string switch probability", lambda m: PathProfile(paths=((1.0, ("0.1",)),)),
     r"probabilities must lie in \[0, 1\]"),
    ("p_total string p", lambda m: p_total("0.1", 3), r"p must lie in \[0, 1\]"),
    ("p_total string n", lambda m: p_total(0.1, "3"), "n must be >= 0"),
    ("p_eff_avg string l_avg", lambda m: p_eff_avg(0.1, "3"), "l_avg must be >= 1"),
    ("sweep axis", lambda m: SweepSpec(model=m, axis="bogus"), "unknown axis 'bogus'"),
    ("sweep NaN threshold", lambda m: SweepSpec(model=m, thresholds=(math.nan,)),
     "first requires a finite threshold >= 0"),
    ("sweep probability above 1", lambda m: SweepSpec(model=m, probabilities=(2.0,)),
     r"sampling requires probability in \(0, 1\]"),
    ("default thresholds axis", lambda m: default_thresholds("bogus"), "unknown axis 'bogus'"),
    ("default probabilities axis", lambda m: default_probabilities("bogus"),
     "unknown axis 'bogus'"),
    ("string seed", lambda m: SweepSpec(model=m, seeds=("1",)),
     "sweep requires one or more integer seeds"),
    ("None seed", lambda m: SweepSpec(model=m, seeds=(1, None)),
     "sweep requires one or more integer seeds"),
    ("layout not 1-D", lambda m: PacketLayout(np.array(3), np.array(300), 1518), LAYOUT_REFUSED),
    ("layout not integers", lambda m: PacketLayout(np.array([1.0]), np.array([100.0]), 1518),
     LAYOUT_REFUSED),
    ("layout unequal lengths",
     lambda m: PacketLayout(np.array([1, 2, 3]), np.array([100]), 1518), LAYOUT_REFUSED),
    ("layout empty", lambda m: PacketLayout(np.array([], dtype=np.int64),
                                            np.array([], dtype=np.int64), 1518), LAYOUT_REFUSED),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in REFUSED],
                         ids=[case[0] for case in REFUSED])
def test_a_bad_argument_is_refused_with_a_value_error(toy_model, call, message):
    with pytest.raises(ValueError, match=message):
        call(toy_model)

"""The package's public names: ``flowtab`` re-exports each module's ``__all__``."""
from __future__ import annotations

import flowtab
from flowtab import algorithms, analytic, generator, model, sweep

MODULES = (algorithms, analytic, generator, model, sweep)

# the names the package exported when it listed them one by one, by module
LISTED = {
    algorithms: ["AlgorithmSpec", "DegenerateError", "MetricsReport", "PathProfile",
                 "p_eff_avg", "p_eff_paths", "p_total"],
    analytic: ["AnalyticReport", "UnreachableError", "analytic_for_spec", "invert_for_coverage"],
    generator: ["GeneratorConfig", "generate_arrays", "read_flow_csv", "write_flow_csv"],
    model: ["AxisModel", "DominanceError", "Mixture", "MixtureComponent", "ModelError",
            "SchemaError", "TrafficModel", "WeightError", "load_model", "parse_model",
            "resolve_model_path"],
    sweep: ["SweepCell", "SweepResult", "SweepSpec", "default_probabilities",
            "default_thresholds", "emit_table", "run_sweep"],
}


def test_listed_names_resolve_to_their_module_objects():
    assert sum(map(len, LISTED.values())) == 33
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

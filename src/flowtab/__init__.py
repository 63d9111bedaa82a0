"""flowtab: boundary analysis of flow-table usage reduction algorithms.

Simulates and analytically evaluates three elephant-flow detection
strategies (first-packet oracle, counter threshold, packet sampling)
over flow length/size mixture models, reporting traffic coverage,
operations reduction and occupancy reduction against the reactive
baseline in which every flow receives an entry at its first packet.
"""
from .algorithms import (
    AlgorithmSpec,
    DegenerateError,
    MetricsReport,
    PathProfile,
    p_eff_avg,
    p_eff_paths,
    p_total,
)
from .analytic import (
    AnalyticReport,
    UnreachableError,
    analytic_for_spec,
    invert_for_coverage,
)
from .generator import (
    GeneratorConfig,
    generate_arrays,
    read_flow_csv,
    write_flow_csv,
)
from .model import (
    AxisModel,
    DominanceError,
    Mixture,
    MixtureComponent,
    ModelError,
    SchemaError,
    TrafficModel,
    WeightError,
    load_model,
    parse_model,
    resolve_model_path,
)
from .sweep import (
    SweepCell,
    SweepResult,
    SweepSpec,
    default_probabilities,
    default_thresholds,
    emit_table,
    run_sweep,
)

__version__ = "0.1.0"

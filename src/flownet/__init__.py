"""Transport flows on directed networks with time-periodic routing weights.

The package simulates mass transport along the edges of a finite directed
graph where the routing proportions at the vertices change periodically in
time, using an exact solution formula on characteristics, and computes the
period of the asymptotic regime from the network's cycle structure.
"""

from .errors import (
    EvolutionError,
    ExprEvalError,
    ExprSyntaxError,
    FlownetError,
    GraphError,
    HypothesisError,
    ScenarioError,
    ScheduleError,
    SpectralError,
)
from .expr import evaluate as eval_expr
from .expr import parse_expr, to_source
from .graph import (
    NetworkGraph,
    build_graph,
    cyclic_index,
    is_strongly_connected,
    line_graph_adjacency,
)
from .schedules import (
    JunctionAllocation,
    TimeVaryingMatrix,
    ValidationReport,
    assemble_allocation,
    assemble_weighted_adjacency,
    embed_junctions,
    make_junction,
    regularity_diagnostic,
    support_pattern,
    validate_stochastic,
)
from .evolution import (
    EdgeDensityField,
    InitialData,
    boundary_residual,
    l1_norm,
    propagate,
)
from .spectral import (
    ConvergenceTrace,
    PeriodReport,
    asymptotic_period,
    convergence_diagnostic,
    default_sample_times,
    peripheral_count,
    strictly_positive_shortcut,
)
from .scenario import (
    Scenario,
    bundled_scenario_path,
    load_scenario,
    validation_summary,
)

__version__ = "0.1.0"

__all__ = [
    "FlownetError", "GraphError", "ExprSyntaxError", "ExprEvalError",
    "ScheduleError", "EvolutionError", "HypothesisError", "SpectralError",
    "ScenarioError",
    "parse_expr", "eval_expr", "to_source",
    "NetworkGraph", "build_graph", "line_graph_adjacency",
    "is_strongly_connected", "cyclic_index",
    "TimeVaryingMatrix", "JunctionAllocation", "ValidationReport",
    "assemble_weighted_adjacency", "assemble_allocation", "embed_junctions",
    "make_junction", "validate_stochastic", "support_pattern",
    "regularity_diagnostic",
    "InitialData", "EdgeDensityField", "propagate", "l1_norm", "boundary_residual",
    "PeriodReport", "ConvergenceTrace", "peripheral_count", "asymptotic_period",
    "strictly_positive_shortcut", "convergence_diagnostic", "default_sample_times",
    "Scenario", "load_scenario", "bundled_scenario_path", "validation_summary",
]

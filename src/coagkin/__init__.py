"""coagkin: truncated splash-coagulation cluster dynamics and its verification harness.

The model: clusters of integer size collide at a symmetric rate; the
smaller collision partner splashes into monomers that the larger one
absorbs one size step at a time. The package integrates the truncated
system with positivity control and turns the model's conservation laws,
moment bounds, identities and long-time limits into falsifiable checks.
"""

from .diagnostics import (
    DiagnosticsRecord,
    check_moment_propagation,
    compute_record,
    g_moment,
    mass_defect,
    mass_defect_endpoint,
    moment,
)
from .errors import CoagkinError, ConfigError, IntegrationStalledError, NumericError
from .integrator import SolverConfig, StepStats, Trajectory, integrate
from .kernels import (
    CoagulationKernel,
    additive,
    catalog,
    check_admissibility,
    constant,
    power_sum,
    tabulated,
    tabulated_from_csv,
)
from .reports import ExperimentReport
from .system import (
    RhsEvaluator,
    SizeDistribution,
    TestSequence,
    finite_identity_rate,
    geometric,
    mass_leak_rate,
    monomer,
    rhs,
    weak_form_rate,
)
from .weights import (
    ConvexWeight,
    check_inequality,
    construct_tail_weight,
    evaluate,
    evaluate_derivative,
    identity_weight,
    power_weight,
    sample_class_invariants,
)

__version__ = "0.1.0"

__all__ = [
    "CoagkinError",
    "CoagulationKernel",
    "ConfigError",
    "ConvexWeight",
    "DiagnosticsRecord",
    "ExperimentReport",
    "IntegrationStalledError",
    "NumericError",
    "RhsEvaluator",
    "SizeDistribution",
    "SolverConfig",
    "StepStats",
    "TestSequence",
    "Trajectory",
    "additive",
    "catalog",
    "check_admissibility",
    "check_inequality",
    "check_moment_propagation",
    "compute_record",
    "constant",
    "construct_tail_weight",
    "evaluate",
    "evaluate_derivative",
    "finite_identity_rate",
    "g_moment",
    "geometric",
    "identity_weight",
    "integrate",
    "mass_defect",
    "mass_defect_endpoint",
    "mass_leak_rate",
    "moment",
    "monomer",
    "power_sum",
    "power_weight",
    "rhs",
    "sample_class_invariants",
    "tabulated",
    "tabulated_from_csv",
    "weak_form_rate",
]

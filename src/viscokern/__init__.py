"""viscokern: 1-D linear viscoelasticity with weakly regular memory kernels.

Relaxation-modulus algebra (wedge / exponential series / tabulated /
formula kernels and their integrated form), bump-function mollification
with property preservation, two time-marching solvers for the memory
equation, energy diagnostics, and a CSV-reporting CLI for the standard
studies (wave-equation limit, smoothing-width convergence, refinement
orders, energy audit).
"""

from .config import ConfigError, RunConfig, parse_config
from .energy import (
    DissipationVerdict,
    EnergyReport,
    ModeDecayReport,
    dissipation_check,
    energy_series,
    identity_residual,
    mode_decay_diagnostic,
    reconstruct_velocities,
)
from .expressions import EvalError, ParseError, evaluate, parse
from .grids import Grid
from .kernels import (
    AdmissibilityReport,
    DerivativeUndefinedError,
    ExpressionKernel,
    IntegratedKernel,
    KernelRangeError,
    PronyKernel,
    QuadratureToleranceError,
    RelaxationKernel,
    TabulatedKernel,
    WedgeKernel,
    check_admissibility,
)
from .mollify import MollifiedKernel, sup_distance_K
from .solver import (
    ConfigurationError,
    ManufacturedProblem,
    ProblemSpec,
    SolutionField,
    SolverDivergenceError,
    UnsupportedKernelError,
    cfl_limit,
    l2_distance,
    l2_error_vs,
    l2_norm,
    manufactured_prony,
    solve,
    solve_differential,
    solve_integral,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "ConfigError",
    "ConfigurationError",
    "DerivativeUndefinedError",
    "DissipationVerdict",
    "EnergyReport",
    "EvalError",
    "ExpressionKernel",
    "Grid",
    "IntegratedKernel",
    "KernelRangeError",
    "ManufacturedProblem",
    "ModeDecayReport",
    "MollifiedKernel",
    "ParseError",
    "ProblemSpec",
    "PronyKernel",
    "QuadratureToleranceError",
    "RelaxationKernel",
    "RunConfig",
    "SolutionField",
    "SolverDivergenceError",
    "TabulatedKernel",
    "UnsupportedKernelError",
    "WedgeKernel",
    "cfl_limit",
    "check_admissibility",
    "dissipation_check",
    "energy_series",
    "evaluate",
    "identity_residual",
    "l2_distance",
    "l2_error_vs",
    "l2_norm",
    "manufactured_prony",
    "mode_decay_diagnostic",
    "parse",
    "parse_config",
    "reconstruct_velocities",
    "solve",
    "solve_differential",
    "solve_integral",
    "sup_distance_K",
]

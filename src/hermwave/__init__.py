"""Hermite solvers for the scalar wave equation on staggered grids."""

from .boundary import BoundarySpec, BoundarySpec2D, ghost_data, ghost_data_2d
from .conservative import (
    bootstrap_first_half,
    conservative_update,
    full_step_conservative,
    two_level_tensor,
)
from .diagnostics import (
    ErrorReport,
    conservative_energy,
    dissipative_energy,
    fit_rate,
    l2_error_field,
    l2_error_field_2d,
    l2_errors_pair,
)
from .dissipative import (
    SchemeConfig,
    eval_series,
    expand_taylor,
    half_step_1d,
    half_step_2d,
)
from .driver import (
    ConfigError,
    NumericalError,
    RunConfig,
    make_config,
    parse_config,
    run_experiment,
    run_gaussian_1d,
    run_conservation_1d,
    run_planewave_2d,
)
from .grid import (
    DUAL,
    PRIMAL,
    Field1D,
    Field2D,
    FieldPair,
    Grid1D,
    Grid2D,
    TwoLevelState,
)
from .interp import apply_interp, interp_matrix

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec", "BoundarySpec2D", "ghost_data", "ghost_data_2d",
    "bootstrap_first_half", "conservative_update", "full_step_conservative",
    "two_level_tensor",
    "ErrorReport", "conservative_energy", "dissipative_energy",
    "fit_rate", "l2_error_field", "l2_error_field_2d", "l2_errors_pair",
    "SchemeConfig", "eval_series", "expand_taylor",
    "half_step_1d", "half_step_2d",
    "ConfigError", "NumericalError", "RunConfig", "make_config", "parse_config",
    "run_experiment", "run_gaussian_1d", "run_conservation_1d", "run_planewave_2d",
    "DUAL", "PRIMAL", "Field1D", "Field2D", "FieldPair", "Grid1D", "Grid2D",
    "TwoLevelState",
    "apply_interp", "interp_matrix",
]

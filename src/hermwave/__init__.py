"""Hermite solvers for the scalar wave equation on staggered grids."""

from .boundary import ghost_data
from .conservative import step
from .diagnostics import ErrorReport, fit_rate, l2_error_field, l2_errors_pair
from .dissipative import SchemeConfig, eval_series, expand_taylor
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
from .grid import DUAL, PRIMAL, Axis, Field, Grid, Stack, State
from .interp import apply_interp, interp_matrix

__version__ = "0.1.0"

__all__ = [
    "ghost_data",
    "step",
    "ErrorReport", "fit_rate", "l2_error_field", "l2_errors_pair",
    "SchemeConfig", "eval_series", "expand_taylor",
    "ConfigError", "NumericalError", "RunConfig", "make_config", "parse_config",
    "run_experiment", "run_gaussian_1d", "run_conservation_1d", "run_planewave_2d",
    "DUAL", "PRIMAL", "Axis", "Field", "Grid", "Stack", "State",
    "apply_interp", "interp_matrix",
]

"""Traveling-wave speeds and profiles for vector-valued gradient-flow systems.

Computes the unique speed at which the exponentially weighted wave energy
has a zero minimum, the corresponding wave profile, and a full suite of
independent certification checks.
"""

__version__ = "0.1.0"

from .errors import (
    AssumptionViolationError,
    BracketFailureError,
    ConfigError,
    ContractViolationError,
    DegenerateProjectionError,
    InfeasibleMinimizerError,
    NoCrossingError,
    NotAWaveError,
    ProjectionConvergenceError,
    ShootingDivergenceError,
    TailError,
    WaveSolverError,
    WeightOverflowError,
)
from .functional import BoundsReport, FunctionalParams, compute_bounds, energy, energy_gradient, penalty_energy
from .minimize import GammaResult, MinimizeOptions, minimize_profile
from .potential import (
    PotentialConstants,
    PotentialSpec,
    compute_constants,
    decoupled_quartic,
    evaluate,
    find_equilibria,
    project_to_zero_set,
    scalar_cubic,
    user_polynomial,
    validate_spec,
)
from .profile import (
    Grid,
    Profile,
    derivative,
    read_csv,
    second_derivative,
    segment_profile,
    shift,
    translate_to_crossing,
    write_csv,
)
from .speed import SpeedResult, find_speed, gamma_curve, gamma_zero_tol, wave_at_speed
from .verify import VerifyReport, VerifyThresholds, run_verify

__all__ = [
    "AssumptionViolationError",
    "BoundsReport",
    "BracketFailureError",
    "ConfigError",
    "ContractViolationError",
    "DegenerateProjectionError",
    "FunctionalParams",
    "GammaResult",
    "Grid",
    "InfeasibleMinimizerError",
    "MinimizeOptions",
    "NoCrossingError",
    "NotAWaveError",
    "PotentialConstants",
    "PotentialSpec",
    "Profile",
    "ProjectionConvergenceError",
    "ShootingDivergenceError",
    "SpeedResult",
    "TailError",
    "VerifyReport",
    "VerifyThresholds",
    "WaveSolverError",
    "WeightOverflowError",
    "compute_bounds",
    "compute_constants",
    "decoupled_quartic",
    "derivative",
    "energy",
    "energy_gradient",
    "evaluate",
    "find_equilibria",
    "find_speed",
    "gamma_curve",
    "gamma_zero_tol",
    "minimize_profile",
    "penalty_energy",
    "project_to_zero_set",
    "read_csv",
    "run_verify",
    "scalar_cubic",
    "second_derivative",
    "segment_profile",
    "shift",
    "translate_to_crossing",
    "user_polynomial",
    "validate_spec",
    "wave_at_speed",
    "write_csv",
]

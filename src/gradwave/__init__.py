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
    ProjectionConvergenceError,
    ShootingDivergenceError,
    TailError,
    WaveSolverError,
    WeightOverflowError,
)
from .functional import BoundsReport, FunctionalParams, WeightedEnergy, compute_bounds, energy
from .minimize import GammaResult, minimize_profile
from .potential import (
    PotentialConstants,
    PotentialSpec,
    compute_constants,
    decoupled_quartic,
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
from .speed import SpeedResult, find_speed, gamma_curve
from .verify import VerifyReport, run_verify

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
    "NoCrossingError",
    "PotentialConstants",
    "PotentialSpec",
    "Profile",
    "ProjectionConvergenceError",
    "ShootingDivergenceError",
    "SpeedResult",
    "TailError",
    "VerifyReport",
    "WaveSolverError",
    "WeightOverflowError",
    "WeightedEnergy",
    "compute_bounds",
    "compute_constants",
    "decoupled_quartic",
    "derivative",
    "energy",
    "find_equilibria",
    "find_speed",
    "gamma_curve",
    "minimize_profile",
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
    "write_csv",
]

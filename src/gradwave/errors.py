"""Exception types raised by the solver."""


class WaveSolverError(Exception):
    """Base class for all solver errors."""


class ContractViolationError(WaveSolverError):
    """An argument violated a documented precondition (e.g. dimension mismatch)."""


class AssumptionViolationError(WaveSolverError):
    """The potential does not satisfy the structural assumptions the solver needs."""


class DegenerateProjectionError(WaveSolverError):
    """Projection onto the zero level set hit a near-critical point of the potential."""


class ProjectionConvergenceError(WaveSolverError):
    """Projection onto the zero level set did not converge within the iteration cap."""


class NoCrossingError(WaveSolverError):
    """A profile never crosses the zero level set, so it cannot be recentered."""


class WeightOverflowError(WaveSolverError):
    """The exponential weight would overflow; use a grid with a shorter right end."""


class InfeasibleMinimizerError(WaveSolverError):
    """The converged profile violates the one-sided sign constraint beyond tolerance."""


class BracketFailureError(WaveSolverError):
    """No sign change of the minimum energy was found; carries the probe table."""

    def __init__(self, message, probes=None):
        super().__init__(message)
        self.probes = list(probes) if probes is not None else []


class NotAWaveError(WaveSolverError):
    """Requested a wave profile at a speed where the minimum energy is not zero."""


class TailError(WaveSolverError):
    """The right tail of a profile is unusable (not converged to the reference well)."""


class ShootingDivergenceError(WaveSolverError):
    """The shooting integration left the search box before tracking the profile."""


class ConfigError(WaveSolverError):
    """A run configuration file is malformed or out of range."""

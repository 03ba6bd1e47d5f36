"""Minimum energy at one speed, and root finding for the speed where it vanishes.

The minimum energy is strictly increasing in the speed, negative for small
speeds and positive for large ones, so bisection on its sign converges to
the unique root.  Bisection rather than a secant-type method because the
estimates carry optimization noise and only their signs are trusted.

``gamma_at`` computes the minimum energy at one speed; the bisection
probes and final solve of ``find_speed``, ``wave_at_speed`` and the sweep of
``gamma_curve`` all go through it.  Two robustness rules shape it and its
callers:

* it runs on a sub-range of the caller's grid sized for its own speed (left
  end at -40/c, right end at 40 over the tail decay rate), which keeps the
  exponential weight within double-precision range;
* the minimum energy is an infimum over a constraint set that does not
  depend on the speed, so ``find_speed`` takes its signs from two facts.  A
  feasible profile with negative energy proves a negative sign: at the lower
  bracket end the cold seeds (one segment profile per well) are evaluated
  before any descent runs.  A positive sign at one speed holds at every
  larger speed: a found local minimum can only overestimate the minimum, so
  only the upper end of the final bracket, if it came from a warm probe, is
  cross-checked by a cold run raced from every well (profiles seeded from
  the wrong well shed their extra fronts only logarithmically slowly, so
  seeding from each well is what makes the cold estimates reliable).  A
  cross-check that finds a negative minimum moves the lower end there and
  resumes the bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketFailureError, ContractViolationError, NotAWaveError
from .functional import FunctionalParams, WeightedEnergy, compute_bounds
from .minimize import GammaResult, MinimizeOptions, minimize_from_seeds, minimize_profile
from .potential import PotentialConstants, PotentialSpec, well_minima
from .profile import Grid, Profile, interpolate, segment_profile, translate_to_crossing

_EXPAND_FACTOR = 1.5
_MAX_EXPANSIONS = 6
# bisection probes only need trustworthy signs; the final minimizer is
# recomputed at the caller's full tolerance
_PROBE_OPT_TOL = 1e-5


@dataclass(frozen=True)
class SpeedResult:
    """Root of the minimum-energy function with its bisection history.

    Each ``bracket_history`` row is ``(c_lo, c_hi, gamma_lo, gamma_hi)``.  When
    a cold seed certifies the sign at the lower bracket end, the first row's
    ``gamma_lo`` is that seed's energy: an upper bound on the minimum energy
    there, not a minimum.
    """

    c_star: float
    gamma_at_c_star: float
    bracket_history: list
    profile: Profile
    gamma_result: GammaResult
    wave_ok: bool | None = None

    def as_dict(self) -> dict:
        return {
            "c_star": self.c_star,
            "gamma_at_c_star": self.gamma_at_c_star,
            "bracket_history": [list(b) for b in self.bracket_history],
            "wave_ok": self.wave_ok,
            "gamma_result": self.gamma_result.as_dict(),
        }

    def with_wave_ok(self, ok: bool) -> "SpeedResult":
        return replace(self, wave_ok=ok)


def gamma_zero_tol(consts: PotentialConstants, c: float) -> float:
    """Tolerance for treating an energy estimate as zero, scaled to its natural size."""
    return 5e-3 * (1.0 + consts.m / c)


def decay_rate(consts: PotentialConstants, c: float) -> float:
    """Positive root of the tail characteristic equation at speed c."""
    return 0.5 * (c + np.sqrt(c * c + 4.0 * consts.mu))


def speed_subgrid(grid: Grid, consts: PotentialConstants, c: float) -> Grid:
    """Sub-range of a grid sized for one speed: x in [-40/c, 40/decay_rate]."""
    nodes = grid.nodes
    iz = grid.index_zero
    xl = max(grid.x_left, -40.0 / c)
    xr = min(grid.x_right, 40.0 / decay_rate(consts, c))
    i_lo = int(np.searchsorted(nodes, xl, side="left"))
    i_hi = int(np.searchsorted(nodes, xr, side="right"))
    i_lo = max(0, min(i_lo, iz - 2))
    i_hi = max(i_hi, iz + 3)
    if i_lo == 0 and i_hi == nodes.size:
        return grid
    return Grid(nodes=nodes[i_lo:i_hi].copy())


def transfer_profile(profile: Profile, grid: Grid, well_b) -> Profile:
    """Resample a profile onto another grid, extending by its end values."""
    vals = interpolate(profile, grid.nodes)
    vals[-1] = np.asarray(well_b, dtype=float)
    return Profile(grid=grid, values=vals, well_b=np.asarray(well_b, dtype=float))


def seed_points(spec: PotentialSpec, consts: PotentialConstants) -> list[np.ndarray]:
    """Distinct negative-region wells to seed cold minimizations from."""
    points = [np.asarray(consts.point_a, dtype=float)]
    for q in well_minima(spec):
        if all(np.linalg.norm(q - p) > 1e-6 for p in points):
            points.append(q)
    return points


def cold_seeds(
    spec: PotentialSpec, consts: PotentialConstants, grid: Grid, c: float, wells
) -> tuple[Grid, list[Profile]]:
    """The sub-grid at c and one segment profile per point of ``wells`` on it."""
    sub = speed_subgrid(grid, consts, c)
    return sub, [segment_profile(spec, sub, p) for p in wells]


def gamma_at(
    spec: PotentialSpec,
    consts: PotentialConstants,
    grid: Grid,
    c: float,
    opts: MinimizeOptions,
    wells,
    warm_from: Profile | None = None,
    penalty_kappa: float = 1e3,
) -> GammaResult:
    """Minimum energy at c on speed_subgrid(grid, consts, c).

    Warm-started from ``warm_from`` (resampled onto the sub-grid) when given,
    else raced cold from one segment profile per point of ``wells``.
    """
    params = FunctionalParams(c=c, penalty_kappa=penalty_kappa)
    if warm_from is not None:
        sub = speed_subgrid(grid, consts, c)
        init = transfer_profile(warm_from, sub, spec.well_b)
        return minimize_profile(spec, consts, params, sub, init, opts)
    sub, seeds = cold_seeds(spec, consts, grid, c, wells)
    return minimize_from_seeds(spec, consts, params, sub, seeds, opts)


def find_speed(
    spec: PotentialSpec,
    consts: PotentialConstants,
    grid: Grid,
    opts: MinimizeOptions,
    c_tol: float,
    penalty_kappa: float = 1e3,
) -> SpeedResult:
    """Bisect the analytic bracket for the root of the minimum energy.

    The bracket endpoints come from the analytic bounds; if an endpoint has
    the wrong sign (possible on a coarse grid) the bracket is expanded
    geometrically, with a hard failure after a few expansions.  A lower end
    is negative without any descent when one of its cold seeds is feasible
    with negative energy.  Interior probes are warm-started from the nearest
    evaluated minimizer.  Once the bracket is narrower than ``c_tol``, its
    upper end is solved cold if it came from a warm probe; a negative cold
    result makes it the lower end, the next larger positive probe the upper
    end, and the bisection resumes.  The returned profile is a cold-start
    minimizer at the midpoint, living on the sub-range of the grid sized for
    that speed.
    """
    if not c_tol > 0:
        raise ContractViolationError("c_tol must be positive")

    bounds = compute_bounds(spec, consts, max(1.0, c_tol))
    c_lo, c_hi = bounds.bracket_lo, bounds.bracket_hi
    evaluated: dict[float, GammaResult] = {}
    solved_cold: set[float] = set()
    probes: list[tuple[float, float]] = []
    probe_opts = replace(opts, opt_tol=max(opts.opt_tol, _PROBE_OPT_TOL), restarts=0)
    wells = seed_points(spec, consts)

    def probe(c: float, warm_from: Profile | None) -> float:
        res = gamma_at(spec, consts, grid, c, probe_opts, wells, warm_from, penalty_kappa)
        if warm_from is None:
            solved_cold.add(c)
        evaluated[c] = res
        probes.append((c, res.gamma))
        return res.gamma

    def lower_end(c: float) -> float:
        # any feasible profile bounds the minimum from above, so a cold seed
        # with negative energy settles the sign without a descent
        sub, seeds = cold_seeds(spec, consts, grid, c, wells)
        op = WeightedEnergy(spec, FunctionalParams(c=c, penalty_kappa=penalty_kappa), sub)
        for seed in seeds:
            J, _, w = op.value(translate_to_crossing(spec, seed).values)
            if J < 0 and op.violation(w) <= probe_opts.feas_tol:
                probes.append((c, J))
                return J
        return probe(c, None)

    def nearest_profile(c: float) -> Profile | None:
        if not evaluated:
            return None
        c_near = min(evaluated, key=lambda ck: abs(ck - c))
        return evaluated[c_near].profile

    g_lo = lower_end(c_lo)
    for _ in range(_MAX_EXPANSIONS):
        if g_lo < 0:
            break
        c_lo /= _EXPAND_FACTOR
        g_lo = lower_end(c_lo)
    else:
        raise BracketFailureError(
            f"no negative minimum energy found down to c={c_lo:g}", probes=probes
        )

    g_hi = probe(c_hi, None)
    for _ in range(_MAX_EXPANSIONS):
        if g_hi > 0:
            break
        c_hi *= _EXPAND_FACTOR
        g_hi = probe(c_hi, None)
    else:
        raise BracketFailureError(
            f"no positive minimum energy found up to c={c_hi:g}", probes=probes
        )

    history = [(c_lo, c_hi, g_lo, g_hi)]
    while True:
        while c_hi - c_lo > c_tol:
            c_mid = 0.5 * (c_lo + c_hi)
            g_mid = probe(c_mid, nearest_profile(c_mid))
            if g_mid == 0.0:
                c_lo = c_hi = c_mid
                g_lo = g_hi = 0.0
                history.append((c_lo, c_hi, g_lo, g_hi))
                break
            if g_mid < 0:
                c_lo, g_lo = c_mid, g_mid
            else:
                c_hi, g_hi = c_mid, g_mid
            history.append((c_lo, c_hi, g_lo, g_hi))
        if c_hi in solved_cold:
            break
        g_cold = probe(c_hi, None)
        if g_cold >= 0.0:
            g_hi = min(g_hi, g_cold)
            history = [(a, b, ga, g_hi if b == c_hi else gb) for a, b, ga, gb in history]
            break
        c_lo, g_lo = c_hi, g_cold
        c_hi = min(c for c, r in evaluated.items() if c > c_lo and r.gamma > 0)
        g_hi = evaluated[c_hi].gamma
        history.append((c_lo, c_hi, g_lo, g_hi))

    c_star = 0.5 * (c_lo + c_hi)
    final = gamma_at(spec, consts, grid, c_star, opts, wells, None, penalty_kappa)
    return SpeedResult(
        c_star=c_star,
        gamma_at_c_star=final.gamma,
        bracket_history=history,
        profile=final.profile,
        gamma_result=final,
    )


def wave_at_speed(
    spec: PotentialSpec,
    consts: PotentialConstants,
    grid: Grid,
    c: float,
    opts: MinimizeOptions,
    penalty_kappa: float = 1e3,
) -> Profile:
    """Minimizer profile at a speed where the minimum energy vanishes.

    Raises NotAWaveError when the converged minimum energy is not zero
    within tolerance; run find_speed first to locate the root speed.
    """
    res = gamma_at(spec, consts, grid, c, opts, seed_points(spec, consts),
                   penalty_kappa=penalty_kappa)
    tol = gamma_zero_tol(consts, c)
    if abs(res.gamma) > tol:
        raise NotAWaveError(
            f"minimum energy {res.gamma:.4g} at c={c:g} is not zero within {tol:.2g}; "
            "run find_speed to locate the root speed first"
        )
    return res.profile


def gamma_curve(
    spec: PotentialSpec,
    consts: PotentialConstants,
    grid: Grid,
    c_list,
    opts: MinimizeOptions,
    penalty_kappa: float = 1e3,
) -> list[GammaResult]:
    """Minimum energy along an increasing list of speeds.

    The first speed is solved cold from every well; each later one is
    warm-started from the previous minimizer without restarts, which is
    what makes the sweep fast.  Each result lives on its speed's sub-grid.
    """
    c_arr = [float(c) for c in c_list]
    if len(c_arr) == 0:
        raise ContractViolationError("c_list must not be empty")
    if any(c <= 0 for c in c_arr):
        raise ContractViolationError("all speeds must be positive")
    if any(b <= a for a, b in zip(c_arr, c_arr[1:])):
        raise ContractViolationError("c_list must be strictly increasing")

    wells = seed_points(spec, consts)
    warm_opts = replace(opts, restarts=0)
    results = [gamma_at(spec, consts, grid, c_arr[0], opts, wells, penalty_kappa=penalty_kappa)]
    for c in c_arr[1:]:
        results.append(gamma_at(spec, consts, grid, c, warm_opts, wells,
                                results[-1].profile, penalty_kappa))
    return results

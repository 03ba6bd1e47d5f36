"""Minimum energy at one speed, and root finding for the speed where it vanishes.

The minimum energy is strictly increasing in the speed, negative for small
speeds and positive for large ones, so bisection on its sign converges to
the unique root.  Bisection rather than a secant-type method because the
estimates carry optimization noise and only their signs are trusted.

``find_speed`` and ``gamma_curve`` each run one ``Probes`` engine, which
owns how every minimum-energy solve starts: warm from the minimizer at a
solved speed, or raced cold from one segment profile per well, built once
on the whole grid because the segment's crossing of the zero set does not
depend on the speed.  Either start is resampled onto the solve's sub-grid
with ``transfer_profile``.  The minimizer at one known speed c is
``gamma_curve(spec, consts, grid, [c], opts)[0]``, a cold solve.  Two
robustness rules shape the solves and their callers:

* each solve runs on a sub-range of the caller's grid sized for its speed
  by ``auto_grid_bounds``: the left end where the energy the cut drops,
  at most m e^{c x_L} / c, is 1e-10, and the right end at 40 over the tail
  decay rate.  Both keep the exponential weight within double-precision
  range;
* the minimum energy is an infimum over a constraint set that does not
  depend on the speed, so ``find_speed`` takes its signs from two facts.  A
  feasible profile with negative energy proves a negative sign: before any
  descent, the cold seeds (one segment profile per well) are evaluated at
  the lower bracket end, and at each bisection probe its warm start.  A
  descent from that start would only lower its energy, so such a
  certificate can correct a sign but never flip a right one.  A positive
  sign at one speed holds at every larger speed: a found local minimum can
  only overestimate the minimum, so only the upper end of the final
  bracket, if it came from a warm probe, is cross-checked by a cold run
  raced from every well (profiles seeded from the wrong well shed their
  extra fronts only logarithmically slowly, so seeding from each well is
  what makes the cold estimates reliable).  A cross-check that finds a
  negative minimum moves the lower end there and resumes the bisection.

So once the bisection ends, the upper end of the bracket has a cold
minimizer, within c_tol / 2 of the midpoint c*.  The final solve at c*
starts from it, not from a new race; no sign depends on that solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BracketFailureError, ContractViolationError
from .functional import FunctionalParams, WeightedEnergy, compute_bounds, decay_rate
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

    Each ``bracket_history`` row is ``(c_lo, c_hi, gamma_lo, gamma_hi)``.  Any
    ``gamma_lo`` may be the energy of a start that certified the sign without
    a descent (a cold seed at the lower bracket end, a warm start inside the
    bracket): an upper bound on the minimum energy there, not a minimum.
    The energy and the profile at ``c_star`` are those of ``gamma_result``.
    """

    c_star: float
    bracket_history: list
    gamma_result: GammaResult

    @property
    def gamma_at_c_star(self) -> float:
        return self.gamma_result.gamma

    @property
    def profile(self) -> Profile:
        return self.gamma_result.profile

    def as_dict(self) -> dict:
        return {
            "c_star": self.c_star,
            "gamma_at_c_star": self.gamma_at_c_star,
            "bracket_history": [list(b) for b in self.bracket_history],
            "gamma_result": self.gamma_result.as_dict(),
        }


# energy that truncating the line at the left end of a grid may drop
TRUNCATION_EPS = 1e-10


def auto_grid_bounds(consts: PotentialConstants, c: float) -> tuple:
    """Truncation for speeds from c up: left end sized by the energy it drops.

    Left of the front a profile sits at a well, where W >= -m, so cutting
    the line at x_L changes the minimum energy by at most m e^{c x_L} / c.
    The left end is where that bound equals eps = ``TRUNCATION_EPS``,
    x_L = -ln(m / (c eps)) / c, but no nearer to 0 than one weight length
    1/c, which on a well shallower than m = e c eps drops less than eps.
    It increases with c, so the range for a larger speed lies inside that
    for c.  The shift moves c* by about eps / gamma'(c*), far below the
    O(h^2) discretization error.

    The right end stays at 40 tail decay lengths.  The decay fit of
    ``verify`` reads its noise floor from the far quarter of the right
    half, which holds only while the tail there is at roundoff,
    A e^{-0.75 lambda x_R} <~ 1e-13, so x_R >~ 39 / lambda; on a shorter
    range the "floor" would be the tail itself.
    """
    k = max(float(np.log(consts.m / (c * TRUNCATION_EPS))), 1.0)
    return -k / c, 40.0 / decay_rate(consts, c)


def speed_subgrid(grid: Grid, consts: PotentialConstants, c: float) -> Grid:
    """Sub-range of a grid sized for one speed by ``auto_grid_bounds``."""
    nodes = grid.nodes
    iz = grid.index_zero
    lo, hi = auto_grid_bounds(consts, c)
    xl = max(grid.x_left, lo)
    xr = min(grid.x_right, hi)
    i_lo = int(np.searchsorted(nodes, xl, side="left"))
    i_hi = int(np.searchsorted(nodes, xr, side="right"))
    i_lo = max(0, min(i_lo, iz - 2))
    i_hi = max(i_hi, iz + 3)
    if i_lo == 0 and i_hi == nodes.size:
        return grid
    return Grid(nodes=nodes[i_lo:i_hi].copy())


def transfer_profile(profile: Profile, grid: Grid) -> Profile:
    """Resample a profile onto another grid, extending by its end values.

    At a node of the profile's own grid the resampled value is the stored
    one bit for bit, so on a sub-range of that grid this is a slice of the
    profile pinned to the well at its right end.
    """
    vals = interpolate(profile, grid.nodes)
    vals[-1] = profile.well_b
    return Profile(grid=grid, values=vals, well_b=profile.well_b)


def seed_points(spec: PotentialSpec, consts: PotentialConstants) -> list[np.ndarray]:
    """Distinct negative-region wells to seed cold minimizations from."""
    points = [np.asarray(consts.point_a, dtype=float)]
    for q in well_minima(spec, consts.equilibria):
        if all(np.linalg.norm(q - p) > 1e-6 for p in points):
            points.append(q)
    return points


class Probes:
    """Minimum-energy solves of one run on one grid, and what they found.

    ``seeds`` holds one segment profile per seed well on the whole grid;
    resampled onto a sub-grid it equals the segment profile built there bit
    for bit.  ``results`` maps each solved speed to its result, ``cold``
    holds the speeds solved cold, and ``table`` lists every ``(c, gamma)``
    in order, bounds included.
    """

    def __init__(self, spec: PotentialSpec, consts: PotentialConstants, grid: Grid,
                 opts: MinimizeOptions):
        self.spec, self.consts, self.grid, self.opts = spec, consts, grid, opts
        self.seeds = [segment_profile(spec, grid, p) for p in seed_points(spec, consts)]
        self.results: dict[float, GammaResult] = {}
        self.cold: set[float] = set()
        self.table: list[tuple[float, float]] = []

    def solve(self, c: float, start: float | None = None,
              opts: MinimizeOptions | None = None) -> GammaResult:
        """Minimum energy at c on speed_subgrid(grid, consts, c).

        Warm-started from the minimizer found at the solved speed ``start``,
        else raced cold from every seed; either start is resampled onto the
        sub-grid with ``transfer_profile``.
        """
        opts = self.opts if opts is None else opts
        params = FunctionalParams(c=c)
        sub = speed_subgrid(self.grid, self.consts, c)
        if start is not None:
            init = transfer_profile(self.results[start].profile, sub)
            res = minimize_profile(self.spec, self.consts, params, sub, init, opts)
        else:
            inits = [transfer_profile(seed, sub) for seed in self.seeds]
            res = minimize_from_seeds(self.spec, self.consts, params, sub, inits, opts)
            self.cold.add(c)
        self.results[c] = res
        self.table.append((c, res.gamma))
        return res

    def nearest(self, c: float) -> float | None:
        """The solved speed closest to c, or None before the first solve."""
        return min(self.results, key=lambda ck: abs(ck - c), default=None)

    def bound(self, c: float, start: float | None = None) -> float | None:
        """Energy at c of the first feasible start with negative energy, or None.

        The starts are the minimizer at the solved speed ``start``, else the
        seeds, each resampled onto the sub-grid and recentred as a descent
        would start from it.  Any feasible profile bounds the minimum energy
        from above, so such a start settles a negative sign without a
        descent.  A bound is recorded in ``table`` only, never as a result.
        """
        sub = speed_subgrid(self.grid, self.consts, c)
        op = WeightedEnergy(self.spec, FunctionalParams(c=c), sub)
        inits = self.seeds if start is None else [self.results[start].profile]
        for init in inits:
            u = translate_to_crossing(self.spec, transfer_profile(init, sub)).values
            J, _, w = op.value(u)
            if J < 0 and op.violation(w) <= self.opts.feas_tol:
                self.table.append((c, J))
                return J
        return None


def find_speed(
    spec: PotentialSpec,
    consts: PotentialConstants,
    grid: Grid,
    opts: MinimizeOptions,
    c_tol: float,
) -> SpeedResult:
    """Bisect the analytic bracket for the root of the minimum energy.

    The bracket endpoints come from the analytic bounds; if an endpoint has
    the wrong sign (possible on a coarse grid) the bracket is expanded
    geometrically, with a hard failure after a few expansions.  Interior
    probes are warm-started from the minimizer at the nearest solved speed.
    A lower end or an interior probe is negative without any descent when
    its start (the cold seeds, or the warm start) is feasible with negative
    energy (``Probes.bound``).  Once the bracket is narrower than ``c_tol``,
    its upper end is solved cold if it came from a warm probe; a negative
    cold result makes it the lower end, the next larger positive probe the
    upper end, and the bisection resumes.
    The returned profile is the minimizer at the midpoint, started from the
    cold minimizer at the final upper end and living on the sub-range of the
    grid sized for that speed.
    """
    if not c_tol > 0:
        raise ContractViolationError("c_tol must be positive")

    # the bracket does not depend on the speed the bounds are taken at
    bounds = compute_bounds(spec, consts, 1.0)
    c_lo, c_hi = bounds.bracket_lo, bounds.bracket_hi
    run = Probes(spec, consts, grid, replace(opts, opt_tol=max(opts.opt_tol, _PROBE_OPT_TOL)))

    # a bound is negative whenever it is not None
    g_lo = run.bound(c_lo) or run.solve(c_lo).gamma
    for _ in range(_MAX_EXPANSIONS):
        if g_lo < 0:
            break
        c_lo /= _EXPAND_FACTOR
        g_lo = run.bound(c_lo) or run.solve(c_lo).gamma
    if not g_lo < 0:
        raise BracketFailureError(
            f"no negative minimum energy found down to c={c_lo:g}", probes=run.table
        )

    g_hi = run.solve(c_hi).gamma
    for _ in range(_MAX_EXPANSIONS):
        if g_hi > 0:
            break
        c_hi *= _EXPAND_FACTOR
        g_hi = run.solve(c_hi).gamma
    if not g_hi > 0:
        raise BracketFailureError(
            f"no positive minimum energy found up to c={c_hi:g}", probes=run.table
        )

    history = [(c_lo, c_hi, g_lo, g_hi)]
    while True:
        while c_hi - c_lo > c_tol:
            c_mid = 0.5 * (c_lo + c_hi)
            near = run.nearest(c_mid)
            g_mid = run.bound(c_mid, near) or run.solve(c_mid, near).gamma
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
        if c_hi in run.cold:
            break
        g_cold = run.solve(c_hi).gamma
        if g_cold >= 0.0:
            g_hi = min(g_hi, g_cold)
            history = [(a, b, ga, g_hi if b == c_hi else gb) for a, b, ga, gb in history]
            break
        c_lo, g_lo = c_hi, g_cold
        c_hi = min(c for c, r in run.results.items() if c > c_lo and r.gamma > 0)
        g_hi = run.results[c_hi].gamma
        history.append((c_lo, c_hi, g_lo, g_hi))

    # c_hi is now solved cold and lies within c_tol / 2 of c_star: its
    # minimizer starts the final solve, and no sign depends on that solve;
    # c_hi is named because the midpoint is equally near both ends
    c_star = 0.5 * (c_lo + c_hi)
    final = run.solve(c_star, c_hi, opts)
    return SpeedResult(c_star=c_star, bracket_history=history, gamma_result=final)


def gamma_curve(
    spec: PotentialSpec,
    consts: PotentialConstants,
    grid: Grid,
    c_list,
    opts: MinimizeOptions,
) -> list[GammaResult]:
    """Minimum energy along an increasing list of speeds.

    The first speed is solved cold from every well; each later one is
    warm-started from the previous minimizer, which is what makes the sweep
    fast.  Each result lives on its speed's sub-grid.
    """
    c_arr = [float(c) for c in c_list]
    if len(c_arr) == 0:
        raise ContractViolationError("c_list must not be empty")
    if any(c <= 0 for c in c_arr):
        raise ContractViolationError("all speeds must be positive")
    if any(b <= a for a, b in zip(c_arr, c_arr[1:])):
        raise ContractViolationError("c_list must be strictly increasing")

    # on an increasing list the nearest solved speed is the previous one
    run = Probes(spec, consts, grid, opts)
    return [run.solve(c, run.nearest(c)) for c in c_arr]

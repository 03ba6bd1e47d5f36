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
``gamma_curve(spec, consts, grid, [c])[0]``, a cold solve.  Two
robustness rules shape the solves and their callers:

* each solve runs on a sub-range of the caller's grid sized for its speed.
  The right end is at 40 over the tail decay rate.  The grid's own left
  end, from ``auto_grid_bounds``, drops at most 1e-10 of the energy.  When
  the deepest well is the only negative equilibrium, a solve first ends
  nearer, at ``front_left_end``, where the front has decayed, since the
  weighted energy adds the energy of the profile's constant extension left
  of its first node in closed form.  That end is an estimate, so every
  such minimizer is checked with ``tail_excess``, and one that fails is
  solved again on the grid's own end.  All ends keep the exponential
  weight within double-precision range;
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

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailureError, ContractViolationError
from .functional import FunctionalParams, WeightedEnergy, compute_bounds, decay_rate
from .minimize import (FEAS_TOL, OPT_TOL, GammaResult, check_positive, minimize_from_seeds,
                       minimize_profile)
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

    Left of the front a profile sits at a well, where -m <= W <= 0, so the
    energy's constant tail left of a cut at x_L differs from what the
    profile holds there by at most m e^{c x_L} / c.  The left end is where
    that bound equals eps = ``TRUNCATION_EPS``, x_L = -ln(m / (c eps)) / c,
    but no nearer to 0 than one weight length 1/c, which on a well shallower
    than m = e c eps drops less than eps.  It increases with c, so the range
    for a larger speed lies inside that for c.  The shift moves c* by about
    eps / gamma'(c*), far below the O(h^2) discretization error.  This is
    the end of the grids the CLI and the tests build, and so the end every
    solve can go back to when ``front_left_end`` is too near.

    The right end stays at 40 tail decay lengths.  The decay fit of
    ``verify`` reads its noise floor from the far quarter of the right
    half, which holds only while the tail there is at roundoff,
    A e^{-0.75 lambda x_R} <~ 1e-13, so x_R >~ 39 / lambda; on a shorter
    range the "floor" would be the tail itself.
    """
    k = max(float(np.log(consts.m / (c * TRUNCATION_EPS))), 1.0)
    return -k / c, 40.0 / decay_rate(consts, c)


def front_left_end(consts: PotentialConstants, c: float) -> float:
    """Left end for one speed's first solve, where the front has decayed.

    The weighted energy counts a profile's constant extension left of its
    first node in closed form, so a cut drops only what the profile left of
    it holds beyond that constant.  A tail that approaches the deepest well
    from at most the box diameter D away at x = 0, no slower than e^{r x}
    with c + 2 r = sqrt(c^2 + 4 mu_a), holds less than eps left of

        x_dec = -ln(mu_a D^2 / (2 c eps)) / sqrt(c^2 + 4 mu_a).

    The envelope is anchored at x = 0, but a front can sit well left of 0
    (on ``scalar_cubic(alpha)`` the wave is tanh(x + x0), with x0 -> inf as
    alpha -> 2), so x_dec is only a first try that ``Probes.solve`` checks
    with ``tail_excess``.  The end is x_dec, never left of the end of
    ``auto_grid_bounds`` nor nearer to 0 than 1/c, and increases with c.
    """
    rate = math.sqrt(c * c + 4.0 * consts.mu_a)
    x_dec = -math.log(consts.mu_a * consts.diameter ** 2 / (2.0 * c * TRUNCATION_EPS)) / rate
    return min(max(auto_grid_bounds(consts, c)[0], x_dec), -1.0 / c)


def tail_excess(spec: PotentialSpec, consts: PotentialConstants, c: float,
                profile: Profile) -> float:
    """How much the energy's constant tail can exceed a profile's best one.

    Left of the first node x_0 the energy counts the constant u_0, which
    holds e^{c x_0} W(u_0) / c; as W >= -m, any other continuation holds at
    least -m e^{c x_0} / c.  So a minimizer on a grid cut at x_0 is at most
    e^{c x_0} (W(u_0) + m) / c above the best profile that agrees with it
    right of x_0: the estimate of what the cut adds to the minimum energy.
    """
    w0 = float(spec.value(profile.values[0]))
    return math.exp(c * profile.grid.x_left) * (w0 + consts.m) / c


def speed_subgrid(grid: Grid, consts: PotentialConstants, c: float,
                  front: bool = False) -> Grid:
    """Sub-range of a grid sized for one speed by ``auto_grid_bounds``.

    With ``front`` the left end is ``front_left_end`` instead.
    """
    nodes = grid.nodes
    iz = grid.index_zero
    lo, hi = auto_grid_bounds(consts, c)
    if front:
        lo = front_left_end(consts, c)
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
    in order, bounds included.  ``front`` says whether solves start on the
    sub-grid cut at ``front_left_end``: only when the deepest well is the
    only negative equilibrium (a left tail could stop at another) and is
    not flat.
    """

    def __init__(self, spec: PotentialSpec, consts: PotentialConstants, grid: Grid,
                 opt_tol: float):
        self.spec, self.consts, self.grid, self.opt_tol = spec, consts, grid, opt_tol
        self.seeds = [segment_profile(spec, grid, p) for p in seed_points(spec, consts)]
        self.results: dict[float, GammaResult] = {}
        self.cold: set[float] = set()
        self.table: list[tuple[float, float]] = []
        self.front = len(consts.equilibria) == 1 and consts.mu_a > 0

    def solve(self, c: float, start: float | None = None,
              opt_tol: float | None = None) -> GammaResult:
        """Minimum energy at c on speed_subgrid(grid, consts, c, front).

        Warm-started from the minimizer found at the solved speed ``start``,
        else raced cold from every seed; either start is resampled onto the
        sub-grid with ``transfer_profile``.  ``opt_tol`` defaults to the run's.
        A minimizer on the ``front`` sub-grid whose ``tail_excess`` is above
        ``TRUNCATION_EPS`` is discarded, and the solve runs again from the
        same start on speed_subgrid(grid, consts, c), which ends where the
        grid does.  A warm start that reaches left of the ``front``
        sub-grid and already fails that check on it goes there directly.
        """
        opt_tol = self.opt_tol if opt_tol is None else opt_tol
        params = FunctionalParams(c=c)
        subs = [speed_subgrid(self.grid, self.consts, c)]
        if self.front:
            near = speed_subgrid(self.grid, self.consts, c, front=True)
            if near.n_nodes < subs[0].n_nodes and not self._fails_near(c, start, near):
                subs.insert(0, near)
        for sub in subs:
            if start is not None:
                init = transfer_profile(self.results[start].profile, sub)
                res = minimize_profile(self.spec, self.consts, params, sub, init, opt_tol)
            else:
                inits = [transfer_profile(seed, sub) for seed in self.seeds]
                res = minimize_from_seeds(self.spec, self.consts, params, sub, inits, opt_tol)
            if sub is subs[-1] or tail_excess(self.spec, self.consts, c, res.profile) <= TRUNCATION_EPS:
                break
        if start is None:
            self.cold.add(c)
        self.results[c] = res
        self.table.append((c, res.gamma))
        return res

    def _fails_near(self, c: float, start: float | None, near: Grid) -> bool:
        """Whether the minimizer at ``start`` reaches left of ``near`` and fails ``tail_excess`` on it."""
        if start is None or self.results[start].profile.grid.x_left > near.x_left:
            return False
        init = transfer_profile(self.results[start].profile, near)
        return tail_excess(self.spec, self.consts, c, init) > TRUNCATION_EPS

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
        sub = speed_subgrid(self.grid, self.consts, c, self.front)
        op = WeightedEnergy(self.spec, FunctionalParams(c=c), sub)
        inits = self.seeds if start is None else [self.results[start].profile]
        for init in inits:
            u = translate_to_crossing(self.spec, transfer_profile(init, sub)).values
            J, _, w = op.value(u)
            if J < 0 and op.violation(w) <= FEAS_TOL:
                self.table.append((c, J))
                return J
        return None


def find_speed(
    spec: PotentialSpec,
    consts: PotentialConstants,
    grid: Grid,
    *,
    c_tol: float,
    opt_tol: float = OPT_TOL,
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
    check_positive(c_tol=c_tol, opt_tol=opt_tol)

    # the bracket does not depend on the speed the bounds are taken at
    bounds = compute_bounds(spec, consts, 1.0)
    c_lo, c_hi = bounds.bracket_lo, bounds.bracket_hi
    run = Probes(spec, consts, grid, max(opt_tol, _PROBE_OPT_TOL))

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
    final = run.solve(c_star, c_hi, opt_tol)
    return SpeedResult(c_star=c_star, bracket_history=history, gamma_result=final)


def gamma_curve(
    spec: PotentialSpec,
    consts: PotentialConstants,
    grid: Grid,
    c_list,
    *,
    opt_tol: float = OPT_TOL,
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
    check_positive(opt_tol=opt_tol)

    # on an increasing list the nearest solved speed is the previous one
    run = Probes(spec, consts, grid, opt_tol)
    return [run.solve(c, run.nearest(c)) for c in c_arr]

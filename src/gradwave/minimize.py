"""Constrained minimization of the weighted energy over profiles.

The minimizer runs projected gradient descent with Armijo backtracking.
Steps are taken along the Riesz representative of the discrete gradient in
the weighted H^1 inner product (a tridiagonal solve per step); this is still
a memoryless gradient method, but its convergence rate does not degrade as
the grid is refined, which a raw Euclidean gradient step cannot offer.  The
node pinned at 0 is re-projected onto the zero level set after every step,
and the profile is recentered if the constraint crossing drifts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import ContractViolationError, InfeasibleMinimizerError, WaveSolverError
from .functional import BoundsReport, FunctionalParams, WeightedEnergy, compute_bounds
from .potential import PotentialConstants, PotentialSpec, project_to_zero_set
from .profile import Grid, Profile, translate_to_crossing

# Nothing here calls these two: perfbench/layertrace.py wraps them by name until
# the next benchmark change points it at the dpttrs solve (ROADMAP item 1).
from scipy.linalg import cho_solve_banded  # noqa: F401
from .functional import cell_weights  # noqa: F401


@dataclass(frozen=True)
class MinimizeOptions:
    """Stopping tolerances and line-search constants for the descent loop."""

    opt_tol: float = 1e-8
    max_iters: int = 200_000
    armijo_c1: float = 1e-4
    armijo_shrink: float = 0.5
    restarts: int = 3
    seed: int = 0
    feas_tol: float = 1e-8

    def __post_init__(self):
        if not (self.opt_tol > 0 and self.max_iters > 0):
            raise ContractViolationError("opt_tol and max_iters must be positive")
        if not (0 < self.armijo_c1 < 1 and 0 < self.armijo_shrink < 1):
            raise ContractViolationError("Armijo constants must lie in (0, 1)")


@dataclass(frozen=True)
class GammaResult:
    """Minimum-energy estimate at one speed, with the minimizing profile."""

    c: float
    gamma: float
    profile: Profile
    grad_norm: float
    feasibility_violation: float
    iterations: int
    bounds: BoundsReport
    converged: bool
    multistart_spread: float = 0.0
    multistart_warning: bool = False

    def as_dict(self) -> dict:
        return {
            "c": self.c,
            "gamma": self.gamma,
            "grad_norm": self.grad_norm,
            "feasibility_violation": self.feasibility_violation,
            "iterations": self.iterations,
            "converged": self.converged,
            "multistart_spread": self.multistart_spread,
            "multistart_warning": self.multistart_warning,
            "bounds": self.bounds.as_dict(),
        }


# drift of the sign constraint beyond this triggers a recentering pass
_RETRANSLATE_TRIGGER = 1e-3
_STEP_CAP = 8.0
# below this displacement norm a line-search stall counts as converged: the
# remaining energy decrement is under the double-precision resolution of the
# objective, so no value-based search can resolve it
_FLOOR_PG_CAP = 1e-5
_PLATEAU_SPAN = 60
_PLATEAU_F_GAIN = 3e-11


def _factor_preconditioner(op: WeightedEnergy, sigma: float):
    """LDL^T factor of the tridiagonal weighted H^1 operator, right node removed."""
    stiff = op.stiff[:, 0]
    lump = op.lump[:, 0]
    # free nodes are 0..N-2; cell k couples nodes k and k+1, and the last cell
    # couples node N-2 to the fixed right node, adding only to the diagonal
    diag = sigma * lump[:-1] + stiff
    diag[1:] += stiff[:-1]
    d, e, info = dpttrf(diag, -stiff[:-1])
    if info != 0:
        raise WaveSolverError(f"preconditioner is not positive definite (dpttrf info {info})")
    return d, e


def _tangential(v, normal):
    nrm = np.sqrt(normal @ normal)
    if nrm < 1e-12:
        return v
    nhat = normal / nrm
    return v - (v @ nhat) * nhat


def _descent(spec, params, grid, values0, opts):
    """One descent run from a given admissible starting array.

    Returns the final node values, energy, feasibility violation,
    displacement norm, iteration count and convergence flag.  Exits converged
    when the displacement norm meets opt_tol, or when the line search can no
    longer resolve a decrease in double precision while the displacement norm
    is already far below any physical scale.
    """
    op = WeightedEnergy(spec, params, grid)
    iz = grid.index_zero
    mu_b = float(np.linalg.eigvalsh(spec.hessian(spec.well_b))[0])
    d_fac, e_fac = _factor_preconditioner(op, sigma=1.0 + mu_b)
    well = np.asarray(spec.well_b, dtype=float)
    lo, hi = spec.bounding_box[:, 0], spec.bounding_box[:, 1]

    u = values0.copy()
    J, P, w = op.value(u)
    F = J + P
    t = 1.0
    last_backtracks = 0
    pg_norm = np.inf
    iterations = 0
    converged = False
    plateau_best = np.inf
    plateau_mark = 0
    plateau_F = F

    for iterations in range(1, opts.max_iters + 1):
        g, dw = op.grad(u, w)
        nu0 = dw[iz]
        g[iz] = _tangential(g[iz], nu0)

        d = np.empty_like(u)
        d[:-1] = dpttrs(d_fac, e_fac, g[:-1])[0]
        d[-1] = 0.0
        d[iz] = _tangential(d[iz], nu0)

        pg_norm = float(np.sqrt(np.vdot(op.lump * d, d)))
        if pg_norm <= opts.opt_tol:
            converged = True
            break

        # plateau detector: the objective resolution floor is hit only when
        # neither the displacement norm nor the objective makes progress
        if pg_norm < 0.99 * plateau_best or plateau_F - F > _PLATEAU_F_GAIN * (1.0 + abs(F)):
            plateau_best = min(plateau_best, pg_norm)
            plateau_mark = iterations
            plateau_F = F
        elif iterations - plateau_mark >= _PLATEAU_SPAN:
            converged = pg_norm <= _FLOOR_PG_CAP
            break

        slope = float(np.vdot(g, d))
        if slope <= 0.0:
            d = g / (1.0 + op.lump)
            slope = float(np.vdot(g, d))
            if slope <= 0.0:
                converged = pg_norm <= _FLOOR_PG_CAP
                break

        accepted = False
        n_back = 0
        t = min(t * 1.25, _STEP_CAP) if last_backtracks <= 1 else t
        while t > 1e-13:
            trial = u - t * d
            trial[-1] = well
            try:
                q = trial[iz]
                if abs(float(spec.value(q))) > 1e-10:
                    trial[iz] = project_to_zero_set(spec, np.clip(q, lo, hi))
            except WaveSolverError:
                t *= opts.armijo_shrink
                n_back += 1
                continue
            J_t, P_t, w_t = op.value(trial)
            if J_t + P_t <= F - opts.armijo_c1 * t * slope:
                u, J, P, w, F = trial, J_t, P_t, w_t, J_t + P_t
                accepted = True
                break
            t *= opts.armijo_shrink
            n_back += 1
        last_backtracks = n_back
        if not accepted:
            converged = pg_norm <= _FLOOR_PG_CAP
            break

        if op.violation(w) > _RETRANSLATE_TRIGGER:
            prof = translate_to_crossing(spec, Profile(grid=grid, values=u, well_b=well))
            u = prof.values.copy()
            J, P, w = op.value(u)
            F = J + P

    return u, J, op.violation(w), pg_norm, iterations, converged


def _perturbed(rng, grid, values, well_b, scale):
    """Smooth random perturbation concentrated around the transition at 0.

    The envelope decays away from 0 so that no remnant is left in the far
    tails, where the exponential weight is too small for the descent to
    erase anything.
    """
    x = grid.nodes
    L = x[-1] - x[0]
    s = (x - x[0]) / L
    width = min(10.0, 0.2 * L)
    envelope = np.exp(-((x / width) ** 2))
    pert = np.zeros_like(values)
    for k in range(1, 4):
        amp = scale / k
        for j in range(values.shape[1]):
            pert[:, j] += amp * (
                rng.normal() * np.sin(np.pi * k * s) + rng.normal() * np.cos(np.pi * k * s)
            )
    out = values + envelope[:, None] * pert
    out[-1] = well_b
    return out


def minimize_profile(
    spec: PotentialSpec,
    consts: PotentialConstants,
    params: FunctionalParams,
    grid: Grid,
    init: Profile,
    opts: MinimizeOptions,
) -> GammaResult:
    """Minimize the weighted energy from a starting profile.

    Runs the descent from the recentered start plus ``opts.restarts``
    randomized perturbations of it, and keeps the best feasible minimizer.
    The reported gamma excludes the penalty term.
    """
    base = translate_to_crossing(spec, init)
    rng = np.random.default_rng(opts.seed)
    scale = 0.05 * float(np.linalg.norm(np.asarray(spec.well_b) - consts.point_a))

    starts = [base.values]
    for _ in range(max(0, opts.restarts)):
        pert = _perturbed(rng, grid, base.values, base.well_b, scale)
        try:
            prof = translate_to_crossing(spec, Profile(grid=grid, values=pert, well_b=base.well_b))
        except WaveSolverError:
            continue
        starts.append(prof.values)

    runs = []
    total_iters = 0
    for v0 in starts:
        u, J, viol, pg, iters, conv = _descent(spec, params, grid, v0, opts)
        total_iters += iters
        runs.append((J, viol, u, pg, conv))

    feasible = [r for r in runs if r[1] <= opts.feas_tol]
    pool = feasible if feasible else runs
    best = min(pool, key=lambda r: r[0])
    # prefer the unperturbed run unless a restart wins by a meaningful margin
    base_run = runs[0]
    if any(base_run is r for r in pool) and base_run[0] <= best[0] + 1e-9 * (1.0 + abs(best[0])):
        best = base_run
    gammas = [r[0] for r in runs if r[1] <= opts.feas_tol] or [best[0]]
    spread = float(max(gammas) - min(gammas))

    J_best, viol, u_best, pg, conv = best
    if viol > opts.feas_tol:
        raise InfeasibleMinimizerError(
            f"feasibility violation {viol:.3g} exceeds tolerance {opts.feas_tol:g} at c={params.c}"
        )
    profile = Profile(grid=grid, values=u_best, well_b=np.asarray(spec.well_b, dtype=float))
    return GammaResult(
        c=params.c,
        gamma=float(J_best),
        profile=profile,
        grad_norm=pg,
        feasibility_violation=viol,
        iterations=total_iters,
        bounds=compute_bounds(spec, consts, params.c),
        converged=conv,
        multistart_spread=spread,
        multistart_warning=spread > 1e-4,
    )


def minimize_from_seeds(
    spec: PotentialSpec,
    consts: PotentialConstants,
    params: FunctionalParams,
    grid: Grid,
    seeds,
    opts: MinimizeOptions,
    budget: int = 400,
) -> GammaResult:
    """Race several starting profiles, then fully minimize the best one.

    Each seed runs a budgeted descent; the seed with the lowest feasible
    objective continues to full convergence.  Racing from several wells
    avoids the slow escape of energy-carrying structure that a single seed
    may contain.  The reported iterations include the race budgets spent.
    """
    seeds = list(seeds)
    if not seeds:
        raise ContractViolationError("need at least one seed profile")
    if len(seeds) == 1:
        return minimize_profile(spec, consts, params, grid, seeds[0], opts)

    budget_opts = replace(opts, max_iters=budget, restarts=0)
    scored = []
    race_iters = 0
    for init in seeds:
        base = translate_to_crossing(spec, init)
        u, J, viol, pg, iters, conv = _descent(spec, params, grid, base.values, budget_opts)
        race_iters += iters
        penalty_rank = 0.0 if viol <= opts.feas_tol else 1e6 + viol
        scored.append((J + penalty_rank, u))
    _, u_best = min(scored, key=lambda s: s[0])
    winner = Profile(grid=grid, values=u_best, well_b=np.asarray(spec.well_b, dtype=float))
    res = minimize_profile(spec, consts, params, grid, winner, opts)
    return replace(res, iterations=res.iterations + race_iters)


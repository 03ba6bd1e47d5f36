"""Constrained minimization of the weighted energy over profiles.

The minimizer is a projected Newton method with Armijo backtracking from
the full step.  The Hessian of the discrete energy is block tridiagonal, so
flattened node by node it is a band matrix of half-bandwidth 2 dim - 1, and
a step costs one band Cholesky factorisation and solve.  The factorisation
calls LAPACK ``dpbtrf`` bare: it is the routine
``scipy.linalg.cholesky_banded`` wraps, so the factors are the same bits,
without the wrapper's per-call checks; only the finiteness check is kept,
once per step.  At the node pinned at 0 the Hessian of the Lagrangian is
restricted to the tangent space of the zero level set; after every step
that node is projected back onto the level set, and the profile is
recentered if the constraint crossing drifts.  Where the Hessian is
indefinite, as it can be far from a minimizer, it is shifted by a growing
multiple of the lumped mass until the factorisation succeeds.  Convergence
is judged by the norm of the gradient's Riesz representative in the
weighted H^1 inner product (a tridiagonal solve), which does not degrade
as the grid is refined.  A race between seeds gives each a few Newton steps
and minimizes only the best.

This is the only module that uses scipy, and it imports ``scipy.linalg``
inside the routines that call LAPACK, so the library loads at the first
descent: analysing a potential, computing bounds and verifying a profile
never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError, InfeasibleMinimizerError, WaveSolverError
from .functional import BoundsReport, FunctionalParams, WeightedEnergy, compute_bounds
from .potential import PotentialConstants, PotentialSpec, project_to_zero_set
from .profile import Grid, Profile, translate_to_crossing

# Nothing here calls this: perfbench/layertrace.py wraps it by name.
from .functional import cell_weights  # noqa: F401


# solver settings no caller varies: the weight of the quadratic penalty on the
# sign constraint, the violation of it a minimizer may keep, a descent's step cap
PENALTY_KAPPA = 1e3
FEAS_TOL = 1e-8
MAX_ITERS = 200_000
# the default stopping tolerance, the one solver setting a caller chooses
OPT_TOL = 1e-8


def check_positive(**values: float) -> None:
    """Raise ContractViolationError naming the first value that is not positive, NaN included."""
    for name, value in values.items():
        if not value > 0:
            raise ContractViolationError(f"{name} must be positive, got {value}")


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
    # not a field: read by perfbench/layertrace.py until the next benchmark change
    multistart_warning = False

    def as_dict(self) -> dict:
        return {
            "c": self.c,
            "gamma": self.gamma,
            "grad_norm": self.grad_norm,
            "feasibility_violation": self.feasibility_violation,
            "iterations": self.iterations,
            "converged": self.converged,
            "bounds": self.bounds.as_dict(),
        }


# drift of the sign constraint beyond this triggers a recentering pass
_RETRANSLATE_TRIGGER = 1e-3
# below this displacement norm a line-search stall counts as converged: the
# remaining energy decrement is under the double-precision resolution of the
# objective, so no value-based search can resolve it
_FLOOR_PG_CAP = 1e-5
_PLATEAU_SPAN = 60
_PLATEAU_F_GAIN = 3e-11
# an indefinite Hessian is shifted by sigma * lump, sigma growing from the
# first value by the factor until the band Cholesky factorisation succeeds
_SHIFT_FIRST = 1e-2
_SHIFT_GROWTH = 4.0
_SHIFT_MAX = 1e12
# Armijo sufficient-decrease constant and backtracking factor
_ARMIJO_C1 = 1e-4
_ARMIJO_SHRINK = 0.5
# Newton steps each seed of a race takes before the best one is minimized;
# run longer, a seed from the wrong well can settle on a local minimum that
# keeps an extra front where the weight is negligible
_RACE_BUDGET = 4


def cho_solve_banded(cb_and_lower, b):
    """``scipy.linalg.cho_solve_banded``, loaded at its first call.

    A module global that ``_newton_direction`` calls by name, so that
    perfbench/layertrace.py can wrap it to count and time the band solves.
    """
    from scipy.linalg import cho_solve_banded

    return cho_solve_banded(cb_and_lower, b)


def _factor_preconditioner(op: WeightedEnergy, sigma: float):
    """LDL^T factor of the tridiagonal weighted H^1 operator, right node removed."""
    from scipy.linalg.lapack import dpttrf

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


def _band_hessian(op: WeightedEnergy, u, w, dw, g_iz):
    """Hessian of energy + penalty on the free nodes, in lower band storage.

    Node-major order, so node i's component k is unknown i * dim + k and the
    half-bandwidth is 2 dim - 1; row r of the result holds the r-th
    subdiagonal (LAPACK ``dpbtrf`` with ``lower=1``).  The
    right node is fixed and dropped.  At the node pinned at 0 the block is
    the Hessian of the Lagrangian, restricted to the tangent space of the
    zero level set: with normal n = DW, multiplier lam = g_iz . n / |n|^2 and
    projector P = I - n n^T / |n|^2, the diagonal block is
    P (H - lam D^2 W) P + n n^T / |n|^2 and its two coupling blocks are
    multiplied by P, so the step at that node is tangential.
    """
    spec, iz, dim = op.spec, op.iz, op.spec.dim
    m = u.shape[0] - 1
    stiff = op.stiff[:, 0]
    hess = np.asarray(spec.hessian(u[:-1]), dtype=float)
    blocks = op.lump[:-1, 0, None, None] * hess
    stiff_diag = stiff.copy()
    stiff_diag[1:] += stiff[:-1]
    eye = np.arange(dim)
    blocks[:, eye, eye] += stiff_diag[:, None]
    wp = w[iz:-1]
    neg = np.flatnonzero(wp < 0.0)
    if op.kappa > 0 and neg.size:
        # second derivative of (pen_w / 2) min(W, 0)^2
        dn, nodes = dw[iz + neg], iz + neg
        blocks[nodes] += op.pen_node_w[neg, 0, None, None] * (
            dn[:, :, None] * dn[:, None, :] + wp[neg, None, None] * hess[nodes])

    normal = dw[iz]
    nrm2 = float(normal @ normal)
    proj = None
    if nrm2 >= 1e-24 and iz < m:
        nhat = normal / np.sqrt(nrm2)
        proj = np.eye(dim) - np.outer(nhat, nhat)
        lam = float(g_iz @ normal) / nrm2
        blocks[iz] = proj @ (blocks[iz] - lam * hess[iz]) @ proj + np.outer(nhat, nhat)

    ab = np.zeros((2 * dim, m * dim))
    for k in range(dim):
        for l in range(k + 1):
            ab[k - l, l::dim] = blocks[:, k, l]
    ab[dim, :(m - 1) * dim] = -np.repeat(stiff[:m - 1], dim)
    if proj is not None:
        # coupling blocks between node iz and its neighbours: -stiff * P
        for i in (iz - 1, iz):
            if 0 <= i < m - 1:
                for k in range(dim):
                    for l in range(dim):
                        ab[dim + k - l, i * dim + l] = -stiff[i] * proj[k, l]
    return ab


def _newton_direction(op: WeightedEnergy, ab, g):
    """Solve the band Hessian system for g, shifting it until it is positive definite.

    Returns None for a non-finite Hessian, and when no shift up to
    ``_SHIFT_MAX`` makes the factorisation succeed.
    """
    if not np.isfinite(ab).all():
        return None
    from scipy.linalg.lapack import dpbtrf

    shift = op.lump[:-1].ravel()
    sigma = 0.0
    while sigma <= _SHIFT_MAX:
        shifted = ab
        if sigma > 0.0:
            shifted = ab.copy()
            shifted[0] += sigma * shift
        factor, info = dpbtrf(shifted, lower=1)
        if info != 0:
            sigma = _SHIFT_FIRST if sigma == 0.0 else sigma * _SHIFT_GROWTH
            continue
        d = np.zeros_like(g)
        d[:-1] = cho_solve_banded((factor, True), g[:-1].ravel()).reshape(-1, g.shape[1])
        return d
    return None


def _descent(spec, params, grid, values0, opt_tol, max_iters):
    """One band-Newton descent run from a given admissible starting array.

    Each step solves the band Hessian system for the gradient (see
    ``_band_hessian``), shifting an indefinite Hessian by a multiple of the
    lumped mass, and an Armijo search from the full step accepts it after
    projecting the node pinned at 0 back onto the zero level set.  The
    stopping test is the displacement norm of the weighted H^1 gradient
    step, so ``opt_tol`` is independent of the step taken.

    Returns the final node values, energy, feasibility violation,
    displacement norm, iteration count and convergence flag.  Exits converged
    when the displacement norm meets opt_tol, or when the line search can no
    longer resolve a decrease in double precision while the displacement norm
    is already far below any physical scale.
    """
    from scipy.linalg.lapack import dpttrs

    op = WeightedEnergy(spec, params, grid, PENALTY_KAPPA)
    iz = grid.index_zero
    mu_b = float(np.linalg.eigvalsh(spec.hessian(spec.well_b))[0])
    d_fac, e_fac = _factor_preconditioner(op, sigma=1.0 + mu_b)
    well = np.asarray(spec.well_b, dtype=float)
    lo, hi = spec.bounding_box[:, 0], spec.bounding_box[:, 1]

    u = values0.copy()
    J, P, w = op.value(u)
    F = J + P
    pg_norm = np.inf
    iterations = 0
    converged = False
    plateau_best = np.inf
    plateau_mark = 0
    plateau_F = F

    for iterations in range(1, max_iters + 1):
        g, dw = op.grad(u, w)
        nu0 = dw[iz]
        g_iz = g[iz].copy()
        g[iz] = _tangential(g[iz], nu0)

        d = np.empty_like(u)
        d[:-1] = dpttrs(d_fac, e_fac, g[:-1])[0]
        d[-1] = 0.0
        d[iz] = _tangential(d[iz], nu0)

        pg_norm = float(np.sqrt(np.vdot(op.lump * d, d)))
        if pg_norm <= opt_tol:
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

        newton = _newton_direction(op, _band_hessian(op, u, w, dw, g_iz), g)
        if newton is not None:
            d = newton
        slope = float(np.vdot(g, d))
        if slope <= 0.0:
            converged = pg_norm <= _FLOOR_PG_CAP
            break

        accepted = False
        t = 1.0
        while t > 1e-13:
            trial = u - t * d
            trial[-1] = well
            try:
                q = trial[iz]
                if abs(float(spec.value(q))) > 1e-10:
                    trial[iz] = project_to_zero_set(spec, np.clip(q, lo, hi))
            except WaveSolverError:
                t *= _ARMIJO_SHRINK
                continue
            J_t, P_t, w_t = op.value(trial)
            if J_t + P_t <= F - _ARMIJO_C1 * t * slope:
                u, J, P, w, F = trial, J_t, P_t, w_t, J_t + P_t
                accepted = True
                break
            t *= _ARMIJO_SHRINK
        if not accepted:
            converged = pg_norm <= _FLOOR_PG_CAP
            break

        if op.violation(w) > _RETRANSLATE_TRIGGER:
            prof = translate_to_crossing(spec, Profile(grid=grid, values=u, well_b=well))
            u = prof.values.copy()
            J, P, w = op.value(u)
            F = J + P

    return u, J, op.violation(w), pg_norm, iterations, converged


def minimize_profile(
    spec: PotentialSpec,
    consts: PotentialConstants,
    params: FunctionalParams,
    grid: Grid,
    init: Profile,
    opt_tol: float = OPT_TOL,
) -> GammaResult:
    """Minimize the weighted energy from a starting profile.

    Recentres the start on the constraint crossing and runs one descent
    from it.  Raises InfeasibleMinimizerError when the minimizer violates
    the sign constraint by more than ``FEAS_TOL``.  The reported gamma
    excludes the penalty term.
    """
    check_positive(opt_tol=opt_tol)
    start = translate_to_crossing(spec, init).values
    u, J, viol, pg, iters, conv = _descent(spec, params, grid, start, opt_tol, MAX_ITERS)
    if viol > FEAS_TOL:
        raise InfeasibleMinimizerError(
            f"feasibility violation {viol:.3g} exceeds tolerance {FEAS_TOL:g} at c={params.c}"
        )
    return GammaResult(
        c=params.c,
        gamma=float(J),
        profile=Profile(grid=grid, values=u, well_b=np.asarray(spec.well_b, dtype=float)),
        grad_norm=pg,
        feasibility_violation=viol,
        iterations=iters,
        bounds=compute_bounds(spec, consts, params.c),
        converged=conv,
    )


def minimize_from_seeds(
    spec: PotentialSpec,
    consts: PotentialConstants,
    params: FunctionalParams,
    grid: Grid,
    seeds,
    opt_tol: float = OPT_TOL,
) -> GammaResult:
    """Race several starting profiles, then fully minimize the best one.

    Each seed runs ``_RACE_BUDGET`` Newton steps; the seed with the lowest
    feasible objective continues to full convergence.  Racing from several
    wells avoids the slow escape of energy-carrying structure that a single
    seed may contain.  The reported iterations include the race budgets
    spent.
    """
    seeds = list(seeds)
    if not seeds:
        raise ContractViolationError("need at least one seed profile")
    if len(seeds) == 1:
        return minimize_profile(spec, consts, params, grid, seeds[0], opt_tol)

    scored = []
    race_iters = 0
    for init in seeds:
        base = translate_to_crossing(spec, init)
        u, J, viol, pg, iters, conv = _descent(spec, params, grid, base.values, opt_tol, _RACE_BUDGET)
        race_iters += iters
        penalty_rank = 0.0 if viol <= FEAS_TOL else 1e6 + viol
        scored.append((J + penalty_rank, u))
    _, u_best = min(scored, key=lambda s: s[0])
    winner = Profile(grid=grid, values=u_best, well_b=np.asarray(spec.well_b, dtype=float))
    res = minimize_profile(spec, consts, params, grid, winner, opt_tol)
    return replace(res, iterations=res.iterations + race_iters)


"""Independent certification of candidate (speed, profile) pairs.

Every identity the variational theory guarantees for minimizers is checked
numerically: the interior ODE residual, the first integral along each
half-line, the half-line energy identities, the slope-jump identity at 0,
the exponential tail decay rate, the left-tail equilibrium approach, and an
independent shooting integration of the wave ODE from the linearized stable
manifold at the right well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolationError,
    ShootingDivergenceError,
    TailError,
    WaveSolverError,
)
from .functional import FunctionalParams, cell_weights, decay_rate
from .potential import PROJ_TOL, PotentialConstants, PotentialSpec, golden_section_min
from .profile import Profile, derivative, second_derivative

# Nothing here calls this: perfbench/layertrace.py wraps it by name until the
# next benchmark change drops it (ROADMAP item 1).
from .potential import find_equilibria  # noqa: F401


@dataclass(frozen=True)
class VerifyThresholds:
    """Pass thresholds for each certification check."""

    ode_residual: float = 5e-3
    first_integral: float = 2e-2
    halfline: float = 5e-3
    jump_gap: float = 1e-2
    decay_fit: float = 0.1
    decay_margin_over_c: float = 0.05
    left_tail_grad: float = 1e-2
    shooting_gap: float = 2e-2


@dataclass(frozen=True)
class VerifyReport:
    """Per-check (value, threshold, pass) of every certified identity.

    ``left_tail_well`` is the negative-potential equilibrium nearest the
    profile's left end, or None when the potential has none.
    """

    checks: dict = field(default_factory=dict)
    passed: bool = False
    left_tail_well: np.ndarray | None = None

    def as_dict(self) -> dict:
        out = {
            name: {"value": val, "threshold": thr, "pass": ok}
            for name, (val, thr, ok) in self.checks.items()
        }
        out["pass"] = self.passed
        return out


def _centered_scalar(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Second-order first derivative of a scalar field at interior nodes."""
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    return (
        -hp / (hm * (hm + hp)) * f[:-2]
        + (hp - hm) / (hm * hp) * f[1:-1]
        + hm / (hp * (hm + hp)) * f[2:]
    )


def el_residual(spec: PotentialSpec, c: float, profile: Profile) -> float:
    """Max interior residual of the traveling-wave ODE along the profile.

    On the right half-line the residual is evaluated only where the profile
    is off the zero level set; the node pinned at 0 and its two neighbors
    are skipped because the slope may legitimately jump there away from the
    root speed.
    """
    x = profile.grid.nodes
    if x.size < 5:
        raise ContractViolationError("need at least 5 nodes for the ODE residual")
    u = profile.values
    du = derivative(profile).values
    ddu = second_derivative(profile)
    dw = np.asarray(spec.gradient(u), dtype=float)
    r = c * du + ddu - dw
    rn = np.sqrt(np.sum(r * r, axis=1))

    iz = profile.grid.index_zero
    w = spec.value(u)
    keep = np.ones(x.size, dtype=bool)
    keep[[0, -1]] = False
    keep[max(iz - 1, 0):min(iz + 2, x.size)] = False
    keep[(x > 0) & (np.abs(w) <= PROJ_TOL)] = False
    if not np.any(keep):
        return 0.0
    return float(np.max(rn[keep]))


def first_integral_residual(spec: PotentialSpec, c: float, profile: Profile) -> float:
    """Max residual of the first integral, evaluated separately on each side of 0.

    The conserved combination differentiates the profile twice through
    divided differences, so this check is one order looser than the ODE
    residual.
    """
    x = profile.grid.nodes
    u = profile.values
    iz = profile.grid.index_zero
    der = derivative(profile)
    du = der.values
    w = spec.value(u)
    speed2 = np.sum(du * du, axis=1)

    out = 0.0
    # left side, using the left-sided slope at the node pinned to 0
    if iz >= 3:
        s2 = speed2[: iz + 1].copy()
        s2[iz] = float(np.dot(der.left_at_zero, der.left_at_zero))
        xi = 0.5 * s2 - w[: iz + 1]
        res = _centered_scalar(x[: iz + 1], xi) + c * s2[1:-1]
        out = max(out, float(np.max(np.abs(res))))
    # right side, using the right-sided slope at the node pinned to 0
    if x.size - iz >= 4:
        s2 = speed2[iz:].copy()
        s2[0] = float(np.dot(der.right_at_zero, der.right_at_zero))
        xi = 0.5 * s2 - w[iz:]
        res = _centered_scalar(x[iz:], xi) + c * s2[1:-1]
        out = max(out, float(np.max(np.abs(res))))
    return out


def _halfline_energies(spec, c, profile):
    """Weighted energy over each half-line with the cellwise-exact weight rule,
    plus the unweighted slope energy over the right half-line."""
    x = profile.grid.nodes
    u = profile.values
    iz = profile.grid.index_zero
    params = FunctionalParams(c=c, penalty_kappa=0.0)
    E = cell_weights(profile.grid, params)
    h = np.diff(x)
    w = spec.value(u)
    du = (u[1:] - u[:-1]) / h[:, None]
    kin = 0.5 * np.sum(du * du, axis=1)
    pot = 0.5 * (w[:-1] + w[1:])
    g = E * (kin + pot)
    right = float(np.sum(g[iz:]))
    left = float(np.sum(g[:iz]))
    slope_right = float(np.sum(2.0 * kin[iz:] * h[iz:]))
    return right, left, slope_right


def halfline_identities(spec: PotentialSpec, c: float, profile: Profile) -> tuple:
    """Residuals of the three half-line energy identities.

    Returns the right-half identity residual, the left-half identity
    residual, and the residual tying the right slope at 0 to the unweighted
    slope energy on the right half-line.
    """
    der = derivative(profile)
    dp2 = float(np.dot(der.right_at_zero, der.right_at_zero))
    dm2 = float(np.dot(der.left_at_zero, der.left_at_zero))
    right, left, slope_right = _halfline_energies(spec, c, profile)
    r_right = abs(right - dp2 / (2.0 * c))
    r_left = abs(left + dm2 / (2.0 * c))
    r_slope = abs(0.5 * dp2 - c * slope_right)
    return r_right, r_left, r_slope


def jump_gap(spec: PotentialSpec, c: float, gamma_hat: float, profile: Profile) -> float:
    """Gap in the slope-jump identity at 0 against the converged minimum energy."""
    der = derivative(profile)
    dp2 = float(np.dot(der.right_at_zero, der.right_at_zero))
    dm2 = float(np.dot(der.left_at_zero, der.left_at_zero))
    return abs((dp2 - dm2) / (2.0 * c) - gamma_hat)


def _tail_amplitudes(profile: Profile):
    """Tail amplitudes right of 0 and an estimate of their noise floor.

    The floor is taken from the far quarter of the right half, where any
    genuinely decaying tail is far below optimizer noise.
    """
    x = profile.grid.nodes
    amp = np.linalg.norm(profile.values - profile.well_b, axis=1)
    right = x > 0
    idx = np.nonzero(right)[0]
    floor = 1e-12
    if idx.size:
        far = idx[int(0.75 * idx.size):]
        far_amps = amp[far]
        far_amps = far_amps[far_amps > 0]
        if far_amps.size:
            floor = max(floor, 3.0 * float(np.median(far_amps)))
    return amp, right, floor


def fit_decay_rate(
    spec: PotentialSpec,
    consts: PotentialConstants,
    c: float,
    profile: Profile,
) -> tuple:
    """Exponential decay rate of the right tail: least-squares fit vs theory.

    The fit window takes nodes with tail amplitude between the optimizer
    noise floor and 1e-2; the theoretical rate is the positive root of the
    tail characteristic equation.
    """
    x = profile.grid.nodes
    amp, right, floor = _tail_amplitudes(profile)
    lo = max(1e-12, floor)
    window = right & (amp > lo) & (amp < 1e-2)
    if int(np.count_nonzero(window)) < 20:
        raise TailError(
            "right tail has fewer than 20 usable nodes; profile has not "
            "converged to the reference well"
        )
    slope, _ = np.polyfit(x[window], np.log(amp[window]), 1)
    lam_fit = -float(slope)
    return lam_fit, decay_rate(consts, c)


def left_tail_report(
    spec: PotentialSpec,
    consts: PotentialConstants,
    profile: Profile,
) -> tuple:
    """Left-end diagnostics: stationarity norm, potential level, nearest equilibrium.

    Returns (|DW| + |u'| at the left end, the potential value there, the
    distance to the nearest of ``consts.equilibria``, and that equilibrium).
    The distance is +inf and the equilibrium None when there is none.
    """
    du = derivative(profile).values[0]
    u_left = profile.values[0]
    grad_norm = float(np.linalg.norm(spec.gradient(u_left))) + float(np.linalg.norm(du))
    w_limit = float(spec.value(u_left))
    if not consts.equilibria:
        return grad_norm, w_limit, float("inf"), None
    nearest = min(consts.equilibria, key=lambda q: float(np.linalg.norm(u_left - q)))
    return grad_norm, w_limit, float(np.linalg.norm(u_left - nearest)), nearest


def _rk4_backward(spec, c, x_start, y0, step, x_stop_target, box_lo, box_hi):
    """Classical four-stage Runge-Kutta for the wave ODE, integrating leftward.

    Returns (xs descending, states) up to the target or until the position
    variable leaves the doubled bounding box.  The state is a list of floats
    and each stage makes one ``spec.point_gradient`` call on floats, no numpy
    call: numpy calls on 2n-element arrays cost more than the arithmetic they
    do.  The point gradient equals the batch gradient bit for bit, and every
    element is computed in the order an array expression would compute it,
    so the trajectory is bit-identical to one built from numpy stage arrays.
    """
    n = y0.size // 2
    c = float(c)
    lo, hi = np.asarray(box_lo, dtype=float).tolist(), np.asarray(box_hi, dtype=float).tolist()
    point_gradient = spec.point_gradient

    def f(y):
        g = point_gradient(y[:n])
        return y[n:] + [gk - c * vk for gk, vk in zip(g, y[n:])]

    hstep = -abs(step)
    half = 0.5 * hstep
    sixth = hstep / 6.0
    y = y0.tolist()
    xs = [x_start]
    ys = [y]
    xcur = x_start
    n_steps = int(np.ceil((x_start - x_stop_target) / abs(step)))
    for _ in range(n_steps):
        k1 = f(y)
        k2 = f([a + half * k for a, k in zip(y, k1)])
        k3 = f([a + half * k for a, k in zip(y, k2)])
        k4 = f([a + hstep * k for a, k in zip(y, k3)])
        y = [a + sixth * (q1 + 2 * q2 + 2 * q3 + q4)
             for a, q1, q2, q3, q4 in zip(y, k1, k2, k3, k4)]
        xcur += hstep
        xs.append(xcur)
        ys.append(y)
        if (any(v < b for v, b in zip(y, lo)) or any(v > b for v, b in zip(y, hi))
                or not all(map(math.isfinite, y))):
            break
    return np.array(xs), np.array(ys)


def shooting_check(
    spec: PotentialSpec,
    consts: PotentialConstants,
    c: float,
    profile: Profile,
    step: float | None = None,
) -> float:
    """Gap between the profile and an independently integrated wave trajectory.

    Initial data sit on the linearized stable manifold of the right well
    (eigendirection of the smallest Hessian eigenvalue), with amplitude
    matched to the profile's own tail; the integration runs backward with a
    classical four-stage Runge-Kutta at a quarter of the grid spacing.  The
    gap is the max-norm mismatch over the middle 60 percent of the span the
    trajectory covers, after optimal translation alignment.  Divergence
    before the trajectory reaches 0 raises an error: the profile is not a
    wave at this speed.
    """
    x = profile.grid.nodes
    b = np.asarray(spec.well_b, dtype=float)
    n = spec.dim
    eigval, eigvec = np.linalg.eigh(np.asarray(spec.hessian(b), dtype=float))
    v = eigvec[:, 0]
    lam = 0.5 * (c + float(np.sqrt(c * c + 4.0 * eigval[0])))

    amp, right_mask, floor = _tail_amplitudes(profile)
    usable = right_mask & (amp > max(50.0 * floor, 1e-9)) & (amp < 1e-3)
    idx = np.nonzero(usable)[0]
    if idx.size == 0:
        raise TailError("right tail has no usable anchor for shooting")
    anchor = int(idx[np.argmin(np.abs(np.log10(amp[idx]) + 6.0))])
    x_a = float(x[anchor])
    a_signed = float(np.dot(profile.values[anchor] - b, v))
    if abs(a_signed) < 1e-13:
        raise TailError("tail amplitude too small to anchor the shooting")

    y0 = np.concatenate([b + a_signed * v, -lam * a_signed * v])
    h_step = (step if step is not None else float(np.min(np.diff(x))) / 4.0)
    center = 0.5 * (spec.bounding_box[:, 0] + spec.bounding_box[:, 1])
    half = 0.5 * (spec.bounding_box[:, 1] - spec.bounding_box[:, 0])
    xs, ys = _rk4_backward(
        spec, c, x_a, y0, h_step, float(x[0]), center - 2 * half, center + 2 * half
    )
    x_stop = float(xs[-1])
    if x_stop > 0.0:
        raise ShootingDivergenceError(
            f"trajectory left the search box at x={x_stop:.3g} before reaching 0; "
            "the profile is not a wave at this speed"
        )

    # comparison window, centered on the crossing at 0: trim 20 percent of
    # each side's extent, plus a rate-aware allowance at the stop side where
    # integration noise re-grows backward at the local curvature rate; the
    # window must still cover the crossing neighborhood, otherwise the
    # trajectory never tracked the wave
    eig_left = np.linalg.eigvalsh(np.asarray(spec.hessian(profile.values[0]), dtype=float))
    curv = max(float(eig_left[-1]), float(eigval[0]))
    lam_back = 0.5 * (c + float(np.sqrt(c * c + 4.0 * curv)))
    ramp = np.log(4e3) / lam_back
    w_lo = x_stop + max(0.2 * (0.0 - x_stop), ramp)
    w_hi = 0.8 * x_a
    if w_lo > -0.5 or w_hi < 1.0:
        raise ShootingDivergenceError(
            f"trajectory tracked the profile only on [{x_stop:.3g}, {x_a:.3g}]; "
            "after trimming the divergence ramp no window around the crossing "
            "remains, so the profile is not a wave at this speed"
        )
    xs_up = xs[::-1]
    ys_up = ys[::-1, :n]

    def gap_for(shift: float) -> float:
        sel = (x >= w_lo - shift) & (x <= w_hi - shift)
        if not np.any(sel):
            return float("inf")
        pts = x[sel] + shift
        diff = 0.0
        for k in range(n):
            traj = np.interp(pts, xs_up, ys_up[:, k])
            diff = max(diff, float(np.max(np.abs(traj - profile.values[sel, k]))))
        return diff

    # coarse alignment from the trajectory's own last zero-set crossing
    wt = spec.value(ys_up[:, :n])
    negs = np.nonzero(wt < -1e-12)[0]
    s0 = float(xs_up[negs[-1]]) if negs.size else 0.0
    _, aligned = golden_section_min(gap_for, s0 - 1.0, s0 + 1.0, 1e-6)
    best = min(aligned, gap_for(s0), gap_for(0.0))
    if not np.isfinite(best):
        raise ShootingDivergenceError("no overlap between trajectory and profile")
    return best


def run_verify(
    spec: PotentialSpec,
    consts: PotentialConstants,
    c: float,
    profile: Profile,
    gamma_hat: float,
    thresholds: VerifyThresholds | None = None,
) -> VerifyReport:
    """Assemble the full certification report for a candidate pair."""
    th = thresholds or VerifyThresholds()
    checks: dict = {}

    el = el_residual(spec, c, profile)
    checks["el_residual"] = (el, th.ode_residual, el <= th.ode_residual)

    fi = first_integral_residual(spec, c, profile)
    checks["first_integral"] = (fi, th.first_integral, fi <= th.first_integral)

    r_right, r_left, r_slope = halfline_identities(spec, c, profile)
    checks["halfline_right"] = (r_right, th.halfline, r_right <= th.halfline)
    checks["halfline_left"] = (r_left, th.halfline, r_left <= th.halfline)
    checks["halfline_slope"] = (r_slope, th.halfline, r_slope <= th.halfline)

    jg = jump_gap(spec, c, gamma_hat, profile)
    checks["jump_gap"] = (jg, th.jump_gap, jg <= th.jump_gap)

    try:
        lam_fit, lam_theory = fit_decay_rate(spec, consts, c, profile)
        decay_ok = (
            abs(lam_fit - lam_theory) <= th.decay_fit
            and lam_fit >= c - th.decay_margin_over_c
        )
    except TailError:
        lam_fit = float("nan")
        decay_ok = False
    checks["decay_rate"] = (lam_fit, th.decay_fit, decay_ok)

    grad_norm, _, dist_e, well = left_tail_report(spec, consts, profile)
    checks["left_tail_grad"] = (grad_norm, th.left_tail_grad, grad_norm <= th.left_tail_grad)
    # which equilibrium the left tail approaches is reported, never asserted
    checks["dist_to_equilibria"] = (dist_e, None, True)

    try:
        sg = shooting_check(spec, consts, c, profile)
        shoot_ok = sg <= th.shooting_gap
    except WaveSolverError:
        sg = float("inf")
        shoot_ok = False
    checks["shooting_gap"] = (sg, th.shooting_gap, shoot_ok)

    passed = all(ok for _, _, ok in checks.values())
    return VerifyReport(checks=checks, passed=passed, left_tail_well=well)

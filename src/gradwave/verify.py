"""Independent certification of candidate (speed, profile) pairs.

Every identity the variational theory guarantees for minimizers is checked
numerically: the interior ODE residual, the first integral along each
half-line, the half-line energy identities, the slope-jump identity at 0,
the exponential tail decay rate, the left-tail equilibrium approach, and an
independent shooting integration of the wave ODE from the linearized stable
manifold at the right well.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolationError,
    ShootingDivergenceError,
    TailError,
    WaveSolverError,
)
from .functional import FunctionalParams, WeightedEnergy, decay_rate
from .potential import PROJ_TOL, PotentialConstants, PotentialSpec, golden_section_min
from .profile import Profile, _one_sided, centered_difference, derivative, second_derivative

# Nothing here calls these: perfbench/layertrace.py wraps them by name until
# the next benchmark change drops them (ROADMAP item 1).
from .functional import cell_weights  # noqa: F401
from .potential import find_equilibria  # noqa: F401


# pass threshold of each report check; the three half-line identities share
# one threshold, and the fitted decay rate must also reach c - DECAY_MARGIN
THRESHOLDS = {
    "el_residual": 5e-3,
    "first_integral": 2e-2,
    "halfline_right": 5e-3,
    "halfline_left": 5e-3,
    "halfline_slope": 5e-3,
    "jump_gap": 1e-2,
    "decay_rate": 0.1,
    "left_tail_grad": 1e-2,
    "shooting_gap": 2e-2,
}
DECAY_MARGIN = 0.05


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

    The derivative of the conserved combination is centred at interior nodes
    and one-sided, from the three nodes nearest 0 on its side, at each node
    beside 0: the slope may jump at 0, so no stencil reaches across it and
    the residual is second order in the grid spacing.
    """
    x = profile.grid.nodes
    iz = profile.grid.index_zero
    du = derivative(profile).values
    speed2 = np.sum(du * du, axis=1)
    xi = 0.5 * speed2 - spec.value(profile.values)

    out = 0.0
    # left side, nodes 1 .. iz - 1
    if iz >= 3:
        dxi = np.empty(iz - 1)
        dxi[:-1] = centered_difference(x[:iz], xi[:iz])
        dxi[-1] = -_one_sided(xi[iz - 1], xi[iz - 2], xi[iz - 3],
                              x[iz - 1] - x[iz - 2], x[iz - 2] - x[iz - 3])
        out = max(out, float(np.max(np.abs(dxi + c * speed2[1:iz]))))
    # right side, nodes iz + 1 .. n - 2
    if x.size - iz >= 4:
        dxi = np.empty(x.size - iz - 2)
        dxi[0] = _one_sided(xi[iz + 1], xi[iz + 2], xi[iz + 3],
                            x[iz + 2] - x[iz + 1], x[iz + 3] - x[iz + 2])
        dxi[1:] = centered_difference(x[iz + 1:], xi[iz + 1:])
        out = max(out, float(np.max(np.abs(dxi + c * speed2[iz + 1:-1]))))
    return out


def _halfline_energies(spec, c, profile):
    """Weighted energy over each half-line, summed from the energy's own cells,
    plus the unweighted slope energy over the right half-line.  The left
    half-line's first cell carries the closed-form energy of the profile's
    constant extension left of the grid."""
    iz = profile.grid.index_zero
    op = WeightedEnergy(spec, FunctionalParams(c=c), profile.grid)
    g, kin = op.cell_energy(profile.values)
    right = float(np.sum(g[iz:]))
    left = float(np.sum(g[:iz]))
    slope_right = float(np.sum(2.0 * kin[iz:] * op.h[iz:]))
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
    """Left-end diagnostics: stationarity norm and nearest equilibrium.

    Returns (|DW| + |u'| at the left end, the distance to the nearest of
    ``consts.equilibria``, and that equilibrium).  The distance is +inf and
    the equilibrium None when there is none.
    """
    du = derivative(profile).values[0]
    u_left = profile.values[0]
    grad_norm = float(np.linalg.norm(spec.gradient(u_left))) + float(np.linalg.norm(du))
    if not consts.equilibria:
        return grad_norm, float("inf"), None
    nearest = min(consts.equilibria, key=lambda q: float(np.linalg.norm(u_left - q)))
    return grad_norm, float(np.linalg.norm(u_left - nearest)), nearest


@functools.cache
def _stepper(n: int):
    """The RK4 stepper for a state of ``n`` positions and ``n`` velocities.

    Compiled once per ``n`` from ``_stepper_source(n)``; ``isfinite`` is
    bound in its namespace.
    """
    namespace = {"isfinite": math.isfinite}
    exec(compile(_stepper_source(n), f"<_stepper({n})>", "exec"), namespace)
    return namespace["step"]


def _stepper_source(n: int) -> str:
    """Text of ``step(point_gradient, y, x, c, half, hstep, sixth, lo, hi, n_steps)``.

    The state is unpacked into locals ``p0..``, ``v0..`` and every stage is
    unrolled into scalar statements.  Stage ``s`` takes positions ``P{s}_i``
    and velocities ``V{s}_i`` (stage 1 takes ``p``, ``v`` themselves), makes
    one ``point_gradient`` call and has derivative ``(V{s}_i, K{s}_i)`` with
    ``K = g - c * V``.  The source holds only identifiers and indices.
    """
    def each(fmt, sep=", "):
        return sep.join(fmt.format(i=i) for i in range(n))

    def stage(s, pos, vel):
        return [f"        {each('g{i}')}, = point_gradient([{each(pos)}])",
                *(f"        K{s}_{i} = g{i} - c * {vel.format(i=i)}" for i in range(n))]

    def inputs(s, scale, kp, kv):
        return ([f"        P{s}_{i} = p{i} + {scale} * {kp.format(i=i)}" for i in range(n)]
                + [f"        V{s}_{i} = v{i} + {scale} * {kv.format(i=i)}" for i in range(n)])

    lines = [
        "def step(point_gradient, y, x, c, half, hstep, sixth, lo, hi, n_steps):",
        f"    {each('p{i}')}, {each('v{i}')}, = y",
        f"    {each('lo{i}')}, = lo",
        f"    {each('hi{i}')}, = hi",
        "    xs = [x]",
        "    ys = [y]",
        "    for _ in range(n_steps):",
        *stage(1, "p{i}", "v{i}"),
        *inputs(2, "half", "v{i}", "K1_{i}"),
        *stage(2, "P2_{i}", "V2_{i}"),
        *inputs(3, "half", "V2_{i}", "K2_{i}"),
        *stage(3, "P3_{i}", "V3_{i}"),
        *inputs(4, "hstep", "V3_{i}", "K3_{i}"),
        *stage(4, "P4_{i}", "V4_{i}"),
        *(f"        p{i} = p{i} + sixth * (v{i} + 2 * V2_{i} + 2 * V3_{i} + V4_{i})"
          for i in range(n)),
        *(f"        v{i} = v{i} + sixth * (K1_{i} + 2 * K2_{i} + 2 * K3_{i} + K4_{i})"
          for i in range(n)),
        "        x += hstep",
        "        xs.append(x)",
        f"        ys.append([{each('p{i}')}, {each('v{i}')}])",
        f"        if ({each('p{i} < lo{i}', ' or ')} or {each('p{i} > hi{i}', ' or ')} or not (",
        f"                {each('isfinite(p{i})', ' and ')} and {each('isfinite(v{i})', ' and ')})):",
        "            break",
        "    return xs, ys",
    ]
    return "\n".join(lines) + "\n"


def _rk4_backward(spec, c, x_start, y0, step, x_stop_target, box_lo, box_hi):
    """Classical four-stage Runge-Kutta for the wave ODE, integrating leftward.

    Returns (xs descending, states) up to the target or until the position
    variable leaves the doubled bounding box or the state stops being finite;
    the exiting step is kept.  The steps run in ``_stepper(n)``, straight-line
    float code compiled once per state dimension: each stage makes one
    ``spec.point_gradient`` call and no numpy call, since numpy calls on
    2n-element arrays cost more than the arithmetic they do.  The point
    gradient equals the batch gradient bit for bit, and the stepper computes
    every element with the float operations, in the order, that the numpy
    stage-array loop does, so the trajectory is bit-identical to that loop's.
    """
    hstep = -abs(float(step))
    n_steps = int(np.ceil((x_start - x_stop_target) / abs(step)))
    xs, ys = _stepper(y0.size // 2)(
        spec.point_gradient, y0.tolist(), x_start, float(c), 0.5 * hstep, hstep, hstep / 6.0,
        np.asarray(box_lo, dtype=float).tolist(), np.asarray(box_hi, dtype=float).tolist(),
        n_steps)
    return np.array(xs), np.array(ys)


def shooting_check(
    spec: PotentialSpec,
    consts: PotentialConstants,
    c: float,
    profile: Profile,
) -> float:
    """Gap between the profile and an independently integrated wave trajectory.

    Initial data sit on the linearized stable manifold of the right well
    (eigendirection of the smallest Hessian eigenvalue), with amplitude
    matched to the profile's own tail; the integration runs backward with a
    classical four-stage Runge-Kutta at a quarter of the grid spacing, in
    the straight-line stepper compiled once per state dimension (see
    ``_rk4_backward``), bit-identical to a numpy stage-array loop.  The
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
    h_step = float(np.min(np.diff(x))) / 4.0
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
) -> VerifyReport:
    """Assemble the full certification report for a candidate pair."""
    checks: dict = {}

    def check(name, value, ok=None):
        thr = THRESHOLDS[name]
        checks[name] = (value, thr, value <= thr if ok is None else ok)

    check("el_residual", el_residual(spec, c, profile))
    check("first_integral", first_integral_residual(spec, c, profile))

    for name, r in zip(("halfline_right", "halfline_left", "halfline_slope"),
                       halfline_identities(spec, c, profile)):
        check(name, r)
    check("jump_gap", jump_gap(spec, c, gamma_hat, profile))

    try:
        lam_fit, lam_theory = fit_decay_rate(spec, consts, c, profile)
    except TailError:
        lam_fit = lam_theory = float("nan")  # fails both comparisons
    check("decay_rate", lam_fit, abs(lam_fit - lam_theory) <= THRESHOLDS["decay_rate"]
          and lam_fit >= c - DECAY_MARGIN)

    grad_norm, dist_e, well = left_tail_report(spec, consts, profile)
    check("left_tail_grad", grad_norm)
    # which equilibrium the left tail approaches is reported, never asserted
    checks["dist_to_equilibria"] = (dist_e, None, True)

    try:
        sg = shooting_check(spec, consts, c, profile)
    except WaveSolverError:
        sg = float("inf")
    check("shooting_gap", sg)

    passed = all(ok for _, _, ok in checks.values())
    return VerifyReport(checks=checks, passed=passed, left_tail_well=well)

"""Certification checks: residual identities, decay rates, tails, shooting."""

import numpy as np
import pytest

from gradwave import (
    FunctionalParams,
    Grid,
    MinimizeOptions,
    Profile,
    ShootingDivergenceError,
    TailError,
    compute_constants,
    minimize_profile,
    segment_profile,
    user_polynomial,
)
from gradwave import verify
from gradwave.verify import (
    el_residual,
    first_integral_residual,
    fit_decay_rate,
    halfline_identities,
    jump_gap,
    left_tail_report,
    run_verify,
    shooting_check,
)
from conftest import V_STAR_12, X0_TANH, quartic_well_terms


def tanh_profile(h=0.01, x_left=-40.0 / 0.6, x_right=22.0, x0=X0_TANH, component=0, dim=1):
    """tanh(x + x0) in one component, the others at the reference well 1."""
    grid = Grid.uniform(x_left, x_right, h)
    vals = np.ones((grid.n_nodes, dim))
    vals[:, component] = np.tanh(grid.nodes + x0)
    vals[-1] = 1.0
    return Profile(grid=grid, values=vals, well_b=np.ones(dim))


def _rk4_backward_reference(spec, c, x_start, y0, step, x_stop_target, box_lo, box_hi):
    """The integrator as first written, on numpy stage arrays."""
    n = y0.size // 2

    def f(y):
        out = np.empty_like(y)
        out[:n] = y[n:]
        out[n:] = np.asarray(spec.gradient(y[:n]), dtype=float) - c * y[n:]
        return out

    xs = [x_start]
    ys = [y0.copy()]
    y = y0.copy()
    xcur = x_start
    hstep = -abs(step)
    n_steps = int(np.ceil((x_start - x_stop_target) / abs(step)))
    for _ in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * hstep * k1)
        k3 = f(y + 0.5 * hstep * k2)
        k4 = f(y + hstep * k3)
        y = y + (hstep / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        xcur += hstep
        xs.append(xcur)
        ys.append(y.copy())
        if np.any(y[:n] < box_lo) or np.any(y[:n] > box_hi) or not np.all(np.isfinite(y)):
            break
    return np.array(xs), np.array(ys)


@pytest.fixture(scope="module")
def wrong_speed_profile(scalar_spec, scalar_consts):
    """Minimizer at c = 0.8, where scalar_cubic(0.6) has no wave."""
    grid = Grid.uniform(-50.0, 21.0, 0.01)
    init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
    res = minimize_profile(
        scalar_spec, scalar_consts, FunctionalParams(c=0.8), grid, init,
        MinimizeOptions(opt_tol=1e-6, restarts=0),
    )
    return res.profile


def constant_profile(value, grid, well_b):
    vals = np.tile(np.asarray(value, dtype=float), (grid.n_nodes, 1))
    vals[-1] = well_b
    return Profile(grid=grid, values=vals, well_b=np.asarray(well_b, dtype=float))


class TestOdeResidual:
    def test_exact_wave_small_residual(self, scalar_spec, analytic_wave):
        assert el_residual(scalar_spec, 0.6, analytic_wave) <= 1e-3

    def test_wrong_speed_detected(self, scalar_spec, analytic_wave):
        assert el_residual(scalar_spec, 0.7, analytic_wave) >= 0.05

    def test_constant_reference_profile(self, scalar_spec):
        g = Grid.uniform(-5.0, 5.0, 0.05)
        p = constant_profile([1.0], g, np.array([1.0]))
        assert el_residual(scalar_spec, 0.6, p) <= 1e-10

    def test_second_order_refinement(self, scalar_spec):
        r_coarse = el_residual(scalar_spec, 0.6, tanh_profile(h=0.02))
        r_fine = el_residual(scalar_spec, 0.6, tanh_profile(h=0.01))
        assert r_coarse / r_fine >= 2.5  # about 4 for a second-order scheme


class TestFirstIntegral:
    def test_exact_wave(self, scalar_spec, analytic_wave):
        assert first_integral_residual(scalar_spec, 0.6, analytic_wave) <= 2e-2

    def test_constant_profile(self, scalar_spec):
        g = Grid.uniform(-5.0, 5.0, 0.05)
        p = constant_profile([1.0], g, np.array([1.0]))
        assert first_integral_residual(scalar_spec, 0.6, p) <= 1e-12

    def test_holds_off_the_root_speed(self, scalar_spec, scalar_curve):
        _, results, _ = scalar_curve
        for res in results:
            assert first_integral_residual(scalar_spec, res.c, res.profile) <= 2e-2

    def test_second_order_refinement(self, scalar_spec):
        r_coarse = first_integral_residual(scalar_spec, 0.6, tanh_profile(h=0.02))
        r_fine = first_integral_residual(scalar_spec, 0.6, tanh_profile(h=0.01))
        assert r_coarse / r_fine >= 1.8


class TestHalflineIdentities:
    def test_minimizers_at_every_speed(self, scalar_spec, scalar_curve):
        _, results, _ = scalar_curve
        for res in results:
            r_right, r_left, r_slope = halfline_identities(scalar_spec, res.c, res.profile)
            assert r_right <= 5e-3
            assert r_left <= 5e-3
            assert r_slope <= 5e-3

    def test_exact_wave(self, scalar_spec, analytic_wave):
        for r in halfline_identities(scalar_spec, 0.6, analytic_wave):
            assert r <= 5e-3

    def test_constant_profile_zero(self, scalar_spec):
        g = Grid.uniform(-5.0, 5.0, 0.05)
        p = constant_profile([1.0], g, np.array([1.0]))
        for r in halfline_identities(scalar_spec, 0.6, p):
            assert r <= 1e-9


class TestJumpIdentity:
    def test_wave_has_continuous_slope(self, scalar_spec, analytic_wave):
        from gradwave import derivative

        assert jump_gap(scalar_spec, 0.6, 0.0, analytic_wave) <= 5e-3
        d = derivative(analytic_wave)
        assert float(np.linalg.norm(d.right_at_zero - d.left_at_zero)) <= 5e-3

    def test_jump_sign_below_root(self, scalar_spec, scalar_curve):
        from gradwave import derivative

        _, results, _ = scalar_curve
        res = results[0]  # c = 0.3, negative minimum energy
        assert jump_gap(scalar_spec, res.c, res.gamma, res.profile) <= 1e-2
        d = derivative(res.profile)
        dp = float(np.linalg.norm(d.right_at_zero))
        dm = float(np.linalg.norm(d.left_at_zero))
        assert dp < dm  # negative energy means a smaller right slope

    def test_constant_profile(self, scalar_spec):
        g = Grid.uniform(-5.0, 5.0, 0.05)
        p = constant_profile([1.0], g, np.array([1.0]))
        assert jump_gap(scalar_spec, 0.6, 0.0, p) == 0.0


class TestDecay:
    def test_exact_wave_rate(self, scalar_spec, scalar_consts, analytic_wave):
        lam_fit, lam_theory = fit_decay_rate(scalar_spec, scalar_consts, 0.6, analytic_wave)
        assert lam_theory == pytest.approx(2.0, abs=1e-12)
        assert lam_fit == pytest.approx(2.0, abs=0.05)

    def test_decoupled_theory_rate(self, decoupled_consts):
        c = 1.2
        lam = 0.5 * (c + np.sqrt(c * c + 4 * decoupled_consts.mu))
        assert lam == pytest.approx(2.0, abs=1e-12)

    def test_fit_exceeds_speed(self, scalar_spec, scalar_consts, analytic_wave):
        lam_fit, _ = fit_decay_rate(scalar_spec, scalar_consts, 0.6, analytic_wave)
        assert lam_fit >= 0.6 - 0.05

    def test_unconverged_tail_rejected(self, scalar_spec, scalar_consts):
        g = Grid.uniform(-5.0, 1.0, 0.05)
        vals = np.tanh(g.nodes + X0_TANH)[:, None]
        vals[-1] = 1.0
        p = Profile(grid=g, values=vals, well_b=np.array([1.0]))
        with pytest.raises(TailError):
            fit_decay_rate(scalar_spec, scalar_consts, 0.6, p)


class TestLeftTail:
    def test_exact_wave(self, scalar_spec, scalar_consts, analytic_wave):
        grad_norm, w_limit, dist_e, _ = left_tail_report(scalar_spec, scalar_consts,
                                                         analytic_wave)
        assert grad_norm <= 1e-2
        assert w_limit == pytest.approx(-0.8, abs=1e-3)
        assert dist_e <= 1e-3

    def test_constant_equilibrium(self, decoupled_spec, decoupled_consts):
        g = Grid.uniform(-5.0, 5.0, 0.05)
        p = constant_profile([-1.0, -1.0], g, decoupled_spec.well_b)
        grad_norm, w_limit, dist_e, _ = left_tail_report(decoupled_spec, decoupled_consts, p)
        assert grad_norm <= 1e-10
        assert w_limit == pytest.approx(-2.4, abs=1e-12)
        assert dist_e <= 1e-8


class TestShooting:
    def test_scalar_wave(self, scalar_spec, scalar_consts, scalar_speed):
        res, _, _ = scalar_speed
        gap = shooting_check(scalar_spec, scalar_consts, res.c_star, res.profile)
        assert gap <= 1e-2

    def test_decoupled_wave(self, decoupled_spec, decoupled_consts, decoupled_speed):
        res, _, _ = decoupled_speed
        gap = shooting_check(decoupled_spec, decoupled_consts, res.c_star, res.profile)
        assert gap <= 2e-2

    def test_forced_wrong_speed(self, scalar_spec, scalar_consts, wrong_speed_profile):
        # there is no wave at c = 0.8; a forced shoot must either diverge or
        # visibly disagree with the minimizer profile
        try:
            gap = shooting_check(scalar_spec, scalar_consts, 0.8, wrong_speed_profile)
        except ShootingDivergenceError:
            return
        assert gap >= 0.1

    def test_rk4_matches_reference_loop(self, monkeypatch, scalar_spec, scalar_consts,
                                        scalar_speed, decoupled_spec, decoupled_consts,
                                        decoupled_speed, wrong_speed_profile):
        # the float-list integrator must reproduce the numpy stage-array loop
        # bit for bit, on the arguments shooting_check really passes it
        calls = []
        integrate = verify._rk4_backward

        def recording(*args):
            out = integrate(*args)
            calls.append((args, out))
            return out

        monkeypatch.setattr(verify, "_rk4_backward", recording)
        poly_spec = user_polynomial(3, quartic_well_terms((0.6, 0.9, 1.2)), [1.0] * 3,
                                    [[-2.0, 2.0]] * 3)
        poly_wave = tanh_profile(h=0.02, x_left=-40.0 / 1.2, x_right=22.0,
                                 x0=np.arctanh(V_STAR_12), component=2, dim=3)
        cases = [
            (scalar_spec, scalar_consts, scalar_speed[0].c_star, scalar_speed[0].profile),
            (decoupled_spec, decoupled_consts, decoupled_speed[0].c_star,
             decoupled_speed[0].profile),
            (poly_spec, compute_constants(poly_spec), 1.2, poly_wave),
            (scalar_spec, scalar_consts, 0.8, wrong_speed_profile),
        ]
        for spec, consts, c, profile in cases:
            try:
                shooting_check(spec, consts, c, profile)
            except ShootingDivergenceError:
                pass
        assert len(calls) == len(cases)
        # the forced wrong speed leaves the box before its target
        (_, _, x_a, _, step, x_stop, _, _), (xs, _) = calls[-1]
        assert xs.size - 1 < np.ceil((x_a - x_stop) / abs(step))
        for args, (xs, ys) in calls:
            ref_xs, ref_ys = _rk4_backward_reference(*args)
            assert np.array_equal(xs, ref_xs)
            assert np.array_equal(ys, ref_ys)


class TestRunVerify:
    def test_full_report_on_wave(self, scalar_spec, scalar_consts, scalar_speed):
        res, _, _ = scalar_speed
        report = run_verify(scalar_spec, scalar_consts, res.c_star, res.profile,
                            res.gamma_at_c_star)
        assert report.passed
        d = report.as_dict()
        assert d["pass"] is True
        for name in ("el_residual", "first_integral", "halfline_right", "halfline_left",
                     "halfline_slope", "jump_gap", "decay_rate", "left_tail_grad",
                     "dist_to_equilibria", "shooting_gap"):
            assert name in d
            assert set(d[name]) == {"value", "threshold", "pass"}

    def test_report_fails_on_wrong_speed(self, scalar_spec, scalar_consts, analytic_wave):
        report = run_verify(scalar_spec, scalar_consts, 0.7, analytic_wave, 0.0)
        assert not report.checks["el_residual"][2]
        assert not report.passed

"""Root finding for the wave speed and the wave-at-speed accessor."""

import dataclasses

import numpy as np
import pytest

import gradwave.minimize as minimize
import gradwave.speed as speed
from gradwave import (
    Grid,
    MinimizeOptions,
    NotAWaveError,
    compute_bounds,
    derivative,
    find_speed,
    segment_profile,
    wave_at_speed,
)
from gradwave.speed import (
    gamma_at,
    gamma_zero_tol,
    seed_points,
    speed_subgrid,
    transfer_profile,
)
from conftest import make_grid


class TestFindSpeedScalar:
    def test_root_location(self, scalar_speed):
        res, _, _ = scalar_speed
        assert res.c_star == pytest.approx(0.6, abs=1e-2)

    def test_bracket_invariant(self, scalar_speed):
        res, _, _ = scalar_speed
        for c_lo, c_hi, g_lo, g_hi in res.bracket_history:
            assert g_lo < 0 < g_hi
            assert c_lo < c_hi

    def test_root_inside_analytic_bracket(self, scalar_speed, scalar_spec, scalar_consts):
        res, _, _ = scalar_speed
        b = compute_bounds(scalar_spec, scalar_consts, res.c_star)
        assert b.bracket_lo - 1e-6 < res.c_star <= b.bracket_hi + 1e-6

    def test_gamma_small_at_root(self, scalar_speed, scalar_consts):
        res, _, _ = scalar_speed
        assert abs(res.gamma_at_c_star) <= gamma_zero_tol(scalar_consts, res.c_star)


class TestFindSpeedDecoupled:
    def test_root_is_larger_parameter(self, decoupled_speed):
        res, _, _ = decoupled_speed
        assert res.c_star == pytest.approx(1.2, abs=1e-2)

    def test_root_at_least_smaller_parameter(self, decoupled_speed):
        # the root speed dominates the speed of every other known wave
        res, _, _ = decoupled_speed
        assert res.c_star >= 0.6

    def test_bracket_containment(self, decoupled_speed, decoupled_spec, decoupled_consts):
        res, _, _ = decoupled_speed
        b = compute_bounds(decoupled_spec, decoupled_consts, res.c_star)
        assert b.bracket_lo - 1e-6 < res.c_star <= b.bracket_hi + 1e-6

    def test_second_component_carries_the_front(self, decoupled_speed):
        res, _, _ = decoupled_speed
        u = res.profile.values
        assert np.max(np.abs(u[:, 0] - 1.0)) <= 1e-3  # first component stays at the well
        assert u[0, 1] == pytest.approx(-1.0, abs=1e-3)  # second transitions
        assert u[-1, 1] == pytest.approx(1.0, abs=1e-12)


class TestWaveAtSpeed:
    def test_scalar_wave_has_continuous_slope(self, scalar_spec, scalar_consts):
        grid = make_grid(scalar_consts, 0.6, h=0.01)
        prof = wave_at_speed(scalar_spec, scalar_consts, grid, 0.6,
                             MinimizeOptions(opt_tol=1e-6, restarts=0))
        der = derivative(prof)
        assert float(np.linalg.norm(der.right_at_zero - der.left_at_zero)) <= 5e-3

    def test_wrong_speed_rejected(self, scalar_spec, scalar_consts):
        grid = make_grid(scalar_consts, 0.9, h=0.02)
        with pytest.raises(NotAWaveError):
            wave_at_speed(scalar_spec, scalar_consts, grid, 0.9,
                          MinimizeOptions(opt_tol=1e-5, restarts=0))


class TestSubgrid:
    def test_subgrid_is_slice_with_zero(self, scalar_consts):
        g = Grid.uniform(-160.0, 25.0, 0.05)
        sub = speed_subgrid(g, scalar_consts, 1.0)
        assert sub.x_left >= -41.0
        assert sub.x_right <= 25.0
        assert 0.0 in sub.nodes

    def test_one_node_left_of_zero(self, scalar_consts):
        # the two-node margin left of 0 cannot reach below the first node
        g = Grid.uniform(-0.05, 30.0, 0.05)
        sub = speed_subgrid(g, scalar_consts, 0.6)
        assert sub.x_left == g.x_left
        assert sub.x_right <= 40.0 / 0.6
        assert sub.nodes[sub.index_zero] == 0.0

    def test_transfer_preserves_values_and_pins_end(self, scalar_spec, scalar_consts):
        g = Grid.uniform(-60.0, 20.0, 0.05)
        sub = speed_subgrid(g, scalar_consts, 1.2)
        p = segment_profile(scalar_spec, g, scalar_consts.point_a)
        q = transfer_profile(p, sub, scalar_spec.well_b)
        assert np.array_equal(q.values[-1], scalar_spec.well_b)
        mid = sub.index_zero
        assert q.values[mid, 0] == pytest.approx(p.values[g.index_zero, 0], abs=1e-12)


class TestGammaCurve:
    def test_each_point_lives_on_its_subgrid(self, scalar_curve, scalar_consts):
        c_list, curve, grid = scalar_curve
        for c, res in zip(c_list, curve):
            sub = speed_subgrid(grid, scalar_consts, c)
            assert np.array_equal(res.profile.grid.nodes, sub.nodes)

    def test_first_point_is_cold_gamma_at(self, scalar_curve, scalar_spec, scalar_consts):
        c_list, curve, grid = scalar_curve
        opts = MinimizeOptions(opt_tol=1e-6, restarts=0)
        cold = gamma_at(scalar_spec, scalar_consts, grid, c_list[0], opts,
                        seed_points(scalar_spec, scalar_consts))
        assert cold.gamma == curve[0].gamma
        assert np.array_equal(cold.profile.values, curve[0].profile.values)


def logged_find_speed(spec, consts, alter=None):
    """find_speed at h = 0.02 with every gamma_at call logged as (c, warm).

    ``alter(c, warm, result)``, when given, replaces what gamma_at returns.
    """
    calls = []
    real = speed.gamma_at

    def logged(spec, consts, grid, c, opts, wells, warm_from=None, penalty_kappa=1e3):
        res = real(spec, consts, grid, c, opts, wells, warm_from, penalty_kappa)
        warm = warm_from is not None
        calls.append((c, warm))
        return res if alter is None else alter(c, warm, res)

    bounds = compute_bounds(spec, consts, 1.0)
    grid = make_grid(consts, bounds.bracket_lo, h=0.02)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(speed, "gamma_at", logged)
        res = find_speed(spec, consts, grid, MinimizeOptions(restarts=0), 1e-3)
    return res, calls, bounds


@pytest.fixture(scope="module")
def scalar_logged(scalar_spec, scalar_consts):
    return logged_find_speed(scalar_spec, scalar_consts)


@pytest.fixture(scope="module")
def decoupled_logged(decoupled_spec, decoupled_consts):
    return logged_find_speed(decoupled_spec, decoupled_consts)


@pytest.fixture(params=["scalar_logged", "decoupled_logged"])
def logged(request):
    return request.getfixturevalue(request.param)


class TestSignCertificates:
    def test_no_descent_at_lower_bracket_end(self, logged):
        res, calls, bounds = logged
        c_lo, _, g_lo, _ = res.bracket_history[0]
        assert c_lo == bounds.bracket_lo and g_lo < 0
        assert all(c != bounds.bracket_lo for c, _ in calls)

    def test_one_cold_crosscheck_at_final_upper_end(self, logged):
        res, calls, _ = logged
        warm = {c for c, is_warm in calls if is_warm}
        checks = [c for c, is_warm in calls if not is_warm and c in warm]
        assert checks == [res.bracket_history[-1][1]]

    def test_wrong_warm_sign_resumes_bisection(self, scalar_logged, scalar_spec, scalar_consts):
        # warm probes just below the root report a positive energy; cold runs stay true
        c0 = scalar_logged[0].c_star
        flipped = []

        def flip(c, warm, res):
            if warm and c0 - 4e-3 < c < c0 and res.gamma < 0:
                flipped.append(c)
                return dataclasses.replace(res, gamma=-res.gamma)
            return res

        res, calls, _ = logged_find_speed(scalar_spec, scalar_consts, alter=flip)
        assert flipped
        assert abs(res.c_star - c0) <= 1e-3
        hist = res.bracket_history
        # a cold cross-check turned an upper end into a lower end
        uppers = {row[1] for row in hist}
        assert any(row[0] in uppers for row in hist)
        assert hist[-1][1] - hist[-1][0] <= 1e-3
        warm = {c for c, is_warm in calls if is_warm}
        checks = [c for c, is_warm in calls if not is_warm and c in warm]
        assert len(checks) <= len(flipped) + 1

    def test_fallback_without_negative_seed(self, scalar_logged, scalar_spec, scalar_consts,
                                            monkeypatch):
        class NoCertificate(speed.WeightedEnergy):
            def value(self, u):
                J, P, w = super().value(u)
                return abs(J) + 1.0, P, w

        monkeypatch.setattr(speed, "WeightedEnergy", NoCertificate)
        lo = compute_bounds(scalar_spec, scalar_consts, 1.0).bracket_lo

        def positive_at_lo(c, warm, res):
            return dataclasses.replace(res, gamma=abs(res.gamma)) if c == lo else res

        res, calls, _ = logged_find_speed(scalar_spec, scalar_consts, alter=positive_at_lo)
        # the cold probe ran at the analytic lower end, then once below it
        assert calls[:2] == [(lo, False), (lo / 1.5, False)]
        assert res.bracket_history[0][0] == lo / 1.5
        assert abs(res.c_star - scalar_logged[0].c_star) <= 1e-3


def test_cold_iterations_include_races(decoupled_spec, decoupled_consts, monkeypatch):
    runs = []
    real = minimize._descent

    def counted(spec, params, grid, values0, opts):
        out = real(spec, params, grid, values0, opts)
        runs.append((opts.max_iters, out[4]))
        return out

    monkeypatch.setattr(minimize, "_descent", counted)
    wells = seed_points(decoupled_spec, decoupled_consts)
    assert len(wells) == 3
    grid = make_grid(decoupled_consts, 1.0, h=0.05)
    res = gamma_at(decoupled_spec, decoupled_consts, grid, 1.5,
                   MinimizeOptions(opt_tol=1e-5, restarts=0), wells)
    race = [iters for cap, iters in runs if cap == 400]
    assert len(race) == 3
    assert res.iterations >= sum(race)
    assert res.iterations == sum(iters for _, iters in runs)

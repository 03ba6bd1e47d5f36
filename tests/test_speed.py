"""Root finding for the wave speed and the wave-at-speed accessor."""

import numpy as np
import pytest

from gradwave import (
    Grid,
    MinimizeOptions,
    NotAWaveError,
    compute_bounds,
    derivative,
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
        from gradwave import initial_profile

        p = initial_profile(scalar_spec, scalar_consts, g)
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

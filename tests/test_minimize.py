"""Constrained minimization: minimum-energy estimates and the speed sweep."""

import numpy as np
import pytest

from gradwave import (
    FunctionalParams,
    Grid,
    MinimizeOptions,
    Profile,
    WaveSolverError,
    compute_bounds,
    derivative,
    minimize_profile,
    segment_profile,
)
from gradwave.functional import WeightedEnergy, cell_weights
from gradwave.minimize import _factor_preconditioner
from gradwave.potential import PROJ_TOL
from gradwave.speed import speed_subgrid
from scipy.linalg.lapack import dpttrs
from conftest import make_grid


class TestMinimizeScalar:
    def test_gamma_vanishes_at_wave_speed(self, scalar_spec, scalar_consts):
        grid = make_grid(scalar_consts, 0.6)
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        res = minimize_profile(
            scalar_spec, scalar_consts, FunctionalParams(c=0.6), grid, init,
            MinimizeOptions(restarts=0),
        )
        assert abs(res.gamma) <= 2e-3
        # profile matches the exact wave after translation alignment
        u = res.profile.values[:, 0]
        x = grid.nodes
        s = np.arctanh(np.clip(u[grid.index_zero], -0.999999, 0.999999))
        err = np.max(np.abs(u - np.tanh(x + s)))
        assert err <= 1e-2
        assert res.converged
        assert res.feasibility_violation <= 1e-8

    def test_curve_signs(self, scalar_curve):
        c_list, results, _ = scalar_curve
        gammas = [r.gamma for r in results]
        assert gammas[0] < 0 and gammas[1] < 0  # c = 0.3, 0.45
        assert abs(gammas[2]) <= 2e-3  # c = 0.6
        assert gammas[3] > 0 and gammas[4] > 0  # c = 0.8, 1.0

    def test_curve_strictly_increasing(self, scalar_curve):
        _, results, _ = scalar_curve
        gammas = [r.gamma for r in results]
        assert all(b > a for a, b in zip(gammas, gammas[1:]))

    def test_curve_single_sign_change(self, scalar_curve):
        c_list, results, _ = scalar_curve
        signs = [r.gamma >= 0 for r in results]
        flips = [i for i in range(len(signs) - 1) if signs[i] != signs[i + 1]]
        assert len(flips) == 1
        assert 0.45 <= c_list[flips[0]] <= 0.8

    def test_lipschitz_quotient_bound(self, scalar_curve, scalar_consts):
        c_list, results, _ = scalar_curve
        m = scalar_consts.m
        for (c, rc), (a, ra) in zip(zip(c_list, results), zip(c_list[1:], results[1:])):
            if not a < 2 * c:
                continue
            quotient = (ra.gamma - rc.gamma) / (a - c)
            bound = (rc.gamma + m / c) / (2 * c - a) + m / (a * c)
            assert quotient <= 1.1 * bound

    def test_bounds_sandwich(self, scalar_curve):
        _, results, _ = scalar_curve
        for res in results:
            assert res.gamma >= res.bounds.lower - 1e-3
            assert res.gamma <= res.bounds.upper + 1e-3

    def test_left_tail_of_minimizers(self, scalar_spec, scalar_curve):
        _, results, _ = scalar_curve
        for res in results:
            x = res.profile.grid.nodes
            w = scalar_spec.value(res.profile.values)
            left = x <= 0
            assert np.min(w[left]) >= w[0] - 1e-2
            du = derivative(res.profile).values[0]
            grad_norm = float(np.linalg.norm(scalar_spec.gradient(res.profile.values[0])))
            assert grad_norm + float(np.linalg.norm(du)) <= 1e-2

    def test_node_zero_pinned(self, scalar_spec, scalar_curve):
        _, results, _ = scalar_curve
        for res in results:
            q = res.profile.values[res.profile.grid.index_zero]
            assert abs(float(scalar_spec.value(q))) <= PROJ_TOL

    def test_warm_matches_cold(self, scalar_spec, scalar_consts, scalar_curve):
        c_list, results, grid = scalar_curve
        idx = c_list.index(0.8)
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        cold = minimize_profile(
            scalar_spec, scalar_consts, FunctionalParams(c=0.8), grid, init,
            MinimizeOptions(opt_tol=1e-6, restarts=0),
        )
        assert abs(cold.gamma - results[idx].gamma) <= 5e-3

    def test_monotone_improvement_over_start(self, scalar_spec, scalar_consts):
        from gradwave.functional import objective

        grid = Grid.uniform(-30.0, 15.0, 0.02)
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        params = FunctionalParams(c=0.5)
        res = minimize_profile(scalar_spec, scalar_consts, params, grid, init,
                               MinimizeOptions(opt_tol=1e-6, restarts=0))
        assert res.gamma <= objective(scalar_spec, params, init) + 1e-12

    def test_non_convergence_flagged(self, scalar_spec, scalar_consts):
        grid = Grid.uniform(-20.0, 12.0, 0.05)
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        res = minimize_profile(
            scalar_spec, scalar_consts, FunctionalParams(c=0.5), grid, init,
            MinimizeOptions(max_iters=3, restarts=0),
        )
        assert not res.converged

    def test_refined_grid_solve(self, scalar_spec, scalar_consts):
        grid = Grid.refined(-30.0, 15.0, 0.05, h_min=0.01)
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        res = minimize_profile(
            scalar_spec, scalar_consts, FunctionalParams(c=0.6), grid, init,
            MinimizeOptions(opt_tol=1e-6, restarts=0),
        )
        assert abs(res.gamma) <= 2e-3
        assert res.feasibility_violation <= 1e-8

    def test_profiles_stay_in_inflated_box(self, scalar_spec, scalar_curve):
        lo = scalar_spec.bounding_box[:, 0]
        hi = scalar_spec.bounding_box[:, 1]
        center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        _, results, _ = scalar_curve
        for res in results:
            assert np.all(res.profile.values >= center - 1.1 * half)
            assert np.all(res.profile.values <= center + 1.1 * half)

    def test_doubling_the_domain_changes_little(self, scalar_spec, scalar_consts):
        opts = MinimizeOptions(opt_tol=1e-6, restarts=0)
        gammas = []
        for L in (40.0, 80.0):
            grid = Grid.uniform(-L / 0.5, 40.0 / 1.9, 0.02)
            init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
            res = minimize_profile(scalar_spec, scalar_consts, FunctionalParams(c=0.5),
                                   grid, init, opts)
            gammas.append(res.gamma)
        assert abs(gammas[1] - gammas[0]) <= 1e-6


class TestMultistart:
    def test_spread_reported(self, scalar_spec, scalar_consts):
        grid = Grid.uniform(-30.0, 15.0, 0.02)
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        res = minimize_profile(
            scalar_spec, scalar_consts, FunctionalParams(c=0.6), grid, init,
            MinimizeOptions(opt_tol=1e-6, restarts=2, seed=1),
        )
        assert res.multistart_spread >= 0.0
        assert not res.multistart_warning  # the scalar problem has one basin

    def test_deterministic_given_seed(self, scalar_spec, scalar_consts):
        grid = Grid.uniform(-25.0, 12.0, 0.02)
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        opts = MinimizeOptions(opt_tol=1e-6, restarts=2, seed=7)
        r1 = minimize_profile(scalar_spec, scalar_consts, FunctionalParams(c=0.7),
                              grid, init, opts)
        r2 = minimize_profile(scalar_spec, scalar_consts, FunctionalParams(c=0.7),
                              grid, init, opts)
        assert r1.gamma == r2.gamma
        assert np.array_equal(r1.profile.values, r2.profile.values)


class TestErrors:
    def test_infeasible_minimizer_rejected(self, scalar_spec, scalar_consts):
        # with an absurdly small tolerance even the roundoff-level negativity
        # of the flat right tail counts as a violation at convergence
        from gradwave import InfeasibleMinimizerError

        grid = Grid.uniform(-30.0, 15.0, 0.02)
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        with pytest.raises(InfeasibleMinimizerError):
            minimize_profile(
                scalar_spec, scalar_consts, FunctionalParams(c=0.6), grid, init,
                MinimizeOptions(opt_tol=1e-6, restarts=0, feas_tol=1e-30),
            )

    def test_energy_rejects_mismatched_well(self, scalar_spec):
        from gradwave import ContractViolationError, energy

        g = Grid.uniform(-5.0, 5.0, 0.1)
        vals = np.zeros((g.n_nodes, 1))
        p = Profile(grid=g, values=vals, well_b=np.array([0.0]))
        with pytest.raises(ContractViolationError):
            energy(scalar_spec, FunctionalParams(c=0.5), p)


class TestPreconditioner:
    @pytest.mark.parametrize("builtin, c", [("scalar", 0.6), ("decoupled", 1.2)])
    def test_solve_matches_dense(self, builtin, c, scalar_spec, decoupled_spec,
                                 scalar_consts, decoupled_consts):
        spec = scalar_spec if builtin == "scalar" else decoupled_spec
        consts = scalar_consts if builtin == "scalar" else decoupled_consts
        # the default truncation at a coarser spacing keeps the dense operator
        # small; the cell weights still span dozens of orders of magnitude
        lo = compute_bounds(spec, consts, 1.0).bracket_lo
        grid = speed_subgrid(make_grid(consts, lo, h=0.05), consts, c)
        params = FunctionalParams(c=c)
        sigma = 1.0 + float(np.linalg.eigvalsh(spec.hessian(spec.well_b))[0])
        d, e = _factor_preconditioner(WeightedEnergy(spec, params, grid), sigma)

        # weighted H^1 operator on the free nodes 0..N-2, assembled cell by cell
        E = cell_weights(grid, params)
        stiff = E / np.diff(grid.nodes) ** 2
        n = grid.n_nodes - 1
        A = np.zeros((n, n))
        for k in range(n):
            A[k, k] += stiff[k] + 0.5 * sigma * E[k]
            if k + 1 < n:
                A[k + 1, k + 1] += stiff[k] + 0.5 * sigma * E[k]
                A[k, k + 1] -= stiff[k]
                A[k + 1, k] -= stiff[k]
        rhs = np.random.default_rng(3).standard_normal((n, 2))
        sol, info = dpttrs(d, e, rhs)
        assert info == 0
        ref = np.linalg.solve(A, rhs)
        assert np.linalg.norm(sol - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_indefinite_operator_raises(self, scalar_spec):
        grid = Grid.uniform(-5.0, 5.0, 0.1)
        op = WeightedEnergy(scalar_spec, FunctionalParams(c=0.6), grid)
        with pytest.raises(WaveSolverError, match="dpttrf"):
            _factor_preconditioner(op, sigma=-1e3)

"""Constrained minimization: minimum-energy estimates and the speed sweep."""

import numpy as np
import pytest

from gradwave import (
    FunctionalParams,
    Grid,
    Profile,
    WaveSolverError,
    compute_bounds,
    derivative,
    minimize_profile,
    segment_profile,
)
from gradwave.functional import WeightedEnergy, cell_weights
import gradwave.minimize as minimize
from gradwave.minimize import (
    _ARMIJO_C1, _ARMIJO_SHRINK, _SHIFT_FIRST, _SHIFT_GROWTH, _SHIFT_MAX, FEAS_TOL, MAX_ITERS,
    OPT_TOL, PENALTY_KAPPA, _band_hessian, _descent, _factor_preconditioner,
    _newton_direction, _tangential,
)
from gradwave.potential import PROJ_TOL, project_to_zero_set
from gradwave.profile import translate_to_crossing
from gradwave.speed import speed_subgrid
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dpttrs
from conftest import make_grid
from test_functional import dip_profile


class TestMinimizeScalar:
    def test_gamma_vanishes_at_wave_speed(self, scalar_spec, scalar_consts):
        grid = make_grid(scalar_consts, 0.6)
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        res = minimize_profile(
            scalar_spec, scalar_consts, FunctionalParams(c=0.6), grid, init,
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
            1e-6,
        )
        assert abs(cold.gamma - results[idx].gamma) <= 5e-3

    def test_monotone_improvement_over_start(self, scalar_spec, scalar_consts):
        grid = Grid.uniform(-30.0, 15.0, 0.02)
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        params = FunctionalParams(c=0.5)
        res = minimize_profile(scalar_spec, scalar_consts, params, grid, init, 1e-6)
        J, P, _ = WeightedEnergy(scalar_spec, params, grid, PENALTY_KAPPA).value(init.values)
        assert res.gamma <= J + P + 1e-12

    def test_non_convergence_flagged(self, scalar_spec, scalar_consts, monkeypatch):
        monkeypatch.setattr(minimize, "MAX_ITERS", 3)
        grid = Grid.uniform(-20.0, 12.0, 0.05)
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        res = minimize_profile(
            scalar_spec, scalar_consts, FunctionalParams(c=0.5), grid, init,
        )
        assert not res.converged

    def test_refined_grid_solve(self, scalar_spec, scalar_consts):
        # graded nodes on [-30, 15]: 0.01 apart at 0, wider towards the ends
        grid = Grid(nodes=2.5 * np.sinh(0.004 * np.arange(-795, 623)))
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        res = minimize_profile(
            scalar_spec, scalar_consts, FunctionalParams(c=0.6), grid, init,
            1e-6,
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
        gammas = []
        for L in (40.0, 80.0):
            grid = Grid.uniform(-L / 0.5, 40.0 / 1.9, 0.02)
            init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
            res = minimize_profile(scalar_spec, scalar_consts, FunctionalParams(c=0.5),
                                   grid, init, 1e-6)
            gammas.append(res.gamma)
        assert abs(gammas[1] - gammas[0]) <= 1e-6


class TestMultistart:
    def test_deterministic_given_seed(self, scalar_spec, scalar_consts):
        # one descent per start, with nothing random in it: the same start
        # gives the same minimizer bit for bit
        grid = Grid.uniform(-25.0, 12.0, 0.02)
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        r1 = minimize_profile(scalar_spec, scalar_consts, FunctionalParams(c=0.7),
                              grid, init, 1e-6)
        r2 = minimize_profile(scalar_spec, scalar_consts, FunctionalParams(c=0.7),
                              grid, init, 1e-6)
        assert r1.gamma == r2.gamma
        assert np.array_equal(r1.profile.values, r2.profile.values)


class TestOptions:
    def test_defaults(self):
        # opt_tol is the one setting a caller passes; the others are constants
        assert (OPT_TOL, MAX_ITERS, FEAS_TOL, PENALTY_KAPPA) == (1e-8, 200_000, 1e-8, 1e3)

    @pytest.mark.parametrize("field, value", [
        ("opt_tol", 0.0), ("opt_tol", -1e-8), ("opt_tol", float("nan")),
    ])
    def test_rejects_out_of_range(self, field, value, scalar_spec, scalar_consts, monkeypatch):
        # NaN must fail too: no displacement norm is ever <= nan, so the
        # descent would run to its step cap; the check comes before any step
        from gradwave import ContractViolationError

        def no_descent(*args):
            raise AssertionError("a descent ran")

        monkeypatch.setattr(minimize, "_descent", no_descent)
        grid = Grid.uniform(-20.0, 12.0, 0.05)
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        with pytest.raises(ContractViolationError, match=field):
            minimize_profile(scalar_spec, scalar_consts, FunctionalParams(c=0.5), grid, init,
                             **{field: value})


class TestErrors:
    def test_infeasible_minimizer_rejected(self, monkeypatch):
        # with an absurdly small tolerance even the roundoff-level negativity
        # of the flat right tail counts as a violation at convergence; the
        # monomial table sums cancelling terms near the well, so it has some
        from gradwave import InfeasibleMinimizerError, compute_constants, user_polynomial

        alpha = 0.6
        terms = [(0.5, [4]), (-alpha / 3.0, [3]), (-1.0, [2]), (alpha, [1]),
                 (0.5 - 2.0 * alpha / 3.0, [0])]
        spec = user_polynomial(1, terms, [1.0], [[-2.0, 2.0]])
        consts = compute_constants(spec)
        grid = Grid.uniform(-30.0, 15.0, 0.02)
        init = segment_profile(spec, grid, consts.point_a)
        monkeypatch.setattr(minimize, "FEAS_TOL", 1e-30)
        with pytest.raises(InfeasibleMinimizerError):
            minimize_profile(spec, consts, FunctionalParams(c=0.6), grid, init, 1e-6)

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
        # the constant extension left of the first node adds its weight
        # e^{c x_0} / c to the mass of node 0
        A[0, 0] += sigma * np.exp(c * grid.nodes[0]) / c
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


def dense_from_band(ab):
    """Symmetric dense matrix of a lower band storage array."""
    n = ab.shape[1]
    A = np.zeros((n, n))
    for r in range(ab.shape[0]):
        j = np.arange(n - r)
        A[j + r, j] = ab[r, :n - r]
        A[j, j + r] = ab[r, :n - r]
    return A


def perturbed_profile(spec, consts):
    g = Grid.uniform(-6.0, 5.0, 0.1)
    base = segment_profile(spec, g, consts.point_a)
    vals = base.values + 0.15 * np.random.default_rng(11).standard_normal(base.values.shape)
    vals[-1] = base.well_b
    return base.with_values(vals), FunctionalParams(c=0.9), 50.0


class TestBandHessian:
    """The assembled Hessian against central differences of the exact gradient."""

    def check(self, spec, profile, params, kappa):
        op = WeightedEnergy(spec, params, profile.grid, kappa)
        u, iz, dim = profile.values, profile.grid.index_zero, spec.dim
        w = spec.value(u)
        g, dw = op.grad(u, w)
        A = dense_from_band(_band_hessian(op, u, w, dw, g[iz]))
        assert A.shape == ((u.shape[0] - 1) * dim,) * 2

        # a node iz at a critical point of W (as in dip_profile) is unconstrained
        nrm = float(np.linalg.norm(dw[iz]))
        nhat = dw[iz] / nrm if nrm > 0 else np.zeros(dim)
        proj = np.eye(dim) - np.outer(nhat, nhat)
        lam = float(g[iz] @ dw[iz]) / nrm**2 if nrm > 0 else 0.0
        v = np.random.default_rng(5).standard_normal(u.shape)
        v[-1] = 0.0
        v[iz] = proj @ v[iz]
        eps = 1e-6
        up, um = u + eps * v, u - eps * v
        fd = (op.grad(up, spec.value(up))[0] - op.grad(um, spec.value(um))[0]) / (2 * eps)
        # at node iz: the Lagrangian's Hessian, restricted to the tangent space
        dn = (spec.gradient(up[iz]) - spec.gradient(um[iz])) / (2 * eps)
        fd[iz] = proj @ (fd[iz] - lam * dn)
        Av = (A @ v[:-1].ravel()).reshape(-1, dim)
        for got, want in zip(Av.ravel(), fd[:-1].ravel()):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-7)

        if nrm > 0:
            # the normal direction at node iz maps to itself and couples to nothing
            e = np.zeros_like(u[:-1])
            e[iz] = nhat
            Ae = (A @ e.ravel()).reshape(-1, dim)
            np.testing.assert_allclose(Ae, e, rtol=0, atol=1e-12)
        return op, w

    @pytest.mark.parametrize("builtin", ["scalar", "decoupled"])
    def test_matches_gradient_differences(self, builtin, scalar_spec, decoupled_spec,
                                          scalar_consts, decoupled_consts):
        spec = scalar_spec if builtin == "scalar" else decoupled_spec
        consts = scalar_consts if builtin == "scalar" else decoupled_consts
        self.check(spec, *perturbed_profile(spec, consts))

    def test_matches_with_active_penalty(self, scalar_spec):
        profile, dip = dip_profile(scalar_spec)
        op, w = self.check(scalar_spec, profile, FunctionalParams(c=1.0), 10.0)
        assert np.all(w[dip] < 0) and op.kappa > 0

    def test_indefinite_hessian_shifted_by_lumped_mass(self, scalar_spec):
        # -I has no Cholesky factor; the step solves (-I + sigma diag(lump)) d = g
        grid = Grid.uniform(-2.0, 2.0, 0.1)
        op = WeightedEnergy(scalar_spec, FunctionalParams(c=0.6), grid)
        ab = -np.ones((2, grid.n_nodes - 1))
        ab[1] = 0.0
        g = np.random.default_rng(2).uniform(0.5, 1.0, (grid.n_nodes, 1))
        d = _newton_direction(op, ab, g)
        assert d[-1, 0] == 0.0 and float(np.vdot(g, d)) > 0.0
        sigma = (g[:-1, 0] / d[:-1, 0] + 1.0) / op.lump[:-1, 0]
        np.testing.assert_allclose(sigma, sigma[0], rtol=1e-12)
        assert sigma[0] > 1.0 / op.lump[:-1, 0].min()


def reference_newton_direction(op, ab, g):
    """The Newton direction as first written, factored by scipy's cholesky_banded."""
    shift = op.lump[:-1].ravel()
    sigma = 0.0
    while sigma <= _SHIFT_MAX:
        shifted = ab
        if sigma > 0.0:
            shifted = ab.copy()
            shifted[0] += sigma * shift
        try:
            factor = cholesky_banded(shifted, lower=True)
        except (np.linalg.LinAlgError, ValueError):
            sigma = _SHIFT_FIRST if sigma == 0.0 else sigma * _SHIFT_GROWTH
            continue
        d = np.zeros_like(g)
        d[:-1] = cho_solve_banded((factor, True), g[:-1].ravel()).reshape(-1, g.shape[1])
        return d
    return None


class TestBareBandFactorisation:
    """The Newton direction through bare dpbtrf equals the cholesky_banded path bit for bit."""

    def system(self, spec, consts, hilltop):
        # left of 0 the hilltop profile sits where W'' < 0, which makes the
        # Hessian indefinite
        profile, params, kappa = perturbed_profile(spec, consts)
        u, iz = profile.values.copy(), profile.grid.index_zero
        if hilltop:
            u[:iz] = 0.3
        op = WeightedEnergy(spec, params, profile.grid, kappa)
        w = spec.value(u)
        g, dw = op.grad(u, w)
        return op, _band_hessian(op, u, w, dw, g[iz]), g

    @pytest.mark.parametrize("builtin", ["scalar", "decoupled"])
    @pytest.mark.parametrize("hilltop", [False, True])
    def test_direction_bit_equal(self, builtin, hilltop, scalar_spec, decoupled_spec,
                                 scalar_consts, decoupled_consts):
        spec = scalar_spec if builtin == "scalar" else decoupled_spec
        consts = scalar_consts if builtin == "scalar" else decoupled_consts
        op, ab, g = self.system(spec, consts, hilltop)
        if hilltop:
            with pytest.raises(np.linalg.LinAlgError):
                cholesky_banded(ab, lower=True)
        else:
            cholesky_banded(ab, lower=True)
        got, want = _newton_direction(op, ab, g), reference_newton_direction(op, ab, g)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_hessian_has_no_direction(self, bad, decoupled_spec, decoupled_consts):
        op, ab, g = self.system(decoupled_spec, decoupled_consts, False)
        ab[0, 7] = bad
        assert reference_newton_direction(op, ab, g) is None
        assert _newton_direction(op, ab, g) is None

    def test_descent_solves_through_the_module_global(self, scalar_spec, scalar_consts,
                                                      monkeypatch):
        # the benchmark counts band solves by replacing this global, so the
        # descent must call it by that name: one call per Newton step whose
        # factorisation succeeded, and the same minimizer bit for bit
        import gradwave.minimize as mz

        grid = Grid.uniform(-20.0, 12.0, 0.05)
        init = segment_profile(scalar_spec, grid, scalar_consts.point_a)
        args = (scalar_spec, scalar_consts, FunctionalParams(c=0.5), grid, init, 1e-6)
        plain = minimize_profile(*args)
        counts = {"solves": 0, "factored": 0}

        def counted_solve(*a, **k):
            counts["solves"] += 1
            return solve(*a, **k)

        def counted_direction(*a, **k):
            d = direction(*a, **k)
            counts["factored"] += d is not None
            return d

        solve, direction = mz.cho_solve_banded, mz._newton_direction
        monkeypatch.setattr(mz, "cho_solve_banded", counted_solve)
        monkeypatch.setattr(mz, "_newton_direction", counted_direction)
        traced = minimize_profile(*args)
        assert counts["solves"] == counts["factored"] > 0
        assert traced.iterations == plain.iterations
        assert traced.gamma == plain.gamma
        assert traced.profile.values.tobytes() == plain.profile.values.tobytes()


def first_order_descent(spec, params, grid, values0, opt_tol, max_iters):
    """Reference: the projected H^1-preconditioned gradient descent, verbatim.

    Steps along the weighted H^1 gradient with Armijo backtracking, a
    step-growth rule and a plateau detector; the stopping test is the one
    ``_descent`` keeps.
    """
    _RETRANSLATE_TRIGGER = 1e-3
    _STEP_CAP = 8.0
    _FLOOR_PG_CAP = 1e-5
    _PLATEAU_SPAN = 60
    _PLATEAU_F_GAIN = 3e-11
    op = WeightedEnergy(spec, params, grid, PENALTY_KAPPA)
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

    for iterations in range(1, max_iters + 1):
        g, dw = op.grad(u, w)
        nu0 = dw[iz]
        g[iz] = _tangential(g[iz], nu0)

        d = np.empty_like(u)
        d[:-1] = dpttrs(d_fac, e_fac, g[:-1])[0]
        d[-1] = 0.0
        d[iz] = _tangential(d[iz], nu0)

        pg_norm = float(np.sqrt(np.vdot(op.lump * d, d)))
        if pg_norm <= opt_tol:
            converged = True
            break

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
                t *= _ARMIJO_SHRINK
                n_back += 1
                continue
            J_t, P_t, w_t = op.value(trial)
            if J_t + P_t <= F - _ARMIJO_C1 * t * slope:
                u, J, P, w, F = trial, J_t, P_t, w_t, J_t + P_t
                accepted = True
                break
            t *= _ARMIJO_SHRINK
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


@pytest.mark.parametrize("builtin, c", [
    ("scalar", 0.4), ("scalar", 0.6), ("scalar", 0.9),
    ("decoupled", 0.8), ("decoupled", 1.2), ("decoupled", 2.0),
])
def test_newton_matches_first_order_descent(builtin, c, scalar_spec, decoupled_spec,
                                            scalar_consts, decoupled_consts):
    spec = scalar_spec if builtin == "scalar" else decoupled_spec
    consts = scalar_consts if builtin == "scalar" else decoupled_consts
    # the decoupled wave leaves the well (1, -1); a seed there needs no front shed
    left = consts.point_a if builtin == "scalar" else np.array([1.0, -1.0])
    grid = speed_subgrid(make_grid(consts, c, h=0.05), consts, c)
    start = translate_to_crossing(spec, segment_profile(spec, grid, left)).values
    params, tols = FunctionalParams(c=c), (OPT_TOL, MAX_ITERS)
    *_, ref_iters, ref_conv = ref = first_order_descent(spec, params, grid, start, *tols)
    *_, iters, conv = got = _descent(spec, params, grid, start, *tols)
    assert conv and ref_conv
    assert iters * 10 <= ref_iters
    assert abs(got[1] - ref[1]) <= 1e-8 * (1.0 + abs(ref[1]))

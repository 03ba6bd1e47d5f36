"""Weighted energy, penalty, exact gradient, and analytic bounds."""

import numpy as np
import pytest

from gradwave import (
    FunctionalParams,
    Grid,
    Profile,
    WeightedEnergy,
    WeightOverflowError,
    compute_bounds,
    energy,
    segment_profile,
    shift,
)
from conftest import J_WAVE_C03, PENALTY_CELL, X0_TANH


def objective(op, values):
    """Energy plus penalty, the quantity the minimizer descends."""
    J, P, _ = op.value(values)
    return J + P


def gradient(op, values):
    return op.grad(values, op.spec.value(values))[0]


def dip_profile(spec):
    """Profile at b = 1 except u with W(u) = -0.1 on [1, 2], right of 0."""
    lo, hi = -0.999, 0.5
    for _ in range(200):  # u with W(u) = -0.1 on the negative slope
        mid = 0.5 * (lo + hi)
        if float(spec.value(np.array([mid]))) < -0.1:
            lo = mid
        else:
            hi = mid
    g = Grid.uniform(-3.0, 4.0, 0.01)
    vals = np.ones((g.n_nodes, 1))
    inside = (g.nodes >= 1.0) & (g.nodes <= 2.0)
    vals[inside, 0] = 0.5 * (lo + hi)
    return Profile(grid=g, values=vals, well_b=np.array([1.0])), np.nonzero(inside)[0]


def analytic_profile(h=0.002, x_left=-70.0, x_right=25.0, shift_x=X0_TANH):
    grid = Grid.uniform(x_left, x_right, h)
    vals = np.tanh(grid.nodes + shift_x)[:, None]
    vals[-1] = 1.0
    return Profile(grid=grid, values=vals, well_b=np.array([1.0]))


class TestEnergy:
    def test_constant_reference_profile_is_zero(self, scalar_spec):
        g = Grid.uniform(-10.0, 10.0, 0.05)
        p = Profile(grid=g, values=np.ones((g.n_nodes, 1)), well_b=np.array([1.0]))
        assert energy(scalar_spec, FunctionalParams(c=0.7), p) == pytest.approx(0.0, abs=1e-12)

    def test_wave_energy_vanishes_at_its_speed(self, scalar_spec):
        p = analytic_profile()
        val = energy(scalar_spec, FunctionalParams(c=0.6), p)
        assert abs(val) <= 1e-6

    def test_wave_energy_below_speed_matches_quadrature(self, scalar_spec):
        p = analytic_profile()
        val = energy(scalar_spec, FunctionalParams(c=0.3), p)
        assert val == pytest.approx(J_WAVE_C03, abs=1e-6)
        assert val < 0

    def test_quadrature_second_order(self, scalar_spec):
        params = FunctionalParams(c=0.45)
        vals = [energy(scalar_spec, params, analytic_profile(h=h)) for h in (0.04, 0.02, 0.01)]
        d1, d2 = abs(vals[0] - vals[1]), abs(vals[1] - vals[2])
        assert d2 <= d1  # shrinking increments under refinement
        assert d1 / max(d2, 1e-16) > 2.0  # consistent with second order

    def test_translation_identity(self, scalar_spec):
        p = analytic_profile(h=0.01)
        c = 0.45
        base = energy(scalar_spec, FunctionalParams(c=c), p)
        for s in (-0.25, 0.25):
            shifted = energy(scalar_spec, FunctionalParams(c=c), shift(p, s))
            assert shifted == pytest.approx(np.exp(-c * s) * base, rel=1e-3, abs=1e-4)

    def test_tail_is_the_constant_extension(self, scalar_spec):
        # a profile constant left of -5 has the same energy on a grid cut at
        # -5 as on one cut at -30: the tail term is that constant's energy
        p = analytic_profile(h=0.05, x_left=-30.0)
        vals = p.values.copy()
        i5 = p.grid.index_zero - 100
        vals[:i5] = vals[i5]
        short = Profile(grid=Grid(nodes=p.grid.nodes[i5:]), values=vals[i5:], well_b=p.well_b)
        for c in (0.3, 0.6, 1.2):
            params = FunctionalParams(c=c)
            assert energy(scalar_spec, params, short) == pytest.approx(
                energy(scalar_spec, params, p.with_values(vals)), abs=1e-13)

    def test_overflow_guard(self, scalar_spec):
        g = Grid.uniform(-5.0, 1050.0, 1.0)
        p = Profile(grid=g, values=np.ones((g.n_nodes, 1)), well_b=np.array([1.0]))
        with pytest.raises(WeightOverflowError):
            energy(scalar_spec, FunctionalParams(c=0.7), p)

    def test_energy_respects_lower_bound(self, scalar_spec, scalar_consts):
        g = Grid.uniform(-60.0, 20.0, 0.01)
        p = segment_profile(scalar_spec, g, scalar_consts.point_a)
        for c in (0.3, 0.6, 1.0):
            val = energy(scalar_spec, FunctionalParams(c=c), p)
            assert val >= compute_bounds(scalar_spec, scalar_consts, c).lower - 1e-3


class TestPenalty:
    def test_feasible_profile_no_penalty(self, scalar_spec, scalar_consts):
        g = Grid.uniform(-30.0, 15.0, 0.01)
        p = segment_profile(scalar_spec, g, scalar_consts.point_a)
        op = WeightedEnergy(scalar_spec, FunctionalParams(c=1.0), g, kappa=1e3)
        assert op.value(p.values)[1] == pytest.approx(0.0, abs=1e-16)

    def test_dip_cell_matches_closed_form(self, scalar_spec):
        # potential dips to -0.1 on the cell [1, 2]; closed-form weight
        # integral gives kappa * 0.01 * (e^2 - e)
        p, _ = dip_profile(scalar_spec)
        pen = WeightedEnergy(scalar_spec, FunctionalParams(c=1.0), p.grid, kappa=10.0).value(p.values)[1]
        assert pen == pytest.approx(PENALTY_CELL, abs=0.02)

    def test_zero_kappa(self, scalar_spec, scalar_consts):
        g = Grid.uniform(-10.0, 5.0, 0.05)
        p = segment_profile(scalar_spec, g, scalar_consts.point_a)
        vals = p.values.copy()
        vals[g.index_zero + 10] = -0.5  # force an infeasible dip
        p2 = p.with_values(vals)
        assert WeightedEnergy(scalar_spec, FunctionalParams(c=1.0), g).value(p2.values)[1] == 0.0


class TestGradient:
    @pytest.mark.parametrize("builtin", ["scalar", "decoupled"])
    def test_matches_finite_differences(self, builtin, scalar_spec, decoupled_spec,
                                        scalar_consts, decoupled_consts):
        spec = scalar_spec if builtin == "scalar" else decoupled_spec
        consts = scalar_consts if builtin == "scalar" else decoupled_consts
        g = Grid.uniform(-6.0, 5.0, 0.1)
        base = segment_profile(spec, g, consts.point_a)
        rng = np.random.default_rng(11)
        op = WeightedEnergy(spec, FunctionalParams(c=0.9), g, kappa=50.0)
        for _ in range(3):
            vals = base.values + 0.15 * rng.standard_normal(base.values.shape)
            vals[-1] = base.well_b
            grad = gradient(op, vals)
            assert np.max(np.abs(grad[-1])) == 0.0
            eps = 1e-6
            for i in rng.choice(g.n_nodes - 1, size=12, replace=False):
                for k in range(spec.dim):
                    vp, vm = vals.copy(), vals.copy()
                    vp[i, k] += eps
                    vm[i, k] -= eps
                    fd = (objective(op, vp) - objective(op, vm)) / (2 * eps)
                    assert grad[i, k] == pytest.approx(fd, rel=1e-6, abs=1e-7)

    def test_matches_with_active_penalty(self, scalar_spec):
        p, dip = dip_profile(scalar_spec)
        op = WeightedEnergy(scalar_spec, FunctionalParams(c=1.0), p.grid, kappa=10.0)
        assert op.value(p.values)[1] > 0
        grad = gradient(op, p.values)
        eps = 1e-6
        for i in dip:
            vp, vm = p.values.copy(), p.values.copy()
            vp[i, 0] += eps
            vm[i, 0] -= eps
            fd = (objective(op, vp) - objective(op, vm)) / (2 * eps)
            assert grad[i, 0] == pytest.approx(fd, rel=1e-6, abs=1e-7)

    def test_matches_on_refined_grid(self, scalar_spec, scalar_consts):
        # graded nodes: 0.02 apart at 0, about 0.2 apart at the left end
        g = Grid(nodes=0.5 * np.sinh(0.04 * np.arange(-75, 71)))
        p = segment_profile(scalar_spec, g, scalar_consts.point_a)
        op = WeightedEnergy(scalar_spec, FunctionalParams(c=0.7), g, kappa=1e3)
        grad = gradient(op, p.values)
        rng = np.random.default_rng(5)
        eps = 1e-6
        for i in rng.choice(g.n_nodes - 1, size=10, replace=False):
            vp, vm = p.values.copy(), p.values.copy()
            vp[i, 0] += eps
            vm[i, 0] -= eps
            fd = (objective(op, vp) - objective(op, vm)) / (2 * eps)
            assert grad[i, 0] == pytest.approx(fd, rel=1e-6, abs=1e-7)

    def test_first_node_carries_the_tail(self, scalar_spec, scalar_consts):
        # on a short grid the tail weight e^{c x_0} / c is most of node 0's
        # lumped weight, and the gradient there includes it
        g = Grid.uniform(-2.0, 3.0, 0.1)
        p = segment_profile(scalar_spec, g, scalar_consts.point_a)
        vals = p.values + 0.1
        vals[-1] = p.well_b
        op = WeightedEnergy(scalar_spec, FunctionalParams(c=0.7), g)
        assert op.lump[0, 0] == 0.5 * op.E[0] + float(np.exp(0.7 * g.nodes[0])) / 0.7
        vp, vm = vals.copy(), vals.copy()
        vp[0, 0] += 1e-6
        vm[0, 0] -= 1e-6
        fd = (objective(op, vp) - objective(op, vm)) / 2e-6
        assert gradient(op, vals)[0, 0] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestBounds:
    def test_scalar_bracket_values(self, scalar_spec, scalar_consts):
        b = compute_bounds(scalar_spec, scalar_consts, 0.6)
        assert b.bracket_lo == pytest.approx(0.25041016072819, abs=1e-6)
        assert b.bracket_hi == pytest.approx(1.11281678352048, abs=1e-6)
        assert b.bracket_lo < 0.6 <= b.bracket_hi

    def test_decoupled_bracket_contains_root(self, decoupled_spec, decoupled_consts):
        b = compute_bounds(decoupled_spec, decoupled_consts, 1.2)
        assert b.bracket_lo == pytest.approx(0.3414446669662, abs=1e-6)
        assert b.bracket_hi == pytest.approx(3.53253101652054, abs=1e-6)
        assert b.bracket_lo < 1.2 <= b.bracket_hi

    def test_lower_bound_diverges_at_small_speed(self, scalar_spec, scalar_consts):
        cs = [10 ** (-k) for k in range(0, 6)]
        lowers = [compute_bounds(scalar_spec, scalar_consts, c).lower for c in cs]
        assert all(b < a for a, b in zip(lowers, lowers[1:]))
        assert lowers[-1] < -1e4

    def test_lower_below_upper(self, scalar_spec, scalar_consts):
        for c in (0.2, 0.5, 1.0, 2.0):
            b = compute_bounds(scalar_spec, scalar_consts, c)
            assert b.lower < b.upper

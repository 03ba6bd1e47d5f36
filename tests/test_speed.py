"""Root finding for the wave speed, and the minimum-energy solves it runs."""

import dataclasses

import numpy as np
import pytest

import gradwave.minimize as minimize
import gradwave.speed as speed
from gradwave import (
    BracketFailureError,
    Grid,
    MinimizeOptions,
    compute_bounds,
    compute_constants,
    derivative,
    find_speed,
    gamma_curve,
    segment_profile,
    user_polynomial,
)
from gradwave.functional import decay_rate
from gradwave.speed import Probes, seed_points, speed_subgrid, transfer_profile
from gradwave.verify import run_verify
from conftest import make_grid, quartic_well_terms


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
        # zero to within the energy's natural size, 1 + m / c
        assert abs(res.gamma_at_c_star) <= 5e-3 * (1.0 + scalar_consts.m / res.c_star)

    def test_replaced_gamma_result_leaves_no_stale_copy(self, scalar_speed, scalar_curve):
        # the energy and the profile at c* are read from gamma_result
        res, _, _ = scalar_speed
        other = scalar_curve[1][0]
        moved = dataclasses.replace(res, gamma_result=other)
        assert moved.gamma_at_c_star == other.gamma != res.gamma_at_c_star
        assert moved.profile is other.profile
        assert moved.as_dict()["gamma_at_c_star"] == other.gamma


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


POLY_C_TOL = 1e-3


def poly_speed(spec, h):
    """``find_speed`` at ``POLY_C_TOL``, and whether the wave verifies."""
    consts = compute_constants(spec)
    grid = make_grid(consts, compute_bounds(spec, consts, 1.0).bracket_lo, h=h)
    res = find_speed(spec, consts, grid, MinimizeOptions(), POLY_C_TOL)
    return res.c_star, run_verify(spec, consts, res.c_star, res.profile,
                                  res.gamma_at_c_star).passed


@pytest.fixture(scope="module")
def builtin_decoupled_c_star(decoupled_spec):
    c_star, passed = poly_speed(decoupled_spec, 0.02)
    assert passed
    return c_star


class TestFindSpeedPolynomial:
    """``find_speed`` on term tables, where the shooting runs the compiled kernel."""

    @pytest.mark.parametrize("speeds", [(0.6, 1.2), (1.2, 0.6)])
    def test_expanded_decoupled_matches_builtin(self, speeds, builtin_decoupled_c_star):
        spec = user_polynomial(2, quartic_well_terms(speeds), [1.0, 1.0], [[-2.0, 2.0]] * 2)
        c_star, passed = poly_speed(spec, 0.02)
        assert abs(c_star - builtin_decoupled_c_star) <= POLY_C_TOL
        assert passed

    def test_scaled_potential_scales_the_speed(self):
        # k^2 W has the waves u(k x) at speed k c*; on a grid k times finer the
        # scaled profile is sampled as the unscaled one is at h = 0.02
        k = 1.5
        terms = [(k * k * c, exps) for c, exps in quartic_well_terms((0.6, 1.2))]
        spec = user_polynomial(2, terms, [1.0, 1.0], [[-2.0, 2.0]] * 2)
        c_star, passed = poly_speed(spec, 0.02 / k)
        assert abs(c_star - k * 1.2) <= POLY_C_TOL
        assert passed


class TestWaveAtSpeed:
    """The minimizer at a known wave speed, from a one-speed ``gamma_curve``."""

    def test_scalar_wave_has_continuous_slope(self, scalar_spec, scalar_consts):
        grid = make_grid(scalar_consts, 0.6, h=0.01)
        res, = gamma_curve(scalar_spec, scalar_consts, grid, [0.6], MinimizeOptions(opt_tol=1e-6))
        der = derivative(res.profile)
        assert float(np.linalg.norm(der.right_at_zero - der.left_at_zero)) <= 5e-3


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
        q = transfer_profile(p, sub)
        assert np.array_equal(q.values[-1], scalar_spec.well_b)
        mid = sub.index_zero
        assert q.values[mid, 0] == pytest.approx(p.values[g.index_zero, 0], abs=1e-12)


def old_grid_bounds(consts, c):
    """The left end before it was sized by the energy it drops."""
    return -40.0 / c, 40.0 / decay_rate(consts, c)


@pytest.fixture(scope="module")
def truncation_cases(scalar_spec, scalar_consts, decoupled_spec, decoupled_consts):
    poly3 = user_polynomial(3, quartic_well_terms((0.6, 0.9, 1.2)), [1.0] * 3, [[-2.0, 2.0]] * 3)
    return {"scalar": (scalar_spec, scalar_consts), "decoupled": (decoupled_spec, decoupled_consts),
            "poly3": (poly3, compute_constants(poly3))}


class TestTruncation:
    """The left end drops at most ``TRUNCATION_EPS`` of the minimum energy."""

    @pytest.mark.parametrize("builtin", ["scalar", "decoupled"])
    def test_left_end_drops_eps(self, builtin, request):
        consts = request.getfixturevalue(f"{builtin}_consts")
        ends = []
        for c in (0.25, 0.6, 1.2, 3.0):
            xl, xr = speed.auto_grid_bounds(consts, c)
            assert consts.m * np.exp(c * xl) / c == pytest.approx(speed.TRUNCATION_EPS, rel=1e-12)
            assert xr == 40.0 / decay_rate(consts, c)
            ends.append(xl)
        # the range for a larger speed lies inside that for a smaller one
        assert all(a < b < 0 for a, b in zip(ends, ends[1:]))

    def test_shallow_well_keeps_one_weight_length(self, scalar_consts):
        # m / c below eps would put the estimate's end right of 0
        shallow = dataclasses.replace(scalar_consts, m=1e-12)
        assert speed.auto_grid_bounds(shallow, 0.5)[0] == -1.0 / 0.5

    @pytest.mark.parametrize("name", ["scalar", "decoupled", "poly3"])
    def test_gamma_shift_is_the_dropped_tail(self, name, truncation_cases, monkeypatch):
        # the old range holds the tail left of the new end, where the profile
        # sits at a well: the energy differs by |W(u_0)| e^{c x_0} / c
        spec, consts = truncation_cases[name]
        c_list, opts = [0.8, 1.5], MinimizeOptions(opt_tol=1e-10)
        new = gamma_curve(spec, consts, make_grid(consts, 0.8, h=0.02), c_list, opts)
        monkeypatch.setattr(speed, "auto_grid_bounds", old_grid_bounds)
        grid = Grid.uniform(*old_grid_bounds(consts, 0.8), 0.02)
        old = gamma_curve(spec, consts, grid, c_list, opts)
        for c, res, ref in zip(c_list, new, old):
            assert res.converged and ref.converged
            x0, u0 = res.profile.grid.x_left, res.profile.values[0]
            tail = abs(float(spec.value(u0))) * np.exp(c * x0) / c
            assert 0 < res.gamma - ref.gamma == pytest.approx(tail, rel=1e-2)

    @pytest.mark.parametrize("builtin", ["scalar", "decoupled"])
    def test_c_star_unmoved_at_tight_tolerance(self, builtin, request, monkeypatch):
        spec = request.getfixturevalue(f"{builtin}_spec")
        consts = request.getfixturevalue(f"{builtin}_consts")
        lo = compute_bounds(spec, consts, 1.0).bracket_lo
        opts = MinimizeOptions(opt_tol=1e-10)
        c_stars = []
        for rule in (speed.auto_grid_bounds, old_grid_bounds):
            monkeypatch.setattr(speed, "auto_grid_bounds", rule)
            res = find_speed(spec, consts, Grid.uniform(*rule(consts, lo), 0.02), opts, 1e-8)
            assert run_verify(spec, consts, res.c_star, res.profile, res.gamma_at_c_star).passed
            c_stars.append(res.c_star)
        assert abs(c_stars[0] - c_stars[1]) <= 1e-9


class TestGammaCurve:
    def test_each_point_lives_on_its_subgrid(self, scalar_curve, scalar_consts):
        c_list, curve, grid = scalar_curve
        for c, res in zip(c_list, curve):
            sub = speed_subgrid(grid, scalar_consts, c)
            assert np.array_equal(res.profile.grid.nodes, sub.nodes)

    def test_warm_chain_from_the_previous_speed(self, scalar_spec, scalar_consts, monkeypatch):
        # the first speed is raced cold; each later one starts from the one before
        calls = []
        real = Probes.solve

        def logged(self, c, start=None, opts=None):
            calls.append((c, start))
            return real(self, c, start, opts)

        monkeypatch.setattr(Probes, "solve", logged)
        c_list = [0.3, 0.45, 0.6, 0.8]
        grid = make_grid(scalar_consts, c_list[0], h=0.05)
        opts = MinimizeOptions(opt_tol=1e-5)
        curve = gamma_curve(scalar_spec, scalar_consts, grid, c_list, opts)
        assert calls == [(c_list[0], None)] + list(zip(c_list[1:], c_list[:-1]))
        cold = Probes(scalar_spec, scalar_consts, grid, opts).solve(c_list[0])
        assert cold.gamma == curve[0].gamma
        assert np.array_equal(cold.profile.values, curve[0].profile.values)


def logged_find_speed(spec, consts, alter=None, cold_final=False):
    """find_speed at h = 0.02 with every Probes.solve call logged as (c, warm).

    ``alter(c, warm, result)``, when given, replaces what a solve records
    and returns.  ``cold_final`` races the final solve cold from every well
    instead of starting it from the cold minimizer at the final upper end.
    """
    calls = []
    real = speed.Probes.solve
    final_opts = MinimizeOptions()

    def logged(self, c, start=None, opts=None):
        if cold_final and opts is final_opts:
            # the probes run on the engine's copy with a looser tolerance;
            # the final solve passes the caller's options
            start = None
        res = real(self, c, start, opts)
        warm = start is not None
        calls.append((c, warm))
        if alter is not None:
            res = self.results[c] = alter(c, warm, res)
        return res

    bounds = compute_bounds(spec, consts, 1.0)
    grid = make_grid(consts, bounds.bracket_lo, h=0.02)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(speed.Probes, "solve", logged)
        res = find_speed(spec, consts, grid, final_opts, 1e-3)
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


class NoCertificate(speed.WeightedEnergy):
    """The weighted energy shifted above 0: no start certifies a negative sign."""

    def value(self, u):
        J, P, w = super().value(u)
        return abs(J) + 1.0, P, w


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

    def test_wrong_warm_sign_resumes_bisection(self, scalar_logged, scalar_spec, scalar_consts,
                                               monkeypatch):
        # warm probes just below the root report a positive energy; cold runs
        # stay true.  A certificate would settle those probes before any
        # descent, so none is issued here.
        monkeypatch.setattr(speed, "WeightedEnergy", NoCertificate)
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

    @pytest.mark.parametrize("builtin", ["scalar", "decoupled"])
    def test_certificates_change_no_sign(self, builtin, request, monkeypatch):
        spec = request.getfixturevalue(f"{builtin}_spec")
        consts = request.getfixturevalue(f"{builtin}_consts")
        res, calls, _ = request.getfixturevalue(f"{builtin}_logged")
        # the reference descends at every interior probe; the lower end keeps
        # its seed bound
        real = speed.Probes.bound

        def seeds_only(self, c, start=None):
            return None if start is not None else real(self, c)

        monkeypatch.setattr(speed.Probes, "bound", seeds_only)
        ref, _, _ = logged_find_speed(spec, consts)
        assert res.c_star == ref.c_star
        assert res.gamma_at_c_star == ref.gamma_at_c_star
        assert res.profile.values.tobytes() == ref.profile.values.tobytes()
        assert len(res.bracket_history) == len(ref.bracket_history)
        for (c_lo, c_hi, g_lo, g_hi), (r_lo, r_hi, rg_lo, rg_hi) in zip(
                res.bracket_history, ref.bracket_history):
            assert (c_lo, c_hi) == (r_lo, r_hi)
            # on the scalar well the probe at 0.60076 starts warm from the
            # nearest descended speed: 0.62771 with certificates, 0.59992
            # without.  The two starts reach the same minimizer, to roundoff
            # (2.2e-16 apart)
            assert g_hi == pytest.approx(rg_hi, rel=1e-12)
            # a certificate is an upper bound on the minimum energy
            assert rg_lo <= g_lo < 0
        if builtin == "scalar":
            # every negative warm start certifies its sign: only the positive
            # bisection speeds and the final solve run a warm descent
            warm = [c for c, is_warm in calls if is_warm]
            assert warm[:-1] == pytest.approx([0.6816, 0.6277, 0.6008], abs=1e-4)
            assert warm[-1] == res.c_star

    def test_fallback_without_negative_seed(self, scalar_logged, scalar_spec, scalar_consts,
                                            monkeypatch):
        monkeypatch.setattr(speed, "WeightedEnergy", NoCertificate)
        lo = compute_bounds(scalar_spec, scalar_consts, 1.0).bracket_lo

        def positive_at_lo(c, warm, res):
            return dataclasses.replace(res, gamma=abs(res.gamma)) if c == lo else res

        res, calls, _ = logged_find_speed(scalar_spec, scalar_consts, alter=positive_at_lo)
        # the cold probe ran at the analytic lower end, then once below it
        assert calls[:2] == [(lo, False), (lo / 1.5, False)]
        assert res.bracket_history[0][0] == lo / 1.5
        assert abs(res.c_star - scalar_logged[0].c_star) <= 1e-3


def test_bracket_failure_carries_the_probe_table(scalar_spec, scalar_consts, monkeypatch):
    # an upper end of 0.05 stays below c* = 0.6 through six expansions: the
    # table holds the seed bound at the lower end, then every cold probe at
    # the upper end, in order
    real = speed.compute_bounds
    monkeypatch.setattr(speed, "compute_bounds",
                        lambda *args: dataclasses.replace(real(*args), bracket_hi=0.05))
    lo = compute_bounds(scalar_spec, scalar_consts, 1.0).bracket_lo
    grid = make_grid(scalar_consts, lo, h=0.05)
    with pytest.raises(BracketFailureError,
                       match=r"no positive minimum energy found up to c=0\.569531") as info:
        find_speed(scalar_spec, scalar_consts, grid, MinimizeOptions(), 1e-3)
    table = info.value.probes
    assert len(table) == 8
    assert table[0][0] == lo
    assert table[0][1] == pytest.approx(-0.99132, abs=1e-5)
    uppers = [0.05]
    for _ in range(6):
        uppers.append(uppers[-1] * 1.5)
    assert [c for c, _ in table[1:]] == uppers
    assert all(g < 0 for _, g in table)


@pytest.mark.parametrize("end, start, last", [
    # the sixth expansion's probe is the first with the right sign: it ends
    # the bracket instead of failing the run
    ("bracket_hi", 0.06, 0.683438),   # gamma = +0.191 there
    ("bracket_lo", 5.0, 0.438957),    # gamma = -0.542 there
])
def test_last_expansion_probe_can_close_the_bracket(end, start, last, scalar_spec,
                                                    scalar_consts, monkeypatch):
    real = speed.compute_bounds
    monkeypatch.setattr(speed, "compute_bounds",
                        lambda *args: dataclasses.replace(real(*args), **{end: start}))
    lo = compute_bounds(scalar_spec, scalar_consts, 1.0).bracket_lo
    grid = make_grid(scalar_consts, lo, h=0.05)
    res = find_speed(scalar_spec, scalar_consts, grid, MinimizeOptions(), 1e-3)
    c_lo, c_hi, g_lo, g_hi = res.bracket_history[0]
    c_end = c_hi if end == "bracket_hi" else c_lo
    assert c_end == pytest.approx(last, abs=1e-6)
    assert g_lo < 0 < g_hi
    assert res.c_star == pytest.approx(0.6, abs=1e-3)


@pytest.mark.parametrize("builtin", ["scalar", "decoupled"])
def test_warm_final_solve_matches_cold_race(builtin, request):
    # the final solve starts from the cold minimizer at the final upper end;
    # a cold race at the same c* finds the same wave
    spec = request.getfixturevalue(f"{builtin}_spec")
    consts = request.getfixturevalue(f"{builtin}_consts")
    res, calls, _ = request.getfixturevalue(f"{builtin}_logged")
    cold, cold_calls, _ = logged_find_speed(spec, consts, cold_final=True)
    assert calls[-1] == (res.c_star, True)
    assert cold_calls == calls[:-1] + [(res.c_star, False)]
    assert cold.c_star == res.c_star
    assert cold.bracket_history == res.bracket_history
    assert res.gamma_result.converged and cold.gamma_result.converged
    assert abs(res.gamma_at_c_star - cold.gamma_at_c_star) <= 1e-12
    assert np.array_equal(res.profile.grid.nodes, cold.profile.grid.nodes)
    assert np.max(np.abs(res.profile.values - cold.profile.values)) <= 1e-6
    for r in (res, cold):
        assert run_verify(spec, consts, r.c_star, r.profile, r.gamma_at_c_star).passed


@pytest.mark.parametrize("c", [0.8, 1.5])
def test_cold_seeds_equal_segment_profiles(c, decoupled_spec, decoupled_consts):
    # the per-run seeds, resampled onto a sub-grid, are the segment profiles
    # built on that sub-grid: its nodes are grid nodes
    grid = make_grid(decoupled_consts, 0.5, h=0.02)
    sub = speed_subgrid(grid, decoupled_consts, c)
    assert 0 < sub.n_nodes < grid.n_nodes
    seeds = Probes(decoupled_spec, decoupled_consts, grid, MinimizeOptions()).seeds
    points = seed_points(decoupled_spec, decoupled_consts)
    assert len(seeds) == len(points) == 3
    for seed, p in zip(seeds, points):
        got = transfer_profile(seed, sub)
        want = segment_profile(decoupled_spec, sub, p)
        assert got.grid.nodes.tobytes() == want.grid.nodes.tobytes()
        assert got.values.tobytes() == want.values.tobytes()


def test_cold_iterations_include_races(decoupled_spec, decoupled_consts, monkeypatch):
    runs = []
    real = minimize._descent

    def counted(spec, params, grid, values0, opts):
        out = real(spec, params, grid, values0, opts)
        runs.append((opts.max_iters, out[4]))
        return out

    monkeypatch.setattr(minimize, "_descent", counted)
    assert len(seed_points(decoupled_spec, decoupled_consts)) == 3
    grid = make_grid(decoupled_consts, 1.0, h=0.05)
    res = Probes(decoupled_spec, decoupled_consts, grid, MinimizeOptions(opt_tol=1e-5)).solve(1.5)
    race = [iters for cap, iters in runs if cap == minimize._RACE_BUDGET]
    assert len(race) == 3
    assert res.iterations >= sum(race)
    assert res.iterations == sum(iters for _, iters in runs)


def test_short_race_picks_the_wave(decoupled_spec, decoupled_consts):
    # at the benchmark grid and c*, a race run to convergence lets the
    # (-1, -1) seed win by ~1e-10 relative with an extra front near x = -29,
    # where the weight is ~1e-15, and that profile fails verification
    bounds = compute_bounds(decoupled_spec, decoupled_consts, 1.0)
    grid = make_grid(decoupled_consts, bounds.bracket_lo, h=0.02)
    c = 1.2003735488958043
    res = Probes(decoupled_spec, decoupled_consts, grid, MinimizeOptions()).solve(c)
    np.testing.assert_allclose(res.profile.values[0], [1.0, -1.0], rtol=0, atol=1e-3)
    assert run_verify(decoupled_spec, decoupled_consts, c, res.profile, res.gamma).passed

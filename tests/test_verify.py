"""Certification checks: residual identities, decay rates, tails, shooting."""

import dataclasses
import io
import tokenize

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradwave import (
    FunctionalParams,
    Grid,
    PotentialSpec,
    Profile,
    ShootingDivergenceError,
    TailError,
    compute_bounds,
    compute_constants,
    energy,
    find_speed,
    minimize_profile,
    segment_profile,
    user_polynomial,
)
from gradwave import derivative, verify
from gradwave.functional import cell_weights
from gradwave.speed import TRUNCATION_EPS, front_left_end
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
from conftest import V_STAR_12, X0_TANH, make_grid, quartic_well_terms


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
        scalar_spec, scalar_consts, FunctionalParams(c=0.8), grid, init, 1e-6,
    )
    return res.profile


def constant_profile(value, grid, well_b):
    vals = np.tile(np.asarray(value, dtype=float), (grid.n_nodes, 1))
    vals[-1] = well_b
    return Profile(grid=grid, values=vals, well_b=np.asarray(well_b, dtype=float))


def centered_reference(x, f):
    """The three-point interior stencil as first written, in verify and in derivative."""
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    if f.ndim == 2:
        hm, hp = hm[:, None], hp[:, None]
    return (
        -hp / (hm * (hm + hp)) * f[:-2]
        + (hp - hm) / (hm * hp) * f[1:-1]
        + hm / (hp * (hm + hp)) * f[2:]
    )


def one_sided_reference(f0, f1, f2, h1, h2):
    """Second-order three-point slope at the first of three nodes."""
    return (-(2 * h1 + h2) / (h1 * (h1 + h2)) * f0 + (h1 + h2) / (h1 * h2) * f1
            - h1 / (h2 * (h1 + h2)) * f2)


def first_integral_reference(spec, c, profile):
    """first_integral_residual on centered_reference, one-sided beside 0."""
    x, u, iz = profile.grid.nodes, profile.values, profile.grid.index_zero
    der = derivative(profile)
    speed2 = np.sum(der.values * der.values, axis=1)
    xi = 0.5 * speed2 - spec.value(u)
    left = np.append(
        centered_reference(x[:iz], xi[:iz]),
        -one_sided_reference(xi[iz - 1], xi[iz - 2], xi[iz - 3],
                             x[iz - 1] - x[iz - 2], x[iz - 2] - x[iz - 3]))
    right = np.insert(
        centered_reference(x[iz + 1:], xi[iz + 1:]), 0,
        one_sided_reference(xi[iz + 1], xi[iz + 2], xi[iz + 3],
                            x[iz + 2] - x[iz + 1], x[iz + 3] - x[iz + 2]))
    return max(float(np.max(np.abs(left + c * speed2[1:iz]))),
               float(np.max(np.abs(right + c * speed2[iz + 1:-1]))))


def halfline_energies_reference(spec, c, profile):
    """The half-line energies as first written, from cell_weights, with the
    energy e^{c x_0} W(u_0) / c of the constant extension left of the grid
    counted on the left half-line."""
    x, u, iz = profile.grid.nodes, profile.values, profile.grid.index_zero
    E = cell_weights(profile.grid, FunctionalParams(c=c))
    h = np.diff(x)
    w = spec.value(u)
    du = (u[1:] - u[:-1]) / h[:, None]
    kin = 0.5 * np.sum(du * du, axis=1)
    g = E * (kin + 0.5 * (w[:-1] + w[1:]))
    g[0] += np.exp(c * x[0]) / c * w[0]
    return float(np.sum(g[iz:])), float(np.sum(g[:iz])), float(np.sum(2.0 * kin[iz:] * h[iz:]))


class TestSharedKernels:
    """The stencil and the cell energies verification now shares give the former bits."""

    @pytest.fixture
    def refined_wave(self):
        # graded nodes on [-30, 20]: 0.003 apart at 0, wider towards the ends
        grid = Grid(nodes=2.0 * np.sinh(0.0015625 * np.arange(-2178, 1918)))
        vals = np.tanh(grid.nodes + X0_TANH)[:, None]
        vals[-1] = 1.0
        return Profile(grid=grid, values=vals, well_b=np.array([1.0]))

    def test_derivative_bit_equal(self, refined_wave):
        grid = refined_wave.grid
        rng = np.random.default_rng(8)
        vals = np.column_stack([refined_wave.values[:, 0], rng.standard_normal(grid.n_nodes)])
        vals[-1] = [1.0, 0.5]
        p = Profile(grid=grid, values=vals, well_b=vals[-1])
        got = derivative(p).values[1:-1]
        assert got.tobytes() == centered_reference(grid.nodes, vals).tobytes()

    @pytest.mark.parametrize("c", [0.6, 0.9])
    def test_first_integral_bit_equal(self, scalar_spec, refined_wave, c):
        got = first_integral_residual(scalar_spec, c, refined_wave)
        assert got == first_integral_reference(scalar_spec, c, refined_wave)

    @pytest.mark.parametrize("c", [0.6, 0.9])
    def test_halfline_energies_bit_equal(self, scalar_spec, refined_wave, c):
        got = verify._halfline_energies(scalar_spec, c, refined_wave)
        assert got == halfline_energies_reference(scalar_spec, c, refined_wave)


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
        assert r_coarse / r_fine >= 3.5  # about 4 for a second-order scheme

    @pytest.mark.parametrize("k", [1.0, 1.5, 2.0, 3.0])
    def test_scaled_well_passes(self, k):
        # k^2 W has the wave u(k x) at speed 0.6 k; on a grid k times finer
        # every check sees the same resolution as the unscaled wave at h = 0.02
        terms = [(k * k * c, exps) for c, exps in quartic_well_terms((0.6,))]
        spec = user_polynomial(1, terms, [1.0], [[-2.0, 2.0]])
        consts = compute_constants(spec)
        grid = make_grid(consts, compute_bounds(spec, consts, 1.0).bracket_lo, h=0.02 / k)
        res = find_speed(spec, consts, grid, c_tol=1e-3)
        report = run_verify(spec, consts, res.c_star, res.profile, res.gamma_at_c_star)
        assert report.checks["first_integral"][2]
        assert report.passed


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
        grad_norm, dist_e, _ = left_tail_report(scalar_spec, scalar_consts, analytic_wave)
        assert grad_norm <= 1e-2
        assert scalar_spec.value(analytic_wave.values[0]) == pytest.approx(-0.8, abs=1e-3)
        assert dist_e <= 1e-3

    def test_constant_equilibrium(self, decoupled_spec, decoupled_consts):
        g = Grid.uniform(-5.0, 5.0, 0.05)
        p = constant_profile([-1.0, -1.0], g, decoupled_spec.well_b)
        grad_norm, dist_e, _ = left_tail_report(decoupled_spec, decoupled_consts, p)
        assert grad_norm <= 1e-10
        assert decoupled_spec.value(p.values[0]) == pytest.approx(-2.4, abs=1e-12)
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


def _assert_same_trajectory(args):
    """Run the compiled stepper and the numpy reference; demand equal bits."""
    xs, ys = verify._rk4_backward(*args)
    ref_xs, ref_ys = _rk4_backward_reference(*args)
    for got, ref in ((xs, ref_xs), (ys, ref_ys)):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref, equal_nan=True)
        # signed zeros and NaN positions too
        assert np.array_equal(np.signbit(got) | np.isnan(got), np.signbit(ref) | np.isnan(ref))
    return xs, ys


def _gradient_spec(grad, box=(-2.0, 2.0)):
    """A one-component spec given by its gradient; only the shooting uses it."""
    return PotentialSpec(
        dim=1, well_b=np.ones(1), value=lambda u: np.zeros(np.shape(u)[:-1]),
        gradient=grad, hessian=lambda u: np.zeros(np.shape(u) + (1,)),
        bounding_box=np.array([box]))


@st.composite
def shooting_cases(draw):
    """A random user_polynomial and shooting arguments for it, dims 1-5."""
    dim = draw(st.integers(1, 5))
    coeff = st.floats(-3.0, 3.0, allow_nan=False)
    terms = draw(st.lists(st.tuples(coeff, st.lists(st.integers(0, 4), min_size=dim,
                                                     max_size=dim)),
                          min_size=1, max_size=8))
    spec = user_polynomial(dim, terms, [1.0] * dim, [[-2.0, 2.0]] * dim)
    y0 = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=2 * dim, max_size=2 * dim)))
    c = draw(st.floats(0.0, 2.0))
    step = draw(st.floats(0.005, 0.1))
    x_start = draw(st.floats(-5.0, 5.0))
    x_stop = x_start - draw(st.floats(-0.5, 3.0))
    lo = np.array(draw(st.lists(st.floats(-4.0, -1.6), min_size=dim, max_size=dim)))
    hi = np.array(draw(st.lists(st.floats(1.6, 4.0), min_size=dim, max_size=dim)))
    return spec, c, x_start, y0, step, x_stop, lo, hi


class TestCompiledStepper:
    @settings(max_examples=120, deadline=None)
    @given(args=shooting_cases())
    def test_matches_reference_on_random_polynomials(self, args):
        _assert_same_trajectory(args)

    def test_infinite_gradient_stops_on_finiteness(self):
        # an unbounded box leaves the finiteness test as the only exit
        spec = _gradient_spec(lambda u: np.where(u < 0.5, np.inf, 0.0),
                              box=(-np.inf, np.inf))
        xs, ys = _assert_same_trajectory(
            (spec, 0.6, 0.0, np.array([1.0, 1.0]), 0.01, -5.0, [-np.inf], [np.inf]))
        assert xs.size - 1 < 500
        assert not np.all(np.isfinite(ys[-1])) and np.all(np.isfinite(ys[-2]))

    def test_nan_gradient_stops_inside_the_box(self):
        # NaN positions pass both box comparisons; the finiteness test stops them
        spec = _gradient_spec(lambda u: np.full_like(u, np.nan))
        xs, ys = _assert_same_trajectory(
            (spec, 0.6, 0.0, np.array([1.0, 1.0]), 0.01, -5.0, [-2.0], [2.0]))
        assert xs.size == 2
        assert np.all(np.isnan(ys[-1]))

    @pytest.mark.parametrize("v0, exits", [(1.0, "below"), (-1.0, "above")])
    def test_box_exit_keeps_the_exiting_step(self, v0, exits):
        # free motion: leftward steps move the position by -v per unit x
        spec = _gradient_spec(lambda u: np.zeros_like(u))
        xs, ys = _assert_same_trajectory(
            (spec, 0.6, 0.0, np.array([1.0, v0]), 0.05, -10.0, [0.0], [2.0]))
        assert xs.size - 1 < 200
        assert (ys[-1, 0] < 0.0) if exits == "below" else (ys[-1, 0] > 2.0)
        assert 0.0 <= ys[-2, 0] <= 2.0

    def test_position_on_the_box_edge_stays_in(self):
        # c = 0 and no force keep v = 1 exactly; the position steps 1, 0.75, ..., 0.0
        # onto the lower edge, which is inside: the exit is the step after
        spec = _gradient_spec(lambda u: np.zeros_like(u))
        xs, ys = _assert_same_trajectory(
            (spec, 0.0, 0.0, np.array([1.0, 1.0]), 0.25, -10.0, [0.0], [2.0]))
        assert ys[:, 0].tolist() == [1.0, 0.75, 0.5, 0.25, 0.0, -0.25]

    @pytest.mark.parametrize("x_stop", [1.0, 1.5])
    def test_target_not_left_of_start_takes_no_step(self, x_stop):
        spec = _gradient_spec(lambda u: 2.0 * u)
        y0 = np.array([0.5, -0.25])
        xs, ys = _assert_same_trajectory((spec, 0.6, 1.0, y0, 0.01, x_stop, [-2.0], [2.0]))
        assert xs.tolist() == [1.0]
        assert ys.shape == (1, 2) and ys[0].tolist() == y0.tolist()

    def test_step_that_does_not_divide_the_span(self):
        spec = _gradient_spec(lambda u: 0.1 * u)
        xs, _ = _assert_same_trajectory(
            (spec, 0.6, 0.0, np.array([1.0, 0.1]), 0.3, -1.0, [-2.0], [2.0]))
        # ceil(1.0 / 0.3) = 4 steps: the last overshoots the target
        assert xs.size == 5 and xs[-1] < -1.0

    def test_one_point_gradient_call_per_stage(self):
        spec = user_polynomial(3, quartic_well_terms((0.6, 0.9, 1.2)), [1.0] * 3,
                               [[-2.0, 2.0]] * 3)
        counts = {"point": 0}
        point_gradient = spec.point_gradient

        def counting(p):
            counts["point"] += 1
            return point_gradient(p)

        def forbidden(u):
            raise AssertionError("the stepper called the numpy gradient")

        counted = dataclasses.replace(spec, point_gradient=counting, gradient=forbidden)
        y0 = np.array([1.0 - 1e-4, 1.0 - 2e-4, 1.0 - 3e-4, -1e-4, -2e-4, -3e-4])
        xs, _ = verify._rk4_backward(counted, 1.2, 10.0, y0, 0.005, -10.0,
                                     [-6.0] * 3, [6.0] * 3)
        assert xs.size - 1 > 100
        assert counts["point"] == 4 * (xs.size - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_source_has_no_float_literal(self, n):
        source = verify._stepper_source(n)
        numbers = [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                   if tok.type == tokenize.NUMBER]
        assert numbers and all(text.isdigit() for text in numbers)

    def test_compiled_once_per_dimension(self):
        assert verify._stepper(2) is verify._stepper(2)
        assert verify._stepper(2) is not verify._stepper(3)


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

    def test_verdicts_do_not_depend_on_the_left_cut(self, scalar_spec, scalar_consts):
        # the exact wave cut at -40/c and at the front left end: the closed-form
        # tail makes the energies agree, and every check gives the same verdict
        c = 0.6
        energies, verdicts = [], []
        for x_left in (-40.0 / c, front_left_end(scalar_consts, c)):
            grid = Grid.uniform(x_left, 22.0, 0.01)
            vals = np.tanh(grid.nodes + X0_TANH)[:, None]
            vals[-1] = 1.0
            p = Profile(grid=grid, values=vals, well_b=np.array([1.0]))
            J = energy(scalar_spec, FunctionalParams(c=c), p)
            report = run_verify(scalar_spec, scalar_consts, c, p, J)
            energies.append(J)
            verdicts.append({name: ok for name, (_, _, ok) in report.checks.items()})
        assert abs(energies[0] - energies[1]) <= TRUNCATION_EPS
        assert verdicts[0] == verdicts[1]
        assert all(verdicts[0].values())

    def test_report_fails_on_wrong_speed(self, scalar_spec, scalar_consts, analytic_wave):
        report = run_verify(scalar_spec, scalar_consts, 0.7, analytic_wave, 0.0)
        assert not report.checks["el_residual"][2]
        assert not report.passed

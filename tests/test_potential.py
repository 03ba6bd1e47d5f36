"""Potential evaluation, analytic constants, and zero-set projection."""

import dataclasses
import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize as scipy_minimize
from scipy.optimize import minimize_scalar as scipy_minimize_scalar

from gradwave import (
    AssumptionViolationError,
    ContractViolationError,
    DegenerateProjectionError,
    PotentialSpec,
    compute_constants,
    decoupled_quartic,
    find_equilibria,
    project_to_zero_set,
    scalar_cubic,
    user_polynomial,
    validate_spec,
)
import gradwave.potential
from gradwave.potential import (
    NEG_TOL,
    _Monomials,
    _check_assumptions,
    _distinct_in_order,
    _first_negative_crossings,
    _grid_min,
    _mesh_rows,
    _nearest_negative,
    _quartic_well,
    _row_norms,
    _scan_axes,
    _scan_resolution,
    _slabs,
    _smallest,
    golden_section_min,
    well_minima,
)
from gradwave.verify import shooting_check
from conftest import D_DECOUPLED, D_SCALAR, M_SEG_DECOUPLED, U_STAR, quartic_well_terms


def quartic_well_quad(u, c):
    # independent route: numerical quadrature of the defining integrand
    val, _ = quad(lambda s: (s * s - 1.0) * (2.0 * s - c), 1.0, u, limit=200)
    return val


class TestEvaluate:
    def test_reference_well_is_zero(self, decoupled_spec):
        assert decoupled_spec.value(np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-14)

    def test_side_well_depth(self, decoupled_spec):
        expected = quartic_well_quad(-1.0, 0.6)  # = -4*alpha/3
        assert expected == pytest.approx(-0.8, abs=1e-12)
        assert decoupled_spec.value(np.array([-1.0, 1.0])) == pytest.approx(expected, abs=1e-10)

    def test_deep_well_depth(self, decoupled_spec):
        expected = quartic_well_quad(-1.0, 0.6) + quartic_well_quad(-1.0, 1.2)
        assert expected == pytest.approx(-2.4, abs=1e-12)
        assert decoupled_spec.value(np.array([-1.0, -1.0])) == pytest.approx(expected, abs=1e-10)

    def test_bad_variant_parameters(self):
        with pytest.raises(ContractViolationError):
            scalar_cubic(2.5)
        with pytest.raises(ContractViolationError):
            decoupled_quartic(1.2, 0.6)


class TestConstants:
    def test_scalar_constants(self, scalar_consts):
        assert scalar_consts.m == pytest.approx(0.8, abs=1e-9)
        assert scalar_consts.point_a[0] == pytest.approx(-1.0, abs=1e-7)
        assert scalar_consts.mu == pytest.approx(2.8, abs=1e-12)
        assert scalar_consts.d == pytest.approx(D_SCALAR[0.6], abs=1e-6)
        # M on the segment: the interior hump of the quartic well
        assert scalar_consts.M == pytest.approx(0.18865, abs=1e-6)

    def test_decoupled_constants(self, decoupled_consts):
        assert decoupled_consts.m == pytest.approx(2.4, abs=1e-9)
        np.testing.assert_allclose(decoupled_consts.point_a, [-1.0, -1.0], atol=1e-7)
        assert decoupled_consts.mu == pytest.approx(1.6, abs=1e-12)
        assert decoupled_consts.d == pytest.approx(D_DECOUPLED, abs=1e-6)
        assert decoupled_consts.M == pytest.approx(M_SEG_DECOUPLED, abs=1e-7)

    def test_scalar_d_against_bisection_oracle(self, scalar_spec, scalar_consts):
        # largest root of the closed-form quartic below 1, found by bisection
        f = lambda u: float(scalar_spec.value(np.array([u])))
        lo, hi = -0.999, 0.999
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        u_star = 0.5 * (lo + hi)
        assert u_star == pytest.approx(U_STAR[0.6], abs=1e-10)
        assert scalar_consts.d == pytest.approx(1.0 - u_star, abs=1e-6)

    def test_no_negative_scan_point_inside_d(self, decoupled_spec, decoupled_consts):
        per_axis = 401
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in decoupled_spec.bounding_box]
        U, V = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([U.ravel(), V.ravel()], axis=-1)
        w = decoupled_spec.value(pts)
        dist = np.linalg.norm(pts[w < -1e-12] - decoupled_spec.well_b, axis=1)
        resolution = 4.0 / (per_axis - 1) * np.sqrt(2)
        assert dist.min() >= decoupled_consts.d - resolution

    def test_well_depth_ordering(self, decoupled_spec):
        w = lambda p: decoupled_spec.value(np.array(p, dtype=float))
        assert 0.0 == pytest.approx(w([1, 1]), abs=1e-14)
        assert w([1, 1]) > w([-1, 1]) >= w([1, -1]) > w([-1, -1])

    def test_permuted_terms_accepted(self):
        # summing the same 13 coefficients in another order leaves W(b) a few
        # ulp below zero; that is roundoff, not a negative region at the well
        speeds = (0.6, 0.9, 1.2)
        terms = quartic_well_terms(speeds)
        shuffled = [terms[i] for i in np.random.default_rng(0).permutation(len(terms))]
        box = [[-2.0, 2.0]] * 3
        plain = user_polynomial(3, terms, [1.0] * 3, box)
        permuted = user_polynomial(3, shuffled, [1.0] * 3, box)
        assert -1e-15 < float(permuted.value(np.ones((1, 3)))[0]) < 0.0
        validate_spec(permuted)
        ref, got = compute_constants(plain), compute_constants(permuted)
        for name in ("d", "m", "M"):
            assert getattr(got, name) == pytest.approx(getattr(ref, name), abs=1e-9)


class TestKernels:
    @pytest.mark.parametrize("c", [0.6, 0.9, 1.2])
    def test_horner_well_matches_expanded(self, c):
        u = np.linspace(-2.0, 2.0, 40001)
        expanded = u**4 / 2 - c * u**3 / 3 - u**2 + c * u + 0.5 - 2.0 * c / 3.0
        assert np.max(np.abs(_quartic_well(u, c) - expanded)) <= 4e-15
        assert abs(_quartic_well(1.0, c)) <= 1e-15
        assert abs(float(_quartic_well(np.array([1.0]), c)[0])) <= 1e-15

    @pytest.mark.parametrize("c", [0.6, 0.9, 1.2])
    def test_well_accurate_near_reference(self, c):
        # exact rational W at the same double inputs; the expanded sum would
        # lose all relative accuracy here, where W is about (2 - c) t^2
        cf = Fraction(c)
        for t in (1e-2, -1e-3, 1e-5, -1e-6, 3e-8, -1e-8):
            u = 1.0 + t
            x = Fraction(u)
            exact = x**4 / 2 - cf * x**3 / 3 - x**2 + cf * x + Fraction(1, 2) - 2 * cf / 3
            for got in (_quartic_well(u, c), float(_quartic_well(np.array([u]), c)[0])):
                assert abs(Fraction(got) - exact) <= Fraction(1e-14) * abs(exact), (t, got)

    @pytest.mark.parametrize("shape", [(), (7,), (5, 3)])
    def test_polynomial_matches_decoupled_builtin(self, decoupled_spec, shape):
        poly = user_polynomial(2, quartic_well_terms((0.6, 1.2)), [1.0, 1.0],
                               [[-2.0, 2.0], [-2.0, 2.0]])
        u = np.random.default_rng(5).uniform(-2.0, 2.0, size=shape + (2,))
        value = poly.value(u)
        assert np.shape(value) == shape
        np.testing.assert_allclose(value, decoupled_spec.value(u), rtol=0, atol=1e-13)
        grad = poly.gradient(u)
        assert grad.shape == shape + (2,)
        np.testing.assert_allclose(grad, decoupled_spec.gradient(u), rtol=0, atol=1e-13)
        for p in u.reshape(-1, 2):
            np.testing.assert_allclose(poly.hessian(p), decoupled_spec.hessian(p),
                                       rtol=0, atol=1e-13)

    def test_batch_matches_points_across_chunks(self, monkeypatch):
        # rows are processed in chunks; a short chunk makes a 3-row tail
        monkeypatch.setattr(_Monomials, "CHUNK", 8)
        terms = [(0.5, [4, 0, 1]), (-0.3, [2, 2, 0]), (1.1, [0, 1, 3]), (0.25, [0, 0, 0])]
        poly = user_polynomial(3, terms, [0.0, 0.0, 0.0], [[-2.0, 2.0]] * 3)
        u = np.random.default_rng(2).uniform(-2.0, 2.0, size=(19, 3))
        values, grads = poly.value(u), poly.gradient(u)
        for i, p in enumerate(u):
            assert values[i] == float(poly.value(p))
            np.testing.assert_array_equal(grads[i], poly.gradient(p))


COUPLED_TERMS = [
    (0.5, [4, 0]), (0.5, [0, 4]), (-0.7, [2, 2]), (0.3, [3, 1]),
    (-0.2, [1, 3]), (-1.0, [2, 0]), (0.4, [1, 1]), (-0.6, [0, 2]), (0.25, [0, 0]),
]


@settings(max_examples=40, deadline=None)
@given(u=st.floats(-1.9, 1.9), v=st.floats(-1.9, 1.9))
def test_coupled_polynomial_derivatives_match_differences(u, v):
    spec = user_polynomial(2, COUPLED_TERMS, [0.0, 0.0], [[-2.0, 2.0], [-2.0, 2.0]])
    p = np.array([u, v])
    g = spec.gradient(p)
    H = spec.hessian(p)
    np.testing.assert_array_equal(H, H.T)
    h = 1e-5
    fd_g = np.empty(2)
    fd_H = np.empty((2, 2))
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd_g[k] = (float(spec.value(p + e)) - float(spec.value(p - e))) / (2 * h)
        fd_H[:, k] = (spec.gradient(p + e) - spec.gradient(p - e)) / (2 * h)
    assert np.linalg.norm(g - fd_g) <= 1e-7 * (1.0 + np.linalg.norm(g))
    assert np.linalg.norm(H - fd_H) <= 1e-7 * (1.0 + np.linalg.norm(H))


def coupled_spec():
    return user_polynomial(2, COUPLED_TERMS, [0.0, 0.0], [[-2.0, 2.0], [-2.0, 2.0]])


@pytest.mark.parametrize("make", [
    lambda: scalar_cubic(0.6), lambda: decoupled_quartic(0.6, 1.2), coupled_spec,
], ids=["scalar", "decoupled", "coupled"])
@pytest.mark.parametrize("lead", [(), (7,), (5, 3)])
def test_hessian_rows_match_points(make, lead):
    spec = make()
    dim = spec.dim
    u = np.random.default_rng(6).uniform(-2.0, 2.0, size=lead + (dim,))
    H = spec.hessian(u)
    assert H.shape == lead + (dim, dim)
    points = np.stack([spec.hessian(p) for p in u.reshape(-1, dim)])
    np.testing.assert_array_equal(H, points.reshape(H.shape))
    np.testing.assert_array_equal(H, np.swapaxes(H, -1, -2))


def _doubled_gradient():
    spec = scalar_cubic(0.6)
    return dataclasses.replace(spec, gradient=lambda u: 2.0 * spec.gradient(u))


def _point_gradient_off_by_ulp():
    spec = scalar_cubic(0.6)
    return dataclasses.replace(spec, point_gradient=lambda p: [
        math.nextafter(g, math.inf) for g in spec.point_gradient(p)])


def _grid_value_off():
    spec = scalar_cubic(0.6)
    return dataclasses.replace(spec, grid_value=lambda axes: spec.grid_value(axes) + 1e-6)


# one potential per assumption check, each breaking only that check, with its message
INVALID_SPECS = {
    "value_at_b": (
        lambda: user_polynomial(1, quartic_well_terms((0.6,)) + [(0.1, [0])], [1.0],
                                [[-2.0, 2.0]]),
        "potential is not zero at the reference well"),
    "gradient_at_b": (
        lambda: user_polynomial(1, quartic_well_terms((0.6,)) + [(1e-3, [1]), (-1e-3, [0])],
                                [1.0], [[-2.0, 2.0]]),
        "gradient does not vanish at the reference well"),
    "indefinite_hessian_at_b": (
        lambda: user_polynomial(1, [(-1.0, [2])], [0.0], [[-2.0, 2.0]]),
        "Hessian at the reference well is not positive definite (min eig -2)"),
    "grid_value_disagrees": (
        _grid_value_off,
        "grid value disagrees with the value callback"),
    "no_negative_region": (
        lambda: user_polynomial(1, [(1.0, [2])], [0.0], [[-2.0, 2.0]]),
        "no negative region found inside the bounding box"),
    # dips to -1e-13 only: below 0, but within NEG_TOL of it
    "negative_region_within_roundoff": (
        lambda: user_polynomial(1, [(1.0, [4]), (2.0, [3]), (1.0 - 1e-13, [2])], [0.0],
                                [[-2.0, 2.0]]),
        "no negative region found inside the bounding box"),
    "negative_on_boundary": (
        lambda: user_polynomial(1, quartic_well_terms((0.6,)), [1.0], [[-1.2, 2.0]]),
        "potential is negative on the bounding-box boundary"),
    "gradient_disagrees_with_fd": (
        _doubled_gradient,
        "gradient callback disagrees with finite differences of the value"),
    "point_gradient_disagrees": (
        _point_gradient_off_by_ulp,
        "point gradient disagrees with the gradient callback"),
}


@pytest.mark.parametrize("name", list(INVALID_SPECS))
def test_assumption_violation_raised_by_both_entry_points(name):
    make, message = INVALID_SPECS[name]
    spec = make()
    for check in (validate_spec, compute_constants):
        with pytest.raises(AssumptionViolationError) as err:
            check(spec)
        assert str(err.value) == message, check.__name__


class TestValidate:
    def test_builtins_pass(self, scalar_spec, decoupled_spec):
        validate_spec(scalar_spec)
        validate_spec(decoupled_spec)

    def test_polynomial_matches_builtin(self, scalar_spec):
        poly = user_polynomial(1, quartic_well_terms((0.6,)), [1.0], [[-2.0, 2.0]])
        validate_spec(poly)
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.uniform(-2, 2, size=1)
            assert float(poly.value(p)) == pytest.approx(float(scalar_spec.value(p)), abs=1e-12)
            assert float(poly.gradient(p)[0]) == pytest.approx(
                float(scalar_spec.gradient(p)[0]), abs=1e-11
            )
        np.testing.assert_allclose(poly.hessian(np.array([1.0])),
                                   scalar_spec.hessian(np.array([1.0])), atol=1e-10)


POINT_GRADIENT_SPECS = {
    "scalar_0.6": lambda: scalar_cubic(0.6),
    "scalar_0.4": lambda: scalar_cubic(0.4),
    "decoupled": lambda: decoupled_quartic(0.6, 1.2),
    "poly3": lambda: user_polynomial(3, quartic_well_terms((0.6, 0.9, 1.2)), [1.0] * 3,
                                     [[-2.0, 2.0]] * 3),
    "coupled": coupled_spec,
}


def _at_corners_and_signed_zeros(test):
    # corners of the box [-2, 2]^3 and of the doubled box [-4, 4]^3, then
    # signed zeros; lower-dimensional potentials take the leading coordinates
    points = [*itertools.product((-4.0, 4.0), repeat=3),
              *itertools.product((-2.0, 2.0), repeat=3),
              (-0.0, -0.0, -0.0), (0.0, -0.0, 0.0)]
    for point in points:
        test = example(coords=list(point))(test)
    return test


@pytest.mark.parametrize("name", list(POINT_GRADIENT_SPECS))
@settings(max_examples=40, deadline=None)
@_at_corners_and_signed_zeros
@given(coords=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3))
def test_point_gradient_matches_batch(name, coords):
    # the float kernel the shooting steps with must equal the numpy
    # gradient bit for bit, anywhere the shooting can reach
    spec = POINT_GRADIENT_SPECS[name]()
    p = coords[:spec.dim]
    got = spec.point_gradient(p)
    want = spec.gradient(np.array(p)).tolist()
    assert got == want
    assert [math.copysign(1.0, g) for g in got] == [math.copysign(1.0, g) for g in want]


def test_derived_point_gradient_shoots_like_builtin(scalar_spec, scalar_consts, analytic_wave):
    # a spec built directly, without a point kernel, derives one from its
    # gradient callback and shoots the same trajectory as the built-in
    custom = PotentialSpec(dim=1, well_b=scalar_spec.well_b, value=scalar_spec.value,
                           gradient=scalar_spec.gradient, hessian=scalar_spec.hessian,
                           bounding_box=scalar_spec.bounding_box)
    assert custom.point_gradient is not scalar_spec.point_gradient
    assert custom.point_gradient([0.3]) == scalar_spec.point_gradient([0.3])
    gap = shooting_check(custom, scalar_consts, 0.6, analytic_wave)
    assert gap == shooting_check(scalar_spec, scalar_consts, 0.6, analytic_wave)


def loop_point(self, x):
    """Reference for the compiled _Monomials._point: the term loop it replaced."""
    powers = []
    for xk, top in zip(x, self.top):
        pk = [1.0, xk]
        for _ in range(top - 1):
            pk.append(pk[-1] * xk)
        powers.append(pk)
    out = [0.0] * self.n_slots
    for c, slot, factors in self.terms:
        m = 1.0
        for k, e in factors:
            m *= powers[k][e]
        out[slot] += m * c
    return out


def polynomial_kernels(dim, terms):
    """The value, gradient and Hessian _Monomials that user_polynomial builds from terms."""
    built = []

    class Recording(_Monomials):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    with mock.patch.object(gradwave.potential, "_Monomials", Recording):
        user_polynomial(dim, terms, [0.0] * dim, [[-1.0, 1.0]] * dim)
    return built


def assert_same_floats(got, want):
    # equal with the same sign, zeros and infinities included; NaN matches NaN
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is float
        if math.isnan(w):
            assert math.isnan(g), (got, want)
        else:
            assert g == w and math.copysign(1.0, g) == math.copysign(1.0, w), (got, want)


def assert_kernel_matches_references(kernel, points):
    wants = [loop_point(kernel, x) for x in points]
    for x, want in zip(points, wants):
        assert_same_floats(kernel._point(x), want)
        with np.errstate(all="ignore"):
            rows = kernel(np.array([x], dtype=float))
        assert_same_floats(rows[0].tolist(), want)
    # every point in one batch, then the batch and its reverse as a 2-D stack
    batch = np.array(points, dtype=float)
    with np.errstate(all="ignore"):
        rows = kernel(batch)
        stack = kernel(np.stack([batch, batch[::-1]]))
    assert rows.shape == (len(points), kernel.n_slots)
    assert stack.shape == (2, len(points), kernel.n_slots)
    for got, want in zip(rows.tolist() + stack.reshape(-1, kernel.n_slots).tolist(),
                         wants + wants + wants[::-1]):
        assert_same_floats(got, want)


SPECIAL_COORDS = [0.0, -0.0, math.inf, -math.inf, math.nan]


@st.composite
def term_tables(draw):
    dim = draw(st.integers(1, 5))
    exps = st.lists(st.integers(0, 8), min_size=dim, max_size=dim)
    coeff = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([-0.0, 1e16, -1e16, 1e-300]))
    terms = draw(st.lists(st.tuples(coeff, exps), min_size=1, max_size=12))
    coord = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(SPECIAL_COORDS))
    points = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=4))
    return dim, terms, points


def _special_points(dim):
    return [[-0.0] * dim, [0.0, -0.0] * (dim // 2) + [-0.0] * (dim % 2),
            [math.inf] * dim, [-math.inf, 1.5] * (dim // 2) + [-math.inf] * (dim % 2),
            [math.nan] + [0.5] * (dim - 1), [-2.0, 3.0] * (dim // 2) + [0.7] * (dim % 2)]


@settings(max_examples=150, deadline=None)
# repeated exponent rows summed into one slot
@example(case=(2, [(0.5, [2, 1]), (-0.25, [2, 1]), (1.5, [2, 1]), (0.1, [0, 0])],
               _special_points(2)))
# a constant only: empty gradient and Hessian tables
@example(case=(3, [(2.5, [0, 0, 0])], _special_points(3)))
# no cross terms: the off-diagonal Hessian slots stay empty
@example(case=(2, quartic_well_terms((0.6, 1.2)), _special_points(2)))
@example(case=(3, [(1.0, [4, 0, 0]), (-2.0, [2, 0, 0])], _special_points(3)))
@given(case=term_tables())
def test_compiled_point_matches_loop_and_rows(case):
    # the straight-line kernel runs the loop's float operations in its order,
    # so it equals both the loop and the batch route bit for bit
    dim, terms, points = case
    kernels = polynomial_kernels(dim, terms)
    assert [k.n_slots for k in kernels] == [1, dim, dim * dim]
    for kernel in kernels:
        assert_kernel_matches_references(kernel, points)


def test_compiled_point_on_a_large_table():
    # one statement per term: no nesting or recursion limit however long the table
    rng = np.random.default_rng(13)
    dim, n_slots = 6, 6
    terms = [(c, exps, slot) for c, exps, slot in zip(
        rng.standard_normal(2000), rng.integers(0, 9, size=(2000, dim)),
        rng.integers(0, n_slots, size=2000))]
    kernel = _Monomials(terms, dim, n_slots)
    assert kernel.source.count("+=") == 2000
    points = rng.uniform(-1.5, 1.5, size=(20, dim)).tolist() + _special_points(dim)
    assert_kernel_matches_references(kernel, points)


@pytest.mark.parametrize("exps, x", [([0], 0.5), ([1], 1.0)])
def test_slot_sums_in_table_order(exps, x):
    # 1e16 + 1.0 rounds back to 1e16, so sequential adds give 0.0 where an
    # exact or compensated sum (Python >= 3.12's builtin sum) gives 1.0
    kernel = _Monomials([(1e16, exps, 0), (1.0, exps, 0), (-1e16, exps, 0)], 1, 1)
    assert kernel._point([x]) == [0.0]
    assert kernel(np.array([[x], [x]])).tolist() == [[0.0], [0.0]]


def test_coefficients_never_reach_the_source():
    exps = [[2, 0], [1, 1], [0, 3], [0, 0]]
    plain = polynomial_kernels(2, list(zip([1.0, 2.0, 3.0, 4.0], exps)))
    odd = polynomial_kernels(2, list(zip([math.nan, math.inf, -0.0, 1e-300], exps)))
    for a, b in zip(plain, odd):
        assert a.source == b.source
        # the only float literal is the accumulators' 0.0
        assert set(re.findall(r"\d*\.\d+|\d+e|\binf\b|\bnan\b", a.source)) == {"0.0"}
        assert b._point([1.0, 1.0]) != a._point([1.0, 1.0])


@settings(max_examples=30, deadline=None)
@given(u=st.floats(-1.9, 1.9), v=st.floats(-1.9, 1.9))
def test_gradient_matches_finite_differences(u, v):
    spec = decoupled_quartic(0.6, 1.2)
    p = np.array([u, v])
    g = np.asarray(spec.gradient(p), dtype=float)
    h = 1e-4
    fd = np.empty(2)
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd[k] = (float(spec.value(p + e)) - float(spec.value(p - e))) / (2 * h)
    assert np.linalg.norm(g - fd) <= 1e-5 * (1.0 + np.linalg.norm(g))


class TestProjection:
    def test_fixed_point(self, scalar_spec):
        q = np.array([U_STAR[0.6]])
        out = project_to_zero_set(scalar_spec, q)
        np.testing.assert_array_equal(out, q)

    def test_scalar_from_inside_hump(self, scalar_spec):
        # from 0 the potential is slightly positive; the projection lands on
        # the zero crossing between the wells
        out = project_to_zero_set(scalar_spec, np.array([0.0]))
        assert abs(float(scalar_spec.value(out))) <= 1e-10
        assert -1.0 < out[0] < 0.0
        assert out[0] == pytest.approx(U_STAR[0.6], abs=1e-6)

    def test_vector_reduces_to_scalar(self, decoupled_spec):
        out = project_to_zero_set(decoupled_spec, np.array([0.0, 1.0]))
        assert abs(float(decoupled_spec.value(out))) <= 1e-10
        assert out[1] == pytest.approx(1.0, abs=1e-9)
        assert out[0] == pytest.approx(U_STAR[0.6], abs=1e-6)

    def test_rejects_points_near_reference_well(self, scalar_spec):
        # close to the isolated zero at the reference well the projection
        # must fail rather than report a bogus boundary point
        with pytest.raises(DegenerateProjectionError):
            project_to_zero_set(scalar_spec, np.array([0.9]))

    def test_outside_box_rejected(self, scalar_spec):
        with pytest.raises(ContractViolationError):
            project_to_zero_set(scalar_spec, np.array([3.0]))

    @settings(max_examples=25, deadline=None)
    @given(u=st.floats(-1.7, -0.3))
    def test_projection_tolerance_property(self, u):
        spec = scalar_cubic(0.6)
        try:
            out = project_to_zero_set(spec, np.array([u]))
        except DegenerateProjectionError:
            return
        assert abs(float(spec.value(out))) <= 1e-10


class TestEquilibria:
    def test_scalar_equilibria(self, scalar_spec):
        eq = find_equilibria(scalar_spec)
        assert len(eq) == 1
        assert eq[0][0] == pytest.approx(-1.0, abs=1e-8)

    def test_decoupled_equilibria(self, decoupled_spec):
        eq = find_equilibria(decoupled_spec)
        for q in eq:
            assert float(np.linalg.norm(decoupled_spec.gradient(q))) <= 1e-8
            assert float(decoupled_spec.value(q)) < 0
        found = {tuple(np.round(q, 6)) for q in eq}
        for well in [(-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)]:
            assert any(np.allclose(well, q, atol=1e-6) for q in found)


def serial_find_equilibria(spec, per_axis=15, tol=1e-10, max_iter=60):
    """Reference: damped Newton from each start in turn, one point at a time."""
    lo, hi = spec.bounding_box[:, 0], spec.bounding_box[:, 1]
    per_axis = per_axis if spec.dim <= 2 else max(5, int(round(3000 ** (1 / spec.dim))))
    axes = [np.linspace(a, b, per_axis) for a, b in spec.bounding_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    starts = np.stack([m.ravel() for m in mesh], axis=-1)
    step_cap = 0.25 * float(np.linalg.norm(hi - lo))

    found: list[np.ndarray] = []
    for q0 in starts:
        q = q0.astype(float).copy()
        ok = False
        for _ in range(max_iter):
            g = np.asarray(spec.gradient(q), dtype=float)
            gn = float(np.linalg.norm(g))
            if gn <= tol:
                ok = True
                break
            H = np.asarray(spec.hessian(q), dtype=float)
            try:
                step = -np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                break
            sl = float(np.linalg.norm(step))
            if sl > step_cap:
                step *= step_cap / sl
            lam = 1.0
            while lam > 1e-6:
                q_new = q + lam * step
                if float(np.linalg.norm(spec.gradient(q_new))) < gn:
                    break
                lam *= 0.5
            else:
                break
            q = q_new
        if not ok:
            continue
        if np.any(q < lo - 1e-9) or np.any(q > hi + 1e-9):
            continue
        if float(spec.value(q)) >= -NEG_TOL:
            continue
        if any(np.linalg.norm(q - p) < 1e-6 for p in found):
            continue
        found.append(q)
    return found


def serial_well_minima(spec, equilibria):
    """Reference: the equilibria whose Hessian, decomposed one at a time, is definite."""
    wells = []
    for q in equilibria:
        if np.linalg.eigvalsh(spec.hessian(q))[0] > 0:
            wells.append(q)
    return wells


# W = u1^4/4 - u1^2/2 + u2^4: the Hessian is singular on the start row u2 = 0
SINGULAR_TERMS = [(0.25, [4, 0]), (-0.5, [2, 0]), (1.0, [0, 4])]

REFERENCE_SPECS = {
    "scalar": lambda: scalar_cubic(0.6),
    "decoupled": lambda: decoupled_quartic(0.6, 1.2),
    "poly3": lambda: user_polynomial(3, quartic_well_terms((0.6, 0.9, 1.2)), [1.0] * 3,
                                     [[-2.0, 2.0]] * 3),
    "poly3_reordered": lambda: user_polynomial(3, quartic_well_terms((1.2, 0.6, 0.9)),
                                               [1.0] * 3, [[-2.0, 2.0]] * 3),
    "singular_hessian": lambda: user_polynomial(2, SINGULAR_TERMS, [0.0, 0.0],
                                                [[-2.0, 2.0]] * 2),
}


@pytest.mark.parametrize("name", list(REFERENCE_SPECS))
def test_batched_equilibria_match_serial(name):
    spec = REFERENCE_SPECS[name]()
    ref = serial_find_equilibria(spec)
    got = find_equilibria(spec)
    assert len(got) == len(ref)
    for q, r in zip(got, ref):
        assert np.array_equal(q, r)
    if name == "singular_hessian":
        assert len(ref) == 40
    ref_wells = serial_well_minima(spec, ref)
    got_wells = well_minima(spec, got)
    assert len(got_wells) == len(ref_wells) > 0
    for q, r in zip(got_wells, ref_wells):
        assert np.array_equal(q, r)


def _scan_points(spec, per_axis):
    """Every point of the grid over the box's axes, the last axis fastest."""
    mesh = np.meshgrid(*_scan_axes(spec, per_axis), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _first_negative_crossing(spec, b, p, samples: int = 2001):
    """Smallest t in (0, 1] with W(b + t (p - b)) < 0, bisected to ~1e-14."""
    ts = np.linspace(0.0, 1.0, samples)
    line = b + np.multiply.outer(ts, p - b)
    w = spec.value(line)
    negs = np.nonzero(w < -NEG_TOL)[0]
    if negs.size == 0:
        return None
    j = int(negs[0])
    if j == 0:
        return 0.0
    t_lo, t_hi = ts[j - 1], ts[j]
    for _ in range(80):
        t_mid = 0.5 * (t_lo + t_hi)
        if float(spec.value(b + t_mid * (p - b))) < 0:
            t_hi = t_mid
        else:
            t_lo = t_mid
    return 0.5 * (t_lo + t_hi)


def serial_nearest_distance(spec):
    """Reference for compute_constants' d: row norms over the gathered negative points."""
    pts = _scan_points(spec, _scan_resolution(spec.dim))
    neg = spec.value(pts) < -NEG_TOL
    b = spec.well_b
    dist = np.linalg.norm(pts[neg] - b, axis=1)
    near_order = _smallest(dist, 16)
    d = float(dist[near_order[0]])
    for idx in np.flatnonzero(neg)[near_order]:
        p = pts[idx]
        t_cross = _first_negative_crossing(spec, b, p)
        if t_cross is not None:
            d = min(d, t_cross * float(np.linalg.norm(p - b)))
    return d


NEAREST_SPECS = {
    name: REFERENCE_SPECS[name] for name in ("scalar", "decoupled", "poly3", "poly3_reordered")
}
NEAREST_SPECS["scalar_alpha_0.4"] = lambda: scalar_cubic(0.4)


@pytest.mark.parametrize("name", list(NEAREST_SPECS))
def test_nearest_distance_matches_row_norms(name):
    spec = NEAREST_SPECS[name]()
    assert np.array_equal(compute_constants(spec).d, serial_nearest_distance(spec))


def test_smallest_orders_ties_by_index():
    x = np.array([3.0, 1.0, 2.0, 1.0, 0.5, 2.0, 1.0, 7.0, np.nan, 1.0])
    for k in range(1, x.size + 2):
        np.testing.assert_array_equal(_smallest(x, k), np.argsort(x, kind="stable")[:k])
    x = np.random.default_rng(7).integers(0, 50, size=5000).astype(float)
    np.testing.assert_array_equal(_smallest(x, 32), np.argsort(x, kind="stable")[:32])


def full_grid_nearest_negative(axes, w, b, k):
    """Reference for _nearest_negative: distances of every negative scan point."""
    d2 = (axes[0] - b[0]) ** 2
    for j in range(1, len(axes)):
        d2 = np.add.outer(d2, (axes[j] - b[j]) ** 2)
    neg = np.flatnonzero(w < -NEG_TOL)
    dist = np.sqrt(d2.ravel()[neg])
    near_order = _smallest(dist, k)
    return neg[near_order], dist[near_order]


@st.composite
def negative_masks(draw):
    """Small scan grids, W = -1 on a random mask and +1 (or -NEG_TOL, not negative) off it.

    Steps of 0.25 and 0.5 put b and the grid on dyadic values, so symmetric
    masks and lattice offsets such as (1, 2) and (2, 1) give exactly tied
    distances; b may sit on the grid, between its points or outside the box.
    """
    dim = draw(st.integers(2, 3))
    shape = [draw(st.integers(2, 40 if dim == 2 else 14)) for _ in range(dim)]
    step = draw(st.sampled_from([0.25, 0.5, 0.3]))
    axes = [step * (np.arange(n) - draw(st.integers(0, n - 1))) for n in shape]
    b = np.array([
        draw(st.one_of(st.integers(-4, 2 * len(axis) + 2).map(lambda i: axis[0] + 0.5 * step * i),
                       st.floats(-8.0, 8.0)))
        for axis in axes])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(shape) < draw(st.sampled_from([0.002, 0.02, 0.1, 0.5]))
    if draw(st.booleans()):
        for j in range(dim):
            mask |= np.flip(mask, j)
    w = np.where(mask, -1.0, np.where(rng.random(shape) < 0.1, -NEG_TOL, 1.0))
    return axes, w, b


@settings(max_examples=300, deadline=None)
@given(case=negative_masks())
def test_window_search_matches_full_grid(case):
    axes, w, b = case

    def window_value(sub):
        # the sub-axes are runs of the increasing scan axes: look their values up
        return w[np.ix_(*[np.searchsorted(axis, s) for axis, s in zip(axes, sub)])]

    flat, dist = _nearest_negative(axes, window_value, b, 16)
    ref_flat, ref_dist = full_grid_nearest_negative(axes, w, b, 16)
    np.testing.assert_array_equal(flat, ref_flat)
    assert np.array_equal(dist, ref_dist)


def loop_distinct(roots):
    """Reference for _distinct_in_order: find_equilibria's former root-by-root dedupe."""
    found = np.empty_like(roots)
    n_found = 0
    for q in roots:
        if n_found and np.any(_row_norms(q - found[:n_found]) < 1e-6):
            continue
        found[n_found] = q
        n_found += 1
    return found[:n_found]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3), n=st.integers(0, 200),
       spread=st.sampled_from([3e-7, 1e-6, 3e-6]))
def test_distinct_in_order_matches_loop(seed, dim, n, spread):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-2.0, 2.0, size=(5, dim))
    roots = centres[rng.integers(0, 5, size=n)] + spread * rng.standard_normal((n, dim))
    assert np.array_equal(_distinct_in_order(roots, 1e-6), loop_distinct(roots))


def test_distinct_in_order_keeps_chain_ends():
    # 0.6e-6 apart: the second root is within 1e-6 of the kept first and is
    # dropped, the third is 1.2e-6 from the first and only near the dropped one
    roots = np.array([[0.0, 1.0], [0.6e-6, 1.0], [1.2e-6, 1.0]])
    np.testing.assert_array_equal(loop_distinct(roots), roots[[0, 2]])
    np.testing.assert_array_equal(_distinct_in_order(roots, 1e-6), roots[[0, 2]])


def traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_constants_peak_memory_is_a_few_slabs():
    # no array of the analysis grows with the grid: the scan, the box faces
    # and the search window go through grid_value in slabs of SLAB_POINTS
    # points, 2 MB each, against 33 MB for poly3's whole 161^3 scan
    spec = REFERENCE_SPECS["poly3"]()
    assert traced_peak(compute_constants, spec) <= 8e6


def test_four_component_sum_analyses_in_bounded_memory():
    # the sum of four quartic wells in the box [-3, 3]^4: its 38^4 scan and
    # its eight faces of 101^3 points took 544 MB as whole arrays.  The
    # faces u_k = +-3 contract their one-point axis first: contracted last,
    # the u_0 faces held 5 rows of 101^3 and peaked at 14 MB
    spec = user_polynomial(4, quartic_well_terms((0.6, 0.9, 1.2, 0.75)), [1.0] * 4,
                           [[-3.0, 3.0]] * 4)
    assert traced_peak(compute_constants, spec) <= 8e6
    # m = sum of 4 c_k / 3 over the wells
    assert abs(compute_constants(spec).m - 4.6) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(shape=st.lists(st.integers(0, 9), min_size=1, max_size=4),
       limit=st.integers(1, 100))
def test_slabs_partition_the_grid_in_c_order(shape, limit):
    with mock.patch.object(gradwave.potential, "SLAB_POINTS", limit):
        blocks = list(_slabs(shape))
    flat = np.arange(math.prod(shape)).reshape(shape)
    runs = [flat[block].ravel() for block in blocks]
    assert all(0 < run.size <= limit for run in runs)
    got = np.concatenate(runs) if runs else np.empty(0, dtype=int)
    np.testing.assert_array_equal(got, np.arange(flat.size))


def eighty_halving_crossings(spec, b, points) -> list:
    """Reference for _first_negative_crossings: all 80 halvings, every time."""
    ts = np.linspace(0.0, 1.0, 2001)
    steps = points - b
    lines = b + ts[:, None] * steps[:, None, :]
    below = np.asarray(spec.value(lines.reshape(-1, spec.dim)), dtype=float).reshape(
        len(points), ts.size) < -NEG_TOL
    first = np.argmax(below, axis=1)
    out = [None if not below[i, j] else 0.0 for i, j in enumerate(first)]
    open_ = np.flatnonzero(first > 0)
    if open_.size:
        t_lo, t_hi = ts[first[open_] - 1], ts[first[open_]]
        for _ in range(80):
            t_mid = 0.5 * (t_lo + t_hi)
            neg = np.asarray(spec.value(b + t_mid[:, None] * steps[open_]), dtype=float) < 0
            t_hi = np.where(neg, t_mid, t_hi)
            t_lo = np.where(neg, t_lo, t_mid)
        for i, t in zip(open_, 0.5 * (t_lo + t_hi)):
            out[i] = float(t)
    return out


def nearest_negative_points(spec, k=16):
    """The k nearest negative scan points to b, as compute_constants finds them."""
    axes = _scan_axes(spec, _scan_resolution(spec.dim))
    flat, _ = _nearest_negative(axes, spec.grid_value, spec.well_b, k)
    index = np.unravel_index(flat, [len(a) for a in axes])
    return np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)


@pytest.mark.parametrize("name", list(NEAREST_SPECS))
def test_crossings_stop_halving_at_the_fixed_point(name):
    spec = NEAREST_SPECS[name]()
    near = nearest_negative_points(spec)
    value_calls = []
    counted = dataclasses.replace(
        spec, value=lambda u: value_calls.append(1) or spec.value(u))
    got = _first_negative_crossings(counted, spec.well_b, near)
    assert got == eighty_halving_crossings(spec, spec.well_b, near)
    assert any(t not in (None, 0.0) for t in got)
    # one sampling call, and fewer halvings than 80: about 43 move a bracket
    assert len(value_calls) <= 1 + 50


def full_scan_constants(spec):
    """Reference for compute_constants: its analysis on W over the whole scan at once."""
    b = spec.well_b
    axes = _scan_axes(spec, _scan_resolution(spec.dim))
    w = spec.grid_value(axes)
    equilibria = find_equilibria(spec)
    eq_vals = np.asarray(spec.value(np.array(equilibria)), dtype=float)
    lowest = int(np.argmin(eq_vals))
    m, point_a = -float(eq_vals[lowest]), equilibria[lowest]
    assert not w.min() < -m - NEG_TOL
    step = b - point_a
    ts = np.linspace(0.0, 1.0, _scan_resolution(spec.dim))
    seg_vals = spec.value(point_a + np.multiply.outer(ts, step))
    i = int(np.argmax(seg_vals))
    t_lo, t_hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    _, neg_top = golden_section_min(
        lambda t: -float(spec.value(point_a + t * step)), float(t_lo), float(t_hi), 1e-13)
    flat, dist = full_grid_nearest_negative(axes, w, b, 16)
    index = np.unravel_index(flat, w.shape)
    near = np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)
    d = float(dist[0])
    for t_cross, p in zip(eighty_halving_crossings(spec, b, near), near):
        if t_cross is not None:
            d = min(d, t_cross * float(np.linalg.norm(p - b)))
    return {"m": m, "point_a": point_a, "M": max(0.0, -neg_top, float(seg_vals[i])), "d": d,
            "mu": float(np.linalg.eigvalsh(spec.hessian(b))[0]), "equilibria": equilibria}


STREAMED_SPECS = {
    **REFERENCE_SPECS,
    # the value-derived default kernel, on the rows of each slab
    "poly3_default_grid": lambda: dataclasses.replace(REFERENCE_SPECS["poly3"](),
                                                      grid_value=None),
}


@pytest.mark.parametrize("name", list(STREAMED_SPECS))
def test_streamed_scan_matches_the_whole_grid(name):
    spec = STREAMED_SPECS[name]()
    axes = _scan_axes(spec, _scan_resolution(spec.dim))
    whole = float(spec.grid_value(axes).min())
    assert abs(_grid_min(spec.grid_value, axes) - whole) <= 1e-13 * (1.0 + abs(whole))
    if name == "singular_hessian":
        # b is a degenerate minimum: the analysis stops before it scans
        with pytest.raises(AssumptionViolationError, match="not positive definite"):
            compute_constants(spec)
        return
    consts = compute_constants(spec)
    want = full_scan_constants(spec)
    for field in ("m", "M", "d", "mu"):
        assert getattr(consts, field) == want[field], field
    assert np.array_equal(consts.point_a, want["point_a"])
    assert len(consts.equilibria) == len(want["equilibria"])
    assert all(np.array_equal(q, r) for q, r in zip(consts.equilibria, want["equilibria"]))


def test_negative_face_corner_is_rejected():
    # W = |u|^2 - c prod_k u_k^2 (u_k + 2) on [-2, 2]^4 is negative on the box
    # only at the corner (2, 2, 2, 2), the last point of the last slab of the
    # face u_0 = 2, and positive at every other face grid point
    dim, c = 4, 2.49e-4
    terms = [(1.0, [2 if j == k else 0 for j in range(dim)]) for k in range(dim)]
    for pick in itertools.product(((1.0, 3), (2.0, 2)), repeat=dim):
        terms.append((-c * math.prod(f for f, _ in pick), [e for _, e in pick]))
    spec = user_polynomial(dim, terms, [0.0] * dim, [[-2.0, 2.0]] * dim)
    assert float(spec.value(np.full(dim, 2.0))) < 0
    assert float(spec.value(np.array([2.0, 2.0, 2.0, 1.96]))) > 0
    for check in (validate_spec, compute_constants):
        with pytest.raises(AssumptionViolationError) as err:
            check(spec)
        assert str(err.value) == "potential is negative on the bounding-box boundary"


def coupling_terms(eps, i, j, dim):
    """Monomial table of eps (u_i - 1)^2 (u_j - 1)^2, which leaves b = (1, ..., 1) alone."""
    terms = []
    for ci, ei in ((1.0, 2), (-2.0, 1), (1.0, 0)):
        for cj, ej in ((1.0, 2), (-2.0, 1), (1.0, 0)):
            exps = [0] * dim
            exps[i] += ei
            exps[j] += ej
            terms.append((eps * ci * cj, exps))
    return terms


POLY3_TERMS = {
    "poly3": quartic_well_terms((0.6, 0.9, 1.2)),
    "poly3_coupled": quartic_well_terms((0.6, 0.9, 1.2)) + coupling_terms(0.1, 0, 1, 3),
}


@pytest.mark.parametrize("perm", [p for p in itertools.permutations(range(3)) if p != (0, 1, 2)])
@pytest.mark.parametrize("name", list(POLY3_TERMS))
def test_permuting_components_permutes_the_analysis(name, perm):
    # component j of the permuted potential is component perm[j] of the
    # original, so its wells are the original wells with coordinates permuted
    terms = POLY3_TERMS[name]
    base = compute_constants(user_polynomial(3, terms, [1.0] * 3, [[-2.0, 2.0]] * 3))
    permuted = [(coeff, [exps[k] for k in perm]) for coeff, exps in terms]
    got = compute_constants(user_polynomial(3, permuted, [1.0] * 3, [[-2.0, 2.0]] * 3))
    for field in ("m", "M", "d", "mu"):
        assert abs(getattr(got, field) - getattr(base, field)) <= 1e-12, field
    assert np.max(np.abs(got.point_a - base.point_a[list(perm)])) <= 1e-9
    want = np.array(base.equilibria)[:, list(perm)]
    eq = np.array(got.equilibria)
    assert eq.shape == want.shape
    gaps = np.linalg.norm(eq[:, None, :] - want[None, :, :], axis=-1)
    assert np.all(gaps.min(axis=1) <= 1e-9) and np.all(gaps.min(axis=0) <= 1e-9)


GRID_SPECS = {**POINT_GRADIENT_SPECS, "poly3_reordered": REFERENCE_SPECS["poly3_reordered"]}


@pytest.mark.parametrize("name", list(GRID_SPECS))
def test_grid_value_matches_value_on_scan(name):
    # the analysis scans the box with grid_value: the built-ins derive it
    # from value and must agree bit for bit; a polynomial contracts its term
    # table in another order, so it must agree to roundoff and give the
    # same negative region
    spec = GRID_SPECS[name]()
    per_axis = _scan_resolution(spec.dim)
    got = spec.grid_value(_scan_axes(spec, per_axis))
    assert got.shape == (per_axis,) * spec.dim
    want = spec.value(_scan_points(spec, per_axis)).reshape(got.shape)
    if name in ("poly3", "poly3_reordered", "coupled"):  # term tables
        np.testing.assert_array_equal(got < -NEG_TOL, want < -NEG_TOL)
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("axes", [
    [np.linspace(-2.0, 2.0, 401), np.linspace(-2.0, 2.0, 401)],
    [np.linspace(-2.0, 2.0, 7), np.array([0.3])],
    [np.array([-1.0]), np.array([1.0])],
])
def test_decoupled_grid_value_is_an_outer_sum(axes):
    # the separable kernel never builds point rows nor calls value, and
    # equals value on the rows bit for bit
    spec = decoupled_quartic(0.6, 1.2)
    got = dataclasses.replace(spec, value=None).grid_value(axes)
    assert got.shape == (len(axes[0]), len(axes[1]))
    want = spec.value(_mesh_rows(axes)).reshape(got.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("point_axis", [0, 1, 2])
def test_polynomial_grid_value_on_a_face(point_axis):
    # a face fixes one axis to one point, which is contracted first; the
    # values still agree with value on the rows to roundoff
    spec = REFERENCE_SPECS["poly3"]()
    axes = [np.linspace(-2.0, 2.0, n) for n in (9, 8, 7)]
    axes[point_axis] = np.array([0.7])
    got = spec.grid_value(axes)
    assert got.shape == tuple(len(a) for a in axes)
    want = spec.value(_mesh_rows(axes)).reshape(got.shape)
    assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))


def reference_deepest_well(spec):
    """Reference for compute_constants' m and point_a: L-BFGS-B from the lowest scan cells."""
    lo, hi = spec.bounding_box[:, 0], spec.bounding_box[:, 1]
    pts = _scan_points(spec, _scan_resolution(spec.dim))
    w = spec.value(pts)
    order = _smallest(w, 32)
    best_val = np.inf
    best_pt = pts[order[0]]
    tried: list[np.ndarray] = []
    for idx in order:
        p0 = pts[idx]
        if any(np.linalg.norm(p0 - t) < 0.05 * np.max(hi - lo) for t in tried):
            continue
        tried.append(p0)
        res = scipy_minimize(
            lambda u: float(spec.value(u)),
            p0,
            jac=lambda u: np.asarray(spec.gradient(u), dtype=float),
            bounds=list(zip(lo, hi)),
            method="L-BFGS-B",
        )
        if res.fun < best_val:
            best_val, best_pt = float(res.fun), np.asarray(res.x)
        if len(tried) >= 5:
            break
    return -best_val, best_pt


def reference_segment_max(spec, point_a):
    """Reference for compute_constants' M: bounded Brent on the sampled maximum's bracket."""
    b = spec.well_b
    seg = lambda t: point_a + np.multiply.outer(np.asarray(t), b - point_a)
    ts = np.linspace(0.0, 1.0, _scan_resolution(spec.dim))
    seg_vals = spec.value(seg(ts))
    i = int(np.argmax(seg_vals))
    t_lo, t_hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    res = scipy_minimize_scalar(
        lambda t: -float(spec.value(seg(float(t)))),
        bounds=(t_lo, t_hi),
        method="bounded",
        options={"xatol": 1e-13},
    )
    return max(0.0, -float(res.fun), float(seg_vals[i]))


CONSTANT_SPECS = {
    "scalar_0.4": lambda: scalar_cubic(0.4),
    "scalar_0.6": lambda: scalar_cubic(0.6),
    "scalar_1.0": lambda: scalar_cubic(1.0),
    "decoupled": REFERENCE_SPECS["decoupled"],
    "poly3": REFERENCE_SPECS["poly3"],
    "poly3_reordered": REFERENCE_SPECS["poly3_reordered"],
}


@pytest.mark.parametrize("name", list(CONSTANT_SPECS))
def test_deepest_well_and_barrier_match_scipy_reference(name):
    spec = CONSTANT_SPECS[name]()
    consts = compute_constants(spec)
    m, point_a = reference_deepest_well(spec)
    assert abs(consts.m - m) <= 1e-12
    assert np.max(np.abs(consts.point_a - point_a)) <= 1e-9
    assert abs(consts.M - reference_segment_max(spec, point_a)) <= 1e-12


def test_no_negative_equilibrium_is_rejected(monkeypatch):
    monkeypatch.setattr(gradwave.potential, "find_equilibria", lambda spec: [])
    with pytest.raises(AssumptionViolationError) as err:
        compute_constants(scalar_cubic(0.6))
    assert str(err.value) == "no negative-potential equilibrium found inside the bounding box"


@pytest.mark.parametrize("lo, hi, x_min", [(-1.0, 3.0, 0.3), (0.0, 1.0, 0.0), (0.0, 1.0, 1.0)])
def test_golden_section_min_brackets_the_minimizer(lo, hi, x_min):
    calls = []

    def f(x):
        calls.append(x)
        return (x - x_min) ** 2

    x, fx = golden_section_min(f, lo, hi, 1e-9)
    evaluated = list(calls)
    assert abs(x - x_min) <= 1e-9
    assert x in evaluated and all(lo <= t <= hi for t in evaluated)
    assert fx == f(x) == min(f(t) for t in evaluated)

"""Potential evaluation, analytic constants, and zero-set projection."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gradwave import (
    AssumptionViolationError,
    ContractViolationError,
    DegenerateProjectionError,
    compute_constants,
    decoupled_quartic,
    evaluate,
    find_equilibria,
    project_to_zero_set,
    scalar_cubic,
    user_polynomial,
    validate_spec,
)
from gradwave.potential import NEG_TOL, _Monomials, _quartic_well, _smallest, well_minima
from conftest import D_DECOUPLED, D_SCALAR, M_SEG_DECOUPLED, U_STAR


def quartic_well_terms(speeds):
    """Monomial table of the sum of one-component quartic wells, one per speed.

    Component k contributes u_k^4/2 - c_k u_k^3/3 - u_k^2 + c_k u_k; the
    constants of all components merge into one trailing term.
    """
    dim = len(speeds)
    terms = []
    for k, c in enumerate(speeds):
        for coeff, e in ((0.5, 4), (-c / 3.0, 3), (-1.0, 2), (c, 1)):
            exps = [0] * dim
            exps[k] = e
            terms.append((coeff, exps))
    terms.append((sum(0.5 - 2.0 * c / 3.0 for c in speeds), [0] * dim))
    return terms


def quartic_well_quad(u, c):
    # independent route: numerical quadrature of the defining integrand
    val, _ = quad(lambda s: (s * s - 1.0) * (2.0 * s - c), 1.0, u, limit=200)
    return val


class TestEvaluate:
    def test_reference_well_is_zero(self, decoupled_spec):
        assert evaluate(decoupled_spec, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-14)

    def test_side_well_depth(self, decoupled_spec):
        expected = quartic_well_quad(-1.0, 0.6)  # = -4*alpha/3
        assert expected == pytest.approx(-0.8, abs=1e-12)
        assert evaluate(decoupled_spec, [-1.0, 1.0]) == pytest.approx(expected, abs=1e-10)

    def test_deep_well_depth(self, decoupled_spec):
        expected = quartic_well_quad(-1.0, 0.6) + quartic_well_quad(-1.0, 1.2)
        assert expected == pytest.approx(-2.4, abs=1e-12)
        assert evaluate(decoupled_spec, [-1.0, -1.0]) == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch(self, scalar_spec):
        with pytest.raises(ContractViolationError):
            evaluate(scalar_spec, [1.0, 2.0])

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
        w = lambda p: evaluate(decoupled_spec, p)
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


def test_smallest_orders_ties_by_index():
    x = np.array([3.0, 1.0, 2.0, 1.0, 0.5, 2.0, 1.0, 7.0, np.nan, 1.0])
    for k in range(1, x.size + 2):
        np.testing.assert_array_equal(_smallest(x, k), np.argsort(x, kind="stable")[:k])
    x = np.random.default_rng(7).integers(0, 50, size=5000).astype(float)
    np.testing.assert_array_equal(_smallest(x, 32), np.argsort(x, kind="stable")[:32])

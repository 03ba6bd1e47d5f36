"""Grids, discrete calculus, seed profiles, recentering, and CSV round trips."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradwave import (
    ContractViolationError,
    Grid,
    NoCrossingError,
    PotentialSpec,
    Profile,
    derivative,
    read_csv,
    scalar_cubic,
    segment_profile,
    shift,
    translate_to_crossing,
    write_csv,
)
from conftest import U_STAR, X0_TANH


class TestGrid:
    def test_uniform_contains_exact_zero(self):
        g = Grid.uniform(-3.0, 2.0, 0.01)
        assert 0.0 in g.nodes
        assert g.nodes[g.index_zero] == 0.0
        assert g.x_left == pytest.approx(-3.0)
        assert g.x_right == pytest.approx(2.0)
        assert np.allclose(np.diff(g.nodes), 0.01)

    def test_graded_nodes_round_trip_through_csv(self, tmp_path, scalar_spec):
        # a profile CSV may carry non-uniform nodes; they come back bit for bit
        g = Grid(nodes=0.5 * np.sinh(0.05 * np.arange(-60, 41)))
        assert g.nodes[g.index_zero] == 0.0 and g.index_zero == 60
        vals = np.tanh(g.nodes + X0_TANH)[:, None]
        vals[-1] = 1.0
        path = tmp_path / "graded.csv"
        write_csv(path, Profile(grid=g, values=vals, well_b=np.array([1.0])), scalar_spec)
        q = read_csv(path, scalar_spec)
        assert q.grid.nodes.tobytes() == g.nodes.tobytes()
        assert q.values.tobytes() == vals.tobytes()

    def test_invalid_grids(self):
        with pytest.raises(ContractViolationError):
            Grid.uniform(1.0, 2.0, 0.1)
        with pytest.raises(ContractViolationError):
            Grid(nodes=np.array([-1.0, 0.5, 1.0]))  # no zero node
        with pytest.raises(ContractViolationError):
            Grid(nodes=np.array([-1.0, 0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("nodes", [[-1.0, -0.5, 0.0, np.nan, 1.0],
                                       [-np.inf, -0.5, 0.0, 0.5, 1.0],
                                       [-1.0, -0.5, 0.0, 0.5, np.inf]])
    def test_non_finite_nodes_rejected(self, nodes):
        # a NaN difference compares False both ways, and -inf < 0 < inf
        with pytest.raises(ContractViolationError):
            Grid(nodes=np.array(nodes))


class TestDerivative:
    def test_constant_profile(self):
        g = Grid.uniform(-2.0, 2.0, 0.1)
        p = Profile(grid=g, values=np.ones((g.n_nodes, 1)), well_b=np.array([1.0]))
        d = derivative(p)
        assert np.max(np.abs(d.values)) <= 1e-12
        assert np.max(np.abs(d.left_at_zero)) <= 1e-12

    def test_tanh_slope_at_zero(self):
        g = Grid.uniform(-8.0, 8.0, 0.01)
        vals = np.tanh(g.nodes)[:, None]
        vals[-1] = np.tanh(g.x_right)
        p = Profile(grid=g, values=vals, well_b=vals[-1])
        d = derivative(p)
        assert d.values[g.index_zero, 0] == pytest.approx(1.0, abs=1e-4)

    def test_linear_profile_exact(self):
        g = Grid.uniform(-2.0, 3.0, 0.07)
        v = np.array([0.8, -0.4])
        b = np.zeros(2)
        vals = (g.nodes - g.x_right)[:, None] * v[None, :]
        p = Profile(grid=g, values=vals, well_b=vals[-1])
        d = derivative(p)
        assert np.max(np.abs(d.values - v)) <= 1e-12
        np.testing.assert_allclose(d.left_at_zero, v, atol=1e-12)
        np.testing.assert_allclose(d.right_at_zero, v, atol=1e-12)

    def test_one_sided_slopes_capture_kink(self):
        g = Grid.uniform(-2.0, 2.0, 0.05)
        vals = np.abs(g.nodes)[:, None]
        p = Profile(grid=g, values=vals, well_b=vals[-1])
        d = derivative(p)
        assert d.left_at_zero[0] == pytest.approx(-1.0, abs=1e-10)
        assert d.right_at_zero[0] == pytest.approx(1.0, abs=1e-10)

    def test_translated_derivative_commutes(self, scalar_spec):
        g = Grid.uniform(-10.0, 10.0, 0.01)
        vals = np.tanh(g.nodes)[:, None]
        vals[-1] = 1.0
        p = Profile(grid=g, values=vals, well_b=np.array([1.0]))
        s = 0.37
        d_shifted = derivative(shift(p, s)).values
        shifted_d = np.interp(g.nodes + s, g.nodes, derivative(p).values[:, 0])
        interior = (g.nodes > -8) & (g.nodes < 8)
        assert np.max(np.abs(d_shifted[interior, 0] - shifted_d[interior])) <= 1e-3


class TestInitialProfile:
    def test_scalar_structure(self, scalar_spec, scalar_consts):
        g = Grid.uniform(-20.0, 10.0, 0.01)
        p = segment_profile(scalar_spec, g, scalar_consts.point_a)
        assert p.values[g.index_zero, 0] == pytest.approx(U_STAR[0.6], abs=1e-8)
        assert p.values[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert p.values[-1, 0] == pytest.approx(1.0, abs=0)
        w = scalar_spec.value(p.values)
        assert np.min(w[g.nodes > 0]) >= -1e-10

    def test_decoupled_structure(self, decoupled_spec, decoupled_consts):
        g = Grid.uniform(-20.0, 10.0, 0.01)
        p = segment_profile(decoupled_spec, g, decoupled_consts.point_a)
        q = p.values[g.index_zero]
        assert abs(float(decoupled_spec.value(q))) <= 1e-10
        assert -1.0 < q[0] < 1.0 and -1.0 < q[1] < 1.0
        # the diagonal crossing, from the 1-D bisection oracle
        assert q[0] == pytest.approx(0.1306623862918077, abs=1e-6)
        w = decoupled_spec.value(p.values)
        assert np.min(w[g.nodes > 0]) >= -1e-10

    def test_segment_that_never_goes_negative(self):
        # W > 0 on (1, 1.5]: the segment from 1.5 to the well at 1 has no crossing
        g = Grid.uniform(-5.0, 5.0, 0.1)
        with pytest.raises(ContractViolationError, match="never enters the negative region"):
            segment_profile(scalar_cubic(0.6), g, [1.5])

    def test_negative_region_at_the_well(self):
        # W(b) = -1e-6 < -NEG_TOL: the last segment sample, at b, is negative
        spec = PotentialSpec(dim=1, well_b=np.array([1.0]),
                             value=lambda u: np.asarray(u, dtype=float)[..., 0] ** 2 - 1.000001,
                             gradient=lambda u: 2.0 * np.asarray(u, dtype=float),
                             hessian=lambda u: np.full(np.shape(u) + (1,), 2.0),
                             bounding_box=np.array([[-2.0, 2.0]]))
        g = Grid.uniform(-5.0, 5.0, 0.1)
        with pytest.raises(ContractViolationError, match="touches the reference well"):
            segment_profile(spec, g, [0.0])


class TestTranslate:
    def test_already_centered_unchanged(self, scalar_spec, scalar_consts):
        g = Grid.uniform(-20.0, 10.0, 0.01)
        p = segment_profile(scalar_spec, g, scalar_consts.point_a)
        out = translate_to_crossing(scalar_spec, p)
        assert np.max(np.abs(out.values - p.values)) <= 1e-10

    def test_shifted_wave_recentred(self, scalar_spec):
        g = Grid.uniform(-20.0, 15.0, 0.01)
        vals = np.tanh(g.nodes + X0_TANH + 0.3)[:, None]
        vals[-1] = 1.0
        p = Profile(grid=g, values=vals, well_b=np.array([1.0]))
        out = translate_to_crossing(scalar_spec, p)
        assert abs(float(scalar_spec.value(out.values[g.index_zero]))) <= 1e-10
        assert out.values[g.index_zero, 0] == pytest.approx(U_STAR[0.6], abs=1e-4)

    def test_idempotent(self, scalar_spec):
        g = Grid.uniform(-20.0, 15.0, 0.01)
        vals = np.tanh(g.nodes + 0.4)[:, None]
        vals[-1] = 1.0
        p = Profile(grid=g, values=vals, well_b=np.array([1.0]))
        once = translate_to_crossing(scalar_spec, p)
        twice = translate_to_crossing(scalar_spec, once)
        assert np.max(np.abs(twice.values - once.values)) <= 1e-8

    def test_no_crossing_error(self, scalar_spec):
        g = Grid.uniform(-5.0, 5.0, 0.1)
        vals = np.full((g.n_nodes, 1), -1.0)
        vals[-1] = 1.0  # right boundary pin; interior never leaves the well
        vals[-2] = -1.0
        p = Profile(grid=g, values=vals, well_b=np.array([1.0]))
        # potential is negative at every interior node up to the boundary
        with pytest.raises(NoCrossingError):
            translate_to_crossing(scalar_spec, p)


@settings(max_examples=20, deadline=None)
@given(s=st.floats(-0.5, 0.5))
def test_shift_round_trip(s):
    g = Grid.uniform(-12.0, 12.0, 0.01)
    vals = np.tanh(g.nodes)[:, None]
    vals[-1] = 1.0
    p = Profile(grid=g, values=vals, well_b=np.array([1.0]))
    back = shift(shift(p, s), -s)
    interior = (g.nodes > -10) & (g.nodes < 10)
    assert np.max(np.abs(back.values[interior] - p.values[interior])) <= 5e-5


def _write_csv_reference(path, profile, spec):
    """The CSV writer as first written: csv.writer, one row at a time."""
    w = spec.value(profile.values)
    du = derivative(profile).values
    du_norm = np.sqrt(np.sum(du * du, axis=1))
    header = ["x"] + [f"u{k + 1}" for k in range(profile.dim)] + ["W", "du_norm"]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for i, xi in enumerate(profile.grid.nodes):
            row = [repr(float(xi))]
            row += [repr(float(v)) for v in profile.values[i]]
            row += [repr(float(w[i])), repr(float(du_norm[i]))]
            wr.writerow(row)


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path, scalar_spec, scalar_consts):
        g = Grid.uniform(-6.0, 4.0, 0.05)
        p = segment_profile(scalar_spec, g, scalar_consts.point_a)
        path = tmp_path / "profile.csv"
        write_csv(path, p, scalar_spec)
        q = read_csv(path, scalar_spec)
        assert np.array_equal(q.values, p.values)
        assert np.array_equal(q.grid.nodes, g.nodes)

    def test_bytes_match_csv_writer(self, tmp_path, decoupled_spec):
        # more than one 512-row chunk, exponent reprs and a negative zero
        g = Grid.uniform(-6.0, 6.0, 0.01)
        vals = np.column_stack([np.tanh(g.nodes), np.cos(g.nodes)])
        vals[5] = [1e-05, -0.0]
        vals[511:514] = [[1e+16, -2.5e-300], [-0.0, 0.1], [3.0, -1e-05]]
        vals[-1] = decoupled_spec.well_b
        p = Profile(grid=g, values=vals, well_b=decoupled_spec.well_b)
        assert g.n_nodes > 2 * 512
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        write_csv(got, p, decoupled_spec)
        _write_csv_reference(ref, p, decoupled_spec)
        data = got.read_bytes()
        assert data == ref.read_bytes()
        assert b"1e-05" in data and b"1e+16" in data and b"-0.0," in data
        assert data.count(b"\r\n") == g.n_nodes + 1

    def test_exact_derivative_column_accepted(self, tmp_path, scalar_spec):
        # an external writer's du_norm may be the exact |u'|, off from the
        # stencil by O(h^2), and its W another roundoff of the same formula
        g = Grid.uniform(-40.0 / 0.6, 22.0, 0.02)
        vals = np.tanh(g.nodes + X0_TANH)[:, None]
        vals[-1] = 1.0
        w = scalar_spec.value(vals)
        w = np.where(w == 0.0, w, w * (1.0 + 2.0 ** -52))
        du_norm = 1.0 - np.tanh(g.nodes + X0_TANH) ** 2
        rows = ["x,u1,W,du_norm"] + [
            ",".join(repr(float(v)) for v in (g.nodes[i], vals[i, 0], w[i], du_norm[i]))
            for i in range(g.n_nodes)]
        path = tmp_path / "exact.csv"
        path.write_text("\n".join(rows) + "\n")
        q = read_csv(path, scalar_spec)
        assert np.array_equal(q.values, vals)
        # the accepted gap is the stencil's, not a loose one
        d = derivative(q).values[:, 0]
        assert 5e-5 < np.max(np.abs(d - du_norm)) < 1e-3

    def test_header_mismatch_names_column(self, tmp_path, scalar_spec):
        path = tmp_path / "bad.csv"
        path.write_text("x,u1,u2,W,du_norm\n0.0,1.0,1.0,0.0,0.0\n")
        with pytest.raises(ContractViolationError, match="u2"):
            read_csv(path, scalar_spec)

    def test_short_row_rejected(self, tmp_path, scalar_spec):
        path = tmp_path / "bad2.csv"
        path.write_text("x,u1,W,du_norm\n-1.0,0.5\n")
        with pytest.raises(ContractViolationError):
            read_csv(path, scalar_spec)

"""Acceptance gate: every criterion at its stated tolerance.

Each criterion is one test that prints a PASS line with the measured
numbers once its assertions hold.  The exactly solvable potentials provide
the oracles: the scalar family has the explicit front with speed equal to
its parameter, and the two-component family has root speed equal to the
larger parameter.
"""

import json

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gradwave import (
    FunctionalParams,
    Grid,
    MinimizeOptions,
    compute_bounds,
    compute_constants,
    derivative,
    energy_gradient,
    gamma_curve,
    scalar_cubic,
    segment_profile,
)
from gradwave.cli import main
from gradwave.functional import objective
from gradwave.verify import (
    first_integral_residual,
    fit_decay_rate,
    halfline_identities,
    jump_gap,
    shooting_check,
)
from conftest import make_grid, timed_find_speed


def align_to_front(profile, component=0):
    """Best translation aligning a profile component to the unit front shape."""
    x = profile.grid.nodes
    u = profile.values[:, component]

    def err(s):
        return float(np.max(np.abs(u - np.tanh(x + s))))

    s0 = float(np.arctanh(np.clip(u[profile.grid.index_zero], -0.999999, 0.999999)))
    res = minimize_scalar(err, bounds=(s0 - 0.5, s0 + 0.5), method="bounded",
                          options={"xatol": 1e-10})
    return min(err(s0), float(res.fun))


@pytest.fixture(scope="module")
def scalar_family():
    """Timed root solves for the three scalar parameters."""
    out = {}
    for alpha in (0.4, 1.0):
        spec = scalar_cubic(alpha)
        consts = compute_constants(spec)
        res, elapsed, grid = timed_find_speed(spec, consts)
        out[alpha] = (spec, consts, res, elapsed)
    return out


@pytest.fixture(scope="module")
def scalar_wide_curve(scalar_spec, scalar_consts):
    """Seven-point sweep spanning [0.3 c*, 1.7 c*] for the scalar potential."""
    c_star = 0.6
    c_list = list(np.linspace(0.3 * c_star, 1.7 * c_star, 7))
    grid = make_grid(scalar_consts, c_list[0])
    opts = MinimizeOptions(opt_tol=1e-6, restarts=0)
    return c_list, gamma_curve(scalar_spec, scalar_consts, grid, c_list, opts)


def test_criterion_01_scalar_exact_waves(scalar_spec, scalar_consts, scalar_speed,
                                         scalar_family):
    rows = []
    cases = {0.6: (scalar_spec, scalar_consts, scalar_speed[0], scalar_speed[1])}
    for alpha, (spec, consts, res, elapsed) in scalar_family.items():
        cases[alpha] = (spec, consts, res, elapsed)
    for alpha in (0.4, 0.6, 1.0):
        spec, consts, res, elapsed = cases[alpha]
        assert res.c_star == pytest.approx(alpha, abs=1e-2), f"alpha={alpha}"
        err = align_to_front(res.profile)
        assert err <= 1e-2, f"alpha={alpha}: front mismatch {err:.3g}"
        assert elapsed <= 60.0, f"alpha={alpha}: runtime {elapsed:.1f}s"
        rows.append(f"alpha={alpha}: c*={res.c_star:.4f} Linf={err:.2e} t={elapsed:.0f}s")
    print("ACCEPTANCE 1 PASS — " + "; ".join(rows))


def test_criterion_02_vector_example(decoupled_speed):
    res, elapsed, _ = decoupled_speed
    assert res.c_star == pytest.approx(1.2, abs=1e-2)
    assert res.c_star >= 0.6
    print(f"ACCEPTANCE 2 PASS — c*={res.c_star:.4f} (target 1.2), "
          f">= 0.6 confirms the largest-speed claim; t={elapsed:.0f}s")


def test_criterion_03_bracket_containment(scalar_speed, scalar_spec, scalar_consts,
                                          decoupled_speed, decoupled_spec, decoupled_consts):
    rows = []
    for name, (res, _, _), spec, consts in (
        ("scalar", scalar_speed, scalar_spec, scalar_consts),
        ("decoupled", decoupled_speed, decoupled_spec, decoupled_consts),
    ):
        b = compute_bounds(spec, consts, res.c_star)
        assert b.bracket_lo - 1e-6 < res.c_star <= b.bracket_hi + 1e-6, name
        rows.append(f"{name}: {b.bracket_lo:.4f} < {res.c_star:.4f} <= {b.bracket_hi:.4f}")
    print("ACCEPTANCE 3 PASS — " + "; ".join(rows))


def test_criterion_04_gamma_monotone_sign_structure(scalar_wide_curve):
    c_list, results = scalar_wide_curve
    gammas = [r.gamma for r in results]
    assert all(b > a for a, b in zip(gammas, gammas[1:])), "not strictly increasing"
    signs = [g >= 0 for g in gammas]
    assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1, "sign changes != 1"
    for res in results:
        assert res.gamma >= res.bounds.lower - 1e-3
        assert res.gamma <= res.bounds.upper + 1e-3
    print(f"ACCEPTANCE 4 PASS — gammas {['%+.3f' % g for g in gammas]} strictly "
          "increasing, one sign change, inside the analytic bounds")


def test_criterion_05_identity_suite(scalar_spec, scalar_wide_curve,
                                     scalar_speed, decoupled_spec, decoupled_speed):
    c_list, results = scalar_wide_curve
    checked = 0
    worst = {"half": 0.0, "fi": 0.0, "jump": 0.0}
    pairs = [(scalar_spec, r.c, r.gamma, r.profile) for r in results]
    pairs.append((scalar_spec, scalar_speed[0].c_star, scalar_speed[0].gamma_at_c_star,
                  scalar_speed[0].profile))
    pairs.append((decoupled_spec, decoupled_speed[0].c_star,
                  decoupled_speed[0].gamma_at_c_star, decoupled_speed[0].profile))
    for spec, c, gamma, profile in pairs:
        r_right, r_left, r_slope = halfline_identities(spec, c, profile)
        assert max(r_right, r_left, r_slope) <= 5e-3
        fi = first_integral_residual(spec, c, profile)
        assert fi <= 2e-2
        jg = jump_gap(spec, c, gamma, profile)
        assert jg <= 1e-2
        if abs(gamma) > 1e-3:
            der = derivative(profile)
            dp2 = float(np.dot(der.right_at_zero, der.right_at_zero))
            dm2 = float(np.dot(der.left_at_zero, der.left_at_zero))
            assert np.sign(dp2 - dm2) == np.sign(gamma)
        worst["half"] = max(worst["half"], r_right, r_left, r_slope)
        worst["fi"] = max(worst["fi"], fi)
        worst["jump"] = max(worst["jump"], jg)
        checked += 1
    print(f"ACCEPTANCE 5 PASS — {checked} minimizers: worst halfline "
          f"{worst['half']:.2e}, first-integral {worst['fi']:.2e}, jump {worst['jump']:.2e}")


def test_criterion_06_decay_rates(scalar_spec, scalar_consts, scalar_speed,
                                  decoupled_spec, decoupled_consts, decoupled_speed):
    rows = []
    for name, spec, consts, (res, _, _) in (
        ("scalar", scalar_spec, scalar_consts, scalar_speed),
        ("decoupled", decoupled_spec, decoupled_consts, decoupled_speed),
    ):
        lam_fit, lam_theory = fit_decay_rate(spec, consts, res.c_star, res.profile)
        assert lam_fit == pytest.approx(2.0, abs=0.1), name
        assert lam_theory == pytest.approx(2.0, abs=1e-3), name
        assert lam_fit > res.c_star - 0.05, name
        rows.append(f"{name}: fit={lam_fit:.3f} theory={lam_theory:.3f}")
    print("ACCEPTANCE 6 PASS — " + "; ".join(rows))


def test_criterion_07_gradient_matches_finite_differences(
    scalar_spec, scalar_consts, decoupled_spec, decoupled_consts
):
    rng = np.random.default_rng(42)
    worst = 0.0
    for spec, consts in ((scalar_spec, scalar_consts), (decoupled_spec, decoupled_consts)):
        grid = Grid.uniform(-6.0, 5.0, 0.1)
        base = segment_profile(spec, grid, consts.point_a)
        params = FunctionalParams(c=0.8, penalty_kappa=100.0)
        for _ in range(20):
            vals = base.values + 0.2 * rng.standard_normal(base.values.shape)
            vals[-1] = base.well_b
            p = base.with_values(vals)
            grad = energy_gradient(spec, params, p)
            eps = 1e-6
            for i in rng.choice(grid.n_nodes - 1, size=6, replace=False):
                for k in range(p.dim):
                    vp, vm = vals.copy(), vals.copy()
                    vp[i, k] += eps
                    vm[i, k] -= eps
                    fd = (
                        objective(spec, params, p.with_values(vp))
                        - objective(spec, params, p.with_values(vm))
                    ) / (2 * eps)
                    rel = abs(grad[i, k] - fd) / (1.0 + abs(fd))
                    worst = max(worst, rel)
                    assert rel <= 1e-6
    print(f"ACCEPTANCE 7 PASS — 20 random profiles per potential, worst relative "
          f"gradient error {worst:.2e}")


def test_criterion_08_shooting_agreement(scalar_spec, scalar_consts, scalar_speed,
                                         decoupled_spec, decoupled_consts, decoupled_speed):
    rows = []
    for name, spec, consts, (res, _, _) in (
        ("scalar", scalar_spec, scalar_consts, scalar_speed),
        ("decoupled", decoupled_spec, decoupled_consts, decoupled_speed),
    ):
        gap = shooting_check(spec, consts, res.c_star, res.profile)
        assert gap <= 2e-2, name
        rows.append(f"{name}: gap={gap:.2e}")
    print("ACCEPTANCE 8 PASS — " + "; ".join(rows))


def test_criterion_09_convergence_order(scalar_spec, scalar_consts):
    c_stars = {}
    for h in (0.04, 0.02, 0.01):
        res, _, _ = timed_find_speed(scalar_spec, scalar_consts, c_tol=2e-4, h=h,
                                     restarts=0)
        c_stars[h] = res.c_star
    inc1 = abs(c_stars[0.04] - c_stars[0.02])
    inc2 = abs(c_stars[0.02] - c_stars[0.01])
    order = np.log2(inc1 / inc2) if inc2 > 0 else float("inf")
    # logged, not hard-asserted: the hard criterion is accuracy at h = 0.01
    print(f"ACCEPTANCE 9 — c*(h) = {c_stars}; increments {inc1:.2e} -> {inc2:.2e} "
          f"(observed order {order:.2f}); |c*(0.01) - 0.6| = {abs(c_stars[0.01] - 0.6):.2e}")
    assert abs(c_stars[0.01] - 0.6) <= 1e-2
    print("ACCEPTANCE 9 PASS")


def test_criterion_10_reproducible_reports(tmp_path):
    out = tmp_path / "out"
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(f"""
[potential]
variant = scalar_cubic
alpha = 0.6

[grid]
h = 0.02

[solver]
opt_tol = 1e-6
restarts = 1
seed = 0

[mode]
c_tol = 5e-3

[output]
directory = {out}
""")
    assert main(["speed", "--config", str(cfg_path)]) == 0
    first = json.loads((out / "report.json").read_text())
    assert main(["speed", "--config", str(cfg_path)]) == 0
    second = json.loads((out / "report.json").read_text())
    assert first["digest"] == second["digest"]
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    print("ACCEPTANCE 10 PASS — identical config and seed give byte-identical "
          "digest-covered sections")

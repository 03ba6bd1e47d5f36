"""Shared fixtures: potentials, constants, and the expensive solver runs.

The full-speed solves are session-scoped so the speed, verify, and
acceptance modules can share them; each records its wall-clock time for the
runtime criterion.
"""

import time

import numpy as np
import pytest

from gradwave import (
    Grid,
    compute_bounds,
    compute_constants,
    decoupled_quartic,
    find_speed,
    gamma_curve,
    scalar_cubic,
)
from gradwave.speed import auto_grid_bounds

# frozen oracle values (independent derivations: symbolic integration of the
# quartic wells, 1-D bisection for the zero-set crossings, quadrature for the
# weighted energies)
SCALAR_ALPHA = 0.6
U_STAR = {0.4: -1.0 / 3.0, 0.6: -0.13667504192892, 1.0: 0.21525043702153}
D_SCALAR = {0.4: 4.0 / 3.0, 0.6: 1.13667504192892, 1.0: 0.78474956297847}
X0_TANH = -0.137535742472885  # atanh(U_STAR[0.6])
V_STAR_12 = 0.3797958971132714
D_DECOUPLED = 0.620204102886729
M_SEG_DECOUPLED = 0.19133125
J_WAVE_C03 = -1.40983787552  # weighted energy of the exact wave at c=0.3
PENALTY_CELL = 0.46707742704716  # 10 * 0.01 * (e^2 - e)


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


def make_grid(consts, c_min, h=0.01):
    xl, xr = auto_grid_bounds(consts, c_min)
    return Grid.uniform(xl, xr, h)


@pytest.fixture(scope="session")
def scalar_spec():
    return scalar_cubic(SCALAR_ALPHA)


@pytest.fixture(scope="session")
def scalar_consts(scalar_spec):
    return compute_constants(scalar_spec)


@pytest.fixture(scope="session")
def decoupled_spec():
    return decoupled_quartic(0.6, 1.2)


@pytest.fixture(scope="session")
def decoupled_consts(decoupled_spec):
    return compute_constants(decoupled_spec)


def timed_find_speed(spec, consts, c_tol=1e-3, h=0.01):
    bounds = compute_bounds(spec, consts, 1.0)
    grid = make_grid(consts, bounds.bracket_lo, h=h)
    t0 = time.monotonic()
    res = find_speed(spec, consts, grid, c_tol=c_tol)
    elapsed = time.monotonic() - t0
    return res, elapsed, grid


@pytest.fixture(scope="session")
def scalar_speed(scalar_spec, scalar_consts):
    return timed_find_speed(scalar_spec, scalar_consts)


@pytest.fixture(scope="session")
def decoupled_speed(decoupled_spec, decoupled_consts):
    return timed_find_speed(decoupled_spec, decoupled_consts)


@pytest.fixture(scope="session")
def scalar_curve(scalar_spec, scalar_consts):
    """Minimum-energy sweep across the root, warm-started."""
    grid = make_grid(scalar_consts, 0.3)
    c_list = [0.3, 0.45, 0.6, 0.8, 1.0]
    return c_list, gamma_curve(scalar_spec, scalar_consts, grid, c_list, opt_tol=1e-6), grid


@pytest.fixture(scope="session")
def analytic_wave(scalar_spec):
    """Exact wave profile sampled at h=0.01, recentered onto the zero set."""
    from gradwave import Profile

    grid = Grid.uniform(-40.0 / 0.6, 22.0, 0.01)
    vals = np.tanh(grid.nodes + X0_TANH)[:, None]
    vals[-1] = 1.0
    return Profile(grid=grid, values=vals, well_b=np.array([1.0]))

"""Exponentially weighted energy of a profile and its exact discrete gradient.

The energy of a profile u on the truncated grid x_0 < ... < x_N is

    E_tail * W_0  +  sum over cells of  E_i * ( |u_{i+1} - u_i|^2 / (2 h_i^2) + (W_i + W_{i+1}) / 2 )

where E_i integrates the weight e^{c x} exactly over the cell and
E_tail = e^{c x_0} / c over the half-line left of x_0.  The tail term is the
exact energy of the profile's constant extension u_0 left of its first
node, and the slope term is exact for piecewise-linear profiles, so the
discrete energy is a genuine energy of the interpolated profile on the
whole line; the potential term is the trapezoid average.  The one-sided
sign constraint on the right half-line is
enforced softly by a quadratic penalty on the negative part of the potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, WeightOverflowError
from .potential import PotentialConstants, PotentialSpec
from .profile import Grid, Profile

WEIGHT_EXP_CAP = 600.0


@dataclass(frozen=True)
class FunctionalParams:
    """The wave-speed parameter of the weighted energy."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ContractViolationError(f"speed parameter must be positive, got {self.c}")


@dataclass(frozen=True)
class BoundsReport:
    """Analytic two-sided bounds on the minimum energy and the speed bracket."""

    c: float
    lower: float
    upper: float
    bracket_lo: float
    bracket_hi: float

    def as_dict(self) -> dict:
        return {
            "c": self.c,
            "lower": self.lower,
            "upper": self.upper,
            "bracket_lo": self.bracket_lo,
            "bracket_hi": self.bracket_hi,
        }


def cell_weights(grid, params: FunctionalParams) -> np.ndarray:
    """Exact integral of the weight e^{c x} over each cell."""
    x = grid.nodes
    c = params.c
    if c * x[-1] > WEIGHT_EXP_CAP:
        raise WeightOverflowError(
            f"c * x_right = {c * x[-1]:.3g} would overflow the weight; "
            f"use a grid with x_right <= {WEIGHT_EXP_CAP / c:.3g}"
        )
    return np.diff(np.exp(c * x)) / c


class WeightedEnergy:
    """Energy plus penalty of profiles on one grid at one speed, with its exact gradient.

    Built once per (spec, params, grid, kappa): the cell weights, the
    stiffness E/h^2, the lumped node weights and the penalty node weights are
    fixed here, so an evaluation is array arithmetic on the node values
    alone.  The node weights are stored at the (nodes, dim) shape of a
    profile, because broadcasting a column against two or more components
    costs several times a same-shape operation.  The weight ``E_tail`` of
    the constant extension left of the first node is folded into the
    lumped weight of node 0, so the gradient, the Hessian and the
    preconditioner carry the tail term.  The penalty, of weight
    ``kappa``, covers the cells right of 0, which start at the node pinned at
    0; with the default ``kappa = 0`` this is the bare energy J.
    """

    def __init__(self, spec: PotentialSpec, params: FunctionalParams, grid: Grid,
                 kappa: float = 0.0):
        self.h = h = np.diff(grid.nodes)
        E = cell_weights(grid, params)
        self.spec = spec
        self.iz = iz = grid.index_zero
        self.kappa = kappa
        self.E = E
        self.E_tail = float(np.exp(params.c * grid.nodes[0])) / params.c
        self.E_pen = E[iz:]

        def per_node(cell_w):
            # each node sums the weights of the cells on either side of it
            node_w = np.zeros(cell_w.size + 1)
            node_w[:-1] += cell_w
            node_w[1:] += cell_w
            return np.repeat(node_w[:, None], spec.dim, axis=1)

        self.stiff = np.repeat((E / (h * h))[:, None], spec.dim, axis=1)
        # lumped mass: each node carries half the weight of its two cells
        self.lump = 0.5 * per_node(E)
        self.lump[0] += self.E_tail
        self.pen_node_w = self.kappa * per_node(self.E_pen)

    def value(self, u: np.ndarray):
        """(energy, penalty, node potential values) of the node values u."""
        w = self.spec.value(u)
        du = u[1:] - u[:-1]
        J = (0.5 * (float(np.vdot(self.stiff * du, du)) + float(np.dot(self.E, w[:-1] + w[1:])))
             + self.E_tail * float(w[0]))
        P = 0.0
        wp = w[self.iz:]
        if self.kappa > 0 and wp.min() < 0.0:
            p = np.square(np.minimum(wp, 0.0))
            P = self.kappa * 0.5 * float(np.dot(self.E_pen, p[:-1] + p[1:]))
        return J, P, w

    def grad(self, u: np.ndarray, w: np.ndarray):
        """(gradient of energy + penalty, potential gradient) at u, given w = W(u).

        The right boundary node is fixed at the reference well, so its row is
        zero.  Node 0 is returned raw; constraint handling (projection onto
        the zero level set) is the optimizer's job.
        """
        dw = np.asarray(self.spec.gradient(u), dtype=float)
        g = self.lump * dw
        t = self.stiff * (u[1:] - u[:-1])
        g[:-1] -= t
        g[1:] += t
        wp = w[self.iz:]
        if self.kappa > 0 and wp.min() < 0.0:
            # d/du of max(0, -W)^2 is -2 max(0, -W) DW
            g[self.iz:] -= self.pen_node_w * (np.maximum(-wp, 0.0)[:, None] * dw[self.iz:])
        g[-1] = 0.0
        return g, dw

    def cell_energy(self, u: np.ndarray):
        """(weighted energy per cell, slope energy |u'|^2 / 2 per cell) of u.

        The first cell also carries the tail term E_tail W(u_0), so the cell
        terms sum to the energy J of ``value``, up to roundoff.
        """
        w = self.spec.value(u)
        du = (u[1:] - u[:-1]) / self.h[:, None]
        kin = 0.5 * np.sum(du * du, axis=1)
        cells = self.E * (kin + 0.5 * (w[:-1] + w[1:]))
        cells[0] += self.E_tail * w[0]
        return cells, kin

    def violation(self, w: np.ndarray) -> float:
        """How far the potential dips below 0 at the nodes right of 0."""
        return max(0.0, -float(np.min(w[self.iz + 1:])))


def energy(spec: PotentialSpec, params: FunctionalParams, profile: Profile) -> float:
    """Weighted energy J of the profile, extended left of the grid by its first value."""
    if not np.array_equal(profile.well_b, np.asarray(spec.well_b, dtype=float)):
        raise ContractViolationError("profile right boundary does not match the potential well")
    return WeightedEnergy(spec, params, profile.grid).value(profile.values)[0]


def decay_rate(consts: PotentialConstants, c: float) -> float:
    """Positive root of the tail characteristic equation at speed c."""
    return float(0.5 * (c + np.sqrt(c * c + 4.0 * consts.mu)))


def compute_bounds(spec: PotentialSpec, consts: PotentialConstants, c: float) -> BoundsReport:
    """Analytic lower/upper bounds on the minimum energy and the root bracket."""
    if not c > 0:
        raise ContractViolationError("bounds need c > 0")
    m, M, d = consts.m, consts.M, consts.d
    gap2 = float(np.sum((np.asarray(spec.well_b) - consts.point_a) ** 2))
    lower = c * d * d / 2.0 - m / c
    upper = ((gap2 / 2.0 + M) * (np.exp(c) - 1.0) - m * np.exp(-c)) / c
    bracket_lo = float(np.log(0.5 * (1.0 + np.sqrt(1.0 + 8.0 * m / (gap2 + 2.0 * M)))))
    bracket_hi = float(np.sqrt(2.0 * m) / d)
    return BoundsReport(
        c=c, lower=float(lower), upper=float(upper),
        bracket_lo=bracket_lo, bracket_hi=bracket_hi,
    )

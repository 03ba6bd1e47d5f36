"""Potentials for gradient-flow traveling-wave problems.

A potential is a smooth function W: R^n -> R with a reference well b where
W(b) = 0, DW(b) = 0 and the Hessian is positive definite, and whose negative
region {W < 0} is non-empty and bounded.  This module defines the potential
container, the built-in families, the analytic constants used by the energy
bounds, and projection onto the zero level set {W = 0}.

Evaluation callbacks are vectorized over rows: ``value`` maps an array of
shape (..., dim) to (...,), ``gradient`` maps (..., dim) to (..., dim) and
``hessian`` maps (..., dim) to symmetric (..., dim, dim) matrices, so a
single point (dim,) gives one (dim, dim) matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AssumptionViolationError,
    ContractViolationError,
    DegenerateProjectionError,
    ProjectionConvergenceError,
)

PROJ_TOL = 1e-10
GRADIENT_FLOOR = 1e-8
PROJ_MAX_ITER = 100
# potential values above this magnitude count as properly signed; below it
# they are treated as roundoff noise around the zero level
NEG_TOL = 1e-12
# random points at which validation compares the gradient with finite differences
FD_POINTS = 16
# find_equilibria: Newton starts per axis (dim <= 2), |DW| that counts as a
# root, and the iteration cap
EQ_PER_AXIS = 15
EQ_TOL = 1e-10
EQ_MAX_ITER = 60
# points per grid_value call of the analysis: the box scan, the box faces and
# the search window around b are evaluated in slabs of at most this many
# points, so no array grows with the grid; the dim-1 and dim-2 scans (at most
# 401^2 points) stay one call
SLAB_POINTS = 2 ** 18
# points per free axis on each face of the box in the boundary check
FACE_PER_AXIS = 101


@dataclass(frozen=True)
class PotentialSpec:
    """A potential together with its derivatives and search box.

    ``value``, ``gradient`` and ``hessian`` take points of shape (..., dim)
    and return shapes (...,), (..., dim) and (..., dim, dim).
    ``bounding_box`` has shape (dim, 2) and must contain the negative region
    {W < 0}; the built-in families use [-2, 2]^dim.

    ``point_gradient`` maps a list of ``dim`` floats to a list of ``dim``
    floats, equal bit for bit to ``gradient(np.array(p)).tolist()``; callers
    that step one point at a time use it to skip numpy's per-call overhead.
    Left unset, it is derived from ``gradient``.  ``dataclasses.replace``
    with a new ``gradient`` keeps the old point kernel; the assumption
    checks reject the mismatch.

    ``grid_value`` maps a sequence of 1-D coordinate arrays, one per
    component, to W on their tensor grid, of shape
    ``tuple(len(a) for a in axes)``.  The analysis calls it on slabs of the
    box scan, on each face of the box and on the window of the scan around
    b, each of at most ``SLAB_POINTS`` points, so it must accept any
    sub-axes of those grids.  It must agree with ``value`` to roundoff, not
    bit for bit.  Left unset, it is derived from ``value``: one call on
    every grid point, stacked into rows.  ``user_polynomial`` supplies a
    contraction of its term table (see ``_Monomials.grid``) and
    ``decoupled_quartic`` the outer sum of its two wells; a
    ``dataclasses.replace`` with a new ``value`` keeps the old grid kernel,
    and the assumption checks reject the mismatch.
    """

    dim: int
    well_b: np.ndarray
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    bounding_box: np.ndarray
    point_gradient: Callable[[list], list] | None = None
    grid_value: Callable[[Sequence[np.ndarray]], np.ndarray] | None = None

    def __post_init__(self):
        if self.point_gradient is None:
            gradient = self.gradient
            object.__setattr__(
                self, "point_gradient",
                lambda p: np.asarray(gradient(np.array(p)), dtype=float).tolist())
        if self.grid_value is None:
            value = self.value
            object.__setattr__(
                self, "grid_value",
                lambda axes: np.asarray(value(_mesh_rows(axes)), dtype=float).reshape(
                    [len(a) for a in axes]))


@dataclass(frozen=True)
class PotentialConstants:
    """What the solver needs to know about a potential, from one analysis pass.

    m is the depth of the deepest well (-inf W), attained at ``point_a``;
    M is the largest potential value on the straight segment from a to b;
    d is the distance from b to the negative region; mu is the smallest
    eigenvalue of the Hessian at b.  These are the constants of the energy
    bounds and the only ones ``as_dict`` reports.  ``equilibria`` holds the
    negative-potential critical points in ``find_equilibria`` order: the
    states the left tail of a wave can approach, and (those that are local
    minima) the wells cold minimizations start from.

    Two more size the left end of a solve grid where the front has decayed
    (``speed.front_left_end``): mu_a is the smallest eigenvalue of the
    Hessian at ``point_a``, so the slowest decay into the deepest well;
    ``diameter`` is that of the bounding box, the largest distance a profile
    can keep from that well.
    """

    m: float
    point_a: np.ndarray
    M: float
    d: float
    mu: float
    mu_a: float
    diameter: float
    equilibria: tuple = ()

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "point_a": self.point_a.tolist(),
            "M": self.M,
            "d": self.d,
            "mu": self.mu,
        }


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def _quartic_well(u, c):
    # antiderivative of (s^2-1)(2s-c) from 1 to u, factored about the well at 1
    # as (u-1)^2 ((u/2 + 1 - c/3) u + 1/2 - 2c/3): near u = 1 it is a product
    # of small and O(1) factors, accurate to a few ulp relative, where the
    # expanded polynomial loses everything to cancellation
    w = 0.5 * u
    w += 1.0 - c / 3.0
    w *= u
    w += 0.5 - 2.0 * c / 3.0
    v = u - 1.0
    w *= v
    w *= v
    return w


def _quartic_well_d1(u, c):
    return (u * u - 1.0) * (2.0 * u - c)


def _quartic_well_d2(u, c):
    return 6.0 * u * u - 2.0 * c * u - 2.0


def scalar_cubic(alpha: float) -> PotentialSpec:
    """One-component double-well potential whose gradient is (u^2-1)(2u-alpha)."""
    if not 0.0 < alpha < 2.0:
        raise ContractViolationError(f"scalar_cubic requires 0 < alpha < 2, got {alpha}")

    def value(u):
        u = np.asarray(u, dtype=float)
        return _quartic_well(u[..., 0], alpha)

    def gradient(u):
        u = np.asarray(u, dtype=float)
        return _quartic_well_d1(u, alpha)

    def hessian(u):
        u = np.asarray(u, dtype=float)
        return _quartic_well_d2(u, alpha)[..., None]

    return PotentialSpec(
        dim=1,
        well_b=np.array([1.0]),
        value=value,
        gradient=gradient,
        hessian=hessian,
        bounding_box=np.array([[-2.0, 2.0]]),
        point_gradient=lambda p: [_quartic_well_d1(p[0], alpha)],
    )


def decoupled_quartic(alpha: float, beta: float) -> PotentialSpec:
    """Two-component potential, a sum of independent double wells.

    The four wells sit at (+-1, +-1) with reference well b = (1, 1); the
    well depths order by alpha <= beta.
    """
    if not (0.0 < alpha <= beta < 2.0):
        raise ContractViolationError(
            f"decoupled_quartic requires 0 < alpha <= beta < 2, got ({alpha}, {beta})"
        )

    def value(u):
        u = np.asarray(u, dtype=float)
        return _quartic_well(u[..., 0], alpha) + _quartic_well(u[..., 1], beta)

    def gradient(u):
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u)
        out[..., 0] = _quartic_well_d1(u[..., 0], alpha)
        out[..., 1] = _quartic_well_d1(u[..., 1], beta)
        return out

    def hessian(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape + (2,))
        out[..., 0, 0] = _quartic_well_d2(u[..., 0], alpha)
        out[..., 1, 1] = _quartic_well_d2(u[..., 1], beta)
        return out

    def grid_value(axes):
        # separable: the outer sum does the float operations of ``value`` at
        # every grid point, without building the rows of points
        return np.add.outer(_quartic_well(np.asarray(axes[0], dtype=float), alpha),
                            _quartic_well(np.asarray(axes[1], dtype=float), beta))

    return PotentialSpec(
        dim=2,
        well_b=np.array([1.0, 1.0]),
        value=value,
        gradient=gradient,
        hessian=hessian,
        bounding_box=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
        point_gradient=lambda p: [_quartic_well_d1(p[0], alpha), _quartic_well_d1(p[1], beta)],
        grid_value=grid_value,
    )


class _Monomials:
    """Sums of monomials c * prod_k u_k**e_k, each added into one output slot.

    Built from (coefficient, exponents, slot) triples.  Evaluation maps
    (..., dim) to (..., n_slots) with multiplies only: powers come from
    repeated multiplication, never from ``pow``.  Every evaluation runs
    ``_point``: straight-line code compiled once, here, from the table (its
    text is ``source``), with one statement per term that adds the term's
    factors times its coefficient into the slot's accumulator.  The
    coefficients are bound as names in the function's namespace, so the
    source holds only identifiers and table indices.  A single point goes in
    as a list of floats; a batch goes in by chunks of CHUNK rows, each as its
    columns, so the same statements run on arrays and the temporaries stay
    at O(CHUNK * (dim * max exponent + n_slots)) however many rows it has.
    Each element of a batch is computed with the float operations, in the
    order, of the single point, so the two agree bit for bit.
    """

    CHUNK = 8192

    def __init__(self, terms, dim: int, n_slots: int):
        self.dim = dim
        self.n_slots = n_slots
        # (coefficient, slot, ((component, exponent), ...)) over nonzero exponents
        self.terms = [
            (float(c), int(slot), tuple((int(k), int(exps[k])) for k in np.nonzero(exps)[0]))
            for c, exps, slot in terms
        ]
        self.top = [max((e for _, _, fs in self.terms for k, e in fs if k == j), default=0)
                    for j in range(dim)]
        self.source = self._point_source()
        namespace = {f"c{i}": c for i, (c, _, _) in enumerate(self.terms)}
        exec(compile(self.source, "<_Monomials._point>", "exec"), namespace)
        self._point = namespace["_point"]

    def _point_source(self) -> str:
        """Text of ``_point(x)``: powers, one accumulator per slot, one line per term.

        ``a * b * c`` multiplies left to right; the sums are sequential
        ``+=`` in table order (never ``sum``, which compensates on Python
        >= 3.12).  ``x`` may be a list of floats or a (dim, n) array.
        """
        def power(k, e):
            return f"x{k}" if e == 1 else f"x{k}_{e}"

        lines = ["def _point(x):", "    " + "".join(f"x{k}, " for k in range(self.dim)) + "= x"]
        lines += [f"    x{k}_{e} = {power(k, e - 1)} * x{k}"
                  for k, top in enumerate(self.top) for e in range(2, top + 1)]
        lines += [f"    s{j} = 0.0" for j in range(self.n_slots)]
        lines += [f"    s{slot} += " + "".join(f"{power(k, e)} * " for k, e in factors) + f"c{i}"
                  for i, (_, slot, factors) in enumerate(self.terms)]
        lines.append("    return [" + ", ".join(f"s{j}" for j in range(self.n_slots)) + "]")
        return "\n".join(lines) + "\n"

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if u.ndim == 1:
            return np.array(self._point(u.tolist()))
        rows = u.reshape(-1, self.dim)
        out = np.empty((len(rows), self.n_slots))
        for start in range(0, len(rows), self.CHUNK):
            # on a chunk's columns each accumulator broadcasts to an array;
            # an empty slot stays 0.0, which the assignment broadcasts
            sums = self._point(rows[start:start + self.CHUNK].T)
            for j, s in enumerate(sums):
                out[start:start + self.CHUNK, j] = s
        return out.reshape(u.shape[:-1] + (self.n_slots,))

    def grid(self, axes) -> np.ndarray:
        """The first slot on the tensor grid over ``axes``, of shape ``(len(a) for a in axes)``.

        The terms are summed into a coefficient tensor over exponents, which
        is contracted with one power table ``np.vander(axis, top + 1)`` per
        axis.  Axes of one point go first, each shrinking the tensor at once,
        so a box face or a one-row slab never holds ``top + 1`` rows of a
        fixed axis; the others follow last axis first, so the last product
        is a single ``(n0, top0 + 1) @ (top0 + 1, n1 * n2 ...)`` matmul whose
        result is already the grid in C order.  (Shortest first instead would
        end in many tiny matmuls.)  The sums run in another order than
        ``_point``, so the values agree with it to roundoff, not bit for bit.
        """
        g = np.zeros([top + 1 for top in self.top])
        for c, slot, factors in self.terms:
            if slot == 0:
                exps = [0] * self.dim
                for k, e in factors:
                    exps[k] = e
                g[tuple(exps)] += c
        for k in sorted(reversed(range(self.dim)), key=lambda k: len(axes[k]) > 1):
            powers = np.vander(np.asarray(axes[k], dtype=float), self.top[k] + 1, increasing=True)
            lead, trail = g.shape[:k], g.shape[k + 1:]
            g = np.matmul(powers, g.reshape(math.prod(lead), self.top[k] + 1, -1))
            g = g.reshape(lead + (len(powers),) + trail)
        return g


def user_polynomial(
    dim: int,
    terms: Sequence[tuple[float, Sequence[int]]],
    well_b: Sequence[float],
    bounding_box: Sequence[Sequence[float]],
) -> PotentialSpec:
    """Potential given as a table of monomial terms (coeff, exponents).

    Each term contributes coeff * prod_k u_k**exp_k.  The gradient and
    Hessian term tables are differentiated from it once, here, and all three
    evaluate with multiplies only (see ``_Monomials``).  The bounding box is required:
    boundedness of the negative region is the caller's responsibility.
    """
    coeffs = np.array([float(c) for c, _ in terms])
    expo = np.array([[int(e) for e in exps] for _, exps in terms], dtype=int)
    if expo.ndim != 2 or expo.shape[1] != dim:
        raise ContractViolationError(
            f"user_polynomial exponent rows must have length dim={dim}"
        )
    if np.any(expo < 0):
        raise ContractViolationError("user_polynomial exponents must be nonnegative")
    well = np.asarray(well_b, dtype=float)
    box = np.asarray(bounding_box, dtype=float)
    if well.shape != (dim,) or box.shape != (dim, 2):
        raise ContractViolationError("user_polynomial well_b/bounding_box shape mismatch")

    # gradient and Hessian tables: d/du_k of c u^e is (c e_k) u^(e - 1_k)
    grad_terms, hess_terms = [], []
    for c, exps in zip(coeffs, expo):
        for k in np.nonzero(exps)[0]:
            de = exps.copy()
            de[k] -= 1
            grad_terms.append((c * exps[k], de, k))
            for l in np.nonzero(de)[0]:
                dde = de.copy()
                dde[l] -= 1
                hess_terms.append((c * (exps[k] * de[l]), dde, k * dim + l))
    values = _Monomials([(c, exps, 0) for c, exps in zip(coeffs, expo)], dim, 1)
    grads = _Monomials(grad_terms, dim, dim)
    hessians = _Monomials(hess_terms, dim, dim * dim)

    def value(u):
        return values(np.asarray(u, dtype=float))[..., 0]

    def gradient(u):
        return grads(np.asarray(u, dtype=float))

    def hessian(u):
        # entries (k, l) and (l, k) sum the same terms in the same order: symmetric
        u = np.asarray(u, dtype=float)
        return hessians(u).reshape(u.shape[:-1] + (dim, dim))

    return PotentialSpec(
        dim=dim,
        well_b=well,
        value=value,
        gradient=gradient,
        hessian=hessian,
        bounding_box=box,
        point_gradient=grads._point,
        grid_value=values.grid,
    )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def validate_spec(spec: PotentialSpec) -> None:
    """Check the structural assumptions on a potential.

    Raises AssumptionViolationError if the reference well is not a proper
    nondegenerate zero-minimum, if the grid kernel disagrees with the value
    callback, if no negative region exists inside the box, if the potential
    dips negative on the box boundary, if the gradient callback disagrees
    with finite differences of the value callback, or if the point gradient
    and the gradient callback differ at the same points.
    ``compute_constants`` runs the same checks on its own scan.
    """
    _check_assumptions(spec)


def _check_assumptions(spec: PotentialSpec):
    """The checks of ``validate_spec``, returning what they computed.

    Returns the Hessian eigenvalues at b, the scan axes of the box and the
    least W on their tensor grid, so that ``compute_constants`` scans once.
    The scan and each face of the box go through ``grid_value`` in slabs
    (see ``_grid_min``); only their minima are kept.
    """
    b = spec.well_b
    if abs(float(spec.value(b))) > 1e-12:
        raise AssumptionViolationError("potential is not zero at the reference well")
    if float(np.linalg.norm(spec.gradient(b))) > 1e-10:
        raise AssumptionViolationError("gradient does not vanish at the reference well")
    eigs = np.linalg.eigvalsh(spec.hessian(b))
    if eigs[0] <= 0:
        raise AssumptionViolationError(
            f"Hessian at the reference well is not positive definite (min eig {eigs[0]:g})"
        )

    rng = np.random.default_rng(0)
    lo, hi = spec.bounding_box[:, 0], spec.bounding_box[:, 1]
    samples = lo + (hi - lo) * rng.random((FD_POINTS, spec.dim))
    for p in samples:
        v = float(spec.value(p))
        g = np.asarray(spec.grid_value(list(p[:, None])), dtype=float)
        if g.shape != (1,) * spec.dim or not abs(g.item() - v) <= 1e-12 * (1.0 + abs(v)):
            raise AssumptionViolationError("grid value disagrees with the value callback")

    axes = _scan_axes(spec, _scan_resolution(spec.dim))
    w_min = _grid_min(spec.grid_value, axes)
    if not w_min < -NEG_TOL:
        raise AssumptionViolationError("no negative region found inside the bounding box")

    # each face is the tensor grid with its own axis fixed at the bound
    for k in range(spec.dim):
        for side in (0, 1):
            face = _scan_axes(spec, FACE_PER_AXIS)
            face[k] = spec.bounding_box[k, side:side + 1]
            if _grid_min(spec.grid_value, face) < 0:
                raise AssumptionViolationError(
                    "potential is negative on the bounding-box boundary")

    h = 1e-4
    for p in samples:
        g = np.asarray(spec.gradient(p), dtype=float)
        fd = np.empty(spec.dim)
        for k in range(spec.dim):
            e = np.zeros(spec.dim)
            e[k] = h
            fd[k] = (float(spec.value(p + e)) - float(spec.value(p - e))) / (2 * h)
        scale = 1.0 + np.linalg.norm(g)
        if np.linalg.norm(g - fd) > 1e-5 * scale:
            raise AssumptionViolationError(
                "gradient callback disagrees with finite differences of the value"
            )
        if spec.point_gradient(p.tolist()) != g.tolist():
            raise AssumptionViolationError("point gradient disagrees with the gradient callback")
    return eigs, axes, w_min


def _scan_resolution(dim: int) -> int:
    if dim <= 2:
        return 401
    if dim == 3:
        return 161
    return max(21, int(round(2e6 ** (1.0 / dim))))


def _scan_axes(spec: PotentialSpec, per_axis: int) -> list:
    return [np.linspace(lo, hi, per_axis) for lo, hi in spec.bounding_box]


def _mesh_rows(axes) -> np.ndarray:
    """Every point of the tensor grid over ``axes``, one per row, the last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _slabs(shape):
    """Blocks of a grid of ``shape`` in C order, each a tuple of per-axis slices.

    Each block holds at most SLAB_POINTS points: one index on each axis
    before some axis j, a run of consecutive indices on axis j, and every
    index of the later axes, where j is the first axis whose later axes hold
    at most SLAB_POINTS points together.  The blocks partition the grid, and
    each is a run of consecutive C-order points, after the one before it.
    """
    if 0 in shape:
        return
    j = 0
    while math.prod(shape[j + 1:]) > SLAB_POINTS:
        j += 1
    rows = max(1, SLAB_POINTS // math.prod(shape[j + 1:]))
    rest = tuple(slice(0, n) for n in shape[j + 1:])
    for lead in itertools.product(*map(range, shape[:j])):
        head = tuple(slice(i, i + 1) for i in lead)
        for start in range(0, shape[j], rows):
            yield head + (slice(start, min(start + rows, shape[j])),) + rest


def _grid_min(grid_value, axes) -> float:
    """The least W on the tensor grid over ``axes``, one ``grid_value`` call per slab.

    NaN values are skipped, as a comparison with them is false; NaN only if
    every value is NaN.
    """
    low = math.nan
    for block in _slabs([len(a) for a in axes]):
        w = np.asarray(grid_value([a[s] for a, s in zip(axes, block)]), dtype=float)
        low = float(np.fmin(low, np.fmin.reduce(w, axis=None)))
    return low


def golden_section_min(f: Callable[[float], float], lo: float, hi: float, xatol: float):
    """Minimize f on [lo, hi] by golden-section search (Kiefer, Proc. AMS 4, 1953).

    Each step evaluates f once, keeps the part of the bracket around the
    lower of its two interior points and reuses the other one, shrinking the
    bracket by 1/phi; the steps stop once it is narrower than ``xatol``.
    Returns ``(x, f(x))`` at the lowest point evaluated.
    """
    r = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - r * (hi - lo), lo + r * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(max(0, math.ceil(math.log(xatol / (hi - lo)) / math.log(r)))):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - r * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + r * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def compute_constants(spec: PotentialSpec) -> PotentialConstants:
    """Validate the potential and analyse it once.

    Runs the checks of ``validate_spec``, finds the negative-potential
    equilibria, takes the deepest well from them, and locates the other
    analytic constants on the same grid scan plus local refinement.  Raises
    AssumptionViolationError if no negative equilibrium is found, or if the
    scan goes lower than the deepest one.
    """
    eigs, axes, w_min = _check_assumptions(spec)
    b = spec.well_b

    # deepest well: the lowest equilibrium.  W is negative somewhere inside
    # the box and nonnegative on its boundary, so its minimum is an interior
    # critical point; a scan value below it means the search missed a well
    equilibria = find_equilibria(spec)
    if not equilibria:
        raise AssumptionViolationError(
            "no negative-potential equilibrium found inside the bounding box")
    eq_vals = np.asarray(spec.value(np.array(equilibria)), dtype=float)
    lowest = int(np.argmin(eq_vals))
    m, point_a = -float(eq_vals[lowest]), equilibria[lowest]
    if w_min < -m - NEG_TOL:
        raise AssumptionViolationError(
            f"the scan reaches W = {w_min:.6g}, below the deepest equilibrium found "
            f"(W = {-m:.6g})")

    # largest value of W on the segment from a to b
    step = b - point_a
    ts = np.linspace(0.0, 1.0, _scan_resolution(spec.dim))
    seg_vals = spec.value(point_a + np.multiply.outer(ts, step))
    i = int(np.argmax(seg_vals))
    t_lo, t_hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    _, neg_top = golden_section_min(
        lambda t: -float(spec.value(point_a + t * step)), float(t_lo), float(t_hi), 1e-13)
    M = max(0.0, -neg_top, float(seg_vals[i]))

    # distance from b to the negative region: the nearest negative scan
    # points, refined by bisecting each segment from b for its first sign
    # change.  Only their coordinates are rebuilt from the scan indices.
    flat, dist = _nearest_negative(axes, spec.grid_value, b, 16)
    d = float(dist[0])
    index = np.unravel_index(flat, [len(axis) for axis in axes])
    near = np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)
    lengths = _row_norms(near - b)
    for t_cross, length in zip(_first_negative_crossings(spec, b, near), lengths):
        if t_cross is not None:
            d = min(d, t_cross * float(length))
    if d <= 0:
        raise AssumptionViolationError("negative region touches the reference well")

    # what sizes the left end of a solve grid
    mu_a = float(np.linalg.eigvalsh(np.asarray(spec.hessian(point_a), dtype=float))[0])
    diameter = float(np.linalg.norm(np.diff(spec.bounding_box, axis=1)))
    return PotentialConstants(m=m, point_a=point_a, M=float(M), d=float(d),
                              mu=float(eigs[0]), mu_a=mu_a, diameter=diameter,
                              equilibria=tuple(equilibria))


def _nearest_negative(axes, grid_value, b, k: int):
    """Flat scan indices and distances to b of the k nearest points with W < -NEG_TOL.

    Ordered by (distance, index), as ``_smallest`` orders the distances of
    all negative points, and with the same distances: the squared distance
    is an outer sum of per-axis squared offsets, added in axis order as a
    row norm adds them.  Only a window is searched: along each axis the scan
    points whose offset from b is at most r, with r doubled from four scan
    steps until the ball of radius r holds k negative points or the window
    is the whole grid.  Every point outside the window is farther than r,
    so the window finds the same points as the whole grid.  W is evaluated
    only on the window, by ``grid_value`` on its sub-axes, one call per
    slab (see ``_slabs``); the k nearest of each slab are merged by
    (distance, index).
    """
    sq = [(axis - bk) ** 2 for axis, bk in zip(axes, b)]
    offsets = [np.sqrt(s) for s in sq]
    shape = [len(axis) for axis in axes]
    reach = max(float(o.max()) for o in offsets)
    step = max(float(axis[1] - axis[0]) for axis in axes)
    r = min(4.0 * step, reach) if step > 0 else reach
    while True:
        spans = []
        for o in offsets:
            inside = np.flatnonzero(o <= r)
            spans.append(slice(inside[0], inside[-1] + 1) if inside.size else slice(0, 0))
        flat, dist, count = [np.empty(0, dtype=np.intp)], [np.empty(0)], 0
        for part in _slabs([span.stop - span.start for span in spans]):
            block = [slice(span.start + s.start, span.start + s.stop)
                     for span, s in zip(spans, part)]
            d2 = sq[0][block[0]]
            for s, rows in zip(sq[1:], block[1:]):
                d2 = np.add.outer(d2, s[rows])
            w = np.asarray(grid_value([axis[s] for axis, s in zip(axes, block)]), dtype=float)
            neg = np.flatnonzero(w < -NEG_TOL)
            near = np.sqrt(d2.ravel()[neg])
            count += np.count_nonzero(near <= r)
            keep = _smallest(near, k)
            local = np.unravel_index(neg[keep], d2.shape)
            flat.append(np.ravel_multi_index(
                tuple(i + s.start for i, s in zip(local, block)), shape))
            dist.append(near[keep])
        if r >= reach or count >= k:
            flat, dist = np.concatenate(flat), np.concatenate(dist)
            order = np.lexsort((flat, dist))[:k]
            return flat[order], dist[order]
        r = min(2.0 * r, reach)


def _smallest(x: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries of x, ordered by (value, index).

    The same indices as ``np.argsort(x, kind="stable")[:k]``, without sorting
    all of x: a partition finds the k-th smallest value, and only the entries
    up to it, ties at the cut included, are sorted.
    """
    idx = np.arange(x.size)
    if k < x.size:
        kth = x[np.argpartition(x, k - 1)[k - 1]]
        if not np.isnan(kth):
            idx = np.flatnonzero(x <= kth)
    return idx[np.lexsort((idx, x[idx]))][:k]


def _first_negative_crossings(spec: PotentialSpec, b, points) -> list:
    """For each row p of ``points``, the smallest t in (0, 1] with W(b + t (p - b)) < 0.

    Each segment is sampled at 2001 values of t, all in one value
    call; None where no sample is below -NEG_TOL, 0.0 where the first one
    is.  The others are bisected together to ~1e-14, up to 80 halvings of
    one value call each, so every t is the one a point-by-point bisection
    finds.  The halvings stop early once one leaves every bracket as it was:
    the next would evaluate the same midpoints and leave them again.
    """
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
            hi_next = np.where(neg, t_mid, t_hi)
            lo_next = np.where(neg, t_lo, t_mid)
            if np.array_equal(hi_next, t_hi) and np.array_equal(lo_next, t_lo):
                break
            t_lo, t_hi = lo_next, hi_next
        for i, t in zip(open_, 0.5 * (t_lo + t_hi)):
            out[i] = float(t)
    return out


def _row_norms(x: np.ndarray) -> np.ndarray:
    """2-norm of each row of an (n, dim) array.

    Each row is one dot product, the reduction ``np.linalg.norm`` uses for a
    single vector, so a batch agrees bit for bit with a loop over its rows.
    """
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _newton_steps(H: np.ndarray, g: np.ndarray):
    """Newton steps -H^-1 g for stacked systems, with the rows that solved.

    A batched solve raises for the whole stack if one Hessian is singular;
    the stack is then solved row by row, so only the singular rows fail.
    """
    try:
        return -np.linalg.solve(H, g[..., None])[..., 0], np.ones(len(g), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    step = np.zeros_like(g)
    solved = np.ones(len(g), dtype=bool)
    for i in range(len(g)):
        try:
            step[i] = -np.linalg.solve(H[i], g[i])
        except np.linalg.LinAlgError:
            solved[i] = False
    return step, solved


def find_equilibria(spec: PotentialSpec) -> list[np.ndarray]:
    """Critical points of the potential with negative value, inside the box.

    Damped Newton on the gradient from a coarse grid of starting points, all
    starts advanced together: each iteration makes one gradient, one Hessian
    and one solve call on the starts still running, and a backtracking line
    search (lam = 1, 1/2, ... while lam > 1e-6) accepts the first step that
    lowers |DW|.  A start stops when |DW| <= EQ_TOL (converged), when its
    Hessian is singular or its line search finds no decrease (failed), or
    after EQ_MAX_ITER iterations (failed).  Converged roots inside the box
    with W < -NEG_TOL are deduplicated in start order.  This realizes the
    equilibria set that the left tail of a wave profile can approach.
    """
    lo, hi = spec.bounding_box[:, 0], spec.bounding_box[:, 1]
    per_axis = EQ_PER_AXIS if spec.dim <= 2 else max(5, int(round(3000 ** (1 / spec.dim))))
    q_all = _mesh_rows([np.linspace(a, b, per_axis) for a, b in spec.bounding_box])
    step_cap = 0.25 * float(np.linalg.norm(hi - lo))

    converged = np.zeros(len(q_all), dtype=bool)
    active = np.arange(len(q_all))
    for _ in range(EQ_MAX_ITER):
        q = q_all[active]
        g = np.asarray(spec.gradient(q), dtype=float)
        gn = _row_norms(g)
        done = gn <= EQ_TOL
        converged[active[done]] = True
        run = ~done
        active, q, g, gn = active[run], q[run], g[run], gn[run]
        if not active.size:
            break
        step, run = _newton_steps(np.asarray(spec.hessian(q), dtype=float), g)
        active, q, gn, step = active[run], q[run], gn[run], step[run]
        sl = _row_norms(step)
        capped = sl > step_cap
        step[capped] *= (step_cap / sl[capped])[:, None]

        moved = np.zeros(len(active), dtype=bool)
        trying = np.arange(len(active))
        lam = 1.0
        while lam > 1e-6 and trying.size:
            trial = q[trying] + lam * step[trying]
            better = _row_norms(np.asarray(spec.gradient(trial), dtype=float)) < gn[trying]
            q[trying[better]] = trial[better]
            moved[trying[better]] = True
            trying = trying[~better]
            lam *= 0.5
        q_all[active[moved]] = q[moved]
        active = active[moved]
        if not active.size:
            break

    roots = q_all[converged]
    inside = ~(np.any(roots < lo - 1e-9, axis=1) | np.any(roots > hi + 1e-9, axis=1))
    roots = roots[inside]
    roots = roots[~(np.asarray(spec.value(roots), dtype=float) >= -NEG_TOL)]
    return list(_distinct_in_order(roots, 1e-6))


def _distinct_in_order(points: np.ndarray, tol: float) -> np.ndarray:
    """The rows of ``points`` that are not within ``tol`` of an earlier kept row.

    A sweep in row order: the first row left is kept and drops every later
    row within ``tol`` of it in one ``_row_norms`` call, so it takes one pass
    per kept row and keeps the rows a row-by-row greedy loop keeps.
    """
    left = np.arange(len(points))
    kept = []
    while left.size:
        first, rest = left[0], left[1:]
        kept.append(first)
        left = rest[~(_row_norms(points[rest] - points[first]) < tol)]
    return points[kept]


def well_minima(spec: PotentialSpec, equilibria) -> list[np.ndarray]:
    """The equilibria that are local minima (definite Hessian), in their order."""
    if not equilibria:
        return []
    lowest = np.linalg.eigvalsh(np.asarray(spec.hessian(np.array(equilibria)), dtype=float))[:, 0]
    return [q for q, e in zip(equilibria, lowest) if e > 0]


def project_to_zero_set(spec: PotentialSpec, point) -> np.ndarray:
    """Project a point onto the boundary of the negative region.

    Damped Newton steps along the gradient direction; the result q satisfies
    |W(q)| <= PROJ_TOL and is verified to sit on the boundary of {W < 0}
    (an inward probe must go negative), so the isolated zero at the
    reference well is rejected.  A point already on the boundary is
    returned as is.
    """
    q = np.asarray(point, dtype=float).copy()
    if q.shape != (spec.dim,):
        raise ContractViolationError(f"point has shape {q.shape}, expected ({spec.dim},)")
    lo, hi = spec.bounding_box[:, 0], spec.bounding_box[:, 1]
    if np.any(q < lo) or np.any(q > hi):
        raise ContractViolationError("point to project lies outside the bounding box")
    step_cap = 0.2 * float(np.linalg.norm(hi - lo))

    def on_boundary(qq) -> bool:
        g = np.asarray(spec.gradient(qq), dtype=float)
        gn = float(np.linalg.norm(g))
        if gn < GRADIENT_FLOOR:
            return False
        probe = 1e-3 * float(np.linalg.norm(hi - lo))
        return float(spec.value(qq - probe * g / gn)) < 0.0

    w = float(spec.value(q))
    if abs(w) <= PROJ_TOL:
        if on_boundary(q):
            return q
        raise DegenerateProjectionError(
            "point satisfies |W| <= tol but is not on the negative-region boundary"
        )
    for _ in range(PROJ_MAX_ITER):
        g = np.asarray(spec.gradient(q), dtype=float)
        gn2 = float(np.dot(g, g))
        if np.sqrt(gn2) < GRADIENT_FLOOR:
            raise DegenerateProjectionError(
                "gradient magnitude fell below the floor during projection"
            )
        step = -(w / gn2) * g
        step_len = float(np.linalg.norm(step))
        if step_len > step_cap:
            step *= step_cap / step_len
        lam = 1.0
        while lam > 1e-8:
            q_new = q + lam * step
            w_new = float(spec.value(q_new))
            if abs(w_new) < abs(w):
                break
            lam *= 0.5
        else:
            raise ProjectionConvergenceError("projection stalled without progress")
        q, w = q_new, w_new
        if abs(w) <= PROJ_TOL:
            if on_boundary(q):
                return q
            raise DegenerateProjectionError(
                "projection converged to a degenerate zero away from the boundary"
            )
    raise ProjectionConvergenceError(
        f"projection did not reach |W| <= {PROJ_TOL:g} in {PROJ_MAX_ITER} iterations"
    )

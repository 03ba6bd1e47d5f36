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
    ``tuple(len(a) for a in axes)``; the analysis scans the box with it.  It
    must agree with ``value`` to roundoff, not bit for bit.  Left unset, it
    is derived from ``value``: one call on every grid point, stacked into
    rows.  ``user_polynomial`` supplies a contraction of its term table (see
    ``_Monomials.grid``); a ``dataclasses.replace`` with a new ``value``
    keeps the old grid kernel, and the assumption checks reject the
    mismatch.
    """

    dim: int
    well_b: np.ndarray
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    bounding_box: np.ndarray
    variant: str = "custom"
    params: tuple = ()
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

    def describe(self) -> dict:
        return {
            "variant": self.variant,
            "dim": self.dim,
            "params": list(self.params),
            "well_b": self.well_b.tolist(),
            "bounding_box": self.bounding_box.tolist(),
        }


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
    """

    m: float
    point_a: np.ndarray
    M: float
    d: float
    mu: float
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
        variant="scalar_cubic",
        params=(alpha,),
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

    return PotentialSpec(
        dim=2,
        well_b=np.array([1.0, 1.0]),
        value=value,
        gradient=gradient,
        hessian=hessian,
        bounding_box=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
        variant="decoupled_quartic",
        params=(alpha, beta),
        point_gradient=lambda p: [_quartic_well_d1(p[0], alpha), _quartic_well_d1(p[1], beta)],
    )


class _Monomials:
    """Sums of monomials c * prod_k u_k**e_k, each added into one output slot.

    Built from (coefficient, exponents, slot) triples.  Evaluation maps
    (..., dim) to (..., n_slots) with multiplies only: powers come from
    repeated multiplication, never from ``pow``.  A single point is evaluated
    in plain floats by ``_point``, list in and list out, which beats numpy's
    per-call overhead on a handful of terms; a batch is processed in row
    chunks, so its temporaries stay at O(chunk * dim * max exponent) however
    many rows it has.  Both routes form each monomial, scale it and sum the
    terms in the same order, so they agree bit for bit.
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

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if u.ndim == 1:
            return np.array(self._point(u.tolist()))
        rows = u.reshape(-1, self.dim)
        return self._rows(rows).reshape(u.shape[:-1] + (self.n_slots,))

    def _point(self, x):
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

    def _rows(self, u):
        n = u.shape[0]
        out = np.zeros((self.n_slots, n))
        size = max(1, min(n, self.CHUNK))
        powers = [np.empty((top + 1, size)) for top in self.top]
        tmp_full = np.empty(size)
        for start in range(0, n, size):
            blk = u[start:start + size]
            m = blk.shape[0]
            for k, pk in enumerate(powers):
                if len(pk) > 1:
                    pk[1, :m] = blk[:, k]
                for e in range(2, len(pk)):
                    np.multiply(pk[e - 1, :m], pk[1, :m], out=pk[e, :m])
            acc, tmp = out[:, start:start + m], tmp_full[:m]
            for c, slot, factors in self.terms:
                if not factors:
                    acc[slot] += c
                    continue
                (k, e), *rest = factors
                if rest:
                    np.copyto(tmp, powers[k][e, :m])
                    for k, e in rest:
                        tmp *= powers[k][e, :m]
                    tmp *= c
                else:
                    np.multiply(powers[k][e, :m], c, out=tmp)
                acc[slot] += tmp
        return out.T if self.n_slots == 1 else np.ascontiguousarray(out.T)

    def grid(self, axes) -> np.ndarray:
        """The first slot on the tensor grid over ``axes``, of shape ``(len(a) for a in axes)``.

        The terms are summed into a coefficient tensor over exponents, which
        is contracted with one power table ``np.vander(axis, top + 1)`` per
        axis, last axis first: the last product is a single
        ``(n0, top0 + 1) @ (top0 + 1, n1 * n2 ...)`` matmul whose result is
        already the grid in C order.  The sums run in another order than
        ``_rows`` and ``_point``, so the values agree with them to roundoff,
        not bit for bit.
        """
        g = np.zeros([top + 1 for top in self.top])
        for c, slot, factors in self.terms:
            if slot == 0:
                exps = [0] * self.dim
                for k, e in factors:
                    exps[k] = e
                g[tuple(exps)] += c
        for k in reversed(range(self.dim)):
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
        variant="user_polynomial",
        params=tuple(float(c) for c in coeffs),
        point_gradient=grads._point,
        grid_value=values.grid,
    )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def evaluate(spec: PotentialSpec, point) -> float:
    """Evaluate the potential at one point, checking the dimension."""
    p = np.asarray(point, dtype=float)
    if p.shape != (spec.dim,):
        raise ContractViolationError(
            f"point has shape {p.shape}, expected ({spec.dim},)"
        )
    return float(spec.value(p))


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

    Returns the Hessian eigenvalues at b, the scan axes of the box and W on
    their tensor grid, so that ``compute_constants`` evaluates the scan once.
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
    w = np.asarray(spec.grid_value(axes), dtype=float)
    if not np.any(w < -NEG_TOL):
        raise AssumptionViolationError("no negative region found inside the bounding box")

    bpts = _boundary_points(spec, per_axis=101)
    if np.any(spec.value(bpts) < 0):
        raise AssumptionViolationError("potential is negative on the bounding-box boundary")

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
    return eigs, axes, w


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


def _boundary_points(spec: PotentialSpec, per_axis: int) -> np.ndarray:
    pts = []
    for k in range(spec.dim):
        for side in (0, 1):
            face_axes = [
                np.linspace(lo, hi, per_axis) if j != k else np.array([spec.bounding_box[k, side]])
                for j, (lo, hi) in enumerate(spec.bounding_box)
            ]
            pts.append(_mesh_rows(face_axes))
    return np.concatenate(pts, axis=0)


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
    eigs, axes, w = _check_assumptions(spec)
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
    w_min = float(w.min())
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
    flat, dist = _nearest_negative(axes, w, b, 16)
    d = float(dist[0])
    index = np.unravel_index(flat, w.shape)
    near = np.stack([axis[i] for axis, i in zip(axes, index)], axis=-1)
    lengths = _row_norms(near - b)
    for t_cross, length in zip(_first_negative_crossings(spec, b, near), lengths):
        if t_cross is not None:
            d = min(d, t_cross * float(length))
    if d <= 0:
        raise AssumptionViolationError("negative region touches the reference well")

    return PotentialConstants(m=m, point_a=point_a, M=float(M), d=float(d),
                              mu=float(eigs[0]), equilibria=tuple(equilibria))


def _nearest_negative(axes, w: np.ndarray, b, k: int):
    """Flat scan indices and distances to b of the k nearest points with W < -NEG_TOL.

    Ordered by (distance, index), as ``_smallest`` orders the distances of
    all negative points, and with the same distances: the squared distance
    is an outer sum of per-axis squared offsets, added in axis order as a
    row norm adds them.  Only a window is searched: along each axis the scan
    points whose offset from b is at most r, with r doubled from four scan
    steps until the ball of radius r holds k negative points or the window
    is the whole grid.  Every point outside the window is farther than r,
    and C order inside the window keeps the grid's index order, so the
    window finds the same points as the whole grid.
    """
    sq = [(axis - bk) ** 2 for axis, bk in zip(axes, b)]
    offsets = [np.sqrt(s) for s in sq]
    reach = max(float(o.max()) for o in offsets)
    step = max(float(axis[1] - axis[0]) for axis in axes)
    r = min(4.0 * step, reach) if step > 0 else reach
    while True:
        spans = []
        for o in offsets:
            inside = np.flatnonzero(o <= r)
            spans.append(slice(inside[0], inside[-1] + 1) if inside.size else slice(0, 0))
        d2 = sq[0][spans[0]]
        for s, span in zip(sq[1:], spans[1:]):
            d2 = np.add.outer(d2, s[span])
        neg = np.flatnonzero(w[tuple(spans)] < -NEG_TOL)
        dist = np.sqrt(d2.ravel()[neg])
        if r >= reach or np.count_nonzero(dist <= r) >= k:
            break
        r = min(2.0 * r, reach)
    order = _smallest(dist, k)
    local = np.unravel_index(neg[order], d2.shape)
    flat = np.ravel_multi_index(tuple(i + span.start for i, span in zip(local, spans)), w.shape)
    return flat, dist[order]


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


def _first_negative_crossings(spec: PotentialSpec, b, points, samples: int = 2001) -> list:
    """For each row p of ``points``, the smallest t in (0, 1] with W(b + t (p - b)) < 0.

    Each segment is sampled at ``samples`` values of t, all in one value
    call; None where no sample is below -NEG_TOL, 0.0 where the first one
    is.  The others are bisected together to ~1e-14, 80 halvings of one
    value call each, so every t is the one a point-by-point bisection finds.
    """
    ts = np.linspace(0.0, 1.0, samples)
    steps = points - b
    lines = b + ts[:, None] * steps[:, None, :]
    below = np.asarray(spec.value(lines.reshape(-1, spec.dim)), dtype=float).reshape(
        len(points), samples) < -NEG_TOL
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
    lowers |DW|.  A start stops when |DW| <= tol (converged), when its
    Hessian is singular or its line search finds no decrease (failed), or
    after ``max_iter`` iterations (failed).  Converged roots inside the box
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


def project_to_zero_set(
    spec: PotentialSpec,
    point,
    proj_tol: float = PROJ_TOL,
    gradient_floor: float = GRADIENT_FLOOR,
    max_iter: int = PROJ_MAX_ITER,
) -> np.ndarray:
    """Project a point onto the boundary of the negative region.

    Damped Newton steps along the gradient direction; the result q satisfies
    |W(q)| <= proj_tol and is verified to sit on the boundary of {W < 0}
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
        if gn < gradient_floor:
            return False
        probe = 1e-3 * float(np.linalg.norm(hi - lo))
        return float(spec.value(qq - probe * g / gn)) < 0.0

    w = float(spec.value(q))
    if abs(w) <= proj_tol:
        if on_boundary(q):
            return q
        raise DegenerateProjectionError(
            "point satisfies |W| <= tol but is not on the negative-region boundary"
        )
    for _ in range(max_iter):
        g = np.asarray(spec.gradient(q), dtype=float)
        gn2 = float(np.dot(g, g))
        if np.sqrt(gn2) < gradient_floor:
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
        if abs(w) <= proj_tol:
            if on_boundary(q):
                return q
            raise DegenerateProjectionError(
                "projection converged to a degenerate zero away from the boundary"
            )
    raise ProjectionConvergenceError(
        f"projection did not reach |W| <= {proj_tol:g} in {max_iter} iterations"
    )

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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize as _scipy_minimize
from scipy.optimize import minimize_scalar as _scipy_minimize_scalar

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
    """

    dim: int
    well_b: np.ndarray
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    bounding_box: np.ndarray
    variant: str = "custom"
    params: tuple = ()

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
    )


class _Monomials:
    """Sums of monomials c * prod_k u_k**e_k, each added into one output slot.

    Built from (coefficient, exponents, slot) triples.  Evaluation maps
    (..., dim) to (..., n_slots) with multiplies only: powers come from
    repeated multiplication, never from ``pow``.  A single point is evaluated
    in plain floats, which beats numpy's per-call overhead on a handful of
    terms; a batch is processed in row chunks, so its temporaries stay at
    O(chunk * dim * max exponent) however many rows it has.  Both routes form
    each monomial, scale it and sum the terms in the same order, so they
    agree bit for bit.
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
            return self._point(u.tolist())
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
        return np.array(out)

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
    nondegenerate zero-minimum, if no negative region exists inside the box,
    if the potential dips negative on the box boundary, or if the gradient
    callback disagrees with finite differences of the value callback.
    ``compute_constants`` runs the same checks on its own scan.
    """
    _check_assumptions(spec)


def _check_assumptions(spec: PotentialSpec):
    """The checks of ``validate_spec``, returning what they computed.

    Returns the Hessian eigenvalues at b, the scan points of the box and W on
    them, so that ``compute_constants`` builds and evaluates the scan once.
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

    pts = _scan_points(spec, per_axis=_scan_resolution(spec.dim))
    w = spec.value(pts)
    if not np.any(w < -NEG_TOL):
        raise AssumptionViolationError("no negative region found inside the bounding box")

    bpts = _boundary_points(spec, per_axis=101)
    if np.any(spec.value(bpts) < 0):
        raise AssumptionViolationError("potential is negative on the bounding-box boundary")

    rng = np.random.default_rng(0)
    lo, hi = spec.bounding_box[:, 0], spec.bounding_box[:, 1]
    h = 1e-4
    for _ in range(FD_POINTS):
        p = lo + (hi - lo) * rng.random(spec.dim)
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
    return eigs, pts, w


def _scan_resolution(dim: int) -> int:
    if dim <= 2:
        return 401
    if dim == 3:
        return 161
    return max(21, int(round(2e6 ** (1.0 / dim))))


def _scan_points(spec: PotentialSpec, per_axis: int) -> np.ndarray:
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in spec.bounding_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _boundary_points(spec: PotentialSpec, per_axis: int) -> np.ndarray:
    pts = []
    for k in range(spec.dim):
        axes = [
            np.linspace(lo, hi, per_axis) if j != k else None
            for j, (lo, hi) in enumerate(spec.bounding_box)
        ]
        for side in (0, 1):
            face_axes = [a if a is not None else np.array([spec.bounding_box[k, side]]) for a in axes]
            mesh = np.meshgrid(*face_axes, indexing="ij")
            pts.append(np.stack([m.ravel() for m in mesh], axis=-1))
    return np.concatenate(pts, axis=0)


def compute_constants(spec: PotentialSpec) -> PotentialConstants:
    """Validate the potential and analyse it once.

    Runs the checks of ``validate_spec``, then locates the analytic
    constants on the same grid scan plus local refinement, and finds the
    negative-potential equilibria.
    """
    eigs, pts, w = _check_assumptions(spec)
    lo, hi = spec.bounding_box[:, 0], spec.bounding_box[:, 1]
    b = spec.well_b

    neg = w < -NEG_TOL

    # deepest well: refine from the best few scan cells
    order = _smallest(w, 32)
    best_val = np.inf
    best_pt = pts[order[0]]
    tried: list[np.ndarray] = []
    for idx in order:
        p0 = pts[idx]
        if any(np.linalg.norm(p0 - t) < 0.05 * np.max(hi - lo) for t in tried):
            continue
        tried.append(p0)
        res = _scipy_minimize(
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
    m = -best_val
    point_a = best_pt
    if m <= 0:
        raise AssumptionViolationError("the deepest well is not below zero")

    # largest value of W on the segment from a to b
    seg = lambda t: point_a + np.multiply.outer(np.asarray(t), b - point_a)
    ts = np.linspace(0.0, 1.0, _scan_resolution(spec.dim))
    seg_vals = spec.value(seg(ts))
    i = int(np.argmax(seg_vals))
    t_lo, t_hi = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    res = _scipy_minimize_scalar(
        lambda t: -float(spec.value(seg(float(t)))),
        bounds=(t_lo, t_hi),
        method="bounded",
        options={"xatol": 1e-13},
    )
    M = max(0.0, -float(res.fun), float(seg_vals[i]))

    # distance from b to the negative region: nearest negative scan points,
    # refined by bisecting each segment from b for its first sign change
    dist = np.linalg.norm(pts[neg] - b, axis=1)
    near_order = _smallest(dist, 16)
    d = float(dist[near_order[0]])
    for idx in np.flatnonzero(neg)[near_order]:
        p = pts[idx]
        t_cross = _first_negative_crossing(spec, b, p)
        if t_cross is not None:
            d = min(d, t_cross * float(np.linalg.norm(p - b)))
    if d <= 0:
        raise AssumptionViolationError("negative region touches the reference well")

    return PotentialConstants(m=float(m), point_a=point_a, M=float(M), d=float(d),
                              mu=float(eigs[0]), equilibria=tuple(find_equilibria(spec)))


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


def _first_negative_crossing(spec: PotentialSpec, b, p, samples: int = 2001):
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
    axes = [np.linspace(a, b, per_axis) for a, b in spec.bounding_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    q_all = np.stack([m.ravel() for m in mesh], axis=-1)
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
    found = np.empty_like(roots)
    n_found = 0
    for q in roots:
        if n_found and np.any(_row_norms(q - found[:n_found]) < 1e-6):
            continue
        found[n_found] = q
        n_found += 1
    return list(found[:n_found])


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

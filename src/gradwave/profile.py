"""Discrete wave profiles on truncated grids.

A grid is a strictly increasing array of nodes containing 0 exactly; a
profile attaches one R^n value per node and is pinned to the reference well
at the right end.  Profiles are immutable values: every operation returns a
new profile.  Interpolation is piecewise linear throughout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NoCrossingError
from .potential import NEG_TOL, PotentialSpec, project_to_zero_set


@dataclass(frozen=True)
class Grid:
    """Truncated 1-D grid with a node pinned at 0."""

    nodes: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", x)
        if x.ndim != 1 or x.size < 3:
            raise ContractViolationError("grid needs at least 3 nodes")
        # written as "not x > 0" so that NaN fails too; with finite ends,
        # strictly increasing nodes are all finite
        if not np.all(np.diff(x) > 0):
            raise ContractViolationError("grid nodes must be strictly increasing")
        if not (np.isfinite(x[0]) and np.isfinite(x[-1])):
            raise ContractViolationError("grid end nodes must be finite")
        zero = np.nonzero(x == 0.0)[0]
        if zero.size != 1:
            raise ContractViolationError("grid must contain 0 exactly once")
        if not (x[0] < 0.0 < x[-1]):
            raise ContractViolationError("grid must straddle 0")
        object.__setattr__(self, "_index_zero", int(zero[0]))

    @property
    def x_left(self) -> float:
        return float(self.nodes[0])

    @property
    def x_right(self) -> float:
        return float(self.nodes[-1])

    @property
    def index_zero(self) -> int:
        return self._index_zero  # type: ignore[attr-defined]

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @staticmethod
    def uniform(x_left: float, x_right: float, h: float) -> "Grid":
        if h <= 0 or x_left >= 0 or x_right <= 0:
            raise ContractViolationError("uniform grid needs h > 0 and x_left < 0 < x_right")
        n_left = max(1, int(round(-x_left / h)))
        n_right = max(1, int(round(x_right / h)))
        nodes = np.concatenate([
            -h * np.arange(n_left, 0, -1),
            [0.0],
            h * np.arange(1, n_right + 1),
        ])
        return Grid(nodes=nodes)


@dataclass(frozen=True)
class Profile:
    """Vector-valued profile sampled on a grid, pinned to well_b at the right end."""

    grid: Grid
    values: np.ndarray
    well_b: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        b = np.asarray(self.well_b, dtype=float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "well_b", b)
        if v.ndim != 2 or v.shape[0] != self.grid.n_nodes:
            raise ContractViolationError("profile values must have shape (n_nodes, dim)")
        if not np.array_equal(v[-1], b):
            raise ContractViolationError("profile must end exactly at the reference well")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "Profile":
        return Profile(grid=self.grid, values=values, well_b=self.well_b)


@dataclass(frozen=True)
class ProfileDerivative:
    """First derivative per node plus one-sided slopes at the node pinned to 0."""

    values: np.ndarray
    left_at_zero: np.ndarray
    right_at_zero: np.ndarray


def _one_sided(u0, u1, u2, h1, h2):
    # second-order three-point slope at the first of three nodes
    c0 = -(2 * h1 + h2) / (h1 * (h1 + h2))
    c1 = (h1 + h2) / (h1 * h2)
    c2 = -h1 / (h2 * (h1 + h2))
    return c0 * u0 + c1 * u1 + c2 * u2


def centered_difference(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Second-order first derivative of f at the interior nodes of x.

    f holds one row per node, a scalar or a vector per row; the three-point
    stencil is exact for quadratics on a nonuniform grid.
    """
    shape = (-1,) + (1,) * (f.ndim - 1)
    hm = (x[1:-1] - x[:-2]).reshape(shape)
    hp = (x[2:] - x[1:-1]).reshape(shape)
    return (
        -hp / (hm * (hm + hp)) * f[:-2]
        + (hp - hm) / (hm * hp) * f[1:-1]
        + hm / (hp * (hm + hp)) * f[2:]
    )


def derivative(profile: Profile) -> ProfileDerivative:
    """Second-order first derivative on a possibly nonuniform grid."""
    x = profile.grid.nodes
    u = profile.values
    if x.size < 3:
        raise ContractViolationError("derivative needs at least 3 nodes")
    n = x.size
    d = np.empty_like(u)
    d[1:-1] = centered_difference(x, u)
    d[0] = _one_sided(u[0], u[1], u[2], x[1] - x[0], x[2] - x[1])
    d[-1] = -_one_sided(u[-1], u[-2], u[-3], x[-1] - x[-2], x[-2] - x[-3])

    iz = profile.grid.index_zero
    if iz >= 2:
        left = -_one_sided(u[iz], u[iz - 1], u[iz - 2], x[iz] - x[iz - 1], x[iz - 1] - x[iz - 2])
    else:
        left = (u[iz] - u[iz - 1]) / (x[iz] - x[iz - 1])
    if iz <= n - 3:
        right = _one_sided(u[iz], u[iz + 1], u[iz + 2], x[iz + 1] - x[iz], x[iz + 2] - x[iz + 1])
    else:
        right = (u[iz + 1] - u[iz]) / (x[iz + 1] - x[iz])
    return ProfileDerivative(values=d, left_at_zero=left, right_at_zero=right)


def second_derivative(profile: Profile) -> np.ndarray:
    """Three-point second derivative at interior nodes; ends copy their neighbors."""
    x = profile.grid.nodes
    u = profile.values
    dd = np.zeros_like(u)
    hm = (x[1:-1] - x[:-2])[:, None]
    hp = (x[2:] - x[1:-1])[:, None]
    dd[1:-1] = 2.0 * (
        u[:-2] / (hm * (hm + hp))
        - u[1:-1] / (hm * hp)
        + u[2:] / (hp * (hm + hp))
    )
    dd[0] = dd[1]
    dd[-1] = dd[-2]
    return dd


def interpolate(profile: Profile, xq: np.ndarray) -> np.ndarray:
    """Piecewise-linear sample of the profile, constant beyond the ends."""
    x = profile.grid.nodes
    out = np.empty((np.asarray(xq).size, profile.dim))
    for k in range(profile.dim):
        out[:, k] = np.interp(xq, x, profile.values[:, k])
    return out


def shift(profile: Profile, s: float) -> Profile:
    """Translate the profile left by s (sample at x + s), re-pinning the right end."""
    vals = interpolate(profile, profile.grid.nodes + s)
    vals[-1] = profile.well_b
    return profile.with_values(vals)


def segment_profile(spec: PotentialSpec, grid: Grid, left_point) -> Profile:
    """Piecewise-linear seed profile from a given negative-region point to the well.

    The straight segment from the left point to the reference well crosses
    the zero level set; the profile is translated so that the last crossing
    sits exactly at node 0, which makes the potential nonnegative at every
    node to the right.
    """
    a = np.asarray(left_point, dtype=float)
    b = np.asarray(spec.well_b, dtype=float)
    ts = np.linspace(0.0, 1.0, 4001)
    seg = a + np.multiply.outer(ts, b - a)
    w = spec.value(seg)
    negs = np.nonzero(w < -NEG_TOL)[0]
    if negs.size == 0:
        raise ContractViolationError(
            "segment from the left point never enters the negative region"
        )
    j = int(negs[-1])
    if j == len(ts) - 1:
        raise ContractViolationError("negative region touches the reference well")
    # up to 80 halvings; once the midpoint rounds to an end, no later one
    # moves the midpoint t0 taken below
    t_lo, t_hi = ts[j], ts[j + 1]
    for _ in range(80):
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid == t_lo or t_mid == t_hi:
            break
        if float(spec.value(a + t_mid * (b - a))) < 0:
            t_lo = t_mid
        else:
            t_hi = t_mid
    t0 = 0.5 * (t_lo + t_hi)

    # sample u0(x + t0) where u0 is a for x <= 0, the segment on [0, 1], b beyond
    tq = np.clip(grid.nodes + t0, 0.0, 1.0)
    vals = a + np.multiply.outer(tq, b - a)
    vals[grid.index_zero] = project_to_zero_set(spec, a + t0 * (b - a))
    vals[-1] = b
    return Profile(grid=grid, values=vals, well_b=b)


def translate_to_crossing(spec: PotentialSpec, profile: Profile) -> Profile:
    """Recenter a profile so its last zero-set crossing lands at node 0.

    Locates the largest x where the potential along the profile changes sign
    from negative to nonnegative, interpolates the crossing, shifts, and
    projects the node-0 value exactly onto the zero level set.
    """
    x = profile.grid.nodes
    w = spec.value(profile.values)
    negs = np.nonzero(w < -NEG_TOL)[0]
    if negs.size == 0:
        raise NoCrossingError("profile never enters the negative region")
    i = int(negs[-1])
    if i >= x.size - 2:
        # only the pinned right boundary sits outside the negative region:
        # there is no genuine crossing to recenter on
        raise NoCrossingError("profile is negative up to the right boundary")
    frac = w[i] / (w[i] - w[i + 1]) if w[i] != w[i + 1] else 0.0
    x_star = x[i] + (x[i + 1] - x[i]) * min(max(frac, 0.0), 1.0)

    out = shift(profile, float(x_star))
    vals = out.values.copy()
    vals[profile.grid.index_zero] = project_to_zero_set(spec, vals[profile.grid.index_zero])
    vals[-1] = profile.well_b
    return profile.with_values(vals)


# ---------------------------------------------------------------------------
# profile CSV: header x,u1,...,un,W,du_norm; exact decimal round trip
# ---------------------------------------------------------------------------

# rows formatted per write: joining the whole file at once raises peak memory
_CSV_CHUNK = 512
# read_csv accepts a W column within _CSV_W_TOL (1 + |W(u)|) of W(u), which
# admits another roundoff of the same formula, and a du_norm column within
# _CSV_DU_TOL (1 + max |u'|) of |u'| from ``derivative``, which admits an
# exact derivative: the stencil is off from it by O(h^2), 1.3e-4 for a tanh
# front at h = 0.02.  Files this module writes match both exactly.
_CSV_W_TOL = 1e-9
_CSV_DU_TOL = 1e-2


def _derived_columns(profile: Profile, spec: PotentialSpec):
    """The CSV's W and du_norm columns: W(u) and |u'| per node."""
    du = derivative(profile).values
    return spec.value(profile.values), np.sqrt(np.sum(du * du, axis=1))


def write_csv(path, profile: Profile, spec: PotentialSpec) -> None:
    """Write the profile with CRLF line ends and each value as its Python repr.

    Rows are formatted from float lists a chunk at a time, with one ``%``
    over the whole chunk: one ``repr`` per value on numpy scalars costs more
    than the whole table's arithmetic.  The bytes are those a ``csv.writer``
    writes from the same strings.
    """
    w, du_norm = _derived_columns(profile, spec)
    table = np.column_stack([profile.grid.nodes, profile.values, w, du_norm])
    header = ["x"] + [f"u{k + 1}" for k in range(profile.dim)] + ["W", "du_norm"]
    row = ",".join(["%r"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(table), _CSV_CHUNK):
            block = table[start:start + _CSV_CHUNK]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _is_finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def read_csv(path, spec: PotentialSpec) -> Profile:
    """Read a profile CSV, checking every field and the derived columns.

    Raises ContractViolationError, naming the line and column, for a field
    that is not a finite number, and for a W or du_norm entry that disagrees
    with the profile beyond ``_CSV_W_TOL`` or ``_CSV_DU_TOL``.
    """
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, [])
        expected = ["x"] + [f"u{k + 1}" for k in range(spec.dim)] + ["W", "du_norm"]
        if header != expected:
            missing = [c for c in expected if c not in header]
            extra = [c for c in header if c not in expected]
            bad = (missing + extra or ["<order>"])[0]
            raise ContractViolationError(
                f"profile CSV header mismatch at column '{bad}': "
                f"expected {expected}, got {header}"
            )
        rows, lines = [], []
        for row in rd:
            if not row:
                continue
            if len(row) != len(expected):
                raise ContractViolationError(
                    f"profile CSV row has {len(row)} fields, expected {len(expected)}"
                )
            rows.append(row)
            lines.append(rd.line_num)
    try:
        # numpy parses each field as float() does, so every column is checked
        table = np.array(rows, dtype=float).reshape(-1, len(expected))
    except ValueError:
        table = None
    if table is None or not np.isfinite(table).all():
        line, row, col = next((line, row, k) for line, row in zip(lines, rows)
                              for k, v in enumerate(row) if not _is_finite(v))
        raise ContractViolationError(
            f"profile CSV line {line}, column '{expected[col]}': {row[col]!r} "
            "is not a finite number"
        )
    grid = Grid(nodes=table[:, 0].copy())
    values = table[:, 1 : 1 + spec.dim].copy()
    if not np.array_equal(values[-1], spec.well_b):
        # tolerate a right end written from a projected profile
        if np.linalg.norm(values[-1] - spec.well_b) > 1e-9:
            raise ContractViolationError("profile CSV does not end at the reference well")
        values[-1] = spec.well_b
    profile = Profile(grid=grid, values=values, well_b=np.asarray(spec.well_b, dtype=float))
    w, du_norm = _derived_columns(profile, spec)
    du_tol = _CSV_DU_TOL * (1.0 + du_norm.max())
    for col, want, tol in ((-2, w, _CSV_W_TOL * (1.0 + np.abs(w))),
                           (-1, du_norm, np.full_like(du_norm, du_tol))):
        bad = np.flatnonzero(~(np.abs(table[:, col] - want) <= tol))
        if bad.size:
            i = int(bad[0])
            raise ContractViolationError(
                f"profile CSV line {lines[i]}, column '{expected[col]}': {rows[i][col]!r} "
                f"differs from {want[i]!r}, computed from the profile, by more than {tol[i]:.2g}"
            )
    return profile

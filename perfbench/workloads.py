"""Workload inputs and correctness gates for the gradwave benchmark.

Every input a run feeds to ``wave`` is generated here from the benchmark seed,
before any timer starts: the INI configuration, and for ``poly3_verify`` the
monomial table and the exact-wave profile CSV.  The solver sees only these
files; the seed also becomes ``[solver] seed``.

Each workload names the ``wave`` subcommand it runs, how to build its inputs,
and a gate on the JSON report of a call that exited 0.  A rep that exits
nonzero or fails its gate is a failed operation, never a timed success.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# grid spacing of every workload (see README.md for why not the acceptance 0.01)
H = 0.02
C_TOL = 1e-3
C_STAR_GATE = 1e-2
SWEEP_SPEEDS = (0.3, 0.45, 0.6, 0.8, 1.0)
SWEEP_BOUND_SLACK = 1e-3
POLY3_SPEEDS = (0.6, 0.9, 1.2)
POLY3_C = 1.2
POLY3_X_RIGHT = 22.0


@dataclass(frozen=True)
class Inputs:
    """Files for one rep: the argv passed to ``wave`` and the report location."""

    argv: list
    report: Path
    oracle: float | None


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[Path, int], Inputs]
    gate: Callable[[dict, Inputs], str | None]


def _ini(sections: dict) -> str:
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v}" for k, v in body.items()]
        lines.append("")
    return "\n".join(lines)


def _write_config(work: Path, potential: dict, grid: dict, solver: dict, mode: dict) -> Path:
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    path = work / "run.ini"
    path.write_text(_ini({
        "potential": potential,
        "grid": grid,
        "solver": solver,
        "mode": mode,
        "output": {"directory": str(out), "report": "report.json"},
    }))
    return path


def _speed_inputs(potential: dict, oracle: float):
    def make(work: Path, seed: int) -> Inputs:
        cfg = _write_config(
            work, potential, {"h": H},
            {"opt_tol": "1e-8", "restarts": 0, "seed": seed},
            {"c_tol": C_TOL},
        )
        return Inputs(["speed", "--config", str(cfg)], work / "out" / "report.json", oracle)
    return make


def _speed_gate(report: dict, inputs: Inputs) -> str | None:
    err = abs(report["result"]["c_star"] - inputs.oracle)
    if not err <= C_STAR_GATE:
        return f"|c* - {inputs.oracle}| = {err:.3g} > {C_STAR_GATE}"
    return None


def _sweep_make(work: Path, seed: int) -> Inputs:
    cfg = _write_config(
        work, {"variant": "scalar_cubic", "alpha": 0.6}, {"h": H},
        {"opt_tol": "1e-6", "restarts": 0, "seed": seed},
        {"c_list": ", ".join(repr(c) for c in SWEEP_SPEEDS)},
    )
    return Inputs(["gamma", "--config", str(cfg)], work / "out" / "report.json", None)


def _sweep_gate(report: dict, inputs: Inputs) -> str | None:
    curve = report["result"]["curve"]
    gammas = [p["gamma"] for p in curve]
    if len(gammas) != len(SWEEP_SPEEDS):
        return f"{len(gammas)} curve points, expected {len(SWEEP_SPEEDS)}"
    if any(b <= a for a, b in zip(gammas, gammas[1:])):
        return "gamma is not strictly increasing"
    changes = sum(1 for a, b in zip(gammas, gammas[1:]) if (a < 0) != (b < 0))
    if changes != 1:
        return f"{changes} sign changes, expected exactly one"
    for p in curve:
        lo, hi = p["bounds"]["lower"], p["bounds"]["upper"]
        if not lo - SWEEP_BOUND_SLACK <= p["gamma"] <= hi + SWEEP_BOUND_SLACK:
            return f"gamma({p['c']}) = {p['gamma']:.6g} outside [{lo:.6g}, {hi:.6g}]"
    return None


def quartic_well(u, c):
    """Antiderivative of (s^2 - 1)(2 s - c) from 1 to u: the one-component well."""
    return u**4 / 2 - c * u**3 / 3 - u**2 + c * u + 0.5 - 2.0 * c / 3.0


def quartic_zero(c: float) -> float:
    """The root of the quartic well inside (-1, 1), polished by Newton steps."""
    roots = np.roots([0.5, -c / 3.0, -1.0, c, 0.5 - 2.0 * c / 3.0])
    u = float(next(r.real for r in roots if abs(r.imag) < 1e-9 and -1.0 < r.real < 1.0))
    for _ in range(3):
        u -= quartic_well(u, c) / ((u * u - 1.0) * (2.0 * u - c))
    return u


def poly3_terms(speeds) -> list:
    """Monomial table (coefficient, exponents) of the sum of quartic wells.

    Component k contributes u_k^4/2 - c_k u_k^3/3 - u_k^2 + c_k u_k, and the
    constants of all components merge into one term: 13 monomials for 3
    components.
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


def _poly3_make(work: Path, seed: int) -> Inputs:
    # the seed permutes which component carries which well: the potential and
    # its wave are the same up to relabelling.  The terms stay in component
    # order, for which the coefficients sum to +0 or a few ulp above it at b.
    # Some shuffled orders sum to -1 ulp there, which compute_constants rejects
    # ("negative region touches the reference well"); see CHANGES.md.
    rng = np.random.default_rng(seed)
    speeds = [POLY3_SPEEDS[i] for i in rng.permutation(len(POLY3_SPEEDS))]
    terms = poly3_terms(speeds)
    dim = len(speeds)
    table = "; ".join(" ".join([repr(float(c))] + [str(e) for e in exps]) for c, exps in terms)
    cfg = _write_config(
        work,
        {
            "variant": "user_polynomial",
            "dim": dim,
            "terms": table,
            "well_b": ", ".join(["1.0"] * dim),
            "box": ", ".join(["-2:2"] * dim),
        },
        {"h": H},
        {"seed": seed},
        {"c": POLY3_C},
    )

    # exact wave: the component whose well has parameter c is tanh(x + x0),
    # pinned so that it crosses the zero set at x = 0; the others sit at 1
    fast = speeds.index(POLY3_C)
    x0 = float(np.arctanh(quartic_zero(POLY3_C)))
    n_left = int(round((40.0 / POLY3_C) / H))
    n_right = int(round(POLY3_X_RIGHT / H))
    x = np.concatenate([-H * np.arange(n_left, 0, -1), [0.0], H * np.arange(1, n_right + 1)])
    values = np.ones((x.size, dim))
    values[:, fast] = np.tanh(x + x0)
    values[-1] = 1.0
    w = sum(quartic_well(values[:, k], c) for k, c in enumerate(speeds))
    du_norm = 1.0 - np.tanh(x + x0) ** 2
    header = ["x"] + [f"u{k + 1}" for k in range(dim)] + ["W", "du_norm"]
    rows = [",".join(header)]
    for i in range(x.size):
        row = [x[i], *values[i], w[i], du_norm[i]]
        rows.append(",".join(repr(float(v)) for v in row))
    profile = work / "wave.csv"
    profile.write_text("\n".join(rows) + "\n")
    return Inputs(["verify", "--config", str(cfg), "--profile", str(profile)],
                  work / "out" / "report.json", None)


def _verify_gate(report: dict, inputs: Inputs) -> str | None:
    verify = report["verify"]
    if not verify["pass"]:
        failed = [k for k, v in verify.items() if isinstance(v, dict) and not v["pass"]]
        return "failed checks: " + ", ".join(failed)
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scalar_speed",
                 _speed_inputs({"variant": "scalar_cubic", "alpha": 0.6}, 0.6),
                 _speed_gate),
        Workload("decoupled_speed",
                 _speed_inputs({"variant": "decoupled_quartic", "alpha": 0.6, "beta": 1.2}, 1.2),
                 _speed_gate),
        Workload("scalar_sweep", _sweep_make, _sweep_gate),
        Workload("poly3_verify", _poly3_make, _verify_gate),
    )
}


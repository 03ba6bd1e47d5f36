"""Command-line front end: the bounds, gamma, speed and verify subcommands.

``main`` is the one driver: it checks the mode keys ``COMMANDS`` lists for
the command, builds the potential and its constants, and calls the command,
which writes its CSVs, prints its own lines and returns ``(exit code,
bounds, result, verify report)``.  The driver then writes the JSON report,
prints the verification checks and last ``report: <path>``.  The report
echoes the configuration, and its digest covers everything except timings,
so identical configurations and seeds reproduce byte-identical
digest-covered sections.

Exit codes: 0 success (and verified, for speed and verify), 1 usage or
configuration error, 2 solver non-convergence, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .config import RunConfig, build_potential, load_config
from .errors import ConfigError, WaveSolverError
from .functional import FunctionalParams, compute_bounds, energy
from .potential import compute_constants
from .profile import Grid, read_csv, write_csv
from .speed import auto_grid_bounds, find_speed, gamma_curve
from .verify import run_verify

# Nothing here calls these two: compute_constants validates and finds the
# equilibria.  perfbench/layertrace.py wraps them by name until the next
# benchmark change drops them (ROADMAP item 1).
from .potential import find_equilibria, validate_spec  # noqa: F401

SCHEMA_VERSION = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def make_report(cfg: RunConfig, constants, bounds, result, verify, timings) -> dict:
    body = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "gradwave", "version": __version__},
        "config": cfg.raw,
        "config_digest": _digest(cfg.raw),
        "constants": constants.as_dict(),
        "bounds": bounds.as_dict(),
        "result": result,
        "verify": verify.as_dict() if verify is not None else None,
    }
    return {**body, "digest": _digest(body), "timings": timings}


def _write_rows(path: Path, header, rows) -> None:
    """A CSV of numbers, each written as its repr so a read-back is bit-exact."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([repr(v) for v in row] for row in rows)


def _resolve_grid(cfg: RunConfig, consts, c_floor: float) -> Grid:
    auto_l, auto_r = auto_grid_bounds(consts, c_floor)
    return Grid.uniform(auto_l if cfg.x_left is None else cfg.x_left,
                        auto_r if cfg.x_right is None else cfg.x_right, cfg.h)


def cmd_bounds(cfg: RunConfig, spec, consts, out_dir: Path, args):
    bounds = compute_bounds(spec, consts, cfg.c if cfg.c is not None else 1.0)
    print(f"constants: m={consts.m:.6g}  M={consts.M:.6g}  d={consts.d:.6g}  mu={consts.mu:.6g}")
    print(f"point_a:   {consts.point_a.tolist()}")
    print(f"bracket:   ({bounds.bracket_lo:.6g}, {bounds.bracket_hi:.6g}]")
    if cfg.c is not None:
        print(f"bounds at c={cfg.c:g}: lower={bounds.lower:.6g}  upper={bounds.upper:.6g}")
    result = {"mode": "bounds", "c": cfg.c, "bracket": [bounds.bracket_lo, bounds.bracket_hi]}
    return 0, bounds, result, None


def cmd_gamma(cfg: RunConfig, spec, consts, out_dir: Path, args):
    c_values = cfg.c_list if cfg.c_list is not None else [cfg.c]
    grid = _resolve_grid(cfg, consts, min(c_values))
    results = gamma_curve(spec, consts, grid, c_values, opt_tol=cfg.opt_tol)
    _write_rows(out_dir / "gamma_vs_c.csv", ["c", "gamma", "grad_norm", "feasibility"],
                [(r.c, r.gamma, r.grad_norm, r.feasibility_violation) for r in results])
    profile_paths = []
    for res in results:
        tag = f"{res.c:g}"
        if float(tag) != res.c:  # a rounded name could be another speed's file
            tag = repr(res.c)
        p = out_dir / f"profile_c{tag}.csv"
        write_csv(p, res.profile, spec)
        profile_paths.append(str(p))
        print(f"c={res.c:<10g} gamma={res.gamma:+.8g}  grad={res.grad_norm:.2e}  "
              f"feas={res.feasibility_violation:.2e}  converged={res.converged}")
    result = {"mode": "gamma", "curve": [res.as_dict() for res in results],
              "profiles": profile_paths}
    stuck = [f"c={res.c:g} (grad_norm {res.grad_norm:.2e})" for res in results if not res.converged]
    if stuck:
        print(f"solver error: the minimizer did not converge at {', '.join(stuck)}", file=sys.stderr)
    return (2 if stuck else 0), results[-1].bounds, result, None


def cmd_speed(cfg: RunConfig, spec, consts, out_dir: Path, args):
    grid = _resolve_grid(cfg, consts, compute_bounds(spec, consts, 1.0).bracket_lo)
    res = find_speed(spec, consts, grid, c_tol=cfg.c_tol, opt_tol=cfg.opt_tol)
    report_verify = run_verify(spec, consts, res.c_star, res.profile, res.gamma_at_c_star)
    hist_path = out_dir / "bracket_history.csv"
    _write_rows(hist_path, ["c_lo", "c_hi", "gamma_lo", "gamma_hi"], res.bracket_history)
    wave_path = out_dir / "wave.csv"
    write_csv(wave_path, res.profile, spec)

    # which equilibrium the left tail approaches is reported, never asserted
    well = report_verify.left_tail_well
    result = dict(
        res.as_dict(), mode="speed", wave_ok=report_verify.passed,
        wave_csv=str(wave_path), bracket_csv=str(hist_path),
        left_tail_well=None if well is None else [float(v) for v in well],
        left_tail_distance=None if well is None else report_verify.checks["dist_to_equilibria"][0],
    )
    print(f"c* = {res.c_star:.6g}   gamma(c*) = {res.gamma_at_c_star:+.3e}")
    code = 0 if report_verify.passed else 3
    if not res.gamma_result.converged:
        print(f"solver error: the minimizer at c* did not converge "
              f"(grad_norm {res.gamma_result.grad_norm:.2e})", file=sys.stderr)
        code = 2
    return code, res.gamma_result.bounds, result, report_verify


def cmd_verify(cfg: RunConfig, spec, consts, out_dir: Path, args):
    try:
        profile = read_csv(args.profile, spec)
    except OSError as err:
        raise ConfigError(f"cannot read the profile: {err}") from None
    gamma_hat = energy(spec, FunctionalParams(c=cfg.c), profile)
    report_verify = run_verify(spec, consts, cfg.c, profile, gamma_hat)
    result = {"mode": "verify", "c": cfg.c, "profile_csv": str(args.profile),
              "gamma_hat": gamma_hat}
    code = 0 if report_verify.passed else 3
    return code, compute_bounds(spec, consts, cfg.c), result, report_verify


# command name -> (function, mode keys of which it needs at least one)
COMMANDS = {
    "bounds": (cmd_bounds, ()),
    "gamma": (cmd_gamma, ("c", "c_list")),
    "speed": (cmd_speed, ("c_tol",)),
    "verify": (cmd_verify, ("c",)),
}


def main(argv=None) -> int:
    parser = _Parser(prog="wave", description="Traveling-wave solver for gradient-flow systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory override")
        if name == "verify":
            p.add_argument("--profile", required=True, help="profile CSV to certify")

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        t0 = time.time()
        command, keys = COMMANDS[args.command]
        if keys and all(getattr(cfg, key) is None for key in keys):
            raise ConfigError(" or ".join(f"mode.{key}" for key in keys)
                              + f" is required for the {args.command} command")
        spec = build_potential(cfg)
        consts = compute_constants(spec)
        out_dir = Path(args.out) if args.out else Path(cfg.directory)
        out_dir.mkdir(parents=True, exist_ok=True)  # before the solve, so it fails fast
        code, bounds, result, verify = command(cfg, spec, consts, out_dir, args)
        report = make_report(cfg, consts, bounds, result, verify,
                             {"total_s": time.time() - t0})
        path = out_dir / cfg.report
        path.write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
        if verify is not None:
            for name, (val, _, ok) in verify.checks.items():
                print(f"  {name:20s} {val:12.6g}  {'PASS' if ok else 'FAIL'}")
        print(f"report: {path}")
        return code
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # an output directory or file that cannot be written
        print(f"error: cannot write the output: {err}", file=sys.stderr)
        return 1
    except WaveSolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        probes = getattr(err, "probes", None)
        if probes:
            print("probe table (c, gamma):", file=sys.stderr)
            for c, g in probes:
                print(f"  {c:.6g}  {g:+.6g}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

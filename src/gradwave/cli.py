"""Command-line front end: bounds, gamma, speed, and verify subcommands.

Each run echoes its configuration into a JSON report whose digest covers
everything except timings, so identical configurations and seeds reproduce
byte-identical digest-covered sections.

Exit codes: 0 success (and verified, for speed), 1 usage or configuration
error, 2 solver non-convergence, 3 verification failure.
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
from .config import RunConfig, auto_grid_bounds, build_potential, load_config
from .errors import ConfigError, WaveSolverError
from .functional import FunctionalParams, compute_bounds, energy
from .potential import compute_constants
from .profile import Grid, read_csv, write_csv
from .speed import find_speed, gamma_curve
from .verify import run_verify

# Nothing here calls these two: compute_constants validates and finds the
# equilibria.  perfbench/layertrace.py wraps them by name until the next
# benchmark change drops them (ROADMAP item 1).
from .potential import find_equilibria, validate_spec  # noqa: F401

SCHEMA_VERSION = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()


def make_report(cfg: RunConfig, constants=None, bounds=None, result=None,
                verify=None, timings=None) -> dict:
    body = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "gradwave", "version": __version__},
        "config": cfg.raw,
        "config_digest": _digest(cfg.raw),
        "constants": constants.as_dict() if constants is not None else None,
        "bounds": bounds.as_dict() if bounds is not None else None,
        "result": result,
        "verify": verify.as_dict() if verify is not None else None,
    }
    report = dict(body)
    report["digest"] = _digest(body)
    report["timings"] = timings or {}
    return report


def _write_report(report: dict, out_dir: Path, name: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _resolve_grid(cfg: RunConfig, consts, c_floor: float) -> Grid:
    xl, xr = cfg.x_left, cfg.x_right
    if xl is None or xr is None:
        auto_l, auto_r = auto_grid_bounds(consts, c_floor)
        xl = auto_l if xl is None else xl
        xr = auto_r if xr is None else xr
    return Grid.uniform(xl, xr, cfg.h)


def cmd_bounds(cfg: RunConfig, out_dir: Path) -> int:
    t0 = time.time()
    spec = build_potential(cfg)
    consts = compute_constants(spec)
    c_ref = cfg.c if cfg.c is not None else 1.0
    bounds = compute_bounds(spec, consts, c_ref)
    result = {
        "mode": "bounds",
        "c": cfg.c,
        "bracket": [bounds.bracket_lo, bounds.bracket_hi],
    }
    report = make_report(cfg, constants=consts, bounds=bounds, result=result,
                         timings={"total_s": time.time() - t0})
    path = _write_report(report, out_dir, cfg.report)
    print(f"constants: m={consts.m:.6g}  M={consts.M:.6g}  d={consts.d:.6g}  mu={consts.mu:.6g}")
    print(f"point_a:   {consts.point_a.tolist()}")
    print(f"bracket:   ({bounds.bracket_lo:.6g}, {bounds.bracket_hi:.6g}]")
    if cfg.c is not None:
        print(f"bounds at c={cfg.c:g}: lower={bounds.lower:.6g}  upper={bounds.upper:.6g}")
    print(f"report: {path}")
    return 0


def cmd_gamma(cfg: RunConfig, out_dir: Path) -> int:
    t0 = time.time()
    if cfg.c is None and cfg.c_list is None:
        raise ConfigError("mode.c or mode.c_list is required for the gamma command")
    spec = build_potential(cfg)
    consts = compute_constants(spec)
    c_values = cfg.c_list if cfg.c_list is not None else [cfg.c]
    grid = _resolve_grid(cfg, consts, min(c_values))
    results = gamma_curve(spec, consts, grid, c_values, cfg.solver)

    out_dir.mkdir(parents=True, exist_ok=True)
    curve_path = out_dir / "gamma_vs_c.csv"
    with open(curve_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["c", "gamma", "grad_norm", "feasibility"])
        for res in results:
            wr.writerow([repr(res.c), repr(res.gamma), repr(res.grad_norm),
                         repr(res.feasibility_violation)])
    profile_paths = []
    for res in results:
        tag = f"{res.c:g}"
        if float(tag) != res.c:  # a rounded name could be another speed's file
            tag = repr(res.c)
        p = out_dir / f"profile_c{tag}.csv"
        write_csv(p, res.profile, spec)
        profile_paths.append(str(p))

    result = {
        "mode": "gamma",
        "curve": [res.as_dict() for res in results],
        "profiles": profile_paths,
    }
    bounds = results[-1].bounds
    report = make_report(cfg, constants=consts, bounds=bounds, result=result,
                         timings={"total_s": time.time() - t0})
    path = _write_report(report, out_dir, cfg.report)
    for res in results:
        print(f"c={res.c:<10g} gamma={res.gamma:+.8g}  grad={res.grad_norm:.2e}  "
              f"feas={res.feasibility_violation:.2e}  converged={res.converged}")
    print(f"report: {path}")
    if not all(res.converged for res in results):
        return 2
    return 0


def cmd_speed(cfg: RunConfig, out_dir: Path) -> int:
    t0 = time.time()
    if cfg.c_tol is None:
        raise ConfigError("mode.c_tol is required for the speed command")
    spec = build_potential(cfg)
    consts = compute_constants(spec)
    bounds0 = compute_bounds(spec, consts, 1.0)
    grid = _resolve_grid(cfg, consts, bounds0.bracket_lo)
    res = find_speed(spec, consts, grid, cfg.solver, cfg.c_tol)
    report_verify = run_verify(spec, consts, res.c_star, res.profile, res.gamma_at_c_star)

    out_dir.mkdir(parents=True, exist_ok=True)
    wave_path = out_dir / "wave.csv"
    write_csv(wave_path, res.profile, spec)
    hist_path = out_dir / "bracket_history.csv"
    with open(hist_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["c_lo", "c_hi", "gamma_lo", "gamma_hi"])
        for row in res.bracket_history:
            wr.writerow([repr(v) for v in row])

    result = res.as_dict()
    result["mode"] = "speed"
    result["wave_ok"] = report_verify.passed
    result["wave_csv"] = str(wave_path)
    result["bracket_csv"] = str(hist_path)
    # which equilibrium the left tail approaches is reported, never asserted
    well = report_verify.left_tail_well
    result["left_tail_well"] = None if well is None else [float(v) for v in well]
    result["left_tail_distance"] = (
        None if well is None else report_verify.checks["dist_to_equilibria"][0])
    bounds = compute_bounds(spec, consts, res.c_star)
    report = make_report(cfg, constants=consts, bounds=bounds, result=result,
                         verify=report_verify,
                         timings={"total_s": time.time() - t0})
    path = _write_report(report, out_dir, cfg.report)
    print(f"c* = {res.c_star:.6g}   gamma(c*) = {res.gamma_at_c_star:+.3e}")
    for name, (val, thr, ok) in report_verify.checks.items():
        print(f"  {name:20s} {val:12.6g}  {'PASS' if ok else 'FAIL'}")
    print(f"report: {path}")
    if not res.gamma_result.converged:
        print(f"solver error: the minimizer at c* did not converge "
              f"(grad_norm {res.gamma_result.grad_norm:.2e})", file=sys.stderr)
        return 2
    return 0 if report_verify.passed else 3


def cmd_verify(cfg: RunConfig, out_dir: Path, profile_path: str) -> int:
    t0 = time.time()
    if cfg.c is None:
        raise ConfigError("mode.c is required for the verify command")
    spec = build_potential(cfg)
    consts = compute_constants(spec)
    try:
        profile = read_csv(profile_path, spec)
    except OSError as err:
        raise ConfigError(f"cannot read the profile: {err}") from None
    gamma_hat = energy(spec, FunctionalParams(c=cfg.c), profile)
    report_verify = run_verify(spec, consts, cfg.c, profile, gamma_hat)

    result = {
        "mode": "verify",
        "c": cfg.c,
        "profile_csv": str(profile_path),
        "gamma_hat": gamma_hat,
    }
    report = make_report(cfg, constants=consts,
                         bounds=compute_bounds(spec, consts, cfg.c),
                         result=result, verify=report_verify,
                         timings={"total_s": time.time() - t0})
    path = _write_report(report, out_dir, cfg.report)
    for name, (val, thr, ok) in report_verify.checks.items():
        print(f"  {name:20s} {val:12.6g}  {'PASS' if ok else 'FAIL'}")
    print(f"report: {path}")
    return 0 if report_verify.passed else 3


def main(argv=None) -> int:
    parser = _Parser(prog="wave", description="Traveling-wave solver for gradient-flow systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("bounds", "gamma", "speed", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory override")
        if name == "verify":
            p.add_argument("--profile", required=True, help="profile CSV to certify")

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        out_dir = Path(args.out) if args.out else Path(cfg.directory)
        if args.command == "bounds":
            return cmd_bounds(cfg, out_dir)
        if args.command == "gamma":
            return cmd_gamma(cfg, out_dir)
        if args.command == "speed":
            return cmd_speed(cfg, out_dir)
        return cmd_verify(cfg, out_dir, args.profile)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
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

"""Run configuration: sectioned key-value files, strictly validated.

The format is INI-style with five sections (potential, grid, solver, mode,
output).  Unknown sections or keys are rejected, every numeric field is
range-checked, and error messages name the offending section and field.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .errors import ConfigError, ContractViolationError
from .minimize import OPT_TOL
from .potential import PotentialSpec, decoupled_quartic, scalar_cubic, user_polynomial

_SECTIONS = {
    "potential": {"variant", "alpha", "beta", "dim", "terms", "well_b", "box"},
    "grid": {"x_left", "x_right", "h"},
    "solver": {"opt_tol", "restarts", "seed"},
    "mode": {"c", "c_list", "c_tol"},
    "output": {"directory", "report"},
}


@dataclass
class RunConfig:
    """Validated run settings, plus the raw echo for reports."""

    variant: str
    alpha: float | None
    beta: float | None
    dim: int | None
    terms: list | None
    well_b: list | None
    box: list | None
    x_left: float | None
    x_right: float | None
    h: float
    opt_tol: float
    c: float | None
    c_list: list | None
    c_tol: float | None
    directory: str
    report: str
    raw: dict = field(default_factory=dict)


def _finite(raw, section, key):
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected a number, got '{raw}'") from None
    if not math.isfinite(val):
        raise ConfigError(f"{section}.{key}: expected a finite number, got '{raw}'")
    return val


_MUST = {
    "positive": lambda v: v > 0,
    "nonnegative": lambda v: v >= 0,
    "negative": lambda v: v < 0,
}


def _get(cp, section, key, default=None, kind=float, must=None):
    """section.key as a finite float or an int, or default when absent.

    ``must`` names a sign the value needs: positive, nonnegative or negative.
    """
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    if kind is int:
        try:
            val = int(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}: expected an integer, got '{raw}'") from None
    else:
        val = _finite(raw, section, key)
    if must is not None and not _MUST[must](val):
        raise ConfigError(f"{section}.{key}: must be {must}, got {val}")
    return val


def _parse_floats(raw, section, key):
    return [_finite(v, section, key) for v in raw.replace(",", " ").split()]


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    # no interpolation: a "%" in a value is a literal character.  Only "#"
    # starts an inline comment, since ";" separates the terms of
    # potential.terms; a line that starts with ";" is still a comment
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        read = cp.read(path, encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err})") from None
    except configparser.Error as err:
        # duplicate keys and sections, lines outside any section: the
        # parser's message names the file and the line, over several lines
        raise ConfigError(" ".join(str(err).split())) from None
    if not read:
        raise ConfigError(f"config file not found: {path}")

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    if not cp.has_section("potential"):
        raise ConfigError("missing required section [potential]")

    variant = cp.get("potential", "variant", fallback=None)
    if variant is None:
        raise ConfigError("potential.variant is required")
    if variant not in ("scalar_cubic", "decoupled_quartic", "user_polynomial"):
        raise ConfigError(f"potential.variant: unknown variant '{variant}'")

    alpha = _get(cp, "potential", "alpha")
    beta = _get(cp, "potential", "beta")
    dim = _get(cp, "potential", "dim", kind=int, must="positive")
    terms = well_b = box = None
    if variant == "scalar_cubic":
        if alpha is None:
            raise ConfigError("potential.alpha is required for scalar_cubic")
    elif variant == "decoupled_quartic":
        if alpha is None or beta is None:
            raise ConfigError("potential.alpha and potential.beta are required for decoupled_quartic")
    else:
        if dim is None:
            raise ConfigError("potential.dim is required for user_polynomial")
        raw_terms = cp.get("potential", "terms", fallback=None)
        if raw_terms is None:
            raise ConfigError("potential.terms is required for user_polynomial")
        terms = []
        for chunk in raw_terms.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split()
            if len(parts) != 1 + dim:
                raise ConfigError(
                    f"potential.terms: each term needs a coefficient and {dim} exponents, got '{chunk}'"
                )
            try:
                coeff = _finite(parts[0], "potential", "terms")
                exps = [int(p) for p in parts[1:]]
            except ValueError:
                raise ConfigError(f"potential.terms: malformed term '{chunk}'")
            terms.append((coeff, exps))
        raw_well = cp.get("potential", "well_b", fallback=None)
        if raw_well is None:
            raise ConfigError("potential.well_b is required for user_polynomial")
        well_b = _parse_floats(raw_well, "potential", "well_b")
        if len(well_b) != dim:
            raise ConfigError(f"potential.well_b: expected {dim} components")
        raw_box = cp.get("potential", "box", fallback=None)
        if raw_box is None:
            raise ConfigError("potential.box is required for user_polynomial")
        box = []
        for part in raw_box.split(","):
            ends = part.split(":")
            if len(ends) != 2:
                raise ConfigError(f"potential.box: expected lo:hi pairs, got '{part.strip()}'")
            lo, hi = (_finite(e.strip(), "potential", "box") for e in ends)
            if not lo < hi:
                raise ConfigError("potential.box: each interval needs lo < hi")
            box.append([lo, hi])
        if len(box) != dim:
            raise ConfigError(f"potential.box: expected {dim} intervals")

    # an end left out or set to auto is sized for the run's lowest speed
    ends = {key: None if cp.get("grid", key, fallback="auto") == "auto"
            else _get(cp, "grid", key, must=must)
            for key, must in (("x_left", "negative"), ("x_right", "positive"))}
    h = _get(cp, "grid", "h", default=0.01, must="positive")

    # the benchmark inputs still write restarts and seed (ROADMAP item 1):
    # restarts is accepted only as 0, seed is checked and otherwise unused
    if _get(cp, "solver", "restarts", default=0, kind=int) != 0:
        raise ConfigError("solver.restarts: random restarts were removed; only 0 is accepted")
    _get(cp, "solver", "seed", kind=int, must="nonnegative")
    opt_tol = _get(cp, "solver", "opt_tol", default=OPT_TOL, must="positive")

    c = _get(cp, "mode", "c", must="positive")
    c_tol = _get(cp, "mode", "c_tol", must="positive")
    c_list = None
    if cp.has_option("mode", "c_list"):
        c_list = _parse_floats(cp.get("mode", "c_list"), "mode", "c_list")
        if not c_list:
            raise ConfigError("mode.c_list: must not be empty")
        if any(v <= 0 for v in c_list):
            raise ConfigError("mode.c_list: all speeds must be positive")
        if any(b <= a for a, b in zip(c_list, c_list[1:])):
            raise ConfigError("mode.c_list: must be strictly increasing")

    directory = cp.get("output", "directory", fallback="out")
    report = cp.get("output", "report", fallback="report.json")

    raw = {s: dict(cp.items(s)) for s in cp.sections()}
    return RunConfig(
        variant=variant, alpha=alpha, beta=beta, dim=dim, terms=terms,
        well_b=well_b, box=box,
        **ends, h=h,
        opt_tol=opt_tol,
        c=c, c_list=c_list, c_tol=c_tol,
        directory=directory, report=report, raw=raw,
    )


def build_potential(cfg: RunConfig) -> PotentialSpec:
    """The configured potential.  Parameter ranges live in the family
    constructors; a value out of range is a ConfigError naming its keys."""
    try:
        if cfg.variant == "scalar_cubic":
            return scalar_cubic(cfg.alpha)
        if cfg.variant == "decoupled_quartic":
            return decoupled_quartic(cfg.alpha, cfg.beta)
        return user_polynomial(cfg.dim, cfg.terms, cfg.well_b, cfg.box)
    except ContractViolationError as err:
        keys = {"scalar_cubic": "potential.alpha",
                "decoupled_quartic": "potential.alpha, potential.beta"}
        raise ConfigError(f"{keys.get(cfg.variant, 'potential.terms')}: {err}") from None


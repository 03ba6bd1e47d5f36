"""Out-of-program tracing of one ``wave`` call, layer by layer.

The tracer replaces, from outside, the module-level names each gradwave module
calls (``gradwave.speed.minimize_profile``, ``gradwave.minimize.cho_solve_banded``
and so on) with wrappers that record a span per call: name, start, end, parent
span and run id.  The spec returned by ``gradwave.cli.build_potential`` gets
counting ``value``/``gradient``/``hessian`` callbacks; these are too frequent
for spans, so they feed aggregated counters and busy time instead, split into
batch calls (an array of points) and single-point calls.

Everything stays in memory until the run ends.  A span's self time is its
duration minus the time its direct child spans and callbacks took; summing
self time by the layer of each span gives the per-layer breakdown.

Wrapping costs a few microseconds per call, which matters where calls are tiny
and many: ``poly3_verify`` makes some 70,000 single-point callbacks, so its
traced times run above its untraced ones.  Traced numbers are therefore
reported only as per-layer metrics, never as end-to-end ones.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "potential", "functional", "profile", "minimize", "speed", "verify")

# (module whose global is replaced, name, layer of the callee)
TRACED = (
    ("cli", "main", "cli"),
    ("cli", "load_config", "cli"),
    ("cli", "build_potential", "cli"),
    ("cli", "validate_spec", "potential"),
    ("cli", "compute_constants", "potential"),
    ("cli", "find_equilibria", "potential"),
    ("cli", "compute_bounds", "functional"),
    ("cli", "energy", "functional"),
    ("cli", "write_csv", "profile"),
    ("cli", "read_csv", "profile"),
    ("cli", "gamma_curve", "minimize"),
    ("cli", "find_speed", "speed"),
    ("cli", "run_verify", "verify"),
    ("potential", "find_equilibria", "potential"),
    ("functional", "cell_weights", "functional"),
    ("profile", "segment_profile", "profile"),
    ("profile", "project_to_zero_set", "potential"),
    ("minimize", "minimize_profile", "minimize"),
    ("minimize", "_descent", "minimize"),
    ("minimize", "_factor_preconditioner", "minimize"),
    ("minimize", "cho_solve_banded", "minimize"),
    ("minimize", "cell_weights", "functional"),
    ("minimize", "compute_bounds", "functional"),
    ("minimize", "project_to_zero_set", "potential"),
    ("minimize", "translate_to_crossing", "profile"),
    ("speed", "compute_bounds", "functional"),
    ("speed", "minimize_profile", "minimize"),
    ("speed", "minimize_from_seeds", "minimize"),
    ("speed", "seed_points", "speed"),
    ("speed", "segment_profile", "profile"),
    ("verify", "find_equilibria", "potential"),
    ("verify", "cell_weights", "functional"),
    ("verify", "el_residual", "verify"),
    ("verify", "first_integral_residual", "verify"),
    ("verify", "halfline_identities", "verify"),
    ("verify", "jump_gap", "verify"),
    ("verify", "fit_decay_rate", "verify"),
    ("verify", "left_tail_report", "verify"),
    ("verify", "shooting_check", "verify"),
    ("verify", "_rk4_backward", "verify"),
)

# spans whose arguments and results the metrics need
_PROBE_SPANS = ("minimize_profile@speed", "minimize_from_seeds@speed")


def _attrs(name, args, result):
    """Extra fields kept on a span, for the few calls the metrics inspect."""
    if name in _PROBE_SPANS:
        return {"c": float(args[2].c), "gamma": float(result.gamma)}
    if name.startswith("minimize_profile@"):
        return {"converged": bool(result.converged),
                "warning": bool(result.multistart_warning)}
    if name == "_rk4_backward@verify":
        return {"steps": int(len(result[0]) - 1)}
    return None


class Tracer:
    """Spans and callback counters for one or more traced reps."""

    def __init__(self):
        self.spans = []  # (id, name, layer, start, end, parent, run, self_s)
        self.attrs = {}  # span id -> dict
        self.counters = {}  # run -> counter name -> value
        self.run = None
        self._stack = []  # open frames: [id, name, child_s]
        self._next_id = 0

    def begin(self, run: str) -> None:
        """Start attributing spans and counters to a new rep."""
        self.run = run
        self.counters[run] = defaultdict(float)

    def _wrap(self, fn, name, layer):
        def traced(*args, **kwargs):
            frame = [self._next_id, name, 0.0]
            self._next_id += 1
            stack = self._stack
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                self.spans.append((frame[0], name, layer, start, end, parent, self.run,
                                   dur - frame[2]))
            extra = _attrs(name, args, result)
            if extra is not None:
                self.attrs[frame[0]] = extra
            return result
        return traced

    def _count(self, fn, kind):
        def counted(u):
            start = perf_counter()
            try:
                return fn(u)
            finally:
                dur = perf_counter() - start
                counters = self.counters[self.run]
                owner = self._stack[-1] if self._stack else None
                if owner is not None:
                    owner[2] += dur
                counters["potential.callback_s"] += dur
                shape = np.shape(u)
                if kind != "hessian" and len(shape) >= 2:
                    counters[f"potential.{kind}.batch_calls"] += 1
                    counters[f"potential.{kind}.batch_s"] += dur
                    counters["potential.batch_nodes"] += int(np.prod(shape[:-1]))
                    if owner is not None and owner[1] == "_descent@minimize":
                        counters[f"descent.{kind}"] += 1
                else:
                    counters["potential.point_calls"] += 1
                    counters["potential.point_s"] += dur
                    if kind == "hessian":
                        counters["potential.hessian_calls"] += 1
        return counted

    def _counted_build(self, build):
        def build_counted(cfg):
            spec = build(cfg)
            return dataclasses.replace(
                spec,
                value=self._count(spec.value, "value"),
                gradient=self._count(spec.gradient, "gradient"),
                hessian=self._count(spec.hessian, "hessian"),
            )
        return build_counted

    @contextmanager
    def installed(self):
        """Replace every traced name for the duration of the block."""
        saved = []
        try:
            for site, name, layer in TRACED:
                module = importlib.import_module(f"gradwave.{site}")
                original = getattr(module, name)
                saved.append((module, name, original))
                wrapped = self._wrap(original, f"{name}@{site}", layer)
                if (site, name) == ("cli", "build_potential"):
                    wrapped = self._counted_build(wrapped)
                setattr(module, name, wrapped)
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def metrics(self, run: str) -> dict:
        """Per-layer metrics of one traced rep."""
        spans = [s for s in self.spans if s[6] == run]
        counters = self.counters[run]
        by_func = defaultdict(list)
        for s in spans:
            by_func[s[1].split("@")[0]].append(s)

        def calls(func):
            return len(by_func[func])

        def busy(func):
            return sum(s[4] - s[3] for s in by_func[func])

        def attr_count(func, key):
            return sum(1 for s in by_func[func] if self.attrs.get(s[0], {}).get(key))

        out = {name: counters[name] for name in (
            "potential.value.batch_calls", "potential.value.batch_s",
            "potential.gradient.batch_calls", "potential.gradient.batch_s",
            "potential.batch_nodes", "potential.point_calls", "potential.point_s",
            "potential.hessian_calls",
        )}
        iters, evals = counters["descent.gradient"], counters["descent.value"]
        out.update({
            "potential.validate_s": busy("validate_spec"),
            "potential.constants_s": busy("compute_constants"),
            "potential.equilibria_calls": calls("find_equilibria"),
            "potential.equilibria_s": busy("find_equilibria"),
            "potential.project_calls": calls("project_to_zero_set"),
            "potential.project_s": busy("project_to_zero_set"),
            "functional.cell_weights_calls": calls("cell_weights"),
            "functional.cell_weights_s": busy("cell_weights"),
            "profile.translate_calls": calls("translate_to_crossing"),
            "profile.translate_s": busy("translate_to_crossing"),
            "profile.seed_calls": calls("segment_profile"),
            "profile.seed_s": busy("segment_profile"),
            "profile.csv_write_s": busy("write_csv"),
            "profile.csv_read_s": busy("read_csv"),
            "minimize.descent_iters": iters,
            "minimize.objective_evals": evals,
            "minimize.evals_per_iter": evals / iters if iters else 0.0,
            "minimize.precond_solves": calls("cho_solve_banded"),
            "minimize.precond_s": busy("cho_solve_banded"),
            "minimize.factor_calls": calls("_factor_preconditioner"),
            "minimize.factor_s": busy("_factor_preconditioner"),
            "minimize.profile_calls": calls("minimize_profile"),
            "minimize.profile_s": busy("minimize_profile"),
            "minimize.race_calls": calls("minimize_from_seeds"),
            "minimize.race_s": busy("minimize_from_seeds"),
            "minimize.unconverged": calls("minimize_profile") - attr_count("minimize_profile", "converged"),
            "minimize.multistart_warnings": attr_count("minimize_profile", "warning"),
            "verify.el_residual_s": busy("el_residual"),
            "verify.first_integral_s": busy("first_integral_residual"),
            "verify.halfline_s": busy("halfline_identities"),
            "verify.jump_gap_s": busy("jump_gap"),
            "verify.decay_fit_s": busy("fit_decay_rate"),
            "verify.left_tail_s": busy("left_tail_report"),
            "verify.shooting_s": busy("shooting_check"),
            "verify.shooting_steps": sum(self.attrs[s[0]]["steps"] for s in by_func["_rk4_backward"]),
        })
        out.update(self._speed_metrics(spans))
        out["speed.seed_points_s"] = busy("seed_points")
        self_s = dict.fromkeys(LAYERS, 0.0)
        for s in spans:
            self_s[s[2]] += s[7]
        self_s["potential"] += counters["potential.callback_s"]
        out.update({f"{layer}.self_s": v for layer, v in self_s.items()})
        return out

    def _speed_metrics(self, spans) -> dict:
        """Probe accounting from the minimizer calls find_speed makes.

        In find_speed a warm probe calls minimize_profile; a cold probe, the
        cold cross-check of a nonnegative warm probe, and the final solve at
        c* call minimize_from_seeds.  A cross-check shares its warm probe's
        speed and follows it directly; the final solve is the last call.
        """
        out = {"speed.probes": 0, "speed.warm_probes": 0, "speed.cold_probes": 0,
               "speed.crosschecks": 0, "speed.crosscheck_win_ratio": 0.0,
               "speed.probe_s": 0.0, "speed.final_s": 0.0}
        wins = 0
        for root in (s for s in spans if s[1] == "find_speed@cli"):
            kids = sorted((s for s in spans if s[5] == root[0] and s[1] in _PROBE_SPANS),
                          key=lambda s: s[3])
            if not kids:
                continue
            *probes, final = kids
            out["speed.final_s"] += final[4] - final[3]
            out["speed.probe_s"] += sum(s[4] - s[3] for s in probes)
            prev = None
            for s in probes:
                a = self.attrs[s[0]]
                if s[1] == "minimize_profile@speed":
                    out["speed.warm_probes"] += 1
                elif prev is not None and prev[1] == "minimize_profile@speed" \
                        and self.attrs[prev[0]]["c"] == a["c"]:
                    out["speed.crosschecks"] += 1
                    wins += a["gamma"] < self.attrs[prev[0]]["gamma"]
                else:
                    out["speed.cold_probes"] += 1
                prev = s
        out["speed.probes"] = out["speed.warm_probes"] + out["speed.cold_probes"]
        if out["speed.crosschecks"]:
            out["speed.crosscheck_win_ratio"] = wins / out["speed.crosschecks"]
        return out

    def dump(self, path) -> None:
        """Write every span, then each rep's counters, as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                rec = dict(zip(("id", "name", "layer", "start", "end", "parent", "run", "self_s"), s))
                if s[0] in self.attrs:
                    rec["attrs"] = self.attrs[s[0]]
                fh.write(json.dumps(rec) + "\n")
            for run, counters in self.counters.items():
                fh.write(json.dumps({"run": run, "counters": counters}) + "\n")

"""Time-to-certified-wave benchmark for gradwave.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload scalar_speed --seed 0 --seconds 30 --trace 0

One invocation is one fresh interpreter and one process.  It generates the
workload's inputs from the seed, then calls ``gradwave.cli.main`` in process,
rep after rep, for about ``--seconds`` seconds: a rep starts only while it is
expected to end inside the window, and the first always runs.  Every rep must
pass the workload's correctness gate; a rep that fails it is counted as failed
and its times are dropped.

``--trace 0`` reports the end-to-end metrics (medians over the reps).  Each rep
is timed by one timer pair around ``main`` and one around the single
``find_speed``/``gamma_curve``/``run_verify`` call the CLI makes, nothing below.
These timers read the CPU time of this process (``time.process_time``): the
program is single-threaded, so that is its time to a result without the time
the host gave to other tenants, which on a shared machine swings wall times by
a quarter from run to run.  Wall times are printed too, on the line before the
result.  ``--trace 1`` alternates untraced and traced reps and reports the
per-layer metrics from the traced ones (see layertrace.py), plus the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
# setup samples wanted per run; cheap setups are repeated on their own to get them
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PHASES = {"find_speed": "solve", "gamma_curve": "solve", "run_verify": "certify"}
# a rep still running this long after the run started is stopped and counted as
# failed, so that every run ends well inside three minutes
DEADLINE_S = 150


class _SetupDone(Exception):
    """Raised at the first phase entry to stop a setup-only pass."""


class _Deadline(Exception):
    """Raised by the alarm when the run passes DEADLINE_S."""


def _on_alarm(signum, frame):
    raise _Deadline(f"rep stopped: the run passed {DEADLINE_S} s")


def _import_gradwave():
    """Import gradwave from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "gradwave" / "cli.py").is_file():
        raise SystemExit(f"error: no gradwave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gradwave.cli
    if Path(gradwave.cli.__file__).resolve().parent != SRC / "gradwave":
        raise SystemExit(f"error: imported gradwave from {gradwave.cli.__file__}, not {SRC}")
    return gradwave.cli


@contextlib.contextmanager
def _phase_timers(cli, marks: list, setup_only: bool = False):
    """One CPU timer pair around each solve/certify call the CLI makes."""
    saved = {name: getattr(cli, name) for name in PHASES}

    def timed(name, fn):
        def call(*args, **kwargs):
            start = process_time()
            if setup_only:
                marks.append((name, start, start))
                raise _SetupDone
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append((name, start, process_time()))
        return call

    try:
        for name, fn in saved.items():
            setattr(cli, name, timed(name, fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def _call_main(cli, argv):
    """Run ``wave <argv>`` quietly.

    Returns (wall seconds, CPU seconds, CPU clock at the start, error or None).
    """
    sink = io.StringIO()
    start = perf_counter()
    cpu_start = process_time()
    error = None
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except _SetupDone:
        rc = 0
    except _Deadline as err:
        rc, error = -1, str(err)
    except Exception as err:  # a crash is a failed rep, reported with its message
        rc, error = -1, f"{type(err).__name__}: {err}"
    cpu_end = process_time()
    end = perf_counter()
    if rc != 0 and error is None:
        lines = sink.getvalue().strip().splitlines()
        notes = [ln.strip() for ln in lines if "FAIL" in ln or "error" in ln] or lines[-1:]
        error = f"exit code {rc}" + (f" ({'; '.join(notes[:3])})" if notes else "")
    return end - start, cpu_end - cpu_start, cpu_start, error


def _rep(cli, workload, inputs, tracer=None, run=None):
    """One gated ``wave`` call.  Returns a dict of timings, or an error string."""
    shutil.rmtree(inputs.report.parent, ignore_errors=True)
    marks = []
    if tracer is not None:
        tracer.begin(run)
        with tracer.installed():
            wall_s, cpu_s, cpu_start, error = _call_main(cli, inputs.argv)
    else:
        with _phase_timers(cli, marks):
            wall_s, cpu_s, cpu_start, error = _call_main(cli, inputs.argv)
    if error is None:
        report = json.loads(inputs.report.read_text())
        error = workload.gate(report, inputs)
    if error is not None:
        return error
    out = {"wave_cpu_s": cpu_s, "wave_wall_s": wall_s}
    if tracer is None:
        phase = {"solve": 0.0, "certify": 0.0}
        for name, t0, t1 in marks:
            phase[PHASES[name]] += t1 - t0
        out["setup_s"] = marks[0][1] - cpu_start
        out["solve_s"] = phase["solve"]
        out["certify_s"] = phase["certify"]
        out["post_s"] = cpu_s - out["setup_s"] - phase["solve"] - phase["certify"]
        if inputs.oracle is not None:
            out["c_star_err"] = abs(report["result"]["c_star"] - inputs.oracle)
    return out


def _setup_pass(cli, inputs):
    """Run ``wave`` up to the first solve/certify entry; return its CPU seconds."""
    marks = []
    with _phase_timers(cli, marks, setup_only=True):
        _, _, cpu_start, error = _call_main(cli, inputs.argv)
    if error is not None or not marks:
        return None
    return marks[0][1] - cpu_start


def _median(values):
    return float(statistics.median(values)) if values else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # native thread pools read these when numpy loads, which happens just below
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    cli = _import_gradwave()
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = workload.make(work, args.seed)

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()

    plain, traced, errors = [], [], []
    kinds = (None, "traced") if tracer is not None else (None,)
    t_begin = perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    attempted = rounds = 0
    stopped = False
    while not stopped:
        rounds += 1
        for kind in kinds:
            attempted += 1
            run = f"{args.workload}-seed{args.seed}-rep{attempted}"
            res = _rep(cli, workload, inputs, tracer if kind else None, run)
            if isinstance(res, str):
                errors.append(res)
                stopped = res.startswith("rep stopped")
                if stopped:
                    break
            else:
                (traced if kind else plain).append((run, res))
        elapsed = perf_counter() - t_begin
        # a rep (or traced pair) starts only while it is expected to end in the window
        if elapsed + elapsed / rounds > args.seconds:
            break

    setups = [r["setup_s"] for _, r in plain]
    if tracer is None and setups and not stopped:
        while len(setups) < SETUP_SAMPLES:
            elapsed = perf_counter() - t_begin
            if elapsed + _median(setups) > args.seconds:
                break
            s = _setup_pass(cli, inputs)
            if s is None:
                break
            setups.append(s)
    signal.alarm(0)

    def med(key, rows):
        return _median([r[key] for _, r in rows])

    metrics = {}
    if tracer is None and plain:
        metrics = {
            "wave_cpu_s": {"value": med("wave_cpu_s", plain), "unit": "s"},
            "setup_s": {"value": _median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    elif tracer is not None and plain and traced:
        per_rep = [tracer.metrics(run) for run, _ in traced]
        layer = {k: _median([m[k] for m in per_rep]) for k in per_rep[0]}
        layer["cli.post_s"] = med("post_s", plain)
        layer["phase.solve_s"] = med("solve_s", plain)
        layer["phase.certify_s"] = med("certify_s", plain)
        layer["speed.c_star_err"] = (med("c_star_err", plain)
                                     if inputs.oracle is not None else 0.0)
        layer["trace.overhead_ratio"] = med("wave_wall_s", traced) / med("wave_wall_s", plain)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layer.items())}
        tracer.dump(work / "trace.jsonl")

    for err in errors:
        print(f"failed rep: {err}")
    print(json.dumps({"env": {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "os_threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "reps": len(plain), "traced_reps": len(traced), "setup_samples": len(setups),
        "rep_wave_cpu_s": [r["wave_cpu_s"] for _, r in plain],
        "rep_wave_wall_s": [r["wave_wall_s"] for _, r in plain],
        "c_star_err": [r["c_star_err"] for _, r in plain if "c_star_err" in r],
        "failed_ratio": len(errors) / attempted,
    }}))
    failed = len(errors)
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_err"):
        return "1"
    if name.endswith("_ratio") or name.endswith("per_iter"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())

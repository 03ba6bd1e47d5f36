"""The benchmark tracer wraps gradwave names from outside; each must exist.

It also reads attributes off the results of a few traced calls, so those
must keep existing too.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import gradwave.verify as verify
from gradwave import FunctionalParams, Grid, minimize_profile, segment_profile

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


@pytest.fixture
def layertrace(monkeypatch):
    # load the tracer by path without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(layertrace):
    missing = []
    for site, name, _layer in layertrace.TRACED:
        try:
            getattr(importlib.import_module(f"gradwave.{site}"), name)
        except AttributeError:
            missing.append(f"gradwave.{site}.{name}")
    assert layertrace.TRACED and not missing


def test_span_attributes_read_from_real_results(layertrace, scalar_spec, scalar_consts):
    grid = Grid.uniform(-25.0, 12.0, 0.05)
    params = FunctionalParams(c=0.7)
    args = (scalar_spec, scalar_consts, params, grid,
            segment_profile(scalar_spec, grid, scalar_consts.point_a), 1e-6)
    res = minimize_profile(*args)

    assert layertrace._attrs("minimize_profile@speed", args, res) == {
        "c": 0.7, "gamma": res.gamma}
    assert layertrace._attrs("minimize_profile@minimize", args, res) == {
        "converged": res.converged, "warning": False}

    y0 = np.array([1.0 - 1e-4, -1e-4])
    rk4_args = (scalar_spec, 0.6, 10.0, y0, 0.01, -10.0, [-3.0], [3.0])
    xs, ys = verify._rk4_backward(*rk4_args)
    assert layertrace._attrs("_rk4_backward@verify", rk4_args, (xs, ys)) == {
        "steps": xs.size - 1}

"""The benchmark tracer wraps gradwave names from outside; each must exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_every_traced_name_resolves(monkeypatch):
    # load the tracer by path without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)

    missing = []
    for site, name, _layer in layertrace.TRACED:
        try:
            getattr(importlib.import_module(f"gradwave.{site}"), name)
        except AttributeError:
            missing.append(f"gradwave.{site}.{name}")
    assert layertrace.TRACED and not missing

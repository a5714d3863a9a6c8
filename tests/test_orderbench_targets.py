"""The benchmark's tracer wraps library functions by name; each must exist."""

from __future__ import annotations

import importlib
from pathlib import Path

ORDERBENCH = Path(__file__).resolve().parent.parent / "orderbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ORDERBENCH))
    workload = importlib.import_module("workload")
    tracer = workload.make_tracer()  # raises if a wrapped name is gone
    tracer.install()
    tracer.uninstall()

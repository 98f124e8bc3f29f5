"""Every name the benchmark's tracer wraps must exist in the package.

bench/tracing.py swaps a span-recording wrapper in for each function named in
its tables; a name the package no longer has makes `bench/run.py --smoke` and
every traced benchmark run raise AttributeError.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from seqlab.report import ReportDocument

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_name_the_tracer_wraps_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # standard library imports only
    wrapped = [
        (module, attr)
        for table in (tracing.LAYERS, tracing.GENERATOR_LAYERS)
        for module, functions in table.items()
        for attr in functions
    ]
    missing = [f"{m}.{a}" for m, a in wrapped if not hasattr(importlib.import_module(m), a)]
    assert missing == []
    assert [attr for attr in tracing.REPORT_METHODS if attr not in vars(ReportDocument)] == []

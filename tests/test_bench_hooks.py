"""Every attribute the benchmark's tracer rebinds exists in the package.

``perfbench/tracing.py`` wraps package attributes by name while a traced
case runs (its ``HOOKS``); a renamed or deleted attribute would crash every
traced run.  The tracer imports only ``symtc``, so loading it here loads no
numpy.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (module, attr) for _, module, attr, _ in tracing.HOOKS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracing.HOOKS and missing == []

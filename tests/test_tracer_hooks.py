"""The package names the benchmark's span tracer wraps still exist.

`bench/tracing.py` looks each traced function up with `getattr` inside the
benchmark's worker process, and reads `fit`'s arguments by name. A deleted
or renamed hook would fail there, deep inside a subprocess; here it fails
with the hook's name. The tracer module is loaded from its file and left
unchanged.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import ile.classifier

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [f"{module}.{name}" for module, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("hook", traced_names())
def test_traced_hook_resolves_to_a_callable(hook):
    module, name = hook.split(".")
    target = getattr(importlib.import_module(f"ile.{module}"), name, None)
    assert callable(target), f"bench/tracing.py wraps ile.{hook}, which is gone"


def test_fit_keeps_the_arguments_the_tracer_counts():
    parameters = inspect.signature(ile.classifier.fit).parameters
    assert {"labelled", "config"} <= set(parameters)

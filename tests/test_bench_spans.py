"""The traced benchmark's layer table names only functions the engine has.

`bench/spans.py` wraps engine functions by their "module.function" labels,
so renaming or deleting one of them breaks the traced run.  The file is
loaded by path, without importing the rest of `bench/`.
"""

import importlib.util
import sys
from pathlib import Path

import tropinv.cli  # noqa: F401  (imports every engine module the spans name)

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_names_an_engine_function():
    layers = _load_spans().LAYERS
    labels = [label for functions in layers.values() for label in functions]
    assert labels
    missing = []
    for label in labels:
        module_name, function_name = label.split(".")
        module = sys.modules.get(f"tropinv.{module_name}")
        if not callable(getattr(module, function_name, None)):
            missing.append(label)
    assert missing == []

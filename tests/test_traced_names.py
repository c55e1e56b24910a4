"""The benchmark's tracer finds its layers by name: every `module.function`
that perfbench/spans.py traces or hooks must exist in tagcascade, so that
renaming a traced entry point fails here and not only in a traced run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist_in_tagcascade():
    spans = _load_spans()
    names = {f for funcs in spans.LAYERS.values() for f in funcs} | set(spans.HOOKS)
    assert names
    missing = []
    for name in sorted(names):
        module_name, func_name = name.split(".")
        module = importlib.import_module(f"tagcascade.{module_name}")
        fn = getattr(module, func_name, None)
        # The tracer matches a function by its __module__ and __name__.
        if not (callable(fn) and fn.__module__ == module.__name__ and fn.__name__ == func_name):
            missing.append(name)
    assert missing == []

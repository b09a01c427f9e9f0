"""The names the benchmark's tracer binds by lookup must exist in the package."""

import importlib
import importlib.util
from pathlib import Path

from opineq import core, harness, hmodule, transformer

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    spans = _load_spans()
    missing = [f"{module_name}.{fn}"
               for module_name, functions in spans.SPAN_TARGETS
               for fn in functions
               if not callable(getattr(importlib.import_module(module_name), fn, None))]
    assert missing == []


def test_tracer_hooks_exist():
    for owner, name in ((core, "as_matrix"), (transformer, "unvec"),
                        (hmodule.ModuleElement, "__post_init__"),
                        (harness._SearchState, "__init__"),
                        (harness._SearchState, "perturb")):
        assert callable(getattr(owner, name, None)), name

"""The names the benchmark's tracer binds by lookup must exist in the package,
and the margins its references pin must still come out."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from opineq import cli, core, errors, generators, harness, hmodule, transformer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def test_reference_margins_hold(monkeypatch, tmp_path):
    """Every workload's pinned verdicts and normalized margins, within the
    benchmark's REFERENCE_TOL, from the package already imported: the
    benchmark's own load_opineq would re-import it mid-session."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    api = SimpleNamespace(cli=cli, errors=errors, generators=generators, harness=harness)
    for name in workloads.WORKLOADS:
        count, problems = workloads.check_reference(api, name)
        assert count > 0 and problems == [], name

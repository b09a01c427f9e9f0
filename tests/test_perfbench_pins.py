"""The names the benchmark's tracer binds by lookup must exist in the package,
the margins its references pin must still come out, and no part of its verify
windows may raise in a run's worker."""

import importlib
import importlib.util
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

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


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the class is built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_reference_margins_hold(monkeypatch, tmp_path):
    """Every workload's pinned verdicts and normalized margins, within the
    benchmark's REFERENCE_TOL, from the package already imported: the
    benchmark's own load_opineq would re-import it mid-session."""
    workloads = _load_workloads(monkeypatch)
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    api = SimpleNamespace(cli=cli, errors=errors, generators=generators, harness=harness)
    for name in workloads.WORKLOADS:
        count, problems = workloads.check_reference(api, name)
        assert count > 0 and problems == [], name


@pytest.mark.parametrize("name", ["verify_default", "verify_dense"])
def test_no_part_of_a_benchmark_window_raises_in_the_strict_worker(name, monkeypatch, capsys):
    """A run's worker raises every floating-point event and warning, and the caller
    evaluates a part that raised again.  Both parts of a few windows of each verify
    workload's shape, evaluated so, raise nothing, so ordinary runs evaluate no part
    twice: a change that adds a warning or a floating-point event to them fails here."""
    workloads = _load_workloads(monkeypatch)
    wl, cells, sent, parts = workloads.WORKLOADS[name], harness._cells, [], []

    def strict(cfg, segments):
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = cells(cfg, segments)
            except Exception as exc:
                parts.append(f"{[check for check, _, _ in segments]}: {exc!r}")
                raise
        parts.append("ok")
        return out

    monkeypatch.setattr(harness, "_cells", strict)
    monkeypatch.setattr(harness, "_send", lambda request: sent.append(request) or True)
    monkeypatch.setattr(harness, "_receive", lambda: harness._cells(*sent.pop()))
    for block in range(4):
        seed = workloads.block_seed(workloads.REFERENCE_SEED, block)
        assert cli.cli_main(["verify", *wl.args, "--trials", str(wl.trials),
                             "--seed", str(seed)]) == 0
    assert parts == ["ok"] * 8 and sent == []
    capsys.readouterr()

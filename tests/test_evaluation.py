"""Hypotheses are enforced in one place, at evaluation."""

import dataclasses
import io
import json

import pytest

from opineq import checks
from opineq.core import ToleranceConfig
from opineq.errors import InvalidSpec, NotUnital
from opineq.generators import CHECK_NAMES, build_instance, evaluate_instance
from opineq.harness import DEFAULT_ALPHA_GRID, RunConfig, run_suite
from opineq.hmodule import GrussContext


def test_run_checks_each_hypothesis_once_per_evaluation(monkeypatch):
    calls = []
    normality = checks.HYPOTHESES["normality"]

    def counted(*args):
        calls.append(args)
        return normality(*args)

    monkeypatch.setitem(checks.HYPOTHESES, "normality", counted)
    summary = run_suite(RunConfig(trials=3, checks=("check_uin",), seed=4))
    assert summary.counts["check_uin"] == {"pass": 3, "fail": 0, "error": 0}
    assert len(calls) == 3


def test_rejected_instance_gives_one_error_line_per_grid_point():
    out = io.StringIO()
    cfg = RunConfig(trials=2, checks=("check_alpha",), dim=3,
                    tolerances=ToleranceConfig(tol_rel=0.0))
    summary = run_suite(cfg, out)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert summary.counts["check_alpha"]["error"] == len(lines) == 6
    assert [line["params"]["alpha"] for line in lines] == list(DEFAULT_ALPHA_GRID) * 2
    for line in lines:
        assert line["dim"] == 3 and line["len"] is not None and line["margin"] is None
        assert line["params"]["kind"] == "normal_commuting"
        assert line["params"]["error"].startswith("NotNormal: ")


def test_a_grid_override_on_an_axis_the_check_lacks_is_rejected():
    cases = (("check_alpha", {"pqr": (1.0, 1.0, 1.0)}), ("check_interp", {"alpha": 0.5}),
             ("check_cs", {"alpha": 0.5}), ("check_alpha", {"pqr": (2.0, 2.0, 2.0), "alpha": 1.0}))
    for name, override in cases:
        axis = "pqr" if "pqr" in override else "alpha"
        with pytest.raises(InvalidSpec, match=f"no {axis} grid axis"):
            evaluate_instance(build_instance(name, 1), **override)


def test_build_instance_checks_the_shape_for_every_recipe():
    for name in CHECK_NAMES:
        for dim, length in ((9, 2), (2, 7), (0, 2)):
            with pytest.raises(InvalidSpec):
                build_instance(name, 1, dim=dim, length=length)


def test_unit_reference_checked_at_the_run_tolerance():
    inst = build_instance("check_gruss", 3, dim=1, length=2)
    off = dataclasses.replace(inst, e=(1 + 1e-12) * inst.e)
    tight = ToleranceConfig(tol_rel=1e-14)
    with pytest.raises(NotUnital):
        evaluate_instance(off, tight)
    assert evaluate_instance(off).holds
    GrussContext(off.e)  # library callers keep the default tolerance
    with pytest.raises(NotUnital):
        GrussContext(off.e, tight)

"""Hypotheses are enforced in one place, at evaluation."""

import dataclasses
import io
import json

import pytest

from opineq import checks, harness
from opineq.checks import GRIDS
from opineq.core import ToleranceConfig
from opineq.errors import InvalidSpec, NotUnital, OpineqError
from opineq.generators import (
    CHECK_NAMES, build_instance, evaluate_group, evaluate_instance, trial_seed,
)
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


def _each_alone(cfg, check, spoil=lambda inst: inst):
    """Each trial's lines as evaluate_instance gives them, one point at a time."""
    out = []
    for index in range(cfg.trials):
        seed = trial_seed(cfg.seed, check, index)
        inst = spoil(build_instance(check, seed, dim=cfg.dim, length=cfg.length))
        for alpha in cfg.alpha_grid:
            try:
                at = dataclasses.replace(inst, params={**inst.params,
                                                       **GRIDS["alpha"].params((alpha,))})
                out.append(evaluate_instance(at, cfg.tolerances).to_json_dict())
            except OpineqError as exc:
                out.append(harness._error_line(check, inst, seed, exc, {"alpha": alpha}))
    return out


@pytest.mark.parametrize("spoiled", [False, True], ids=["tol0", "one_generic"])
def test_a_group_that_raises_enforces_each_instance_once(monkeypatch, spoiled):
    """At tol 0 every instance breaks normality: the group's call, then one
    per instance, 5 in all (13 if enforced per point).  With one generic
    instance at the default tolerance, the others are evaluated at every
    point without enforcing again: 5 calls, not 13."""
    tol = ToleranceConfig() if spoiled else ToleranceConfig(tol_rel=0.0)
    cfg = RunConfig(trials=4, checks=("check_alpha",), seed=1, dim=3, length=2, tolerances=tol)
    bad = trial_seed(cfg.seed, "check_alpha", 2)

    def spoil(inst):
        if not spoiled or inst.seed != bad:
            return inst
        generic = build_instance("check_alpha", bad, dim=3, length=2, drop=("normality",))
        return dataclasses.replace(generic, drop=())

    original = harness.build_group
    monkeypatch.setattr(harness, "build_group", lambda check, seeds, **kw: [
        spoil(inst) for inst in original(check, seeds, **kw)])
    calls = []
    normality = checks.HYPOTHESES["normality"]

    def counted(*args):
        calls.append(args)
        return normality(*args)

    monkeypatch.setitem(checks.HYPOTHESES, "normality", counted)
    out = io.StringIO()
    summary = run_suite(cfg, out)
    assert len(calls) == 5
    errors = 3 if spoiled else 12
    assert summary.counts["check_alpha"]["error"] == errors
    assert [json.loads(line) for line in out.getvalue().splitlines()] == _each_alone(
        cfg, "check_alpha", spoil)


def test_a_grid_point_of_the_wrong_length_is_rejected():
    inst = build_instance("check_interp", 1)
    for pqr in ((2.0, 2.0), (4.0, 4.0), (2.0, 2.0, 2.0, 2.0)):
        with pytest.raises(InvalidSpec, match="needs one number per key"):
            evaluate_group([inst], points=(pqr,))
        with pytest.raises(InvalidSpec, match="needs one number per key"):
            RunConfig(trials=1, checks=("check_interp",), exponent_grid=(pqr,))
    with pytest.raises(InvalidSpec, match="needs one number per key"):
        evaluate_group([build_instance("check_cs", 1)], points=((2.0,),))


@pytest.mark.parametrize("check, grid", [
    ("check_alpha", {"alpha_grid": ((0.5, 1.0),)}),
    ("check_alpha", {"alpha_grid": (True,)}),
    ("check_interp", {"exponent_grid": (("a", 2.0, 2.0),)}),
    ("check_defect", {"exponent_grid": ((2.0, False, 2.0),)}),
], ids=["alpha_tuple", "alpha_bool", "p_string", "q_bool"])
def test_a_grid_entry_that_is_not_a_real_number_is_rejected(check, grid):
    with pytest.raises(InvalidSpec, match="grid parameters must be real numbers"):
        RunConfig(trials=1, checks=(check,), **grid)


@pytest.mark.parametrize("grid", [
    {"exponent_grid": (2.0,)},
    {"exponent_grid": 2.0},
    {"alpha_grid": 0.5},
    {"alpha_grid": None},
], ids=["pqr_of_numbers", "pqr_number", "alpha_number", "alpha_none"])
def test_a_grid_that_is_not_a_sequence_of_points_is_rejected(grid):
    with pytest.raises(InvalidSpec, match="grid must be a sequence"):
        RunConfig(trials=1, checks=("check_interp", "check_alpha"), **grid)


def test_integer_grid_entries_give_the_lines_of_their_floats():
    def lines(**grid):
        out = io.StringIO()
        run_suite(RunConfig(trials=2, checks=("check_interp", "check_alpha"), seed=1, **grid), out)
        return out.getvalue()

    ints = lines(exponent_grid=((2, 2, 2), (4, 4, 4)), alpha_grid=(1, 2))
    assert ints == lines(exponent_grid=((2.0, 2.0, 2.0), (4.0, 4.0, 4.0)), alpha_grid=(1.0, 2.0))
    assert '"p": 2.0' in ints and '"alpha": 1.0' in ints

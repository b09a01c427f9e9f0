"""Generators, batch runner, counterexample search: determinism and routing."""

import dataclasses
import io
import json

import numpy as np
import pytest

from opineq import harness
from opineq.checks import GRIDS
from opineq.core import ToleranceConfig, op_norm
from opineq.errors import InvalidSpec, NotNormal, OpineqError, UnknownCheck
from opineq.generators import (
    CHECK_NAMES,
    CheckInstance,
    GeneratorSpec,
    assert_hypotheses,
    build_instance,
    evaluate_instance,
    gen_element,
    instance_from_json,
    trial_seed,
)
from opineq.harness import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_EXPONENT_GRID,
    RunConfig,
    run_suite,
    search_counterexample,
)
from opineq.hmodule import element_to_json, inner, is_normal, module_norm, right_mul
from opineq.reference import haar_unitary

JSON_KEYS = {"name", "seed", "dim", "len", "params", "lhs", "rhs", "margin",
             "holds", "norm_detail"}


def test_generator_spec_validation():
    good = dict(seed=1, dim=2, length=2, kind="generic")
    GeneratorSpec(**good)
    for bad in (
        dict(good, seed=-1),
        dict(good, dim=0),
        dict(good, dim=9),
        dict(good, length=0),
        dict(good, length=7),
        dict(good, kind="bogus"),
        dict(good, contraction=1.0),
        dict(good, contraction=0.0),
        dict(good, weights_mode="exotic"),
    ):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(**bad)


def test_gen_element_kinds():
    normal = gen_element(GeneratorSpec(3, 3, 2, "normal_commuting"))
    ok, defect = is_normal(normal)
    assert ok and defect <= 1e-10
    contr = gen_element(GeneratorSpec(4, 3, 2, "contractive", contraction=0.75))
    assert op_norm(inner(contr, contr)) == pytest.approx(0.75 ** 2, abs=1e-10)
    e = gen_element(GeneratorSpec(5, 3, 2, "gruss"))
    assert op_norm(inner(e, e) - np.eye(3)) <= 1e-12
    for part in e.parts:
        lam = part[0, 0]
        assert np.allclose(part, lam * np.eye(3))
    tiny = gen_element(GeneratorSpec(6, 1, 1, "generic"))
    assert tiny.parts[0].shape == (1, 1)


def test_gen_element_weights_and_determinism():
    uni = gen_element(GeneratorSpec(7, 2, 3, "generic", weights_mode="uniform"))
    assert uni.ctx.weights == (1.0, 1.0, 1.0)
    rnd = gen_element(GeneratorSpec(7, 2, 3, "generic", weights_mode="random"))
    assert all(0.1 <= w <= 2.0 for w in rnd.ctx.weights)
    again = gen_element(GeneratorSpec(7, 2, 3, "generic", weights_mode="random"))
    assert rnd.ctx.weights == again.ctx.weights
    assert all(np.array_equal(p, q) for p, q in zip(rnd.parts, again.parts))


def test_gen_haar_unitary():
    u = haar_unitary(11, 4)
    assert op_norm(u.conj().T @ u - np.eye(4)) <= 1e-12
    assert np.array_equal(u, haar_unitary(11, 4))
    scalar = haar_unitary(2, 1)
    assert abs(abs(scalar[0, 0]) - 1.0) <= 1e-12
    with pytest.raises(InvalidSpec):
        haar_unitary(1, 0)


def test_trial_seed_derivation():
    a = trial_seed(0, "check_cs", 0)
    assert a == trial_seed(0, "check_cs", 0)
    assert a != trial_seed(0, "check_cs", 1)
    assert a != trial_seed(0, "check_basic", 0)
    assert a != trial_seed(1, "check_cs", 0)
    assert 0 <= a < 2 ** 64


def test_build_instance_satisfies_hypotheses():
    for check in CHECK_NAMES:
        for seed in range(4):
            inst = build_instance(check, trial_seed(17, check, seed))
            assert_hypotheses(inst)  # must not raise
            assert inst.check == check and inst.seed is not None


def test_build_instance_recipe_targets():
    inst = build_instance("check_interp", 5, dim=3, length=2)
    assert module_norm(inst.x) == pytest.approx(1.0, abs=1e-9)
    assert module_norm(inst.y) == pytest.approx(1.0, abs=1e-9)
    inst = build_instance("check_naopaka", 5, dim=3, length=2)
    assert module_norm(inst.x) == pytest.approx(0.999, abs=1e-9)
    inst = build_instance("check_gruss", 5, dim=2, length=2)
    lo_x, hi_x, _, _ = inst.ball
    center = right_mul(inst.e, (hi_x + lo_x) / 2 * np.eye(2))
    assert module_norm(inst.x - center) <= (hi_x - lo_x) / 2 + 1e-10


def test_build_instance_determinism_and_roundtrip():
    one = build_instance("check_gruss", 99, dim=2, length=2)
    two = build_instance("check_gruss", 99, dim=2, length=2)
    assert one.to_json() == two.to_json()
    text = json.dumps(one.to_json(), sort_keys=True)
    back = instance_from_json(json.loads(text))
    assert all(np.array_equal(p, q) for p, q in zip(back.x.parts, one.x.parts))
    assert all(np.array_equal(p, q) for p, q in zip(back.e.parts, one.e.parts))
    assert np.array_equal(back.a, one.a)
    assert back.ball == one.ball
    rep_a = evaluate_instance(one)
    rep_b = evaluate_instance(back)
    assert rep_a.margin == rep_b.margin


def test_build_instance_drop_and_overrides():
    inst = build_instance("check_uin", 3, drop=("normality",))
    assert inst.kind == "generic" and inst.drop == ("normality",)
    assert inst.digest()["params"]["drop"] == ["normality"]
    rep = evaluate_instance(inst)  # normality is not enforced
    assert isinstance(rep.holds, bool)
    inst = build_instance("check_interp", 3, dim=3, length=2)
    inst = dataclasses.replace(inst, params={**inst.params, **GRIDS["pqr"].params((3.0, 2.0, 6.0))})
    rep = evaluate_instance(inst)
    assert rep.instance["params"]["p"] == 3.0
    assert rep.instance["params"]["r"] == 6.0
    inst = build_instance("check_alpha", 3, dim=3, length=2)
    inst = dataclasses.replace(inst, params={**inst.params, **GRIDS["alpha"].params((0.5,))})
    rep = evaluate_instance(inst)
    assert rep.instance["params"]["alpha"] == 0.5
    with pytest.raises(UnknownCheck):
        build_instance("check_bogus", 0)
    with pytest.raises(UnknownCheck):
        evaluate_instance(CheckInstance(check="nope", seed=0, kind="generic",
                                        x=inst.x, y=inst.y))


@pytest.mark.parametrize("size", [{"dim": 2.7}, {"dim": "2"}, {"length": True}, {"length": 1.5}],
                         ids=["dim_2.7", "dim_string", "len_bool", "len_1.5"])
def test_sizes_are_integers_on_every_library_route(size):
    for call in (lambda: build_instance("check_cs", 1, **size),
                 lambda: search_counterexample("check_cs", budget=3, **size),
                 lambda: RunConfig(trials=1, checks=("check_cs",), **size)):
        with pytest.raises(InvalidSpec, match="must be an integer"):
            call()


@pytest.mark.parametrize("field, value", [("trials", 2.5), ("trials", True), ("trials", "2"),
                                          ("seed", 1.5), ("seed", None)])
def test_run_counts_are_integers(field, value):
    with pytest.raises(InvalidSpec, match=f"{field} must be an integer"):
        RunConfig(**{"trials": 1, "checks": ("check_cs",), field: value})


def test_generator_spec_takes_integers_by_the_one_rule():
    for field, value in (("seed", 1.5), ("dim", 2.7), ("length", True)):
        with pytest.raises(InvalidSpec, match="must be an integer"):
            GeneratorSpec(**{"seed": 1, "dim": 2, "length": 2, "kind": "generic", field: value})
    spec = GeneratorSpec(7.0, 3.0, 2.0, "generic")
    assert (spec.seed, spec.dim, spec.length) == (7, 3, 2)
    twin = gen_element(GeneratorSpec(7, 3, 2, "generic"))
    assert element_to_json(gen_element(spec)) == element_to_json(twin)


def test_integral_floats_run_as_their_ints():
    lines = []
    for number in (float, int):
        out = io.StringIO()
        run_suite(RunConfig(trials=number(2), checks=("check_cs",), seed=number(3),
                            dim=number(2), length=number(1)), out)
        lines.append(out.getvalue())
    assert lines[0] == lines[1] and len(lines[0].splitlines()) == 2


def test_run_config_validation():
    good = dict(trials=2, checks=("check_cs",))
    RunConfig(**good)
    with pytest.raises(InvalidSpec):
        RunConfig(trials=0, checks=("check_cs",))
    with pytest.raises(InvalidSpec):
        RunConfig(trials=1, checks=())
    with pytest.raises(UnknownCheck):
        RunConfig(trials=1, checks=("check_nope",))
    with pytest.raises(InvalidSpec):
        RunConfig(trials=1, checks=("check_cs",), exponent_grid=((2, 3, 3),))
    with pytest.raises(InvalidSpec):
        RunConfig(trials=1, checks=("check_cs",), alpha_grid=(-1.0,))


def test_run_suite_counts_and_determinism():
    cfg = RunConfig(trials=4, checks=("check_cs", "check_interp"), seed=42)
    out1, out2 = io.StringIO(), io.StringIO()
    s1 = run_suite(cfg, out1)
    s2 = run_suite(cfg, out2)
    assert out1.getvalue() == out2.getvalue()
    assert s1.counts["check_cs"] == {"pass": 4, "fail": 0, "error": 0}
    # interp evaluates every instance at all four default exponent triples
    assert s1.counts["check_interp"]["pass"] == 4 * len(DEFAULT_EXPONENT_GRID)
    assert s1.lines == 4 + 4 * len(DEFAULT_EXPONENT_GRID)
    assert not s1.failed
    for line in out1.getvalue().splitlines():
        obj = json.loads(line)
        assert set(obj) == JSON_KEYS


def test_run_suite_alpha_grid():
    cfg = RunConfig(trials=2, checks=("check_alpha",), seed=9, dim=2, length=2,
                    alpha_grid=(1.0, 2.0))
    out = io.StringIO()
    summary = run_suite(cfg, out)
    assert summary.counts["check_alpha"]["pass"] == 2 * 2
    alphas = {json.loads(l)["params"]["alpha"] for l in out.getvalue().splitlines()}
    assert alphas == {1.0, 2.0}


def test_run_suite_error_routing():
    # a zero tolerance rejects the roundoff normality defect of generated
    # normal tuples in the normality-gated check: error lines, never failures
    cfg = RunConfig(trials=5, checks=("check_uin",), seed=1, dim=3,
                    tolerances=ToleranceConfig(tol_rel=0.0))
    out = io.StringIO()
    summary = run_suite(cfg, out)
    slot = summary.counts["check_uin"]
    assert slot["fail"] == 0 and slot["error"] >= 1
    assert slot["pass"] + slot["error"] == 5
    error_lines = [json.loads(l) for l in out.getvalue().splitlines()
                   if json.loads(l)["holds"] is None]
    assert error_lines, "expected at least one error line"
    for obj in error_lines:
        assert obj["margin"] is None
        assert obj["params"]["error"].startswith("NotNormal")
        assert set(obj) == JSON_KEYS


def test_run_suite_file_output(tmp_path):
    path = tmp_path / "reports.jsonl"
    cfg = RunConfig(trials=3, checks=("check_hs",), seed=8, output_path=str(path))
    summary = run_suite(cfg)
    lines = path.read_text().splitlines()
    assert len(lines) == summary.lines == 3
    from opineq.errors import IOFailure
    bad = RunConfig(trials=1, checks=("check_hs",),
                    output_path=str(tmp_path / "missing" / "x.jsonl"))
    with pytest.raises(IOFailure):
        run_suite(bad)


def test_search_respects_budget_and_stays_positive():
    result = search_counterexample("check_basic", drop=("normality",),
                                   budget=120, seed=3, dim=2, length=2)
    assert result.evaluations == 120
    # the bound needs no normality, so no violation should surface
    assert result.report.margin / result.report.scale >= -1e-8
    # the instance replays to the identical margin
    rep = evaluate_instance(result.instance)
    assert abs(rep.margin - result.report.margin) <= 1e-12
    text = json.dumps(result.instance.to_json(), sort_keys=True)
    rep2 = evaluate_instance(instance_from_json(json.loads(text)))
    assert abs(rep2.margin - result.report.margin) <= 1e-12


def test_search_finds_violation_without_normality():
    # dropping normality on the unitarily-invariant bound exposes genuine
    # violations quickly
    result = search_counterexample("check_uin", drop=("normality",),
                                   budget=300, seed=7)
    assert result.report.margin / result.report.scale < -1e-6
    assert result.report.holds is False
    assert result.instance.drop == ("normality",)
    rep = evaluate_instance(result.instance)
    assert abs(rep.margin - result.report.margin) <= 1e-12


def test_search_rejects_unsupported_checks():
    with pytest.raises(UnknownCheck):
        search_counterexample("check_gruss")
    with pytest.raises(UnknownCheck):
        search_counterexample("check_bogus")


def test_default_grids_satisfy_relations():
    for p, q, r in DEFAULT_EXPONENT_GRID:
        assert min(p, q, r) > 1
        assert abs(1 / q + 1 / r - 2 / p) <= 1e-12
    assert all(a > 0 for a in DEFAULT_ALPHA_GRID)


def test_search_with_no_evaluable_candidate_says_so(monkeypatch):
    def refuse(inst, tol=None):
        raise NotNormal("refused")

    monkeypatch.setattr(harness, "evaluate_instance", refuse)
    with pytest.raises(OpineqError, match="search on check_cs produced no evaluable instance"):
        search_counterexample("check_cs", budget=12, seed=1)

"""The check registry: derived views, shared hypothesis predicates, dispatch."""

import dataclasses
import inspect
import json
import math
import sys

import numpy as np
import pytest

from opineq import checks
from opineq.checks import (
    CHECK_ANCHORS, CHECK_NAMES, CHECK_SPECS, GRIDS, HYPOTHESES, Batch, validate_pqr,
)
from opineq.errors import BadExponents, InvalidSpec, NotContractive, NotNormal
from opineq.generators import (
    RECIPES, InstanceDraw, assert_hypotheses, build_instance, evaluate_instance,
)
from opineq.harness import SEARCHABLE, RunConfig, search_counterexample
from opineq.hmodule import ModuleElement, is_normal, module_norm
from opineq.transformer import ElementaryOperator, vectorize


def test_registry_rows_match_their_functions():
    assert tuple(CHECK_ANCHORS) == CHECK_NAMES == tuple(CHECK_SPECS)
    assert SEARCHABLE == ("check_cs", "check_basic", "check_hs", "check_refinement",
                          "check_uin", "check_interp", "check_naopaka", "check_alpha",
                          "check_defect", "check_radius_submult")
    grid_args = {None: [], "pqr": ["p", "q", "r"], "alpha": ["alpha"]}
    for name, spec in CHECK_SPECS.items():
        assert spec.name == name
        assert set(spec.hypotheses) <= set(HYPOTHESES)
        params = inspect.signature(getattr(checks, name)).parameters
        positional = [p for p, v in params.items() if v.kind is v.POSITIONAL_OR_KEYWORD]
        assert positional == ["x", "y", *spec.operands, *grid_args[spec.grid]], name
        assert ("drop" in params) == bool(spec.hypotheses), name


def _batch_of(inst, points, ball=None):
    """inst at each of ``points`` as a batch of one instance."""
    return Batch.of([{"check": inst.check, "drop": inst.drop, "x": inst.x, "y": inst.y,
                      "a": inst.a, "e": inst.e, "ball": ball, "digest": inst.digest()}], points)


def test_a_kernel_takes_only_its_batch_and_gives_one_pair_per_report():
    for name, spec in CHECK_SPECS.items():
        assert len(inspect.signature(spec.kernel).parameters) == 1, name
        inst = build_instance(name, 5, dim=3, length=2)
        points = GRIDS[spec.grid].points
        rows = spec.kernel(_batch_of(inst, points, inst.ball))
        assert len(rows) == len(points), name
        assert all(isinstance(row, tuple) and len(row) == 2 for row in rows), name


def test_run_batch_records_a_gruss_batch_ball():
    inst = build_instance("check_gruss", 5, dim=3, length=2)
    assert inst.ball is not None
    (bare,) = checks.run_batch(_batch_of(inst, ((),)))
    assert "ball" in bare.instance["params"] and bare.instance["params"]["ball"] is None
    (balled,) = checks.run_batch(_batch_of(inst, ((),), inst.ball))
    assert balled.instance["params"]["ball"] == list(inst.ball)
    assert set(balled.norm_detail) > set(bare.norm_detail)


def test_every_recipe_is_a_used_row():
    assert {spec.recipe for spec in CHECK_SPECS.values()} == set(RECIPES)


def test_searchable_checks_are_those_whose_row_has_a_search_draw():
    assert set(SEARCHABLE) == {name for name, spec in CHECK_SPECS.items()
                               if RECIPES[spec.recipe].search is not None}
    assert all(RECIPES[CHECK_SPECS[name].recipe].search is InstanceDraw for name in SEARCHABLE)


def test_the_build_reads_the_recipe_row(monkeypatch):
    assert module_norm(build_instance("check_interp", 3, dim=2, length=2).x) \
        == pytest.approx(1.0, abs=1e-12)
    monkeypatch.setitem(RECIPES, "unit_pair", RECIPES["unit_pair"]._replace(target=0.5))
    inst = build_instance("check_interp", 3, dim=2, length=2)
    assert module_norm(inst.x) == pytest.approx(0.5, abs=1e-12)
    assert module_norm(inst.y) == pytest.approx(0.5, abs=1e-12)


def test_recorded_kinds():
    # check_interp draws generic elements but records "normal_commuting"
    kinds = {name: build_instance(name, 3, dim=2, length=2).kind for name in CHECK_NAMES}
    assert kinds == {name: spec.kind for name, spec in CHECK_SPECS.items()}
    dropped = build_instance("check_defect", 3, dim=2, length=2, drop=("normality",))
    assert dropped.kind == "generic"


def _non_normal_unit(ctx):
    parts = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.3, 0.0], [0.2, 0.1]]))
    x = ModuleElement(ctx, parts)
    return (1.0 / module_norm(x)) * x


def test_drop_removes_only_the_named_hypotheses():
    inst = build_instance("check_naopaka", 5, dim=2, length=2, drop=("contraction",))
    assert module_norm(inst.x) == pytest.approx(1.0)
    evaluate_instance(inst)  # contraction is dropped: norm 1 is allowed
    x = _non_normal_unit(inst.x.ctx)
    assert not is_normal(x)[0]
    with pytest.raises(NotNormal):
        evaluate_instance(dataclasses.replace(inst, x=x))
    both = dataclasses.replace(inst, x=x, drop=("normality", "contraction"))
    assert math.isfinite(evaluate_instance(both).margin)


def test_drop_normality_keeps_contraction():
    inst = build_instance("check_naopaka", 5, dim=2, length=2, drop=("normality",))
    too_big = dataclasses.replace(inst, x=(1.0 / module_norm(inst.x)) * inst.x)
    with pytest.raises(NotContractive):
        evaluate_instance(too_big)


def test_guard_and_evaluation_share_the_contraction_rule():
    # ||<x,x>|| = 0.9998**2 lies between 1 - 1e-3 and 1 - 1e-6
    inst = build_instance("check_defect", 4, dim=2, length=2, contraction=0.9998)
    with pytest.raises(InvalidSpec, match="top eigenvalue"):
        assert_hypotheses(inst)
    with pytest.raises(NotContractive):
        evaluate_instance(inst)


def test_one_exponent_and_alpha_rule():
    assert issubclass(BadExponents, InvalidSpec)
    for bad in ((math.nan,) * 3, (math.inf,) * 3, (2.0, 3.0, 3.0), (1.0, 2.0, 2.0)):
        with pytest.raises(BadExponents):
            validate_pqr(*bad)
        with pytest.raises(BadExponents):
            RunConfig(trials=1, checks=("check_interp",), grids={"pqr": (bad,)})
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidSpec):
            RunConfig(trials=1, checks=("check_alpha",), grids={"alpha": ((bad,),)})


def test_check_dispatch_is_late_bound(monkeypatch):
    """Rebinding a check function wherever opineq binds it, as a tracer
    does, must reach every evaluation."""
    calls = dict.fromkeys(CHECK_NAMES, 0)
    wrappers = {}
    for name in CHECK_NAMES:
        original = getattr(checks, name)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        wrappers[id(original)] = wrapper
    for module_name, module in list(sys.modules.items()):
        if module_name == "opineq" or module_name.startswith("opineq."):
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, key, wrappers[id(value)])
    for name in CHECK_NAMES:
        evaluate_instance(build_instance(name, 7, dim=2, length=2))
    assert calls == dict.fromkeys(CHECK_NAMES, 1)


def test_records_refuse_assignment():
    """The plain records are named tuples: immutable, and no dataclasses."""
    inst = build_instance("check_cs", 2, dim=2, length=2)
    records = [
        CHECK_SPECS["check_cs"], GRIDS["pqr"], evaluate_instance(inst),
        Batch.of([{"check": "check_cs", "x": inst.x, "y": inst.y}], ((),)),
        InstanceDraw.for_search("check_uin", np.random.default_rng(0), 2, 2, ()),
        search_counterexample("check_cs", budget=1, dim=2, length=2),
        vectorize(ElementaryOperator(inst.x, inst.y)),
    ]
    for record in records:
        name = type(record).__name__
        assert isinstance(record, tuple) and not dataclasses.is_dataclass(record), name
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)


def test_each_check_function_is_derived_from_its_row():
    for name, spec in CHECK_SPECS.items():
        fn = getattr(checks, name)
        assert fn.__name__ == fn.__qualname__ == name
        assert fn.__module__ == "opineq.checks"
        assert fn.__doc__ == spec.kernel.__doc__ and fn.__doc__.strip(), name


def test_check_functions_refuse_what_their_rows_do_not_take():
    for name, spec in CHECK_SPECS.items():
        fn, inst = getattr(checks, name), build_instance(name, 3, dim=2, length=2)
        args = [inst.x, inst.y, *(getattr(inst, op) for op in spec.operands),
                *GRIDS[spec.grid].default]
        assert fn(*args).name == name
        with pytest.raises(TypeError):
            fn(inst.x)
        if spec.operands:
            with pytest.raises(TypeError):
                fn(inst.x, inst.y)
        if spec.grid:
            with pytest.raises(TypeError):
                fn(*args[:-1])
        if not spec.hypotheses:
            with pytest.raises(TypeError):
                fn(*args, drop=())


def test_check_functions_take_their_optional_ball_and_grid_keys_by_keyword():
    def same(r1, r2):
        return json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())

    g = build_instance("check_gruss", 3, dim=2, length=2)
    assert same(checks.check_gruss(g.x, g.y, g.a, g.e), checks.check_gruss(g.x, g.y, g.a, g.e, None))
    assert same(checks.check_gruss(g.x, g.y, g.a, g.e),
                checks.check_gruss(g.x, g.y, g.a, g.e, ball=None))
    al = build_instance("check_alpha", 3, dim=2, length=2)
    assert same(checks.check_alpha(al.x, al.y, al.a, alpha=0.5),
                checks.check_alpha(al.x, al.y, al.a, 0.5))

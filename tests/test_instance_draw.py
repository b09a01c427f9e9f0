"""One instance parameterization: generator and search build through
one stacked materialize; build options and drop names are validated once."""

import json
import re

import numpy as np
import pytest

from opineq import generators
from opineq.checks import CHECK_SPECS, validate_drop
from opineq.errors import InvalidSpec, UnknownCheck
from opineq.generators import (
    InstanceDraw, build_instance, evaluate_instance, instance_from_json,
)
from opineq.harness import search_counterexample

PAIR_RECIPES = ("pair", "unit_pair", "contractive_pair")


@pytest.fixture
def materialize_calls(monkeypatch):
    calls = []
    original = generators.materialize_group

    def counted(draws):
        calls.extend(draw.check for draw in draws)
        return original(draws)

    monkeypatch.setattr(generators, "materialize_group", counted)
    return calls


@pytest.mark.parametrize("recipe", PAIR_RECIPES)
def test_build_instance_of_each_pair_recipe_materializes_a_draw(recipe, materialize_calls):
    check = next(name for name, spec in CHECK_SPECS.items() if spec.recipe == recipe)
    inst = build_instance(check, 4, dim=2, length=2)
    assert materialize_calls == [check]
    assert inst.check == check and inst.seed == 4


def test_gruss_recipe_does_not_materialize_a_draw(materialize_calls):
    build_instance("check_gruss", 4, dim=2, length=2)
    assert materialize_calls == []


def test_search_materializes_one_draw_per_evaluation(materialize_calls):
    result = search_counterexample("check_naopaka", drop=("normality",), budget=20, seed=1)
    assert result.evaluations == 20
    assert materialize_calls == ["check_naopaka"] * 20


def test_search_draw_refuses_a_recipe_without_one():
    rng = np.random.default_rng(0)
    with pytest.raises(UnknownCheck, match="search does not support 'check_gruss'"):
        InstanceDraw.for_search("check_gruss", rng, 2, 2, ())
    for check in ("check_nope", ["x"]):
        with pytest.raises(UnknownCheck, match=re.escape(f"no check named {check!r}")):
            InstanceDraw.for_search(check, rng, 2, 2, ())


def test_perturbed_draw_moves_one_field_and_keeps_the_rest():
    rng = np.random.default_rng(0)
    draw = InstanceDraw.for_search("check_uin", rng, 3, 2, ())
    assert draw.frames[0] is not None and draw.px.shape == (2, 3)
    step = draw.perturbed(rng, 0.1)
    moved = [name for name in ("px", "py", "a")
             if not np.array_equal(getattr(step, name), getattr(draw, name))]
    assert len(moved) == 1
    assert step.frames is draw.frames and step.weights == draw.weights


@pytest.mark.parametrize("options, needle", [
    (dict(weights_mode="exotic"), "unknown weights mode 'exotic'"),
    (dict(contraction=1.5), "contraction must lie in (0, 1)"),
    (dict(contraction=None), "contraction must lie in (0, 1)"),
    (dict(weights_mode=np.array(["uniform", "random"])), "unknown weights mode"),
])
@pytest.mark.parametrize("check", ["check_gruss", "check_cs"])
def test_build_options_are_validated_for_every_recipe(check, options, needle):
    with pytest.raises(InvalidSpec, match=re.escape(needle)):
        build_instance(check, 1, **options)


@pytest.mark.parametrize("drop", ["normality", ("normalty",), ["contraction", "bogus"],
                                  (["normality"],)])
def test_validate_drop_rejects_bare_strings_and_unknown_names(drop):
    with pytest.raises(InvalidSpec):
        validate_drop(drop)


def test_validate_drop_accepts_hypothesis_names():
    assert validate_drop(["normality", "contraction"]) == ("normality", "contraction")
    assert validate_drop(()) == ()


@pytest.mark.parametrize("drop", ["normality", ("normalty",)])
def test_build_and_search_reject_bad_drop_names(drop):
    with pytest.raises(InvalidSpec):
        build_instance("check_uin", 3, drop=drop)
    with pytest.raises(InvalidSpec):
        search_counterexample("check_uin", drop=drop, budget=20, seed=7)


def test_a_hypothesis_dropped_twice_is_refused_on_every_route():
    twice = ("normality", "normality")
    for route in (lambda: validate_drop(twice), lambda: validate_drop(list(twice)),
                  lambda: build_instance("check_uin", 3, drop=twice),
                  lambda: search_counterexample("check_uin", drop=twice, budget=20, seed=7)):
        with pytest.raises(InvalidSpec, match="'normality' is dropped twice"):
            route()
    obj = build_instance("check_naopaka", 3, dim=2, length=2, drop=("normality",)).to_json()
    obj["drop"] = ["normality", "contraction", "normality"]
    with pytest.raises(InvalidSpec, match="malformed instance.*dropped twice"):
        instance_from_json(obj)


@pytest.mark.parametrize("drop", ["normality", ["normalty"]])
def test_instance_files_with_bad_drop_names_are_malformed(drop):
    obj = json.loads(json.dumps(build_instance("check_uin", 3, dim=2, length=2).to_json()))
    obj["drop"] = drop
    with pytest.raises(InvalidSpec, match="malformed instance"):
        instance_from_json(obj)


def test_dropped_normality_is_recorded_by_name():
    inst = build_instance("check_uin", 3, dim=2, length=2, drop=["normality"])
    assert inst.drop == ("normality",)
    back = instance_from_json(json.loads(json.dumps(inst.to_json())))
    assert back.drop == ("normality",)
    assert evaluate_instance(back).margin == evaluate_instance(inst).margin

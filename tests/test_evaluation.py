"""Hypotheses are enforced in one place, at evaluation."""

import dataclasses
import io
import json

import numpy as np
import pytest

from opineq import checks, generators, harness, hmodule
from opineq.checks import GRIDS
from opineq.core import DEFAULT_TOL
from opineq.errors import (
    BallViolated, InvalidSpec, NotNormal, NotUnital, OpineqError, raise_first,
)
from opineq.generators import (
    CHECK_NAMES, assert_hypotheses, build_group, build_instance, evaluate_each, evaluate_instance,
    instance_from_json, trial_seed,
)
from opineq.harness import RunConfig, run_suite
from opineq.hmodule import ModuleContext, ModuleElement


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


def test_run_batch_enforces_the_preconditions_its_batch_keeps():
    inst = build_instance("check_uin", 3, dim=3, length=2, drop=("normality",))

    def batch(drop):
        return checks.Batch.of([{"check": "check_uin", "drop": drop, "x": inst.x, "y": inst.y,
                                 "a": inst.a, "digest": inst.digest()}], ((),))

    kept = batch(())
    (expected,) = checks.HYPOTHESES["normality"](kept.x, kept.y, DEFAULT_TOL)
    (error,) = checks.run_batch(kept)
    assert isinstance(expected, NotNormal) and isinstance(error, NotNormal)
    assert str(error) == str(expected)
    (report,) = checks.run_batch(batch(("normality",)))
    assert report.to_json_dict() == evaluate_each([inst], DEFAULT_TOL, ((),))[0][0].to_json_dict()


def test_rejected_instance_gives_one_error_line_per_grid_point():
    out = io.StringIO()
    cfg = RunConfig(trials=2, checks=("check_alpha",), dim=3, tol=0.0)
    summary = run_suite(cfg, out)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert summary.counts["check_alpha"]["error"] == len(lines) == 6
    assert [(line["params"]["alpha"],) for line in lines] == list(GRIDS["alpha"].points) * 2
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
    with pytest.raises(NotUnital):
        evaluate_instance(off, 1e-14)
    assert evaluate_instance(off).holds


def test_gruss_evaluation_checks_the_unit_reference_once(monkeypatch):
    calls = []
    original = hmodule.require_units

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(hmodule, "require_units", counted)
    monkeypatch.setattr(checks, "require_units", counted)
    assert evaluate_instance(build_instance("check_gruss", 11, dim=3, length=2)).holds
    assert len(calls) == 1


def _mixed_groups():
    generic = build_instance("check_uin", 5, dim=2, length=2, drop=("normality",))
    return {"drop": [generic, dataclasses.replace(generic, drop=())],
            "check": [build_instance("check_cs", 5, dim=2, length=2),
                      build_instance("check_basic", 5, dim=2, length=2)],
            "shape": [generic, build_instance("check_uin", 6, dim=3, length=2,
                                              drop=("normality",))]}


@pytest.mark.parametrize("mix", ["drop", "check", "shape"])
def test_evaluate_group_rejects_a_mixed_group(mix):
    """Every group route builds its batch with Batch.of, which refuses two group keys."""
    group = _mixed_groups()[mix]
    with pytest.raises(InvalidSpec, match="a group needs one"):
        checks.Batch.of([_row(i) for i in group], ((),))
    if mix == "drop":  # alone, the second instance is not normal
        with pytest.raises(NotNormal):
            evaluate_instance(group[1])


def _each_alone(cfg, check, spoil=lambda inst: inst):
    """Each trial's lines as evaluate_instance gives them, one point at a time."""
    out = io.StringIO()
    for index in range(cfg.trials):
        seed = trial_seed(cfg.seed, check, index)
        inst = spoil(build_instance(check, seed, dim=cfg.dim, length=cfg.length))
        for point in cfg.points("alpha"):
            params = GRIDS["alpha"].params(point)
            try:
                outcome = evaluate_instance(
                    dataclasses.replace(inst, params={**inst.params, **params}), cfg.tol)
            except OpineqError as exc:
                outcome = exc
            harness.write_cell(out, check, seed, inst, params, outcome)
    return [json.loads(line) for line in out.getvalue().splitlines()]


@pytest.mark.parametrize("spoiled", [False, True], ids=["tol0", "one_generic"])
def test_a_group_that_raises_enforces_each_instance_once(monkeypatch, spoiled):
    """At tol 0 every instance breaks normality; at the default tolerance one
    generic instance does.  Either way the group is enforced once, in one call
    for all four instances at every point (5 calls when a group that raised was
    re-run instance by instance, 13 if enforced per point), and each line is
    what the instance gives alone."""
    tol = DEFAULT_TOL if spoiled else 0.0
    cfg = RunConfig(trials=4, checks=("check_alpha",), seed=1, dim=3, length=2, tol=tol)
    bad = trial_seed(cfg.seed, "check_alpha", 2)

    generic = dataclasses.replace(
        build_instance("check_alpha", bad, dim=3, length=2, drop=("normality",)), drop=())

    def spoil(inst):
        return generic if spoiled and inst.seed == bad else inst

    original = generators.build_window
    monkeypatch.setattr(generators, "build_window", lambda segments, **kw: [
        [spoil(inst) for inst in built] for built in original(segments, **kw)])
    calls = []
    normality = checks.HYPOTHESES["normality"]

    def counted(*args):
        calls.append(args)
        return normality(*args)

    monkeypatch.setitem(checks.HYPOTHESES, "normality", counted)
    out = io.StringIO()
    summary = run_suite(cfg, out)
    assert len(calls) == 1 and len(calls[0][0].parts) == 4
    errors = 3 if spoiled else 12
    assert summary.counts["check_alpha"]["error"] == errors
    assert [json.loads(line) for line in out.getvalue().splitlines()] == _each_alone(
        cfg, "check_alpha", spoil)


def test_a_grid_point_of_the_wrong_length_is_rejected():
    inst = build_instance("check_interp", 1)
    for pqr in ((2.0, 2.0), (4.0, 4.0), (2.0, 2.0, 2.0, 2.0)):
        with pytest.raises(InvalidSpec, match="needs one number per key"):
            checks.Batch.of([_row(inst)], (pqr,))
        with pytest.raises(InvalidSpec, match="needs one number per key"):
            RunConfig(trials=1, checks=("check_interp",), grids={"pqr": (pqr,)})
    with pytest.raises(InvalidSpec, match="needs one number per key"):
        checks.Batch.of([_row(build_instance("check_cs", 1))], ((2.0,),))


@pytest.mark.parametrize("check, grid", [
    ("check_alpha", {"alpha": (((0.5, 1.0),),)}),
    ("check_alpha", {"alpha": ((True,),)}),
    ("check_interp", {"pqr": (("a", 2.0, 2.0),)}),
    ("check_defect", {"pqr": ((2.0, False, 2.0),)}),
], ids=["alpha_tuple", "alpha_bool", "p_string", "q_bool"])
def test_a_grid_entry_that_is_not_a_real_number_is_rejected(check, grid):
    with pytest.raises(InvalidSpec, match="grid parameters must be real numbers"):
        RunConfig(trials=1, checks=(check,), grids=grid)


@pytest.mark.parametrize("grid", [
    {"pqr": (2.0,)},
    {"pqr": 2.0},
    {"alpha": 0.5},
    {"alpha": None},
    {"alpha": (0.5, 1.0)},
], ids=["pqr_of_numbers", "pqr_number", "alpha_number", "alpha_none", "alpha_of_numbers"])
def test_a_grid_that_is_not_a_sequence_of_points_is_rejected(grid):
    with pytest.raises(InvalidSpec, match="grid must be a sequence"):
        RunConfig(trials=1, checks=("check_interp", "check_alpha"), grids=grid)


@pytest.mark.parametrize("grids", [{"beta": ((1.0,),)}, {"Pqr": ((2.0, 2.0, 2.0),)},
                                   (("pqr", ((2.0, 2.0, 2.0),)),), None, {None: ((),)}],
                         ids=["unknown_axis", "axis_case", "pairs", "none", "no_grid_axis"])
def test_grids_must_map_known_axes(grids):
    with pytest.raises(InvalidSpec, match="grids must map axes"):
        RunConfig(trials=1, checks=("check_cs",), grids=grids)


def test_an_axis_the_grids_omit_takes_its_row_points():
    cfg = RunConfig(trials=1, checks=("check_alpha",), grids={"alpha": [(3,), (0.5,)]})
    assert cfg.points("alpha") == ((3,), (0.5,))
    assert cfg.points("pqr") == GRIDS["pqr"].points
    assert cfg.points(None) == ((),)
    hash(cfg)  # a frozen config stays hashable
    assert RunConfig(trials=1, checks=("check_cs",)).points("alpha") == GRIDS["alpha"].points


def test_integer_grid_entries_give_the_lines_of_their_floats():
    def lines(**grid):
        out = io.StringIO()
        run_suite(RunConfig(trials=2, checks=("check_interp", "check_alpha"), seed=1, **grid), out)
        return out.getvalue()

    ints = lines(grids={"pqr": ((2, 2, 2), (4, 4, 4)), "alpha": ((1,), (2,))})
    assert ints == lines(grids={"pqr": ((2.0, 2.0, 2.0), (4.0, 4.0, 4.0)),
                                "alpha": ((1.0,), (2.0,))})
    assert '"p": 2.0' in ints and '"alpha": 1.0' in ints


def _first_errors(monkeypatch, spoil) -> list[str]:
    """The first error of one spoiled check_gruss instance through each route,
    as ``"Type: message"``: a direct call, evaluate_instance,
    a run's error line (the group raises, so evaluate_each) and
    assert_hypotheses (inside its InvalidSpec)."""
    cfg = RunConfig(trials=1, checks=("check_gruss",), seed=3, dim=2, length=2)
    inst = spoil(build_instance("check_gruss", trial_seed(cfg.seed, "check_gruss", 0),
                                dim=2, length=2))
    out = []

    def record(fn, *args, **kwargs):
        with pytest.raises(OpineqError) as info:
            fn(*args, **kwargs)
        out.append(f"{type(info.value).__name__}: {info.value}")

    record(checks.check_gruss, inst.x, inst.y, inst.a, inst.e, inst.ball)
    record(evaluate_instance, inst)
    original = generators.build_window
    lines = io.StringIO()
    with monkeypatch.context() as patch:
        patch.setattr(generators, "build_window", lambda segments, **kw: [
            [spoil(inst) for inst in built] for built in original(segments, **kw)])
        run_suite(cfg, lines)
    out.append(json.loads(lines.getvalue())["params"]["error"])
    with pytest.raises(InvalidSpec) as info:
        assert_hypotheses(inst)
    cause = info.value.__cause__
    assert str(info.value) == f"generated check_gruss instance: {cause}"
    out.append(f"{type(cause).__name__}: {cause}")
    return out


def _non_normal(inst, scale):
    """The instance with x replaced by a non-normal element scaled by ``scale``."""
    nilpotent = scale * np.array([[0.0, 1.0], [0.0, 0.0]])
    return dataclasses.replace(inst, x=ModuleElement(inst.x.ctx, (nilpotent, nilpotent.T)))


def test_a_broken_unit_reference_is_the_first_error_on_every_route(monkeypatch):
    def spoil(inst):
        return dataclasses.replace(_non_normal(inst, 0.1), e=(1 + 1e-3) * inst.e)

    errors = _first_errors(monkeypatch, spoil)
    assert len(set(errors)) == 1 and errors[0].startswith("NotUnital: "), errors


def test_normality_comes_before_the_ball_on_every_route(monkeypatch):
    errors = _first_errors(monkeypatch, lambda inst: _non_normal(inst, 50.0))
    assert len(set(errors)) == 1 and errors[0].startswith("NotNormal: "), errors
    outside = _non_normal(build_instance("check_gruss", trial_seed(3, "check_gruss", 0),
                                         dim=2, length=2), 50.0)
    with pytest.raises(BallViolated):  # the instance breaks the ball too
        evaluate_instance(dataclasses.replace(outside, drop=("normality",)))


def test_an_integer_point_is_recorded_as_the_float_it_is_evaluated_at():
    inst = dataclasses.replace(build_instance("check_interp", 5, dim=2, length=2),
                               params={"p": 3, "q": 2, "r": 6})
    alone = json.dumps(evaluate_instance(inst).to_json_dict(), sort_keys=True)
    grouped = json.dumps(evaluate_each([inst], DEFAULT_TOL, ((3, 2, 6),))[0][0].to_json_dict(),
                         sort_keys=True)
    assert alone == grouped
    assert '"p": 3.0' in alone


def _reweighted(z):
    """z with every weight doubled: the same parts in another context."""
    return ModuleElement(ModuleContext(z.ctx.dim, tuple(2 * w for w in z.ctx.weights)), z.parts)


@pytest.mark.parametrize("spoil, error", [
    (lambda inst: dataclasses.replace(inst, y=_reweighted(inst.y)), "CtxMismatch"),
    (lambda inst: dataclasses.replace(inst, e=_reweighted(inst.e)), "CtxMismatch"),
    (lambda inst: dataclasses.replace(inst, a=np.eye(3, dtype=complex)), "DimMismatch"),
    (lambda inst: dataclasses.replace(inst, a=np.full((2, 2), np.nan + 0j)), "InvalidSpec"),
    (lambda inst: dataclasses.replace(inst, x="x"), "InvalidSpec"),
    (lambda inst: dataclasses.replace(inst, y="y"), "InvalidSpec"),
    (lambda inst: dataclasses.replace(inst, e="e"), "InvalidSpec"),
    (lambda inst: dataclasses.replace(inst, e=None), "InvalidSpec"),
], ids=["y_weights", "e_weights", "a_3x3", "a_nan", "x_not_an_element", "y_not_an_element",
        "e_not_an_element", "e_missing"])
def test_a_bad_operand_is_the_first_error_on_every_route(monkeypatch, spoil, error):
    errors = _first_errors(monkeypatch, spoil)
    assert len(set(errors)) == 1 and errors[0].startswith(f"{error}: "), errors


def test_an_x_that_is_not_an_element_is_refused_beside_a_good_instance():
    good = build_instance("check_cs", 1)
    bad = dataclasses.replace(good, x="x")
    with pytest.raises(InvalidSpec, match="a group needs one"):
        checks.Batch.of([_row(good), _row(bad)], ((),))
    (report,), (error,) = evaluate_each([good, bad], DEFAULT_TOL, ((),))
    assert report.to_json_dict() == evaluate_instance(good).to_json_dict()
    assert isinstance(error, InvalidSpec) and "takes module elements" in str(error)


def test_evaluate_instance_turns_its_grid_point_into_floats_once(monkeypatch):
    calls = []
    params = checks.GridAxis.params

    def counted(axis, point):
        calls.append(point)
        return params(axis, point)

    monkeypatch.setattr(checks.GridAxis, "params", counted)
    inst = build_instance("check_interp", 1, dim=2, length=2)
    rep = evaluate_instance(dataclasses.replace(inst, params={"p": 3, "q": 2, "r": 6}))
    assert rep.instance["params"]["p"] == 3.0
    assert calls == [(3, 2, 6)]


NOT_NUMBERS = {"ragged": [[1, 2], [3]], "string": "x", "none": None,
               "strings": [["1", "2"], ["3", "4"]]}


@pytest.mark.parametrize("a", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_an_a_that_is_not_an_array_of_numbers_is_invalid_on_every_route(monkeypatch, a):
    x = hmodule.element([np.eye(2)])
    with pytest.raises(InvalidSpec):
        checks.check_basic(x, x, a)
    errors = _first_errors(monkeypatch, lambda inst: dataclasses.replace(inst, a=a))
    assert len(set(errors)) == 1 and errors[0].startswith("InvalidSpec: "), errors


@pytest.mark.parametrize("call", [
    lambda x, y, a, e: checks.check_gruss(x, y, a, None),
    lambda x, y, a, e: checks.check_gruss(x, y, a, "x"),
    lambda x, y, a, e: checks.check_cs(x, None),
    lambda x, y, a, e: checks.check_basic("x", y, a),
    lambda x, y, a, e: checks.check_radius_submult(np.eye(2), y),
], ids=["gruss_e_none", "gruss_e_string", "cs_y_none", "basic_x_string", "radius_x_matrix"])
def test_an_operand_that_is_not_an_element_is_invalid_on_a_direct_call(call):
    inst = build_instance("check_gruss", 1, dim=2, length=2)
    with pytest.raises(InvalidSpec, match="takes module elements as"):
        call(inst.x, inst.y, inst.a, inst.e)


def _without_ball():
    return dataclasses.replace(build_instance("check_gruss", 3, dim=2, length=2), ball=None)


ROUTES = {
    "evaluate_instance": lambda inst: [evaluate_instance(inst)],
    "evaluate_each": lambda inst: evaluate_each([inst], DEFAULT_TOL, ((),))[0],
    "assert_hypotheses": lambda inst: assert_hypotheses(inst) or [evaluate_instance(inst)],
}
# a file must give its check's every operand, so a gruss instance without a ball has no replay
REPLAY_ROUTES = {**ROUTES, "replay": lambda inst: [evaluate_instance(
    instance_from_json(json.loads(json.dumps(inst.to_json()))))]}


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES)
def test_a_gruss_instance_without_a_ball_gets_one_verdict_on_every_route(route):
    inst = _without_ball()
    (report,) = route(inst)
    assert isinstance(report, checks.InequalityReport), report
    assert report.instance["params"]["ball"] is None
    assert "g3" in report.norm_detail
    assert not any(key.startswith("mm") for key in report.norm_detail)
    assert report.to_json_dict() == evaluate_instance(inst).to_json_dict()


@pytest.mark.parametrize("route", REPLAY_ROUTES.values(), ids=REPLAY_ROUTES)
def test_a_drop_the_check_lacks_gives_the_same_bytes_on_every_route(route):
    """check_cs has no hypotheses: a witness that drops normality is evaluated
    as the check function evaluates it given no drop, and records the drop."""
    inst = build_instance("check_cs", 3, drop=("normality",))
    (report,) = route(inst)
    direct = checks.check_cs(inst.x, inst.y, digest=inst.digest())
    assert json.dumps(report.to_json_dict()) == json.dumps(direct.to_json_dict())
    assert report.instance["params"]["drop"] == ["normality"]


def test_a_batch_gives_a_ball_in_every_row_or_in_none():
    bare = _without_ball()
    balled = build_instance("check_gruss", 4, dim=2, length=2)
    with pytest.raises(InvalidSpec, match="a ball in every row or in none"):
        generators._batch([balled, bare], ((),))
    rows = evaluate_each([balled, bare], DEFAULT_TOL, ((),))
    assert [[r.to_json_dict() for r in row] for row in rows] == [
        [evaluate_instance(inst).to_json_dict()] for inst in (balled, bare)]


def test_an_empty_group_is_invalid_spec():
    with pytest.raises(InvalidSpec, match="at least one instance and one grid point"):
        checks.Batch.of([], ((),))
    assert evaluate_each([], DEFAULT_TOL, ((),)) == []


def _row(inst, **changes):
    return {"check": inst.check, "drop": inst.drop, "x": inst.x, "y": inst.y, "a": inst.a,
            "digest": inst.digest(), **changes}


def test_batch_of_refuses_rows_of_two_shapes():
    rows = [_row(build_instance("check_uin", 1, dim=2, length=2)),
            _row(build_instance("check_uin", 2, dim=3, length=2))]
    with pytest.raises(InvalidSpec, match="a group needs one"):
        checks.Batch.of(rows, ((),))


def test_batch_of_refuses_a_row_without_y():
    row = _row(build_instance("check_uin", 1, dim=2, length=2))
    del row["y"]
    with pytest.raises(InvalidSpec, match="takes module elements"):
        checks.Batch.of([row], ((),))


DROP_ROUTES = {
    "evaluate_instance": evaluate_instance,
    "evaluate_each": lambda inst: raise_first(evaluate_each([inst], DEFAULT_TOL, [()])[0])[0],
}


@pytest.mark.parametrize("route", DROP_ROUTES.values(), ids=DROP_ROUTES)
@pytest.mark.parametrize("kind", [list, set], ids=["list", "set"])
def test_a_list_drop_groups_like_its_tuple_and_a_set_drop_is_invalid(route, kind):
    inst = build_instance("check_uin", 3, dim=2, length=2, drop=("normality",))
    other = dataclasses.replace(inst, drop=kind(inst.drop))
    if kind is set:
        with pytest.raises(InvalidSpec, match="drop must be a tuple or list"):
            route(other)
        return
    assert checks.group_key(vars(other)) == checks.group_key(vars(inst))
    assert route(other).margin == evaluate_instance(inst).margin
    (mixed, tupled), = [evaluate_each([other, inst], DEFAULT_TOL, ((),))]
    assert mixed[0].to_json_dict() == tupled[0].to_json_dict()


def test_one_instance_that_breaks_normality_leaves_one_kernel_call_for_the_rest(monkeypatch):
    """A 64-trial check_naopaka group with one non-normal instance: the kernel
    runs once, on the 63 others, and every line is what its instance gives alone."""
    cfg = RunConfig(trials=64, checks=("check_naopaka",), seed=0, dim=4, length=3)
    bad = trial_seed(cfg.seed, "check_naopaka", 17)
    generic = dataclasses.replace(
        build_instance("check_naopaka", bad, dim=4, length=3, drop=("normality",)), drop=())
    original = generators.build_window
    monkeypatch.setattr(generators, "build_window", lambda segments, **kw: [
        [generic if inst.seed == bad else inst for inst in built]
        for built in original(segments, **kw)])
    spec = checks.CHECK_SPECS["check_naopaka"]
    sizes = []

    def counted(b):
        sizes.append(len(b.digests))
        return spec.kernel(b)

    monkeypatch.setitem(checks.CHECK_SPECS, "check_naopaka", spec._replace(kernel=counted))
    out = io.StringIO()
    summary = run_suite(cfg, out)
    assert sizes == [63]
    assert summary.counts["check_naopaka"]["error"] == 1
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    with pytest.raises(NotNormal) as info:
        evaluate_instance(generic)
    alone = io.StringIO()
    harness.write_cell(alone, "check_naopaka", bad, generic, {}, info.value)
    assert lines[17] == json.loads(alone.getvalue())
    assert [line for k, line in enumerate(lines) if k != 17] == [
        evaluate_instance(build_instance("check_naopaka", trial_seed(cfg.seed, "check_naopaka", k),
                                         dim=4, length=3)).to_json_dict()
        for k in range(cfg.trials) if k != 17]


def test_a_gruss_group_gives_each_instance_its_own_error_or_report():
    """The kept rows of a gruss batch keep their own unit reference and ball."""
    insts = build_group("check_gruss", range(6), dim=2, length=2)
    insts[1] = dataclasses.replace(insts[1], e=(1 + 1e-3) * insts[1].e)  # not a unit
    insts[4] = dataclasses.replace(insts[4], x=insts[4].x + 10.0 * insts[4].e)  # off its ball

    def line(outcome):
        if isinstance(outcome, OpineqError):
            return f"{type(outcome).__name__}: {outcome}"
        return outcome.to_json_dict()

    def alone(inst):
        try:
            return line(evaluate_instance(inst))
        except OpineqError as exc:
            return line(exc)

    got = [line(out) for (out,) in evaluate_each(insts, DEFAULT_TOL, ((),))]
    assert got == [alone(inst) for inst in insts]
    assert got[1].startswith("NotUnital: ") and got[4].startswith("BallViolated: ")
    assert sum(isinstance(g, dict) for g in got) == 4

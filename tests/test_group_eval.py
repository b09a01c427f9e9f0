"""A run evaluates each same-shape group of trials in one kernel call; every
line is what the same instance gives alone."""

import dataclasses
import io
import json

import numpy as np
import pytest

from opineq import generators, harness
from opineq.cli import cli_main
from opineq.core import DEFAULT_TOL
from opineq.errors import InvalidSpec, MaxTermsExceeded, NotContractive, OpineqError
from opineq.generators import (
    CHECK_NAMES, build_group, build_instance, evaluate_each, evaluate_instance, trial_seed,
)
from opineq.harness import RunConfig, run_suite
from opineq.checks import (
    CHECK_SPECS, GRIDS, InequalityReport, check_alpha, check_defect, require_preconditions,
)
from opineq.hmodule import ModuleElement, element


def _lines(cfg):
    out = io.StringIO()
    run_suite(cfg, out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


def _serialized(lines):
    """Each line as sorted-key JSON text, which tells -0.0 from 0.0."""
    return [json.dumps(line, sort_keys=True) for line in lines]


def _at(inst, point):
    """inst with its params recording ``point`` on its check's grid axis."""
    axis = GRIDS[CHECK_SPECS[inst.check].grid]
    return dataclasses.replace(inst, params={**inst.params, **axis.params(point)})


def _alone(check, cfg):
    """Each trial built and evaluated alone, one grid point at a time."""
    points = GRIDS[CHECK_SPECS[check].grid].points
    out = []
    for index in range(cfg.trials):
        inst = build_instance(check, trial_seed(cfg.seed, check, index), dim=cfg.dim,
                              length=cfg.length, weights_mode=cfg.weights_mode)
        for point in points:
            out.append(evaluate_instance(_at(inst, point), cfg.tol).to_json_dict())
    return out


def test_every_check_has_one_kernel():
    kernels = [CHECK_SPECS[name].kernel for name in CHECK_NAMES]
    assert all(map(callable, kernels)) and len(set(kernels)) == len(CHECK_NAMES)


@pytest.mark.parametrize("check", CHECK_NAMES)
@pytest.mark.parametrize("shape", [(3, 2), (None, None), (1, 4), (6, 4)],
                         ids=["dim3_len2", "random", "dim1_len4", "dim6_len4"])
def test_grouped_lines_equal_each_instance_alone(check, shape):
    cfg = RunConfig(trials=25, checks=(check,), seed=17, dim=shape[0], length=shape[1])
    assert _serialized(_lines(cfg)) == _serialized(_alone(check, cfg))


def test_a_grid_check_group_is_evaluated_at_given_points():
    insts = [build_instance("check_interp", seed, dim=2, length=2) for seed in (1, 2)]
    insts[1] = dataclasses.replace(insts[1], params={"p": 3.0, "q": 2.0, "r": 6.0})
    with pytest.raises(InvalidSpec, match="at least one instance and one grid point"):
        evaluate_each(insts, DEFAULT_TOL, None)
    points = ((2.0, 2.0, 2.0), (3.0, 2.0, 6.0))
    grouped = [rep.to_json_dict()
               for row in evaluate_each(insts, DEFAULT_TOL, points) for rep in row]
    assert grouped == [evaluate_instance(_at(inst, point)).to_json_dict()
                       for inst in insts for point in points]
    assert evaluate_instance(insts[1]).to_json_dict() == grouped[3]


def test_an_error_stays_with_its_trial(monkeypatch):
    cfg = RunConfig(trials=5, checks=("check_uin",), seed=2, dim=3, length=2)
    clean = io.StringIO()
    run_suite(cfg, clean)
    spoiled_seed = trial_seed(cfg.seed, "check_uin", 2)
    original = generators.build_window

    def build(segments, **kwargs):
        def spoiled(check, seed):
            generic = original([(check, [seed])], drop=("normality",), **kwargs)[0][0]
            return dataclasses.replace(generic, drop=())
        return [[spoiled(check, seed) if seed == spoiled_seed else inst
                 for seed, inst in zip(seeds, insts)]
                for (check, seeds), insts in zip(segments, original(segments, **kwargs))]

    monkeypatch.setattr(generators, "build_window", build)
    out = io.StringIO()
    summary = run_suite(cfg, out)
    lines, before = out.getvalue().splitlines(), clean.getvalue().splitlines()
    assert summary.counts["check_uin"] == {"pass": 4, "fail": 0, "error": 1}
    assert json.loads(lines[2])["params"]["error"].startswith("NotNormal: x has normality")
    assert [lines[k] for k in (0, 1, 3, 4)] == [before[k] for k in (0, 1, 3, 4)]


@pytest.mark.parametrize("args", [
    ["--trials", "3", "--seed", "8"],
    ["--trials", "4", "--seed", "9", "--dim", "6", "--len", "4"],
], ids=["default", "dim6_len4"])
def test_output_does_not_depend_on_the_group_size(args, monkeypatch, tmp_path, capsys):
    cli_main(["verify", *args, "--out", str(tmp_path / "grouped.jsonl")])
    monkeypatch.setattr(harness, "GROUP_TRIALS", 1)
    cli_main(["verify", *args, "--out", str(tmp_path / "alone.jsonl")])
    capsys.readouterr()
    grouped = (tmp_path / "grouped.jsonl").read_bytes()
    assert grouped and grouped == (tmp_path / "alone.jsonl").read_bytes()


def test_defect_trial_decomposes_each_defect_operator_once(monkeypatch):
    calls = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    summary = run_suite(RunConfig(trials=1, checks=("check_defect",), seed=3))
    assert summary.counts["check_defect"]["pass"] == len(GRIDS["pqr"].points)
    # the four defect operators: their Gram sums, then their own eigenpairs
    assert len(calls) <= 4 and [shape[0] for shape in calls] == [4, 4]


def test_a_kernel_error_at_one_point_stays_at_that_point(monkeypatch):
    """The kernel raises for any batch holding one instance's alpha = 0.5 cell:
    the run's group call raises, each cell is evaluated again alone, and that
    line alone is the error; every other line is the clean run's."""
    cfg = RunConfig(trials=4, checks=("check_alpha",), seed=5, dim=3, length=2)
    clean = _serialized(_lines(cfg))
    bad = trial_seed(cfg.seed, "check_alpha", 1)
    row = CHECK_SPECS["check_alpha"]
    original, calls = row.kernel, []

    def kernel(b):
        calls.append(len(b.digests))
        if (bad, (0.5,)) in [(digest["seed"], point) for digest in b.digests for point in b.points]:
            raise MaxTermsExceeded("spoiled at alpha 0.5")
        return original(b)

    monkeypatch.setitem(CHECK_SPECS, "check_alpha", row._replace(kernel=kernel))
    lines = _lines(cfg)
    alphas = GRIDS["alpha"].points
    assert calls == [4] + [1] * (4 * len(alphas))
    k = len(alphas) + alphas.index((0.5,))
    assert lines[k]["params"]["alpha"] == 0.5 and lines[k]["margin"] is None
    assert lines[k]["params"]["error"] == "MaxTermsExceeded: spoiled at alpha 0.5"
    lines = _serialized(lines)
    assert lines[:k] + lines[k + 1:] == clean[:k] + clean[k + 1:]
    # the other routes give the same cell the same error, a group of one cell
    # from its one call
    inst = build_instance("check_alpha", bad, dim=3, length=2)
    [(error,)] = evaluate_each([inst], DEFAULT_TOL, ((0.5,),))
    assert isinstance(error, MaxTermsExceeded) and str(error) == "spoiled at alpha 0.5"
    assert calls[4 * len(alphas) + 1:] == [1]
    with pytest.raises(MaxTermsExceeded, match="spoiled at alpha 0.5"):
        evaluate_instance(_at(inst, (0.5,)))
    assert evaluate_instance(_at(inst, (2.0,))).holds


@pytest.mark.parametrize("check", CHECK_NAMES)
def test_a_group_without_points_is_invalid_spec(check):
    inst = build_instance(check, 3, dim=2, length=2)
    with pytest.raises(InvalidSpec, match="at least one instance and one grid point"):
        generators._batch([inst], ())
    assert evaluate_each([inst], DEFAULT_TOL, ()) == [[]]
    # a run gives such a trial its instance and no report
    [[(built, reports)]] = generators.run_trials([(check, [3], ())], DEFAULT_TOL, dim=2, length=2)
    assert built.to_json() == inst.to_json() and reports == []


def _kernel_calls(monkeypatch, check):
    """The batch size of every later kernel call of ``check``'s row, in order."""
    row, calls = CHECK_SPECS[check], []

    def kernel(b):
        calls.append(len(b.digests))
        return row.kernel(b)

    monkeypatch.setitem(CHECK_SPECS, check, row._replace(kernel=kernel))
    return calls


def _line(inst, point, outcome):
    """The run line of ``inst``'s report or error at ``point``."""
    out = io.StringIO()
    harness.write_cell(out, inst.check, inst.seed, inst,
                       GRIDS[CHECK_SPECS[inst.check].grid].params(point), outcome)
    return json.loads(out.getvalue())


def _line_alone(inst, point):
    """The run line of ``inst`` evaluated alone at ``point``."""
    try:
        return _line(inst, point, evaluate_instance(_at(inst, point)))
    except OpineqError as exc:
        return _line(inst, point, exc)


def _ill_conditioned_beside_two_good():
    """Two built non-normal check_alpha instances with x = y = 0.8 J_3 between
    them: J_3 is the nilpotent Jordan block, so the vectorized T is defective."""
    good = build_group("check_alpha", [0, 1], dim=3, length=1, drop=("normality",))
    z = ModuleElement(good[0].x.ctx, (0.8 * np.eye(3, k=1),))
    return [good[0], dataclasses.replace(good[0], x=z, y=z, seed=None), good[1]]


# groups with cells outside their check's domain or whose kernel raises, that
# error's type and the kernel calls of their evaluation: a domain refusal costs
# none, so the contraction-dropped groups take one call on their kept rows
KERNEL_ERROR_GROUPS = {
    "alpha_contraction_dropped": (lambda: build_group(
        "check_alpha", range(10), dim=3, length=2, drop=("contraction",)), NotContractive, 1),
    "defect_d1_contraction_dropped": (lambda: build_group(
        "check_defect", range(30), dim=1, length=1, drop=("contraction",)), NotContractive, 1),
    "alpha_d1_contraction_dropped": (lambda: build_group(
        "check_alpha", range(12), dim=1, length=1, drop=("contraction",)), NotContractive, 1),
    "alpha_d6_len3_contraction_dropped": (lambda: build_group(
        "check_alpha", range(12), dim=6, length=3, drop=("contraction",)), NotContractive, 1),
    "alpha_ill_conditioned_row": (_ill_conditioned_beside_two_good, OpineqError, 10),
}


@pytest.mark.parametrize("name", KERNEL_ERROR_GROUPS)
def test_a_kernel_error_costs_a_call_per_cell(name, monkeypatch):
    """An instance outside its check's domain is refused by its preconditions,
    before the kernel, which runs once on the rest; a group whose kernel raises
    (an ill-conditioned eigenbasis at alpha 0.5) has each of its cells
    evaluated again alone: 1 + cells kernel calls.  Every line is what the
    instance gives alone."""
    build, error, count = KERNEL_ERROR_GROUPS[name]
    insts = build()
    points = GRIDS[CHECK_SPECS[insts[0].check].grid].points
    kept = require_preconditions(generators._batch(insts, points)).count(None)
    calls = _kernel_calls(monkeypatch, insts[0].check)
    rows = evaluate_each(insts, DEFAULT_TOL, points)
    assert calls == [kept] + [1] * (count - 1) and count in (1, 1 + len(insts) * len(points))
    kinds = {type(outcome) for row in rows for outcome in row}
    assert kinds == {InequalityReport, error}
    lines = [_line(inst, point, outcome)
             for inst, row in zip(insts, rows) for point, outcome in zip(points, row)]
    assert _serialized(lines) == _serialized([_line_alone(inst, point)
                                              for inst in insts for point in points])


def test_a_refused_candidate_costs_no_kernel_call(monkeypatch):
    """A search candidate is a group of one cell: check_alpha with contraction
    dropped, at ||x|| ||y|| = 1 exactly (scalar parts, so on every BLAS kernel),
    is refused by its domain precondition, with no kernel call; x = 2 I_1 is
    refused so by check_alpha and by check_defect alike."""
    inst = build_instance("check_alpha", 1, dim=3, length=2, drop=("contraction",))
    unit = element([np.eye(3), np.zeros((3, 3))])
    inst = dataclasses.replace(inst, x=unit, y=unit)
    assert unit.stack.norms[0] == 1.0
    calls = _kernel_calls(monkeypatch, "check_alpha")
    with pytest.raises(NotContractive, match=r"^binomial series requires \|\|x\|\| \|\|y\|\| "
                                             r"< 1, got 1\.000000$"):
        evaluate_instance(inst)
    assert calls == []
    two = element([2.0 * np.eye(1)])
    with pytest.raises(NotContractive, match=r"^binomial series requires .*, got 4\.000000$"):
        check_alpha(two, two, np.eye(1), 1.0, drop=("normality", "contraction"))
    with pytest.raises(NotContractive, match=r"^defect needs spectral radius < 1, got 4\.000000$"):
        check_defect(two, two, np.eye(1), 2.0, 2.0, 2.0, drop=("contraction",))
    assert calls == []


def test_evaluate_each_without_points_is_invalid_spec():
    """Without points, every check is Batch.of's InvalidSpec, with a grid or
    without; at the one point () a check without a grid is evaluated as alone."""
    insts = [build_instance("check_cs", 1), build_instance("check_radius_submult", 2)]
    rows = evaluate_each(insts, DEFAULT_TOL, ((),))
    assert [[r.to_json_dict() for r in row] for row in rows] == [
        [evaluate_instance(inst).to_json_dict()] for inst in insts]
    for inst in insts + [build_instance(check, 1) for check in ("check_alpha", "check_interp")]:
        with pytest.raises(InvalidSpec, match="at least one instance and one grid point"):
            evaluate_each([inst], DEFAULT_TOL, None)


def test_each_cell_of_a_raising_batch_gets_what_it_gets_alone():
    """At alpha 3000 some rows overflow and their batch raises; every other
    cell, the alpha 0.5 cells of those rows included, is what it is alone
    (numpy's overflow warnings off, as in the CLI)."""
    insts = [build_instance("check_alpha", seed) for seed in range(20)]
    points = ((0.5,), (3000.0,))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = evaluate_each(insts, DEFAULT_TOL, points)
        alone = [_line_alone(inst, point) for inst in insts for point in points]
    lines = [_line(inst, point, outcome)
             for inst, row in zip(insts, rows) for point, outcome in zip(points, row)]
    assert _serialized(lines) == _serialized(alone)
    assert all(isinstance(row[0], InequalityReport) and row[0].holds for row in rows)
    assert any(isinstance(row[1], InvalidSpec) for row in rows)

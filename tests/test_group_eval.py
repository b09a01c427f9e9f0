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
from opineq.errors import InvalidSpec, MaxTermsExceeded
from opineq.generators import (
    CHECK_NAMES, build_instance, evaluate_group, evaluate_instance, trial_seed,
)
from opineq.harness import RunConfig, run_suite
from opineq.checks import CHECK_SPECS, GRIDS


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
            out.append(evaluate_instance(_at(inst, point), cfg.tolerances).to_json_dict())
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
    with pytest.raises(InvalidSpec, match="given pqr points"):
        evaluate_group(insts)
    points = ((2.0, 2.0, 2.0), (3.0, 2.0, 6.0))
    grouped = [rep.to_json_dict() for rep in evaluate_group(insts, points=points)]
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
    """One instance's kernel raises at alpha = 0.5 only: the group raises, and
    evaluate_each evaluates each instance alone, point by point."""
    cfg = RunConfig(trials=4, checks=("check_alpha",), seed=5, dim=3, length=2)
    clean = _serialized(_lines(cfg))
    bad = trial_seed(cfg.seed, "check_alpha", 1)
    row = CHECK_SPECS["check_alpha"]
    original = row.kernel

    def kernel(b):
        if (0.5,) in b.points and any(digest["seed"] == bad for digest in b.digests):
            raise MaxTermsExceeded("spoiled at alpha 0.5")
        return original(b)

    monkeypatch.setitem(CHECK_SPECS, "check_alpha", row._replace(kernel=kernel))
    lines = _lines(cfg)
    alphas = GRIDS["alpha"].points
    k = len(alphas) + alphas.index((0.5,))
    assert lines[k]["params"]["alpha"] == 0.5 and lines[k]["margin"] is None
    assert lines[k]["params"]["error"] == "MaxTermsExceeded: spoiled at alpha 0.5"
    lines = _serialized(lines)
    assert lines[:k] + lines[k + 1:] == clean[:k] + clean[k + 1:]
    # the other routes read the same row
    inst = build_instance("check_alpha", bad, dim=3, length=2)
    with pytest.raises(MaxTermsExceeded, match="spoiled at alpha 0.5"):
        evaluate_group([inst], points=((0.5,),))
    with pytest.raises(MaxTermsExceeded, match="spoiled at alpha 0.5"):
        evaluate_instance(_at(inst, (0.5,)))
    assert evaluate_instance(_at(inst, (2.0,))).holds


@pytest.mark.parametrize("check", CHECK_NAMES)
def test_a_group_without_points_is_invalid_spec(check):
    inst = build_instance(check, 3, dim=2, length=2)
    with pytest.raises(InvalidSpec, match="at least one instance and one grid point"):
        evaluate_group([inst], points=())
    # a run gives such a trial its instance and no report
    [[(built, reports)]] = generators.run_trials([(check, [3], ())], DEFAULT_TOL, dim=2, length=2)
    assert built.to_json() == inst.to_json() and reports == []

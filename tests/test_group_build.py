"""A run builds each same-shape group of trials as one stack; every instance
is what its seed builds alone, and a build error stays with its trial."""

import io
import json

import numpy as np
import pytest

from opineq import checks, generators, transformer
from opineq.checks import CHECK_SPECS, GRIDS
from opineq.core import DEFAULT_TOL
from opineq.errors import InvalidSpec
from opineq.generators import CHECK_NAMES, build_group, build_instance, run_trials, trial_seed
from opineq.harness import RunConfig, run_suite


def _drop_sets(check):
    hyps = CHECK_SPECS[check].hypotheses
    return [()] + [(h,) for h in hyps] + ([hyps] if len(hyps) > 1 else [])


def _text(inst):
    return json.dumps(inst.to_json(), sort_keys=True)


@pytest.mark.parametrize("check", CHECK_NAMES)
def test_grouped_build_equals_each_seed_alone(check):
    seeds = [trial_seed(5, check, index) for index in range(16)]
    for drop in _drop_sets(check):
        for dim, length in ((6, 4), (1, 1), (None, None)):
            for weights_mode in ("random", "uniform"):
                options = dict(dim=dim, length=length, weights_mode=weights_mode, drop=drop)
                grouped = build_group(check, seeds, **options)
                alone = [build_instance(check, seed, **options) for seed in seeds]
                assert [_text(inst) for inst in grouped] == [_text(inst) for inst in alone]


def test_a_group_takes_one_stacked_qr(monkeypatch, serial):
    shapes = []
    original = np.linalg.qr

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    summary = run_suite(RunConfig(trials=5, checks=("check_uin",), seed=4, dim=6, length=4))
    assert summary.counts["check_uin"]["pass"] == 5
    assert shapes == [(5, 2, 6, 6)]


def test_a_build_error_stays_with_its_trial(monkeypatch, serial):
    """A trial whose build raises is one error line per grid point, each with
    its point's params and no shape; every other line is as in a clean run."""
    for check in ("check_naopaka", "check_alpha"):
        cfg = RunConfig(trials=5, checks=(check,), seed=6, dim=3, length=2)
        clean = io.StringIO()
        run_suite(cfg, clean)
        spoiled_seed = trial_seed(cfg.seed, check, 3)
        original = generators._draw

        def draw(spec, seed, *args):
            if seed == spoiled_seed:
                raise InvalidSpec("spoiled draw")
            return original(spec, seed, *args)

        out = io.StringIO()
        with monkeypatch.context() as patch:
            patch.setattr(generators, "_draw", draw)
            summary = run_suite(cfg, out)
        axis = GRIDS[CHECK_SPECS[check].grid]
        spoiled = slice(3 * len(axis.points), 4 * len(axis.points))
        lines, before = out.getvalue().splitlines(), clean.getvalue().splitlines()
        assert summary.counts[check] == {"pass": 4 * len(axis.points), "fail": 0,
                                         "error": len(axis.points)}
        for point, line in zip(axis.points, map(json.loads, lines[spoiled])):
            assert line["seed"] == spoiled_seed and line["dim"] is None
            assert line["params"] == {**axis.params(point), "error": "InvalidSpec: spoiled draw"}
        del lines[spoiled], before[spoiled]
        assert lines == before


def test_run_trials_gives_each_seed_of_a_failed_group_build_its_own_error(monkeypatch):
    seeds = [trial_seed(6, "check_alpha", index) for index in range(5)]
    points = ((0.5,), (2.0,))
    window = [("check_alpha", seeds, points)]
    clean = run_trials(window, DEFAULT_TOL, dim=3, length=2)[0]
    original = generators._draw

    def draw(spec, seed, *args):
        if seed in (seeds[1], seeds[3]):
            raise InvalidSpec(f"spoiled draw {seed}")
        return original(spec, seed, *args)

    monkeypatch.setattr(generators, "_draw", draw)
    trials = run_trials(window, DEFAULT_TOL, dim=3, length=2)[0]
    for k, ((inst, row), (want, want_row)) in enumerate(zip(trials, clean)):
        if k in (1, 3):
            assert str(inst) == f"spoiled draw {seeds[k]}" and row == [inst, inst]
        else:
            assert _text(inst) == _text(want) and len(row) == 2
            assert [r.to_json_dict() for r in row] == [r.to_json_dict() for r in want_row]


@pytest.mark.parametrize("seed, dim, length", [(1, None, None), (2, 3, 2), (3, 1, 1), (4, 6, 4)])
def test_integer_alpha_sums_the_series_without_vectorizing_again(seed, dim, length, monkeypatch,
                                                                serial, kron_series):
    cfg = RunConfig(trials=1, checks=("check_alpha",), seed=seed, dim=dim, length=length)
    calls = []
    original = transformer.vectorize

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(transformer, "vectorize", counted)
    kernel = io.StringIO()
    run_suite(cfg, kernel)
    assert calls == []

    inst = build_instance("check_alpha", trial_seed(seed, "check_alpha", 0), dim=dim, length=length)
    sums = []

    def series(rep, a, alpha):
        sums.append(alpha)
        return kron_series(inst.x, inst.y, a[0], alpha)[None]

    monkeypatch.setattr(transformer, "finite_sum", series)
    reference = io.StringIO()
    run_suite(cfg, reference)
    assert calls and sums == [1.0, 2.0] and kernel.getvalue() == reference.getvalue()


def _stacked(dim, length, drop=("normality",)):
    """Built check_alpha instances at three contraction targets, so that the
    rows of one stack have different gamma = ||x|| ||y||, and their stacks."""
    insts = [inst for seeds, target in (([0], 0.999), ([1, 2], 0.9), ([3, 4], 0.5))
             for inst in build_group("check_alpha", seeds, dim=dim, length=length,
                                     contraction=target, drop=drop)]
    xs, ys = checks.Stack.of([i.x for i in insts]), checks.Stack.of([i.y for i in insts])
    return insts, xs, ys, np.array([inst.a for inst in insts])


def test_stacked_terminating_sum_is_each_series(kron_series):
    """At every integer alpha up to FINITE_MAX, (I - T)^alpha a of a stack is
    each row's reference series fed the engine's Kronecker step, bit for bit,
    normal or not, over rows of different gamma, and the stack raises nothing."""
    assert transformer.FINITE_MAX == 18
    alphas = range(1, transformer.FINITE_MAX + 1)
    for drop in ((), ("normality",)):
        insts, xs, ys, a = _stacked(3, 2, drop)
        sums = transformer.fractional_powers(xs, ys, a, alphas)
        assert len(sums) == len(alphas)
        for alpha, stacked in zip(alphas, sums):
            for inst, got in zip(insts, stacked):
                assert np.array_equal(got, kron_series(inst.x, inst.y, inst.a, alpha))


@pytest.mark.parametrize("dim, length", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 1), (6, 2)])
def test_stacked_series_stops_where_each_row_does(dim, length, kron_series):
    """Each row of one stack gives what it gives alone, over generic
    (non-normal) rows of different gamma: the finite sum stops after alpha
    terms, where each row's reference series stops at its first zero
    coefficient, and the eigen form of a row (non-integer alpha, and integer
    alpha past FINITE_MAX) does not depend on the rows beside it; the stack
    raises nothing."""
    insts, xs, ys, a = _stacked(dim, length)
    alphas = (1.0, 2.0, 3.0, 18.0, 0.5, 1.5, 1 / 3, 2.7, 19.0)
    powers = transformer.fractional_powers(xs, ys, a, alphas)
    assert len(powers) == len(alphas)
    for alpha, stacked in zip(alphas, powers):
        for inst, got in zip(insts, stacked):
            if alpha <= transformer.FINITE_MAX and alpha.is_integer():
                assert np.array_equal(got, kron_series(inst.x, inst.y, inst.a, alpha))
            else:
                t = transformer.ElementaryOperator(inst.x, inst.y)
                assert np.array_equal(got, transformer.fractional_power_exact(t, alpha, inst.a))

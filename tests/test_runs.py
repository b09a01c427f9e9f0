"""Fixed-seed verify runs and what each writes: its exit code, its line count
and how many lines match each pattern (a regular expression, counted as
``grep -c`` counts).  Where roundoff decides the screens (a tolerance of 0 or
near it), the counts are a property of the BLAS kernel, so such a row names
its patterns only: each count must be what the run's cells give evaluated
alone at the run's tolerance, and above 0.

Every run goes through ``cli_main`` with RuntimeWarning raised as an error,
and every line must parse as JSON without a bare NaN or Infinity.  Every
check of a run writes ``--trials`` trials, each one line per grid point in
grid order, and a trial's lines share one error or none: the errors of these
runs are all precondition errors, which an instance has at every point.
"""

import dataclasses
import io
import json
import re
from collections import Counter

import pytest

from opineq import harness
from opineq.checks import CHECK_SPECS, GRIDS, GridAxis
from opineq.cli import _build_parser, _parse_checks, _parse_grids, cli_main
from opineq.errors import OpineqError
from opineq.generators import build_instance, evaluate_instance, trial_seed

PATTERNS = ('"error"', "NotNormal", "NotUnital")

# name -> (verify arguments, exit code, line count, the patterns' nonzero counts, or
# a tuple of the patterns whose counts the cells alone decide)
RUNS = {
    # 65 trials cross the trial group boundary (GROUP_TRIALS = 64)
    "group_boundary": ("--trials 65 --seed 0", 0, 65 * 19, {}),
    # exact SVD verdicts; each instance's precondition error at each of its points
    "tol_0": ("--checks check_alpha,check_uin,check_gruss,check_naopaka --trials 4 --seed 1 "
              "--tol 0", 0, 24,
              ('"error"', "NotNormal", "NotUnital", '"check_alpha".*"error"',
               r'"ball": \[.*NotUnital')),
    # PSD round-off does not follow --tol
    "psd_tol_0": ("--checks check_gruss,check_defect --trials 20 --seed 0 --tol 0", 0, 100,
                  ('"error"', "NotUnital", r'"ball": \[.*NotUnital')),
    "psd_tol_1e-3": ("--checks check_gruss,check_defect --trials 20 --seed 0 --tol 1e-3", 0, 100,
                     {}),
    "default": ("--trials 20 --seed 0", 0, 380, {}),
    "dim6_len4": ("--trials 20 --seed 0 --dim 6 --len 4", 0, 380, {}),
    "tol_3e-16": ("--checks check_uin,check_naopaka --trials 64 --seed 0 --dim 4 --len 3 "
                  "--tol 3e-16", 0, 128, ('"error"', "NotNormal")),
    # the generators' largest shape
    "dim8_len6": ("--trials 3 --seed 0 --dim 8 --len 6", 0, 57, {}),
    "dim1_len4": ("--trials 65 --seed 2 --dim 1 --len 4", 0, 1235, {}),
    "pqr_800": ("--checks check_interp,check_defect --pqr 800,800,800 --trials 20 --seed 1",
                0, 40, {}),
    # past FINITE_MAX, an integer alpha takes the eigen form
    "alpha_19_100": ("--checks check_alpha --alpha 19 --alpha 100 --trials 20 --seed 0", 0, 40,
                     {}),
    "seed_2^64-1": ("--trials 1 --seed 18446744073709551615", 0, 19, {}),
}


def _refuse(constant):
    raise ValueError(f"bare {constant} in a report line")


def _cells_alone(args) -> list[str]:
    """The lines of a verify run, each cell built and evaluated alone at the run's
    tolerance and written as the run writes it."""
    grids, out = _parse_grids(args), io.StringIO()
    for check in _parse_checks(args.checks):
        axis = GRIDS[CHECK_SPECS[check].grid]
        for index in range(args.trials):
            seed = trial_seed(args.seed, check, index)
            inst = build_instance(check, seed, dim=args.dim, length=args.length,
                                  weights_mode=args.weights)
            for point in grids.get(CHECK_SPECS[check].grid, axis.points):
                params = axis.params(point)
                try:
                    outcome = evaluate_instance(dataclasses.replace(
                        inst, params={**inst.params, **params}), args.tol)
                except OpineqError as exc:
                    outcome = exc
                harness.write_cell(out, check, seed, inst, params, outcome)
    return out.getvalue().splitlines()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", RUNS)
def test_a_fixed_seed_run_writes_its_counts(name, tmp_path, capsys):
    args, status, count, counts = RUNS[name]
    argv = ["verify", *args.split()]
    out = tmp_path / "reports.jsonl"
    assert cli_main([*argv, "--out", str(out)]) == status
    assert capsys.readouterr().err == ""
    lines = out.read_text().splitlines()
    parsed = _build_parser().parse_args(argv)
    if isinstance(counts, tuple):
        alone = _cells_alone(parsed)
        counts = {p: sum(bool(re.search(p, line)) for line in alone) for p in PATTERNS + counts}
        assert all(counts[p] > 0 for p in RUNS[name][3])
    want = dict.fromkeys(PATTERNS, 0) | counts
    assert len(lines) == count
    assert {p: sum(bool(re.search(p, line)) for line in lines) for p in want} == want
    trials = {}
    for report in (json.loads(line, parse_constant=_refuse) for line in lines):
        trials.setdefault((report["name"], report["seed"]), []).append(report["params"])
    grids = _parse_grids(parsed)
    assert Counter(check for check, _ in trials) == dict.fromkeys(_parse_checks(parsed.checks),
                                                                  parsed.trials)
    for (check, _), params in trials.items():
        axis = CHECK_SPECS[check].grid
        assert [tuple(p[k] for k in GRIDS[axis].keys) for p in params] == list(
            grids.get(axis, GRIDS[axis].points))
        assert len({p.get("error") for p in params}) == 1


@pytest.mark.parametrize("tol", [(), ("--tol", "3e-16")], ids=["default_tol", "tol_3e-16"])
def test_a_run_validates_each_grid_point_once(tol, monkeypatch, tmp_path):
    """The tol_3e-16 row's run, at its tolerance and at the default: RunConfig
    validates the points of the three axes (1 + 4 + 3) and each group's batch its
    one point (one check_uin and one check_naopaka group), 10 GridAxis.params calls;
    an error line, of which only the tol_3e-16 run writes any, validates nothing again."""
    calls, params = [], GridAxis.params
    monkeypatch.setattr(GridAxis, "params", lambda axis, point: calls.append(point)
                        or params(axis, point))
    out = tmp_path / "reports.jsonl"
    argv = RUNS["tol_3e-16"][0].replace("--tol 3e-16", "").split()
    assert cli_main(["verify", *argv, *tol, "--out", str(out)]) == 0
    assert ('"error"' in out.read_text()) == bool(tol)
    assert len(calls) == 10

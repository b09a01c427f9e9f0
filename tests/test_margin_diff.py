"""The margin-diff gate's comparison core (tools/margin_diff.py) on small
synthetic outputs: what it calls a move, whose move it is, and which
allowances let it pass."""

import importlib.util
import json
import math
import os
import subprocess
from pathlib import Path

import pytest

import test_runs

_PATH = Path(__file__).resolve().parents[1] / "tools" / "margin_diff.py"
_SPEC = importlib.util.spec_from_file_location("margin_diff", _PATH)
margin_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(margin_diff)


def _report(name, seed, **detail):
    return json.dumps({"name": name, "seed": seed, "dim": 2, "len": 1, "params": {},
                       "lhs": 1.0, "rhs": 2.0, "margin": 1.0, "holds": True,
                       "norm_detail": detail}, sort_keys=True)


def _outputs(root, lines, stdout="19 report lines; overall OK\n", rc="0\n"):
    root.mkdir()
    (root / "00.jsonl").write_text("\n".join(lines) + "\n")
    (root / "00.stdout").write_text(stdout)
    (root / "00.rc").write_text(rc)
    return root


LINES = [_report("check_uin", 1, family=0.25, ky_fan_1=0.5), _report("check_cs", 2, sqrt=0.75)]


def test_an_identical_pair_has_no_move(tmp_path):
    moves = margin_diff.compare_dirs(_outputs(tmp_path / "old", LINES),
                                     _outputs(tmp_path / "new", LINES))
    assert moves == []
    assert margin_diff.report(moves, {}) == ("no move", True)


def test_a_move_passes_only_inside_its_allowance(tmp_path):
    """check_uin's family branch moves by 1e-12 and check_cs's sqrt by 1e-3;
    a changed exit code belongs to no check and no allowance passes it."""
    moved = [_report("check_uin", 1, family=0.25 + 1e-12, ky_fan_1=0.5),
             _report("check_cs", 2, sqrt=0.75 + 1e-3)]
    old = _outputs(tmp_path / "old", LINES)
    moves = margin_diff.compare_dirs(old, _outputs(tmp_path / "new", moved))
    assert [(m.check, m.branch, m.where) for m in moves] == [
        ("check_uin", "family", "00.jsonl:1"), ("check_cs", "sqrt", "00.jsonl:2")]
    assert moves[0].delta == pytest.approx(1e-12, rel=1e-3)
    assert moves[1].delta == pytest.approx(1e-3, rel=1e-9)
    for allow, ok in [({}, False), ({"check_uin": 1e-9}, False),
                      ({"check_uin": 1e-9, "check_cs": math.inf}, True),
                      ({"check_uin": 1e-13, "check_cs": 1e-2}, False)]:
        text, passed = margin_diff.report(moves, allow)
        assert passed is ok and text.endswith(
            f"2 moves, {sum(not margin_diff.allowed(m, allow) for m in moves)} outside the "
            f"allowances")
    exit_code = margin_diff.compare_dirs(old, _outputs(tmp_path / "rc", LINES, rc="1\n"))
    assert [(m.check, m.branch) for m in exit_code] == [(None, "exit code")]
    assert not margin_diff.report(exit_code, {"check_uin": math.inf})[1]


def test_an_error_a_verdict_and_a_printed_margin_are_moves_of_their_check():
    error = json.loads(LINES[1]) | {"params": {"error": "NotNormal: x"}, "holds": None,
                                    "norm_detail": {}}
    flipped = json.loads(LINES[1]) | {"holds": False}
    moves = (margin_diff.line_moves(LINES[1], json.dumps(error), "e")
             + margin_diff.line_moves(LINES[1], json.dumps(flipped), "h"))
    assert [(m.check, m.branch, m.delta) for m in moves] == [
        ("check_cs", "sqrt", math.inf), ("check_cs", "error", math.inf),
        ("check_cs", "holds", math.inf)]
    before = "check_uin              pass     3  fail    0  error    0  worst margin +0.000e+00"
    [printed] = margin_diff.line_moves(before, before.replace("+0.000e+00", "+3.5e-13"), "s")
    assert (printed.check, printed.branch, printed.delta) == ("check_uin", "printed", 3.5e-13)
    [counts] = margin_diff.line_moves(before, before.replace("pass     3", "pass     2"), "s")
    assert counts.delta == math.inf
    [text] = margin_diff.line_moves("19 report lines; overall OK", "19 report lines", "s")
    assert text.check is None


def test_the_command_list_runs_every_fixed_seed_row():
    commands = margin_diff.command_list()
    assert commands[:len(test_runs.RUNS)] == [
        ["verify", *args.split()] for args, *_ in test_runs.RUNS.values()]
    assert len(commands) == len(test_runs.RUNS) + len(margin_diff.COMMANDS)


@pytest.mark.parametrize("coretype", [None, "Prescott"])
def test_each_command_runs_from_its_tree_under_the_kernel_asked_for(coretype, tmp_path,
                                                                     monkeypatch):
    """Every command of a tree, the import check first, gets the tree's ``src`` on
    PYTHONPATH and, with ``--coretype K``, OPENBLAS_CORETYPE=K; without it, the
    caller's environment is passed on as it is."""
    tree, seen = tmp_path / "tree", []

    def run(argv, cwd, env, **kwargs):
        seen.append((argv[1:], env))
        out = str(tree / "src" / "opineq" / "__init__.py") if argv[1] == "-c" else ""
        return subprocess.CompletedProcess(argv, 0, stdout=out, stderr="")

    monkeypatch.setattr(margin_diff.subprocess, "run", run)
    commands = [["list"], ["verify", "--trials", "1"]]
    margin_diff.run_tree(tree, commands, tmp_path / "out", coretype)
    assert [argv[2:] if argv[0] == "-m" else argv[:1] for argv, _ in seen] == [
        ["-c"], ["list"], ["verify", "--trials", "1", "--out", "01.jsonl"]]
    want = os.environ.get("OPENBLAS_CORETYPE") if coretype is None else coretype
    for _, env in seen:
        assert env["PYTHONPATH"] == str(tree / "src")
        assert env.get("OPENBLAS_CORETYPE") == want
        assert {k: v for k, v in env.items() if k not in ("PYTHONPATH", "OPENBLAS_CORETYPE")} == {
            k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "OPENBLAS_CORETYPE")}

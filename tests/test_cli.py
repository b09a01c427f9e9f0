"""Command-line surface: subcommands, exit codes, artifact round trips."""

import dataclasses
import functools
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from opineq import harness
from opineq.checks import CHECK_SPECS, GRIDS
from opineq.cli import _build_parser, cli_main
from opineq.generators import (
    CHECK_NAMES, CheckInstance, build_instance, evaluate_instance, instance_from_json,
)
from opineq.hmodule import element


def test_list_prints_registry(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "check_naopaka" in out
    assert "Theorem (Naopaka)" in out
    assert len(out.strip().splitlines()) == 11


def test_verify_small_run(capsys):
    code = cli_main(["verify", "--checks", "check_cs", "--trials", "10", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check_cs" in out
    assert "overall OK" in out


def test_verify_writes_deterministic_jsonl(tmp_path, capsys):
    args = ["verify", "--checks", "check_cs,check_hs", "--trials", "3",
            "--seed", "5", "--dim", "2"]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli_main(args + ["--out", str(p1)]) == 0
    assert cli_main(args + ["--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert len(lines) == 6
    names = {json.loads(l)["name"] for l in lines}
    assert names == {"check_cs", "check_hs"}


def test_verify_exponent_flags(tmp_path, capsys):
    path = tmp_path / "interp.jsonl"
    code = cli_main(["verify", "--checks", "check_interp", "--trials", "2",
                     "--dim", "2", "--pqr", "2,2,2", "--pqr", "4/3,4/3,4/3",
                     "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == 4
    ps = sorted({l["params"]["p"] for l in lines})
    assert ps == pytest.approx([4 / 3, 2.0])


def test_verify_usage_errors(capsys):
    assert cli_main(["verify", "--checks", "check_wat"]) == 2
    assert "check_wat" in capsys.readouterr().err
    # violated exponent relation is a configuration error, not a crash
    assert cli_main(["verify", "--checks", "check_interp", "--pqr", "2,3,3"]) == 2
    capsys.readouterr()
    # argparse rejects unknown subcommands with its usage status
    assert cli_main(["frobnicate"]) == 2
    capsys.readouterr()


_SEARCHES = [  # search options, the replay's exit codes
    (["--check", "check_naopaka", "--drop", "normality", "--budget", "150", "--seed", "5",
      "--dim", "2", "--len", "2"], (0, 1)),
    (["--check", "check_uin", "--drop", "normality", "--budget", "100", "--seed", "7"], (1,)),
    *[(["--check", check, "--budget", "50", "--seed", "7"], (0,))
      for check in ("check_alpha", "check_defect", "check_interp", "check_radius_submult")],
]


def test_search_writes_replayable_instance(tmp_path, capsys):
    path = tmp_path / "instance.json"
    for argv, replayed in _SEARCHES:
        assert cli_main(["search", *argv, "--out", str(path)]) == 0
        out = capsys.readouterr().out
        drop = ("normality",) if "--drop" in argv else ()
        assert "best normalized margin" in out and f"drop: {', '.join(drop) or 'none'}" in out
        inst = instance_from_json(json.loads(path.read_text()))
        assert inst.check == argv[1] and inst.drop == drop
        replay_code = cli_main(["replay", "--instance", str(path)])
        obj = json.loads(capsys.readouterr().out)
        assert replay_code in replayed
        assert (replay_code == 0) == obj["holds"]
        assert obj["margin"] == pytest.approx(evaluate_instance(inst).margin, abs=1e-12)


@pytest.mark.parametrize("out", ["dir", "missing/w.json"])
def test_search_opens_its_out_before_the_first_evaluation(out, monkeypatch, tmp_path, capsys):
    """As verify's: a path that cannot be opened is one "cannot open" line and
    exit 1 before any of a large budget is spent."""
    def evaluated(*args, **kwargs):
        raise AssertionError("search evaluated before opening --out")

    monkeypatch.setattr(harness, "evaluate_instance", evaluated)
    (tmp_path / "dir").mkdir()
    path = str(tmp_path / out)
    assert cli_main(["search", "--check", "check_cs", "--budget", "1000000",
                     "--out", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: cannot open {path!r}: ")
    assert len(captured.err.splitlines()) == 1


def test_replay_reproduces_saved_margin(tmp_path, capsys):
    """Also at alpha = 100 without normality, past FINITE_MAX: one report line."""
    alpha = build_instance("check_alpha", 5, dim=3, length=2, drop=("normality",))
    for inst in (build_instance("check_cs", 12, dim=3, length=2),
                 build_instance("check_gruss", 11, dim=3, length=2),
                 dataclasses.replace(alpha, params={"alpha": 100})):
        want = evaluate_instance(inst)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(inst.to_json(), sort_keys=True))
        assert cli_main(["replay", "--instance", str(path)]) == 0
        captured = capsys.readouterr()
        obj = json.loads(captured.out)
        assert captured.err == "" and len(captured.out.splitlines()) == 1
        assert obj["margin"] == pytest.approx(want.margin, abs=1e-12)
        assert obj["holds"] is True


def test_a_defect_instance_just_inside_the_unit_sphere_replays_as_one_error_line(
        tmp_path, capsys):
    """Its x has ||x|| = 1 - 1.1e-16 and a float T_{x,x} with the eigenvalue 1:
    replay exits 1 with one stderr line, not a LinAlgError traceback."""
    inst = build_instance("check_defect", 52, dim=1, length=1, drop=("contraction",))
    path = tmp_path / "defect.json"
    path.write_text(json.dumps(inst.to_json(), sort_keys=True))
    assert cli_main(["replay", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: defect needs spectral radius < 1, got 1.000000\n"


@pytest.mark.parametrize("seed", range(4))
def test_a_contraction_dropped_defect_search_at_d1_runs_its_budget(seed, tmp_path, capsys):
    """Each of these searches met a singular solve and crashed; each now spends
    its budget and writes a witness that replays with exit 0 or 1."""
    path = tmp_path / "w.json"
    assert cli_main(["search", "--check", "check_defect", "--drop", "contraction", "--dim", "1",
                     "--len", "1", "--budget", "200", "--seed", str(seed), "--out", str(path)]) == 0
    captured = capsys.readouterr()
    assert "after 200 evaluations" in captured.out and captured.err == ""
    assert cli_main(["replay", "--instance", str(path)]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_replay_missing_file_is_runtime_error(capsys):
    assert cli_main(["replay", "--instance", "/nonexistent/inst.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "opineq", "list"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "check_cs" in proc.stdout


@pytest.mark.parametrize("argv, needle", [
    (["verify", "--dim", "9"], "dim 9"),
    (["verify", "--dim", "0"], "dim 0"),
    (["verify", "--len", "7"], "len 7"),
    (["verify", "--tol", "-1"], "nonnegative"),
    (["verify", "--tol", "nan"], "nonnegative"),
    (["search", "--check", "check_cs", "--dim", "0"], "dim 0"),
    (["search", "--check", "check_cs", "--len", "0"], "len 0"),
])
def test_bad_sizes_and_tolerances_are_usage_errors(argv, needle, capsys):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert needle in captured.err
    assert "overall" not in captured.out


def test_verify_with_no_evaluated_trial_is_not_ok(monkeypatch, capsys):
    from opineq import cli
    from opineq.harness import SuiteSummary

    def only_errors(cfg, writer=None):
        summary = SuiteSummary()
        for _ in range(cfg.trials):
            summary.record("check_cs", "error", None)
        return summary

    monkeypatch.setattr(cli, "run_suite", only_errors)
    assert cli_main(["verify", "--checks", "check_cs", "--trials", "3"]) == 1
    out = capsys.readouterr().out
    assert "overall NOTHING VERIFIED" in out and "overall OK" not in out


@pytest.mark.parametrize("argv", [
    ["verify", "--checks", "check_interp", "--pqr", "a,b,c"],
    ["verify", "--checks", "check_interp", "--pqr", "1/0,2,2"],
    ["verify", "--checks", "check_alpha", "--alpha", "1/0"],
    ["verify", "--checks", "check_alpha", "--alpha", "nan"],
    ["verify", "--checks", "check_interp", "--pqr", "nan,nan,nan"],
])
def test_bad_exponents_and_alphas_are_usage_errors(argv, capsys):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert "overall" not in captured.out


@pytest.mark.parametrize("check, option, value", [("check_alpha", "--alpha", "-1,2"),
                                                  ("check_interp", "--pqr", "-2,2,2"),
                                                  ("check_alpha", "--alph", "-1,2"),
                                                  ("check_alpha", "--al", "-1,2"),
                                                  ("check_interp", "--pq", "-2,2,2"),
                                                  ("check_interp", "--pq", "-2,2"),
                                                  ("check_alpha", "--alpha", "0.5,1"),
                                                  ("check_interp", "--pqr", "2,2")])
def test_a_grid_value_that_starts_with_a_minus_is_a_point(check, option, value, capsys):
    """``--alpha -1,2`` reaches the grid rule as ``--alpha=-1,2`` does, also
    under an abbreviation argparse resolves to the option; a point with the
    wrong number of numbers is refused as one."""
    errs = []
    for given in ([option, value], [f"{option}={value}"]):
        assert cli_main(["verify", "--checks", check, *given, "--trials", "1"]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] and "grid" in errs[0]
    keys = GRIDS[CHECK_SPECS[check].grid].keys
    assert ("needs one number per key" in errs[0]) == (len(value.split(",")) != len(keys))


@pytest.mark.parametrize("argv, needle", [
    (["verify", "--checks", "check_cs,check_cs", "--trials", "2", "--seed", "1"],
     "check 'check_cs' is named twice"),
    (["verify", "--checks", "check_uin", "--checks", "check_cs,check_uin", "--trials", "1"],
     "check 'check_uin' is named twice"),
    (["search", "--check", "check_uin", "--drop", "normality", "--drop", "normality",
      "--budget", "5"], "hypothesis 'normality' is dropped twice"),
])
def test_a_repeated_name_is_a_usage_error(argv, needle, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {needle}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, needle", [
    (["--checks", "check_alpha", "--alpha", "1", "--alpha", "1.0"],
     "grid point {'alpha': 1.0} is given twice"),
    (["--checks", "check_interp", "--pqr", "2,2,2", "--pqr", "2,2,2"],
     "grid point {'p': 2.0, 'q': 2.0, 'r': 2.0} is given twice"),
    (["--checks", "check_defect", "--pqr", "3,2,6", "--pqr", "3,2.0,6/1"],
     "grid point {'p': 3.0, 'q': 2.0, 'r': 6.0} is given twice"),
], ids=["alpha", "pqr", "pqr_fraction"])
def test_a_grid_point_given_twice_is_a_usage_error(argv, needle, capsys):
    assert cli_main(["verify", *argv, "--trials", "1", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {needle}\n"


@pytest.mark.parametrize("argv", [
    ["--trials", "0"],
    ["--checks", "check_alpha", "--alpha", "1", "--alpha", "1.0"],
    ["--checks", "check_cs,check_cs"],
    ["--seed", "-1"],
], ids=["trials_0", "point_twice", "check_twice", "seed_negative"])
def test_a_usage_error_leaves_an_existing_out_file_alone(argv, tmp_path, capsys):
    out = tmp_path / "reports.jsonl"
    out.write_bytes(b'{"earlier": "run"}\n')
    assert cli_main(["verify", *argv, "--out", str(out)]) == 2
    assert out.read_bytes() == b'{"earlier": "run"}\n'
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("seed", [-5, "abc", 2.5, True, 2 ** 70],
                         ids=["negative", "string", "fraction", "bool", "2^70"])
def test_replay_refuses_a_seed_outside_the_seed_rule(seed, tmp_path, capsys):
    obj = build_instance("check_cs", 12, dim=2, length=2).to_json()
    obj["seed"] = seed
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["replay", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: malformed instance: InvalidSpec: seed must be an integer "
                            f"in [0, 2^64), got {seed!r}\n")


@pytest.mark.parametrize("seed, printed", [(None, None), (3.0, 3), (2 ** 64 - 1, 2 ** 64 - 1)],
                         ids=["null", "integral_float", "largest"])
def test_replay_prints_the_seed_the_seed_rule_gives(seed, printed, tmp_path, capsys):
    obj = build_instance("check_cs", 12, dim=2, length=2).to_json()
    obj["seed"] = seed
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["replay", "--instance", str(path)]) == 0
    shown = json.loads(capsys.readouterr().out)["seed"]
    assert shown == printed and type(shown) is type(printed)


def test_replay_of_an_empty_object_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    assert cli_main(["replay", "--instance", str(path)]) == 2
    assert "malformed instance" in capsys.readouterr().err


def test_replay_of_a_non_json_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "notes.txt"
    path.write_text("not json at all\n")
    assert cli_main(["replay", "--instance", str(path)]) == 2
    assert "not a JSON file" in capsys.readouterr().err


def test_replay_with_an_overflowing_part_is_a_usage_error(tmp_path, capsys):
    obj = build_instance("check_cs", 12, dim=3, length=2).to_json()
    obj["x"]["parts"][0] = [[1e200 * re, 1e200 * im] for re, im in obj["x"]["parts"][0]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli_main(["replay", "--instance", str(path)]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "1e400", "nan"])
def test_infinite_tolerance_is_a_usage_error(value, capsys):
    assert cli_main(["verify", "--trials", "1", "--tol", value]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "overall" not in captured.out


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "1", "--seed", "-1"],
    ["verify", "--trials", "1", "--seed", str(2 ** 64)],
    ["search", "--check", "check_cs", "--budget", "3", "--seed", "-1"],
], ids=["verify_negative", "verify_2^64", "search_negative"])
def test_a_seed_outside_64_bits_is_a_usage_error(argv, capsys):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: seed must be an integer in [0, 2^64), got {int(argv[-1])}\n"
    assert captured.out == ""


@pytest.mark.parametrize("budget", ["0", "-3", "2.5", "True"])
def test_search_without_budget_is_a_usage_error(budget, capsys):
    assert cli_main(["search", "--check", "check_cs", "--budget", budget]) == 2
    assert "budget" in capsys.readouterr().err


def _gruss_without_ball_tail(obj):
    obj["ball"] = obj["ball"][:2]


def _gruss_with_a_3_number_ball(obj):
    obj["ball"] = obj["ball"][:3]


def _gruss_with_a_huge_int_bound(obj):
    obj["ball"][0] = 10 ** 400


def _gruss_without_e(obj):
    obj["e"] = None


def _gruss_without_ball(obj):
    obj["ball"] = None


def _basic_without_a(obj):
    obj["a"] = None


def _cs_with_y_in_another_context(obj):
    obj["y"]["weights"] = [2.0 * w for w in obj["y"]["weights"]]


def _alpha_with_params_as_pairs(obj):
    obj["params"] = [["alpha", 0.5]]


def _cs_with_a_list_kind(obj):
    obj["kind"] = [1]


@pytest.mark.parametrize("check, spoil, needle", [
    ("check_gruss", _gruss_without_ball_tail, "ball must be 4 finite numbers"),
    ("check_gruss", _gruss_with_a_3_number_ball, "ball must be 4 finite numbers"),
    ("check_gruss", _gruss_with_a_huge_int_bound, "ball must be 4 finite numbers"),
    ("check_gruss", _gruss_without_e, "takes operands"),
    ("check_gruss", _gruss_without_ball, "takes operands"),
    ("check_basic", _basic_without_a, "takes operands"),
    ("check_cs", _cs_with_y_in_another_context, "share one dim and weights"),
    ("check_alpha", _alpha_with_params_as_pairs, "a JSON object and kind a string, got [["),
    ("check_cs", _cs_with_a_list_kind, "a JSON object and kind a string, got {} and [1]"),
], ids=["ball_of_2", "ball_of_3", "ball_huge_int", "e_null", "ball_null", "a_null", "two_contexts",
        "params_pairs", "kind_list"])
def test_replay_rejects_an_instance_its_registry_row_does_not_fit(
        check, spoil, needle, tmp_path, capsys):
    obj = build_instance(check, 12, dim=2, length=2).to_json()
    spoil(obj)
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["replay", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed instance")
    assert needle in captured.err and len(captured.err.splitlines()) == 1


def test_overflowing_replay_prints_no_runtime_warning(tmp_path, capsys):
    obj = build_instance("check_cs", 12, dim=3, length=2).to_json()
    obj["x"]["parts"][0] = [[1e200 * re, 1e200 * im] for re, im in obj["x"]["parts"][0]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(["replay", "--instance", str(path)]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("check, params", [
    ("check_alpha", {"alpha": "abc"}),
    ("check_interp", {"p": [1]}),
    ("check_defect", {"q": True}),
    ("check_interp", {"r": float("nan")}),
    ("check_interp", {"p": 10 ** 400}),
], ids=["alpha_string", "p_list", "q_bool", "r_nan", "p_huge_int"])
def test_replay_rejects_a_grid_parameter_that_is_not_a_number(check, params, tmp_path, capsys):
    obj = build_instance(check, 12, dim=2, length=2).to_json()
    obj["params"] = params
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["replay", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed instance")
    assert "grid parameter" in captured.err and len(captured.err.splitlines()) == 1


def test_parser_is_built_once_and_keeps_nothing_between_calls(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert cli_main(["verify", "--checks", "check_alpha", "--checks", "check_defect",
                     "--alpha", "0.25", "--pqr", "4,4,4", "--trials", "1", "--seed", "1",
                     "--out", str(first)]) == 0
    assert cli_main(["verify", "--checks", "check_interp", "--checks", "check_alpha",
                     "--alpha", "1.5", "--alpha", "2",
                     "--pqr", "3,2,6", "--trials", "1", "--seed", "1",
                     "--out", str(second)]) == 0
    capsys.readouterr()

    def points(path):
        return [(line["name"], {k: v for k, v in line["params"].items() if k != "kind"})
                for line in map(json.loads, path.read_text().splitlines())]

    assert points(first) == [("check_alpha", {"alpha": 0.25}),
                             ("check_defect", {"p": 4.0, "q": 4.0, "r": 4.0})]
    assert points(second) == [("check_interp", {"p": 3.0, "q": 2.0, "r": 6.0}),
                              ("check_alpha", {"alpha": 1.5}), ("check_alpha", {"alpha": 2.0})]


def _x_weight_too_large(obj):
    obj["x"]["weights"][0] = 10 ** 400


def _y_part_too_large(obj):
    obj["y"]["parts"][1][0][1] = -10 ** 400


def _a_entry_too_large(obj):
    obj["a"][3][0] = 10 ** 400


def _infinite_dim(obj):
    obj["x"]["dim"] = float("inf")


@pytest.mark.parametrize("spoil", [_x_weight_too_large, _y_part_too_large, _a_entry_too_large,
                                   _infinite_dim], ids=["weight", "part", "a", "dim"])
def test_replay_rejects_a_number_a_float_cannot_hold(spoil, tmp_path, capsys):
    obj = build_instance("check_basic", 12, dim=2, length=2).to_json()
    spoil(obj)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["replay", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed instance")
    assert len(captured.err.splitlines()) == 1


def test_replay_of_a_spectrum_that_overflows_is_a_usage_error(tmp_path, capsys):
    obj = build_instance("check_radius_submult", 12, dim=2, length=2).to_json()
    obj["x"]["parts"][0][0] = [1e308, 0.0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["replay", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert "non-finite" in captured.err and len(captured.err.splitlines()) == 1


# values a hand-edited or corrupted instance file may hold in place of any leaf
_AWKWARD = (10 ** 400, -10 ** 400, 1e308, -1e308, float("nan"), "", "x", None, True, [], {},
            0, -0.0, 1e-320, 2 ** 63)


@functools.cache
def _built_file(check):
    return json.dumps(build_instance(check, 12, dim=2, length=2).to_json())


def _leaves(node, path=()):
    """Paths to the scalars and empty containers of a JSON tree."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    paths = [leaf for key, child in items for leaf in _leaves(child, path + (key,))]
    return paths or [path]


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_replay_of_a_mutated_instance_file_exits_cleanly(data, tmp_path):
    """One or two leaves of a built instance file replaced by awkward values:
    replay exits 0, 1 or 2, and no exception escapes."""
    obj = json.loads(_built_file(data.draw(st.sampled_from(CHECK_NAMES))))
    for path in data.draw(st.lists(st.sampled_from(_leaves(obj)), min_size=1, max_size=2,
                                   unique=True)):
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(st.sampled_from(_AWKWARD))
    target = tmp_path / "mutated.json"
    target.write_text(json.dumps(obj))
    assert cli_main(["replay", "--instance", str(target)]) in (0, 1, 2)


@pytest.mark.parametrize("dim", [2.7, "2"], ids=["fraction", "string"])
def test_replay_refuses_a_dim_that_is_not_an_integer(dim, tmp_path, capsys):
    obj = build_instance("check_cs", 12, dim=2, length=2).to_json()
    obj["x"]["dim"] = obj["y"]["dim"] = dim
    path = tmp_path / "dim.json"
    path.write_text(json.dumps(obj))
    assert cli_main(["replay", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed instance: InvalidSpec: dim must be an integer, " \
                           f"got {dim!r}\n"


@pytest.mark.parametrize("check, params", [
    ("check_alpha", {"alpha": 0.5}), ("check_defect", {}), ("check_radius_submult", {}),
])
def test_replay_refuses_a_kronecker_t_beyond_the_size_cap(check, params, tmp_path, capsys):
    x = element([0.5 * np.eye(33)])
    a = np.eye(33) if "a" in CHECK_SPECS[check].operands else None
    path = tmp_path / "big.json"
    path.write_text(json.dumps(CheckInstance(check, None, "generic", x, x, a, params=params)
                               .to_json()))
    assert cli_main(["replay", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: vectorized size 1089 exceeds cap 1024\n"


def test_search_names_an_unknown_check_as_unknown(capsys):
    assert cli_main(["search", "--check", "check_nope", "--budget", "5"]) == 2
    assert capsys.readouterr().err == "error: no check named 'check_nope'\n"
    assert cli_main(["search", "--check", "check_gruss", "--budget", "5"]) == 2
    assert capsys.readouterr().err == "error: search does not support 'check_gruss'\n"

"""Generators, batch runner, counterexample search: determinism and routing."""

import dataclasses
import errno
import io
import json
import os
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest

from opineq import cli, harness
from opineq.checks import CHECK_SPECS, GRIDS
from opineq.cli import cli_main
from opineq.core import op_norm
from opineq.errors import InvalidSpec, IOFailure, NotNormal, OpineqError, UnknownCheck
from opineq.generators import (
    CHECK_NAMES,
    CheckInstance,
    assert_hypotheses,
    build_group,
    build_instance,
    evaluate_instance,
    gen_element,
    instance_from_json,
    trial_seed,
    trial_seeds,
)
from opineq.harness import (
    RunConfig,
    SuiteSummary,
    run_suite,
    search_counterexample,
)
from opineq.hmodule import element_to_json, inner, is_normal, module_norm, right_mul
from opineq.reference import haar_unitary

JSON_KEYS = {"name", "seed", "dim", "len", "params", "lhs", "rhs", "margin",
             "holds", "norm_detail"}


def test_gen_element_validation():
    good = dict(seed=1, dim=2, length=2, kind="generic")
    gen_element(**good)
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
            gen_element(**bad)


def test_gen_element_kinds():
    normal = gen_element(3, 3, 2, "normal_commuting")
    ok, defect = is_normal(normal)
    assert ok and defect <= 1e-10
    contr = gen_element(4, 3, 2, "contractive", contraction=0.75)
    assert op_norm(inner(contr, contr)) == pytest.approx(0.75 ** 2, abs=1e-10)
    e = gen_element(5, 3, 2, "gruss")
    assert op_norm(inner(e, e) - np.eye(3)) <= 1e-12
    for part in e.parts:
        lam = part[0, 0]
        assert np.allclose(part, lam * np.eye(3))
    tiny = gen_element(6, 1, 1, "generic")
    assert tiny.parts[0].shape == (1, 1)


def test_gen_element_weights_and_determinism():
    uni = gen_element(7, 2, 3, "generic", weights_mode="uniform")
    assert uni.ctx.weights == (1.0, 1.0, 1.0)
    rnd = gen_element(7, 2, 3, "generic", weights_mode="random")
    assert all(0.1 <= w <= 2.0 for w in rnd.ctx.weights)
    again = gen_element(7, 2, 3, "generic", weights_mode="random")
    assert rnd.ctx.weights == again.ctx.weights
    assert all(np.array_equal(p, q) for p, q in zip(rnd.parts, again.parts))


@pytest.mark.parametrize("kind, check", [("generic", "check_cs"), ("normal_commuting", "check_uin"),
                                         ("contractive", "check_defect"), ("gruss", "check_gruss")])
def test_gen_element_is_the_x_of_its_kinds_first_check(kind, check):
    assert next(spec.name for spec in CHECK_SPECS.values() if spec.kind == kind) == check
    options = dict(dim=3, length=2, contraction=0.8, weights_mode="random")
    inst = build_instance(check, 11, **options)
    want = inst.e if kind == "gruss" else inst.x
    assert element_to_json(gen_element(11, kind=kind, **options)) == element_to_json(want)


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


def test_trial_index_follows_the_integer_rule():
    for index, message in ((2.7, "index must be an integer, got 2.7"),
                           (True, "index must be an integer, got True"),
                           (-1, "index must be >= 0, got -1")):
        with pytest.raises(InvalidSpec) as info:
            trial_seed(1, "check_cs", index)
        assert str(info.value) == message
    assert trial_seed(1, "check_cs", 2.0) == trial_seed(1, "check_cs", np.int64(2)) \
        == trial_seed(1, "check_cs", 2)


@pytest.mark.parametrize("check", [3, None, b"check_cs"], ids=repr)
def test_trial_check_must_be_a_string(check):
    for derive in (lambda: trial_seed(1, check, 0), lambda: trial_seeds(1, [(check, 0)])):
        with pytest.raises(InvalidSpec) as info:
            derive()
        assert str(info.value) == f"check must be a string, got {check!r}"


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
    for check in ("check_bogus", ["x"]):
        with pytest.raises(UnknownCheck):
            build_instance(check, 0)
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


def test_gen_element_takes_integers_by_the_one_rule():
    for field, value in (("seed", 1.5), ("dim", 2.7), ("length", True)):
        with pytest.raises(InvalidSpec, match="must be an integer"):
            gen_element(**{"seed": 1, "dim": 2, "length": 2, "kind": "generic", field: value})
    z = gen_element(7.0, 3.0, 2.0, "generic")
    assert (z.ctx.dim, z.ctx.length) == (3, 2) and type(z.ctx.dim) is int
    twin = gen_element(7, 3, 2, "generic")
    assert element_to_json(z) == element_to_json(twin)


BAD_SEEDS = {"negative": -1, "2^64": 2 ** 64, "fraction": 2.7, "bool": True}


@pytest.mark.parametrize("seed", BAD_SEEDS.values(), ids=BAD_SEEDS)
def test_every_route_refuses_a_seed_outside_64_bits_with_one_message(seed):
    messages = set()
    for route in (lambda: build_group("check_cs", [1, seed]),
                  lambda: build_instance("check_cs", seed),
                  lambda: gen_element(seed, 2, 2, "generic"),
                  lambda: RunConfig(trials=1, checks=("check_cs",), seed=seed),
                  lambda: trial_seed(seed, "check_cs", 0),
                  lambda: search_counterexample("check_cs", budget=3, seed=seed)):
        with pytest.raises(InvalidSpec) as info:
            route()
        messages.add(str(info.value))
    assert messages == {f"seed must be an integer in [0, 2^64), got {seed!r}"}


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_seeds_at_both_ends_of_64_bits_run(seed):
    assert build_instance("check_cs", seed).seed == seed
    z = gen_element(seed, 2, 2, "generic")
    assert element_to_json(z) == element_to_json(
        build_instance("check_cs", seed, dim=2, length=2, weights_mode="uniform").x)
    assert 0 <= trial_seed(seed, "check_cs", 0) < 2 ** 64
    summary = run_suite(RunConfig(trials=2, checks=("check_cs",), seed=seed))
    assert summary.counts["check_cs"] == {"pass": 2, "fail": 0, "error": 0}
    assert search_counterexample("check_cs", budget=3, seed=seed).evaluations == 3


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
    for check in ("check_nope", ["x"]):
        with pytest.raises(UnknownCheck):
            RunConfig(trials=1, checks=(check,))
    with pytest.raises(InvalidSpec):
        RunConfig(trials=1, checks=("check_cs",), grids={"pqr": ((2, 3, 3),)})
    with pytest.raises(InvalidSpec):
        RunConfig(trials=1, checks=("check_cs",), grids={"alpha": ((-1.0,),)})


def test_run_config_applies_the_draw_options_rule():
    # the rule build_window applies, so a bad weights mode is refused before any trial
    with pytest.raises(InvalidSpec, match="unknown weights mode 'bogus'"):
        RunConfig(trials=2, seed=1, checks=("check_cs", "check_uin"), weights_mode="bogus")


@pytest.mark.parametrize("tol", [None, "1e-8", {"tol_rel": 1e-8}])
def test_run_config_refuses_tolerances_that_are_not_a_tolerance_config(tol):
    with pytest.raises(InvalidSpec) as info:
        RunConfig(trials=1, checks=("check_cs",), tol=tol)
    assert str(info.value) == f"tol_rel must be a finite nonnegative number, got {tol!r}"


@pytest.mark.parametrize("checks", [("check_cs", "check_cs"),
                                    ["check_uin", "check_cs", "check_uin"]])
def test_a_run_refuses_a_check_named_twice(checks):
    with pytest.raises(InvalidSpec, match=f"check '{checks[0]}' is named twice"):
        RunConfig(trials=2, checks=checks)


def test_run_suite_counts_and_determinism():
    cfg = RunConfig(trials=4, checks=("check_cs", "check_interp"), seed=42)
    out1, out2 = io.StringIO(), io.StringIO()
    s1 = run_suite(cfg, out1)
    s2 = run_suite(cfg, out2)
    assert out1.getvalue() == out2.getvalue()
    assert s1.counts["check_cs"] == {"pass": 4, "fail": 0, "error": 0}
    # interp evaluates every instance at all four default exponent triples
    assert s1.counts["check_interp"]["pass"] == 4 * len(GRIDS["pqr"].points)
    assert s1.lines == 4 + 4 * len(GRIDS["pqr"].points)
    assert not s1.failed
    for line in out1.getvalue().splitlines():
        obj = json.loads(line)
        assert set(obj) == JSON_KEYS


def test_run_suite_alpha_grid():
    cfg = RunConfig(trials=2, checks=("check_alpha",), seed=9, dim=2, length=2,
                    grids={"alpha": ((1.0,), (2.0,))})
    out = io.StringIO()
    summary = run_suite(cfg, out)
    assert summary.counts["check_alpha"]["pass"] == 2 * 2
    alphas = {json.loads(l)["params"]["alpha"] for l in out.getvalue().splitlines()}
    assert alphas == {1.0, 2.0}


def test_run_suite_error_routing():
    # a zero tolerance rejects the roundoff normality defect of generated
    # normal tuples in the normality-gated check: error lines, never failures
    cfg = RunConfig(trials=5, checks=("check_uin",), seed=1, dim=3, tol=0.0)
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


def test_run_suite_file_output(tmp_path, capsys):
    path = tmp_path / "reports.jsonl"
    assert cli_main(["verify", "--checks", "check_hs", "--trials", "3", "--seed", "8",
                     "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 3 and "\n3 report lines; overall OK" in capsys.readouterr().out
    bad = str(tmp_path / "missing" / "x.jsonl")
    assert cli_main(["verify", "--trials", "1", "--out", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot open {bad!r}: [Errno") and len(err.splitlines()) == 1

    class Full:
        def write(self, text):
            raise OSError(28, "No space left on device")

    with pytest.raises(IOFailure, match=r"^cannot write report line: \[Errno 28\] No space"):
        run_suite(RunConfig(trials=1, checks=("check_cs",)), Full())


def _second_thread(patch):
    """Start a thread; the returned call ends it."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    return lambda: (stop.set(), thread.join(timeout=60))


def _local_point(patch):
    """Parse every grid number as an instance of a float subclass pickle cannot name."""
    class Local(float):
        pass

    ratio = cli._ratio
    patch.setattr(cli, "_ratio", lambda text: Local(ratio(text)))


# verify arguments, and the gate that keeps a run in one process (it may return the
# call that lifts it)
STAYS = {
    "second_thread": ("--trials 2", _second_thread),
    "local_point": ("--alpha 0.5 --alpha 3 --trials 2", _local_point),
    "one_cpu": ("--trials 2",
                lambda patch: patch.setattr(os, "sched_getaffinity", lambda pid: {0})),
    "one_trial": ("--checks check_cs --trials 1", lambda patch: None),
}


@pytest.mark.parametrize("name", STAYS)
def test_a_run_stays_in_one_process(name, monkeypatch, tmp_path, capsys):
    """With a second Python thread alive, a grid point pickle cannot send, on one
    CPU or for a window of one trial, a run forks no worker and writes what it
    writes split."""
    args, gate = STAYS[name]
    argv = ["verify", *args.split(), "--seed", "3", "--out", str(tmp_path / "split.jsonl")]
    assert cli_main(argv) == 0
    assert (harness._WORKER is None) == args.endswith("--trials 1")
    harness._close()

    forks = []

    def fork():  # a run that forks anyway stays in one process: record the call
        forks.append(1)
        raise OSError("a run forked a worker")

    with monkeypatch.context() as patch:
        release = gate(patch)
        patch.setattr(os, "fork", fork)
        try:
            assert cli_main([*argv[:-1], str(tmp_path / "alone.jsonl")]) == 0
        finally:
            if release:
                release()
    assert forks == [] and harness._WORKER is None
    assert (tmp_path / "split.jsonl").read_bytes() == (tmp_path / "alone.jsonl").read_bytes()
    capsys.readouterr()


def test_the_worker_is_sent_every_third_segment(monkeypatch):
    """The worker's part of a window is every third segment from the second, or of a
    window of one segment, the last third of its seeds; a window of one segment of
    two trials stays in the caller."""
    sent = []
    monkeypatch.setattr(harness, "_send", lambda request: sent.append(request[1]) or False)
    for checks, trials in ((tuple(CHECK_SPECS), 2), (("check_uin",), 64), (("check_uin",), 2)):
        run_suite(RunConfig(trials=trials, checks=checks, seed=0))
    assert [[(check, len(seeds)) for check, seeds, _ in part] for part in sent] == [
        [(check, 2) for check in tuple(CHECK_SPECS)[1::3]], [("check_uin", 21)]]


@pytest.mark.parametrize("checks", [("check_cs", "check_alpha"), ("check_alpha", "check_cs")],
                         ids=["worker_half", "own_half"])
@pytest.mark.parametrize("mode, action", [("warn", "error"), ("warn", "default"), ("print", None),
                                          ("call", None), ("log", None)],
                         ids=["error", "default", "print", "call", "log"])
def test_a_split_run_warns_and_raises_as_one_process_does(checks, mode, action, monkeypatch,
                                                          capfd):
    """CI's alpha = 3000 run under each numpy error mode but raise: with RuntimeWarning
    an error, split and serial runs raise the same exception, whichever part
    overflows; shown once, they show the same warnings; printed, called or logged,
    the same stderr bytes, calls or log lines.  The worker serving them was forked
    by a CLI run, under the CLI's errstate, with every warning ignored; its part
    that overflows comes back None, and the caller evaluates it again."""
    cfg = RunConfig(trials=3, checks=checks, grids={"alpha": ((0.5,), (3000.0,))}, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli_main(["verify", "--trials", "2", "--seed", "0"]) == 0
    pid, receive, replies, calls = harness._WORKER[0], harness._receive, [], []
    monkeypatch.setattr(harness, "_receive", lambda: replies.append(receive()) or replies[-1])

    class Log:
        def write(self, text):
            calls.append(text)

    handler = {"call": lambda kind, flag: calls.append((kind, flag)), "log": Log()}.get(mode)

    def run():
        for module in (m for name, m in sys.modules.items() if name.startswith("opineq")):
            vars(module).pop("__warningregistry__", None)
        calls.clear()
        capfd.readouterr()
        with np.errstate(all=mode, under="ignore", call=handler), \
                warnings.catch_warnings(record=True) as shown:
            if action:
                warnings.simplefilter(action, RuntimeWarning)
            try:
                out = io.StringIO()
                run_suite(cfg, out)
                raised = None
            except RuntimeWarning as exc:
                raised = (type(exc), str(exc))
        return raised, [(str(w.message), w.filename, w.lineno) for w in shown], \
            out.getvalue() if raised is None else None, list(calls), capfd.readouterr().err

    split = run()
    raised, shown, _, called, err = split
    assert harness._WORKER[0] == pid
    assert [reply is None for reply in replies] == [checks[1] == "check_alpha"]
    assert (raised is not None, bool(shown)) == (action == "error", action == "default")
    assert (bool(called), bool(err)) == (mode in ("call", "log"), mode == "print")
    monkeypatch.setattr(harness, "_send", lambda request: False)
    assert run() == split


def test_a_failed_fork_leaves_no_pipe_and_no_worker(monkeypatch):
    """Where the gate passes but ``os.fork`` fails, the run closes the pipes it opened
    for the worker, keeps no worker and writes what a one-process run writes."""
    cfg = RunConfig(trials=30, checks=("check_cs", "check_uin", "check_hs"), seed=9)  # 2 windows
    forks = []

    def fork():
        forks.append(1)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    def lines():
        out = io.StringIO()
        run_suite(cfg, out)
        return out.getvalue()

    fds = sorted(os.listdir("/proc/self/fd"))
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        patch.setattr(os, "fork", fork)
        failed = lines()
    assert forks and harness._WORKER is None and sorted(os.listdir("/proc/self/fd")) == fds
    monkeypatch.setattr(harness, "_send", lambda request: False)
    assert lines() == failed


@pytest.mark.parametrize("where", ["own_half", "reply"])
def test_an_interrupted_run_leaves_the_next_runs_bytes(where, monkeypatch):
    """An interrupt while this process evaluates its half drains the worker's reply,
    so the worker serves on; one while the reply is read discards the worker.
    Either way the next run writes what a one-process run writes."""
    cfg = RunConfig(trials=30, checks=("check_cs", "check_uin", "check_hs"), seed=9)  # 2 windows

    def lines():
        out = io.StringIO()
        run_suite(cfg, out)
        return out.getvalue()

    first, caller = lines(), os.getpid()
    pid, cells = harness._WORKER[0], harness._cells

    def interrupt(original):
        def call(*args):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            return original(*args)
        return call

    with monkeypatch.context() as patch:
        if where == "own_half":
            patch.setattr(harness, "_cells", interrupt(cells))
        else:
            patch.setattr(pickle, "load", interrupt(pickle.load))
        with pytest.raises(KeyboardInterrupt):
            run_suite(cfg)
    assert (harness._WORKER is not None and harness._WORKER[0] == pid) == (where == "own_half")
    assert lines() == first
    monkeypatch.setattr(harness, "_send", lambda request: False)
    assert lines() == first


def test_run_suite_without_a_writer_creates_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    summary = run_suite(RunConfig(trials=2, checks=("check_cs", "check_alpha"), seed=1))
    assert summary.lines == 2 + 2 * len(GRIDS["alpha"].points)
    assert list(tmp_path.iterdir()) == []
    assert "output_path" not in {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("outcomes, verdict", [
    (("pass", "error"), "OK"),
    (("pass", "fail", "error"), "FAIL"),
    (("fail",), "FAIL"),
    (("error", "error"), "NOTHING VERIFIED"),
    ((), "NOTHING VERIFIED"),
], ids=["pass", "fail_beside_pass", "fail", "only_errors", "empty"])
def test_suite_summary_verdict(outcomes, verdict):
    summary = SuiteSummary()
    for outcome in outcomes:
        summary.record("check_cs", outcome, None if outcome == "error" else 0.5)
    assert summary.verdict == verdict


@pytest.mark.parametrize("axis, points, point", [
    ("alpha", ((1,), (1.0,)), {"alpha": 1.0}),
    ("alpha", ((0.5,), (2.0,), (1 / 2,)), {"alpha": 0.5}),
    ("pqr", ((2, 2, 2), (4 / 3, 4 / 3, 4 / 3), (2.0, 2.0, 2.0)), {"p": 2.0, "q": 2.0, "r": 2.0}),
], ids=["alpha_int_float", "alpha_apart", "pqr"])
def test_a_run_refuses_a_grid_point_given_twice(axis, points, point):
    with pytest.raises(InvalidSpec) as info:
        RunConfig(trials=1, checks=("check_cs",), grids={axis: points})
    assert str(info.value) == f"grid point {point} is given twice"


@pytest.mark.parametrize("axis", ["alpha", "pqr"])
def test_a_run_refuses_a_grid_without_points(axis):
    with pytest.raises(InvalidSpec) as info:
        RunConfig(trials=1, checks=("check_cs",), grids={axis: ()})
    assert str(info.value) == f"the {axis} grid has no points"


def test_run_config_checks_is_a_tuple():
    with pytest.raises(InvalidSpec) as info:
        RunConfig(trials=1, checks="check_cs")
    assert str(info.value) == "checks must be a tuple or list of check names, not 'check_cs'"
    cfg = RunConfig(trials=1, checks=["check_cs", "check_uin"])
    assert cfg.checks == ("check_cs", "check_uin")
    assert hash(cfg) == hash(RunConfig(trials=1, checks=("check_cs", "check_uin")))


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


@pytest.mark.parametrize("budget, message", [
    (2.5, "budget must be an integer, got 2.5"), (True, "budget must be an integer, got True"),
    (0, "budget must be >= 1, got 0"), (-3, "budget must be >= 1, got -3")],
    ids=["fraction", "bool", "zero", "negative"])
def test_search_budget_follows_the_integer_rule(budget, message):
    with pytest.raises(InvalidSpec) as info:
        search_counterexample("check_cs", budget=budget)
    assert str(info.value) == message


_DRAWN_CHECKS = ("check_interp", "check_alpha", "check_defect", "check_radius_submult")


@pytest.mark.parametrize("check, drop", [
    (check, drop) for check in _DRAWN_CHECKS
    for drop in dict.fromkeys(((), CHECK_SPECS[check].hypotheses))])
def test_grid_and_unconditional_checks_search_at_the_default_point_and_replay(check, drop):
    """Search climbs a grid check at its axis default point, and its witness
    replays bit for bit from JSON text, with no hypothesis or all dropped."""
    result = search_counterexample(check, drop=drop, budget=200, seed=3)
    assert result.evaluations == 200 and result.instance.drop == drop
    axis = GRIDS[CHECK_SPECS[check].grid]
    params = result.report.instance["params"]
    assert tuple(params[k] for k in axis.keys) == axis.default
    text = json.dumps(result.instance.to_json(), sort_keys=True)
    rep = evaluate_instance(instance_from_json(json.loads(text)))
    assert json.dumps(rep.to_json_dict(), sort_keys=True) == json.dumps(
        result.report.to_json_dict(), sort_keys=True)


def test_search_rejects_unsupported_checks():
    with pytest.raises(UnknownCheck):
        search_counterexample("check_gruss")
    for check in ("check_bogus", ["x"]):
        with pytest.raises(UnknownCheck):
            search_counterexample(check)


def test_default_grids_satisfy_relations():
    for p, q, r in GRIDS["pqr"].points:
        assert min(p, q, r) > 1
        assert abs(1 / q + 1 / r - 2 / p) <= 1e-12
    assert all(a > 0 for (a,) in GRIDS["alpha"].points)
    for row in GRIDS.values():
        for point in row.points:
            row.params(point)


def test_search_with_no_evaluable_candidate_says_so(monkeypatch):
    def refuse(inst, tol=None):
        raise NotNormal("refused")

    monkeypatch.setattr(harness, "evaluate_instance", refuse)
    with pytest.raises(OpineqError, match="search on check_cs produced no evaluable instance"):
        search_counterexample("check_cs", budget=12, seed=1)

"""Workloads, the set-up they share, and the output-correctness gate.

opineq is driven only through its public entry points: ``cli_main`` for
``opineq verify`` and ``search_counterexample`` for search.  A workload
runs in blocks of equal work; block ``i`` of a run with seed ``s`` has
the master seed ``s * BLOCK_STRIDE + i``, so blocks never share inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

BLOCK_STRIDE = 1_000_000
MARGIN_TOL = 1e-8       # a margin below -MARGIN_TOL at scale is a violation
REFERENCE_TOL = 1e-12   # normalized margins may move this much (ROADMAP rule)

DENSE_CHECKS = ("check_cs", "check_basic", "check_hs", "check_refinement",
                "check_uin", "check_interp", "check_naopaka", "check_gruss")
SEARCH_CHECKS = ("check_cs", "check_basic", "check_uin", "check_naopaka")
UNCONDITIONAL = ("check_cs", "check_basic")
SEARCH_DROP = ("normality",)


@dataclass(frozen=True)
class VerifyWorkload:
    name: str
    args: tuple[str, ...]
    trials: int             # trials per block
    reports_per_trial: int  # grid points summed over the checks

    PASSES = 3              # timed passes over the same blocks (see run.py)
    TRACE_PAIRS_PER_S = 1.0  # untraced/traced block pairs per second of a run
    SPEED_SCALED = True     # times are scaled by the speed probe (see speed.py)


@dataclass(frozen=True)
class SearchWorkload:
    name: str
    budget: int             # evaluations per search; four searches per block

    PASSES = 1
    TRACE_PAIRS_PER_S = 1 / 30
    SPEED_SCALED = False


# Default verify: 8 single-point checks + 4 pqr (interp) + 3 alpha + 4 pqr (defect).
# Dense: 7 single-point checks + 4 pqr (interp), all at d = 6, n = 4.
# Search: the budget of acceptance criterion 12.  search_counterexample
# restarts its climb every budget // 8 evaluations, so the budget sets the
# restart share, the sigma mix and the accepted share; a smaller budget
# would time a different search (see METRICS.md).  One block of four
# searches is about 14 s at baseline.
WORKLOADS = {
    "verify_default": VerifyWorkload("verify_default", (), trials=2,
                                     reports_per_trial=19),
    "verify_dense": VerifyWorkload(
        "verify_dense", ("--dim", "6", "--len", "4", "--checks", ",".join(DENSE_CHECKS)),
        trials=5, reports_per_trial=11),
    "search_drop": SearchWorkload("search_drop", budget=5000),
}

WARM_SEED = 20180123
WARM_SEARCH_BUDGET = 12


@dataclass
class Block:
    """One block of work: its size, time, and what the gate found."""

    units: int                 # reports written or evaluations made
    seconds: float
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    output: str = ""           # digest of what the program produced, for comparisons


# --------------------------------------------------------------------------
# loading and set-up

def load_opineq() -> SimpleNamespace:
    """Import opineq afresh from the checkout's ``src``.

    Entry points are looked up on their modules at each call, so a tracer
    that rebinds module attributes sees the calls the benchmark makes.
    """
    for name in [n for n in sys.modules if n == "opineq" or n.startswith("opineq.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("opineq")
    if Path(package.__file__).resolve().parent != SRC / "opineq":
        raise ImportError(f"opineq resolved to {package.__file__}, not {SRC}")
    return SimpleNamespace(**{name: importlib.import_module(f"opineq.{name}")
                              for name in ("cli", "errors", "generators", "harness")})


def warm_up(api: SimpleNamespace) -> None:
    """One evaluation per check through verify, and one short search per
    searched check, so lazy state is built before anything is timed."""
    rc, _, _ = run_verify(api, ("--trials", "1", "--seed", str(WARM_SEED)), "warmup")
    if rc != 0:
        raise RuntimeError(f"warm-up verify exited {rc}")
    for check in SEARCH_CHECKS:
        api.harness.search_counterexample(check, drop=SEARCH_DROP,
                                         budget=WARM_SEARCH_BUDGET, seed=WARM_SEED)


def set_up() -> tuple[SimpleNamespace, float]:
    start = time.perf_counter()
    api = load_opineq()
    warm_up(api)
    return api, time.perf_counter() - start


# --------------------------------------------------------------------------
# blocks

def run_verify(api, args, tag: str) -> tuple[int, float, str]:
    """``opineq verify ARGS --out FILE``: exit code, seconds in the call, JSONL."""
    path = OUT / f"{tag}.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = api.cli.cli_main(["verify", *args, "--out", str(path)])
        seconds = time.perf_counter() - start
    return rc, seconds, path.read_text(encoding="utf-8")


def verify_block(api, wl: VerifyWorkload, seed: int) -> Block:
    args = (*wl.args, "--trials", str(wl.trials), "--seed", str(seed))
    rc, seconds, text = run_verify(api, args, wl.name)
    lines = [json.loads(line) for line in text.splitlines()]
    block = Block(units=len(lines), seconds=seconds, attempted=len(lines),
                  output=_digest(text))
    block.failed = sum(1 for line in lines if line["holds"] is not True)
    expected = wl.trials * wl.reports_per_trial
    if len(lines) != expected:
        block.problems.append(f"seed {seed}: {len(lines)} report lines, expected {expected}")
    if rc != 0:
        block.problems.append(f"seed {seed}: verify exited {rc}")
    return block


def search_block(api, wl: SearchWorkload, seed: int) -> Block:
    """Four normality-dropped searches, each ending in a witness replay
    through to_json -> JSON text -> instance_from_json -> evaluate_instance."""
    block = Block(units=0, seconds=0.0, attempted=len(SEARCH_CHECKS))
    witnesses = []
    for k, check in enumerate(SEARCH_CHECKS):
        start = time.perf_counter()
        try:
            result = api.harness.search_counterexample(
                check, drop=SEARCH_DROP, budget=wl.budget,
                seed=seed * len(SEARCH_CHECKS) + k)
        except api.errors.OpineqError as exc:
            block.seconds += time.perf_counter() - start
            block.failed += 1
            block.problems.append(f"seed {seed} {check}: search raised {exc}")
            continue
        text = json.dumps(result.instance.to_json(), sort_keys=True)
        replay = api.generators.evaluate_instance(
            api.generators.instance_from_json(json.loads(text)))
        block.seconds += time.perf_counter() - start
        block.units += result.evaluations + 1
        best = result.report.margin / result.report.scale
        witnesses.append(f"{check} {best!r} {text}")
        if (replay.margin, replay.scale) != (result.report.margin, result.report.scale):
            block.failed += 1
            block.problems.append(f"seed {seed} {check}: witness replays to "
                                  f"{replay.margin!r}, search saw {result.report.margin!r}")
        elif check in UNCONDITIONAL and best < -MARGIN_TOL:
            block.failed += 1
            block.problems.append(f"seed {seed} {check}: unconditional margin {best:+.3e}")
    block.output = _digest("\n".join(witnesses))
    return block


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_block(api, workload: str, seed: int, probe=None) -> Block:
    """One block; ``probe``, if given, runs untimed before it."""
    wl = WORKLOADS[workload]
    if probe is not None:
        probe()
    if isinstance(wl, VerifyWorkload):
        return verify_block(api, wl, seed)
    return search_block(api, wl, seed)


def block_seed(seed: int, index: int) -> int:
    return seed * BLOCK_STRIDE + index


# --------------------------------------------------------------------------
# reference: verdicts and normalized margins recorded at a fixed seed

REFERENCE_SEED = 4_242
REFERENCE_TRIALS = {"verify_default": 4, "verify_dense": 8}
REFERENCE_SEARCH_SEEDS = 8  # normality-dropped instances per searched check
RECORD_KEYS = ("name", "seed", "dim", "len", "params", "holds", "norm_detail")


def reference_records(api, workload: str) -> list[dict]:
    """What the reference pins: for verify, every report line of a fixed
    run; for search, strict=False evaluations of normality-dropped instances."""
    wl = WORKLOADS[workload]
    if isinstance(wl, VerifyWorkload):
        args = (*wl.args, "--trials", str(REFERENCE_TRIALS[workload]),
                "--seed", str(REFERENCE_SEED))
        _, _, text = run_verify(api, args, f"reference-{workload}")
        lines = [json.loads(line) for line in text.splitlines()]
    else:
        gen = api.generators
        lines = [gen.evaluate_instance(gen.build_instance(
                     check, REFERENCE_SEED * BLOCK_STRIDE + index, drop=SEARCH_DROP)
                 ).to_json_dict()
                 for check in SEARCH_CHECKS for index in range(REFERENCE_SEARCH_SEEDS)]
    return [{k: line[k] for k in RECORD_KEYS} for line in lines]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def compare_to_reference(got: list[dict], want: list[dict]) -> list[str]:
    """Verdicts must be identical and every normalized margin the reference
    holds must be within REFERENCE_TOL (relative above magnitude 1)."""
    if len(got) != len(want):
        return [f"{len(got)} reference records, expected {len(want)}"]
    problems = []
    for index, (g, w) in enumerate(zip(got, want)):
        head = {k: w[k] for k in w if k != "norm_detail"}
        if {k: g.get(k) for k in head} != head:
            problems.append(f"record {index}: {g.get('name')} seed {g.get('seed')} "
                            f"verdict or identity differs from the reference")
            continue
        for key, value in w["norm_detail"].items():
            other = g["norm_detail"].get(key)
            if other is None or abs(other - value) > REFERENCE_TOL * max(1.0, abs(value)):
                problems.append(f"record {index}: {w['name']} {key} = {other!r}, "
                                f"reference {value!r}")
    return problems


def check_reference(api, workload: str) -> tuple[int, list[str]]:
    want = json.loads(reference_path(workload).read_text(encoding="utf-8"))["records"]
    return len(want), compare_to_reference(reference_records(api, workload), want)

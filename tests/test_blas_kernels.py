"""What replays across BLAS kernels: a fixed-seed verify run and a search with its
replay, each in a subprocess under OpenBLAS's Prescott kernel and under the
machine's own, give the same verdicts, error lines and exit codes, and normalized
margins within the cross-kernel bound.

Bytes are a property of one machine and one kernel: kernels that sum in other
orders move the last bits of a margin.  The bound is 1e-12 of the larger side
(at least 1) for every check but check_interp, whose EPSILON_REG shift moves
its margins by up to about 1e-10 between kernels.  The test needs an x86-64
numpy built on a DYNAMIC_ARCH OpenBLAS, where OPENBLAS_CORETYPE picks the
kernel of one process; elsewhere it skips.
"""

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BOUND = {"check_interp": 1e-7}
DEFAULT_BOUND = 1e-12


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


pytestmark = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _dynamic_openblas(),
    reason="needs an x86-64 numpy on a DYNAMIC_ARCH OpenBLAS")


def _run(tmp: Path, coretype: str | None) -> dict:
    """Exit code, stdout and stderr of each command, and the files it wrote,
    under ``coretype`` (None: the machine's own kernel)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")])))
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    tmp.mkdir()
    commands = {"verify": ["verify", "--trials", "20", "--seed", "123", "--out", "run.jsonl"],
                "search": ["search", "--check", "check_cs", "--budget", "50", "--seed", "1",
                           "--out", "witness.json"],
                "replay": ["replay", "--instance", "witness.json"]}
    out = {}
    for name, argv in commands.items():
        done = subprocess.run([sys.executable, "-m", "opineq", *argv], cwd=tmp, env=env,
                              capture_output=True, text=True, timeout=300)
        out[name] = (done.returncode, done.stdout, done.stderr)
    out["lines"] = [json.loads(line) for line in (tmp / "run.jsonl").read_text().splitlines()]
    return out


def _assert_close(native: dict, other: dict) -> None:
    """Same verdict, error and parameters; the margin, at the scale of the larger
    side, and every normalized margin within the check's bound."""
    assert {k: v for k, v in native.items() if k not in ("lhs", "rhs", "margin", "norm_detail")} \
        == {k: v for k, v in other.items() if k not in ("lhs", "rhs", "margin", "norm_detail")}
    assert native["norm_detail"].keys() == other["norm_detail"].keys()
    if native["margin"] is None:
        assert other["margin"] is None and other["lhs"] is None and other["rhs"] is None
        return
    # the headline branch of tied Ky Fan gaps may differ, so its sides are not compared
    bound = BOUND.get(native["name"], DEFAULT_BOUND)
    size = max(abs(v) for line in (native, other) for v in (line["lhs"], line["rhs"], 1.0))
    assert abs(native["margin"] - other["margin"]) <= bound * size, native["name"]
    for key, value in native["norm_detail"].items():
        assert abs(value - other["norm_detail"][key]) <= bound, (native["name"], key)


def _masked(stdout: str) -> list[str]:
    """stdout without the margins it prints to four or seven digits."""
    return [re.sub(r"margin \S+", "margin", line) for line in stdout.splitlines()]


def test_verdicts_and_margins_replay_across_blas_kernels(tmp_path):
    native, prescott = _run(tmp_path / "native", None), _run(tmp_path / "prescott", "Prescott")
    for name in ("verify", "search", "replay"):
        assert native[name][0] == prescott[name][0] == 0, name
        assert native[name][2] == prescott[name][2] == "", name
    for name in ("verify", "search"):
        assert _masked(native[name][1]) == _masked(prescott[name][1]), name
    assert len(native["lines"]) == len(prescott["lines"]) == 20 * 19
    for line, other in zip(native["lines"], prescott["lines"]):
        _assert_close(line, other)
    # the search's witness, replayed
    _assert_close(*(json.loads(run["replay"][1]) for run in (native, prescott)))

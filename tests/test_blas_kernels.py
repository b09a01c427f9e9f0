"""The cross-kernel report: the margin-diff gate's core (tools/margin_diff.py)
runs a fixed-seed verify run and a search with its replay on this tree twice,
under the machine's own BLAS kernel and under OpenBLAS's Prescott kernel.  Every
command exits 0 with an empty stderr, and every move of the second run against
the first is within its check's cross-kernel bound.

Bytes are a property of one machine and one kernel: kernels that sum in other
orders move the last bits of a margin.  The bound is 1e-12 in a normalized
margin, or in a margin at the scale of its larger side (at least 1), for every
check but check_interp, whose EPSILON_REG shift moves its margins by up to
about 1e-10 between kernels.  The test needs an x86-64 numpy built on a
DYNAMIC_ARCH OpenBLAS, where OPENBLAS_CORETYPE picks the kernel of one process;
elsewhere it skips.
"""

import platform
from pathlib import Path

import numpy as np
import pytest

from opineq.checks import CHECK_SPECS
from test_margin_diff import margin_diff

ROOT = Path(__file__).resolve().parents[1]
ALLOW = {check: 1e-7 if check == "check_interp" else 1e-12 for check in CHECK_SPECS}
COMMANDS = ["verify --trials 20 --seed 123",
            "search --check check_cs --budget 50 --seed 1 --out witness.json",
            "replay --instance witness.json"]


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


def test_verdicts_and_margins_replay_across_blas_kernels(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    runs = {coretype: tmp_path / str(coretype) for coretype in (None, "Prescott")}
    for coretype, work in runs.items():
        margin_diff.run_tree(ROOT, [text.split() for text in COMMANDS], work, coretype)
        for k in range(len(COMMANDS)):
            assert (work / f"{k:02d}.rc").read_text() == "0\n", (coretype, COMMANDS[k])
            assert (work / f"{k:02d}.stderr").read_text() == "", (coretype, COMMANDS[k])
        assert len((work / "00.jsonl").read_text().splitlines()) == 20 * 19
    text, ok = margin_diff.report(margin_diff.compare_dirs(*runs.values()), ALLOW)
    assert ok, text

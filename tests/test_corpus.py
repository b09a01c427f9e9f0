"""Equality witnesses: closed-form instances at which a check's two sides
coincide, committed under ``tests/corpus/`` and replayed through the CLI.

A witness shows a bound sharp where a randomized pass cannot: a right-hand
side that is too large still passes every random trial, but not these.

- x = y = I (n = 1): <x, a y> = a and <x, x> = <y, y> = I, so ``check_hs``,
  ``check_refinement`` and ``check_uin`` compare a with itself.
- x = y = 0.7 I: T(a) = 0.49 a, so (I - T)^alpha a = 0.51^alpha a, which is
  (1 - <x,x>)^(alpha/2) a (1 - <y,y>)^(alpha/2) for ``check_alpha``; the
  defect operators are 0.51^(1/2) I, so both sides of ``check_defect`` are
  0.51^(1 - (1/q + 1/r)/2) ||a||_p.
- x = y (here non-normal, n = 2): r(T_{x,y})^2 = r(T_{x,x}) r(T_{y,y}), the
  ``radius_sq`` branch of ``check_radius_submult``.
"""

import json
from pathlib import Path

import pytest

from opineq.cli import cli_main

EQ_TOL = 1e-10  # equality witnesses, normalized margins
CORPUS = Path(__file__).parent / "corpus"

# witness file -> the norm_detail entries at equality (None: every entry)
WITNESSES = {
    "check_hs_identity": None,
    "check_refinement_identity": None,
    "check_uin_identity": None,
    "check_alpha_scalar_0.5": None,
    "check_alpha_scalar_1": None,
    "check_alpha_scalar_2": None,
    "check_defect_scalar": None,
    "check_radius_submult_x_eq_y": ("radius_sq",),
}


def test_every_corpus_file_is_a_witness():
    assert sorted(p.stem for p in CORPUS.glob("*.json")) == sorted(WITNESSES)


@pytest.mark.parametrize("name", WITNESSES)
def test_an_equality_witness_replays_at_zero_margin(name, capsys):
    status = cli_main(["replay", "--instance", str(CORPUS / f"{name}.json")])
    out = capsys.readouterr()
    rep = json.loads(out.out)
    assert status == 0 and rep["holds"] and out.err == ""
    assert name.startswith(rep["name"] + "_")
    keys = WITNESSES[name] or tuple(rep["norm_detail"])
    assert keys and all(abs(rep["norm_detail"][k]) <= EQ_TOL for k in keys), rep["norm_detail"]

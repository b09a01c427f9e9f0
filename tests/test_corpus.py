"""Equality witnesses: closed-form instances at which a check's two sides
coincide, committed under ``tests/corpus/`` and replayed through the CLI.

A witness shows a bound sharp where a randomized pass cannot: a right-hand
side that is too large still passes every random trial, but not these.

- x = y = I (n = 1): <x, a y> = a and <x, x> = <y, y> = I, so ``check_hs``,
  ``check_refinement``, ``check_uin`` and ``check_basic`` compare a with
  itself, and ``check_cs`` compares <x, y> = I with <x, x> = <y, y> = I.
- x = y = U, a unitary (n = 1): <x, a y> = U* a U and <x, x> = <y, y> = I,
  so both sides of ``check_uin`` are unitarily invariant norms of a.
- x = y = 0.7 I: T(a) = 0.49 a, so (I - T)^alpha a = 0.51^alpha a, which is
  (1 - <x,x>)^(alpha/2) a (1 - <y,y>)^(alpha/2) for ``check_alpha``, and at
  alpha = 1 both sides of ``check_naopaka`` are 0.51 a; the defect
  operators are 0.51^(1/2) I, so both sides of ``check_defect`` are
  0.51^(1 - (1/q + 1/r)/2) ||a||_p.
- x = y = 1e-3 I at alpha = 20000: both sides of ``check_alpha`` are
  (1 - 1e-6)^20000 a, far past the binomial series' term cap but within
  the eigen form.
- x = y (here non-normal, n = 2): r(T_{x,y})^2 = r(T_{x,x}) r(T_{y,y}), the
  ``radius_sq`` branch of ``check_radius_submult``.
- x = y an isometric stack (n = 3, d = 3, unit weights): x_t is the t-th
  d x d block of the first d columns of a Haar unitary of size nd, so
  <x, x> = sum_t x_t* x_t = I.  Then ``check_cs`` compares I with I in both
  branches, and in ``check_radius_submult`` T_{x,x}(I) = I gives the probe
  bound ||x|| ||y|| = 1 (``opnorm_gap``) besides ``radius_sq``.
- x = y = (I/sqrt 2, -I/sqrt 2) and e = (I/sqrt 2, I/sqrt 2) (n = 2, d = 3,
  unit weights), ball (-1, 1, -1, 1): <x, e> = 0, so Phi(x, a y) = <x, a x>
  = a and Phi(x, x) = <x, x> = I, and ``check_gruss``'s main branch compares
  |||a||| with itself; ||x - 0 e|| = 1 is the ball's radius, so the diameter
  bound (1/4) |||a||| |M - m| |P - p| is |||a||| too (g3 and mm).

A refutation witness shows a hypothesis needed: the same check, the
hypothesis dropped, fails by a margin known exactly.

- x = y = E12 (n = 1, d = 2, unit weight) and a = E11, normality dropped:
  <x, a y> = E21 E11 E12 = E22, but <x, x> = E22, so the right-hand side of
  ``check_uin`` is E22 E11 E22 = 0 and every Ky Fan gap is -1 at scale 1.
  x is not normal: <x, x> - <xbar, xbar> = E22 - E11 has norm 1.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from opineq.checks import GRIDS, check_uin
from opineq.cli import cli_main
from opineq.core import DEFAULT_TOL
from opineq.errors import NotNormal
from opineq.generators import build_instance, evaluate_each
from opineq.hmodule import ModuleElement, element

EQ_TOL = 1e-10  # equality witnesses, normalized margins
CORPUS = Path(__file__).parent / "corpus"

# witness file -> the norm_detail entries at equality (None: every entry)
WITNESSES = {
    "check_cs_identity": None,
    "check_basic_identity": None,
    "check_hs_identity": None,
    "check_refinement_identity": None,
    "check_uin_identity": None,
    "check_uin_unitary": None,
    "check_naopaka_scalar": None,
    "check_alpha_scalar_0.5": None,
    "check_alpha_scalar_1": None,
    "check_alpha_scalar_2": None,
    "check_alpha_small_20000": None,
    "check_defect_scalar": None,
    "check_radius_submult_x_eq_y": ("radius_sq",),
    "check_cs_isometric_stack": None,
    "check_radius_submult_isometric_stack": None,
    "check_gruss_orthogonal": None,
}

# refutation file -> (lhs, rhs) with its hypothesis dropped, and the error
# message it gets with the hypothesis kept
REFUTATIONS = {
    "check_uin_normality_e12": ((1.0, 0.0), "x has normality defect 1.000e+00"),
}


def test_every_corpus_file_is_a_witness():
    assert sorted(p.stem for p in CORPUS.glob("*.json")) == sorted([*WITNESSES, *REFUTATIONS])


@pytest.mark.parametrize("name", WITNESSES)
def test_an_equality_witness_replays_at_zero_margin(name, capsys):
    status = cli_main(["replay", "--instance", str(CORPUS / f"{name}.json")])
    out = capsys.readouterr()
    rep = json.loads(out.out)
    assert status == 0 and rep["holds"] and out.err == ""
    assert name.startswith(rep["name"] + "_")
    keys = WITNESSES[name] or tuple(rep["norm_detail"])
    assert keys and all(abs(rep["norm_detail"][k]) <= EQ_TOL for k in keys), rep["norm_detail"]


@pytest.mark.parametrize("name", REFUTATIONS)
def test_a_refutation_witness_fails_exactly_and_needs_its_hypothesis(name, capsys, tmp_path):
    (lhs, rhs), message = REFUTATIONS[name]
    path = CORPUS / f"{name}.json"
    assert cli_main(["replay", "--instance", str(path)]) == 1
    out = capsys.readouterr()
    rep = json.loads(out.out)
    assert not rep["holds"] and out.err == ""
    assert abs(rep["lhs"] - lhs) <= 1e-12 and abs(rep["rhs"] - rhs) <= 1e-12
    fans = [v for k, v in rep["norm_detail"].items() if k.startswith("ky_fan_")]
    assert fans and all(abs(v + 1.0) <= 1e-12 for v in fans), rep["norm_detail"]
    # kept, the hypothesis refuses the instance
    kept = tmp_path / "kept.json"
    kept.write_text(json.dumps({**json.loads(path.read_text()), "drop": []}))
    assert cli_main(["replay", "--instance", str(kept)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_uin_keeps_its_floor_bias_below_unit_size():
    """The comparison scale has a floor of 1 (``core.scales``), so below unit
    size tol_rel acts as an absolute 1e-8.  At x = s E12 (n = 1) and a = E11,
    <x, a x> = s^2 E22 while the right-hand side is 0, and the normality defect
    is s^2: at s = 1e-3 the hypothesis refuses x, but at s = 1e-4 both the
    defect and the margin sit within 1e-8 and the check reads ``holds``.  A
    scale-free verdict refutes it."""
    e12, e11 = np.array([[0.0, 1.0], [0.0, 0.0]]), np.diag([1.0, 0.0])
    with pytest.raises(NotNormal, match="x has normality defect 1.000e-06"):
        check_uin(element([1e-3 * e12]), element([1e-3 * e12]), e11)
    x = element([1e-4 * e12])
    rep = check_uin(x, x, e11)
    assert rep.holds and rep.scale == 1.0
    assert rep.lhs == pytest.approx(1e-8, rel=1e-12) and rep.rhs == 0.0


def test_check_interp_keeps_its_known_bias_at_a_projection():
    """Not an equality witness yet: at x = y = diag(1, 1, 0) (n = 1) the exact
    margin of ``check_interp`` is 0 at every point, but its outer powers of
    K + EPSILON_REG leave a positive bias.  Pinned at the four default points,
    with ``a`` and the context of one built instance, within 1e-12 (relative
    above magnitude 1, as the pinned reference margins), so that a change of
    the bias shows here."""
    inst = build_instance("check_interp", 5, dim=3, length=1)
    z = ModuleElement(inst.x.ctx, (np.diag([1.0, 1.0, 0.0]).astype(complex),))
    (row,) = evaluate_each([dataclasses.replace(inst, x=z, y=z)], DEFAULT_TOL, GRIDS["pqr"].points)
    bias = [1.6596596702522174e-06, 8.650491613620571e-04, 2.220048066612586e-04,
            7.895061104570767e-09]
    assert all(rep.holds for rep in row)
    assert [rep.margin / rep.scale for rep in row] == pytest.approx(bias, rel=1e-12, abs=1e-12)

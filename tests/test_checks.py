"""Inequality checks: equality witnesses, random holds, error routing."""

import numpy as np
import pytest

from opineq import checks
from opineq.checks import (
    CHECK_ANCHORS,
    check_alpha,
    check_basic,
    check_cs,
    check_defect,
    check_gruss,
    check_hs,
    check_interp,
    check_naopaka,
    check_radius_submult,
    check_refinement,
    check_uin,
)
from opineq.errors import (
    BadExponents,
    BallViolated,
    CtxMismatch,
    InvalidSpec,
    NotContractive,
    NotNormal,
)
from opineq.generators import CHECK_NAMES, build_group, trial_seed
from opineq.hmodule import (
    ModuleElement,
    element,
    inner,
    left_act,
    module_norm,
    right_mul,
)
from opineq.norms import ky_fan_profile, norm, schatten
from opineq.reference import covariance

RNG = np.random.default_rng(90210)

EQ_TOL = 1e-10  # equality witnesses, normalized margins
GRID = ((2.0, 2.0, 2.0), (3.0, 2.0, 6.0), (4.0, 4.0, 4.0), (4 / 3, 4 / 3, 4 / 3))


def _cg(d):
    return (RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))) / np.sqrt(2)


def _haar(d):
    q, r = np.linalg.qr(_cg(d))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _generic(d=2, n=2, weights=None):
    return element([_cg(d) for _ in range(n)], weights=weights)


def _pair(d=2, n=2, weights=None):
    x = _generic(d, n, weights)
    y = ModuleElement(x.ctx, tuple(_cg(d) for _ in range(n)))
    return x, y


def _normal(d=3, n=2, radius=None, unitary=None):
    u = _haar(d) if unitary is None else unitary
    parts = [u @ np.diag(RNG.standard_normal(d) + 1j * RNG.standard_normal(d)) @ u.conj().T
             for _ in range(n)]
    z = element(parts)
    if radius is not None:
        z = (radius / module_norm(z)) * z
    return z


def _margin_entries(rep):
    skip = {"sensitivity", "min_inner_eig"}
    return [v for k, v in rep.norm_detail.items() if k not in skip]


def test_anchor_registry_matches_evaluators():
    assert list(CHECK_ANCHORS) == list(CHECK_NAMES)
    assert len(CHECK_ANCHORS) == 11
    assert all(isinstance(v, str) and v for v in CHECK_ANCHORS.values())


def test_report_json_contract():
    x, y = _pair()
    rep = check_cs(x, y, digest={"seed": 5, "params": {"kind": "generic"}})
    obj = rep.to_json_dict()
    assert set(obj) == {"name", "seed", "dim", "len", "params", "lhs", "rhs",
                       "margin", "holds", "norm_detail"}
    assert obj["name"] == "check_cs" and obj["seed"] == 5
    assert obj["dim"] == 2 and obj["len"] == 2
    assert obj["params"]["kind"] == "generic"


def test_cs_unitary_equality():
    x = element([_haar(3)])
    rep = check_cs(x, x)
    assert rep.holds
    assert all(abs(v) <= EQ_TOL for v in _margin_entries(rep))


def test_cs_random_holds_and_degenerate():
    for _ in range(30):
        x, y = _pair(d=int(RNG.integers(1, 5)), n=int(RNG.integers(1, 4)))
        rep = check_cs(x, y)
        assert rep.holds and rep.margin / rep.scale >= -1e-8
    x, _ = _pair()
    zero = ModuleElement(x.ctx, tuple(np.zeros((2, 2)) for _ in range(2)))
    rep = check_cs(x, zero)
    assert rep.holds and rep.lhs == 0.0 and rep.rhs == 0.0
    with pytest.raises(CtxMismatch):
        check_cs(x, _generic(d=3))


def test_basic_identity_equality():
    x = element([np.eye(2)])
    a = _cg(2)
    rep = check_basic(x, x, a)
    assert rep.holds
    assert all(abs(v) <= EQ_TOL for v in rep.norm_detail.values())


def test_basic_single_product_oracle():
    # <x, a y> = [[0,1],[0,0]] has trace norm 1, and both bounds also equal 1
    x = element([np.diag([1.0, 0.0])])
    y = element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    rep = check_basic(x, y, np.eye(2))
    assert rep.holds
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.norm_detail["tr"]) <= EQ_TOL
    assert abs(rep.norm_detail["op"]) <= EQ_TOL


def test_basic_random_holds():
    for _ in range(30):
        w = tuple(RNG.uniform(0.1, 2.0, 2))
        x, y = _pair(d=3, n=2, weights=w)
        rep = check_basic(x, y, _cg(3))
        assert rep.holds


def test_hs_equality_and_random():
    x = element([np.eye(2)])
    rep = check_hs(x, x, _cg(2))
    assert rep.holds
    assert all(abs(v) <= EQ_TOL for v in rep.norm_detail.values())
    zero = ModuleElement(x.ctx, (np.zeros((2, 2)),))
    rep = check_hs(x, zero, _cg(2))
    assert rep.holds and rep.lhs == 0.0
    for _ in range(30):
        x, y = _pair(d=3, n=3)
        assert check_hs(x, y, _cg(3)).holds


def test_refinement_consistency_with_cs():
    x, _ = _pair(d=3, n=2)
    rep_ref = check_refinement(x, x, np.eye(3))
    rep_cs = check_cs(x, x)
    assert abs(rep_ref.norm_detail["psd"] - rep_cs.norm_detail["squared"]) <= 1e-12
    rep = check_refinement(x, x, np.zeros((3, 3)))
    assert rep.holds and rep.lhs == 0.0 and rep.rhs == 0.0
    for _ in range(30):
        x, y = _pair(d=3, n=2)
        assert check_refinement(x, y, _cg(3)).holds


def test_uin_identity_and_hermitian_equality():
    x = element([np.eye(2)])
    rep = check_uin(x, x, _cg(2))
    assert rep.holds
    assert all(abs(v) <= EQ_TOL for v in _margin_entries(rep))
    h = _cg(3)
    h = (h + h.conj().T) / 2
    xh = element([h])
    rep = check_uin(xh, xh, _cg(3))
    assert rep.holds
    assert all(abs(v) <= EQ_TOL for v in _margin_entries(rep))


def test_uin_normal_holds_and_error_routing():
    for _ in range(20):
        x = _normal(3, 2)
        y = ModuleElement(x.ctx, _normal(3, 2).parts)
        rep = check_uin(x, y, _cg(3))
        assert rep.holds
        assert f"ky_fan_{x.ctx.dim}" in rep.norm_detail
    x, y = _pair(d=2, n=2)
    with pytest.raises(NotNormal):
        check_uin(x, y, _cg(2))
    rep = check_uin(x, y, _cg(2), drop=("normality",))  # forced evaluation
    assert isinstance(rep.holds, bool)


def test_uin_trace_branch_matches_basic():
    x = _normal(3, 2)
    y = ModuleElement(x.ctx, _normal(3, 2).parts)
    a = _cg(3)
    rep_uin = check_uin(x, y, a)
    rep_basic = check_basic(x, y, a)
    assert abs(rep_uin.norm_detail["ky_fan_3"] - rep_basic.norm_detail["tr"]) <= 1e-8


def test_interp_identity_equality():
    x = element([np.eye(2)])
    rep = check_interp(x, x, _cg(2), 2.0, 2.0, 2.0)
    assert rep.holds and abs(rep.margin) <= 1e-9
    assert rep.norm_detail["sensitivity"] <= 1e-6
    assert rep.instance["params"] == {"p": 2.0, "q": 2.0, "r": 2.0}


def test_interp_psd_part_equality():
    u = _haar(3)
    h = u @ np.diag(RNG.uniform(0.5, 1.5, 3)) @ u.conj().T
    xh = element([(h + h.conj().T) / 2])
    a = _cg(3)
    for p in (2.0, 3.0):
        rep = check_interp(xh, xh, a, p, p, p)
        assert rep.holds and abs(rep.margin) <= 1e-8 * rep.scale
        # lhs is indeed ||h a h||_p
        assert rep.lhs == pytest.approx(norm(h @ a @ h, schatten(p)), rel=1e-10)


def test_interp_exponent_validation():
    x, y = _pair()
    a = _cg(2)
    with pytest.raises(BadExponents):
        check_interp(x, y, a, 2.0, 3.0, 3.0)  # 1/3 + 1/3 != 1
    with pytest.raises(BadExponents):
        check_interp(x, y, a, 1.0, 2.0, 2.0)
    with pytest.raises(BadExponents):
        check_interp(x, y, a, 2.0, 0.5, 2.0)


def test_interp_grid_holds():
    for _ in range(10):
        x, y = _pair(d=3, n=2)
        x = (1.0 / module_norm(x)) * x
        y = (1.0 / module_norm(y)) * y
        a = _cg(3)
        for p, q, r in GRID:
            rep = check_interp(x, y, a, p, q, r)
            assert rep.holds
            assert "min_inner_eig" in rep.norm_detail


def test_naopaka_scalar_equality():
    x = element([0.9 * np.eye(3)])
    rep = check_naopaka(x, x, _cg(3))
    assert rep.holds
    assert all(abs(v) <= EQ_TOL for v in _margin_entries(rep))
    zero = element([np.zeros((2, 2))])
    rep = check_naopaka(zero, zero, _cg(2))
    assert rep.holds
    assert all(abs(v) <= EQ_TOL for v in _margin_entries(rep))


def test_naopaka_normal_contractive_holds():
    for _ in range(15):
        x = _normal(3, 2, radius=0.999)
        y = ModuleElement(x.ctx, _normal(3, 2, radius=0.999).parts)
        rep = check_naopaka(x, y, _cg(3))
        assert rep.holds


def test_naopaka_hypothesis_errors():
    tight = _normal(2, 2, radius=0.9999)
    with pytest.raises(NotContractive):
        check_naopaka(tight, tight, _cg(2))
    x, y = _pair(d=2, n=2)
    x, y = (0.9 / module_norm(x)) * x, (0.9 / module_norm(y)) * y
    with pytest.raises(NotNormal):
        check_naopaka(x, y, _cg(2))
    rep = check_naopaka(x, y, _cg(2), drop=("normality",))
    assert isinstance(rep.holds, bool)


def test_the_contraction_screen_allows_tol_abs_above_its_margin():
    """<x,x> = c I passes at c = 1 - 1e-3 + 5e-11, within TOL_ABS = 1e-10 of the
    contraction margin, and is NotContractive at 1 - 1e-3 + 2e-10."""
    a = _cg(2)
    inside = element([np.sqrt(1 - 1e-3 + 5e-11) * np.eye(2)])
    assert check_naopaka(inside, inside, a).holds
    outside = element([np.sqrt(1 - 1e-3 + 2e-10) * np.eye(2)])
    with pytest.raises(NotContractive, match="top eigenvalue 0.999000, above 1 - 0.001"):
        check_naopaka(outside, outside, a)


def test_a_scalar_branch_scales_by_both_sides():
    """A scalar branch's scale is max(|lhs|, |rhs|, 1), so the normalized margin
    of a failing report is taken at its larger side."""
    for lhs, rhs in ((4.0, 2.0), (-4.0, 2.0), (2.0, -4.0), (0.5, 0.25), (-3.0, -2.0)):
        assert checks._scalar_branch(lhs, rhs) == (lhs, rhs, rhs - lhs,
                                                   max(abs(lhs), abs(rhs), 1.0))


def test_a_ky_fan_scale_takes_the_lower_sides_trace_norm():
    """check_uin without normality at x = y = E12 and a = diag(5, 2): the lower
    side <x, a y> = 5 E22 outweighs the upper E22 a E22 = 2 E22, so every Ky Fan
    gap is -3 at the scale 5 of the lower side's trace norm."""
    e12 = element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    rep = check_uin(e12, e12, np.diag([5.0, 2.0]), drop=("normality",))
    assert not rep.holds and (rep.lhs, rep.rhs, rep.margin, rep.scale) == (5.0, 2.0, -3.0, 5.0)
    assert rep.norm_detail["family"] == rep.norm_detail["ky_fan_2"] == -0.6


def test_drop_skips_only_the_named_hypotheses():
    x, y = _pair(d=2, n=2)
    x, y = (1.0 / module_norm(x)) * x, (0.9 / module_norm(y)) * y
    with pytest.raises(NotContractive):
        check_naopaka(x, y, _cg(2), drop=("normality",))
    assert isinstance(check_naopaka(x, y, _cg(2), drop=("normality", "contraction")).holds, bool)


@pytest.mark.parametrize("drop", ["normality", ("bogus",), None, 5, {"normality"}],
                         ids=["bare_string", "unknown", "none", "int", "set"])
def test_drop_must_be_a_sequence_of_known_hypotheses(drop):
    x, y = _pair(d=2, n=2)
    with pytest.raises(InvalidSpec):
        check_uin(x, y, _cg(2), drop=drop)


def test_alpha_one_matches_naopaka():
    x = _normal(3, 2, radius=0.99)
    y = ModuleElement(x.ctx, _normal(3, 2, radius=0.99).parts)
    a = _cg(3)
    rep1 = check_alpha(x, y, a, 1.0)
    rep0 = check_naopaka(x, y, a)
    assert abs(rep1.margin - rep0.margin) <= 1e-12 * rep0.scale
    for key in ("ky_fan_1", f"ky_fan_{3}", "hilbert_schmidt", "family"):
        assert rep1.norm_detail[key] == pytest.approx(rep0.norm_detail[key], abs=1e-12)


def test_alpha_scalar_equality_and_validation():
    x = element([0.8 * np.eye(2)])
    rep = check_alpha(x, x, _cg(2), 2.0)
    assert rep.holds
    assert all(abs(v) <= EQ_TOL for v in _margin_entries(rep))
    assert rep.instance["params"]["alpha"] == 2.0
    with pytest.raises(ValueError):
        check_alpha(x, x, np.eye(2), 0.0)
    with pytest.raises(ValueError):
        check_alpha(x, x, np.eye(2), -0.5)


def test_alpha_half_holds():
    for _ in range(10):
        x = _normal(3, 2, radius=0.99)
        y = ModuleElement(x.ctx, _normal(3, 2, radius=0.99).parts)
        assert check_alpha(x, y, _cg(3), 0.5).holds


def test_defect_degenerate_and_scalar_oracle():
    zero = element([np.zeros((2, 2))])
    a = _cg(2)
    rep = check_defect(zero, zero, a, 2.0, 2.0, 2.0)
    assert rep.holds and abs(rep.margin) <= EQ_TOL * rep.scale
    assert rep.lhs == pytest.approx(norm(a, schatten(2)), rel=1e-10)
    x = element([0.8 * np.eye(2)])
    rep = check_defect(x, x, a, 2.0, 2.0, 2.0)
    assert rep.holds and abs(rep.margin) <= EQ_TOL * rep.scale
    want = np.sqrt(1 - 0.64) * norm(a, schatten(2))
    assert rep.lhs == pytest.approx(want, rel=1e-8)
    assert rep.rhs == pytest.approx(want, rel=1e-8)


def test_defect_random_grid_holds():
    for _ in range(8):
        x, y = _pair(d=3, n=2)
        x = (0.85 / module_norm(x)) * x
        y = (0.85 / module_norm(y)) * y
        a = _cg(3)
        for p, q, r in GRID:
            rep = check_defect(x, y, a, p, q, r)
            assert rep.holds
            assert rep.instance["params"] == {"p": p, "q": q, "r": r}


def test_defect_errors():
    x, y = _pair()
    a = _cg(2)
    with pytest.raises(BadExponents):
        check_defect(x, y, a, 2.0, 3.0, 3.0)
    unit = element([np.eye(2)])
    with pytest.raises(NotContractive):
        check_defect(unit, unit, a, 2.0, 2.0, 2.0)


def _gruss_family(d=2, n=2, seed_shift=0):
    """Scalar unit reference plus shared-unitary commuting tuples."""
    e = element([0.6 * np.eye(d), 0.8j * np.eye(d)])
    u = _haar(d)
    def member(center, spread):
        z = _normal(d, n, unitary=u)
        z = ModuleElement(e.ctx, z.parts)
        z = (1.0 / module_norm(z)) * z
        return right_mul(e, center * np.eye(d)) + spread * z
    return e, member


def test_gruss_reference_annihilation():
    e, member = _gruss_family()
    y = member(0.4, 0.2)
    rep = check_gruss(e, y, _cg(2), e)
    assert rep.holds and rep.lhs == 0.0


def test_gruss_cs_consistency_equality():
    e, member = _gruss_family()
    x = member(0.5, 0.3)
    rep = check_gruss(x, x, np.eye(2), e)
    assert rep.holds
    assert all(abs(v) <= EQ_TOL for v in _margin_entries(rep))


def test_gruss_ball_branch_against_profile_oracle():
    e, member = _gruss_family()
    x = member(0.5, 0.3)
    y = member(0.5, 0.25)
    a = _cg(2)
    ball = (0, 1, 0, 1)  # recorded as the floats it is evaluated at
    rep = check_gruss(x, y, a, e, ball)
    assert rep.holds
    recorded = rep.instance["params"]["ball"]
    assert recorded == [0.0, 1.0, 0.0, 1.0] and all(type(v) is float for v in recorded)
    # re-derive the diameter-bound margins: rhs is the profile of |a| / 4
    lo = covariance(x.ctx.weights, x.parts, left_act(a, y).parts, e.parts)
    pl, ph = ky_fan_profile(lo), ky_fan_profile(0.25 * a)
    scale = max(pl[-1], ph[-1], 1.0)
    for k in range(2):
        want = (ph[k] - pl[k]) / scale
        assert rep.norm_detail[f"mm_ky_fan_{k + 1}"] == pytest.approx(want, abs=1e-12)


def test_gruss_ball_violation():
    e, member = _gruss_family()
    x = member(0.1, 0.3)
    y = member(0.1, 0.05)
    with pytest.raises(BallViolated):
        check_gruss(x, y, _cg(2), e, (0.0, 0.2, 0.0, 0.2))


def test_gruss_rejects_nonscalar_reference():
    # a diagonal position-dependent unit reference is outside the certified
    # family even though <e,e> = I holds
    e = element([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    x = ModuleElement(e.ctx, (np.diag([0.3, 0.1]), np.diag([0.2, 0.4])))
    with pytest.raises(NotNormal):
        check_gruss(x, x, _cg(2), e)
    rep = check_gruss(x, x, _cg(2), e, drop=("normality",))
    assert isinstance(rep.holds, bool)


def test_gruss_rejects_noncommuting_and_mismatch():
    e, member = _gruss_family()
    bad = ModuleElement(e.ctx, tuple(_cg(2) for _ in range(2)))
    with pytest.raises(NotNormal):
        check_gruss(bad, member(0.2, 0.1), _cg(2), e)
    with pytest.raises(CtxMismatch):
        check_gruss(_generic(d=3), member(0.2, 0.1), _cg(2), e)


@pytest.mark.parametrize("ball", [(0, 1, 0), ("a", 1, 0, 1), (0, 1, 0, 1, 2), (np.nan, 1, 0, 1),
                                  (0, 1, 0, True), (10 ** 400, 1, 0, 1), 0.5],
                         ids=["three", "string", "five", "nan", "bool", "huge_int", "scalar"])
def test_gruss_rejects_a_malformed_ball(ball):
    e, member = _gruss_family()
    x = member(0.5, 0.3)
    with pytest.raises(InvalidSpec, match="ball must be 4 finite numbers"):
        check_gruss(x, x, np.eye(2), e, ball)


def test_radius_submult():
    x, _ = _pair(d=3, n=2)
    rep = check_radius_submult(x, x)
    assert rep.holds and abs(rep.norm_detail["radius_sq"]) <= EQ_TOL
    c = 1.3 - 0.7j
    xs = element([c * np.eye(2)])
    ys = element([np.eye(2)])
    rep = check_radius_submult(xs, ys)
    assert rep.holds and abs(rep.norm_detail["radius_sq"]) <= EQ_TOL
    for _ in range(15):
        x, y = _pair(d=3, n=2)
        rep = check_radius_submult(x, y)
        assert rep.holds
        assert rep.norm_detail["opnorm_gap"] >= -1e-10


def test_scale_equivariance_in_a():
    s = 3.7
    x = _normal(3, 2, radius=0.99)
    y = ModuleElement(x.ctx, _normal(3, 2, radius=0.99).parts)
    a = _cg(3)
    for checker in (check_basic, check_uin, check_naopaka):
        rep1 = checker(x, y, a)
        rep2 = checker(x, y, s * a)
        assert rep2.lhs == pytest.approx(s * rep1.lhs, rel=1e-8)
        assert rep2.rhs == pytest.approx(s * rep1.rhs, rel=1e-8)
        # normalized margins are scale-free
        for key, v in rep1.norm_detail.items():
            assert rep2.norm_detail[key] == pytest.approx(v, abs=1e-10)


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
@pytest.mark.parametrize("check", [check_interp, check_defect])
def test_large_schatten_exponents_give_finite_verdicts(check):
    """At p = q = r = 800 the Schatten sums overflowed: check_interp passed with
    an infinite margin and check_defect failed 3 of these 20 trials."""
    name = check.__name__
    for inst in build_group(name, [trial_seed(1, name, i) for i in range(20)]):
        rep = check(inst.x, inst.y, inst.a, 800.0, 800.0, 800.0, drop=inst.drop) \
            if name == "check_defect" else check(inst.x, inst.y, inst.a, 800.0, 800.0, 800.0)
        assert rep.holds
        assert all(np.isfinite(v) for v in (rep.lhs, rep.rhs, rep.margin,
                                            *rep.norm_detail.values()))

"""The reference module's plain forms give what the check kernels give: Fan
dominance and the PSD order bit for bit, (I - T)^alpha bit for bit when the
series is fed the engine's Kronecker step and within a stated bound when it
applies T term by term."""

import dataclasses

import numpy as np
import pytest

from opineq import reference, transformer
from opineq.checks import GRIDS, check_refinement, check_uin
from opineq.core import ct, eig_powers, herm, op_norm, psd_eigs, psd_powers, svdvals
from opineq.generators import build_group, build_instance, evaluate_instance
from opineq.hmodule import module_norm, weighted_products
from opineq.norms import fan_gaps
from opineq.reference import fan_dominance_leq, psd_order_leq
from opineq.transformer import ElementaryOperator, applied, fractional_power_exact


def _products(x, y, a):
    """T(a) = <x, a y> as the kernels form it, on stacks of one."""
    return applied(x.stack.weights, x.stack.parts, y.stack.parts, a[None])


@pytest.mark.parametrize("seed", range(8))
def test_fan_dominance_is_check_uin_family(seed):
    inst = build_instance("check_uin", seed)
    x, y, a = inst.x, inst.y, inst.a
    roots = [psd_powers(herm(z.stack.gram), 0.5) for z in (x, y)]
    lo, hi = _products(x, y, a)[0], (roots[0] @ a[None] @ roots[1])[0]
    holds, k, margin = fan_dominance_leq(lo, hi)
    rep = check_uin(x, y, a)
    assert (rep.holds, rep.margin) == (holds, margin)
    assert rep.norm_detail[f"ky_fan_{k}"] == margin / rep.scale


@pytest.mark.parametrize("seed", range(8))
def test_psd_order_is_check_refinement_branch(seed):
    inst = build_instance("check_refinement", seed)
    x, y, a = inst.x, inst.y, inst.a
    m = _products(x, y, a)
    aha = (ct(a[None]) @ a[None])[:, None]
    hi = module_norm(x) ** 2 * weighted_products(y.stack.weights, y.stack.parts,
                                                 aha @ y.stack.parts)
    lo, hi = (ct(m) @ m)[0], hi[0]
    holds, margin = psd_order_leq(lo, hi)
    rep = check_refinement(x, y, a)
    assert (rep.holds, rep.margin) == (holds, margin)
    assert rep.scale == max(op_norm(lo), op_norm(hi), 1.0)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
@pytest.mark.parametrize("drop", [(), ("normality",)], ids=["normal", "non_normal"])
def test_fractional_power_exact_is_check_alpha_rhs(alpha, drop, monkeypatch, kron_series):
    calls = []

    def counted(*args):
        calls.append(args)
        return reference.binomial_series(*args)

    monkeypatch.setattr(transformer, "fractional_power_apply", counted)
    eye = np.eye(3)
    for seed in range(6):
        inst = build_instance("check_alpha", seed, dim=3, length=2, drop=drop)
        x, y, a = inst.x, inst.y, inst.a
        dx, dy = (psd_eigs(herm(eye - herm(z.stack.gram))) for z in (x, y))
        lo = (eig_powers(*dx, alpha / 2) @ a[None] @ eig_powers(*dy, alpha / 2))[0]
        hi = fractional_power_exact(ElementaryOperator(x, y), alpha, a)
        if drop:
            series = kron_series(x, y, a, alpha)
            if alpha.is_integer():  # the terminating series is the oracle's sum, bit for bit
                assert np.array_equal(hi, series)
            else:  # the eigen form, within the two sums' tail bounds
                assert op_norm(hi - series) <= 2 * reference.SERIES_TAIL * op_norm(a)
        _, _, gaps, scale = fan_gaps(svdvals(lo), svdvals(hi))
        inst = dataclasses.replace(inst, params={**inst.params, **GRIDS["alpha"].params((alpha,))})
        rep = evaluate_instance(inst)
        assert [rep.norm_detail[f"ky_fan_{k + 1}"] for k in range(3)] == (gaps / scale).tolist()
        assert rep.margin == gaps.min()
    # the engine never calls the oracle
    assert calls == []


@pytest.mark.parametrize("drop", [(), ("normality",)], ids=["normal", "non_normal"])
def test_term_by_term_series_agrees_with_the_engine(drop):
    """The reference series with T applied term by term and its own gamma
    against fractional_power_exact (eigen form or stacked Kronecker series).
    Both sums stop at tail bounds of SERIES_TAIL ||a||, so they may differ by
    twice that; integer alpha terminates, leaving only roundoff.  Measured on
    these 2 x 360 cases, in units of ||a||: for non-integer alpha 2.0e-12
    (normal) and 6.8e-15 (non-normal), both the eigen form, for integer alpha
    8.0e-16 and 5.9e-16; on twice the seeds, 5.0e-11, 1.4e-11, 8.8e-16 and
    1.1e-15."""
    worst = {False: 0.0, True: 0.0}
    for dim in range(1, 7):
        for inst in build_group("check_alpha", list(range(10)), dim=dim, contraction=0.9,
                                drop=drop):
            operands = (inst.x.ctx.weights, inst.x.parts, inst.y.parts)
            step, gamma = reference.transformer(*operands), reference.gamma(*operands)
            for alpha in (0.5, 1.0, 2.0, 1.5, 1 / 3, 3.0):
                want = reference.binomial_series(step, inst.a, alpha, gamma)
                got = fractional_power_exact(ElementaryOperator(inst.x, inst.y), alpha, inst.a)
                gap = op_norm(got - want) / op_norm(inst.a)
                worst[alpha.is_integer()] = max(worst[alpha.is_integer()], gap)
    assert worst[False] <= 2 * reference.SERIES_TAIL
    assert worst[True] <= 1e-14

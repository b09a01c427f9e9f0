"""The per-matrix entry points give, bit for bit, what the check kernels give:
Fan dominance, the PSD order and (I - T)^alpha each have one implementation."""

import dataclasses

import numpy as np
import pytest

from opineq import transformer
from opineq.checks import GRIDS, check_refinement, check_uin
from opineq.core import ct, eig_powers, herm, op_norm, psd_eigs, psd_order_leq, psd_powers, svdvals
from opineq.generators import build_instance, evaluate_instance
from opineq.hmodule import module_norm, weighted_products
from opineq.norms import fan_dominance_leq, fan_gaps
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
def test_fractional_power_exact_is_check_alpha_rhs(alpha, drop, monkeypatch):
    calls = []
    series = transformer.fractional_power_apply

    def counted(*args):
        calls.append(args)
        return series(*args)

    monkeypatch.setattr(transformer, "fractional_power_apply", counted)
    eye = np.eye(3)
    for seed in range(6):
        inst = build_instance("check_alpha", seed, dim=3, length=2, drop=drop)
        x, y, a = inst.x, inst.y, inst.a
        dx, dy = (psd_eigs(herm(eye - herm(z.stack.gram))) for z in (x, y))
        lo = (eig_powers(*dx, alpha / 2) @ a[None] @ eig_powers(*dy, alpha / 2))[0]
        hi = fractional_power_exact(ElementaryOperator(x, y), alpha, a)
        if drop:  # the engine's stacked series is the oracle's sum, bit for bit
            assert np.array_equal(hi, series(ElementaryOperator(x, y), alpha, a))
        _, _, gaps, scale = fan_gaps(svdvals(lo), svdvals(hi))
        inst = dataclasses.replace(inst, params={**inst.params, **GRIDS["alpha"].params((alpha,))})
        rep = evaluate_instance(inst)
        assert [rep.norm_detail[f"ky_fan_{k + 1}"] for k in range(3)] == (gaps / scale).tolist()
        assert rep.margin == gaps.min()
    # the engine never calls the oracle
    assert calls == []

"""Hypothesis verdicts are decided by a Frobenius screen first and the SVD
only where the screen leaves them open; either way each verdict and each
error message is what the SVD alone gives.  Also: the stacked
weighted products are bit for bit the per-part loop, and the probe set
is built once per dimension."""

import math

import numpy as np
import pytest

from opineq import checks, transformer
from opineq.core import DEFAULT_TOL, ct, op_norms
from opineq.generators import build_group
from opineq.hmodule import (
    ModuleContext, ModuleElement, Stack, is_normal, require_units, weighted_products, within,
)

RATIOS = (0.3, 0.5, 0.9, 1.1, 3.0)
TOLS = (0.0, 1e-8, 1e-3)
WEIGHTS = (0.7, 1.3)


def _cgauss(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def _unitary(rng, d):
    q, _ = np.linalg.qr(_cgauss(rng, (d, d)))
    return q


def _svd_normality(parts, w=WEIGHTS):
    """(defect, scale) of the normality hypothesis, from plain numpy."""
    g = sum(wt * p.conj().T @ p for wt, p in zip(w, parts))
    gbar = sum(wt * p @ p.conj().T for wt, p in zip(w, parts))
    mats = [g @ p - p @ g for p in parts] + [g - gbar]
    nx = math.sqrt(np.linalg.norm(g, 2))
    return max(np.linalg.norm(m, 2) for m in mats), max(1.0, nx**2, nx**3)


def _verdicts(errors):
    """A predicate's per-element entries as None or (type name, message)."""
    return [None if e is None else (type(e).__name__, str(e)) for e in errors]


def _element_at(ratio, tol, seed, d=3):
    """A length-2 element whose normality defect is ``ratio * tol`` at its
    scale: a normal element moved along a fixed direction, by bisection;
    at tol 0 an exactly normal (real diagonal) element."""
    rng = np.random.default_rng(seed)
    if tol == 0:
        return ModuleElement(ModuleContext(d, WEIGHTS),
                             tuple(np.diag(rng.standard_normal(d)) for _ in WEIGHTS))
    u = _unitary(rng, d)
    normal = [u @ np.diag(_cgauss(rng, d)) @ u.conj().T for _ in WEIGHTS]
    bump = [_cgauss(rng, (d, d)) for _ in WEIGHTS]

    def parts(eps):
        return [p + eps * b for p, b in zip(normal, bump)]

    def excess(eps):
        defect, scale = _svd_normality(parts(eps))
        return defect / scale - ratio * tol

    lo, hi = 0.0, 1.0
    assert excess(hi) > 0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
    return ModuleElement(ModuleContext(d, WEIGHTS), tuple(parts(hi)))


@pytest.mark.parametrize("tol", TOLS)
def test_normality_verdicts_and_messages_are_the_svds(tol):
    xs = [_element_at(ratio, tol, seed) for seed, ratio in enumerate(RATIOS)]
    if tol == 0:  # a frame-normal element: roundoff defect, rejected at tol 0
        rng = np.random.default_rng(99)
        u = _unitary(rng, 3)
        xs.append(ModuleElement(ModuleContext(3, WEIGHTS), tuple(
            u @ np.diag(_cgauss(rng, 3)) @ u.conj().T for _ in WEIGHTS)))
    x = Stack.of(xs)
    # the SVD alone, on every element: the verdict before the screen
    svd = op_norms(x.normality_defects).max(axis=-1)
    scale = np.array([_svd_normality(z.parts)[1] for z in xs])
    expected = svd <= tol * scale
    if tol > 0:
        for z, ratio, defect, sc in zip(xs, RATIOS, svd, scale):
            assert defect / sc == pytest.approx(ratio * tol, rel=1e-6)
            assert defect == pytest.approx(_svd_normality(z.parts)[0], rel=1e-10)
    else:
        assert list(expected) == [True] * len(RATIOS) + [False]
    ok, _ = x.is_normal(tol)
    assert ok.tolist() == expected.tolist()
    assert [is_normal(z, tol) for z in xs] == [(bool(v), float(s)) for v, s in zip(expected, svd)]
    y = Stack.of([_element_at(0.0, 0.0, 50 + k) for k in range(len(xs))])
    assert _verdicts(checks._require_normal(x, y, tol)) == [
        None if ok else ("NotNormal", f"x has normality defect {v:.3e}")
        for ok, v in zip(expected, svd)]


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", [1, 3])
def test_unit_reference_verdicts_and_messages_are_the_svds(tol, d):
    # scalar references with <e, e> = (1 + ratio * tol) I
    lam = np.array([[math.sqrt((1 + ratio * tol) / 2)] * 2 for ratio in RATIOS])
    lam[0] = (1.0, 0.0)  # exactly a unit reference
    lam[1] = (0.6, 0.8)
    es = Stack(np.ones((len(RATIOS), 2)), lam[..., None, None] * np.eye(d))
    svd = op_norms(es.gram - np.eye(d))
    expected = svd <= tol
    assert expected[0]
    assert _verdicts(require_units(es, tol)) == [
        None if ok else ("NotUnital", f"<e, e> deviates from the identity by {v:.3e}")
        for ok, v in zip(expected, svd)]


@pytest.mark.parametrize("tol", TOLS + (1e-300,))
def test_the_screen_never_changes_a_verdict(tol):
    rng = np.random.default_rng(5)
    # two raw sizes per element, some below 1: its scale is the larger, at least 1
    sizes = np.array([[0.5, 1.0], [1.5, 0.2], [0.1, 0.3], [2.0, 1.9], [0.0, 1.0],
                      [0.5, 0.5], [1.0, 0.0]])
    scales = np.maximum(sizes.max(axis=1), 1.0)
    mats = []
    for ratio, s in zip(RATIOS, scales):
        u, v = _cgauss(rng, 4), _cgauss(rng, 4)
        rank_one = np.outer(u / np.linalg.norm(u), v.conj() / np.linalg.norm(v))
        full = _cgauss(rng, (4, 4))
        full /= np.linalg.norm(full, 2)
        mats.append([ratio * tol * s * rank_one, ratio * tol * s * full])
    mats.append([np.zeros((4, 4)), 1e-170 * _cgauss(rng, (4, 4))])  # squares underflow
    mats.append([np.zeros((4, 4)), np.zeros((4, 4))])
    defects = np.array(mats)
    svd = op_norms(defects).max(axis=-1)
    opened = []

    def size(rows):
        opened.extend(rows.tolist())
        return sizes[rows, 0], sizes[rows, 1]

    ok, defect = within(defects, tol, size)
    assert ok.tolist() == (svd <= tol * scales).tolist()
    assert np.array_equal(defect[opened], svd[opened])
    assert np.isnan(np.delete(defect, opened)).all()
    assert len(defects) - 1 not in opened  # an exactly zero defect never needs the SVD


def test_a_screen_takes_its_scale_at_one_below_unit_size():
    """Two defects of operator norm 4e-9, given size 0.1: the scale is 1, so
    both pass at tol 1e-8, the rank-one one by the Frobenius screen and
    4e-9 I by the SVD.  A scale of 0.1 would pass the first and not the second."""
    rank_one = np.zeros((4, 4), dtype=complex)
    rank_one[0, 0] = 4e-9
    defects = np.array([[rank_one], [4e-9 * np.eye(4, dtype=complex)]])
    opened = []

    def size(rows):
        opened.extend(rows.tolist())
        return (np.full(len(rows), 0.1),)

    ok, defect = within(defects, 1e-8, size)
    assert ok.tolist() == [True, True]
    assert opened == [1] and defect[1] == pytest.approx(4e-9, rel=1e-12)
    assert within(defects, 1e-8)[0].tolist() == [True, True]


def test_a_normal_frame_group_decides_normality_without_svd(monkeypatch):
    insts = build_group("check_uin", [11, 12, 13, 14, 15], dim=4, length=3)
    x, y = Stack.of([inst.x for inst in insts]), Stack.of([inst.y for inst in insts])
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert checks._require_normal(x, y, DEFAULT_TOL) == [None] * len(insts)
    assert calls == []
    # at tol 0 the screen leaves roundoff open: each element fails, as it does alone
    errors = _verdicts(checks._require_normal(x, y, 0.0))
    assert calls
    assert all(e is not None and e[0] == "NotNormal" for e in errors)
    assert errors == [_verdicts(checks._require_normal(i.x.stack, i.y.stack, 0.0))[0]
                      for i in insts]


def _per_part(w, xs, ys):
    """The loop weighted_products replaced: one product per part."""
    acc = np.zeros(xs.shape[:-3] + xs.shape[-2:], dtype=complex)
    for t in range(xs.shape[-3]):
        acc += w[..., t, None, None] * (ct(xs[..., t, :, :]) @ ys[..., t, :, :])
    return acc


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("b", [1, 5])
@pytest.mark.parametrize("n", [1, 4])
def test_weighted_products_are_the_per_part_loop(b, n):
    rng = np.random.default_rng(100 * b + n)
    d = 3
    w = rng.uniform(0.1, 2.0, (b, n))
    xs, ys = _cgauss(rng, (b, n, d, d)), _cgauss(rng, (b, n, d, d))
    # scalar-reference parts lam_t I: off-diagonal terms are signed zeros
    lam = _cgauss(rng, (b, n))
    lam[..., 0] = -1.0 - 1.0j
    es = lam[..., None, None] * np.eye(d)
    for left, right in ((xs, ys), (xs, es), (es, ys), (es, es), (es, -es)):
        assert _bits(weighted_products(w, left, right)) == _bits(_per_part(w, left, right))
        assert _bits(weighted_products(w[0], left[0], right[0])) == _bits(
            _per_part(w[0], left[0], right[0]))
    # the case the order of summation decides: -0.0 terms sum to +0.0.  The
    # off-diagonal products of es are exact zeros whose sign the BLAS kernel picks;
    # weights of both signs make one of each pair -0.0 on every kernel
    signed, left, right = np.stack([w, -w]), np.stack([es, es]), np.stack([-es, -es])
    terms = (signed[..., None, None] * (ct(left) @ right)).view(float)
    assert (np.signbit(terms) & (terms == 0)).any()
    total = weighted_products(signed, left, right)
    assert _bits(total) == _bits(_per_part(signed, left, right))
    total = total.view(float)
    assert not (np.signbit(total) & (total == 0)).any()


def test_the_probe_set_is_built_once_per_dimension_read_only():
    rng = np.random.default_rng(8)
    for d in (1, 2, 4):
        rep = _cgauss(rng, (3, d * d, d * d))
        first = transformer.probe_lower_bounds(rep)
        probes_vec, norms = transformer._probes(d)
        assert transformer._probes(d)[0] is probes_vec
        assert not probes_vec.flags.writeable and not norms.flags.writeable
        # the probe set as it was built on every call, from its seed
        gauss = np.random.default_rng(transformer._PROBE_SEED).standard_normal(
            (transformer.PROBE_SAMPLES, 2, d, d))
        probes = np.concatenate([np.eye(d, dtype=complex)[None],
                                 (gauss[:, 0] + 1j * gauss[:, 1]) / np.sqrt(2.0)])
        fresh = probes.transpose(0, 2, 1).reshape(-1, d * d)
        assert _bits(fresh) == _bits(probes_vec)
        assert _bits(np.linalg.norm(probes, ord=2, axis=(1, 2))) == _bits(norms)
        assert _bits(transformer.probe_lower_bounds(rep)) == _bits(first)

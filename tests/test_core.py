"""Matrix coercion, Hermitian eigencalculus and the PSD order."""

import numpy as np
import pytest

from opineq import core
from opineq.core import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    ct,
    herm_eig,
    hermitian_part,
    eig_powers,
    matrix_abs,
    op_norm,
    op_norms,
    psd_eigs,
    psd_order_gaps,
    psd_power,
    require_hermitians,
)
from opineq.errors import DimMismatch, NotHermitian, NotPSD, SingularNegativePower
from opineq.reference import psd_order_leq

RNG = np.random.default_rng(20260301)

# square root of [[2,1],[1,2]], eigenvalues 1 and 3, worked out by hand
SQRT_2112 = np.array(
    [
        [(np.sqrt(3) + 1) / 2, (np.sqrt(3) - 1) / 2],
        [(np.sqrt(3) - 1) / 2, (np.sqrt(3) + 1) / 2],
    ]
)


def _cg(d):
    return (RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))) / np.sqrt(2)


def _rand_herm(d):
    m = _cg(d)
    return (m + m.conj().T) / 2


def _rand_psd(d):
    m = _cg(d)
    return m @ m.conj().T


def test_tolerance_config_rejects_bad_values():
    with pytest.raises(ValueError, match="nonnegative"):
        ToleranceConfig(tol_rel=-1.0)
    # defaults construct fine
    assert DEFAULT_TOL.tol_rel == 1e-8


def test_as_matrix_validation():
    with pytest.raises(DimMismatch):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(DimMismatch):
        as_matrix(np.zeros(4))
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == complex


def test_adjoint_is_involutive():
    m = _cg(4)
    assert np.array_equal(ct(ct(m)), m)
    assert np.array_equal(ct(m), m.conj().T)


def test_hermiticity_defect_and_gate():
    h = _rand_herm(3)
    assert np.array_equal(h, ct(h))
    assert require_hermitians(h) is h
    skew = h + np.array([[0, 1e-3, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(NotHermitian):
        require_hermitians(skew)
    # the symmetrized part is exactly Hermitian and idempotent
    hp = hermitian_part(skew)
    assert np.array_equal(hp, ct(hp))
    assert np.allclose(hermitian_part(hp), hp)


def test_herm_eig_reconstructs():
    h = _rand_herm(5)
    w, u = herm_eig(h)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-12)
    assert np.allclose((u * w) @ u.conj().T, h, atol=1e-12)


def test_psd_power_hand_computed_sqrt():
    h = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(psd_power(h, 0.5), SQRT_2112, atol=1e-12)


def test_psd_power_functional_calculus():
    h = _rand_psd(4)
    assert np.allclose(psd_power(psd_power(h, 0.5), 2.0), h, atol=1e-10 * op_norm(h))
    prod = psd_power(h, 0.3) @ psd_power(h, 1.2)
    assert np.allclose(prod, psd_power(h, 1.5), atol=1e-10 * op_norm(h))
    # h^0 is the identity by convention, even with a kernel
    v = _cg(3)[:, :1]
    singular = v @ v.conj().T
    assert np.allclose(psd_power(singular, 0.0), np.eye(3), atol=1e-12)


def test_psd_power_negative_and_rejections():
    h = _rand_psd(3) + 0.5 * np.eye(3)
    assert np.allclose(psd_power(h, -1.0) @ h, np.eye(3), atol=1e-9)
    v = _cg(3)[:, :1]
    with pytest.raises(SingularNegativePower):
        psd_power(v @ v.conj().T, -0.5)
    indefinite = np.diag([1.0, -1.0])
    with pytest.raises(NotPSD):
        psd_power(indefinite, 0.5)
    # tiny negative round-off eigenvalues are clamped, not fatal
    noisy = np.diag([1.0, -1e-14])
    assert np.allclose(psd_power(noisy, 0.5), np.diag([1.0, 0.0]), atol=1e-7)


def test_herm_eig_rejects_a_self_adjointness_defect_above_tol_abs(monkeypatch):
    def skewed(defect):
        return np.array([[1.0, defect], [0.0, 2.0]])

    herm_eig(skewed(0.5e-10))
    with pytest.raises(NotHermitian, match="exceeds tol_abs 1.000e-10"):
        herm_eig(skewed(2e-10))
    # the check reads core.TOL_ABS at call time
    monkeypatch.setattr(core, "TOL_ABS", 1e-9)
    herm_eig(skewed(2e-10))


def test_a_negative_power_needs_the_spectrum_above_clamp(monkeypatch):
    def smallest(lam):
        return np.diag([1.0, lam])

    psd_power(smallest(2e-12), -0.5)
    with pytest.raises(SingularNegativePower, match="eigenvalue <= 1.0e-12"):
        psd_power(smallest(0.5e-12), -0.5)
    monkeypatch.setattr(core, "CLAMP", 1e-13)
    psd_power(smallest(0.5e-12), -0.5)


EXPONENTS = (1 / 3, 0.5, 1.0, 2.0, -0.25)


def test_one_exponent_per_stack_entry_gives_the_bits_of_each_exponent_alone():
    lam, u = psd_eigs(np.stack([_rand_psd(3) + 0.1 * np.eye(3) for _ in EXPONENTS]))
    stacked = eig_powers(np.stack([lam] * len(EXPONENTS)), u, EXPONENTS)
    for k, s in enumerate(EXPONENTS):
        assert np.array_equal(stacked[k], eig_powers(lam, u, s))
    # entries need not share an eigensystem: a stack of one per exponent
    single = eig_powers(lam, u, EXPONENTS)
    for k, s in enumerate(EXPONENTS):
        assert np.array_equal(single[k], eig_powers(lam[k], u[k], s))


def test_one_exponent_per_stack_entry_keeps_the_singular_negative_power_guard():
    v = _cg(3)[:, :1]
    lam, u = psd_eigs(np.stack([_rand_psd(3) + np.eye(3), v @ v.conj().T]))
    with pytest.raises(SingularNegativePower) as alone:
        eig_powers(lam[1], u[1], -0.25)
    with pytest.raises(SingularNegativePower) as stacked:
        eig_powers(lam, u, [-0.5, -0.25])
    assert str(stacked.value) == str(alone.value) == (
        "negative power -0.25 of a matrix with eigenvalue <= 1.0e-12")
    # a positive exponent on the singular entry is not guarded
    eig_powers(lam, u, [-0.5, 0.25])


@pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3)], ids=["matrix", "stack"])
def test_psd_order_gaps_norms_are_each_stacks_own(shape):
    lo, hi = (RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape) for _ in range(2))
    _, n_lo, n_hi, scale = psd_order_gaps(lo, hi)
    assert np.array_equal(n_lo, op_norms(lo)) and np.array_equal(n_hi, op_norms(hi))
    assert np.array_equal(scale, np.maximum(np.maximum(op_norms(lo), op_norms(hi)), 1.0))


def test_matrix_abs_agrees_with_gram_sqrt():
    m = _cg(4)
    assert np.allclose(matrix_abs(m), psd_power(ct(m) @ m, 0.5), atol=1e-10)
    sv = np.linalg.svd(m, compute_uv=False)
    sv_abs = np.linalg.eigvalsh(matrix_abs(m))[::-1]
    assert np.allclose(sv, sv_abs, atol=1e-10)


def test_psd_order_known_pairs():
    ok, margin = psd_order_leq(np.zeros((2, 2)), np.eye(2))
    assert ok and margin == pytest.approx(1.0)
    ok, margin = psd_order_leq(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
    assert not ok and margin == pytest.approx(-1.0)
    # reflexive up to round-off noise
    h = _rand_herm(3)
    ok, margin = psd_order_leq(h, h + 1e-12 * np.eye(3))
    assert ok
    with pytest.raises(DimMismatch):
        psd_order_leq(np.eye(2), np.eye(3))


def test_op_norm_matches_svd():
    m = _cg(5)
    assert op_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0])


@pytest.mark.parametrize("field", ["tol_rel"])
def test_tolerance_config_rejects_infinite_values(field):
    with pytest.raises(ValueError, match="finite"):
        ToleranceConfig(**{field: np.inf})

"""Schatten / Ky Fan norm engine: known values, axioms, duality, dominance."""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from hypothesis.extra.numpy import arrays

from opineq.norms import (
    HILBERT_SCHMIDT,
    OPERATOR,
    TRACE,
    NormKind,
    norms_of,
    ky_fan,
    ky_fan_dual,
    fan_gaps,
    ky_fan_profile,
    norm,
    schatten,
    singular_values,
)
from opineq.errors import DimMismatch, InvalidK, InvalidSpec
from opineq.reference import dual_pairing, fan_dominance_leq

RNG = np.random.default_rng(48151623)
DIM = 4
ABS_TOL = 1e-10


def _cg(d=DIM):
    return (RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))) / np.sqrt(2)


def _haar(d=DIM):
    q, r = np.linalg.qr(_cg(d))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


ALL_KINDS = [OPERATOR, TRACE, HILBERT_SCHMIDT, schatten(1.5), schatten(3),
             ky_fan(1), ky_fan(2), ky_fan(DIM), ky_fan_dual(2)]


def test_singular_values_known():
    assert np.allclose(singular_values(np.diag([3.0, -5.0])), [5.0, 3.0])
    assert np.allclose(singular_values([[0, 2], [0, 0]]), [2.0, 0.0])
    m = _cg()
    assert np.allclose(singular_values(m), singular_values(m.conj().T), atol=ABS_TOL)
    assert np.all(np.diff(singular_values(m)) <= 0)


def test_norm_known_values():
    assert norm(np.diag([3.0, 4.0]), schatten(2)) == pytest.approx(5.0)
    assert norm([[0, 1], [0, 0]], TRACE) == pytest.approx(1.0)
    # dual Ky Fan 2-norm of diag(2,1,1): max(2, 4/2) = 2
    assert norm(np.diag([2.0, 1.0, 1.0]), ky_fan_dual(2)) == pytest.approx(2.0)
    u = _haar(3)
    assert norm(u, TRACE) == pytest.approx(3.0)
    m = _cg()
    assert norm(m, HILBERT_SCHMIDT) == pytest.approx(norm(m, schatten(2)))


def test_norm_kind_validation():
    for tag in ("bogus", ["x"]):
        with pytest.raises(InvalidSpec, match="unknown norm tag"):
            NormKind(tag)
    for p in (0.5, "3", True, None):
        with pytest.raises(InvalidSpec, match="Schatten exponent"):
            schatten(p)
    for make in (ky_fan, ky_fan_dual):
        for k in (2.5, "2", True, None):
            with pytest.raises(InvalidSpec, match="Ky Fan order must be an integer"):
                make(k)
    with pytest.raises(InvalidK):
        ky_fan(0)
    assert ky_fan(np.int64(2)) == ky_fan(2.0) == ky_fan(2) and type(ky_fan(2.0).k) is int
    assert schatten(np.int64(3)) == schatten(3.0) and type(schatten(3).p) is float
    with pytest.raises(InvalidK):
        norm(np.eye(2), ky_fan(5))
    assert schatten(1.5).label == "schatten_1.5"
    assert ky_fan(2).label == "ky_fan_2"
    assert ky_fan_dual(3).label == "ky_fan_dual_3"
    assert OPERATOR.label == "operator"


@pytest.mark.parametrize("p", [np.inf, np.nan, -np.inf])
def test_schatten_refuses_an_exponent_that_is_not_finite(p):
    with pytest.raises(ValueError, match="must be finite"):
        schatten(p)


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
def test_large_schatten_exponents_stay_finite():
    """At p = 800 the plain sum 4^800 overflows, and 0.4^800 is subnormal; at
    p = 1e5 every term below one underflows to 0.  Such rows are summed again
    scaled by s_1."""
    for p in (800.0, 1000.0, 1e5):
        assert norm(np.diag([3.0, 4.0]), schatten(p)) == pytest.approx(
            4.0 * (1.0 + 0.75 ** p) ** (1.0 / p), rel=1e-15)
        assert norm(np.diag([0.3, 0.4]), schatten(p)) == pytest.approx(
            0.4 * (1.0 + 0.75 ** p) ** (1.0 / p), rel=1e-15)
    assert norm(np.zeros((2, 2)), schatten(1e5)) == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
def test_a_finite_schatten_sum_keeps_its_bits():
    s = np.array([[3.0, 2.0, 1.0], [1e300, 1.0, 0.5], [0.5, 0.25, 0.0], [0.0, 0.0, 0.0],
                  [1e-80, 0.0, 0.0]])
    got = norms_of(s, schatten(4.0))
    for row in (0, 2, 3):
        assert got[row] == float((s[row] ** 4.0).sum()) ** 0.25
    assert got[1] == pytest.approx(1e300, rel=1e-15)
    assert got[4] == pytest.approx(1e-80, rel=1e-15)


def test_sandwich_and_schatten_monotonicity():
    for _ in range(25):
        m = _cg()
        op = norm(m, OPERATOR)
        tr = norm(m, TRACE)
        for k in range(1, DIM + 1):
            v = norm(m, ky_fan(k))
            assert op - ABS_TOL <= v <= tr + ABS_TOL
        values = [norm(m, schatten(p)) for p in (1.0, 1.5, 2.0, 3.0, 6.0)]
        assert all(a >= b - ABS_TOL for a, b in zip(values, values[1:]))
        # large p approaches the operator norm from above
        assert norm(m, schatten(60)) == pytest.approx(op, rel=1e-1)


def test_unitary_invariance_all_kinds():
    for _ in range(25):
        m = _cg()
        u, v = _haar(), _haar()
        for kind in ALL_KINDS:
            a, b = norm(m, kind), norm(u @ m @ v, kind)
            assert abs(a - b) <= 1e-10 * max(1.0, a)


def test_ky_fan_profile_is_cumsum():
    m = _cg()
    assert np.allclose(ky_fan_profile(m), np.cumsum(singular_values(m)), atol=ABS_TOL)


def test_fan_dominance_known_cases():
    holds, _, margin = fan_dominance_leq(np.zeros((2, 2)), _cg(2))
    assert holds and margin >= 0
    holds, _, margin = fan_dominance_leq(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
    assert holds and abs(margin) <= ABS_TOL
    holds, worst_k, margin = fan_dominance_leq(np.diag([3.0, 0.0]), np.diag([2.0, 2.0]))
    assert not holds and worst_k == 1 and margin == pytest.approx(-1.0)
    with pytest.raises(DimMismatch):
        fan_dominance_leq(np.eye(2), np.eye(3))
    with pytest.raises(DimMismatch):
        fan_gaps(np.ones((1, 2)), np.ones((1, 3)))


def test_fan_dominance_implies_schatten_ordering():
    """For PSD a <= b the whole Ky Fan family is dominated, and with it
    every Schatten norm."""
    for _ in range(25):
        m = _cg()
        a = m @ m.conj().T
        e = _cg()
        b = a + e @ e.conj().T
        holds, _, _ = fan_dominance_leq(a, b)
        assert holds
        for p in (1.0, 1.5, 2.0, 3.0):
            assert norm(a, schatten(p)) <= norm(b, schatten(p)) + 1e-8
        assert norm(a, OPERATOR) <= norm(b, OPERATOR) + 1e-8


def test_dual_pairing_reaches_the_norm():
    assert dual_pairing(np.diag([2.0, 3.0]), "trace") == pytest.approx(5.0)
    assert dual_pairing([[0, 1], [0, 0]], "operator") == pytest.approx(1.0)
    for _ in range(25):
        m = _cg()
        assert dual_pairing(m, "trace") == pytest.approx(norm(m, TRACE), rel=1e-10)
        assert dual_pairing(m, "operator") == pytest.approx(norm(m, OPERATOR), rel=1e-10)
    with pytest.raises(ValueError):
        dual_pairing(_cg(), HILBERT_SCHMIDT.tag)


def test_ky_fan_duality_inequality():
    """|tr(ab)| <= ||a||_(k) ||b||_(k)^dual for every order k."""
    for _ in range(25):
        a, b = _cg(), _cg()
        pairing = abs(np.trace(a @ b))
        for k in range(1, DIM + 1):
            bound = norm(a, ky_fan(k)) * norm(b, ky_fan_dual(k))
            assert pairing <= bound * (1 + 1e-10) + ABS_TOL


@seed(9)
@settings(max_examples=60, deadline=None)
@given(
    re=arrays(np.float64, (DIM, DIM), elements=st.floats(-5, 5)),
    im=arrays(np.float64, (DIM, DIM), elements=st.floats(-5, 5)),
    c=st.floats(min_value=-4, max_value=4),
)
def test_homogeneity(re, im, c):
    m = re + 1j * im
    for kind in ALL_KINDS:
        base = norm(m, kind)
        assert norm(c * m, kind) == pytest.approx(abs(c) * base, abs=1e-8, rel=1e-8)


@seed(10)
@settings(max_examples=60, deadline=None)
@given(
    re1=arrays(np.float64, (DIM, DIM), elements=st.floats(-5, 5)),
    im1=arrays(np.float64, (DIM, DIM), elements=st.floats(-5, 5)),
    re2=arrays(np.float64, (DIM, DIM), elements=st.floats(-5, 5)),
    im2=arrays(np.float64, (DIM, DIM), elements=st.floats(-5, 5)),
)
def test_triangle_inequality(re1, im1, re2, im2):
    m1 = re1 + 1j * im1
    m2 = re2 + 1j * im2
    for kind in ALL_KINDS:
        assert norm(m1 + m2, kind) <= norm(m1, kind) + norm(m2, kind) + 1e-8

"""Weighted matrix-tuple module: inner product, actions, conjugation,
normality, the covariance form, and JSON serialization."""

import json

import numpy as np
import pytest

from opineq.core import hermitian_part, op_norm
from opineq.checks import check_basic
from opineq.errors import CtxMismatch, DimMismatch, InvalidSpec, NotUnital
from opineq.reference import covariance
from opineq.hmodule import (
    ModuleContext,
    ModuleElement,
    conjugate,
    element,
    element_from_json,
    element_to_json,
    inner,
    is_normal,
    left_act,
    matrix_from_json,
    module_norm,
    right_mul,
    uniform_context,
)

RNG = np.random.default_rng(777001)


def _cg(d):
    return (RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))) / np.sqrt(2)


def _adj(m):
    return m.conj().T


def _phi(x, y, e, tol_rel=1e-8):
    """The reference covariance form Phi(x, y) of the elements, in x's weights."""
    return covariance(x.ctx.weights, x.parts, y.parts, e.parts, tol_rel)


def _rand_element(d=2, n=3, weights=None):
    if weights is None:
        return element([_cg(d) for _ in range(n)])
    return element([_cg(d) for _ in range(n)], weights=weights)


def _normal_element(d=3, n=2):
    """Shared-unitary frame with random diagonals: parts are normal and
    mutually commute."""
    q, r = np.linalg.qr(_cg(d))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    parts = [u @ np.diag(RNG.standard_normal(d) + 1j * RNG.standard_normal(d)) @ u.conj().T
             for _ in range(n)]
    return element(parts)


def test_context_validation():
    with pytest.raises(ValueError):
        ModuleContext(0, (1.0,))
    with pytest.raises(ValueError):
        ModuleContext(2, ())
    with pytest.raises(ValueError):
        ModuleContext(2, (1.0, -0.5))
    with pytest.raises(ValueError):
        ModuleContext(2, (1.0, np.inf))
    for weights in (1.0, None):
        with pytest.raises(InvalidSpec, match="weights must be a sequence"):
            ModuleContext(2, weights)
    with pytest.raises(InvalidSpec, match="weights must be a sequence"):
        element([np.eye(2)], weights=1.0)
    for dim in (True, "2", 2.5, None):
        with pytest.raises(InvalidSpec, match="dim must be an integer"):
            ModuleContext(dim, (1.0,))
    with pytest.raises(InvalidSpec, match="dim must be an integer"):
        uniform_context("2", 1)
    ctx = uniform_context(3, 4)
    assert ctx.length == 4 and ctx.weights == (1.0,) * 4
    # an integer dim of another type is kept as an int, which JSON writes
    z = ModuleElement(ModuleContext(np.int64(2), (1.0,)), (np.eye(2),))
    assert type(z.ctx.dim) is int and z.ctx == ModuleContext(2.0, (1.0,))
    assert element_from_json(json.loads(json.dumps(element_to_json(z)))).ctx == z.ctx


def test_element_construction_and_immutability():
    ctx = uniform_context(2, 2)
    with pytest.raises(DimMismatch):
        ModuleElement(ctx, (np.eye(2),))  # wrong part count
    with pytest.raises(DimMismatch):
        ModuleElement(ctx, (np.eye(2), np.eye(3)))
    with pytest.raises(DimMismatch, match="at least one part"):
        element([])
    x = ModuleElement(ctx, (np.eye(2), np.zeros((2, 2))))
    with pytest.raises(ValueError):
        x.parts[0][0, 0] = 5.0  # parts are frozen


def test_element_arithmetic():
    x = _rand_element()
    y = ModuleElement(x.ctx, tuple(_cg(2) for _ in range(3)))
    s = x + y
    assert all(np.allclose(a, b + c) for a, b, c in zip(s.parts, x.parts, y.parts))
    d = x - y
    assert all(np.allclose(a, b - c) for a, b, c in zip(d.parts, x.parts, y.parts))
    n = -x
    assert all(np.allclose(a, -b) for a, b in zip(n.parts, x.parts))
    two = 2.0 * x
    assert all(np.allclose(a, 2 * b) for a, b in zip(two.parts, x.parts))
    assert all(np.allclose(a, b) for a, b in zip((x * 1j).parts, (1j * x).parts))
    with pytest.raises(TypeError):
        x * "a"  # a scalar product only: __mul__ gives NotImplemented
    other = _rand_element(d=3)
    with pytest.raises(CtxMismatch):
        x + other


def test_inner_known_products():
    x = element([np.eye(2)])
    assert np.allclose(inner(x, x), np.eye(2))
    # single-part product: diag(1,0)* times (swap @ diag(0,1)) = [[0,1],[0,0]]
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = element([np.diag([1.0, 0.0])])
    b = element([swap @ np.diag([0.0, 1.0])])
    assert np.allclose(inner(a, b), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_inner_axioms():
    x, y = _rand_element(), _rand_element()
    y = ModuleElement(x.ctx, y.parts)
    assert np.allclose(_adj(inner(x, y)), inner(y, x), atol=1e-12)
    # <x,x> is PSD
    eigs = np.linalg.eigvalsh(hermitian_part(inner(x, x)))
    assert eigs[0] >= -1e-12
    # conjugate-linear in the first slot, linear in the second
    z = ModuleElement(x.ctx, tuple(_cg(2) for _ in range(3)))
    c = 0.7 - 1.3j
    assert np.allclose(inner(c * x + z, y), np.conj(c) * inner(x, y) + inner(z, y), atol=1e-12)
    assert np.allclose(inner(y, c * x + z), c * inner(y, x) + inner(y, z), atol=1e-12)
    with pytest.raises(CtxMismatch):
        inner(x, _rand_element(d=3))


def test_weighted_inner_and_absorption():
    w = (0.3, 1.7, 0.9)
    x = _rand_element(weights=w)
    y = ModuleElement(x.ctx, tuple(_cg(2) for _ in range(3)))
    direct = sum(wt * (xt.conj().T @ yt) for wt, xt, yt in zip(w, x.parts, y.parts))
    assert np.allclose(inner(x, y), direct, atol=1e-12)
    # absorbing sqrt(w) into the parts reproduces the uniform-weight value
    xu = element([np.sqrt(wt) * p for wt, p in zip(w, x.parts)])
    yu = element([np.sqrt(wt) * p for wt, p in zip(w, y.parts)])
    assert np.allclose(inner(x, y), inner(xu, yu), atol=1e-12)


def test_action_axioms():
    x = _rand_element()
    y = ModuleElement(x.ctx, tuple(_cg(2) for _ in range(3)))
    a = _cg(2)
    assert np.allclose(inner(x, right_mul(y, a)), inner(x, y) @ a, atol=1e-12)
    assert np.allclose(inner(right_mul(x, a), y), _adj(a) @ inner(x, y), atol=1e-12)
    assert np.allclose(inner(x, left_act(a, y)), inner(left_act(_adj(a), x), y), atol=1e-12)
    assert all(np.allclose(p, q) for p, q in zip(right_mul(x, np.eye(2)).parts, x.parts))
    zero = left_act(np.zeros((2, 2)), x)
    assert all(np.allclose(p, 0) for p in zero.parts)
    with pytest.raises(DimMismatch):
        right_mul(x, np.eye(3))
    with pytest.raises(DimMismatch):
        left_act(np.eye(3), x)


def test_conjugate_identities():
    nil = element([np.array([[0.0, 1.0], [0.0, 0.0]])])
    assert np.allclose(conjugate(nil).parts[0], np.array([[0.0, 0.0], [1.0, 0.0]]))
    x = _rand_element(weights=(0.4, 1.1, 0.8))
    y = ModuleElement(x.ctx, tuple(_cg(2) for _ in range(3)))
    a, b = _cg(2), _cg(2)
    assert all(np.array_equal(p, q) for p, q in zip(conjugate(conjugate(x)).parts, x.parts))
    lhs = conjugate(right_mul(left_act(a, x), b))
    rhs = right_mul(left_act(_adj(b), conjugate(x)), _adj(a))
    assert all(np.allclose(p, q, atol=1e-12) for p, q in zip(lhs.parts, rhs.parts))
    assert np.trace(inner(conjugate(y), conjugate(x))) == pytest.approx(
        np.trace(inner(x, y)), abs=1e-10)
    # trace identity linking the inner product, the left action and conjugation
    lhs_tr = np.trace(b @ inner(x, left_act(a, y)))
    rhs_tr = np.trace(a @ inner(conjugate(y), left_act(b, conjugate(x))))
    assert lhs_tr == pytest.approx(rhs_tr, abs=1e-10)


def test_module_norm():
    assert module_norm(element([np.eye(2)])) == pytest.approx(1.0)
    assert module_norm(element([np.diag([3.0, 0.0])])) == pytest.approx(3.0)
    # two unitary parts stack to Gram = 2I
    q1, q2 = np.linalg.qr(_cg(3))[0], np.linalg.qr(_cg(3))[0]
    assert module_norm(element([q1, q2])) == pytest.approx(np.sqrt(2.0))
    x = _rand_element()
    a = _cg(2)
    assert module_norm(right_mul(x, a)) <= module_norm(x) * op_norm(a) + 1e-10


def test_is_normal():
    ok, defect = is_normal(_normal_element())
    assert ok and defect <= 1e-10
    ok, defect = is_normal(element([np.array([[0.0, 1.0], [0.0, 0.0]])]))
    assert not ok and defect >= 1.0 - 1e-12
    ok, defect = is_normal(element([np.eye(2), np.eye(2)]))
    assert ok and defect == 0.0
    # generic pairs of parts essentially never commute
    ok, _ = is_normal(_rand_element(d=3, n=2))
    assert not ok


def test_gruss_inner_requires_unit_reference():
    x = element([np.eye(2)])
    with pytest.raises(NotUnital):
        _phi(x, x, element([2.0 * np.eye(2)]))
    _phi(x, x, x)  # unit, fine
    # scalar two-part reference: (3/5) I and (4i/5) I has <e,e> = I
    e = element([0.6 * np.eye(2), 0.8j * np.eye(2)])
    _phi(e, e, e)
    off = (1 + 1e-12) * e
    _phi(e, e, off)  # within the default tolerance
    with pytest.raises(NotUnital):
        _phi(e, e, off, tol_rel=1e-14)


def test_gruss_inner_semi_inner_product():
    e = element([0.6 * np.eye(2), 0.8j * np.eye(2)])
    x = ModuleElement(e.ctx, tuple(_cg(2) for _ in range(2)))
    y = ModuleElement(e.ctx, tuple(_cg(2) for _ in range(2)))
    # the reference is annihilated on either side
    assert np.allclose(_phi(e, y, e), 0, atol=1e-12)
    assert np.allclose(_phi(x, e, e), 0, atol=1e-12)
    # scalar multiples of e are annihilated too
    xc = right_mul(e, (1.3 - 0.4j) * np.eye(2))
    assert np.allclose(_phi(xc, xc, e), 0, atol=1e-12)
    # positivity of the diagonal
    eigs = np.linalg.eigvalsh(hermitian_part(_phi(x, x, e)))
    assert eigs[0] >= -1e-10
    # sesquilinearity
    c = 1.1 + 0.2j
    lhs = _phi(c * x + y, y, e)
    rhs = np.conj(c) * _phi(x, y, e) + _phi(y, y, e)
    assert np.allclose(lhs, rhs, atol=1e-12)
    with pytest.raises(DimMismatch):
        _phi(_rand_element(d=3, n=2), y, e)


def test_json_roundtrip_is_exact():
    x = _rand_element(d=3, n=2, weights=(0.25, 1.5))
    obj = element_to_json(x)
    assert set(obj) == {"dim", "weights", "parts"}
    back = element_from_json(obj)
    assert back.ctx == x.ctx
    assert all(np.array_equal(p, q) for p, q in zip(back.parts, x.parts))
    bad = dict(obj)
    bad["parts"] = [obj["parts"][0][:-1], obj["parts"][1]]
    with pytest.raises(DimMismatch):
        element_from_json(bad)


def test_a_number_too_large_for_a_float_is_an_invalid_spec():
    """Weights, parts and operands follow the rule balls and grid points do."""
    huge = [[10 ** 400, 0], [0, 1]]
    with pytest.raises(InvalidSpec):
        ModuleContext(2, (10 ** 400, 1.0))
    with pytest.raises(InvalidSpec):
        element([huge])
    with pytest.raises(InvalidSpec):
        ModuleElement(uniform_context(2, 1), (huge,))
    with pytest.raises(InvalidSpec):
        matrix_from_json([[-10 ** 400, 0.0]], 1)
    x = element([np.eye(2) / 2])
    with pytest.raises(InvalidSpec):
        check_basic(x, x, huge)


@pytest.mark.parametrize("part", [
    [["1", "2"], ["3", "4"]], [[1, 2], [3]], [[True, False], [False, True]],
], ids=["strings", "ragged", "bools"])
def test_an_element_part_must_be_an_array_of_numbers(part):
    with pytest.raises(InvalidSpec):
        element([part])
    with pytest.raises(InvalidSpec):
        ModuleElement(uniform_context(2, 1), (part,))

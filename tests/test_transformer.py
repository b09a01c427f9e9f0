"""Two-sided multiplication operators: powers, vectorization, series."""

import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from opineq import reference, transformer
from opineq.checks import InequalityReport, check_alpha, check_defect, check_radius_submult
from opineq.core import DEFAULT_TOL, op_norm, psd_power
from opineq.generators import build_group, evaluate_each
from opineq.errors import (
    CtxMismatch,
    DimCap,
    DimMismatch,
    InvalidSpec,
    MaxTermsExceeded,
    NotContractive,
    OpineqError,
)
from opineq.hmodule import ModuleElement, Stack, element, inner, module_norm
from opineq.transformer import (
    _PROBE_SEED,
    ElementaryOperator,
    apply,
    defect_operator,
    fractional_power_exact,
    operator_norm_T,
    spectral_radius,
    unvec,
    vec,
    vectorize,
)

RNG = np.random.default_rng(31415)


def _cg(d):
    return (RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))) / np.sqrt(2)


def _rand_element(d=2, n=2, weights=None):
    mats = [_cg(d) for _ in range(n)]
    return element(mats, weights=weights)


def _normal_element(d=3, n=2, radius=None):
    q, r = np.linalg.qr(_cg(d))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    parts = [u @ np.diag(RNG.standard_normal(d) + 1j * RNG.standard_normal(d)) @ u.conj().T
             for _ in range(n)]
    z = element(parts)
    if radius is not None:
        z = (radius / module_norm(z)) * z
    return z


def _pair(d=2, n=2):
    x = _rand_element(d, n)
    y = ModuleElement(x.ctx, tuple(_cg(d) for _ in range(n)))
    return ElementaryOperator(x, y)


def _step(t):
    """The reference T of the operator, applied term by term."""
    return reference.transformer(t.x.ctx.weights, t.x.parts, t.y.parts)


def _gamma(t):
    return reference.gamma(t.x.ctx.weights, t.x.parts, t.y.parts)


def _grade_inner(x, y, a, k):
    """Explicit multi-index evaluation of the grade-k inner product.

    Builds the length-k products of parts outright instead of iterating
    the operator, so it is an independent oracle for the reference's
    grade powers.
    """
    d = x.ctx.dim
    w = x.ctx.weights
    eye = np.eye(d, dtype=complex)
    acc = np.zeros((d, d), dtype=complex)
    for idx in itertools.product(range(x.ctx.length), repeat=k):
        coeff = np.prod([w[t] for t in idx]) if idx else 1.0
        left = reduce(np.matmul, [x.parts[t].conj().T for t in reversed(idx)], eye)
        right = reduce(np.matmul, [y.parts[t] for t in idx], eye)
        acc += coeff * (left @ a @ right)
    return acc


def test_vec_unvec_column_order():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(vec(a), [1.0, 3.0, 2.0, 4.0])
    assert np.array_equal(unvec(vec(a), 2), a)


def test_apply_known_values():
    t = ElementaryOperator(element([np.eye(2)]), element([np.eye(2)]))
    a = _cg(2)
    assert np.allclose(apply(t, a), a)
    c = 0.3 - 0.8j
    t = ElementaryOperator(element([c * np.eye(2)]), element([np.eye(2)]))
    assert np.allclose(apply(t, a), np.conj(c) * a)
    # hand-checked 2x2 product
    t = ElementaryOperator(element([np.diag([1.0, 0.0])]), element([np.diag([0.0, 1.0])]))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(apply(t, swap), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_apply_linearity_and_validation():
    t = _pair(3, 2)
    a, b = _cg(3), _cg(3)
    al, be = 1.2 - 0.1j, -0.5j
    assert np.allclose(apply(t, al * a + be * b),
                       al * apply(t, a) + be * apply(t, b), atol=1e-12)
    with pytest.raises(DimMismatch):
        apply(t, np.eye(2))
    with pytest.raises(CtxMismatch):
        ElementaryOperator(_rand_element(2, 2), _rand_element(3, 2))


def test_power_apply_against_explicit_grades():
    for d, n in ((2, 2), (3, 3), (2, 1)):
        t = _pair(d, n)
        a = _cg(d)
        for k in range(4):
            got = reference.grade_power(_step(t), a, k)
            want = _grade_inner(t.x, t.y, a, k)
            assert np.allclose(got, want, atol=1e-10 * max(1.0, op_norm(want)))
    with pytest.raises(ValueError):
        reference.grade_power(_step(_pair()), np.eye(2), -1)


def test_power_apply_scalar_and_decay():
    tscal = ElementaryOperator(element([0.7 * np.eye(2)]), element([0.7 * np.eye(2)]))
    a = _cg(2)
    assert np.allclose(reference.grade_power(_step(tscal), a, 3), 0.7 ** 6 * a, atol=1e-12)
    t = _pair(3, 2)
    gamma = module_norm(t.x) * module_norm(t.y)
    for k in range(5):
        assert (op_norm(reference.grade_power(_step(t), a3 := _cg(3), k))
                <= gamma ** k * op_norm(a3) * (1 + 1e-10))


def test_vectorize_matches_apply(monkeypatch):
    t = ElementaryOperator(element([np.eye(2)]), element([np.eye(2)]))
    assert np.allclose(vectorize(t).rep, np.eye(4))
    # one-dimensional case: the representation is the 1x1 w * conj(x) * y
    x1 = element([np.array([[2.0 + 1.0j]])], weights=(0.5,))
    y1 = ModuleElement(x1.ctx, (np.array([[1.0 - 3.0j]]),))
    rep = vectorize(ElementaryOperator(x1, y1)).rep
    assert np.allclose(rep, [[0.5 * np.conj(2.0 + 1.0j) * (1.0 - 3.0j)]])
    for _ in range(15):
        t = _pair(3, 2)
        v = vectorize(t)
        a = _cg(3)
        assert np.allclose(unvec(v.rep @ vec(a), 3), apply(t, a), atol=1e-10)
        kron = reference.kron_matrix(t.x.ctx.weights, t.x.parts, t.y.parts)
        assert np.allclose(v.rep, kron, atol=1e-12)
        assert np.allclose(kron @ a.reshape(-1, order="F"), vec(apply(t, a)), atol=1e-10)
    monkeypatch.setattr(transformer, "DIM_CAP", 3)
    with pytest.raises(DimCap):
        vectorize(_pair(2, 1))


def test_spectral_radius():
    t = ElementaryOperator(element([0.8 * np.eye(2)]), element([0.8 * np.eye(2)]))
    assert spectral_radius(t) == pytest.approx(0.64, abs=1e-12)
    c = 1.7 - 0.6j
    t = ElementaryOperator(element([c * np.eye(2)]), element([np.eye(2)]))
    assert spectral_radius(t) == pytest.approx(abs(c), abs=1e-12)
    # normal tuple: the radius of T_{z,z} is the squared module norm
    z = _normal_element(3, 2)
    assert spectral_radius(ElementaryOperator(z, z)) == pytest.approx(
        module_norm(z) ** 2, rel=1e-8)
    # generic bound r <= ||x|| ||y||
    t = _pair(3, 2)
    assert spectral_radius(t) <= module_norm(t.x) * module_norm(t.y) + 1e-10


def test_operator_norm_bounds():
    z = element([np.eye(2)])
    bounds = operator_norm_T(ElementaryOperator(z, z))
    assert bounds.lower == pytest.approx(1.0) and bounds.upper == pytest.approx(1.0)
    for _ in range(10):
        z = _rand_element(3, 2)
        bounds = operator_norm_T(ElementaryOperator(z, z))
        assert bounds.lower >= op_norm(inner(z, z)) - 1e-8  # the identity probe
        assert bounds.lower <= bounds.upper + 1e-12
        t = _pair(3, 2)
        bounds = operator_norm_T(t)
        assert bounds.upper == pytest.approx(module_norm(t.x) * module_norm(t.y))
        assert bounds.lower <= bounds.upper + 1e-12


def test_neumann_inverse_geometric_case():
    half = element([0.5 * np.eye(2)])
    t = ElementaryOperator(half, half)
    a = _cg(2)
    b, terms = reference.neumann_series(_step(t), a, _gamma(t))
    assert np.allclose(b, (4.0 / 3.0) * a, atol=3e-10 * op_norm(a))
    assert terms > 1
    zero = ElementaryOperator(*[element([np.zeros((2, 2))])] * 2)
    b, terms = reference.neumann_series(_step(zero), a, _gamma(zero))
    assert np.array_equal(b, a) and terms == 1


def test_neumann_inverse_solve_oracle_and_errors(monkeypatch):
    for _ in range(10):
        d, n = int(RNG.integers(2, 4)), int(RNG.integers(1, 3))
        t = _pair(d, n)
        contraction = RNG.uniform(0.3, 0.8)
        x = (np.sqrt(contraction) / module_norm(t.x)) * t.x
        y = (np.sqrt(contraction) / module_norm(t.y)) * t.y
        t = ElementaryOperator(x, y)
        a = _cg(d)
        b, _ = reference.neumann_series(_step(t), a, _gamma(t))
        rep = vectorize(t).rep
        direct = unvec(np.linalg.solve(np.eye(d * d) - rep, vec(a)), d)
        assert op_norm(b - direct) <= 1e-6 * max(1.0, op_norm(direct))
    ident = ElementaryOperator(*[element([np.eye(2)])] * 2)
    with pytest.raises(NotContractive):
        reference.neumann_series(_step(ident), np.eye(2), _gamma(ident))
    slow = ElementaryOperator(*[element([0.95 * np.eye(2)])] * 2)
    monkeypatch.setattr(reference, "MAX_TERMS", 3)
    with pytest.raises(MaxTermsExceeded):
        reference.neumann_series(_step(slow), np.eye(2), _gamma(slow))


def test_fractional_power_special_cases():
    t = _pair(3, 2)
    x = (0.6 / module_norm(t.x)) * t.x
    y = (0.9 / module_norm(t.y)) * t.y
    t = ElementaryOperator(x, y)
    a = _cg(3)
    step, gamma = _step(t), _gamma(t)
    # alpha = 1 terminates after one application
    assert np.allclose(reference.binomial_series(step, a, 1.0, gamma), a - apply(t, a),
                       atol=1e-12)
    # integer alpha = 2: (I - T)^2 a, also terminating
    twice = a - 2.0 * apply(t, a) + apply(t, apply(t, a))
    assert np.allclose(reference.binomial_series(step, a, 2.0, gamma), twice, atol=1e-12)
    # scalar tuples follow the numeric binomial exactly
    scal = element([0.8 * np.eye(2)])
    ts = ElementaryOperator(scal, scal)
    a2 = _cg(2)
    want = (1 - 0.64) ** 0.5 * a2
    got = reference.binomial_series(_step(ts), a2, 0.5, _gamma(ts))
    assert np.allclose(got, want, atol=1e-8 * op_norm(a2))
    # half-power composed twice recovers the full power
    once = reference.binomial_series(step, a, 1.0, gamma)
    half_half = reference.binomial_series(step, reference.binomial_series(step, a, 0.5, gamma),
                                          0.5, gamma)
    assert np.allclose(half_half, once, atol=1e-8 * max(1.0, op_norm(once)))


def test_fractional_power_errors(monkeypatch):
    t = _pair(2, 2)
    with pytest.raises(ValueError):
        reference.binomial_series(_step(t), np.eye(2), 0.0, 0.5)
    ident = ElementaryOperator(*[element([np.eye(2)])] * 2)
    with pytest.raises(NotContractive):
        reference.binomial_series(_step(ident), np.eye(2), 0.5, _gamma(ident))
    slow = ElementaryOperator(*[element([0.97 * np.eye(2)])] * 2)
    monkeypatch.setattr(reference, "MAX_TERMS", 5)
    with pytest.raises(MaxTermsExceeded):
        reference.binomial_series(_step(slow), np.eye(2), 0.5, _gamma(slow))


def test_defect_operator():
    scal = element([0.6 * np.eye(3)])
    want = np.sqrt(1 - 0.36) * np.eye(3)
    assert np.allclose(defect_operator(scal), want, atol=1e-10)
    zero = element([np.zeros((2, 2))])
    assert np.allclose(defect_operator(zero), np.eye(2), atol=1e-12)
    # closed form for normal contractive tuples
    z = _normal_element(3, 2, radius=0.9)
    closed = psd_power(np.eye(3) - inner(z, z), 0.5)
    assert op_norm(defect_operator(z) - closed) <= 1e-8
    with pytest.raises(NotContractive):
        defect_operator(element([np.eye(2)]))


def test_defect_operator_against_partial_sums():
    """The resolvent form of the summed Gram matrix must agree with the
    truncated series sum_{n<=N} T^n(I)."""
    for _ in range(5):
        z = _rand_element(3, 2)
        z = (0.7 / module_norm(z)) * z
        partial = reference.defect_operator(z.ctx.weights, z.parts, 120)
        assert op_norm(defect_operator(z) - partial) <= 1e-8


def _normal_pair(d, n, scalar=False):
    """Normal, commuting x and y (separate unitary frames), gamma = 0.81."""
    if scalar:
        x = element([complex(*RNG.standard_normal(2)) * np.eye(d) for _ in range(n)])
        y = ModuleElement(x.ctx, tuple(complex(*RNG.standard_normal(2)) * np.eye(d)
                                       for _ in range(n)))
    else:
        x, y = _normal_element(d, n), _normal_element(d, n)
    return ElementaryOperator((0.9 / module_norm(x)) * x, (0.9 / module_norm(y)) * y)


def test_fractional_power_exact_matches_series():
    for d in range(1, 7):
        for scalar in (False, True):
            t = _normal_pair(d, 1 + d % 3, scalar)
            a = _cg(d)
            for alpha in (0.25, 0.5, 1.5):
                want = reference.binomial_series(_step(t), a, alpha, _gamma(t))
                got = fractional_power_exact(t, alpha, a)
                assert op_norm(got - want) <= 1e-10 * op_norm(want)


def _defective_pair():
    """x = y = 0.8 J_3, one part, with J_3 the nilpotent 3 x 3 Jordan block:
    the vectorized T is defective, so no eigenbasis diagonalizes it; gamma = 0.64."""
    z = element([0.8 * np.eye(3, k=1)])
    return ElementaryOperator(z, z)


def test_fractional_power_exact_without_an_eigen_form(monkeypatch, kron_series):
    """A defective or ill-conditioned eigenbasis refuses the eigen form, so every
    alpha but an integer up to FINITE_MAX is one OpineqError naming alpha; the
    finite sum of an integer alpha is the reference series, bit for bit."""
    t = _pair(3, 2)  # a non-normal vectorized T
    t = ElementaryOperator((0.8 / module_norm(t.x)) * t.x, (0.8 / module_norm(t.y)) * t.y)
    a = _cg(3)
    defective = _defective_pair()
    for alpha in (0.5, 1.5, 19):
        with pytest.raises(OpineqError, match=rf"^alpha {alpha}: T's eigenbasis is "
                                              r"ill-conditioned or defective$"):
            fractional_power_exact(defective, alpha, a)
    # integer alpha up to FINITE_MAX takes the finite sum, defective, normal or not
    normal = _normal_pair(3, 2)
    for tt in (defective, t, normal):
        for alpha in (1, 2.0, 3):
            assert np.array_equal(fractional_power_exact(tt, alpha, a),
                                  kron_series(tt.x, tt.y, a, alpha))
    # an eigenbasis whose conditioning cannot meet SERIES_TAIL is refused too
    monkeypatch.setattr(transformer, "SERIES_TAIL", 1e-17)
    with pytest.raises(OpineqError, match="^alpha 0.5: T's eigenbasis"):
        fractional_power_exact(normal, 0.5, a)
    assert np.array_equal(fractional_power_exact(normal, 2, a), kron_series(normal.x, normal.y, a, 2))


@pytest.mark.parametrize("alpha", [18, 19, 20, 60, 100, 400])
def test_large_integer_alpha_agrees_with_matrix_power(alpha):
    """Up to FINITE_MAX = 18 an integer alpha takes the finite sum, whose
    roundoff eps (1 + gamma)^alpha stays within SERIES_TAIL; past it, the eigen
    form, normal or not (the finite sum is off by 1.1 at alpha = 100)."""
    for drop in ((), ("normality",)):
        for inst in build_group("check_alpha", range(20), drop=drop):
            rep = reference.kron_matrix(inst.x.ctx.weights, inst.x.parts, inst.y.parts)
            want = unvec(np.linalg.matrix_power(np.eye(len(rep)) - rep, alpha) @ vec(inst.a),
                         inst.x.ctx.dim)
            got = fractional_power_exact(ElementaryOperator(inst.x, inst.y), alpha, inst.a)
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


def test_large_integer_alpha_without_the_eigen_form_is_an_error():
    with pytest.raises(OpineqError, match="^alpha 100: T's eigenbasis is ill-conditioned"):
        fractional_power_exact(_defective_pair(), 100, _cg(3))


def test_every_well_conditioned_row_takes_the_eigen_form(monkeypatch, kron_series):
    """Eight built non-normal rows take the eigen form together, from one
    eigendecomposition of the stack, within the series' tail bounds of the
    reference series; with the defective 0.8 J_3 beside them, the stack is one
    OpineqError at a non-integer alpha and the finite sum at an integer one."""
    insts = build_group("check_alpha", list(range(8)), dim=3, length=1, drop=("normality",))
    z = _defective_pair().x
    xs, ys = Stack.of([i.x for i in insts] + [z]), Stack.of([i.y for i in insts] + [z])
    a = np.array([i.a for i in insts] + [_cg(3)])
    rep = transformer.vectorized(xs.weights, xs.parts, ys.parts)
    rep_h, size = rep.conj().swapaxes(-1, -2), np.linalg.norm(rep, axis=(-2, -1))
    assert (np.linalg.norm(rep @ rep_h - rep_h @ rep, axis=(-2, -1)) > 1e-3 * size ** 2).all()
    ill = np.linalg.cond(np.linalg.eig(rep)[1]) * np.finfo(float).eps > transformer.SERIES_TAIL
    assert ill.tolist() == [False] * 8 + [True]
    seen, original = [], transformer._eigen_forms

    def counted(rep, a, alpha):
        seen.append(alpha)
        return original(rep, a, alpha)

    monkeypatch.setattr(transformer, "_eigen_forms", counted)
    well = Stack.of([i.x for i in insts]), Stack.of([i.y for i in insts])
    for alpha, his in zip((0.5, 1 / 3), transformer.fractional_powers(*well, a[:8], (0.5, 1 / 3))):
        for inst, hi in zip(insts, his):
            gap = op_norm(hi - kron_series(inst.x, inst.y, inst.a, alpha))
            assert gap <= 2 * reference.SERIES_TAIL * op_norm(inst.a)
    assert seen == [0.5]
    with pytest.raises(OpineqError, match="^alpha 0.5: T's eigenbasis"):
        transformer.fractional_powers(xs, ys, a, (0.5, 1 / 3))
    sums = transformer.fractional_powers(xs, ys, a, (1, 2))
    assert seen == [0.5, 0.5] and [len(s) for s in sums] == [9, 9]


@pytest.mark.parametrize("drop", [(), ("normality",)], ids=["normal", "generic"])
def test_generated_alpha_instances_all_take_the_eigen_form(drop):
    """Over 200 built check_alpha instances of random shape, every row of
    (I - T)^alpha a at a non-integer alpha, and at alpha = 19, the first
    integer past FINITE_MAX, takes the eigen form: the generators build no
    ill-conditioned eigenbasis, normal or not, so no report is an error."""
    insts = build_group("check_alpha", list(range(200)), drop=drop)
    rows = evaluate_each(insts, DEFAULT_TOL, ((0.5,), (1.5,), (1 / 3,), (19.0,)))
    assert all(isinstance(report, InequalityReport) for row in rows for report in row)


def test_fractional_power_exact_errors():
    t = _pair(2, 2)
    with pytest.raises(ValueError):
        fractional_power_exact(t, 0.0, np.eye(2))
    with pytest.raises(DimMismatch):
        fractional_power_exact(_normal_pair(2, 1), 0.5, np.eye(3))
    ident = element([np.eye(2)])
    with pytest.raises(NotContractive):
        fractional_power_exact(ElementaryOperator(ident, ident), 0.5, np.eye(2))


def test_defect_operator_guard_by_norm_bound(monkeypatch):
    # nilpotent: ||z||^2 = 4 but radius 0, so the eigenvalue fallback decides;
    # G = I + z* z = diag(1, 5)
    nil = element([np.array([[0.0, 2.0], [0.0, 0.0]])])
    assert np.allclose(defect_operator(nil), np.diag([1.0, 5.0 ** -0.5]), atol=1e-12)
    with pytest.raises(NotContractive):
        defect_operator(element([np.eye(2)]))

    def no_eigvals(m):
        raise AssertionError("the norm bound should have settled the guard")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    assert np.allclose(defect_operator(element([0.6 * np.eye(3)])), 0.8 * np.eye(3),
                       atol=1e-10)
    # ||z||^2 = 1.4 but ||zbar||^2 = 0.7: the conjugate's bound settles it
    c = np.sqrt(0.7)
    z = element([c * np.array([[1.0, 0.0], [0.0, 0.0]]), c * np.array([[0.0, 0.0], [1.0, 0.0]])])
    assert module_norm(z) ** 2 == pytest.approx(1.4)
    partial = reference.defect_operator(z.ctx.weights, z.parts, 200)
    assert op_norm(defect_operator(z) - partial) <= 1e-10


def test_operator_norm_probe_product_matches_loop():
    for d in range(1, 7):
        t = _pair(d, 1 + d % 4)
        rng = np.random.default_rng(_PROBE_SEED)
        probes = [np.eye(d, dtype=complex)]
        for _ in range(32):
            probes.append((rng.standard_normal((d, d))
                           + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0))
        loop = max(op_norm(apply(t, a)) / op_norm(a) for a in probes)
        assert abs(operator_norm_T(t).lower - loop) <= 1e-12 * max(1.0, loop)


def test_every_kronecker_t_beyond_the_cap_is_refused_before_it_is_allocated():
    """d = 33 gives d^2 = 1089 > DIM_CAP: the three checks that vectorize T and
    fractional_power_exact raise DimCap, an InvalidSpec, and never hold one
    (d^2 x d^2) complex matrix."""
    assert issubclass(DimCap, InvalidSpec)
    x, a = element([0.5 * np.eye(33)]), np.eye(33)
    one_rep = (33 * 33) ** 2 * np.dtype(complex).itemsize
    for call in (lambda: check_alpha(x, x, a, 0.5),
                 lambda: check_defect(x, x, a, 2.0, 2.0, 2.0),
                 lambda: check_radius_submult(x, x),
                 lambda: fractional_power_exact(ElementaryOperator(x, x), 0.5, a)):
        tracemalloc.start()
        try:
            with pytest.raises(DimCap, match="vectorized size 1089 exceeds cap 1024"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < one_rep

"""Two-sided multiplication operators T(a) = <x, a y> and their calculus.

Covers application, the Kronecker d^2 x d^2 vectorized representation,
spectral radii and norm bounds, (I - T)^alpha, and the defect operator
built from the resolvent-summed Gram matrix.

(I - T)^alpha a has one path, :func:`fractional_powers`, over a stack of
operators, with one rule per alpha: an integer alpha <= FINITE_MAX takes
the finite binomial sum, and every other alpha the eigen form
V (1 - w)^alpha V^(-1), which a stack whose eigenbasis has
cond(V) eps > SERIES_TAIL refuses.  Its oracle, the truncated binomial
series of one operator, and the other plain forms the engine is tested
against live in :mod:`opineq.reference`; no engine code calls them.

The defect operator's contraction guard is decided by the norm bound
r(T_{z,z}) <= min(||z||, ||zbar||)^2 when that bound is below one; the
dense eigenvalues of T_{z,z} are computed only otherwise.

Application, vectorization, spectral radii, the probe bound, the eigen
(I - T)^alpha and the defect operators each have one stacked form over
many operators at once, which the check kernels call; the per-operator
functions are its case of one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import complex_normals, finite, herm, psd_powers
from .errors import DimCap, InvalidSpec, NotContractive, OpineqError
from .hmodule import (
    ModuleElement, Stack, _frozen, _same_ctx, acting, module_norm, weighted_products,
)
# bound here only because perfbench/spans.py traces transformer.fractional_power_apply by name
from .reference import binomial_series as fractional_power_apply  # noqa: F401

# largest vectorized size d^2 that vectorized builds
DIM_CAP = 1024
# Gaussian probes of the induced-norm lower bound, besides the identity
PROBE_SAMPLES = 32

# the limit of cond(V) eps for the eigen form, and of the finite sum's roundoff
SERIES_TAIL = 1e-10
# largest integer alpha with eps (1 + gamma)^alpha <= SERIES_TAIL at every gamma < 1
FINITE_MAX = int(math.log2(SERIES_TAIL / np.finfo(float).eps))

# fixed seed: the probe set for the induced-norm lower bound must be reproducible
_PROBE_SEED = 0x0FAB


def validate_alpha(alpha: float) -> None:
    """Raise InvalidSpec unless alpha is a finite positive exponent."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise InvalidSpec(f"alpha must be finite and positive, got {alpha}")


@dataclass(frozen=True, eq=False)
class ElementaryOperator:
    """T_{x,y}(a) = <x, a y> for x and y of one context."""

    x: ModuleElement
    y: ModuleElement

    def __post_init__(self) -> None:
        _same_ctx(self.x, self.y)

    @property
    def dim(self) -> int:
        return self.x.ctx.dim


class VectorizedOperator(NamedTuple):
    dim: int
    rep: np.ndarray


def vec(a) -> np.ndarray:
    """Column-stacking vectorization of each matrix in a stack."""
    a = np.asarray(a)
    return a.swapaxes(-1, -2).reshape(a.shape[:-2] + (-1,))


def unvec(v, d: int) -> np.ndarray:
    """Inverse of :func:`vec` for each vector in a stack."""
    v = np.asarray(v)
    return v.reshape(v.shape[:-1] + (d, d)).swapaxes(-1, -2)


def applied(w: np.ndarray, xs: np.ndarray, ys: np.ndarray, a: np.ndarray) -> np.ndarray:
    """T_{x,y}(a) for stacks of weights (..., n), parts (..., n, d, d) and a (..., d, d)."""
    return weighted_products(w, xs, a[..., None, :, :] @ ys)


def apply(t: ElementaryOperator, a) -> np.ndarray:
    """T(a) = <x, a y> = sum_t w_t x_t* a y_t."""
    x, y = t.x.stack, t.y.stack
    return applied(x.weights[0], x.parts[0], y.parts[0], acting(t.x, a))


def vectorized(w: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Kronecker matrices of T_{x,y} for stacks of weights (..., n) and parts
    (..., n, d, d): rep @ vec(a) == vec(T(a)).  DimCap, before anything is
    allocated, if d^2 exceeds DIM_CAP."""
    d = xs.shape[-1]
    if d * d > DIM_CAP:
        raise DimCap(f"vectorized size {d * d} exceeds cap {DIM_CAP}")
    # sum_t w_t kron(y_t^T, x_t^*): entry ((i, k), (j, l)) is
    # sum_t w_t y_t[j, i] conj(x_t[l, k])
    rep = np.einsum("...t,...tji,...tlk->...ikjl", w, ys, xs.conj())
    return rep.reshape(rep.shape[:-4] + (d * d, d * d))


def vectorize(t: ElementaryOperator) -> VectorizedOperator:
    """Kronecker representation: rep @ vec(a) == vec(T(a))."""
    x, y = t.x.stack, t.y.stack
    return VectorizedOperator(t.dim, vectorized(x.weights[0], x.parts[0], y.parts[0]))


def spectral_radii(rep: np.ndarray) -> np.ndarray:
    """Spectral radius of each vectorized operator in a stack."""
    return np.abs(np.linalg.eigvals(finite(rep))).max(axis=-1)


def spectral_radius(t: ElementaryOperator) -> float:
    return float(spectral_radii(vectorize(t).rep))


class OperatorNormBounds(NamedTuple):
    lower: float
    upper: float


@functools.cache
def _probes(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows vec(probe_k) of the identity and PROBE_SAMPLES seeded Gaussian
    probes of dimension d, and their operator norms; both read-only."""
    rng = np.random.default_rng(_PROBE_SEED)
    gauss = rng.standard_normal((PROBE_SAMPLES, 2, d, d))
    probes = np.concatenate([np.eye(d, dtype=complex)[None], complex_normals(gauss, 1)])
    probes_vec = probes.transpose(0, 2, 1).reshape(PROBE_SAMPLES + 1, d * d)
    norms = np.linalg.norm(probes, ord=2, axis=(1, 2))
    return _frozen(probes_vec), _frozen(norms)


def probe_lower_bounds(rep: np.ndarray) -> np.ndarray:
    """max ||T(a)|| / ||a|| over the identity and PROBE_SAMPLES seeded
    Gaussian probes, for each vectorized operator in a stack."""
    d = math.isqrt(rep.shape[-1])
    probes_vec, norms = _probes(d)
    # the images come back transposed, which leaves their operator norms unchanged
    images = (probes_vec @ rep.swapaxes(-1, -2)).reshape(rep.shape[:-2] + (PROBE_SAMPLES + 1, d, d))
    return (np.linalg.norm(images, ord=2, axis=(-2, -1)) / norms).max(axis=-1)


def operator_norm_T(t: ElementaryOperator) -> OperatorNormBounds:
    """Bracket the induced operator norm of T.

    The lower bound maximizes ||T(a)|| / ||a|| over the identity plus a
    deterministic set of Gaussian probes; the upper bound is the product
    bound ||x|| ||y||.
    """
    lower = probe_lower_bounds(vectorize(t).rep)
    return OperatorNormBounds(float(lower), module_norm(t.x) * module_norm(t.y))


def _eigen_forms(rep: np.ndarray, a: np.ndarray, alpha: float) -> tuple:
    """The alpha-independent part of (I - T)^alpha a for a stack of
    vectorized operators ``rep`` (B, d^2, d^2) and operands ``a`` (B, d, d):
    eigenvalues w and eigenvectors V of each T and V^(-1) vec(a).  OpineqError,
    naming ``alpha``, if some eigenbasis has cond(V) eps > SERIES_TAIL (an
    ill-conditioned or defective T)."""
    w, v = np.linalg.eig(rep)
    if (np.linalg.cond(v) * np.finfo(float).eps > SERIES_TAIL).any():
        raise OpineqError(f"alpha {alpha}: T's eigenbasis is ill-conditioned or defective")
    return w, v, np.linalg.solve(v, vec(a)[..., None])[..., 0]


def finite_sum(rep: np.ndarray, a: np.ndarray, alpha: float) -> np.ndarray:
    """sum_j C(alpha, j) (-T)^j a for an integer alpha, on stacks of vectorized T
    and a, with C(alpha, j+1) = C(alpha, j) (alpha - j) / (j + 1): the
    order and coefficients of :func:`opineq.reference.binomial_series`."""
    acc, term, coeff = a.copy(), a, 1.0
    for n in range(int(alpha)):
        coeff = coeff * (alpha - n) / (n + 1.0)
        term = unvec((rep @ vec(term)[..., None])[..., 0], a.shape[-1])
        acc += ((-1.0 if (n + 1) % 2 else 1.0) * coeff) * term
    return acc


def fractional_powers(x: Stack, y: Stack, a: np.ndarray, alphas) -> list[np.ndarray]:
    """(I - T_{x,y})^alpha a per operator of the stacks and matrix of ``a``
    (B, d, d), one stack per (valid) alpha; requires ||x|| ||y|| < 1.

    An integer alpha <= FINITE_MAX takes :func:`finite_sum`, whose roundoff
    eps (1 + gamma)^alpha stays within SERIES_TAIL.  Every other alpha takes
    the eigen form: the spectrum of the vectorized R lies in the disc of
    radius gamma = ||x|| ||y|| < 1, so wherever R = V diag(w) V^(-1),
    V (1 - w)^alpha V^(-1) vec(a) is exactly what the binomial series sums,
    with an error of order cond(V) eps; a stack with cond(V) eps >
    SERIES_TAIL in some row raises OpineqError.
    """
    gammas = x.norms * y.norms  # below one for the series to converge
    if (bad := gammas >= 1.0).any():
        raise NotContractive(f"binomial series requires ||x|| ||y|| < 1, got {gammas[bad][0]:.6f}")
    rep, forms, out = vectorized(x.weights, x.parts, y.parts), None, []
    for alpha in alphas:
        if float(alpha).is_integer() and alpha <= FINITE_MAX:
            out.append(finite_sum(rep, a, alpha))
            continue
        if forms is None:
            forms = _eigen_forms(rep, a, alpha)
        w, v, sol = forms
        out.append(unvec((v @ ((1.0 - w) ** alpha * sol)[..., None])[..., 0], a.shape[-1]))
    return out


def fractional_power_exact(t: ElementaryOperator, alpha: float, a) -> np.ndarray:
    """(I - T)^alpha a: :func:`fractional_powers` on a stack of one, so DimCap
    beyond the vectorization cap."""
    validate_alpha(alpha)
    m = acting(t.x, a)
    return fractional_powers(t.x.stack, t.y.stack, m[None], (alpha,))[0][0]


def defect_operators(zs: Stack) -> np.ndarray:
    """Delta_z of every element of a stack; see :func:`defect_operator`."""
    rep = vectorized(zs.weights, zs.parts, zs.parts)
    # r(T_{z,z}) <= ||T_{z,z}|| <= ||z||^2, and T_{zbar,zbar} is the trace
    # adjoint of T_{z,z}, so either squared norm below one settles the guard
    unsettled = (zs.norms >= 1.0) & (zs.conj.norms >= 1.0)
    if unsettled.any():
        radius = spectral_radii(rep[unsettled])
        if (radius >= 1.0).any():
            raise NotContractive(f"defect needs spectral radius < 1, "
                                 f"got {radius[radius >= 1.0][0]:.6f}")
    d = zs.parts.shape[-1]
    rhs = np.broadcast_to(vec(np.eye(d, dtype=complex))[:, None], rep.shape[:-1] + (1,))
    g = np.linalg.solve(np.eye(d * d, dtype=complex) - rep, rhs)[..., 0]
    return psd_powers(herm(unvec(g, d)), -0.5)


def defect_operator(z: ModuleElement) -> np.ndarray:
    """Delta_z = G^(-1/2) with G = sum_n T_{z,z}^n (I) = (I - T_{z,z})^(-1) I.

    The sum of the grade-n Gram matrices is obtained from the resolvent
    of the vectorized representation, which converges exactly when the
    spectral radius of T_{z,z} is below one; G >= I so the inverse
    square root is well conditioned.  The radius is bounded by
    min(||z||, ||zbar||)^2 (Cauchy-Schwarz); the dense eigenvalues are
    computed only when that bound does not settle it.  It is
    :func:`defect_operators` on z's stack of one.
    """
    return defect_operators(z.stack)[0]

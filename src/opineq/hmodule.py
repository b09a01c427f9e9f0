"""Weighted tuples of matrices with a matrix-valued inner product.

A context fixes the square-matrix dimension d, the tuple length n and
strictly positive weights.  An element is an n-tuple of d x d complex
matrices; the inner product

    <x, y> = sum_t w_t x_t* y_t

together with componentwise left/right multiplication and the
componentwise-adjoint conjugation x -> (x_1*, ..., x_n*) provides the
bimodule structure the transformer calculus and the inequality suite
are built on.

Elements are immutable, so each computes its Gram matrix, conjugate,
module norm, normality defect and (through
:func:`opineq.transformer.defect_operator`, per tolerance) defect
operator on first use and keeps them, read-only, for its lifetime.
Verdicts are not cached: :func:`is_normal` compares the cached defect
against the caller's tolerance on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DEFAULT_TOL, ToleranceConfig, as_matrix, op_norm
from .errors import CtxMismatch, DimMismatch, InvalidSpec, NotUnital


@dataclass(frozen=True)
class ModuleContext:
    dim: int
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InvalidSpec("dim must be >= 1")
        w = tuple(float(v) for v in self.weights)
        if len(w) < 1:
            raise InvalidSpec("length must be >= 1")
        if any(not np.isfinite(v) or v <= 0 for v in w):
            raise InvalidSpec("weights must be strictly positive and finite")
        object.__setattr__(self, "weights", w)

    @property
    def length(self) -> int:
        return len(self.weights)


def uniform_context(dim: int, length: int) -> ModuleContext:
    return ModuleContext(dim, (1.0,) * length)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ModuleElement:
    ctx: ModuleContext
    parts: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        n, d = self.ctx.length, self.ctx.dim
        if len(self.parts) != n:
            raise DimMismatch(f"expected {n} parts, got {len(self.parts)}")
        for p in self.parts:
            if np.shape(p) != (d, d):
                raise DimMismatch(f"part of shape {np.shape(p)} in a dim-{d} context")
        # one cast, one check and one copy for all parts; each part is a
        # read-only view of the stack
        stack = np.array(self.parts, dtype=complex)
        if not np.isfinite(stack).all():
            raise InvalidSpec("matrix has non-finite entries")
        object.__setattr__(self, "parts", tuple(_frozen(stack)))

    @cached_property
    def _gram(self) -> np.ndarray:
        return _frozen(_weighted_products(self, self))

    @cached_property
    def _conjugate(self) -> "ModuleElement":
        return ModuleElement(self.ctx, tuple(p.conj().T for p in self.parts))

    @cached_property
    def _norm(self) -> float:
        return float(np.sqrt(op_norm(self._gram)))

    @cached_property
    def _normality(self) -> tuple[float, float]:
        """(defect, scale) of :func:`is_normal`, independent of tolerance."""
        g = self._gram
        comm = max(op_norm(g @ p - p @ g) for p in self.parts)
        defect = max(comm, op_norm(g - self._conjugate._gram))
        nx = self._norm
        return defect, max(1.0, nx**2, nx**3)

    @cached_property
    def defect_operators(self) -> dict:
        """Delta_z per ToleranceConfig, filled by transformer.defect_operator."""
        return {}

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        _same_ctx(self, other)
        return ModuleElement(self.ctx, tuple(p + q for p, q in zip(self.parts, other.parts)))

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        _same_ctx(self, other)
        return ModuleElement(self.ctx, tuple(p - q for p, q in zip(self.parts, other.parts)))

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(self.ctx, tuple(-p for p in self.parts))

    def __mul__(self, c) -> "ModuleElement":
        if not isinstance(c, (int, float, complex, np.number)):
            return NotImplemented
        return ModuleElement(self.ctx, tuple(c * p for p in self.parts))

    __rmul__ = __mul__


def element(parts, weights=None) -> ModuleElement:
    """Build an element from a list of matrices, uniform weights by default."""
    mats = [as_matrix(p) for p in parts]
    if not mats:
        raise DimMismatch("an element needs at least one part")
    d = mats[0].shape[0]
    if weights is None:
        ctx = uniform_context(d, len(mats))
    else:
        ctx = ModuleContext(d, tuple(weights))
    return ModuleElement(ctx, tuple(mats))


def _same_ctx(x: ModuleElement, y: ModuleElement) -> None:
    if x.ctx != y.ctx:
        raise CtxMismatch("elements belong to different module contexts")


def _weighted_products(x: ModuleElement, y: ModuleElement) -> np.ndarray:
    d = x.ctx.dim
    acc = np.zeros((d, d), dtype=complex)
    for w, xt, yt in zip(x.ctx.weights, x.parts, y.parts):
        acc += w * (xt.conj().T @ yt)
    return acc


def inner(x: ModuleElement, y: ModuleElement) -> np.ndarray:
    """<x, y> = sum_t w_t x_t* y_t; <x, x> is x's cached, read-only Gram matrix."""
    if x is y:
        return x._gram
    _same_ctx(x, y)
    return _weighted_products(x, y)


def _acting(x: ModuleElement, a) -> np.ndarray:
    """a as a square matrix of x's dimension."""
    m = as_matrix(a)
    if m.shape[0] != x.ctx.dim:
        raise DimMismatch(f"matrix of shape {m.shape} in a dim-{x.ctx.dim} context")
    return m


def right_mul(x: ModuleElement, a) -> ModuleElement:
    """Module action x.a = (x_t a)."""
    m = _acting(x, a)
    return ModuleElement(x.ctx, tuple(p @ m for p in x.parts))


def left_act(a, x: ModuleElement) -> ModuleElement:
    """Algebra action a.x = (a x_t)."""
    m = _acting(x, a)
    return ModuleElement(x.ctx, tuple(m @ p for p in x.parts))


def conjugate(x: ModuleElement) -> ModuleElement:
    """Componentwise adjoint, the modular conjugation of the tuple module."""
    return x._conjugate


def module_norm(x: ModuleElement) -> float:
    """||x|| = ||<x, x>||^(1/2) in the operator norm."""
    return x._norm


def is_normal(x: ModuleElement, cfg: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether x commutes with its Gram matrix and conjugation preserves it.

    The defect is the larger of max_t ||<x,x> x_t - x_t <x,x>|| and
    ||<x,x> - <xbar,xbar>||; it is compared against tol_rel at the scale
    of ||x||^3 (the natural size of the commutator term).
    """
    defect, scale = x._normality
    return bool(defect <= cfg.tol_rel * scale), defect


@dataclass(frozen=True, eq=False)
class GrussContext:
    """A unit reference element e with <e, e> = I to ``tol.tol_rel``.

    Construction rejects non-unit candidates instead of renormalizing
    them, so every downstream covariance quantity can rely on the exact
    hypothesis.
    """

    e: ModuleElement
    tol: ToleranceConfig = DEFAULT_TOL

    def __post_init__(self) -> None:
        require_unit(self.e, self.tol)


def require_unit(e: ModuleElement, cfg: ToleranceConfig = DEFAULT_TOL) -> None:
    """Raise NotUnital unless <e, e> = I to tol_rel."""
    defect = op_norm(inner(e, e) - np.eye(e.ctx.dim))
    if defect > cfg.tol_rel:
        raise NotUnital(f"<e, e> deviates from the identity by {defect:.3e}")


def gruss_inner(x: ModuleElement, y: ModuleElement, g: GrussContext) -> np.ndarray:
    """Covariance form Phi(x, y) = <x, y> - <x, e><e, y>."""
    _same_ctx(x, g.e)
    _same_ctx(y, g.e)
    return inner(x, y) - inner(x, g.e) @ inner(g.e, y)


def matrix_to_json(m) -> list:
    """Row-major [re, im] entry pairs."""
    return [[float(v.real), float(v.imag)] for v in np.asarray(m).reshape(-1)]


def matrix_from_json(flat, d: int) -> np.ndarray:
    """Exact inverse of matrix_to_json for a d x d matrix."""
    if len(flat) != d * d:
        raise DimMismatch(f"{len(flat)} entries for a dim-{d} matrix")
    return np.array([complex(re, im) for re, im in flat], dtype=complex).reshape(d, d)


def element_to_json(x: ModuleElement) -> dict:
    """Serialize as {dim, weights, parts} with matrix_to_json parts."""
    return {
        "dim": x.ctx.dim,
        "weights": list(x.ctx.weights),
        "parts": [matrix_to_json(p) for p in x.parts],
    }


def element_from_json(obj) -> ModuleElement:
    """Exact inverse of element_to_json."""
    d = int(obj["dim"])
    weights = tuple(float(w) for w in obj["weights"])
    parts = tuple(matrix_from_json(flat, d) for flat in obj["parts"])
    return ModuleElement(ModuleContext(d, weights), parts)

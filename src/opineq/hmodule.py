"""Weighted tuples of matrices with a matrix-valued inner product.

A context fixes the square-matrix dimension d, the tuple length n and
strictly positive weights.  An element is an n-tuple of d x d complex
matrices; the inner product

    <x, y> = sum_t w_t x_t* y_t

together with componentwise left/right multiplication and the
componentwise-adjoint conjugation x -> (x_1*, ..., x_n*) provides the
bimodule structure the transformer calculus and the inequality suite
are built on.

A :class:`Stack` holds B elements of one dimension and length as one
(B, n, d, d) array and computes their Gram matrices, conjugates, module
norms and normality defect matrices for the whole stack at once; the
checks evaluate a group of trials through stacks.  Each element is the
B = 1 case: it keeps its own stack, so it computes these quantities on
first use and keeps them, read-only.  Verdicts are not cached:
:func:`within` decides each at the caller's tolerance, by a Frobenius
screen first (||m|| <= ||m||_F) and the SVD only where it does not pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL, as_integer, as_matrix, as_tolerance, complex_array, ct, finite, is_real,
    op_norms, scales,
)
from .errors import CtxMismatch, DimMismatch, InvalidSpec, NotUnital, failures


@dataclass(frozen=True)
class ModuleContext:
    """The module of n-tuples of d x d matrices with positive weights; ``dim``
    is an integer by :func:`~opineq.core.as_integer`."""

    dim: int
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", as_integer("dim", self.dim))
        if self.dim < 1:
            raise InvalidSpec("dim must be >= 1")
        try:
            weights = tuple(self.weights)
        except TypeError:
            raise InvalidSpec(f"weights must be a sequence, got {self.weights!r}") from None
        if len(weights) < 1:
            raise InvalidSpec("length must be >= 1")
        if not all(is_real(v) and math.isfinite(v) and v > 0 for v in weights):
            raise InvalidSpec("weights must be strictly positive and finite")
        object.__setattr__(self, "weights", tuple(map(float, weights)))

    @property
    def length(self) -> int:
        return len(self.weights)


def uniform_context(dim: int, length: int) -> ModuleContext:
    return ModuleContext(dim, (1.0,) * length)


class cached_property:
    """functools.cached_property without the lock it takes on each first
    access before Python 3.12: the value goes into the instance's
    ``__dict__``, which shadows this descriptor from then on."""

    def __init__(self, fn) -> None:
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj.__dict__[self.name] = value = self.fn(obj)
        return value


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def weighted_products(w: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """sum_t w_t x_t* y_t for (..., n) weights and (..., n, d, d) parts: all
    terms in one product, summed over t in part order from +0.0."""
    terms = w[..., None, None] * (ct(xs) @ ys)
    total = 0j
    for t in range(terms.shape[-3]):
        total = total + terms[..., t, :, :]
    return total


def within(defects: np.ndarray, tol_rel: float, sizes=lambda r: ()) -> tuple[np.ndarray, ...]:
    """Per element b of a (B, k, d, d) stack of defect matrices: whether
    max_j ||defects[b, j]|| <= tol_rel * scales(*sizes(rows))[b], and that norm
    where the SVD ran.  ``sizes`` gives the element's raw sizes for the rows left
    open only; :func:`scales` puts the scale at 1 or above, so Frobenius norms
    within tol_rel / 2 pass b without the SVD, as the SVD would pass it."""
    limit = tol_rel / 2  # below 1e-150 squares may underflow, so only zero defects pass
    ok = (np.linalg.norm(defects, axis=(-2, -1)).max(axis=-1) <= limit if limit >= 1e-150
          else ~defects.any(axis=(-3, -2, -1)))
    defect = np.full(len(defects), np.nan)
    rows = np.flatnonzero(~ok)
    if len(rows):
        defect[rows] = op_norms(defects[rows]).max(axis=-1)
        ok[rows] = defect[rows] <= tol_rel * scales(*sizes(rows))
    return ok, defect


@dataclass(frozen=True, eq=False)
class Stack:
    """B elements of one dimension d and length n: ``weights`` (B, n) and
    ``parts`` (B, n, d, d).  Each quantity is computed for the whole stack
    on first use and kept; entry b is what element b gives alone."""

    weights: np.ndarray
    parts: np.ndarray

    @classmethod
    def of(cls, elements) -> "Stack":
        """The elements, which share one dimension and length, as a stack;
        a single element gives its own."""
        if len(elements) == 1:
            return elements[0].stack
        return cls(np.array([z.ctx.weights for z in elements]),
                   np.stack([z._array for z in elements]))

    @cached_property
    def gram(self) -> np.ndarray:
        return _frozen(weighted_products(self.weights, self.parts, self.parts))

    @cached_property
    def conj(self) -> "Stack":
        """The componentwise adjoints."""
        return Stack(self.weights, np.ascontiguousarray(ct(self.parts)))

    @cached_property
    def norms(self) -> np.ndarray:
        return _frozen(np.sqrt(op_norms(self.gram)))

    @cached_property
    def normality_defects(self) -> np.ndarray:
        """(B, n + 1, d, d): per element, <x,x> x_t - x_t <x,x> for each t,
        then <x,x> - <xbar,xbar>; independent of tolerance."""
        g = self.gram[:, None]
        return _frozen(np.concatenate([g @ self.parts - self.parts @ g,
                                       (self.gram - self.conj.gram)[:, None]], axis=1))

    def is_normal(self, tol: float = DEFAULT_TOL,
                  *others: "Stack") -> tuple[np.ndarray, np.ndarray]:
        """Per element of this stack, then of ``others``, whether its normality defect
        is within tol_rel at its scale, and the defect where the SVD ran; see :func:`is_normal`."""
        zs = (self, *others)
        return within(np.concatenate([z.normality_defects for z in zs]), tol, lambda rows: (
            (nx := np.concatenate([z.norms for z in zs])[rows]) ** 2, nx**3))


@dataclass(frozen=True, eq=False)
class ModuleElement:
    """An n-tuple of d x d matrices in its context; its parts are read-only."""

    ctx: ModuleContext
    parts: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        n, d = self.ctx.length, self.ctx.dim
        if len(self.parts) != n:
            raise DimMismatch(f"expected {n} parts, got {len(self.parts)}")
        parts = [complex_array(p) for p in self.parts]
        for p in parts:
            if p.shape != (d, d):
                raise DimMismatch(f"part of shape {p.shape} in a dim-{d} context")
        # one check and one copy for all parts; each part is a read-only
        # view of the stack
        stack = _frozen(finite(np.stack(parts)))
        self.__dict__.update(_array=stack, parts=tuple(stack))

    @classmethod
    def rows(cls, ctxs, parts: np.ndarray, norm: float | None = None) -> list["ModuleElement"]:
        """Elements in contexts ctxs[b] with parts parts[b], rescaled to module norm
        ``norm`` if given (a zero one stays zero): one cast, check and copy."""
        if norm is not None:
            norms = Stack(np.array([ctx.weights for ctx in ctxs]), parts).norms.tolist()
            scale = [norm / nz if nz > 0 else 1.0 for nz in norms]
            parts = np.array(scale)[:, None, None, None] * parts
        stack = _frozen(finite(complex_array(parts)))
        out = [cls.__new__(cls) for _ in ctxs]
        for z, ctx, row in zip(out, ctxs, stack):
            z.__dict__.update(ctx=ctx, _array=row, parts=tuple(row))
        return out

    @cached_property
    def stack(self) -> Stack:
        """This element as a stack of one."""
        return Stack(np.array([self.ctx.weights]), self._array[None])

    @cached_property
    def _conjugate(self) -> "ModuleElement":
        return ModuleElement(self.ctx, tuple(self.stack.conj.parts[0]))

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
        ctx = ModuleContext(d, weights)
    return ModuleElement(ctx, tuple(mats))


def _same_ctx(x: ModuleElement, *others: ModuleElement) -> None:
    if any(z.ctx != x.ctx for z in others):
        raise CtxMismatch("elements must share one dim and weights")


def inner(x: ModuleElement, y: ModuleElement) -> np.ndarray:
    """<x, y> = sum_t w_t x_t* y_t; <x, x> is x's cached, read-only Gram matrix."""
    if x is y:
        return x.stack.gram[0]
    _same_ctx(x, y)
    return weighted_products(x.stack.weights[0], x.stack.parts[0], y.stack.parts[0])


def acting(x: ModuleElement, a) -> np.ndarray:
    """a as a square matrix of x's dimension."""
    m = as_matrix(a)
    if m.shape[0] != x.ctx.dim:
        raise DimMismatch(f"matrix of shape {m.shape} in a dim-{x.ctx.dim} context")
    return m


def acting_stack(xs, mats) -> np.ndarray:
    """acting(xs[b], mats[b]) for each b, as one (B, d, d) stack: checked once, and
    matrix by matrix only to word an error."""
    d = xs[0].ctx.dim
    try:
        m = complex_array(mats)
        if m.shape == (len(mats), d, d) and np.isfinite(m).all():
            return m
    except InvalidSpec:
        pass
    return np.stack([acting(x, a) for x, a in zip(xs, mats)])


def right_mul(x: ModuleElement, a) -> ModuleElement:
    """Module action x.a = (x_t a)."""
    m = acting(x, a)
    return ModuleElement(x.ctx, tuple(p @ m for p in x.parts))


def left_act(a, x: ModuleElement) -> ModuleElement:
    """Algebra action a.x = (a x_t)."""
    m = acting(x, a)
    return ModuleElement(x.ctx, tuple(m @ p for p in x.parts))


def conjugate(x: ModuleElement) -> ModuleElement:
    """Componentwise adjoint, the modular conjugation of the tuple module."""
    return x._conjugate


def module_norm(x: ModuleElement) -> float:
    """||x|| = ||<x, x>||^(1/2) in the operator norm."""
    return float(x.stack.norms[0])


def is_normal(x: ModuleElement, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether x commutes with its Gram matrix and conjugation preserves it.

    The defect is the larger of max_t ||<x,x> x_t - x_t <x,x>|| and
    ||<x,x> - <xbar,xbar>||; it is compared against tol_rel at the scale
    :func:`~opineq.core.scales` of ||x||^2 and ||x||^3; the defect is the SVD's.
    """
    ok, _ = x.stack.is_normal(as_tolerance(tol))
    return bool(ok[0]), float(op_norms(x.stack.normality_defects[0]).max())


def require_units(es: Stack, tol: float = DEFAULT_TOL) -> list:
    """Per element e of a stack, None if <e, e> = I to tol_rel, else its NotUnital."""
    ok, defect = within((es.gram - np.eye(es.parts.shape[-1]))[:, None], tol)
    return failures(NotUnital, ("<e, e> deviates from the identity by {:.3e}", ok, defect))


def covariances(w: np.ndarray, xs: np.ndarray, ys: np.ndarray, es: np.ndarray) -> np.ndarray:
    """Phi(x, y) = <x, y> - <x, e><e, y> for stacks of weights and parts."""
    return (weighted_products(w, xs, ys)
            - weighted_products(w, xs, es) @ weighted_products(w, es, ys))


def matrix_to_json(m) -> list:
    """Row-major [re, im] entry pairs."""
    return [[float(v.real), float(v.imag)] for v in np.asarray(m).reshape(-1)]


def matrix_from_json(flat, d: int) -> np.ndarray:
    """Exact inverse of matrix_to_json for a d x d matrix."""
    if len(flat) != d * d:
        raise DimMismatch(f"{len(flat)} entries for a dim-{d} matrix")
    if not all(is_real(v) for pair in flat for v in pair):
        raise InvalidSpec("matrix entries must be [re, im] pairs of real numbers")
    return np.array([complex(re, im) for re, im in flat], dtype=complex).reshape(d, d)


def element_to_json(x: ModuleElement) -> dict:
    """Serialize as {dim, weights, parts} with matrix_to_json parts."""
    return {
        "dim": x.ctx.dim,
        "weights": list(x.ctx.weights),
        "parts": [matrix_to_json(p) for p in x.parts],
    }


def element_from_json(obj) -> ModuleElement:
    """Exact inverse of element_to_json; InvalidSpec unless ``dim`` is an integer
    (:func:`as_integer`)."""
    d = as_integer("dim", obj["dim"])
    weights = tuple(obj["weights"])
    parts = tuple(matrix_from_json(flat, d) for flat in obj["parts"])
    return ModuleElement(ModuleContext(d, weights), parts)

"""Singular-value based matrix norms: Schatten, Ky Fan, and duals.

The full Ky Fan family (k = 1..d) certifies comparisons for every
unitarily invariant norm through the dominance property, which is how
the inequality suite operationalizes "for all unitarily invariant
norms" at finite cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_integer, as_matrix, is_real, scales, svdvals
from .errors import DimMismatch, InvalidK, InvalidSpec

_TAGS = {"operator", "trace", "hilbert_schmidt", "schatten", "ky_fan", "ky_fan_dual"}
# smallest normal float: a Schatten sum below it has lost precision
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class NormKind:
    """Tag for one member of the supported norm families; a Schatten ``p`` is a number
    by ``is_real``, kept as a float, and a Ky Fan ``k`` an integer by ``as_integer``."""

    tag: str
    p: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.tag, str) or self.tag not in _TAGS:
            raise InvalidSpec(f"unknown norm tag {self.tag!r}")
        if self.tag == "schatten":
            if not (is_real(self.p) and 1 <= self.p < math.inf):
                raise InvalidSpec(f"Schatten exponent must be finite and p >= 1, got {self.p!r}")
            object.__setattr__(self, "p", float(self.p))
        if self.tag in {"ky_fan", "ky_fan_dual"}:
            object.__setattr__(self, "k", as_integer("Ky Fan order", self.k))
            if self.k < 1:
                raise InvalidK("Ky Fan order must satisfy k >= 1")

    @property
    def label(self) -> str:
        if self.tag == "schatten":
            return f"schatten_{self.p:g}"
        if self.tag in {"ky_fan", "ky_fan_dual"}:
            return f"{self.tag}_{self.k}"
        return self.tag


OPERATOR = NormKind("operator")
TRACE = NormKind("trace")
HILBERT_SCHMIDT = NormKind("hilbert_schmidt")


def schatten(p: float) -> NormKind:
    return NormKind("schatten", p=p)


def ky_fan(k: int) -> NormKind:
    return NormKind("ky_fan", k=k)


def ky_fan_dual(k: int) -> NormKind:
    """max(operator norm, trace norm / k), the dual of the Ky Fan k-norm."""
    return NormKind("ky_fan_dual", k=k)


def singular_values(m) -> np.ndarray:
    """Singular values in descending order."""
    return svdvals(as_matrix(m))


def norms_of(s: np.ndarray, kind: NormKind = OPERATOR) -> np.ndarray:
    """One norm of the family for each row of descending singular values
    ``s`` (..., d): the stacked form of :func:`norm`."""
    d = s.shape[-1]
    if kind.tag == "operator":
        return s[..., 0]
    if kind.tag == "trace":
        return s.sum(axis=-1)
    if kind.tag == "hilbert_schmidt":
        return np.sqrt((s**2).sum(axis=-1))
    if kind.tag == "schatten":
        # the outer root is taken per value, as a scalar power; a row whose sum
        # overflows (numpy warns, unless warnings are off as in the CLI) or falls
        # below the normal floats with a nonzero top value is summed again as
        # s_1 (sum (s / s_1)^p)^(1/p), so every other row keeps its bits
        sums = (s**kind.p).sum(axis=-1)
        out = np.array([v ** (1.0 / kind.p) for v in sums.reshape(-1)]).reshape(sums.shape)
        if not all(_TINY <= v < math.inf for v in sums.reshape(-1).tolist()):
            redo = ~np.isfinite(sums) | ((sums < _TINY) & (s[..., 0] > 0))
            top = s[redo][..., 0]
            out[redo] = top * ((s[redo] / top[..., None]) ** kind.p).sum(axis=-1) ** (1.0 / kind.p)
        return out
    if kind.k > d:
        raise InvalidK(f"Ky Fan order {kind.k} exceeds dimension {d}")
    if kind.tag == "ky_fan":
        return s[..., : kind.k].sum(axis=-1)
    return np.maximum(s[..., 0], s.sum(axis=-1) / kind.k)


def norm(m, kind: NormKind = OPERATOR) -> float:
    """Evaluate one norm of the family selected by `kind`."""
    return float(norms_of(singular_values(m), kind))


def ky_fan_profiles(s: np.ndarray) -> np.ndarray:
    """All Ky Fan norms of each row of descending singular values."""
    return np.cumsum(s, axis=-1)


def ky_fan_profile(m) -> np.ndarray:
    """All Ky Fan norms at once: cumulative sums of descending singular values."""
    return ky_fan_profiles(singular_values(m))


def fan_gaps(s_lo: np.ndarray, s_hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ky Fan dominance lo <= hi for each pair of rows of descending singular
    values (..., d): the profiles of lo and hi, their gaps ||hi||_(k) -
    ||lo||_(k) for k = 1..d, and the scale :func:`scales` of their trace norms."""
    p_lo, p_hi = ky_fan_profiles(s_lo), ky_fan_profiles(s_hi)
    if p_lo.shape != p_hi.shape:
        raise DimMismatch(f"dimension mismatch {p_lo.shape[-1]} vs {p_hi.shape[-1]}")
    return p_lo, p_hi, p_hi - p_lo, scales(p_lo[..., -1], p_hi[..., -1])

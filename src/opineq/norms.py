"""Singular-value based matrix norms: Schatten, Ky Fan, and duals.

The full Ky Fan family (k = 1..d) certifies comparisons for every
unitarily invariant norm through the dominance property, which is how
the inequality suite operationalizes "for all unitarily invariant
norms" at finite cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, ToleranceConfig, as_matrix, svdvals
from .errors import DimMismatch, InvalidK

_TAGS = {"operator", "trace", "hilbert_schmidt", "schatten", "ky_fan", "ky_fan_dual"}


@dataclass(frozen=True)
class NormKind:
    """Tag for one member of the supported norm families."""

    tag: str
    p: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in _TAGS:
            raise ValueError(f"unknown norm tag {self.tag!r}")
        if self.tag == "schatten" and (self.p is None or self.p < 1):
            raise ValueError("Schatten exponent must satisfy p >= 1")
        if self.tag in {"ky_fan", "ky_fan_dual"} and (self.k is None or self.k < 1):
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
    return NormKind("schatten", p=float(p))


def ky_fan(k: int) -> NormKind:
    return NormKind("ky_fan", k=int(k))


def ky_fan_dual(k: int) -> NormKind:
    """max(operator norm, trace norm / k), the dual of the Ky Fan k-norm."""
    return NormKind("ky_fan_dual", k=int(k))


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
        # the outer root is taken per value, as a scalar power
        sums = (s**kind.p).sum(axis=-1)
        return np.array([v ** (1.0 / kind.p) for v in sums.reshape(-1)]).reshape(sums.shape)
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
    ||lo||_(k) for k = 1..d, and the scale max(||lo||_1, ||hi||_1, 1)."""
    p_lo, p_hi = ky_fan_profiles(s_lo), ky_fan_profiles(s_hi)
    if p_lo.shape != p_hi.shape:
        raise DimMismatch(f"dimension mismatch {p_lo.shape[-1]} vs {p_hi.shape[-1]}")
    return p_lo, p_hi, p_hi - p_lo, np.maximum(np.maximum(p_lo[..., -1], p_hi[..., -1]), 1.0)


def fan_dominance_leq(a, b, cfg: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, int, float]:
    """Test Ky Fan dominance ||a||_(k) <= ||b||_(k) for every k = 1..d.

    Returns (holds, worst_k, margin_at_worst_k).  Dominance across the
    whole family certifies the comparison for every unitarily invariant
    norm; each margin tolerates -tol_rel relative to the larger trace
    norm involved.
    """
    _, _, margins, scale = fan_gaps(singular_values(a), singular_values(b))
    worst = int(np.argmin(margins))
    holds = bool(np.all(margins >= -cfg.tol_rel * scale))
    return holds, worst + 1, float(margins[worst])


def dual_pairing_check(m, kind: NormKind = TRACE) -> float:
    """Value |tr(m y)| at the dual-optimal y, which must equal norm(m, kind).

    For the trace norm y = V U* from the SVD m = U S V*; for the
    operator norm y is the rank-one pairing v1 u1*.
    """
    a = as_matrix(m)
    u, _, vh = np.linalg.svd(a)
    if kind.tag == "trace":
        y = vh.conj().T @ u.conj().T
    elif kind.tag == "operator":
        y = np.outer(vh[0].conj(), u[:, 0].conj())
    else:
        raise ValueError("dual pairing is defined for the operator and trace kinds")
    return float(abs(np.trace(a @ y)))

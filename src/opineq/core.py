"""Dense complex matrix arithmetic and Hermitian functional calculus.

Matrices are plain numpy arrays of complex128.  Public entry points
validate squareness, finiteness and (where required) self-adjointness;
fractional powers go through an eigendecomposition with a small clamp
for negative round-off eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidSpec, NotHermitian, NotPSD, SingularNegativePower


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerances and truncation controls used throughout the package.

    tol_abs      absolute tolerance (self-adjointness defects)
    tol_rel      relative tolerance (reconstructions, inequality margins)
    clamp        eigenvalues in [-clamp, 0) count as exact zeros
    epsilon_reg  default shift for regularized inverse powers
    series_tail  relative truncation target for operator series
    max_terms    hard cap on series length
    """

    tol_abs: float = 1e-10
    tol_rel: float = 1e-8
    clamp: float = 1e-12
    epsilon_reg: float = 1e-10
    series_tail: float = 1e-10
    max_terms: int = 10_000

    def __post_init__(self) -> None:
        if not all(v >= 0 for v in (self.tol_abs, self.tol_rel, self.clamp)):
            raise InvalidSpec("tolerances must be nonnegative")
        if not (self.epsilon_reg > 0 and self.series_tail > 0):
            raise InvalidSpec("epsilon_reg and series_tail must be positive")
        if not all(math.isfinite(v) for v in (self.tol_abs, self.tol_rel, self.clamp,
                                              self.epsilon_reg, self.series_tail)):
            raise InvalidSpec("tolerances must be finite")
        if self.max_terms < 1:
            raise InvalidSpec("max_terms must be at least 1")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidSpec("matrix has non-finite entries")
    return a


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def hermiticity_defect(m) -> float:
    """Largest entrywise deviation of m from its adjoint."""
    a = as_matrix(m)
    return float(np.max(np.abs(a - a.conj().T)))


def require_hermitian(m, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    a = as_matrix(m)
    defect = hermiticity_defect(a)
    if defect > cfg.tol_abs:
        raise NotHermitian(
            f"self-adjointness defect {defect:.3e} exceeds tol_abs {cfg.tol_abs:.3e}"
        )
    return a


def hermitian_part(m) -> np.ndarray:
    """(m + m*)/2, hygiene for products that are Hermitian in exact arithmetic."""
    a = as_matrix(m)
    return (a + a.conj().T) / 2.0


def op_norm(m) -> float:
    """Operator (spectral) norm."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])


def herm_eig(h, cfg: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a self-adjoint matrix.

    Returns
    -------
    (w, u)
        Real eigenvalues in ascending order and a unitary whose columns
        are the matching eigenvectors, so that u @ diag(w) @ u* == h.
    """
    a = require_hermitian(h, cfg)
    w, u = np.linalg.eigh(a)
    return w, u


def _psd_eigs(h, cfg: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of a PSD matrix with negative round-off clamped to zero."""
    w, u = herm_eig(h, cfg)
    lim = max(cfg.tol_abs, cfg.tol_rel * float(np.max(np.abs(w))))
    if float(w[0]) < -lim:
        raise NotPSD(f"eigenvalue {w[0]:.6e} below -{lim:.3e}")
    return np.maximum(w, 0.0), u


def psd_power(h, s: float, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Fractional power h^s of a positive semidefinite matrix.

    Computed as u @ diag(max(w, 0)^s) @ u* from the eigendecomposition.
    Negative powers require the spectrum to stay above the clamp;
    otherwise SingularNegativePower is raised.  By convention h^0 = I
    even for singular h.
    """
    lam, u = _psd_eigs(h, cfg)
    if s < 0 and float(lam.min()) <= cfg.clamp:
        raise SingularNegativePower(
            f"negative power {s} of a matrix with eigenvalue <= {cfg.clamp:.1e}"
        )
    vals = lam ** float(s)
    return (u * vals) @ u.conj().T


def regularized_inv_power(h, s: float, eps: float, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """(h + eps)^(-s) for PSD h, s > 0 and eps > 0.

    The shift makes the inverse power total: the clamped spectrum is
    moved to [eps, inf) before the power is taken.
    """
    if s <= 0:
        raise ValueError("inverse power exponent must be positive")
    if eps <= 0:
        raise ValueError("regularization shift must be positive")
    lam, u = _psd_eigs(h, cfg)
    vals = (lam + eps) ** (-float(s))
    return (u * vals) @ u.conj().T


def matrix_abs(m) -> np.ndarray:
    """Modulus |m| = (m* m)^(1/2), assembled from the singular value decomposition."""
    a = as_matrix(m)
    _, s, vh = np.linalg.svd(a)
    return (vh.conj().T * s) @ vh


def psd_order_leq(a, b, cfg: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether a <= b in the positive semidefinite order, with a signed margin.

    The margin is the smallest eigenvalue of b - a; the comparison
    tolerates -tol_rel relative to max(||a||, ||b||, 1).
    """
    ha = require_hermitian(a, cfg)
    hb = require_hermitian(b, cfg)
    if ha.shape != hb.shape:
        raise DimMismatch(f"shape mismatch {ha.shape} vs {hb.shape}")
    margin = float(np.linalg.eigvalsh(hb - ha)[0])
    scale = max(op_norm(ha), op_norm(hb), 1.0)
    return margin >= -cfg.tol_rel * scale, margin

"""Dense complex matrix arithmetic and Hermitian functional calculus.

Matrices are plain numpy arrays of complex128.  Each operation has one
stacked form that takes a (..., d, d) stack and treats every matrix on
its own, so a matrix gives the same bits alone or inside any stack; the
per-matrix entry points validate squareness, finiteness and (where
required) self-adjointness, then call it.  Fractional powers go through
an eigendecomposition that clamps negative round-off eigenvalues to zero.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import DimMismatch, InvalidSpec, NotHermitian, NotPSD, SingularNegativePower


# absolute limit of self-adjointness defects, PSD round-off and hypothesis slack
TOL_ABS = 1e-10
# relative limit of PSD round-off, at the scale ||h|| (see psd_eigs)
PSD_REL = 1e-8
# eigenvalues at or below this make a negative power singular
CLAMP = 1e-12
_SQRT2 = math.sqrt(2)


def is_real(v) -> bool:
    """Whether v is a float, or an int (not a bool) small enough for float()."""
    return isinstance(v, (float, np.floating)) or (
        isinstance(v, (int, np.integer)) and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max)


# the one relative tolerance a run chooses: it decides margins and hypothesis
# verdicts; fixed limits, the PSD round-off limit too, are the constants above
DEFAULT_TOL = 1e-8


def as_tolerance(v) -> float:
    """v as a relative tolerance: a number by :func:`is_real`, finite and
    nonnegative; InvalidSpec otherwise (so None, "1e-8", True, -1, nan, inf)."""
    if not (is_real(v) and 0 <= v < math.inf):
        raise InvalidSpec(f"tol_rel must be a finite nonnegative number, got {v!r}")
    return float(v)


def scales(*sizes):
    """The comparison scale: elementwise, the largest of ``sizes`` and 1 (1.0 without
    sizes).  The engine's one floor; every margin and hypothesis screen takes its scale here."""
    return functools.reduce(np.maximum, sizes, 1.0)


def as_integer(tag: str, v) -> int:
    """v as an int; InvalidSpec, naming ``tag``, unless it is a number by
    :func:`is_real` whose value is an integer (so 3.0, not 2.7, True or "3")."""
    if not (is_real(v) and float(v).is_integer()):
        raise InvalidSpec(f"{tag} must be an integer, got {v!r}")
    return int(v)


def as_seed(tag: str, v) -> int:
    """v as a seed: an int by :func:`as_integer` in [0, 2^64); InvalidSpec,
    naming ``tag`` and that range, otherwise (so -1, 2^64, 2.7 and True)."""
    try:
        if 0 <= (seed := as_integer(tag, v)) < 1 << 64:
            return seed
    except InvalidSpec:
        pass
    raise InvalidSpec(f"{tag} must be an integer in [0, 2^64), got {v!r}")


def complex_array(m) -> np.ndarray:
    """m as a new complex array; InvalidSpec unless it is an array of numbers:
    real ones as :func:`is_real` rules (so no bool, no string, no int too
    large for a float) or complex ones."""
    try:
        a = np.asarray(m)
    except ValueError:
        raise InvalidSpec("matrix rows must be arrays of numbers of one length") from None
    if a.dtype.kind == "O" and any(isinstance(v, int) and abs(v) > sys.float_info.max
                                   for v in a.flat):
        raise InvalidSpec("matrix has an entry too large for a float")
    if a.dtype.kind == "O" and all(is_real(v) or isinstance(v, (complex, np.complexfloating))
                                   for v in a.flat):
        a = a.astype(complex)  # ints beyond int64 that a float holds
    if a.dtype.kind not in "iufc":
        raise InvalidSpec(f"matrix entries must be numbers, got an array of {a.dtype}")
    return a.astype(complex)


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    a = complex_array(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    return finite(a)


# --------------------------------------------------------------------------
# stacked forms: every function below takes (..., d, d) arrays, acts on each
# matrix of the stack alone, and gives bit for bit the result it gives that
# matrix without the leading axes.  The per-matrix entry points validate
# their input and call them.

def finite(a: np.ndarray) -> np.ndarray:
    """a itself; InvalidSpec if any entry is not finite."""
    if not np.isfinite(a).all():
        raise InvalidSpec("matrix has non-finite entries")
    return a


def complex_normals(g: np.ndarray, axis: int) -> np.ndarray:
    """Standard complex Gaussians (re + i im) / sqrt(2) from standard normal
    draws whose real and imaginary parts lie along ``axis``."""
    index = (slice(None),) * (axis % g.ndim)
    return (g[index + (0,)] + 1j * g[index + (1,)]) / _SQRT2


def ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def herm(a: np.ndarray) -> np.ndarray:
    """(a + a*)/2 of each matrix in a stack."""
    return (a + ct(a)) / 2.0


def svdvals(a: np.ndarray) -> np.ndarray:
    """Singular values of each matrix, descending."""
    return np.linalg.svd(finite(a), compute_uv=False)


def op_norms(a: np.ndarray) -> np.ndarray:
    return svdvals(a)[..., 0]


def eigvalsh(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(finite(a))


def _first(bad: np.ndarray) -> tuple:
    """Index of the first True entry of a boolean stack."""
    return np.unravel_index(int(np.argmax(bad)), bad.shape)


def require_hermitians(h: np.ndarray) -> np.ndarray:
    """h itself; NotHermitian if a matrix deviates from its adjoint beyond TOL_ABS."""
    defect = np.max(np.abs(finite(h) - ct(h)), axis=(-2, -1))
    bad = defect > TOL_ABS
    if bad.any():
        raise NotHermitian(f"self-adjointness defect {defect[_first(bad)]:.3e} "
                           f"exceeds tol_abs {TOL_ABS:.3e}")
    return h


def herm_eigs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(require_hermitians(h))


def psd_eigs(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystems of PSD matrices, round-off down to -max(TOL_ABS, PSD_REL ||h||) clamped to 0."""
    w, u = herm_eigs(h)
    lim = np.maximum(TOL_ABS, PSD_REL * np.max(np.abs(w), axis=-1))
    bad = w[..., 0] < -lim
    if bad.any():
        i = _first(bad)
        raise NotPSD(f"eigenvalue {w[i][0]:.6e} below -{lim[i]:.3e}")
    return np.maximum(w, 0.0), u


def eig_powers(lam: np.ndarray, u: np.ndarray, s) -> np.ndarray:
    """u diag(lam^s) u* for each clamped eigensystem from :func:`psd_eigs`.
    ``s`` is one exponent, or one per leading entry k of the stacks
    (lam[k]^s[k]); each is taken as one scalar power."""
    pairs = [(s, lam)] if np.ndim(s) == 0 else list(zip(s, lam))
    for sk, lk in pairs:
        if sk < 0 and (lk.min(axis=-1) <= CLAMP).any():
            raise SingularNegativePower(f"negative power {sk} of a matrix with "
                                        f"eigenvalue <= {CLAMP:.1e}")
    vals = lam ** float(s) if np.ndim(s) == 0 else np.stack([lk ** float(sk) for sk, lk in pairs])
    return (u * vals[..., None, :]) @ ct(u)


def psd_powers(h: np.ndarray, s: float) -> np.ndarray:
    return eig_powers(*psd_eigs(h), s)


def psd_order_gaps(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
    """lo <= hi in the PSD order for each pair of matrices of two stacks: the
    margin (smallest eigenvalue of herm(hi) - herm(lo)), ||lo||, ||hi|| and
    the comparison scale :func:`scales` of ||lo|| and ||hi||."""
    n_lo, n_hi = op_norms(np.stack([lo, hi]))
    return eigvalsh(herm(hi) - herm(lo))[..., 0], n_lo, n_hi, scales(n_lo, n_hi)


def moduli(a: np.ndarray) -> np.ndarray:
    """|m| = (m* m)^(1/2) of each matrix, from its singular value decomposition."""
    _, s, vh = np.linalg.svd(finite(a))
    return (ct(vh) * s[..., None, :]) @ vh


# --------------------------------------------------------------------------
# per-matrix entry points

def hermitian_part(m) -> np.ndarray:
    """(m + m*)/2, hygiene for products that are Hermitian in exact arithmetic."""
    return herm(as_matrix(m))


def op_norm(m) -> float:
    """Operator (spectral) norm."""
    return float(op_norms(as_matrix(m)))


def herm_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a self-adjoint matrix.

    Returns
    -------
    (w, u)
        Real eigenvalues in ascending order and a unitary whose columns
        are the matching eigenvectors, so that u @ diag(w) @ u* == h.
    """
    return herm_eigs(as_matrix(h))


def psd_power(h, s: float) -> np.ndarray:
    """Fractional power h^s of a positive semidefinite matrix.

    Computed as u @ diag(max(w, 0)^s) @ u* from the eigendecomposition.
    Negative powers require the spectrum to stay above CLAMP;
    otherwise SingularNegativePower is raised.  By convention h^0 = I
    even for singular h.
    """
    return psd_powers(as_matrix(h), s)


def matrix_abs(m) -> np.ndarray:
    """Modulus |m| = (m* m)^(1/2), assembled from the singular value decomposition."""
    return moduli(as_matrix(m))

"""The oracle: the paper's formulas, written plainly over numpy arrays.

Every bound the checks verify comes from one identity, T(a) = <x, a y> =
sum_t w_t x_t* a y_t, and the module Cauchy-Schwarz inequality.  This
module codes those formulas term by term, as the paper states them, so
that the tests can hold the stacked engine against arithmetic it does not
share.  An element is given by its weights ``w`` (n numbers) and its parts
(n matrices d x d); a transformer T is any function of a matrix, so each
series takes either the term-by-term T of :func:`transformer` or another
form of the same map.  The module imports nothing from the package but its
errors, and no engine code calls it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DimMismatch, InvalidSpec, MaxTermsExceeded, NotContractive, NotUnital

# truncation target of the series
SERIES_TAIL = 1e-10
# most terms a series may take
MAX_TERMS = 10_000

Step = Callable[[np.ndarray], np.ndarray]


def inner(w, xs, ys) -> np.ndarray:
    """<x, y> = sum_t w_t x_t* y_t, summed in part order."""
    total = 0j
    for wt, xt, yt in zip(w, xs, ys):
        total = total + wt * (xt.conj().T @ yt)
    return total


def transformer(w, xs, ys) -> Step:
    """T_{x,y}: a -> <x, a y> = sum_t w_t x_t* a y_t, applied term by term."""
    return lambda a: inner(w, xs, [a @ yt for yt in ys])


def gamma(w, xs, ys) -> float:
    """||x|| ||y|| with ||z|| = ||<z, z>||^(1/2), which bounds ||T_{x,y}||."""
    return math.sqrt(np.linalg.norm(inner(w, xs, xs), 2) * np.linalg.norm(inner(w, ys, ys), 2))


def grade_power(step: Step, a, k: int) -> np.ndarray:
    """T^k(a), the grade-k inner product <x^(k), a y^(k)>, by k applications."""
    if k < 0:
        raise InvalidSpec("power must be nonnegative")
    for _ in range(k):
        a = step(a)
    return a


def _contractive(gamma: float, series: str) -> None:
    if not gamma < 1.0:
        raise NotContractive(f"{series} series requires ||x|| ||y|| < 1, got {gamma:.6f}")


def neumann_series(step: Step, a, gamma: float) -> tuple[np.ndarray, int]:
    """(I - T)^(-1) a = sum_k T^k a for ||T|| <= gamma < 1, and its number of
    terms N + 1, the fewest with gamma^(N+1) / (1 - gamma) <= SERIES_TAIL: the
    sum is within 2 SERIES_TAIL ||a|| of the exact one."""
    _contractive(gamma, "Neumann")
    acc = term = np.array(a, dtype=complex)
    if gamma == 0.0:
        return acc, 1
    terms = max(math.ceil(math.log(SERIES_TAIL * (1.0 - gamma)) / math.log(gamma)), 1)
    if terms > MAX_TERMS:
        raise MaxTermsExceeded(f"series needs {terms} terms, cap is {MAX_TERMS}")
    for _ in range(terms - 1):
        term = step(term)
        acc = acc + term
    return acc, terms


def binomial_series(step: Step, a, alpha: float, gamma: float) -> np.ndarray:
    """(I - T)^alpha a = sum_n (-1)^n C(alpha, n) T^n a for ||T|| <= gamma < 1.

    C(alpha, n+1) = C(alpha, n) (alpha - n) / (n + 1).  The sum ends at the
    first zero coefficient (integer alpha), after T a if gamma = 0, and
    otherwise once the tail bound |C(alpha, N+1)| gamma^(N+1) / (1 - gamma)
    is at most SERIES_TAIL, which holds where the coefficients decrease in
    modulus (N + 1 > alpha); MaxTermsExceeded at MAX_TERMS terms.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise InvalidSpec(f"alpha must be finite and positive, got {alpha}")
    _contractive(gamma, "binomial")
    acc, term, coeff, n = np.array(a, dtype=complex), a, 1.0, 0
    while (nxt := coeff * (alpha - n) / (n + 1.0)) != 0.0:
        if n + 1 > alpha and gamma > 0.0 and abs(nxt) * gamma ** (n + 1) / (1.0 - gamma) <= SERIES_TAIL:
            break
        if gamma == 0.0 and n >= 1:
            break
        if n + 1 >= MAX_TERMS:
            raise MaxTermsExceeded(f"binomial series exceeded {MAX_TERMS} terms")
        term = step(term)
        acc += ((-1.0 if (n + 1) % 2 else 1.0) * nxt) * term
        coeff, n = nxt, n + 1
    return acc


def psd_power(h, s: float) -> np.ndarray:
    """h^s of a PSD h, from its Hermitian part's eigensystem clamped at 0."""
    lam, u = np.linalg.eigh((h + h.conj().T) / 2)
    return (u * np.maximum(lam, 0.0) ** s) @ u.conj().T


def defect_operator(w, zs, terms: int) -> np.ndarray:
    """Delta_z = G^(-1/2) with G the partial sum sum_{n < terms} T_{z,z}^n (I)."""
    step, d = transformer(w, zs, zs), len(zs[0])
    g = term = np.eye(d, dtype=complex)
    for _ in range(terms - 1):
        term = step(term)
        g = g + term
    return psd_power(g, -0.5)


def kron_matrix(w, xs, ys) -> np.ndarray:
    """sum_t w_t kron(y_t^T, x_t*): the d^2 x d^2 matrix with rep @ vec(a) =
    vec(T(a)), where vec stacks the columns (numpy's order "F")."""
    return sum(wt * np.kron(yt.T, xt.conj().T) for wt, xt, yt in zip(w, xs, ys))


def fan_dominance_leq(lo, hi, tol_rel: float = 1e-8) -> tuple[bool, int, float]:
    """Ky Fan dominance ||lo||_(k) <= ||hi||_(k) for k = 1..d, which gives
    |||lo||| <= |||hi||| in every unitarily invariant norm: whether each margin
    is at least -tol_rel max(||lo||_1, ||hi||_1, 1), the worst k and its margin."""
    p_lo, p_hi = (np.cumsum(np.linalg.svd(m, compute_uv=False)) for m in (lo, hi))
    if p_lo.shape != p_hi.shape:
        raise DimMismatch(f"dimension mismatch {len(p_lo)} vs {len(p_hi)}")
    gaps = p_hi - p_lo
    k = int(np.argmin(gaps))
    scale = max(p_lo[-1], p_hi[-1], 1.0)
    return bool(np.all(gaps >= -tol_rel * scale)), k + 1, float(gaps[k])


def psd_order_leq(lo, hi, tol_rel: float = 1e-8) -> tuple[bool, float]:
    """lo <= hi in the PSD order: whether the margin, the smallest eigenvalue of
    the Hermitian parts' difference hi - lo, is at least -tol_rel max(||lo||,
    ||hi||, 1), and the margin."""
    lo, hi = np.asarray(lo, dtype=complex), np.asarray(hi, dtype=complex)
    if lo.shape != hi.shape:
        raise DimMismatch(f"shape mismatch {lo.shape} vs {hi.shape}")
    margin = np.linalg.eigvalsh((hi + hi.conj().T) / 2 - (lo + lo.conj().T) / 2)[0]
    scale = max(np.linalg.norm(lo, 2), np.linalg.norm(hi, 2), 1.0)
    return bool(margin >= -tol_rel * scale), float(margin)


def dual_pairing(m, kind: str) -> float:
    """|tr(m y)| at the y of dual norm one that attains the ``kind`` norm of m
    ("trace" or "operator"): y = V U* or v_1 u_1* for m = U S V*."""
    m = np.asarray(m, dtype=complex)
    u, _, vh = np.linalg.svd(m)
    if kind == "trace":
        y = vh.conj().T @ u.conj().T
    elif kind == "operator":
        y = np.outer(vh[0].conj(), u[:, 0].conj())
    else:
        raise InvalidSpec("dual pairing is defined for the operator and trace norms")
    return float(abs(np.trace(m @ y)))


def covariance(w, xs, ys, es, tol_rel: float = 1e-8) -> np.ndarray:
    """Phi(x, y) = <x, y> - <x, e><e, y> for a unit reference e: NotUnital
    unless ||<e, e> - I|| <= tol_rel."""
    xs, ys, es = (np.asarray(z, dtype=complex) for z in (xs, ys, es))
    if not xs.shape == ys.shape == es.shape:
        raise DimMismatch("x, y and e must share one dim and length")
    defect = np.linalg.norm(inner(w, es, es) - np.eye(es.shape[-1]), 2)
    if not defect <= tol_rel:
        raise NotUnital(f"<e, e> deviates from the identity by {defect:.3e}")
    return inner(w, xs, ys) - inner(w, xs, es) @ inner(w, es, ys)


def haar_unitary(seed: int, d: int) -> np.ndarray:
    """A Haar unitary: the Q of a complex Gaussian matrix (its real, then its
    imaginary parts drawn from default_rng(seed)), R's diagonal phases put in Q."""
    if d < 1:
        raise InvalidSpec("dimension must be >= 1")
    g = np.random.default_rng(seed).standard_normal((2, d, d))
    q, r = np.linalg.qr((g[0] + 1j * g[1]) / math.sqrt(2))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

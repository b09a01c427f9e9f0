"""Checkable inequality predicates, one per verified statement.

Every check evaluates both sides of one operator inequality on a concrete
instance and returns an :class:`InequalityReport` with signed margins.
Margins are oriented so that nonnegative means "holds": for scalar norm
comparisons ``margin = rhs - lhs``, for PSD-order comparisons it is the
smallest eigenvalue of ``rhs - lhs``.  Unitarily-invariant-norm claims are
certified through the full Ky Fan family (Fan dominance), with a
Hilbert-Schmidt value recorded as a redundant spot check.

Generators, runner, search and CLI read each check from its one row in
:data:`CHECK_SPECS`, and every hypothesis from its one predicate here;
adding a check means one row plus its ``check_*`` function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL, ToleranceConfig, adjoint, hermitian_part, matrix_abs, op_norm, psd_power,
)
from .errors import (
    BadExponents, BallViolated, CtxMismatch, InvalidSpec, NotContractive, NotNormal,
    UnknownCheck,
)
from .hmodule import (
    GrussContext, ModuleElement, conjugate, gruss_inner, inner, is_normal,
    left_act, module_norm, right_mul,
)
from .norms import fan_gaps, norm, schatten, HILBERT_SCHMIDT, OPERATOR, TRACE
from .transformer import (
    ElementaryOperator, apply, defect_operator, fractional_power_exact,
    operator_norm_T, spectral_radius, validate_alpha,
)

# Contractive hypotheses are enforced with this much slack below 1 so the
# boundary case ||x|| = 1 is kept strictly out of scope.
CONTRACTION_MARGIN = 1e-3


@dataclass(frozen=True)
class CheckSpec:
    """One verified statement.  ``name`` is its ``check_*`` function here,
    looked up at call time.  After x and y the function takes the
    ``operands`` ("a"; "e" as a GrussContext; "ball" = (m, M, p, P)) and
    then the ``grid`` parameters (p, q, r or alpha).  ``recipe`` draws x
    and y: "pair", "unit_pair" (norm 1), "contractive_pair" (norm at the
    contraction target) or "gruss" (ball points around a unit reference);
    ``kind`` is the element kind its reports record."""

    name: str
    anchor: str
    operands: tuple[str, ...]
    recipe: str
    kind: str
    hypotheses: tuple[str, ...] = ()
    grid: str | None = None
    searchable: bool = False

    def enforced(self, drop=()) -> tuple[str, ...]:
        """The hypotheses left once the ``drop`` ones are removed."""
        return tuple(h for h in self.hypotheses if h not in drop)


# The canonical suite order.  check_interp's elements are drawn generic
# although its reports record "normal_commuting".
CHECK_SPECS = {spec.name: spec for spec in (
    CheckSpec("check_cs", "Eq. (CS)", (), "pair", "generic", searchable=True),
    CheckSpec("check_basic", "Eq. (1infty)", ("a",), "pair", "generic", searchable=True),
    CheckSpec("check_hs", "Eq. (C2)", ("a",), "pair", "generic", searchable=True),
    CheckSpec("check_refinement", "Eq. (Refinement)", ("a",), "pair", "generic",
              searchable=True),
    CheckSpec("check_uin", "Eq. (UIN1)", ("a",), "pair", "normal_commuting",
              ("normality",), searchable=True),
    CheckSpec("check_interp", "Eq. (InterP)", ("a",), "unit_pair", "normal_commuting",
              grid="pqr"),
    CheckSpec("check_naopaka", "Theorem (Naopaka)", ("a",), "contractive_pair",
              "normal_commuting", ("normality", "contraction"), searchable=True),
    CheckSpec("check_alpha", "Eq. (AOTalpha)", ("a",), "contractive_pair",
              "normal_commuting", ("normality", "contraction"), grid="alpha"),
    CheckSpec("check_defect", "Eq. (Defekt)", ("a",), "contractive_pair", "contractive",
              ("contraction",), grid="pqr"),
    CheckSpec("check_gruss", "Eqs. (Gruss3)/(GrussMm)", ("a", "e", "ball"), "gruss",
              "gruss", ("normality",)),
    CheckSpec("check_radius_submult", "Remark (spectral radius)", (), "pair", "generic"),
)}
CHECK_NAMES = tuple(CHECK_SPECS)
CHECK_ANCHORS = {name: spec.anchor for name, spec in CHECK_SPECS.items()}


def check_spec(name: str) -> CheckSpec:
    try:
        return CHECK_SPECS[name]
    except KeyError:
        raise UnknownCheck(f"no check named {name!r}") from None


def grid_params(axis: str | None, value) -> dict:
    """Report parameters of one grid point: p, q, r or alpha."""
    if axis == "pqr":
        return dict(zip("pqr", value))
    return {} if axis is None else {axis: value}


# --------------------------------------------------------------------------
# hypotheses and parameter rules

def _require_normal(x: ModuleElement, y: ModuleElement, tol: ToleranceConfig,
                    e: ModuleElement | None = None) -> None:
    """x and y must be normal.  Beside a reference e (the covariance
    setting) the parts of each must also mutually commute, and every part
    of e must be a scalar multiple of the identity: a scalar reference
    keeps the centered elements x - e<e,x> inside the module's normal
    cone, which is what the covariance bound consumes; a merely commuting
    non-scalar reference is not enough."""
    for z, tag in ((x, "x"), (y, "y")):
        ok, defect = is_normal(z, tol)
        if not ok:
            raise NotNormal(f"{tag} has normality defect {defect:.3e}")
    if e is None:
        return
    d = e.ctx.dim
    worst, scale = 0.0, 1.0
    for z in (x, y):
        nz = module_norm(z)
        scale = max(scale, nz * nz)
        for i, pi in enumerate(z.parts):
            for pj in z.parts[i + 1:]:
                worst = max(worst, op_norm(pi @ pj - pj @ pi))
    for part in e.parts:
        worst = max(worst, op_norm(part - np.trace(part) / d * np.eye(d)))
    if worst > tol.tol_rel * scale:
        raise NotNormal(f"instance leaves the scalar-reference commuting family "
                        f"by {worst:.3e}")


def _require_contractive(x: ModuleElement, y: ModuleElement, tol: ToleranceConfig,
                         e: ModuleElement | None = None) -> None:
    for z, tag in ((x, "x"), (y, "y")):
        top = float(np.linalg.eigvalsh(hermitian_part(inner(z, z)))[-1])
        if top > 1.0 - CONTRACTION_MARGIN + tol.tol_abs:
            raise NotContractive(
                f"<{tag},{tag}> has top eigenvalue {top:.6f}, above 1 - {CONTRACTION_MARGIN:g}")


HYPOTHESES = {"normality": _require_normal, "contraction": _require_contractive}


def validate_drop(drop) -> tuple[str, ...]:
    """``drop`` as a tuple of hypothesis names; InvalidSpec for a bare string
    or a name outside :data:`HYPOTHESES`."""
    if isinstance(drop, str):
        raise InvalidSpec(f"drop must be a sequence of hypothesis names, not {drop!r}")
    for name in drop:
        if name not in HYPOTHESES:
            raise InvalidSpec(f"unknown hypothesis {name!r}; known: {', '.join(HYPOTHESES)}")
    return tuple(drop)


def require_hypotheses(names, x: ModuleElement, y: ModuleElement,
                       tol: ToleranceConfig = DEFAULT_TOL,
                       e: ModuleElement | None = None) -> None:
    """Raise the matching error for the first named hypothesis x, y violate."""
    for name in names:
        HYPOTHESES[name](x, y, tol, e)


def require_in_ball(x: ModuleElement, y: ModuleElement, e: ModuleElement, ball,
                    tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Raise BallViolated unless x lies in [me, Me] and y in [pe, Pe]
    for ``ball = (m, M, p, P)``."""
    m, big_m, p, big_p = (float(v) for v in ball)
    d = e.ctx.dim
    for z, lo, hi, tag in ((x, m, big_m, "x"), (y, p, big_p, "y")):
        center = right_mul(e, (hi + lo) / 2 * np.eye(d))
        radius = abs(hi - lo) / 2
        dist = module_norm(z - center)
        if dist > radius + tol.tol_abs + tol.tol_rel * max(radius, 1.0):
            raise BallViolated(
                f"{tag} sits {dist:.6f} from the ball center, radius {radius:.6f}")


def validate_pqr(p: float, q: float, r: float) -> None:
    """Raise BadExponents unless p, q, r are finite, > 1 and 1/q + 1/r = 2/p."""
    if not all(math.isfinite(v) for v in (p, q, r)) or min(p, q, r) <= 1:
        raise BadExponents(f"exponents must be finite and satisfy p, q, r > 1, "
                           f"got ({p}, {q}, {r})")
    if abs(1 / q + 1 / r - 2 / p) > 1e-12:
        raise BadExponents(f"1/q + 1/r != 2/p for (p, q, r) = ({p}, {q}, {r})")


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality check on one instance.

    ``margin`` and ``scale`` are raw: ``holds`` is equivalent to
    ``margin >= -tol_rel * scale`` over every branch.  ``norm_detail``
    entries are per-branch margins already divided by that branch's scale,
    so a consumer can compare them against a relative tolerance directly.
    ``instance`` carries ``{seed, dim, len, params}`` for replay.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    holds: bool
    scale: float
    norm_detail: dict = field(default_factory=dict)
    instance: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.instance.get("seed"),
            "dim": self.instance.get("dim"),
            "len": self.instance.get("len"),
            "params": self.instance.get("params", {}),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "holds": self.holds,
            "norm_detail": self.norm_detail,
        }


def _digest(x: ModuleElement, digest: dict | None, params: dict | None = None) -> dict:
    out = {"seed": None, "dim": x.ctx.dim, "len": x.ctx.length, "params": {}}
    if params:
        out["params"].update(params)
    if digest:
        extra = dict(digest)
        out["params"].update(extra.pop("params", {}))
        out.update(extra)
    return out


class _Branch(NamedTuple):
    lhs: float
    rhs: float
    margin: float
    scale: float


def _scalar_branch(lhs: float, rhs: float) -> _Branch:
    scale = max(abs(lhs), abs(rhs), 1.0)
    return _Branch(float(lhs), float(rhs), float(rhs - lhs), scale)


def _psd_branch(lo: np.ndarray, hi: np.ndarray) -> _Branch:
    gap = hermitian_part(hi) - hermitian_part(lo)
    margin = float(np.linalg.eigvalsh(gap)[0])
    scale = max(op_norm(lo), op_norm(hi), 1.0)
    return _Branch(op_norm(lo), op_norm(hi), margin, scale)


def _ky_branches(lo: np.ndarray, hi: np.ndarray, prefix: str = "") -> tuple[dict, _Branch]:
    """Ky Fan profile margins of |||lo||| <= |||hi|||, worst k as headline."""
    pl, ph, gaps, scale = fan_gaps(lo, hi)
    detail = {f"{prefix}ky_fan_{k + 1}": float(g) / scale for k, g in enumerate(gaps)}
    detail[f"{prefix}hilbert_schmidt"] = (
        norm(hi, HILBERT_SCHMIDT) - norm(lo, HILBERT_SCHMIDT)
    ) / scale
    worst = int(np.argmin(gaps))
    head = _Branch(float(pl[worst]), float(ph[worst]), float(gaps[worst]), scale)
    return detail, head


def _finish(name: str, branches: dict[str, _Branch], tol: ToleranceConfig,
            digest: dict, extra_detail: dict | None = None) -> InequalityReport:
    """Assemble a report: headline is the branch with the worst margin/scale."""
    detail = {label: b.margin / b.scale for label, b in branches.items()}
    if extra_detail:
        detail.update(extra_detail)
    worst_label = min(branches, key=lambda lb: branches[lb].margin / branches[lb].scale)
    head = branches[worst_label]
    holds = all(b.margin >= -tol.tol_rel * b.scale for b in branches.values())
    return InequalityReport(
        name=name, lhs=head.lhs, rhs=head.rhs, margin=head.margin,
        holds=holds, scale=head.scale, norm_detail=detail, instance=digest,
    )


def _sqrt_gram(x: ModuleElement) -> np.ndarray:
    return psd_power(hermitian_part(inner(x, x)), 0.5)


def check_cs(x: ModuleElement, y: ModuleElement, *,
             tol: ToleranceConfig = DEFAULT_TOL,
             digest: dict | None = None) -> InequalityReport:
    """|<x,y>|^2 <= ||x||^2 <y,y> in the PSD order, plus its square root."""
    m = inner(x, y)
    nx2 = module_norm(x) ** 2
    gy = hermitian_part(inner(y, y))
    sq = _psd_branch(adjoint(m) @ m, nx2 * gy)
    rt = _psd_branch(matrix_abs(m), np.sqrt(nx2) * psd_power(gy, 0.5))
    return _finish("check_cs", {"squared": sq, "sqrt": rt}, tol, _digest(x, digest))


def check_basic(x: ModuleElement, y: ModuleElement, a, *,
                tol: ToleranceConfig = DEFAULT_TOL,
                digest: dict | None = None) -> InequalityReport:
    """Operator- and trace-norm bounds for <x, ay>; no normality needed.

    The operator branch is ||<x,ay>|| <= ||x|| ||y|| ||a||; the trace
    branch compares against the conjugated Gram square roots,
    ||<xbar,xbar>^(1/2) a <ybar,ybar>^(1/2)||_1.
    """
    val = inner(x, left_act(a, y))
    op = _scalar_branch(norm(val, OPERATOR),
                        module_norm(x) * module_norm(y) * norm(a, OPERATOR))
    rhs_tr = _sqrt_gram(conjugate(x)) @ np.asarray(a) @ _sqrt_gram(conjugate(y))
    tr = _scalar_branch(norm(val, TRACE), norm(rhs_tr, TRACE))
    return _finish("check_basic", {"op": op, "tr": tr}, tol, _digest(x, digest))


def check_hs(x: ModuleElement, y: ModuleElement, a, *,
             tol: ToleranceConfig = DEFAULT_TOL,
             digest: dict | None = None) -> InequalityReport:
    """Hilbert-Schmidt bounds ||<x,ay>||_2 <= ||x|| ||a <ybar,ybar>^(1/2)||_2
    and the mirrored ||y|| ||<xbar,xbar>^(1/2) a||_2."""
    a = np.asarray(a)
    lhs = norm(inner(x, left_act(a, y)), HILBERT_SCHMIDT)
    bx = _scalar_branch(lhs, module_norm(x) * norm(a @ _sqrt_gram(conjugate(y)), HILBERT_SCHMIDT))
    by = _scalar_branch(lhs, module_norm(y) * norm(_sqrt_gram(conjugate(x)) @ a, HILBERT_SCHMIDT))
    return _finish("check_hs", {"x_weighted": bx, "y_weighted": by}, tol, _digest(x, digest))


def check_refinement(x: ModuleElement, y: ModuleElement, a, *,
                     tol: ToleranceConfig = DEFAULT_TOL,
                     digest: dict | None = None) -> InequalityReport:
    """|<x,ay>|^2 <= ||x||^2 <y, a*a y> in the PSD order."""
    a = np.asarray(a)
    m = inner(x, left_act(a, y))
    rhs = module_norm(x) ** 2 * inner(y, left_act(adjoint(a) @ a, y))
    branch = _psd_branch(adjoint(m) @ m, rhs)
    return _finish("check_refinement", {"psd": branch}, tol, _digest(x, digest))


def check_uin(x: ModuleElement, y: ModuleElement, a, *,
              tol: ToleranceConfig = DEFAULT_TOL, strict: bool = True,
              digest: dict | None = None) -> InequalityReport:
    """|||<x,ay>||| <= |||<x,x>^(1/2) a <y,y>^(1/2)||| for normal x, y,
    certified over the whole Ky Fan family.

    With ``strict=False`` the normality preconditions are skipped so a
    counterexample search can probe instances outside the hypotheses.
    """
    if strict:
        require_hypotheses(CHECK_SPECS["check_uin"].hypotheses, x, y, tol)
    lo = inner(x, left_act(a, y))
    hi = _sqrt_gram(x) @ np.asarray(a) @ _sqrt_gram(y)
    detail, head = _ky_branches(lo, hi)
    branches = {"family": head}
    return _finish("check_uin", branches, tol, _digest(x, digest), extra_detail=detail)


def check_interp(x: ModuleElement, y: ModuleElement, a,
                 p: float, q: float, r: float, *,
                 tol: ToleranceConfig = DEFAULT_TOL,
                 digest: dict | None = None) -> InequalityReport:
    """Schatten-p interpolation bound for exponents with 1/q + 1/r = 2/p.

    lhs = ||<x,ay>||_p, rhs = ||K_x^(1/2q) a K_y^(1/2r)||_p with
    K_x = <<x,x>^(q-1) xbar, xbar>.  The outer powers are evaluated at
    ``epsilon_reg`` and at ten times it; the relative shift is reported as
    ``sensitivity`` together with the smallest inner eigenvalue, so
    near-singular instances can be recognized downstream.
    """
    validate_pqr(p, q, r)
    a = np.asarray(a)
    d = x.ctx.dim
    eye = np.eye(d)

    def inner_power(z: ModuleElement, s: float) -> np.ndarray:
        gz = hermitian_part(inner(z, z))
        zb = conjugate(z)
        return hermitian_part(inner(left_act(psd_power(gz, s), zb), zb))

    kx, ky = inner_power(x, q - 1), inner_power(y, r - 1)
    min_eig = min(float(np.linalg.eigvalsh(kx)[0]), float(np.linalg.eigvalsh(ky)[0]))
    lhs = norm(inner(x, left_act(a, y)), schatten(p))

    def rhs_at(eps: float) -> float:
        fx = psd_power(kx + eps * eye, 1 / (2 * q))
        fy = psd_power(ky + eps * eye, 1 / (2 * r))
        return norm(fx @ a @ fy, schatten(p))

    rhs = rhs_at(tol.epsilon_reg)
    sensitivity = abs(rhs_at(10 * tol.epsilon_reg) - rhs) / max(rhs, 1.0)
    branch = _scalar_branch(lhs, rhs)
    extra = {"sensitivity": float(sensitivity), "min_inner_eig": min_eig}
    dig = _digest(x, digest, params={"p": p, "q": q, "r": r})
    return _finish("check_interp", {schatten(p).label: branch}, tol, dig, extra_detail=extra)


def _defect_sandwich(x: ModuleElement, y: ModuleElement, a: np.ndarray,
                     s: float) -> np.ndarray:
    """(1 - <x,x>)^s a (1 - <y,y>)^s."""
    eye = np.eye(x.ctx.dim)
    gx = hermitian_part(inner(x, x))
    gy = hermitian_part(inner(y, y))
    return psd_power(hermitian_part(eye - gx), s) @ a @ psd_power(hermitian_part(eye - gy), s)


def check_naopaka(x: ModuleElement, y: ModuleElement, a, *,
                  tol: ToleranceConfig = DEFAULT_TOL, strict: bool = True,
                  digest: dict | None = None) -> InequalityReport:
    """|||(1-<x,x>)^(1/2) a (1-<y,y>)^(1/2)||| <= |||a - <x,ay>||| for
    normal contractive x, y, over the whole Ky Fan family."""
    if strict:
        require_hypotheses(CHECK_SPECS["check_naopaka"].hypotheses, x, y, tol)
    a = np.asarray(a)
    lo = _defect_sandwich(x, y, a, 0.5)
    hi = a - apply(ElementaryOperator(x, y), a)
    detail, head = _ky_branches(lo, hi)
    return _finish("check_naopaka", {"family": head}, tol, _digest(x, digest),
                   extra_detail=detail)


def check_alpha(x: ModuleElement, y: ModuleElement, a, alpha: float, *,
                tol: ToleranceConfig = DEFAULT_TOL, strict: bool = True,
                digest: dict | None = None) -> InequalityReport:
    """|||(1-<x,x>)^(a/2) a (1-<y,y>)^(a/2)||| <= |||(I-T)^alpha a|||.

    At alpha = 1 this coincides with check_naopaka branch for branch.
    (I-T)^alpha a comes from fractional_power_exact: for non-integer
    alpha and a normal vectorized T (which the normal, commuting
    hypotheses give) it is the exact eigen form; integer alpha takes the
    terminating binomial series, and any other case falls back to the
    series of fractional_power_apply, which stays the independent oracle.
    """
    validate_alpha(alpha)
    if strict:
        require_hypotheses(CHECK_SPECS["check_alpha"].hypotheses, x, y, tol)
    a = np.asarray(a)
    lo = _defect_sandwich(x, y, a, alpha / 2)
    hi = fractional_power_exact(ElementaryOperator(x, y), alpha, a, tol)
    detail, head = _ky_branches(lo, hi)
    dig = _digest(x, digest, params={"alpha": alpha})
    return _finish("check_alpha", {"family": head}, tol, dig, extra_detail=detail)


def check_defect(x: ModuleElement, y: ModuleElement, a,
                 p: float, q: float, r: float, *,
                 tol: ToleranceConfig = DEFAULT_TOL, strict: bool = True,
                 digest: dict | None = None) -> InequalityReport:
    """Defect-operator bound in Schatten-p norm for contractive x, y, no
    normality required:

    ||D_x^(1-1/q) a D_y^(1-1/r)||_p <= ||D_xbar^(-1/q) (a - <x,ay>) D_ybar^(-1/r)||_p
    """
    validate_pqr(p, q, r)
    if strict:
        require_hypotheses(CHECK_SPECS["check_defect"].hypotheses, x, y, tol)
    a = np.asarray(a)
    dx, dy = defect_operator(x, tol), defect_operator(y, tol)
    dxb, dyb = defect_operator(conjugate(x), tol), defect_operator(conjugate(y), tol)
    lhs = norm(psd_power(dx, 1 - 1 / q) @ a @ psd_power(dy, 1 - 1 / r), schatten(p))
    resid = a - apply(ElementaryOperator(x, y), a)
    rhs = norm(psd_power(dxb, -1 / q) @ resid @ psd_power(dyb, -1 / r), schatten(p))
    branch = _scalar_branch(lhs, rhs)
    dig = _digest(x, digest, params={"p": p, "q": q, "r": r})
    return _finish("check_defect", {schatten(p).label: branch}, tol, dig)


def check_gruss(x: ModuleElement, y: ModuleElement, a, g: GrussContext,
                ball=None, *, tol: ToleranceConfig = DEFAULT_TOL,
                strict: bool = True, digest: dict | None = None) -> InequalityReport:
    """Covariance (Gruss-type) bounds for Phi(x, ay) = <x,ay> - <x,e><e,ay>.

    The main branch compares |||Phi(x,ay)||| with
    |||Phi(x,x)^(1/2) a Phi(y,y)^(1/2)||| over the Ky Fan family.  When
    ``ball = (m, M, p, P)`` is given, membership of x in the ball [me, Me]
    and y in [pe, Pe] is verified first, and the diameter bound
    |||Phi(x,ay)||| <= (1/4) |||a||| |M-m| |P-p| is reported as well.
    """
    if x.ctx != g.e.ctx or y.ctx != g.e.ctx:
        raise CtxMismatch("x, y and the reference element live in different contexts")
    if strict:
        require_hypotheses(CHECK_SPECS["check_gruss"].hypotheses, x, y, tol, g.e)
    a = np.asarray(a)
    if ball is not None:
        require_in_ball(x, y, g.e, ball, tol)
        m, big_m, p, big_p = (float(v) for v in ball)

    lo_mat = gruss_inner(x, left_act(a, y), g)
    phi_x = hermitian_part(gruss_inner(x, x, g))
    phi_y = hermitian_part(gruss_inner(y, y, g))
    hi_mat = psd_power(phi_x, 0.5, tol) @ a @ psd_power(phi_y, 0.5, tol)
    detail, head = _ky_branches(lo_mat, hi_mat, prefix="g3_")
    branches = {"g3": head}
    if ball is not None:
        diam = 0.25 * abs(big_m - m) * abs(big_p - p)
        mm_detail, mm_head = _ky_branches(lo_mat, diam * a, prefix="mm_")
        detail.update(mm_detail)
        branches["mm"] = mm_head
    dig = _digest(x, digest, params={"ball": list(ball) if ball is not None else None})
    return _finish("check_gruss", branches, tol, dig, extra_detail=detail)


def check_radius_submult(x: ModuleElement, y: ModuleElement, *,
                         tol: ToleranceConfig = DEFAULT_TOL,
                         digest: dict | None = None) -> InequalityReport:
    """r(T_{x,y})^2 <= r(T_{x,x}) r(T_{y,y}) via the vectorized spectra,
    with the probe/product bracket on ||T_{x,y}|| as a companion branch."""
    r_xy = spectral_radius(ElementaryOperator(x, y))
    r_xx = spectral_radius(ElementaryOperator(x, x))
    r_yy = spectral_radius(ElementaryOperator(y, y))
    radius = _scalar_branch(r_xy ** 2, r_xx * r_yy)
    bounds = operator_norm_T(ElementaryOperator(x, y))
    bracket = _scalar_branch(bounds.lower, bounds.upper)
    return _finish("check_radius_submult", {"radius_sq": radius, "opnorm_gap": bracket},
                   tol, _digest(x, digest))

"""Checkable inequality predicates, one per verified statement.

Every check evaluates both sides of one operator inequality on a concrete
instance and returns an :class:`InequalityReport` with signed margins.
Margins are oriented so that nonnegative means "holds": for scalar norm
comparisons ``margin = rhs - lhs``, for PSD-order comparisons it is the
smallest eigenvalue of ``rhs - lhs``.  Unitarily-invariant-norm claims are
certified through the full Ky Fan family (Fan dominance), with a
Hilbert-Schmidt value recorded as a redundant spot check.

Each check has one numeric implementation, the kernel its :data:`CHECK_SPECS`
row names: ``kernel(b)`` takes only a :class:`Batch` (same-shape instances,
each at the same grid points, as one stack) and gives both sides of every
report, one (branches, detail) row per report; no kernel reads the tolerance.
:func:`run_batch` enforces each instance's preconditions (:func:`require_preconditions`),
runs the kernel once on the instances that meet them and alone turns its rows
into reports.  Each public ``check_*`` function is derived from its row: a
batch of one instance at one point (``drop`` names hypotheses not to enforce),
documented by its kernel's docstring, the statement whose two sides it computes.  A
run evaluates a group of trials as one batch; since every stacked operation
treats each matrix on its own, a report is bit for bit the same either way.
Every route builds its batch with :meth:`Batch.of` from one row per instance,
the one operand gate and group rule: no rows or points, two :func:`group_key`s,
an x, y or e that is not a module element, or a missing e is InvalidSpec first.
The tests hold the kernels against :mod:`opineq.reference`, the paper's
formulas coded plainly.

Generators, runner, search and CLI read each check from its one row in
:data:`CHECK_SPECS`, every grid axis from its one row in :data:`GRIDS`,
and every hypothesis from its one predicate here; adding a check means
one row that names its kernel.
"""

from __future__ import annotations

import inspect
import math
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOL, TOL_ABS, ToleranceConfig, ct, eig_powers, eigvalsh, herm, is_real, moduli,
    op_norms, psd_eigs, psd_order_gaps, psd_powers, svdvals,
)
from .errors import (
    BadExponents, BallViolated, InvalidSpec, NotContractive, NotNormal, UnknownCheck, failures,
    raise_first,
)
from .hmodule import (
    ModuleElement, Stack, _same_ctx, acting_stack, covariances, require_units,
    weighted_products, within,
)
from .norms import HILBERT_SCHMIDT, TRACE, fan_gaps, norms_of, schatten
from .transformer import (
    applied, defect_operators, fractional_powers, probe_lower_bounds, spectral_radii,
    validate_alpha, vectorized,
)

# Contractive hypotheses are enforced with this much slack below 1 so the
# boundary case ||x|| = 1 is kept strictly out of scope.
CONTRACTION_MARGIN = 1e-3
# check_interp shifts K by this, which keeps its outer powers defined for singular K
EPSILON_REG = 1e-10


class CheckSpec(NamedTuple):
    """One verified statement.  ``name`` is the ``check_*`` function derived
    from this row here, looked up at call time.  After x and y it takes the
    ``operands`` ("a"; "e", an element; "ball" = (m, M, p, P), optional) and
    then the keys of its ``grid`` axis in :data:`GRIDS`; it takes ``drop`` only
    if the row has ``hypotheses``.  ``recipe`` keys its row of
    :data:`opineq.generators.RECIPES`; ``kind`` is the element kind its
    reports record, and ``kernel(b)`` the numbers of a :class:`Batch`, one
    (branches, detail) row per report in :func:`run_batch`'s order; its
    docstring states the inequality and is the function's."""

    name: str
    anchor: str
    operands: tuple[str, ...]
    recipe: str
    kind: str
    kernel: Callable[[Batch], list]
    hypotheses: tuple[str, ...] = ()
    grid: str | None = None

    def enforced(self, drop=()) -> tuple[str, ...]:
        """The hypotheses left once the ``drop`` ones are removed."""
        return tuple(h for h in self.hypotheses if h not in drop)


def check_spec(name: str) -> CheckSpec:
    try:
        return CHECK_SPECS[name]
    except KeyError:
        raise UnknownCheck(f"no check named {name!r}") from None


# --------------------------------------------------------------------------
# hypotheses and parameter rules: each predicate takes stacks and gives, per
# element, None or the error that element raises alone

def _require_normal(x: Stack, y: Stack, tol: ToleranceConfig, e: Stack | None = None) -> list:
    """x and y must be normal.  Beside a reference e (the covariance
    setting) the parts of each must also mutually commute, and every part
    of e must be a scalar multiple of the identity: a scalar reference
    keeps the centered elements x - e<e,x> inside the module's normal
    cone, which is what the covariance bound consumes; a merely commuting
    non-scalar reference is not enough."""
    sides = [(tag + " has normality defect {:.3e}", ok, defect)
             for tag, ok, defect in zip("xy", *(v.reshape(2, -1) for v in x.is_normal(tol, y)))]
    if e is None:
        return failures(NotNormal, *sides)
    d = e.parts.shape[-1]
    i, j = np.triu_indices(x.parts.shape[-3], 1)
    commutators = [z.parts[:, i] @ z.parts[:, j] - z.parts[:, j] @ z.parts[:, i] for z in (x, y)]
    centred = e.parts - (np.trace(e.parts, axis1=-2, axis2=-1) / d)[..., None, None] * np.eye(d)
    ok, worst = within(np.concatenate([*commutators, centred], axis=1), tol.tol_rel, lambda r: (
        np.maximum(1.0, np.maximum(x.norms[r] * x.norms[r], y.norms[r] * y.norms[r]))))
    return failures(NotNormal, *sides,
                    ("instance leaves the scalar-reference commuting family by {:.3e}", ok, worst))


def _require_contractive(x: Stack, y: Stack, tol: ToleranceConfig,
                         e: Stack | None = None) -> list:
    tops = eigvalsh(herm(np.stack([x.gram, y.gram])))[..., -1]
    oks = ~(tops > 1.0 - CONTRACTION_MARGIN + TOL_ABS)
    return failures(NotContractive, *((f"<{t},{t}> has top eigenvalue {{:.6f}}, above 1 - "
                                       f"{CONTRACTION_MARGIN:g}", ok, top)
                                      for t, ok, top in zip("xy", oks, tops)))


HYPOTHESES = {"normality": _require_normal, "contraction": _require_contractive}


def validate_drop(drop) -> tuple[str, ...]:
    """``drop`` as a tuple of hypothesis names; InvalidSpec for anything but a
    tuple or list, for a name outside :data:`HYPOTHESES` or for a name given twice."""
    if not isinstance(drop, (tuple, list)):
        raise InvalidSpec(f"drop must be a tuple or list of hypothesis names, not {drop!r}")
    for k, name in enumerate(drop):
        if name not in HYPOTHESES:
            raise InvalidSpec(f"unknown hypothesis {name!r}; known: {', '.join(HYPOTHESES)}")
        if name in drop[:k]:
            raise InvalidSpec(f"hypothesis {name!r} is dropped twice")
    return tuple(drop)


def ball_bounds(ball) -> tuple[float, ...]:
    """``ball`` as the floats (m, M, p, P); InvalidSpec unless it is 4 finite
    real numbers."""
    if (not isinstance(ball, (tuple, list, np.ndarray)) or len(ball) != 4
            or not all(is_real(v) and math.isfinite(v) for v in ball)):
        raise InvalidSpec(f"ball must be 4 finite numbers (m, M, p, P), got {ball!r}")
    return tuple(map(float, ball))


def require_in_ball(x, y, e, balls, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Per element of the stacks x, y, e and ``(m, M, p, P)`` in ``balls``, None
    if x lies in [me, Me] and y in [pe, Pe], else its BallViolated."""
    bounds = np.array(balls, dtype=float)
    d = e.parts.shape[-1]
    sides = []
    for z, lo, hi, tag in ((x, bounds[:, 0], bounds[:, 1], "x"),
                           (y, bounds[:, 2], bounds[:, 3], "y")):
        centre = e.parts @ (((hi + lo) / 2)[:, None, None, None] * np.eye(d))
        off = z.parts - centre
        dist = np.sqrt(op_norms(weighted_products(z.weights, off, off)))
        radius = abs(hi - lo) / 2
        bad = dist > radius + TOL_ABS + tol.tol_rel * np.maximum(radius, 1.0)
        sides.append((tag + " sits {:.6f} from the ball center, radius {:.6f}", ~bad, dist, radius))
    return failures(BallViolated, *sides)


def validate_pqr(p: float, q: float, r: float) -> None:
    """Raise BadExponents unless p, q, r are finite, > 1 and 1/q + 1/r = 2/p."""
    if not all(math.isfinite(v) for v in (p, q, r)) or min(p, q, r) <= 1:
        raise BadExponents(f"exponents must be finite and satisfy p, q, r > 1, "
                           f"got ({p}, {q}, {r})")
    if abs(1 / q + 1 / r - 2 / p) > 1e-12:
        raise BadExponents(f"1/q + 1/r != 2/p for (p, q, r) = ({p}, {q}, {r})")


class GridAxis(NamedTuple):
    """One grid axis: the report keys of a point (a tuple of numbers), the
    point of an instance that records none, the points a run evaluates when
    given none, and the rule :meth:`params` applies."""

    keys: tuple[str, ...]
    default: tuple
    points: tuple[tuple, ...]
    validate: Callable[..., None]

    def params(self, point) -> dict:
        """One point's report parameters, as floats; InvalidSpec unless one int or
        float per key, then what the axis rule ``validate`` raises for them."""
        if len(point) != len(self.keys):
            raise InvalidSpec(f"grid point {tuple(point)} needs one number per key "
                              f"of ({', '.join(self.keys)})")
        if not all(map(is_real, point)):
            raise InvalidSpec(f"grid parameters must be real numbers, got {tuple(point)}")
        params = dict(zip(self.keys, map(float, point)))
        try:
            self.validate(*params.values())
        except InvalidSpec as exc:
            raise type(exc)(f"grid parameters {params}: {exc}") from None
        return params


# The axis of each CheckSpec.grid; a check without a grid has the one point ().
GRIDS = {None: GridAxis((), (), ((),), lambda: None),
         "pqr": GridAxis(("p", "q", "r"), (2.0, 2.0, 2.0),
                         ((2.0, 2.0, 2.0), (3.0, 2.0, 6.0), (4.0, 4.0, 4.0), (4 / 3, 4 / 3, 4 / 3)),
                         validate_pqr),
         "alpha": GridAxis(("alpha",), (1.0,), ((0.5,), (1.0,), (2.0,)), validate_alpha)}


class InequalityReport(NamedTuple):
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
    norm_detail: dict
    instance: dict

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


# --------------------------------------------------------------------------
# batches and report assembly

class Batch(NamedTuple):
    """A whole request: check ``name`` with its ``drop`` set (hypotheses not to
    enforce, as given), on B instances of one dimension and length, all
    evaluated at the same grid ``points`` (tuples of floats, ``()`` without a
    grid).
    :func:`run_batch` gives one report per (instance, point),
    instance-major; each instance has one digest.  A direct ``check_*`` call
    is a batch of one instance at one point, so every report comes from the
    same code.  Build it with :meth:`of`."""

    name: str
    drop: tuple
    x: Stack
    y: Stack
    a: np.ndarray | None          # (B, d, d)
    e: Stack | None               # unit references
    balls: tuple | None           # B tuples of floats (m, M, p, P)
    points: tuple
    digests: tuple                # one per instance

    @classmethod
    def of(cls, rows, points) -> "Batch":
        """The batch of ``rows``, one mapping per instance: its ``check``, ``drop``
        (default ``()``), ``x``, ``y``, the operands its check's row names and
        ``digest`` (default None); other keys are ignored.  Checked in this order:
        at least one row and one grid point, one :func:`group_key` (InvalidSpec),
        the check (UnknownCheck), each x and y, and each e of a check that takes
        one, a module element (InvalidSpec, also for one that is None or missing),
        per instance x, y and e in one context, each ``a`` (:func:`acting_stack`),
        a ball in every row or in none (InvalidSpec), each ball
        (:func:`ball_bounds`) and grid point (:meth:`GridAxis.params`)."""
        if not rows or not points:
            raise InvalidSpec("a batch needs at least one instance and one grid point")
        keys = [group_key(row) for row in rows]
        if any(key != keys[0] for key in keys):
            raise InvalidSpec(f"a group needs one (check, dim, len, drop), "
                              f"got {sorted({str(k): k for k in keys}.values(), key=str)}")
        spec = check_spec(keys[0][0])
        ops = {op: [row.get(op) for row in rows] for op in ("x", "y", *spec.operands)}
        elements = [ops[op] for op in ("x", "y", "e") if op in ops]
        for z in (z for zs in elements for z in zs):
            if not isinstance(z, ModuleElement):
                raise InvalidSpec(f"{spec.name} takes module elements as "
                                  f"{'x, y and e' if 'e' in ops else 'x and y'}, "
                                  f"got {type(z).__name__}")
        for operands in zip(*elements):
            _same_ctx(*operands)
        a = acting_stack(ops["x"], ops["a"]) if "a" in ops else None
        balls = ops.get("ball", [None])
        if len({ball is None for ball in balls}) > 1:
            raise InvalidSpec(f"a {spec.name} batch gives a ball in every row or in none")
        return cls(spec.name, keys[0][3], Stack.of(ops["x"]), Stack.of(ops["y"]), a,
                   Stack.of(ops["e"]) if "e" in ops else None,
                   None if balls[0] is None else tuple(map(ball_bounds, balls)),
                   tuple(tuple(GRIDS[spec.grid].params(p).values()) for p in points),
                   tuple(row.get("digest") for row in rows))

    def rows(self, keep) -> "Batch":
        """The instances ``keep`` indexes, each stack rebuilt from their rows."""
        def take(v):
            return (Stack(v.weights[keep], v.parts[keep]) if isinstance(v, Stack) else v[keep]
                    if isinstance(v, np.ndarray) else v and tuple(v[k] for k in keep))
        return self if len(keep) == len(self.digests) else self._replace(
            **{f: take(getattr(self, f)) for f in ("x", "y", "a", "e", "balls", "digests")})


def group_key(row) -> tuple:
    """What every row of one batch shares: (check, dim, len, :func:`validate_drop`
    of its drop); dim and len are None for an x that is not a module element."""
    x = row.get("x")
    shape = (x.ctx.dim, x.ctx.length) if isinstance(x, ModuleElement) else (None, None)
    return row.get("check"), *shape, validate_drop(row.get("drop", ()))


class _Branch(NamedTuple):
    lhs: float
    rhs: float
    margin: float
    scale: float


def _scalar_branch(lhs: float, rhs: float) -> _Branch:
    scale = max(abs(lhs), abs(rhs), 1.0)
    return _Branch(float(lhs), float(rhs), float(rhs - lhs), scale)


def _psd_branches(lo: np.ndarray, hi: np.ndarray) -> list[_Branch]:
    """lo <= hi in the PSD order, per matrix of the stacks."""
    margins, n_lo, n_hi, scales = (v.tolist() for v in psd_order_gaps(lo, hi))
    return [_Branch(*branch) for branch in zip(n_lo, n_hi, margins, scales)]


def _ky_branches(s_lo: np.ndarray, s_hi: np.ndarray,
                 prefix: str = "") -> list[tuple[dict, _Branch]]:
    """Ky Fan profile margins of |||lo||| <= |||hi||| per row of singular
    values of the stacks, worst k as headline, with the Hilbert-Schmidt
    spot check."""
    p_lo, p_hi, gaps, scales = fan_gaps(s_lo, s_hi)
    hs = norms_of(s_hi, HILBERT_SCHMIDT) - norms_of(s_lo, HILBERT_SCHMIDT)
    labels = [f"{prefix}ky_fan_{k + 1}" for k in range(gaps.shape[-1])]
    out = []
    for pl, ph, gap, k, h, scale in zip(p_lo.tolist(), p_hi.tolist(), gaps.tolist(),
                                        np.argmin(gaps, axis=-1).tolist(), hs.tolist(),
                                        scales.tolist()):
        detail = {label: g / scale for label, g in zip(labels, gap)}
        detail[f"{prefix}hilbert_schmidt"] = h / scale
        out.append((detail, _Branch(pl[k], ph[k], gap[k], scale)))
    return out


def _finish(name: str, branches: dict[str, _Branch], tol: ToleranceConfig,
            digest: dict, extra_detail: dict | None) -> InequalityReport:
    """Assemble a report: headline is the branch with the worst margin/scale."""
    detail = {label: b.margin / b.scale for label, b in branches.items()}
    head = branches[min(detail, key=detail.__getitem__)]
    detail.update(extra_detail or {})
    holds = all(b.margin >= -tol.tol_rel * b.scale for b in branches.values())
    return InequalityReport(name=name, lhs=head.lhs, rhs=head.rhs, margin=head.margin, holds=holds,
                            scale=head.scale, norm_detail=detail, instance=digest)


def _family_rows(lo: np.ndarray, hi: np.ndarray) -> list:
    """Rows whose one branch, "family", is Ky Fan dominance lo <= hi."""
    return [({"family": head}, detail)
            for detail, head in _ky_branches(*svdvals(np.stack([lo, hi])))]


def _instance_major(b: Batch, columns: list) -> list:
    """(point, value) pairs from one list of per-instance values per point,
    in report order."""
    return [(point, v) for row in zip(*columns) for point, v in zip(b.points, row)]


def _products(b: Batch) -> np.ndarray:
    """T(a) = <x, a y> per instance."""
    return applied(b.x.weights, b.x.parts, b.y.parts, b.a)


def _sqrt_grams(*zs: Stack) -> np.ndarray:
    """<z,z>^(1/2) of each stack, stacked, from one eigendecomposition."""
    return psd_powers(herm(np.stack([z.gram for z in zs])), 0.5)


def _column(values) -> np.ndarray:
    """Per-instance scalars shaped to scale a stack of matrices."""
    return np.array(values)[:, None, None]


def _powers(eigs: tuple, exps: list) -> np.ndarray:
    """Entry i of stacked eigensystems at each exponent of the equal-length
    exps[i], from one :func:`eig_powers` call: (len(exps), K, B, d, d)."""
    lam, u = (np.repeat(v, len(exps[0]), axis=0) for v in eigs)
    return eig_powers(lam, u, [s for row in exps for s in row]).reshape(
        len(exps), len(exps[0]), *u.shape[1:])


# --------------------------------------------------------------------------
# kernels: the numerics of each check over a Batch, one row (branches, extra
# detail or None) per report; each stage makes one LAPACK call, over every
# instance and grid point

def _cs(b: Batch) -> list:
    """|<x,y>|^2 <= ||x||^2 <y,y> in the PSD order, plus its square root."""
    m = weighted_products(b.x.weights, b.x.parts, b.y.parts)
    nx2 = _column([v ** 2 for v in b.x.norms.tolist()])
    gy = herm(b.y.gram)
    # the squared branches, then the square-root ones
    branches = _psd_branches(np.concatenate([ct(m) @ m, moduli(m)]),
                             np.concatenate([nx2 * gy, np.sqrt(nx2) * psd_powers(gy, 0.5)]))
    return [({"squared": s1, "sqrt": s2}, None)
            for s1, s2 in zip(branches[:len(m)], branches[len(m):])]


def _basic(b: Batch) -> list:
    """Operator- and trace-norm bounds for <x, ay>; no normality needed.

    The operator branch is ||<x,ay>|| <= ||x|| ||y|| ||a||; the trace
    branch compares against the conjugated Gram square roots,
    ||<xbar,xbar>^(1/2) a <ybar,ybar>^(1/2)||_1.
    """
    gx, gy = _sqrt_grams(b.x.conj, b.y.conj)
    s_val, s_rhs, s_a = svdvals(np.stack([_products(b), gx @ b.a @ gy, b.a]))
    return [({"op": _scalar_branch(op, nx * ny * na), "tr": _scalar_branch(tr, rtr)}, None)
            for op, tr, nx, ny, na, rtr in zip(
                s_val[:, 0].tolist(), norms_of(s_val, TRACE).tolist(), b.x.norms.tolist(),
                b.y.norms.tolist(), s_a[:, 0].tolist(), norms_of(s_rhs, TRACE).tolist())]


def _hs(b: Batch) -> list:
    """Hilbert-Schmidt bounds ||<x,ay>||_2 <= ||x|| ||a <ybar,ybar>^(1/2)||_2
    and the mirrored ||y|| ||<xbar,xbar>^(1/2) a||_2."""
    gx, gy = _sqrt_grams(b.x.conj, b.y.conj)
    lhs, rx, ry = norms_of(svdvals(np.stack([_products(b), b.a @ gy, gx @ b.a])),
                           HILBERT_SCHMIDT).tolist()
    return [({"x_weighted": _scalar_branch(l, nx * hx),
              "y_weighted": _scalar_branch(l, ny * hy)}, None)
            for l, nx, ny, hx, hy in zip(lhs, b.x.norms.tolist(), b.y.norms.tolist(), rx, ry)]


def _refinement(b: Batch) -> list:
    """|<x,ay>|^2 <= ||x||^2 <y, a*a y> in the PSD order."""
    m = _products(b)
    aha = (ct(b.a) @ b.a)[:, None]
    nx2 = _column([v ** 2 for v in b.x.norms.tolist()])
    rhs = nx2 * weighted_products(b.y.weights, b.y.parts, aha @ b.y.parts)
    return [({"psd": branch}, None) for branch in _psd_branches(ct(m) @ m, rhs)]


def _uin(b: Batch) -> list:
    """|||<x,ay>||| <= |||<x,x>^(1/2) a <y,y>^(1/2)||| for normal x, y,
    certified over the whole Ky Fan family.

    ``drop=("normality",)`` skips that precondition so a counterexample
    search can probe instances outside the hypotheses.
    """
    gx, gy = _sqrt_grams(b.x, b.y)
    return _family_rows(_products(b), gx @ b.a @ gy)


def _interp(b: Batch) -> list:
    """Schatten-p interpolation bound for exponents with 1/q + 1/r = 2/p.

    lhs = ||<x,ay>||_p, rhs = ||K_x^(1/2q) a K_y^(1/2r)||_p with
    K_x = <<x,x>^(q-1) xbar, xbar>.  The outer powers are taken of
    K + EPSILON_REG and of K + 10 EPSILON_REG; their relative shift is
    reported as ``sensitivity`` together with the smallest inner
    eigenvalue, so near-singular instances can be recognized downstream.
    """
    s_lhs = svdvals(_products(b))
    # K_x = <<x,x>^(q-1) xbar, xbar> per distinct q, then K_y likewise per r
    keys = [(side, s) for side in (0, 1)
            for s in dict.fromkeys(point[side + 1] - 1 for point in b.points)]
    sides = [side for side, _ in keys]
    lam, u = psd_eigs(herm(np.stack([b.x.gram, b.y.gram])))
    zb = np.stack([b.x.conj.parts, b.y.conj.parts])[sides]
    inner = eig_powers(lam[sides], u[sides], [s for _, s in keys])
    ks = herm(weighted_products(np.stack([b.x.weights, b.y.weights])[sides],
                                inner[:, :, None] @ zb, zb))
    low = dict(zip(keys, eigvalsh(ks)[..., 0].tolist()))
    # the outer powers at EPSILON_REG and ten times it, each from its own eigh:
    # K_x^(1/2q) at each shift and point, then K_y^(1/2r)
    eye = np.eye(b.x.parts.shape[-1])
    shifted = psd_eigs(np.concatenate([ks + EPSILON_REG * eye, ks + 10 * EPSILON_REG * eye]))
    picks, exps = zip(*((shift * len(keys) + keys.index((side, point[side + 1] - 1)),
                         1 / (2 * point[side + 1]))
                        for side in (0, 1) for shift in (0, 1) for point in b.points))
    outer = eig_powers(*(v[list(picks)] for v in shifted), exps)
    half = len(picks) // 2
    s_rhs = svdvals(outer[:half] @ b.a @ outer[half:]).reshape(2, len(b.points), *s_lhs.shape)
    columns = [zip(norms_of(s_lhs, schatten(p)).tolist(), *norms_of(s_rhs[:, k], schatten(p)).tolist(),
                   low[0, q - 1], low[1, r - 1])
               for k, (p, q, r) in enumerate(b.points)]
    return [({schatten(p).label: _scalar_branch(lhs, rhs)},
             {"sensitivity": float(abs(rhs10 - rhs) / max(rhs, 1.0)),
              "min_inner_eig": min(mx, my)})
            for (p, _, _), (lhs, rhs, rhs10, mx, my) in _instance_major(b, columns)]


def _defect_eigs(b: Batch) -> tuple:
    """Clamped eigensystems of 1 - <x,x> and 1 - <y,y>, stacked (2, B, ...)."""
    eye = np.eye(b.x.parts.shape[-1])
    return psd_eigs(herm(eye - herm(np.stack([b.x.gram, b.y.gram]))))


def _naopaka(b: Batch) -> list:
    """|||(1-<x,x>)^(1/2) a (1-<y,y>)^(1/2)||| <= |||a - <x,ay>||| for
    normal contractive x, y, over the whole Ky Fan family."""
    dx, dy = eig_powers(*_defect_eigs(b), 0.5)
    return _family_rows(dx @ b.a @ dy, b.a - _products(b))


def _alpha(b: Batch) -> list:
    """|||(1-<x,x>)^(a/2) a (1-<y,y>)^(a/2)||| <= |||(I-T)^alpha a|||.

    At alpha = 1 this coincides with check_naopaka branch for branch.
    (I-T)^alpha a is :func:`fractional_powers`': the finite binomial sum
    at integer alpha <= FINITE_MAX, else the exact eigen form, which an
    ill-conditioned or defective eigenbasis refuses, normal or not.
    """
    alphas = [alpha for (alpha,) in b.points]
    px, py = _powers(_defect_eigs(b), [[alpha / 2 for alpha in alphas]] * 2)
    los = px @ b.a @ py
    his = fractional_powers(b.x, b.y, b.a, alphas)
    d = b.a.shape[-1]
    # one stack per point, interleaved into report order
    return _family_rows(los.swapaxes(0, 1).reshape(-1, d, d),
                        np.stack(his, axis=1).reshape(-1, d, d))


def _defect(b: Batch) -> list:
    """Defect-operator bound in Schatten-p norm for contractive x, y, no
    normality required:

    ||D_x^(1-1/q) a D_y^(1-1/r)||_p <= ||D_xbar^(-1/q) (a - <x,ay>) D_ybar^(-1/r)||_p
    """
    x, y = b.x, b.y
    four = Stack(np.concatenate([x.weights, y.weights] * 2),
                 np.concatenate([x.parts, y.parts, x.conj.parts, y.conj.parts]))
    eigs = (v.reshape(4, len(x.parts), *v.shape[1:]) for v in psd_eigs(defect_operators(four)))
    qs, rs = [q for _, q, _ in b.points], [r for _, _, r in b.points]
    # D_x^(1-1/q), D_y^(1-1/r), D_xbar^(-1/q) and D_ybar^(-1/r) at every point
    dx, dy, dxb, dyb = _powers(eigs, [[1 - 1 / q for q in qs], [1 - 1 / r for r in rs],
                                      [-1 / q for q in qs], [-1 / r for r in rs]])
    s_lhs, s_rhs = svdvals(np.stack([dx @ b.a @ dy, dxb @ (b.a - _products(b)) @ dyb]))
    columns = [zip(norms_of(s_lhs[k], schatten(p)).tolist(), norms_of(s_rhs[k], schatten(p)).tolist())
               for k, (p, _, _) in enumerate(b.points)]
    return [({schatten(p).label: _scalar_branch(l, h)}, None)
            for (p, _, _), (l, h) in _instance_major(b, columns)]


def _gruss(b: Batch) -> list:
    """Covariance (Gruss-type) bounds for Phi(x, ay) = <x,ay> - <x,e><e,ay>
    with a unit reference element e of x's and y's context.

    The main branch compares |||Phi(x,ay)||| with
    |||Phi(x,x)^(1/2) a Phi(y,y)^(1/2)||| over the Ky Fan family.  A ball
    (m, M, p, P), if given, must be 4 finite numbers.  First <e,e> = I is
    checked at ``tol``, then normality unless ``drop`` names it, then, with a
    ball, that x lies in [me, Me] and y in [pe, Pe]; the diameter bound
    |||Phi(x,ay)||| <= (1/4) |||a||| |M-m| |P-p| is then reported as well.
    """
    x, y, e, w = b.x, b.y, b.e, b.x.weights
    # Phi(x, ay), Phi(x, x) and Phi(y, y) in one stack
    lo, phi_x, phi_y = covariances(np.stack([w] * 3), np.stack([x.parts, x.parts, y.parts]),
                                   np.stack([b.a[:, None] @ y.parts, x.parts, y.parts]),
                                   np.stack([e.parts] * 3))
    px, py = psd_powers(herm(np.stack([phi_x, phi_y])), 0.5)
    his = [px @ b.a @ py]
    if b.balls is not None:
        his.append(_column([0.25 * abs(big_m - m) * abs(big_p - p)
                            for m, big_m, p, big_p in b.balls]) * b.a)
    s_lo, *s_his = svdvals(np.stack([lo, *his]))
    rows = [({"g3": head}, detail) for detail, head in _ky_branches(s_lo, s_his[0], prefix="g3_")]
    if b.balls is not None:
        for (branches, detail), (mm_detail, mm_head) in zip(
                rows, _ky_branches(s_lo, s_his[1], prefix="mm_")):
            branches["mm"] = mm_head
            detail.update(mm_detail)
    return rows


def _radius_submult(b: Batch) -> list:
    """r(T_{x,y})^2 <= r(T_{x,x}) r(T_{y,y}) via the vectorized spectra,
    with the probe/product bracket on ||T_{x,y}|| as a companion branch."""
    x, y, n = b.x, b.y, len(b.x.parts)
    rep = vectorized(np.concatenate([x.weights] * 3), np.concatenate([x.parts, x.parts, y.parts]),
                     np.concatenate([y.parts, x.parts, y.parts]))
    r_xy, r_xx, r_yy = spectral_radii(rep).reshape(3, n).tolist()
    lower = probe_lower_bounds(rep[:n]).tolist()
    return [({"radius_sq": _scalar_branch(rxy ** 2, rxx * ryy),
              "opnorm_gap": _scalar_branch(low, nx * ny)}, None)
            for rxy, rxx, ryy, low, nx, ny in zip(r_xy, r_xx, r_yy, lower, x.norms.tolist(),
                                                  y.norms.tolist())]


# The canonical suite order.  check_interp's elements are drawn generic
# although its reports record "normal_commuting".
CHECK_SPECS = {spec.name: spec for spec in (
    CheckSpec("check_cs", "Eq. (CS)", (), "pair", "generic", _cs),
    CheckSpec("check_basic", "Eq. (1infty)", ("a",), "pair", "generic", _basic),
    CheckSpec("check_hs", "Eq. (C2)", ("a",), "pair", "generic", _hs),
    CheckSpec("check_refinement", "Eq. (Refinement)", ("a",), "pair", "generic", _refinement),
    CheckSpec("check_uin", "Eq. (UIN1)", ("a",), "pair", "normal_commuting", _uin, ("normality",)),
    CheckSpec("check_interp", "Eq. (InterP)", ("a",), "unit_pair", "normal_commuting", _interp,
              grid="pqr"),
    CheckSpec("check_naopaka", "Theorem (Naopaka)", ("a",), "contractive_pair",
              "normal_commuting", _naopaka, ("normality", "contraction")),
    CheckSpec("check_alpha", "Eq. (AOTalpha)", ("a",), "contractive_pair",
              "normal_commuting", _alpha, ("normality", "contraction"), grid="alpha"),
    CheckSpec("check_defect", "Eq. (Defekt)", ("a",), "contractive_pair", "contractive",
              _defect, ("contraction",), grid="pqr"),
    CheckSpec("check_gruss", "Eqs. (Gruss3)/(GrussMm)", ("a", "e", "ball"), "gruss",
              "gruss", _gruss, ("normality",)),
    CheckSpec("check_radius_submult", "Remark (spectral radius)", (), "pair", "generic",
              _radius_submult),
)}
CHECK_NAMES = tuple(CHECK_SPECS)
CHECK_ANCHORS = {name: spec.anchor for name, spec in CHECK_SPECS.items()}


def require_preconditions(b: Batch, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Per instance, None or the error it raises alone for the first precondition
    of the batch's check it breaks, in this order: the unit reference (if ``b.e``
    is set), the row's hypotheses minus ``b.drop``, the ball (if ``b.balls`` is
    set), after :meth:`Batch.of` has checked the operands, drop and points."""
    verdicts = [[None] * len(b.digests)]
    if b.e is not None:
        verdicts.append(require_units(b.e, tol))
    verdicts += [HYPOTHESES[h](b.x, b.y, tol, b.e) for h in CHECK_SPECS[b.name].enforced(b.drop)]
    if b.balls is not None:
        verdicts.append(require_in_ball(b.x, b.y, b.e, b.balls, tol))
    return [next(filter(None, row), None) for row in zip(*verdicts)]


def run_batch(b: Batch, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Per (instance, point), instance-major, the instance's error from
    :func:`require_preconditions` or its report: the kernel runs once, on the rest
    (:meth:`Batch.rows`); ``holds`` is decided at ``tol``, and each instance's digest
    is laid over the batch's shape, its params under the point's and ``"ball"``."""
    errors = require_preconditions(b, tol)
    kept = b.rows([k for k, error in enumerate(errors) if error is None])
    spec = CHECK_SPECS[b.name]
    grid = [dict(zip(GRIDS[spec.grid].keys, point)) for point in b.points]
    shape = {"seed": None, "dim": b.x.parts.shape[-1], "len": b.x.parts.shape[-3]}
    balls = [{"ball": None if ball is None else list(ball)} if "ball" in spec.operands else {}
             for ball in kept.balls or [None] * len(kept.digests)]
    instances = [{**shape, **digest, "params": {**digest.get("params", {}), **point, **ball}}
                 for digest, ball in zip((d or {} for d in kept.digests), balls) for point in grid]
    reports = (_finish(b.name, branches, tol, instance, detail) for (branches, detail), instance
               in zip(spec.kernel(kept) if kept.digests else (), instances))
    return [error or next(reports) for error in errors for _ in b.points]


# --------------------------------------------------------------------------
# checks: each public ``check_*`` function is derived from its row

def _check_function(spec: CheckSpec) -> Callable[..., InequalityReport]:
    """The row's check on one instance at one point: x, y, the row's
    ``operands`` (``ball`` defaults to None) and its grid keys, then keyword-only
    ``tol``, ``drop`` (only with hypotheses) and ``digest``; its doc is the kernel's."""
    par = inspect.Parameter
    keys = GRIDS[spec.grid].keys
    keywords = {"tol": DEFAULT_TOL, **({"drop": ()} if spec.hypotheses else {}), "digest": None}
    signature = inspect.Signature(
        [par(n, par.POSITIONAL_OR_KEYWORD, default=None if n == "ball" else par.empty)
         for n in ("x", "y", *spec.operands, *keys)]
        + [par(n, par.KEYWORD_ONLY, default=v) for n, v in keywords.items()])

    def check(*args, **kwargs) -> InequalityReport:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        v = bound.arguments
        return raise_first(run_batch(Batch.of([{"check": spec.name, **v}],
                                              [tuple(v[k] for k in keys)]), v["tol"]))[0]

    check.__name__ = check.__qualname__ = spec.name
    check.__doc__, check.__signature__ = spec.kernel.__doc__, signature
    return check


globals().update((spec.name, _check_function(spec)) for spec in CHECK_SPECS.values())

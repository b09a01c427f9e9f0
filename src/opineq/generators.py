"""Seeded instance generators and replayable instance containers.

All randomness in the package flows through this module.  Every generated
object is a deterministic function of a 64-bit seed, and a materialized
:class:`CheckInstance` serializes to JSON exactly, so any reported margin
can be replayed bit for bit.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .checks import (
    InequalityReport, check_alpha, check_basic, check_cs, check_defect,
    check_gruss, check_hs, check_interp, check_naopaka, check_radius_submult,
    check_refinement, check_uin,
)
from .core import DEFAULT_TOL, ToleranceConfig, hermitian_part, op_norm, psd_power
from .errors import InvalidSpec, UnknownCheck
from .hmodule import (
    GrussContext, ModuleContext, ModuleElement, element_from_json,
    element_to_json, inner, is_normal, module_norm, right_mul,
)

KINDS = ("generic", "normal_commuting", "contractive", "gruss")
_SEED_MASK = (1 << 64) - 1

DEFAULT_PQR = (2.0, 2.0, 2.0)
DEFAULT_ALPHA = 1.0

# Matrix dimensions and tuple lengths the generators accept.
DIM_RANGE = (1, 8)
LEN_RANGE = (1, 6)


def check_shape(dim: int | None, length: int | None) -> None:
    """Raise InvalidSpec unless each given size lies in the generators' range."""
    for tag, value, (lo, hi) in (("dim", dim, DIM_RANGE), ("len", length, LEN_RANGE)):
        if value is not None and not lo <= value <= hi:
            raise InvalidSpec(f"{tag} {value} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one random module element."""

    seed: int
    dim: int
    length: int
    kind: str
    scale: float = 1.0
    contraction: float = 0.999
    weights_mode: str = "uniform"

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) <= _SEED_MASK:
            raise InvalidSpec("seed must fit in 64 unsigned bits")
        check_shape(self.dim, self.length)
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}")
        if not self.scale > 0:
            raise InvalidSpec("scale must be positive")
        if not 0 < self.contraction < 1:
            raise InvalidSpec("contraction must lie in (0, 1)")
        if self.weights_mode not in ("uniform", "random"):
            raise InvalidSpec(f"unknown weights mode {self.weights_mode!r}")


def _cgauss(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    shape = (rows,) if cols is None else (rows, cols)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with the R-diagonal
    phases absorbed into Q."""
    q, r = np.linalg.qr(_cgauss(rng, d, d))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def gen_haar_unitary(seed: int, d: int) -> np.ndarray:
    if d < 1:
        raise InvalidSpec("dimension must be >= 1")
    return _haar(np.random.default_rng(seed), d)


def _draw_weights(rng: np.random.Generator, n: int, mode: str) -> tuple[float, ...]:
    if mode == "random":
        return tuple(rng.uniform(0.1, 2.0, n))
    return (1.0,) * n


def _normal_commuting_parts(rng: np.random.Generator, d: int, n: int,
                            scale: float, unitary: np.ndarray | None = None):
    u = _haar(rng, d) if unitary is None else unitary
    return tuple(u @ np.diag(scale * _cgauss(rng, d)) @ u.conj().T for _ in range(n))


def gen_element(spec: GeneratorSpec) -> ModuleElement:
    """Draw one element; the ``gruss`` kind yields the unit reference
    element with scalar parts, ready to seed a :class:`GrussContext`."""
    rng = np.random.default_rng(spec.seed)
    weights = _draw_weights(rng, spec.length, spec.weights_mode)
    ctx = ModuleContext(spec.dim, weights)
    if spec.kind == "generic":
        parts = tuple(spec.scale * _cgauss(rng, spec.dim, spec.dim)
                      for _ in range(spec.length))
        return ModuleElement(ctx, parts)
    if spec.kind == "normal_commuting":
        return ModuleElement(
            ctx, _normal_commuting_parts(rng, spec.dim, spec.length, spec.scale))
    if spec.kind == "contractive":
        parts = tuple(spec.scale * _cgauss(rng, spec.dim, spec.dim)
                      for _ in range(spec.length))
        x = ModuleElement(ctx, parts)
        nx = module_norm(x)
        if nx == 0:
            raise InvalidSpec("degenerate zero draw cannot be rescaled")
        return (spec.contraction / nx) * x
    # gruss: unit reference with scalar parts, sum_t w_t |lam_t|^2 = 1
    lam = _cgauss(rng, spec.length)
    total = np.sqrt(np.sum(np.asarray(weights) * np.abs(lam) ** 2))
    if total == 0:
        raise InvalidSpec("degenerate zero draw cannot be normalized")
    lam = lam / total
    return ModuleElement(ctx, tuple(v * np.eye(spec.dim) for v in lam))


def trial_seed(master: int, check: str, index: int) -> int:
    """Derive an independent per-trial seed from the master seed, the check
    name and the trial counter; stable across runs and platforms."""
    ss = np.random.SeedSequence(
        [int(master) & _SEED_MASK, zlib.crc32(check.encode("utf-8")), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class CheckInstance:
    """A fully materialized input for one check, replayable from JSON."""

    check: str
    seed: int | None
    kind: str
    x: ModuleElement
    y: ModuleElement
    a: np.ndarray | None = None
    e: ModuleElement | None = None
    ball: tuple[float, float, float, float] | None = None
    params: dict = field(default_factory=dict)
    drop: tuple[str, ...] = ()

    def digest(self) -> dict:
        params = dict(self.params)
        params["kind"] = self.kind
        if self.drop:
            params["drop"] = list(self.drop)
        return {"seed": self.seed, "dim": self.x.ctx.dim,
                "len": self.x.ctx.length, "params": params}

    def to_json(self) -> dict:
        a = None
        if self.a is not None:
            a = [[float(v.real), float(v.imag)] for v in np.asarray(self.a).reshape(-1)]
        return {
            "check": self.check,
            "seed": self.seed,
            "kind": self.kind,
            "drop": list(self.drop),
            "params": dict(self.params),
            "ball": list(self.ball) if self.ball is not None else None,
            "x": element_to_json(self.x),
            "y": element_to_json(self.y),
            "a": a,
            "e": element_to_json(self.e) if self.e is not None else None,
        }


def instance_from_json(obj: dict) -> CheckInstance:
    x = element_from_json(obj["x"])
    a = None
    if obj.get("a") is not None:
        d = x.ctx.dim
        a = np.array([complex(re, im) for re, im in obj["a"]],
                     dtype=complex).reshape(d, d)
    ball = obj.get("ball")
    return CheckInstance(
        check=obj["check"],
        seed=obj.get("seed"),
        kind=obj.get("kind", "generic"),
        x=x,
        y=element_from_json(obj["y"]),
        a=a,
        e=element_from_json(obj["e"]) if obj.get("e") is not None else None,
        ball=tuple(float(v) for v in ball) if ball is not None else None,
        params=dict(obj.get("params", {})),
        drop=tuple(obj.get("drop", ())),
    )


def _unit_reference(rng: np.random.Generator, ctx: ModuleContext) -> ModuleElement:
    """A generic (non-scalar) unit element: right-normalize a random draw."""
    raw = ModuleElement(ctx, tuple(_cgauss(rng, ctx.dim, ctx.dim)
                                   for _ in range(ctx.length)))
    g = hermitian_part(inner(raw, raw))
    return right_mul(raw, psd_power(g, -0.5))


def _ball_point(rng: np.random.Generator, e: ModuleElement, lo: float, hi: float,
                unitary: np.ndarray | None) -> ModuleElement:
    """Convex sample strictly inside the ball [lo*e, hi*e]."""
    ctx = e.ctx
    if unitary is None:
        parts = tuple(_cgauss(rng, ctx.dim, ctx.dim) for _ in range(ctx.length))
    else:
        parts = _normal_commuting_parts(rng, ctx.dim, ctx.length, 1.0, unitary)
    u = ModuleElement(ctx, parts)
    nu = module_norm(u)
    if nu == 0:
        raise InvalidSpec("degenerate zero draw inside ball sampling")
    center = right_mul(e, (hi + lo) / 2 * np.eye(ctx.dim))
    shrink = rng.uniform(0.0, 0.95)
    return center + (shrink * (hi - lo) / 2 / nu) * u


_GENERIC_CHECKS = {"check_cs", "check_basic", "check_hs", "check_refinement",
                   "check_radius_submult"}
_NEEDS_A = {"check_basic", "check_hs", "check_refinement", "check_uin",
            "check_interp", "check_naopaka", "check_alpha", "check_defect",
            "check_gruss"}


def build_instance(check: str, seed: int, *, dim: int | None = None,
                   length: int | None = None, weights_mode: str = "random",
                   scale: float = 1.0, contraction: float = 0.999,
                   pqr: tuple[float, float, float] | None = None,
                   alpha: float | None = None,
                   drop: tuple[str, ...] = (),
                   force_kind: str | None = None) -> CheckInstance:
    """Materialize a random instance satisfying the check's hypotheses.

    ``drop`` removes the named hypotheses from the construction (normality
    falls back to generic draws, contraction rescales to the unit sphere);
    the instance records the dropped set so evaluation skips enforcement.
    ``force_kind`` overrides the element kind the recipe would pick, which
    deliberately lets a run rout hypothesis-violating instances into a
    strict check to exercise its error path.
    """
    if check not in _CHECK_EVAL:
        raise UnknownCheck(f"no check named {check!r}")
    if force_kind is not None and force_kind not in KINDS:
        raise InvalidSpec(f"unknown kind {force_kind!r}")
    rng = np.random.default_rng(int(seed) & _SEED_MASK)
    d = int(dim) if dim is not None else int(rng.integers(1, 7))
    n = int(length) if length is not None else int(rng.integers(1, 5))
    no_normal = "normality" in drop
    target = 1.0 if "contraction" in drop else contraction

    def sub(kind: str, contr: float = contraction) -> ModuleElement:
        sub_seed = int(rng.integers(0, _SEED_MASK, dtype=np.uint64))
        return gen_element(GeneratorSpec(sub_seed, d, n, kind, scale=scale,
                                         contraction=contr,
                                         weights_mode=weights_mode))

    a = _cgauss(rng, d, d) if check in _NEEDS_A else None
    params: dict = {}
    e = None
    ball = None

    if check in _GENERIC_CHECKS:
        kind = force_kind or "generic"
        x = sub(kind)
        y = ModuleElement(x.ctx, sub(kind).parts)
    elif check == "check_uin":
        kind = force_kind or ("generic" if no_normal else "normal_commuting")
        x = sub(kind)
        y = ModuleElement(x.ctx, sub(kind).parts)
    elif check == "check_interp":
        base = force_kind or "generic"
        x, y = sub(base), sub(base)
        y = ModuleElement(x.ctx, y.parts)
        x = (1.0 / module_norm(x)) * x
        y = (1.0 / module_norm(y)) * y
        params = {"p": None, "q": None, "r": None}
    elif check in ("check_naopaka", "check_alpha"):
        base = force_kind or ("generic" if no_normal else "normal_commuting")
        x, y = sub(base), sub(base)
        y = ModuleElement(x.ctx, y.parts)
        x = (target / module_norm(x)) * x
        y = (target / module_norm(y)) * y
        if check == "check_alpha":
            params = {"alpha": None}
    elif check == "check_defect":
        base = force_kind or "generic"
        x, y = sub(base), sub(base)
        y = ModuleElement(x.ctx, y.parts)
        x = (target / module_norm(x)) * x
        y = (target / module_norm(y)) * y
        params = {"p": None, "q": None, "r": None}
    elif check == "check_gruss":
        ctx = ModuleContext(d, _draw_weights(rng, n, weights_mode))
        if no_normal or force_kind == "generic":
            e = _unit_reference(rng, ctx)
            unitary = None
        else:
            e_seed = int(rng.integers(0, _SEED_MASK, dtype=np.uint64))
            lam_src = np.random.default_rng(e_seed)
            lam = _cgauss(lam_src, n)
            lam = lam / np.sqrt(np.sum(np.asarray(ctx.weights) * np.abs(lam) ** 2))
            e = ModuleElement(ctx, tuple(v * np.eye(d) for v in lam))
            unitary = _haar(rng, d)
        lo_x, hi_x = sorted(rng.normal(0.0, 1.0, 2))
        lo_y, hi_y = sorted(rng.normal(0.0, 1.0, 2))
        ball = (float(lo_x), float(hi_x), float(lo_y), float(hi_y))
        x = _ball_point(rng, e, *ball[:2], unitary)
        y = _ball_point(rng, e, *ball[2:], unitary)
    else:  # pragma: no cover - guarded by the registry check above
        raise UnknownCheck(check)

    if pqr is not None and "p" in params:
        params.update(p=float(pqr[0]), q=float(pqr[1]), r=float(pqr[2]))
    if alpha is not None and "alpha" in params:
        params["alpha"] = float(alpha)
    params = {k: v for k, v in params.items() if v is not None}
    kind = force_kind or ("gruss" if check == "check_gruss"
                          else "generic" if check in _GENERIC_CHECKS or no_normal
                          else "contractive" if check == "check_defect"
                          else "normal_commuting")
    return CheckInstance(check=check, seed=int(seed), kind=kind, x=x, y=y, a=a,
                         e=e, ball=ball, params=params, drop=tuple(drop))


def assert_hypotheses(inst: CheckInstance, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Construction-time guard: a freshly generated instance must satisfy
    the hypotheses it claims, else the generator itself is broken."""
    checks_normal = inst.check in ("check_uin", "check_naopaka", "check_alpha")
    if checks_normal and "normality" not in inst.drop:
        for tag, z in (("x", inst.x), ("y", inst.y)):
            ok, defect = is_normal(z, tol)
            if not ok:
                raise InvalidSpec(f"generated {tag} has normality defect {defect:.3e}")
    if inst.check in ("check_naopaka", "check_alpha", "check_defect") \
            and "contraction" not in inst.drop:
        for tag, z in (("x", inst.x), ("y", inst.y)):
            top = op_norm(inner(z, z))
            if top > 1.0 - 1e-6:
                raise InvalidSpec(f"generated {tag} has ||<z,z>|| = {top:.6f}")
    if inst.e is not None:
        defect = op_norm(inner(inst.e, inst.e) - np.eye(inst.e.ctx.dim))
        if defect > 1e-10:
            raise InvalidSpec(f"reference element misses <e,e> = 1 by {defect:.3e}")
    if inst.ball is not None:
        lo_x, hi_x, lo_y, hi_y = inst.ball
        for tag, z, lo, hi in (("x", inst.x, lo_x, hi_x), ("y", inst.y, lo_y, hi_y)):
            center = right_mul(inst.e, (hi + lo) / 2 * np.eye(inst.e.ctx.dim))
            if module_norm(z - center) > (hi - lo) / 2 + 1e-10:
                raise InvalidSpec(f"generated {tag} escapes its ball")


_CHECK_EVAL = {
    "check_cs": lambda inst, tol, strict, p, q, r, al: check_cs(
        inst.x, inst.y, tol=tol, digest=inst.digest()),
    "check_basic": lambda inst, tol, strict, p, q, r, al: check_basic(
        inst.x, inst.y, inst.a, tol=tol, digest=inst.digest()),
    "check_hs": lambda inst, tol, strict, p, q, r, al: check_hs(
        inst.x, inst.y, inst.a, tol=tol, digest=inst.digest()),
    "check_refinement": lambda inst, tol, strict, p, q, r, al: check_refinement(
        inst.x, inst.y, inst.a, tol=tol, digest=inst.digest()),
    "check_uin": lambda inst, tol, strict, p, q, r, al: check_uin(
        inst.x, inst.y, inst.a, tol=tol, strict=strict, digest=inst.digest()),
    "check_interp": lambda inst, tol, strict, p, q, r, al: check_interp(
        inst.x, inst.y, inst.a, p, q, r, tol=tol, digest=inst.digest()),
    "check_naopaka": lambda inst, tol, strict, p, q, r, al: check_naopaka(
        inst.x, inst.y, inst.a, tol=tol, strict=strict, digest=inst.digest()),
    "check_alpha": lambda inst, tol, strict, p, q, r, al: check_alpha(
        inst.x, inst.y, inst.a, al, tol=tol, strict=strict, digest=inst.digest()),
    "check_defect": lambda inst, tol, strict, p, q, r, al: check_defect(
        inst.x, inst.y, inst.a, p, q, r, tol=tol, digest=inst.digest()),
    "check_gruss": lambda inst, tol, strict, p, q, r, al: check_gruss(
        inst.x, inst.y, inst.a, GrussContext(inst.e), inst.ball, tol=tol,
        strict=strict, digest=inst.digest()),
    "check_radius_submult": lambda inst, tol, strict, p, q, r, al: check_radius_submult(
        inst.x, inst.y, tol=tol, digest=inst.digest()),
}

CHECK_NAMES = tuple(_CHECK_EVAL)


def evaluate_instance(inst: CheckInstance, tol: ToleranceConfig = DEFAULT_TOL,
                      pqr: tuple[float, float, float] | None = None,
                      alpha: float | None = None) -> InequalityReport:
    """Run the instance's check; grid parameters may be overridden per call.

    Evaluation is strict (hypotheses enforced) unless the instance was
    built with dropped hypotheses.
    """
    if inst.check not in _CHECK_EVAL:
        raise UnknownCheck(f"no check named {inst.check!r}")
    params = dict(inst.params)
    if pqr is not None:
        params.update(p=pqr[0], q=pqr[1], r=pqr[2])
    if alpha is not None:
        params["alpha"] = alpha
    p = float(params.get("p", DEFAULT_PQR[0]))
    q = float(params.get("q", DEFAULT_PQR[1]))
    r = float(params.get("r", DEFAULT_PQR[2]))
    al = float(params.get("alpha", DEFAULT_ALPHA))
    strict = not inst.drop
    inst_for_eval = inst
    if pqr is not None or alpha is not None:
        inst_for_eval = CheckInstance(
            check=inst.check, seed=inst.seed, kind=inst.kind, x=inst.x, y=inst.y,
            a=inst.a, e=inst.e, ball=inst.ball, params=params, drop=inst.drop)
    return _CHECK_EVAL[inst.check](inst_for_eval, tol, strict, p, q, r, al)

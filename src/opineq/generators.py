"""Seeded instance generators and replayable instance containers.

All randomness in the package flows through this module.  Every generated
object is a deterministic function of a 64-bit seed, and a materialized
:class:`CheckInstance` serializes to JSON exactly, so any reported margin
can be replayed bit for bit.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import checks
from .checks import (  # CHECK_NAMES is re-exported
    CHECK_NAMES, InequalityReport, check_spec, grid_params, require_hypotheses,
    require_in_ball,
)
from .core import DEFAULT_TOL, ToleranceConfig, hermitian_part, psd_power
from .errors import InvalidSpec, OpineqError
from .hmodule import (
    GrussContext, ModuleContext, ModuleElement, element_from_json,
    element_to_json, inner, matrix_from_json, matrix_to_json, module_norm, require_unit,
    right_mul,
)

KINDS = ("generic", "normal_commuting", "contractive", "gruss")
_SEED_MASK = (1 << 64) - 1

DEFAULT_PQR = (2.0, 2.0, 2.0)
DEFAULT_ALPHA = 1.0
DEFAULT_CONTRACTION = 0.999

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
    contraction: float = DEFAULT_CONTRACTION
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


def _cgauss(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian array of the given shape."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with the R-diagonal
    phases absorbed into Q."""
    q, r = np.linalg.qr(_cgauss(rng, (d, d)))
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


def _gaussian_parts(rng: np.random.Generator, d: int, n: int, scale: float = 1.0):
    return tuple(scale * _cgauss(rng, (d, d)) for _ in range(n))


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
    if spec.kind == "normal_commuting":
        return ModuleElement(
            ctx, _normal_commuting_parts(rng, spec.dim, spec.length, spec.scale))
    if spec.kind == "gruss":
        return _scalar_unit(rng, ctx)
    x = ModuleElement(ctx, _gaussian_parts(rng, spec.dim, spec.length, spec.scale))
    if spec.kind == "generic":
        return x
    nx = module_norm(x)
    if nx == 0:
        raise InvalidSpec("degenerate zero draw cannot be rescaled")
    return (spec.contraction / nx) * x


def _scalar_unit(rng: np.random.Generator, ctx: ModuleContext) -> ModuleElement:
    """Unit reference with scalar parts lam_t I, sum_t w_t |lam_t|^2 = 1."""
    lam = _cgauss(rng, ctx.length)
    total = np.sqrt(np.sum(np.asarray(ctx.weights) * np.abs(lam) ** 2))
    if total == 0:
        raise InvalidSpec("degenerate zero draw cannot be normalized")
    lam = lam / total
    return ModuleElement(ctx, tuple(v * np.eye(ctx.dim) for v in lam))


def scaled_to(z: ModuleElement, target: float) -> ModuleElement:
    """z rescaled to module norm ``target``; a zero z stays zero."""
    nz = module_norm(z)
    return (target / nz) * z if nz > 0 else z


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
        a = matrix_to_json(self.a) if self.a is not None else None
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
    """Inverse of CheckInstance.to_json; raises InvalidSpec on malformed input."""
    try:
        x = element_from_json(obj["x"])
        a = matrix_from_json(obj["a"], x.ctx.dim) if obj.get("a") is not None else None
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
    except (LookupError, TypeError, ValueError, OpineqError) as exc:
        raise InvalidSpec(f"malformed instance: {type(exc).__name__}: {exc}") from exc


def _unit_reference(rng: np.random.Generator, ctx: ModuleContext) -> ModuleElement:
    """A generic (non-scalar) unit element: right-normalize a random draw."""
    raw = ModuleElement(ctx, _gaussian_parts(rng, ctx.dim, ctx.length))
    g = hermitian_part(inner(raw, raw))
    return right_mul(raw, psd_power(g, -0.5))


def _ball_point(rng: np.random.Generator, e: ModuleElement, lo: float, hi: float,
                unitary: np.ndarray | None) -> ModuleElement:
    """Convex sample strictly inside the ball [lo*e, hi*e]."""
    ctx = e.ctx
    if unitary is None:
        parts = _gaussian_parts(rng, ctx.dim, ctx.length)
    else:
        parts = _normal_commuting_parts(rng, ctx.dim, ctx.length, 1.0, unitary)
    u = ModuleElement(ctx, parts)
    nu = module_norm(u)
    if nu == 0:
        raise InvalidSpec("degenerate zero draw inside ball sampling")
    center = right_mul(e, (hi + lo) / 2 * np.eye(ctx.dim))
    shrink = rng.uniform(0.0, 0.95)
    return center + (shrink * (hi - lo) / 2 / nu) * u


def _gruss_operands(rng: np.random.Generator, d: int, n: int, weights_mode: str,
                    scalar: bool):
    """Unit reference e, ball bounds (m, M, p, P), and x, y inside their
    balls; ``scalar`` gives e scalar parts and x, y one shared normal frame."""
    ctx = ModuleContext(d, _draw_weights(rng, n, weights_mode))
    if scalar:
        e_seed = int(rng.integers(0, _SEED_MASK, dtype=np.uint64))
        e = _scalar_unit(np.random.default_rng(e_seed), ctx)
        unitary = _haar(rng, d)
    else:
        e = _unit_reference(rng, ctx)
        unitary = None
    lo_x, hi_x = sorted(rng.normal(0.0, 1.0, 2))
    lo_y, hi_y = sorted(rng.normal(0.0, 1.0, 2))
    ball = (float(lo_x), float(hi_x), float(lo_y), float(hi_y))
    return e, ball, _ball_point(rng, e, *ball[:2], unitary), _ball_point(rng, e, *ball[2:], unitary)


def build_instance(check: str, seed: int, *, dim: int | None = None,
                   length: int | None = None, weights_mode: str = "random",
                   contraction: float = DEFAULT_CONTRACTION,
                   drop: tuple[str, ...] = (),
                   force_kind: str | None = None) -> CheckInstance:
    """Materialize a random instance satisfying the check's hypotheses.

    The check's registry row picks the recipe.  ``drop`` removes the named
    hypotheses from the construction (normality falls back to generic
    draws, contraction rescales to the unit sphere); the instance records
    the dropped set so evaluation skips enforcing just those.
    ``force_kind`` overrides the element kind the recipe would pick, which
    deliberately lets a run rout hypothesis-violating instances into a
    strict check to exercise its error path.
    """
    spec = check_spec(check)
    check_shape(dim, length)
    if force_kind is not None and force_kind not in KINDS:
        raise InvalidSpec(f"unknown kind {force_kind!r}")
    rng = np.random.default_rng(int(seed) & _SEED_MASK)
    d = int(dim) if dim is not None else int(rng.integers(1, 7))
    n = int(length) if length is not None else int(rng.integers(1, 5))
    no_normal = "normality" in drop

    def sub(kind: str) -> ModuleElement:
        sub_seed = int(rng.integers(0, _SEED_MASK, dtype=np.uint64))
        return gen_element(GeneratorSpec(sub_seed, d, n, kind, contraction=contraction,
                                         weights_mode=weights_mode))

    a = _cgauss(rng, (d, d)) if "a" in spec.operands else None
    e = ball = None
    if spec.recipe == "gruss":
        scalar = not no_normal and force_kind != "generic"
        e, ball, x, y = _gruss_operands(rng, d, n, weights_mode, scalar)
    else:
        normal = "normality" in spec.enforced(drop)
        kind = force_kind or ("normal_commuting" if normal else "generic")
        x, y = sub(kind), sub(kind)
        y = ModuleElement(x.ctx, y.parts)
        if spec.recipe != "pair":
            target = 1.0 if spec.recipe == "unit_pair" or "contraction" in drop else contraction
            x, y = scaled_to(x, target), scaled_to(y, target)

    kind = force_kind or ("generic" if no_normal and spec.recipe != "gruss" else spec.kind)
    return CheckInstance(check=check, seed=int(seed), kind=kind, x=x, y=y, a=a,
                         e=e, ball=ball, drop=tuple(drop))


def assert_hypotheses(inst: CheckInstance, tol: ToleranceConfig = DEFAULT_TOL) -> None:
    """Generator self-test: raise InvalidSpec unless the instance satisfies
    the hypotheses it claims, by the predicates evaluation uses.  Runs do
    not call it; evaluation alone enforces hypotheses there."""
    spec = check_spec(inst.check)
    try:
        require_hypotheses(spec.enforced(inst.drop), inst.x, inst.y, tol, inst.e)
        if "e" in spec.operands:
            require_unit(inst.e, tol)
        if "ball" in spec.operands:
            require_in_ball(inst.x, inst.y, inst.e, inst.ball, tol)
    except OpineqError as exc:
        raise InvalidSpec(f"generated {inst.check} instance: {exc}") from exc


def evaluate_instance(inst: CheckInstance, tol: ToleranceConfig = DEFAULT_TOL,
                      pqr: tuple[float, float, float] | None = None,
                      alpha: float | None = None) -> InequalityReport:
    """Run the instance's check, looked up on :mod:`opineq.checks` at call
    time, enforcing its hypotheses minus ``inst.drop``; grid parameters may
    be overridden per call."""
    spec = check_spec(inst.check)
    params = dict(inst.params)
    if pqr is not None:
        params.update(grid_params("pqr", pqr))
    if alpha is not None:
        params.update(grid_params("alpha", alpha))
    args = [inst.x, inst.y]
    args += [GrussContext(inst.e, tol) if op == "e" else getattr(inst, op)
             for op in spec.operands]
    if spec.grid == "pqr":
        args += [float(params.get(k, v)) for k, v in zip("pqr", DEFAULT_PQR)]
    elif spec.grid == "alpha":
        args.append(float(params.get("alpha", DEFAULT_ALPHA)))
    kwargs = {"tol": tol, "digest": replace(inst, params=params).digest()}
    if spec.hypotheses:
        require_hypotheses(spec.enforced(inst.drop), inst.x, inst.y, tol, inst.e)
        kwargs["strict"] = False
    return getattr(checks, spec.name)(*args, **kwargs)

"""Seeded instance generators and replayable instance containers.

Every random instance entry in the package is drawn in this module: the
generator and the counterexample search both build their instances from
an :class:`InstanceDraw`, which search perturbs and ``materialize``
turns into x and y.  Every generated object is a deterministic function
of a 64-bit seed, and a materialized :class:`CheckInstance` serializes
to JSON exactly, so any reported margin can be replayed bit for bit.

Evaluation is here too: :func:`evaluate_instance` runs one instance at
one grid point, :func:`evaluate_group` a same-shape group at every grid
point in one kernel call, with the same reports.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import checks
from .checks import (  # CHECK_NAMES is re-exported
    CHECK_NAMES, Batch, CheckSpec, InequalityReport, check_spec, grid_params,
    require_hypotheses, require_in_ball, run_batch, validate_drop,
)
from .core import DEFAULT_TOL, ToleranceConfig, hermitian_part, psd_power
from .errors import InvalidSpec, OpineqError
from .hmodule import (
    GrussContext, ModuleContext, ModuleElement, element_from_json,
    element_to_json, inner, matrix_from_json, matrix_to_json, module_norm, require_unit,
    require_units, right_mul,
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


def _check_options(dim: int | None, length: int | None, weights_mode: str,
                   contraction: float) -> None:
    """Raise InvalidSpec unless the draw options are valid, for every recipe."""
    check_shape(dim, length)
    if not 0 < contraction < 1:
        raise InvalidSpec("contraction must lie in (0, 1)")
    if weights_mode not in ("uniform", "random"):
        raise InvalidSpec(f"unknown weights mode {weights_mode!r}")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one random module element."""

    seed: int
    dim: int
    length: int
    kind: str
    contraction: float = DEFAULT_CONTRACTION
    weights_mode: str = "uniform"

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) <= _SEED_MASK:
            raise InvalidSpec("seed must fit in 64 unsigned bits")
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}")
        _check_options(self.dim, self.length, self.weights_mode, self.contraction)


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


def _free(rng: np.random.Generator, d: int, n: int, frame: np.ndarray | None) -> np.ndarray:
    """n parts' free parameters, part by part: diagonals in a frame, else matrices."""
    return np.stack([_cgauss(rng, (d, d) if frame is None else d) for _ in range(n)])


def _parts(frame: np.ndarray | None, p: np.ndarray) -> tuple[np.ndarray, ...]:
    """Parts from free parameters: the rows of ``p``, or u diag(v) u* for each
    row v in the unitary frame u, so that the parts are normal and commute."""
    if frame is None:
        return tuple(p)
    return tuple(frame @ np.diag(v) @ frame.conj().T for v in p)


def _draw_side(rng: np.random.Generator, d: int, n: int, weights_mode: str, normal: bool):
    """Weights, frame (Haar if ``normal``, else None), free parameters, in that order."""
    weights = _draw_weights(rng, n, weights_mode)
    frame = _haar(rng, d) if normal else None
    return weights, frame, _free(rng, d, n, frame)


def _sub_rng(rng: np.random.Generator) -> np.random.Generator:
    return np.random.default_rng(int(rng.integers(0, _SEED_MASK, dtype=np.uint64)))


def gen_element(spec: GeneratorSpec) -> ModuleElement:
    """Draw one element; the ``gruss`` kind yields the unit reference
    element with scalar parts, ready to seed a :class:`GrussContext`."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "gruss":
        weights = _draw_weights(rng, spec.length, spec.weights_mode)
        return _scalar_unit(rng, ModuleContext(spec.dim, weights))
    weights, frame, p = _draw_side(rng, spec.dim, spec.length, spec.weights_mode,
                                   spec.kind == "normal_commuting")
    x = ModuleElement(ModuleContext(spec.dim, weights), _parts(frame, p))
    return x if spec.kind != "contractive" else scaled_to(x, spec.contraction)


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
    """Inverse of CheckInstance.to_json.  Raises InvalidSpec on malformed
    input: the file must give exactly the operands its check's registry row
    lists, a ball of 4 finite numbers, one context for x, y and e, and a
    finite real number for each grid parameter of the row it gives."""
    try:
        spec = check_spec(obj["check"])
        given = {op for op in ("a", "e", "ball") if obj.get(op) is not None}
        if given != set(spec.operands):
            raise InvalidSpec(f"{spec.name} takes operands {list(spec.operands)}, "
                              f"the file gives {sorted(given)}")
        x, y = element_from_json(obj["x"]), element_from_json(obj["y"])
        e = element_from_json(obj["e"]) if "e" in given else None
        if any(z.ctx != x.ctx for z in (y, e) if z is not None):
            raise InvalidSpec("x, y and e must share one dim and weights")
        ball = tuple(float(v) for v in obj["ball"]) if "ball" in given else None
        if ball is not None and (len(ball) != 4 or not all(map(math.isfinite, ball))):
            raise InvalidSpec(f"ball must be 4 finite numbers (m, M, p, P), got {ball}")
        params = dict(obj.get("params", {}))
        for key in {"pqr": "pqr", "alpha": ("alpha",)}.get(spec.grid, ()):
            value = params.get(key, 0.0)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise InvalidSpec(f"grid parameter {key} must be a finite number, got {value!r}")
        return CheckInstance(
            check=spec.name,
            seed=obj.get("seed"),
            kind=obj.get("kind", "generic"),
            x=x,
            y=y,
            a=matrix_from_json(obj["a"], x.ctx.dim) if "a" in given else None,
            e=e,
            ball=ball,
            params=params,
            drop=validate_drop(obj.get("drop", ())),
        )
    except (LookupError, TypeError, ValueError, OpineqError) as exc:
        raise InvalidSpec(f"malformed instance: {type(exc).__name__}: {exc}") from exc


def _unit_reference(rng: np.random.Generator, ctx: ModuleContext) -> ModuleElement:
    """A generic (non-scalar) unit element: right-normalize a random draw."""
    raw = ModuleElement(ctx, _parts(None, _free(rng, ctx.dim, ctx.length, None)))
    g = hermitian_part(inner(raw, raw))
    return right_mul(raw, psd_power(g, -0.5))


def _ball_point(rng: np.random.Generator, e: ModuleElement, lo: float, hi: float,
                unitary: np.ndarray | None) -> ModuleElement:
    """Convex sample strictly inside the ball [lo*e, hi*e]."""
    ctx = e.ctx
    u = ModuleElement(ctx, _parts(unitary, _free(rng, ctx.dim, ctx.length, unitary)))
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
    e = _scalar_unit(_sub_rng(rng), ctx) if scalar else _unit_reference(rng, ctx)
    unitary = _haar(rng, d) if scalar else None
    lo_x, hi_x = sorted(rng.normal(0.0, 1.0, 2))
    lo_y, hi_y = sorted(rng.normal(0.0, 1.0, 2))
    ball = (float(lo_x), float(hi_x), float(lo_y), float(hi_y))
    return e, ball, _ball_point(rng, e, *ball[:2], unitary), _ball_point(rng, e, *ball[2:], unitary)


def _recipe(spec: CheckSpec, drop, contraction: float = DEFAULT_CONTRACTION):
    """(normal, target): x and y are drawn in unitary frames when normality
    is enforced, and rescaled to module norm ``target``: none for "pair",
    1 for "unit_pair" or once contraction is dropped, else ``contraction``."""
    target = None
    if spec.recipe != "pair":
        target = 1.0 if spec.recipe == "unit_pair" or "contraction" in drop else contraction
    return "normality" in spec.enforced(drop), target


@dataclass(frozen=True)
class InstanceDraw:
    """Free parameters of one pair-recipe instance: ``px``/``py`` are the
    parts of x and y, or their diagonals in the unitary ``frames`` (ux, uy).
    The generator draws it, search perturbs it, :meth:`materialize` builds it."""

    check: str
    weights: tuple[float, ...]
    px: np.ndarray
    py: np.ndarray
    frames: tuple[np.ndarray | None, np.ndarray | None]
    a: np.ndarray | None
    target: float | None
    seed: int | None = None
    kind: str = "search"
    drop: tuple[str, ...] = ()

    @classmethod
    def for_search(cls, check: str, rng: np.random.Generator, dim: int, length: int,
                   drop: tuple[str, ...]) -> "InstanceDraw":
        """A search restart: random weights, both frames, px, py, then a."""
        spec = check_spec(check)
        normal, target = _recipe(spec, drop)
        weights = _draw_weights(rng, length, "random")
        frames = (_haar(rng, dim), _haar(rng, dim)) if normal else (None, None)
        shape = (length, dim) if normal else (length, dim, dim)
        px, py = _cgauss(rng, shape), _cgauss(rng, shape)
        a = _cgauss(rng, (dim, dim)) if "a" in spec.operands else None
        return cls(check, weights, px, py, frames, a, target, drop=drop)

    def perturbed(self, rng: np.random.Generator, sigma: float) -> "InstanceDraw":
        """A copy with one of px, py or a moved by sigma times a Gaussian."""
        name = ("px", "py", "a")[rng.integers(0, 3 if self.a is not None else 2)]
        value = getattr(self, name)
        return replace(self, **{name: value + sigma * _cgauss(rng, value.shape)})

    def materialize(self) -> CheckInstance:
        ctx = ModuleContext(self.px.shape[-1], self.weights)
        ux, uy = self.frames
        x, y = ModuleElement(ctx, _parts(ux, self.px)), ModuleElement(ctx, _parts(uy, self.py))
        if self.target is not None:
            x, y = scaled_to(x, self.target), scaled_to(y, self.target)
        return CheckInstance(check=self.check, seed=self.seed, kind=self.kind, x=x,
                             y=y, a=self.a, drop=self.drop)


def build_instance(check: str, seed: int, *, dim: int | None = None,
                   length: int | None = None, weights_mode: str = "random",
                   contraction: float = DEFAULT_CONTRACTION,
                   drop: tuple[str, ...] = ()) -> CheckInstance:
    """Materialize a random instance satisfying the check's hypotheses.

    The check's registry row picks the recipe.  ``drop`` removes the named
    hypotheses from the construction (normality falls back to generic
    draws, contraction rescales to the unit sphere); the instance records
    the dropped set so evaluation skips enforcing just those.
    """
    spec = check_spec(check)
    _check_options(dim, length, weights_mode, contraction)
    drop = validate_drop(drop)
    rng = np.random.default_rng(int(seed) & _SEED_MASK)
    d = int(dim) if dim is not None else int(rng.integers(1, 7))
    n = int(length) if length is not None else int(rng.integers(1, 5))
    normal, target = _recipe(spec, drop, contraction)
    a = _cgauss(rng, (d, d)) if "a" in spec.operands else None
    if spec.recipe == "gruss":
        e, ball, x, y = _gruss_operands(rng, d, n, weights_mode, normal)
        return CheckInstance(check=check, seed=int(seed), kind=spec.kind, x=x, y=y,
                             a=a, e=e, ball=ball, drop=drop)

    (weights, ux, px), (_, uy, py) = (_draw_side(_sub_rng(rng), d, n, weights_mode, normal)
                                      for _ in range(2))
    return InstanceDraw(check, weights, px, py, (ux, uy), a, target, int(seed),
                        "generic" if "normality" in drop else spec.kind, drop).materialize()


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
            require_in_ball(inst.x.stack, inst.y.stack, inst.e.stack, (inst.ball,), tol)
    except OpineqError as exc:
        raise InvalidSpec(f"generated {inst.check} instance: {exc}") from exc


def _call(spec: CheckSpec, inst: CheckInstance, pqr=None, alpha=None) -> tuple[tuple, dict]:
    """The check's grid arguments for the instance, with the grid parameters
    overridden per call, and the digest its report records."""
    params = dict(inst.params)
    if pqr is not None:
        params.update(grid_params("pqr", pqr))
    if alpha is not None:
        params.update(grid_params("alpha", alpha))
    args = ()
    if spec.grid == "pqr":
        args = tuple(float(params.get(k, v)) for k, v in zip("pqr", DEFAULT_PQR))
    elif spec.grid == "alpha":
        args = (float(params.get("alpha", DEFAULT_ALPHA)),)
    return args, replace(inst, params=params).digest()


def grid_point(axis: str | None, value) -> dict:
    """``value`` of the grid axis as the keyword of :func:`evaluate_instance`."""
    return {} if axis is None else {axis: value}


def evaluate_instance(inst: CheckInstance, tol: ToleranceConfig = DEFAULT_TOL,
                      pqr: tuple[float, float, float] | None = None,
                      alpha: float | None = None) -> InequalityReport:
    """Run the instance's check, looked up on :mod:`opineq.checks` at call
    time, enforcing its hypotheses minus ``inst.drop``; grid parameters may
    be overridden per call.  The check runs its kernel on a batch of this
    one instance at this one point."""
    spec = check_spec(inst.check)
    point, digest = _call(spec, inst, pqr, alpha)
    args = [inst.x, inst.y]
    args += [GrussContext(inst.e, tol) if op == "e" else getattr(inst, op)
             for op in spec.operands]
    kwargs = {"tol": tol, "digest": digest}
    if spec.hypotheses:
        require_hypotheses(spec.enforced(inst.drop), inst.x, inst.y, tol, inst.e)
        kwargs["strict"] = False
    return getattr(checks, spec.name)(*args, *point, **kwargs)


def evaluate_group(insts, tol: ToleranceConfig = DEFAULT_TOL,
                   values=(None,)) -> list[InequalityReport]:
    """Evaluate instances of one check with one dimension, length and drop
    set at each value of the check's grid axis in one kernel call.  Report
    ``k * len(values) + j`` is, bit for bit, what evaluate_instance gives
    for instance k at value j.  Raises the first OpineqError any instance
    raises, so a caller that needs per-instance errors evaluates the group
    again one instance and value at a time."""
    spec = check_spec(insts[0].check)
    calls = [_call(spec, inst, **grid_point(spec.grid, v)) for inst in insts for v in values]
    batch = Batch(
        tuple(inst.x for inst in insts), tuple(inst.y for inst in insts),
        a=np.array([inst.a for inst in insts], dtype=complex) if "a" in spec.operands else None,
        es=tuple(inst.e for inst in insts) if "e" in spec.operands else None,
        balls=tuple(inst.ball for inst in insts) if "ball" in spec.operands else None,
        points=tuple(args for args, _ in calls[:len(values)]),
        digests=tuple(digest for _, digest in calls))
    if batch.es is not None:
        require_units(batch.e, tol)
    return run_batch(spec.name, batch, tol, spec.enforced(insts[0].drop))

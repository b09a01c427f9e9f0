"""Seeded instance generators and replayable instance containers.

Every random instance entry in the package is drawn in this module.
:func:`build_group` draws each trial from its own 64-bit seed's stream
and builds each same-shape group as one stack; :func:`build_instance`
is its group of one, as search's :meth:`InstanceDraw.materialize` is of
:func:`materialize_group`.  A :class:`CheckInstance` serializes to JSON
exactly, so any reported margin can be replayed bit for bit.

Evaluation is here too: :func:`evaluate_instance` runs one instance at
one grid point, :func:`evaluate_group` a same-shape group at every given
grid point (a tuple, keyed by :data:`opineq.checks.GRIDS`) in one kernel
call, with the same reports, and :func:`evaluate_each`, the policy of a
run, groups any instances and gives each one's own reports or errors.
Every route, :func:`assert_hypotheses` too, enforces an instance's
preconditions by :func:`opineq.checks.require_preconditions`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import checks
from .checks import (  # CHECK_NAMES is re-exported
    CHECK_NAMES, GRIDS, Batch, CheckSpec, InequalityReport, ball_bounds, check_spec,
    require_preconditions, run_batch, validate_drop,
)
from .core import (
    DEFAULT_TOL, ToleranceConfig, as_integer, complex_normals, ct, herm, psd_powers,
)
from .errors import InvalidSpec, OpineqError
from .hmodule import (
    ModuleContext, ModuleElement, Stack, _same_ctx, element_from_json, element_to_json,
    matrix_from_json, matrix_to_json,
)

KINDS = ("generic", "normal_commuting", "contractive", "gruss")
_SEED_MASK = (1 << 64) - 1

DEFAULT_CONTRACTION = 0.999

# Matrix dimensions and tuple lengths the generators accept.
DIM_RANGE = (1, 8)
LEN_RANGE = (1, 6)


def check_shape(dim: int | None, length: int | None) -> None:
    """Raise InvalidSpec unless each given size is an integer (:func:`as_integer`)
    in the generators' range."""
    for tag, value, (lo, hi) in (("dim", dim, DIM_RANGE), ("len", length, LEN_RANGE)):
        if value is not None and not lo <= as_integer(tag, value) <= hi:
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
        for tag, name in (("seed", "seed"), ("dim", "dim"), ("len", "length")):
            object.__setattr__(self, name, as_integer(tag, getattr(self, name)))
        if not 0 <= self.seed <= _SEED_MASK:
            raise InvalidSpec("seed must fit in 64 unsigned bits")
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}")
        _check_options(self.dim, self.length, self.weights_mode, self.contraction)


def _gaussians(rng: np.random.Generator, shape, count: int = 1) -> np.ndarray:
    """Raw draws (count, 2, *shape) of ``count`` complex Gaussian arrays, each
    real part then imaginary part, for ``complex_normals`` to combine."""
    return rng.standard_normal((count, 2, *shape))


def _cgauss(rng: np.random.Generator, shape, count: int = 1) -> np.ndarray:
    return complex_normals(_gaussians(rng, shape, count), 1)


def _haars(g: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from a stack of complex Gaussian matrices:
    one QR, with the R-diagonal phases absorbed into Q."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _draw_weights(rng: np.random.Generator, n: int, mode: str) -> tuple[float, ...]:
    if mode == "random":
        return tuple(rng.uniform(0.1, 2.0, n).tolist())
    return (1.0,) * n


def _draw_side(rng: np.random.Generator, d: int, n: int, weights_mode: str, normal: bool):
    """Weights, a Haar frame's raw Gaussian (if ``normal``, else None), then
    the n parts' raw free parameters: diagonals in the frame, else matrices."""
    return (_draw_weights(rng, n, weights_mode), _gaussians(rng, (d, d)) if normal else None,
            _gaussians(rng, (d,) if normal else (d, d), n))


def _framed(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u diag(v) u* for unitary frames u (..., d, d) and diagonals v
    (..., n, d): parts that are normal and commute."""
    diag = v[..., None] * np.eye(v.shape[-1])
    return u[..., None, :, :] @ diag @ ct(u)[..., None, :, :]


def _sub_rng(rng: np.random.Generator) -> np.random.Generator:
    return np.random.default_rng(int(rng.integers(0, _SEED_MASK, dtype=np.uint64)))


def gen_element(spec: GeneratorSpec) -> ModuleElement:
    """Draw one element; the ``gruss`` kind yields a unit reference element
    with scalar parts, the ``e`` operand of ``check_gruss``."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "gruss":
        ctx = ModuleContext(spec.dim, _draw_weights(rng, spec.length, spec.weights_mode))
        return ModuleElement.rows([ctx], _scalar_unit_parts([ctx], _cgauss(rng, (spec.length,))))[0]
    weights, g, p = _draw_side(rng, spec.dim, spec.length, spec.weights_mode,
                               spec.kind == "normal_commuting")
    p = complex_normals(p, 1)[None]
    parts = p if g is None else _framed(_haars(complex_normals(g, 1)), p)
    target = spec.contraction if spec.kind == "contractive" else None
    return ModuleElement.rows([ModuleContext(spec.dim, weights)], parts, target)[0]


def _scalar_unit_parts(ctxs, lam: np.ndarray) -> np.ndarray:
    """Parts lam_t I, sum_t w_t |lam_t|^2 = 1, of unit references in ctxs[b]."""
    totals = np.sqrt(np.sum(np.array([c.weights for c in ctxs]) * np.abs(lam) ** 2, axis=-1))
    if (totals == 0).any():
        raise InvalidSpec("degenerate zero draw cannot be normalized")
    return (lam / totals[:, None])[..., None, None] * np.eye(ctxs[0].dim)


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
    lists, a ball of 4 finite numbers (:func:`opineq.checks.ball_bounds`), one
    context for x, y and e, and a valid point of its grid axis (a key it omits
    takes the default)."""
    try:
        spec = check_spec(obj["check"])
        given = {op for op in ("a", "e", "ball") if obj.get(op) is not None}
        if given != set(spec.operands):
            raise InvalidSpec(f"{spec.name} takes operands {list(spec.operands)}, "
                              f"the file gives {sorted(given)}")
        x, y = element_from_json(obj["x"]), element_from_json(obj["y"])
        e = element_from_json(obj["e"]) if "e" in given else None
        _same_ctx(x, *(z for z in (y, e) if z is not None))
        ball = ball_bounds(obj["ball"]) if "ball" in given else None
        params = dict(obj.get("params", {}))
        GRIDS[spec.grid].params(_point(spec, params))
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
    except (LookupError, TypeError, ValueError, OverflowError, OpineqError) as exc:
        raise InvalidSpec(f"malformed instance: {type(exc).__name__}: {exc}") from exc


def _draw_gruss(rng: np.random.Generator, d: int, n: int, weights_mode: str, scalar: bool):
    """The gruss draws in stream order, raw: weights; e's scalars (from a sub-
    stream) if ``scalar``, else its n matrices; the Gaussian of x and y's one
    frame if ``scalar``; the balls (m, M, p, P); per ball point, parts, shrink."""
    weights = _draw_weights(rng, n, weights_mode)
    e = _gaussians(_sub_rng(rng), (n,)) if scalar else _gaussians(rng, (d, d), n)
    frame = _gaussians(rng, (d, d)) if scalar else None
    ball = tuple(float(v) for _ in range(2) for v in sorted(rng.normal(0.0, 1.0, 2)))
    points = [(_gaussians(rng, (d,) if scalar else (d, d), n), rng.uniform(0.0, 0.95))
              for _ in range(2)]
    return weights, e, frame, ball, points


def _gruss_group(spec: CheckSpec, d: int, seeds, a, draws, scalar: bool,
                 drop) -> list[CheckInstance]:
    """Per trial, a unit reference e (scalar, else a right-normalized draw) and
    x, y strictly inside the balls [lo e, hi e] (in one frame if ``scalar``)."""
    weights, e, frames, balls, points = zip(*draws)
    ctxs = [ModuleContext(d, w) for w in weights]
    w, e = np.array([ctx.weights for ctx in ctxs]), complex_normals(np.array(e), 2)
    e = (_scalar_unit_parts(ctxs, e[:, 0]) if scalar
         else e @ psd_powers(herm(Stack(w, e).gram), -0.5)[:, None])
    u = complex_normals(np.array([[free for free, _ in pts] for pts in points]), 3)
    u = _framed(_haars(complex_normals(np.array(frames), 2)), u) if scalar else u
    nus = Stack(np.repeat(w, 2, axis=0), u.reshape(-1, *u.shape[2:])).norms.reshape(-1, 2)
    if (nus == 0).any():
        raise InvalidSpec("degenerate zero draw inside ball sampling")
    lo, hi = np.moveaxis(np.reshape(balls, (-1, 2, 2)), -1, 0)
    shrink = np.array([[s for _, s in pts] for pts in points])
    centers = e[:, None] @ (((hi + lo) / 2)[..., None, None, None] * np.eye(d)).astype(complex)
    xy = centers + (shrink * (hi - lo) / 2 / nus)[..., None, None, None] * u
    xy = ModuleElement.rows([c for c in ctxs for _ in range(2)], xy.reshape(-1, *u.shape[2:]))
    return [CheckInstance(check=spec.name, seed=seed, kind=spec.kind, x=xy[2 * k],
                          y=xy[2 * k + 1], a=ak, e=ek, ball=balls[k], drop=drop)
            for k, (seed, ak, ek) in enumerate(zip(seeds, a, ModuleElement.rows(ctxs, e)))]


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
        frames = tuple(_haars(_cgauss(rng, (dim, dim), 2))) if normal else (None, None)
        px, py = _cgauss(rng, (length, dim) if normal else (length, dim, dim), 2)
        a = _cgauss(rng, (dim, dim))[0] if "a" in spec.operands else None
        return cls(check, weights, px, py, frames, a, target, drop=drop)

    def perturbed(self, rng: np.random.Generator, sigma: float) -> "InstanceDraw":
        """A copy with one of px, py or a moved by sigma times a Gaussian."""
        name = ("px", "py", "a")[rng.integers(0, 3 if self.a is not None else 2)]
        value = getattr(self, name)
        return replace(self, **{name: value + sigma * _cgauss(rng, value.shape)[0]})

    def materialize(self) -> CheckInstance:
        return materialize_group((self,))[0]


def materialize_group(draws) -> list[CheckInstance]:
    """Each draw's instance, for draws of one shape, frame use and target."""
    p = np.array([(draw.px, draw.py) for draw in draws])
    if draws[0].frames[0] is not None:
        p = _framed(np.array([draw.frames for draw in draws]), p)
    ctxs = [ModuleContext(p.shape[-1], draw.weights) for draw in draws]
    xy = ModuleElement.rows([ctx for ctx in ctxs for _ in range(2)],
                            p.reshape(-1, *p.shape[2:]), draws[0].target)
    return [CheckInstance(check=draw.check, seed=draw.seed, kind=draw.kind, x=xy[2 * k],
                          y=xy[2 * k + 1], a=draw.a, drop=draw.drop)
            for k, draw in enumerate(draws)]


def build_group(check: str, seeds, *, dim: int | None = None, length: int | None = None,
                weights_mode: str = "random", contraction: float = DEFAULT_CONTRACTION,
                drop: tuple[str, ...] = ()) -> list[CheckInstance]:
    """:func:`build_instance` for each seed, each drawing from its own stream;
    the work after the draws runs once per same-shape group.  Raises the
    first OpineqError raised."""
    spec = check_spec(check)
    _check_options(dim, length, weights_mode, contraction)
    drop = validate_drop(drop)
    normal, target = _recipe(spec, drop, contraction)
    groups: dict[tuple, list] = {}
    for k, seed in enumerate(seeds):
        shape, trial = _draw(spec, seed, dim, length, weights_mode, normal)
        groups.setdefault(shape, []).append((k, trial))
    built = {}
    for (d, _), members in groups.items():
        ks, trials = zip(*members)
        group_seeds, a, draws = zip(*trials)
        a = complex_normals(np.array(a), 1) if "a" in spec.operands else a
        built.update(zip(ks, _gruss_group(spec, d, group_seeds, a, draws, normal, drop)
                         if spec.recipe == "gruss"
                         else _pair_group(spec, group_seeds, a, draws, normal, target, drop)))
    return [built[k] for k in range(len(seeds))]


def _draw(spec: CheckSpec, seed: int, dim: int | None, length: int | None,
          weights_mode: str, normal: bool):
    """((d, n), (seed, a, the recipe's draws)) of one trial from its stream:
    d and n unless given, a (raw), then the gruss draws or x's and y's sides."""
    rng = np.random.default_rng(int(seed) & _SEED_MASK)
    d = int(dim) if dim is not None else int(rng.integers(1, 7))
    n = int(length) if length is not None else int(rng.integers(1, 5))
    a = _gaussians(rng, (d, d))[0] if "a" in spec.operands else None
    draw = (_draw_gruss(rng, d, n, weights_mode, normal) if spec.recipe == "gruss" else
            [_draw_side(_sub_rng(rng), d, n, weights_mode, normal) for _ in range(2)])
    return (d, n), (int(seed), a, draw)


def _pair_group(spec: CheckSpec, seeds, a, draws, normal: bool, target,
                drop) -> list[CheckInstance]:
    """Each trial's sides as one draw (y's weights drawn, then discarded)."""
    kind = "generic" if "normality" in drop else spec.kind
    p = complex_normals(np.array([[side[2] for side in sides] for sides in draws]), 3)
    frames = ([(None, None)] * len(seeds) if not normal else
              _haars(complex_normals(np.array([[side[1][0] for side in sides]
                                               for sides in draws]), 2)))
    return materialize_group([
        InstanceDraw(spec.name, sx[0], pk[0], pk[1], tuple(f), ak, target, seed, kind, drop)
        for seed, ak, (sx, _), pk, f in zip(seeds, a, draws, p, frames)])


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
    return build_group(check, (seed,), dim=dim, length=length, weights_mode=weights_mode,
                       contraction=contraction, drop=drop)[0]


def _point(spec: CheckSpec, params: dict) -> tuple:
    """The grid point ``params`` record, as given (Batch.of converts it); a key
    they omit takes the axis default."""
    axis = GRIDS[spec.grid]
    return tuple(params.get(k, v) for k, v in zip(axis.keys, axis.default))


def assert_hypotheses(inst: CheckInstance) -> None:
    """Generator self-test at the default tolerance: raise InvalidSpec unless
    the instance meets the preconditions it claims, checked as evaluation
    checks them.  Runs do not call it; evaluation alone enforces them."""
    spec = check_spec(inst.check)
    try:
        require_preconditions(_batch([inst], (_point(spec, inst.params),)))
    except OpineqError as exc:
        raise InvalidSpec(f"generated {inst.check} instance: {exc}") from exc


def evaluate_instance(inst: CheckInstance, tol: ToleranceConfig = DEFAULT_TOL) -> InequalityReport:
    """Run the instance's check, looked up on :mod:`opineq.checks` at call
    time, at the grid point its params record (each key they omit at the axis
    default); the check enforces its preconditions minus ``inst.drop``."""
    spec = check_spec(inst.check)
    args = [inst.x, inst.y, *(getattr(inst, op) for op in spec.operands)]
    kwargs = {"tol": tol, "digest": inst.digest()}
    if spec.hypotheses:
        kwargs["drop"] = inst.drop
    return getattr(checks, spec.name)(*args, *_point(spec, inst.params), **kwargs)


def evaluate_group(insts, tol: ToleranceConfig = DEFAULT_TOL,
                   points=None) -> list[InequalityReport]:
    """Evaluate instances of one check with one dimension, length and drop
    set (InvalidSpec for a mix) at each of ``points`` in one kernel call; a
    check with a grid needs them given (InvalidSpec otherwise), as its
    instances may record their own.  Report ``k * len(points) + j`` is, bit
    for bit, what evaluate_instance gives for instance k at point j.  Raises the first
    OpineqError any instance raises; :func:`evaluate_each` gives each
    instance's own."""
    spec = check_spec(insts[0].check)
    if points is None:
        if spec.grid is not None:
            raise InvalidSpec(f"{spec.name} is evaluated at given {spec.grid} points")
        points = ((),)
    batch = _batch(insts, points)
    require_preconditions(batch, tol)
    return run_batch(batch, tol)


def evaluate_each(insts, tol: ToleranceConfig, points) -> list[list]:
    """The evaluation policy of a run: per instance, its report or OpineqError
    at each of ``points``, each what :func:`evaluate_group` gives it alone.
    Instances of one dimension, length and drop set are evaluated as one
    group in one kernel call.  A group that raises is evaluated again
    instance by instance: its preconditions are enforced once, on a batch of
    it at every point, and an instance that meets them runs each point
    alone."""
    groups: dict[tuple, list[int]] = {}
    for k, inst in enumerate(insts):
        groups.setdefault((inst.x.ctx.dim, inst.x.ctx.length, inst.drop), []).append(k)
    out = {}
    for members in groups.values():
        group = [insts[k] for k in members]
        try:
            reports = evaluate_group(group, tol, points)
            rows = [reports[i * len(points):(i + 1) * len(points)] for i in range(len(group))]
        except OpineqError:
            rows = [_alone(inst, tol, points) for inst in group]
        out.update(zip(members, rows))
    return [out[k] for k in range(len(insts))]


def _alone(inst: CheckInstance, tol: ToleranceConfig, points) -> list:
    """One instance's report or OpineqError at each point, preconditions enforced once."""
    try:
        require_preconditions(_batch([inst], points), tol)
    except OpineqError as exc:
        return [exc] * len(points)
    row = []
    for point in points:
        try:
            row += run_batch(_batch([inst], (point,)), tol)
        except OpineqError as exc:
            row.append(exc)
    return row


def _batch(insts, points) -> Batch:
    """The instances at every point as one batch, with one digest per
    instance; InvalidSpec unless they share one check, dimension, length and
    drop set."""
    groups = {(inst.check, inst.x.ctx.dim, inst.x.ctx.length, inst.drop) for inst in insts}
    if len(groups) > 1:
        raise InvalidSpec(f"a group needs one (check, dim, len, drop), got {sorted(groups)}")
    spec = check_spec(insts[0].check)
    ops = {op: [getattr(inst, op) for inst in insts] for op in ("x", "y", *spec.operands)}
    return Batch.of(spec.name, insts[0].drop, ops["x"], ops["y"], ops.get("a"), ops.get("e"),
                    ops.get("ball"), points, [inst.digest() for inst in insts])

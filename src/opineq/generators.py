"""Seeded instance generators and replayable instance containers.

Every random instance entry in the package is drawn in this module, by
its check's recipe row in :data:`RECIPES`.
:func:`build_window` draws each trial from its own 64-bit seed's stream,
numpy's ``default_rng(seed)``, seeding a window's streams in stacked
passes (:func:`pcg64_states`), and builds each same-shape group of a
check as one stack; :func:`build_group` is its window of one check and
:func:`build_instance` its group of one, as search's
:meth:`InstanceDraw.materialize` is of :func:`materialize_group`.  A
:class:`CheckInstance` serializes to JSON exactly, so any reported
margin can be replayed bit for bit.

Evaluation is here too: :func:`evaluate_each` groups any instances,
evaluates each same-shape group at every given grid point (a tuple, keyed by
:data:`opineq.checks.GRIDS`) in one kernel call, cell by cell if it raises,
and gives each (instance, point) cell what it gets alone; :func:`evaluate_instance`
is its case of one, and :func:`run_trials`, a run's one path, builds a window
of trials from their seeds and evaluates them so.  Every route reaches a kernel
through :func:`opineq.checks.run_batch`, which enforces preconditions first.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import checks
from .checks import (  # CHECK_NAMES is re-exported
    CHECK_NAMES, GRIDS, Batch, CheckSpec, InequalityReport, ball_bounds, check_spec,
    require_preconditions, run_batch, validate_drop,
)
from .core import (
    DEFAULT_TOL, as_integer, as_seed, complex_normals, ct, herm, is_real, psd_powers,
)
from .errors import InvalidSpec, OpineqError, UnknownCheck, raise_first
from .hmodule import (
    ModuleContext, ModuleElement, Stack, _same_ctx, element_from_json, element_to_json,
    matrix_from_json, matrix_to_json,
)

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
    if not (is_real(contraction) and 0 < contraction < 1):
        raise InvalidSpec("contraction must lie in (0, 1)")
    if not isinstance(weights_mode, str) or weights_mode not in ("uniform", "random"):
        raise InvalidSpec(f"unknown weights mode {weights_mode!r}")


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


def _sub_seed(rng: np.random.Generator) -> int:
    """The seed of a sub-stream, drawn from its parent stream."""
    return int(rng.integers(0, 2**64 - 1, dtype=np.uint64))


def _scalar_unit_parts(ctxs, lam: np.ndarray) -> np.ndarray:
    """Parts lam_t I, sum_t w_t |lam_t|^2 = 1, of unit references in ctxs[b]."""
    totals = np.sqrt(np.sum(np.array([c.weights for c in ctxs]) * np.abs(lam) ** 2, axis=-1))
    if (totals == 0).any():
        raise InvalidSpec("degenerate zero draw cannot be normalized")
    return (lam / totals[:, None])[..., None, None] * np.eye(ctxs[0].dim)


# numpy's SeedSequence (numpy/random/bit_generator.pyx) and PCG64's set-seed
# step (O'Neill, "PCG", HMC-CS-2014-0905), both kept stable by NumPy NEP 19.
# The hash constants do not depend on the entropy, so many entropies are
# hashed in one stacked uint32 pass.
_MASK32 = 0xFFFFFFFF
_POOL = 4                                       # SeedSequence's pool, in words
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(2, count) uint32, read-only: per hash call, the constant xored in and
    the one multiplied by (the first times ``mult``), as SeedSequence steps
    them."""
    steps = [init]
    for _ in range(count):
        steps.append(steps[-1] * mult & _MASK32)
    out = np.array([steps[:-1], steps[1:]], np.uint32)
    out.flags.writeable = False
    return out


@functools.cache
def _mix_hash(width: int) -> np.ndarray:
    """mix_entropy's constants for ``width`` >= 4 entropy words: its 4 * width calls."""
    return _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * width)


_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # generate_state's


def _hashmix(v: np.ndarray, consts: np.ndarray) -> np.ndarray:
    v = v ^ consts[0]
    v *= consts[1]
    v ^= v >> _SHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x
    r -= _MIX_R * y
    r ^= r >> _SHIFT
    return r


def _words(v: int) -> list[int]:
    """A nonnegative int as SeedSequence reads it: 32-bit words, low first."""
    out = [v & _MASK32]
    while v := v >> 32:
        out.append(v & _MASK32)
    return out


def _seed_state(words: np.ndarray, count: int, lengths=None) -> list[list[int]]:
    """``SeedSequence(entropy).generate_state(count, np.uint64)`` for each row
    of ``words``, an (N, W >= 4) uint32 array of entropies as words, all
    hashed in one stacked pass.  A row is zero past its entropy's end, which
    hashes as SeedSequence pads its pool; past the pool, its length is given
    in ``lengths``."""
    width = words.shape[1]
    consts = _mix_hash(width)
    pool = _hashmix(words[:, :_POOL], consts[:, :_POOL])
    for i in range(_POOL):  # each pool word mixes into every other, in turn
        others, at = [j for j in range(_POOL) if j != i], _POOL + (_POOL - 1) * i
        pool[:, others] = _mix(pool[:, others],
                               _hashmix(pool[:, i, None], consts[:, at:at + _POOL - 1]))
    for j in range(_POOL, width):  # words past the pool mix into every word
        mixed = _mix(pool, _hashmix(words[:, j, None], consts[:, _POOL * j:_POOL * (j + 1)]))
        pool = np.where((lengths > j)[:, None], mixed, pool)
    state = _hashmix(pool[:, np.arange(2 * count) % _POOL], _STATE_HASH[:, :2 * count])
    return np.ascontiguousarray(state, "<u4").view("<u8").tolist()


def pcg64_states(seeds) -> list[tuple[int, int]]:
    """For each seed, an int that :func:`as_seed` passes, the PCG64
    (state, inc) that ``np.random.default_rng(seed)`` starts from: its
    SeedSequence's four 64-bit words give the initial state and the
    stream, then PCG64's set-seed step runs.  All seeds are hashed in one
    stacked pass."""
    seeds = np.array(seeds, np.uint64)
    words = np.zeros((len(seeds), _POOL), np.uint32)
    words[:, 0], words[:, 1] = seeds & np.uint64(_MASK32), seeds >> np.uint64(32)
    out = []
    for s_hi, s_lo, i_hi, i_lo in _seed_state(words, 4):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        out.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return out


def _streams(seeds):
    """One Generator, set in turn to each seed's ``default_rng(seed)`` stream;
    draw each stream whole before taking the next."""
    rng = np.random.Generator(np.random.PCG64(0))
    for state, inc in pcg64_states(seeds):
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
        yield rng


def trial_seeds(master: int, pairs) -> list[int]:
    """:func:`trial_seed` of each (check, index) pair, in one stacked pass."""
    master_words, rows = _words(as_seed("seed", master)), []
    for check, index in pairs:
        if not isinstance(check, str):
            raise InvalidSpec(f"check must be a string, got {check!r}")
        if (index := as_integer("index", index)) < 0:
            raise InvalidSpec(f"index must be >= 0, got {index}")
        rows.append(master_words + [zlib.crc32(check.encode("utf-8"))] + _words(index))
    if not rows:
        return []
    width = max(_POOL, *map(len, rows))
    words = np.array([row + [0] * (width - len(row)) for row in rows], np.uint32)
    return [seed for seed, in _seed_state(words, 1, np.array([len(row) for row in rows]))]


def trial_seed(master: int, check: str, index: int) -> int:
    """Derive an independent per-trial seed from the master seed, the check
    name (a string) and the trial counter, an integer >= 0 (:func:`as_integer`): the
    first uint64 of ``SeedSequence([master, crc32(check), index])``; stable
    across runs and platforms."""
    return trial_seeds(master, [(check, index)])[0]


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
        _, dim, length, _ = checks.group_key(vars(self))
        return {"seed": self.seed, "dim": dim, "len": length, "params": params}

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
    context for x, y and e, a valid point of its grid axis (a key it omits
    takes the default) and a seed that is null or passes :func:`opineq.core.as_seed`."""
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
        params, kind = obj.get("params", {}), obj.get("kind", "generic")
        if not isinstance(params, dict) or not isinstance(kind, str):
            raise InvalidSpec(f"params must be a JSON object and kind a string, "
                              f"got {params!r} and {kind!r}")
        GRIDS[spec.grid].params(_point(spec, params))
        return CheckInstance(
            check=spec.name,
            seed=None if obj.get("seed") is None else as_seed("seed", obj["seed"]),
            kind=kind,
            x=x,
            y=y,
            a=matrix_from_json(obj["a"], x.ctx.dim) if "a" in given else None,
            e=e,
            ball=ball,
            params=dict(params),
            drop=validate_drop(obj.get("drop", ())),
        )
    except (LookupError, TypeError, ValueError, OverflowError, OpineqError) as exc:
        raise InvalidSpec(f"malformed instance: {type(exc).__name__}: {exc}") from exc


def _draw_gruss(rng: np.random.Generator, d: int, n: int, weights_mode: str, scalar: bool):
    """The gruss draws in stream order, raw: weights; if ``scalar`` the seed
    of the sub-stream e's n scalars come from, else e's n matrices; the
    Gaussian of x and y's one frame if ``scalar``; the balls (m, M, p, P);
    per ball point, parts, shrink.  Then, if ``scalar``, e's sub-stream."""
    weights = _draw_weights(rng, n, weights_mode)
    e = _sub_seed(rng) if scalar else _gaussians(rng, (d, d), n)
    frame = _gaussians(rng, (d, d)) if scalar else None
    ball = tuple(float(v) for _ in range(2) for v in sorted(rng.normal(0.0, 1.0, 2)))
    points = [(_gaussians(rng, (d,) if scalar else (d, d), n), rng.uniform(0.0, 0.95))
              for _ in range(2)]
    draw = [weights, e, frame, ball, points]
    return draw, [(draw, 1, functools.partial(_gaussians, shape=(n,)))] if scalar else []


def _gruss_group(spec: CheckSpec, d: int, seeds, a, draws, scalar: bool, target, drop):
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


class InstanceDraw(NamedTuple):
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
        """A search restart of a check whose recipe row searches this class
        (UnknownCheck for any other): random weights, both frames, px, py, then a."""
        spec = check_spec(check)
        if (row := RECIPES[spec.recipe]).search is not cls:
            raise UnknownCheck(f"search does not support {check!r}")
        normal = "normality" in spec.enforced(drop)
        weights = _draw_weights(rng, length, "random")
        frames = tuple(_haars(_cgauss(rng, (dim, dim), 2))) if normal else (None, None)
        px, py = _cgauss(rng, (length, dim) if normal else (length, dim, dim), 2)
        a = _cgauss(rng, (dim, dim))[0] if "a" in spec.operands else None
        target = row.target_for(DEFAULT_CONTRACTION, drop)
        return cls(check, weights, px, py, frames, a, target, drop=drop)

    def perturbed(self, rng: np.random.Generator, sigma: float) -> "InstanceDraw":
        """A copy with one of px, py or a moved by sigma times a Gaussian."""
        name = ("px", "py", "a")[rng.integers(0, 3 if self.a is not None else 2)]
        value = getattr(self, name)
        return self._replace(**{name: value + sigma * _cgauss(rng, value.shape)[0]})

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


def build_window(segments, *, dim: int | None = None, length: int | None = None,
                 weights_mode: str = "random", contraction: float = DEFAULT_CONTRACTION,
                 drop: tuple[str, ...] = ()) -> list[list[CheckInstance]]:
    """:func:`build_group` of each (check, seeds) segment.  A trial draws from
    its seed's ``default_rng`` stream and from sub-streams seeded by it; the
    window sets up all parent streams in one stacked pass (:func:`pcg64_states`),
    then all sub-streams in another, and draws each stream whole.  Raises the
    first OpineqError raised."""
    specs = [check_spec(check) for check, _ in segments]
    _check_options(dim, length, weights_mode, contraction)
    drop = validate_drop(drop)
    seeds = [[as_seed("seed", seed) for seed in group] for _, group in segments]
    parents = _streams([seed for group in seeds for seed in group])
    drawn = [[_draw(spec, seed, rng, dim, length, weights_mode, drop)
              for seed, rng in zip(group, parents)] for spec, group in zip(specs, seeds)]
    subs = [sub for trials in drawn for *_, trial_subs in trials for sub in trial_subs]
    for (draws, slot, drawer), rng in zip(subs, _streams([d[slot] for d, slot, _ in subs])):
        draws[slot] = drawer(rng)
    return [_build_drawn(spec, trials, drop, contraction) for spec, trials in zip(specs, drawn)]


def build_group(check: str, seeds, **options) -> list[CheckInstance]:
    """:func:`build_instance` for each seed, each drawing from its own stream;
    the work after the draws runs once per same-shape group.  Raises the
    first OpineqError raised.  A :func:`build_window` of one segment."""
    return build_window([(check, seeds)], **options)[0]


def _draw(spec: CheckSpec, seed: int, rng: np.random.Generator, dim: int | None,
          length: int | None, weights_mode: str, drop):
    """((d, n), (seed, a, draws), sub-streams) of one trial from ``rng`` on its
    stream: d and n unless given, a (raw), then its recipe row's ``draw``.  In a
    sub-stream (draws, slot, drawer), the slot holds its seed until ``drawer`` fills it."""
    d = int(dim) if dim is not None else int(rng.integers(1, 7))
    n = int(length) if length is not None else int(rng.integers(1, 5))
    a = _gaussians(rng, (d, d))[0] if "a" in spec.operands else None
    draw, subs = RECIPES[spec.recipe].draw(rng, d, n, weights_mode,
                                           "normality" in spec.enforced(drop))
    return (d, n), (seed, a, draw), subs


def _draw_pair(rng: np.random.Generator, d: int, n: int, weights_mode: str, normal: bool):
    """The seeds of x's and y's sides, each drawn on its sub-stream by :func:`_draw_side`."""
    draw = [_sub_seed(rng), _sub_seed(rng)]
    side = functools.partial(_draw_side, d=d, n=n, weights_mode=weights_mode, normal=normal)
    return draw, [(draw, 0, side), (draw, 1, side)]


def _build_drawn(spec: CheckSpec, trials, drop, contraction: float) -> list[CheckInstance]:
    """Each drawn trial's instance, its recipe row's ``build`` run per same-shape group."""
    row = RECIPES[spec.recipe]
    normal, target = "normality" in spec.enforced(drop), row.target_for(contraction, drop)
    groups: dict[tuple, list] = {}
    for k, (shape, trial, _) in enumerate(trials):
        groups.setdefault(shape, []).append((k, *trial))
    built = {}
    for (d, _), members in groups.items():
        ks, seeds, a, draws = zip(*members)
        a = complex_normals(np.array(a), 1) if "a" in spec.operands else a
        built.update(zip(ks, row.build(spec, d, seeds, a, draws, normal, target, drop)))
    return [built[k] for k in range(len(trials))]


def _pair_group(spec: CheckSpec, d: int, seeds, a, draws, normal: bool, target, drop):
    """Each trial's sides as one draw (y's weights drawn, then discarded)."""
    kind = "generic" if "normality" in drop else spec.kind
    p = complex_normals(np.array([[side[2] for side in sides] for sides in draws]), 3)
    frames = ([(None, None)] * len(seeds) if not normal else
              _haars(complex_normals(np.array([[side[1][0] for side in sides]
                                               for sides in draws]), 2)))
    return materialize_group([
        InstanceDraw(spec.name, sx[0], pk[0], pk[1], tuple(f), ak, target, seed, kind, drop)
        for seed, ak, (sx, _), pk, f in zip(seeds, a, draws, p, frames)])


class Recipe(NamedTuple):
    """How a check's instances are drawn and built: x and y's module norm
    ``target``, a trial's ``draw`` from its stream and sub-streams, a same-shape
    group's ``build``, and the ``search`` draw class (none: not searched)."""

    target: float | str | None
    draw: Callable
    build: Callable
    search: type | None

    def target_for(self, contraction: float, drop) -> float | None:
        """None: as drawn; "contraction": the run's ``contraction``, 1 once dropped."""
        if self.target == "contraction":
            return 1.0 if "contraction" in drop else contraction
        return self.target


RECIPES = {  # by CheckSpec.recipe; x and y are drawn in unitary frames while normality is enforced
    "pair": Recipe(None, _draw_pair, _pair_group, InstanceDraw),
    "unit_pair": Recipe(1.0, _draw_pair, _pair_group, InstanceDraw),
    "contractive_pair": Recipe("contraction", _draw_pair, _pair_group, InstanceDraw),
    "gruss": Recipe(None, _draw_gruss, _gruss_group, None),  # ball points around a unit e
}


def build_instance(check: str, seed: int, **options) -> CheckInstance:
    """Materialize a random instance satisfying the check's hypotheses, by
    its recipe row, with :func:`build_window`'s options.

    ``drop`` removes the named hypotheses from the construction (normality
    falls back to generic draws, contraction rescales to the unit sphere);
    the instance records the dropped set so evaluation skips enforcing just
    those.
    """
    return build_group(check, (seed,), **options)[0]


def gen_element(seed: int, dim: int, length: int, kind: str, *,
                contraction: float = DEFAULT_CONTRACTION,
                weights_mode: str = "uniform") -> ModuleElement:
    """The x :func:`build_instance` draws, with these options, for the first
    :data:`~opineq.checks.CHECK_SPECS` row whose ``kind`` is ``kind``; for
    ``"gruss"`` that instance's unit reference e.  InvalidSpec for a kind no
    row has."""
    spec = next((s for s in checks.CHECK_SPECS.values()
                 if isinstance(kind, str) and s.kind == kind), None)
    if spec is None:
        raise InvalidSpec(f"unknown kind {kind!r}")
    inst = build_instance(spec.name, seed, dim=dim, length=length, contraction=contraction,
                          weights_mode=weights_mode)
    return inst.e if kind == "gruss" else inst.x


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
        raise_first(require_preconditions(_batch([inst], (_point(spec, inst.params),))))
    except OpineqError as exc:
        raise InvalidSpec(f"generated {inst.check} instance: {exc}") from exc


def evaluate_instance(inst: CheckInstance, tol: float = DEFAULT_TOL) -> InequalityReport:
    """:func:`evaluate_each` of the one instance at the grid point its params
    record (each key they omit at the axis default): its report, else the
    first error, such as a precondition it breaks other than ``inst.drop``."""
    point = _point(check_spec(inst.check), inst.params)
    return raise_first(evaluate_each([inst], tol, (point,))[0])[0]


def evaluate_each(insts, tol: float, points) -> list[list]:
    """The evaluation policy of a run: per instance, its report or OpineqError
    at each of ``points`` (None is :meth:`Batch.of`'s InvalidSpec), each cell
    bit for bit what :func:`evaluate_instance` gives it at that point.  The
    instances of one :func:`opineq.checks.group_key` (each alone if it has none)
    are one :func:`run_batch`; if it raises, that is the outcome of a group of
    one cell, and every cell of a larger group is evaluated again alone."""
    groups: dict[tuple | int, list[int]] = {}
    for k, inst in enumerate(insts):
        try:
            groups.setdefault(checks.group_key(vars(inst)), []).append(k)
        except InvalidSpec:
            groups[k] = [k]
    out = {}
    for members in groups.values():
        try:
            outs = run_batch(_batch([insts[k] for k in members], points), tol)
        except OpineqError as exc:
            if points is None:
                raise
            outs = [exc] if len(members) * len(points) == 1 else [
                _caught(lambda: run_batch(_batch([insts[k]], (point,)), tol)[0])
                for k in members for point in points]
        out.update((k, outs[i * len(points):(i + 1) * len(points)]) for i, k in enumerate(members))
    return [out[k] for k in range(len(insts))]


def run_trials(window, tol: float, **draw) -> list[list[tuple]]:
    """Per (check, seeds, points) segment of ``window``, per seed, its
    instance or build OpineqError, and its report or OpineqError at each of
    the segment's points (the build error at each, after one): one
    :func:`build_window` with options ``draw``, seed by seed if it raises,
    then :func:`evaluate_each` per segment."""
    try:
        built = build_window([(check, seeds) for check, seeds, _ in window], **draw)
    except OpineqError:
        built = [[_caught(build_instance, check, seed, **draw) for seed in seeds]
                 for check, seeds, _ in window]
    out = []
    for (_, _, points), insts in zip(window, built):
        rows = iter(evaluate_each([i for i in insts if isinstance(i, CheckInstance)], tol, points))
        out.append([(inst, next(rows) if isinstance(inst, CheckInstance) else [inst] * len(points))
                    for inst in insts])
    return out


def _caught(call, *args, **kwargs):
    """``call(*args, **kwargs)``, or the OpineqError it raises."""
    try:
        return call(*args, **kwargs)
    except OpineqError as exc:
        return exc


def _batch(insts, points) -> Batch:
    """The instances at every point as one batch, one :meth:`Batch.of` row each."""
    return Batch.of([{**vars(inst), "digest": inst.digest()} for inst in insts], points)

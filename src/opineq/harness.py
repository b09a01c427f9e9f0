"""Batch verification runner and counterexample search.

The runner draws per-trial seeds from a master seed, builds each group
of trials in one call, evaluates each group of same-shape instances at
each point :meth:`RunConfig.points` gives for the check's grid axis in
one kernel call, and writes one JSON object per report line, in trial
order.  Instances and reports are bit for bit what each trial gives
alone, so grouping never shows.
Instances that violate a check's hypotheses surface as ``error`` lines
(null margins), not as failures; a run fails only when a
hypothesis-satisfying instance yields a negative margin beyond
tolerance.  Search scores one candidate at a time through
``evaluate_instance``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .checks import CHECK_SPECS, GRIDS, InequalityReport, check_spec, validate_drop
from .core import DEFAULT_TOL, ToleranceConfig, as_integer
from .errors import InvalidSpec, IOFailure, OpineqError, UnknownCheck
from .generators import (
    CheckInstance, InstanceDraw, build_group, check_shape, evaluate_each, evaluate_instance,
    trial_seed, _SEED_MASK,
)

DEFAULT_EXPONENT_GRID = ((2.0, 2.0, 2.0), (3.0, 2.0, 6.0), (4.0, 4.0, 4.0),
                         (4 / 3, 4 / 3, 4 / 3))
DEFAULT_ALPHA_GRID = (0.5, 1.0, 2.0)

# Trials built as one group, then evaluated and written; output does not
# depend on it: an instance or report is the same alone or in any group.
GROUP_TRIALS = 64

_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(sort_keys=True) builds one per call


@dataclass(frozen=True)
class RunConfig:
    """Everything a verification run depends on, explicitly."""

    trials: int
    checks: tuple[str, ...]
    tolerances: ToleranceConfig = DEFAULT_TOL
    exponent_grid: tuple[tuple[float, float, float], ...] = DEFAULT_EXPONENT_GRID
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    output_path: str | None = None
    seed: int = 0
    dim: int | None = None
    length: int | None = None
    weights_mode: str = "random"

    def __post_init__(self) -> None:
        for tag in ("trials", "seed"):  # as ints, by the one integer rule
            object.__setattr__(self, tag, as_integer(tag, getattr(self, tag)))
        if self.trials < 1:
            raise InvalidSpec("trials must be >= 1")
        if not self.checks:
            raise InvalidSpec("at least one check is required")
        for name in self.checks:
            check_spec(name)
        for axis, row in GRIDS.items():
            try:
                for point in self.points(axis):
                    row.params(point)
            except TypeError:
                raise InvalidSpec(f"the {axis} grid must be a sequence of points") from None
        check_shape(self.dim, self.length)

    def points(self, axis: str | None) -> tuple[tuple, ...]:
        """The grid points the run evaluates a check of this axis at."""
        return {None: ((),), "pqr": self.exponent_grid,
                "alpha": tuple((alpha,) for alpha in self.alpha_grid)}[axis]


@dataclass
class SuiteSummary:
    """Counts and extremes per check; ``failed`` drives the exit status."""

    counts: dict = field(default_factory=dict)
    worst_margin: dict = field(default_factory=dict)
    lines: int = 0

    def record(self, name: str, outcome: str, normalized_margin: float | None) -> None:
        slot = self.counts.setdefault(name, {"pass": 0, "fail": 0, "error": 0})
        slot[outcome] += 1
        self.lines += 1
        if normalized_margin is not None:
            prev = self.worst_margin.get(name)
            if prev is None or normalized_margin < prev:
                self.worst_margin[name] = normalized_margin

    @property
    def failed(self) -> bool:
        return any(slot["fail"] for slot in self.counts.values())


def _error_line(check: str, inst: CheckInstance | None, seed: int,
                exc: OpineqError, extra: dict | None = None) -> dict:
    """A report line with null margins whose params name the error."""
    digest = inst.digest() if inst is not None else {
        "seed": seed, "dim": None, "len": None, "params": {}}
    params = {**digest["params"], **(extra or {}), "error": f"{type(exc).__name__}: {exc}"}
    return InequalityReport(check, None, None, None, None, None,
                            instance={**digest, "params": params}).to_json_dict()


def run_suite(cfg: RunConfig, writer=None) -> SuiteSummary:
    """Run every configured check over ``cfg.trials`` derived-seed instances.

    A trial is build, then evaluate at each grid point.  Trials are built
    :data:`GROUP_TRIALS` at a time in one :func:`build_group` call and
    evaluated by :func:`evaluate_each`, which evaluates each group with one
    dimension, length and drop set at every grid point in one kernel call;
    their lines are written in trial order.  Evaluation alone enforces the
    check's hypotheses, so a violation is one error line per grid point; a
    build error is one error line without an instance.

    ``writer`` may be any object with a ``write`` method; when omitted and
    ``cfg.output_path`` is set, the file is created (overwritten) and each
    report is emitted as one sorted-key JSON line.
    """
    summary = SuiteSummary()
    close_me = None
    if writer is None and cfg.output_path:
        try:
            close_me = writer = open(cfg.output_path, "w", encoding="utf-8")
        except OSError as exc:
            raise IOFailure(f"cannot open {cfg.output_path!r}: {exc}") from exc
    try:
        for check in cfg.checks:
            spec = check_spec(check)
            points = cfg.points(spec.grid)
            for start in range(0, cfg.trials, GROUP_TRIALS):
                seeds = [trial_seed(cfg.seed, check, index)
                         for index in range(start, min(start + GROUP_TRIALS, cfg.trials))]
                built = _build(cfg, check, seeds)
                insts = [inst for inst in built if isinstance(inst, CheckInstance)]
                rows = iter(evaluate_each(insts, cfg.tolerances, points))
                for seed, inst in zip(seeds, built):
                    if not isinstance(inst, CheckInstance):
                        summary.record(check, "error", None)
                        _emit(writer, _error_line(check, None, seed, inst))
                        continue
                    for point, rep in zip(points, next(rows)):
                        if isinstance(rep, OpineqError):
                            summary.record(check, "error", None)
                            extra = GRIDS[spec.grid].params(point)
                            _emit(writer, _error_line(check, inst, seed, rep, extra))
                            continue
                        summary.record(check, "pass" if rep.holds else "fail",
                                       rep.margin / rep.scale)
                        _emit(writer, rep.to_json_dict())
    finally:
        if close_me is not None:
            close_me.close()
    return summary


def _build(cfg: RunConfig, check: str, seeds: list[int]) -> list:
    """Each seed's instance or build error: the seeds are built as one group,
    or one at a time if the group raises, so an error stays with its trial."""
    try:
        return build_group(check, seeds, dim=cfg.dim, length=cfg.length,
                           weights_mode=cfg.weights_mode)
    except OpineqError as exc:
        if len(seeds) == 1:
            return [exc]
        return [inst for seed in seeds for inst in _build(cfg, check, [seed])]


def _emit(writer, obj: dict) -> None:
    if writer is None:
        return
    try:
        writer.write(_ENCODER.encode(obj) + "\n")
    except OSError as exc:  # pragma: no cover - exercised via bad paths only
        raise IOFailure(f"cannot write report line: {exc}") from exc


# ---------------------------------------------------------------------------
# counterexample search

SEARCHABLE = tuple(name for name, spec in CHECK_SPECS.items() if spec.searchable)

_SIGMAS = (0.5, 0.1, 0.02)


@dataclass(frozen=True)
class SearchResult:
    report: InequalityReport
    instance: CheckInstance
    evaluations: int


class _SearchState:
    """One point of the hill climb, holding an :class:`InstanceDraw`: a restart
    draws one, a step perturbs a copy.  ``perfbench/spans.py`` hooks both."""

    def __init__(self, check: str, rng: np.random.Generator, dim: int,
                 length: int, drop: tuple[str, ...]):
        self.draw = InstanceDraw.for_search(check, rng, dim, length, drop)

    def perturb(self, rng: np.random.Generator, sigma: float) -> "_SearchState":
        out = self.__class__.__new__(self.__class__)
        out.draw = self.draw.perturbed(rng, sigma)
        return out


def search_counterexample(check: str, drop: tuple[str, ...] = (),
                          budget: int = 1000, seed: int = 0,
                          dim: int | None = None, length: int | None = None) -> SearchResult:
    """Random-restart hill climbing on the normalized margin.

    Perturbations that raise an :class:`OpineqError` (for example a
    contraction pushed past the series boundary) count against the budget
    and are rejected.  The result records the smallest margin seen; it
    never claims that no counterexample exists.
    """
    if check not in SEARCHABLE:
        raise UnknownCheck(f"search does not support {check!r}")
    if budget < 1:
        raise InvalidSpec(f"budget must be >= 1, got {budget}")
    check_shape(dim, length)
    drop = validate_drop(drop)
    rng = np.random.default_rng(int(seed) & _SEED_MASK)
    best: tuple[float, InequalityReport, CheckInstance] | None = None
    evals = 0
    block = max(40, budget // 8)

    def try_eval(state: _SearchState):
        nonlocal evals, best
        evals += 1
        inst = state.draw.materialize()
        try:
            rep = evaluate_instance(inst)
        except OpineqError:
            return None
        value = rep.margin / rep.scale
        if best is None or value < best[0]:
            best = (value, rep, inst)
        return value

    while evals < budget:
        d = int(dim) if dim is not None else int(rng.integers(2, 6))
        n = int(length) if length is not None else int(rng.integers(1, 4))
        current = None
        spent = 0
        stale = 0
        while current is None and evals < budget and spent < 5:
            state = _SearchState(check, rng, d, n, drop)
            current = try_eval(state)
            spent += 1
        if current is None:
            continue
        while evals < budget and spent < block and stale < 60:
            sigma = _SIGMAS[min(2, stale // 20)]
            cand = state.perturb(rng, sigma)
            value = try_eval(cand)
            spent += 1
            if value is not None and value < current:
                state, current = cand, value
                stale = 0
            else:
                stale += 1
    if best is None:  # every evaluation errored; report the fact loudly
        raise OpineqError(f"search on {check} produced no evaluable instance")
    return SearchResult(report=best[1], instance=best[2], evaluations=evals)

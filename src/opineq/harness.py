"""Batch verification runner and counterexample search.

The runner derives per-trial seeds from a master seed, a window of
trials at a time, passes each window to
:func:`opineq.generators.run_trials`, which builds and evaluates its
trials at each point :meth:`RunConfig.points` gives for their check's
grid axis, and writes one JSON object per report line, in trial
order, to the writer it is given.  Instances and reports are bit for bit what each trial gives
alone, so grouping never shows.
Instances that violate a check's hypotheses surface as ``error`` lines
(null margins), not as failures; a run fails only when a
hypothesis-satisfying instance yields a negative margin beyond
tolerance.  Search scores one candidate at a time through
``evaluate_instance``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .checks import CHECK_SPECS, GRIDS, InequalityReport, check_spec, line_record, validate_drop
from .core import DEFAULT_TOL, as_integer, as_seed, as_tolerance
from .errors import InvalidSpec, IOFailure, OpineqError, UnknownCheck
from .generators import (
    DEFAULT_CONTRACTION, RECIPES, CheckInstance, InstanceDraw, _check_options, check_shape,
    evaluate_instance, run_trials, trial_seeds,
)

# (check, index) pairs seeded and built as one window, then evaluated and
# written; output does not depend on it: an instance or report is the same
# alone or in any window or group.
GROUP_TRIALS = 64

_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(sort_keys=True) builds one per call


@dataclass(frozen=True)
class RunConfig:
    """Everything a verification run depends on, explicitly; ``grids`` maps a
    :data:`GRIDS` axis to its points, and an axis it omits takes its row's.
    ``grid_params`` maps every axis to its points' params, validated once, here."""

    trials: int
    checks: tuple[str, ...]
    tol: float = DEFAULT_TOL
    grids: dict = field(default_factory=dict, hash=False)
    seed: int = 0
    dim: int | None = None
    length: int | None = None
    weights_mode: str = "random"
    grid_params: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tol", as_tolerance(self.tol))
        object.__setattr__(self, "trials", as_integer("trials", self.trials))
        object.__setattr__(self, "seed", as_seed("seed", self.seed))
        if self.trials < 1:
            raise InvalidSpec("trials must be >= 1")
        if not isinstance(self.checks, (tuple, list)):
            raise InvalidSpec(f"checks must be a tuple or list of check names, not {self.checks!r}")
        object.__setattr__(self, "checks", tuple(self.checks))
        if not self.checks:
            raise InvalidSpec("at least one check is required")
        for k, name in enumerate(self.checks):
            check_spec(name)
            if name in self.checks[:k]:
                raise InvalidSpec(f"check {name!r} is named twice")
        if not isinstance(self.grids, dict) or not set(self.grids) <= GRIDS.keys() - {None}:
            raise InvalidSpec(f"grids must map axes {[*filter(None, GRIDS)]}, got {self.grids!r}")
        object.__setattr__(self, "grid_params", {})
        for axis, row in GRIDS.items():
            try:
                params = self.grid_params[axis] = [row.params(tuple(p)) for p in self.points(axis)]
            except TypeError:
                raise InvalidSpec(f"the {axis} grid must be a sequence of points") from None
            if not params:
                raise InvalidSpec(f"the {axis} grid has no points")
            for k, point in enumerate(params):
                if point in params[:k]:
                    raise InvalidSpec(f"grid point {point} is given twice")
        _check_options(self.dim, self.length, self.weights_mode, DEFAULT_CONTRACTION)

    def points(self, axis: str | None) -> tuple[tuple, ...]:
        """The grid points the run evaluates a check of this axis at."""
        return tuple(self.grids.get(axis, GRIDS[axis].points))


@dataclass
class SuiteSummary:
    """Counts and extremes per check; ``verdict`` drives the exit status."""

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

    @property
    def verdict(self) -> str:
        """One of "OK", "FAIL" (a report failed) and "NOTHING VERIFIED" (none passed)."""
        if self.failed:
            return "FAIL"
        if not any(slot["pass"] for slot in self.counts.values()):
            return "NOTHING VERIFIED"
        return "OK"


def run_suite(cfg: RunConfig, writer=None) -> SuiteSummary:
    """Run every configured check over ``cfg.trials`` derived-seed instances.

    The (check, index) pairs go a window (:func:`_windows`) at a time
    through :func:`trial_seeds` and :func:`run_trials`, which builds and
    evaluates them; their lines are written in trial order.  Evaluation
    alone enforces the check's hypotheses, so a violation, like a build
    error, is one error line per grid point (a build error's has no instance).

    Each cell goes to ``writer``, any object with a ``write`` method, through
    :func:`write_cell` at its point's :attr:`RunConfig.grid_params`; without
    one, nothing is written.
    """
    summary = SuiteSummary()
    for window in _windows(cfg):
        segments = []
        for check, members in itertools.groupby(zip(window, trial_seeds(cfg.seed, window)),
                                                key=lambda member: member[0][0]):
            segments.append((check, [seed for _, seed in members],
                             cfg.points(check_spec(check).grid)))
        trials = run_trials(segments, cfg.tol, dim=cfg.dim, length=cfg.length,
                            weights_mode=cfg.weights_mode)
        for (check, seeds, _), segment in zip(segments, trials):
            for seed, (inst, row) in zip(seeds, segment):
                for params, rep in zip(cfg.grid_params[check_spec(check).grid], row):
                    if isinstance(rep, OpineqError):
                        summary.record(check, "error", None)
                    else:
                        summary.record(check, "pass" if rep.holds else "fail",
                                       rep.margin / rep.scale)
                    write_cell(writer, check, seed, inst, params, rep)
    return summary


def write_cell(writer, check: str, seed: int, inst, params: dict, outcome) -> None:
    """Write one (trial, grid point) cell to ``writer`` (nothing without one) as one
    sorted-key JSON line: a report's own, else null margins under the
    :func:`~opineq.checks.line_record` of the error ``outcome`` at the point's
    ``params``, for ``inst`` with its ball, or, if the build failed, for ``seed``."""
    if isinstance(outcome, InequalityReport):
        return _emit(writer, outcome.to_json_dict())
    digest = {**inst.digest(), "ball": inst.ball} if isinstance(inst, CheckInstance) else {"seed": seed}
    _emit(writer, {"name": check, **dict.fromkeys(("lhs", "rhs", "margin", "holds")),
                   **line_record(check, digest, params, outcome), "norm_detail": {}})


def _windows(cfg: RunConfig):
    """The run's (check, index) pairs, check by check, in windows of at most
    :data:`GROUP_TRIALS`.  A window holds whole chunks of a check's trials,
    :data:`GROUP_TRIALS` at a time, so it splits a check's trials only where
    a chunk ends, and each check is built and evaluated in those chunks."""
    window = []
    for check in cfg.checks:
        for start in range(0, cfg.trials, GROUP_TRIALS):
            chunk = [(check, index)
                     for index in range(start, min(start + GROUP_TRIALS, cfg.trials))]
            if len(window) + len(chunk) > GROUP_TRIALS:
                yield window
                window = []
            window += chunk
    yield window


def _emit(writer, obj: dict) -> None:
    if writer is None:
        return
    try:
        writer.write(_ENCODER.encode(obj) + "\n")
    except OSError as exc:
        raise IOFailure(f"cannot write report line: {exc}") from exc


# ---------------------------------------------------------------------------
# counterexample search

SEARCHABLE = tuple(name for name, spec in CHECK_SPECS.items() if RECIPES[spec.recipe].search)

_SIGMAS = (0.5, 0.1, 0.02)


class SearchResult(NamedTuple):
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


def search_options(check: str, drop: tuple[str, ...] = (), budget: int = 1000, seed: int = 0,
                   dim: int | None = None, length: int | None = None) -> tuple:
    """(drop, budget, seed) as :func:`search_counterexample` runs them;
    UnknownCheck or InvalidSpec unless every option is valid."""
    if check_spec(check).name not in SEARCHABLE:
        raise UnknownCheck(f"search does not support {check!r}")
    if (budget := as_integer("budget", budget)) < 1:
        raise InvalidSpec(f"budget must be >= 1, got {budget}")
    check_shape(dim, length)
    return validate_drop(drop), budget, as_seed("seed", seed)


def search_counterexample(check: str, drop: tuple[str, ...] = (),
                          budget: int = 1000, seed: int = 0,
                          dim: int | None = None, length: int | None = None) -> SearchResult:
    """Random-restart hill climbing on the normalized margin, at the axis
    default point of a check with a grid (where replay evaluates its witness).

    Perturbations that raise an :class:`OpineqError` (for example a
    contraction pushed past the series boundary) count against the budget
    and are rejected.  The result records the smallest margin seen; it
    never claims that no counterexample exists.
    """
    drop, budget, seed = search_options(check, drop, budget, seed, dim, length)
    rng = np.random.default_rng(seed)
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

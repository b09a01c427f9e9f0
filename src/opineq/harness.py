"""Batch verification runner and counterexample search.

The runner derives per-trial seeds from a master seed, a window of
trials at a time, passes each window to
:func:`opineq.generators.run_trials`, which builds and evaluates its
trials at each point :meth:`RunConfig.points` gives for their check's
grid axis, and writes one JSON object per report line, in trial
order, to the writer it is given.  Instances and reports are bit for bit what each trial gives
alone, so neither grouping nor the worker process that evaluates a third of
each window where it can (:func:`_window_cells`) ever shows.
Instances that violate a check's hypotheses surface as ``error`` lines
(null margins), not as failures; a run fails only when a
hypothesis-satisfying instance yields a negative margin beyond
tolerance.  Search scores one candidate at a time through
``evaluate_instance``.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import gc
import itertools
import json
import os
import pickle
import signal
import sys
import threading
import warnings
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
        object.__setattr__(self, "checks", tuple(check_spec(name).name for name in self.checks))
        if not self.checks:
            raise InvalidSpec("at least one check is required")
        for k, name in enumerate(self.checks):
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
    through :func:`trial_seeds` and :func:`_window_cells`.  Each cell, a
    report or an error (a violated hypothesis or a failed build), goes as
    the line :func:`write_cell` builds to ``writer``, any object with a
    ``write`` method, in trial order; without one, nothing is written.
    """
    summary = SuiteSummary()
    run = (cfg.tol, *(v if v is None else int(v) for v in (cfg.dim, cfg.length)),
           str(cfg.weights_mode))  # plain data, as the worker's request must be
    for window in _windows(cfg):
        segments = []
        for check, members in itertools.groupby(zip(window, trial_seeds(cfg.seed, window)),
                                                key=lambda member: member[0][0]):
            segments.append((check, [seed for _, seed in members],
                             cfg.grid_params[check_spec(check).grid]))
        for check, line, outcome, margin in _window_cells(run, segments):
            summary.record(check, outcome, margin)
            _emit(writer, line)
    return summary


def write_cell(writer, check: str, seed: int, inst, params: dict, outcome) -> str:
    """One (trial, grid point) cell as one sorted-key JSON line, written to
    ``writer`` (nothing without one) and returned: a report's own, else a report of
    null numbers, ``{}`` detail and the :func:`~opineq.checks.line_record` of the
    error ``outcome`` at the point's ``params``, for ``inst`` with its ball, or, if
    the build failed, for ``seed``."""
    if not isinstance(outcome, InequalityReport):
        digest = ({**inst.digest(), "ball": inst.ball} if isinstance(inst, CheckInstance)
                  else {"seed": seed})
        outcome = InequalityReport(check, *[None] * 5, {},
                                   line_record(check, digest, params, outcome))
    return _emit(writer, _ENCODER.encode(outcome.to_json_dict()) + "\n")


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


def _emit(writer, line: str) -> str:
    if writer is not None:
        try:
            writer.write(line)
        except OSError as exc:
            raise IOFailure(f"cannot write report line: {exc}") from exc
    return line


def _cells(run: tuple, segments) -> list[list[tuple]]:
    """Per (check, seeds, grid params) segment of the run ``(tol, dim, length,
    weights_mode)``, its cells in trial order as what the writer and
    :meth:`SuiteSummary.record` take: (check, line, outcome, normalized margin)."""
    tol, dim, length, weights_mode = run
    trials = run_trials([(check, seeds, [tuple(p.values()) for p in grid])
                         for check, seeds, grid in segments],
                        tol, dim=dim, length=length, weights_mode=weights_mode)
    return [[(check, write_cell(None, check, seed, inst, params, rep),
              *(("error", None) if isinstance(rep, OpineqError)
                else ("pass" if rep.holds else "fail", rep.margin / rep.scale)))
             for seed, (inst, row) in zip(seeds, segment)
             for params, rep in zip(grid, row)]
            for (check, seeds, grid), segment in zip(segments, trials)]


# ---------------------------------------------------------------------------
# the worker: a process forked from this one evaluates a third of every window

_WORKER = None  # this import's worker, once forked: (pid, request pipe, reply pipe, reap)


def _window_cells(run: tuple, segments) -> list[tuple]:
    """A window's cells in trial order.  Where :func:`_send` reaches the worker, it
    evaluates every third segment from the second (of one segment, the last third of
    the seeds) and this process the rest.  A worker's part that raises, or whose
    worker is gone, is evaluated here, and a window whose own part raises, here
    alone.  The caller keeps the larger part, so a window's time follows the caller's
    CPU unless the worker's runs at well under two thirds of its speed."""
    pieces = segments
    if len(segments) == 1:
        (check, seeds, grid), = segments
        cut = len(seeds) - len(seeds) // 3
        pieces = [(check, seeds[:cut], grid), (check, seeds[cut:], grid)]
    theirs = pieces[1::3]
    if theirs[0][1] and _send((run, theirs)):  # 1 segment: 3+ trials
        try:
            own = _cells(run, [p for k, p in enumerate(pieces) if k % 3 != 1])
        except Exception:
            own = None
        finally:
            reply = _receive()
        if own is not None:
            parts = (iter(own), iter(reply if reply is not None else _cells(run, theirs)))
            return [cell for k in range(len(pieces)) for cell in next(parts[k % 3 == 1])]
    return [cell for part in _cells(run, segments) for cell in part]


def _send(request) -> bool:
    """Whether ``request`` went to the worker, forked first if there is none; not
    off Linux, on one CPU or with a second Python thread alive."""
    global _WORKER
    if not (sys.platform.startswith("linux") and len(os.sched_getaffinity(0)) > 1
            and threading.active_count() == 1):
        return False
    try:
        _WORKER = _WORKER or _fork()
        _WORKER[1].write(pickle.dumps(request))
        _WORKER[1].flush()
        return True
    except (OSError, ValueError):  # the fork failed, the worker is gone, or this process was
        _close()                   # forked from the worker's, so its copy of the pipe is closed
    except BaseException:  # an interrupt may leave half a request in the pipe
        _close()
        raise
    return False


def _receive():
    """The worker's cells; None if they raised, or it is gone (discarded)."""
    try:
        return pickle.load(_WORKER[2])
    except (EOFError, OSError, pickle.UnpicklingError):  # the worker is gone
        _close()
    except BaseException:  # an interrupt would leave the reply unread
        _close()
        raise


def _fork() -> tuple:
    """A new worker.  It ignores SIGINT, touches nothing it inherits (fds 0-2 go to
    /dev/null, the garbage collector frees none of it) and leaves by ``os._exit``,
    so nothing, an unflushed ``--out`` say, is flushed twice.  Each floating-point
    event and warning raises in it, so the caller shows them (:func:`_window_cells`)."""
    fds = (*os.pipe(), *os.pipe())  # the request pipe's read and write ends, then the reply's
    try:
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    if pid == 0:
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            null = os.open(os.devnull, os.O_RDWR)
            for fd in (0, 1, 2):
                os.dup2(null, fd)
            for fd in fds[1:3]:  # the caller's ends: held here, neither pipe would ever end
                os.close(fd)
            gc.freeze()
            np.seterr(all="raise")
            warnings.simplefilter("error")
            _serve(os.fdopen(fds[0], "rb"), os.fdopen(fds[3], "wb"))
        finally:
            os._exit(0)
    os.close(fds[0])
    os.close(fds[3])
    worker = (pid, os.fdopen(fds[1], "wb"), os.fdopen(fds[2], "rb"),
              functools.partial(os.waitpid, pid, 0))
    # Hooks that hold nothing of this module, so a re-import can free it.  At exit:
    # close both pipes, then wait.  A process forked from this one closes its copy of
    # the request pipe, lest the worker wait for it, and waits for no worker.
    for hook in (worker[3], worker[2].close, worker[1].close):
        atexit.register(hook)
    for hook in (worker[1].close, functools.partial(atexit.unregister, worker[3])):
        os.register_at_fork(after_in_child=hook)
    return worker


def _serve(requests, replies) -> None:
    """The worker's loop until its requests end: each request's cells, or None if
    evaluating them raised anything."""
    while True:
        try:
            run, segments = pickle.load(requests)
        except EOFError:
            return
        try:
            cells = _cells(run, segments)
        except Exception:
            cells = None
        replies.write(pickle.dumps(cells))
        replies.flush()


def _close() -> None:
    """Discard this import's worker, if any, as at exit: close its pipes, which
    ends it, then wait for it."""
    global _WORKER
    worker, _WORKER = _WORKER, None
    for hook in (worker[1].close, worker[2].close, worker[3]) if worker else ():
        atexit.unregister(hook)
        with contextlib.suppress(OSError):  # a broken pipe, or a worker not its child
            hook()


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

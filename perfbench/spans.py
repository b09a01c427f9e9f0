"""Tracing opineq from outside the package: spans and exact counters.

The tracer never edits opineq.  It replaces functions at every module
binding that holds them (``from .hmodule import inner`` binds ``inner``
in ``checks``, ``transformer`` and ``generators`` too), wraps the
``numpy.linalg`` entry points, and restores every binding on
``uninstall``.  Spans are kept in flat in-memory arrays (name, parent,
start, end); self time is computed once, at the end, as a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function) pairs that get a span; the metric name is
# "<short module>.<function>".
SPAN_TARGETS = (
    ("opineq.generators", ("build_instance", "assert_hypotheses",
                           "evaluate_instance", "gen_element")),
    ("opineq.checks", ("check_cs", "check_basic", "check_hs", "check_refinement",
                       "check_uin", "check_interp", "check_naopaka", "check_alpha",
                       "check_defect", "check_gruss", "check_radius_submult")),
    ("opineq.transformer", ("fractional_power_apply", "defect_operator", "vectorize",
                            "spectral_radius", "operator_norm_T", "apply")),
    ("opineq.hmodule", ("inner", "left_act", "conjugate", "module_norm", "is_normal")),
    ("opineq.core", ("psd_power", "op_norm", "hermitian_part", "matrix_abs",
                     "herm_eig")),
    ("opineq.norms", ("ky_fan_profile", "norm")),
    ("opineq.harness", ("run_suite", "_emit", "search_counterexample")),
)

# Counters that are exact functions of the inputs and must repeat bit for
# bit at a fixed seed.
EXACT_COUNTERS = ("series_steps", "as_matrix", "elements_built",
                  "search_evals", "search_restarts", "search_steps",
                  "search_accepted", "search_errors", "search_mismatches")

_FPA = "transformer.fractional_power_apply"
_EVAL = "generators.evaluate_instance"
_SEARCH = "harness.search_counterexample"


def label(module: str, fn: str) -> str:
    """Span name of ``module.fn``: "<last module component>.<fn>"."""
    return f"{module.rsplit('.', 1)[-1]}.{fn}"


class Tracer:
    """Collects spans and counters while installed; inert otherwise."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters = dict.fromkeys(EXACT_COUNTERS, 0)
        self._search_current = None           # the replayed climb's margin
        self._search_pending = None           # the last candidate perturbed
        self._search_last_accepted = False    # the replay's verdict on it
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- install
    def install(self) -> None:
        """Wrap every target at every opineq module binding."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "opineq" or name.startswith("opineq."))]
        wrappers = {}
        for module_name, functions in SPAN_TARGETS:
            module = sys.modules[module_name]
            for fn_name in functions:
                original = getattr(module, fn_name)
                name = label(module_name, fn_name)
                if name == _EVAL:
                    wrappers[original] = self._span(self._observe_eval(original), name)
                else:
                    wrappers[original] = self._span(original, name)
        core = sys.modules["opineq.core"]
        transformer = sys.modules["opineq.transformer"]
        wrappers[core.as_matrix] = self._count(core.as_matrix, "as_matrix")
        wrappers[transformer.unvec] = self._count_series(transformer.unvec)
        for module in modules:
            for key, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patch(module, key, wrappers[value])

        linalg = np.linalg
        for fn_name in linalg.__all__:
            fn = getattr(linalg, fn_name)
            if callable(fn) and not isinstance(fn, type):
                self._patch(linalg, fn_name, self._span(fn, f"linalg.{fn_name}"))

        element_cls = sys.modules["opineq.hmodule"].ModuleElement
        self._patch(element_cls, "__post_init__",
                    self._count(element_cls.__post_init__, "elements_built"))
        state_cls = getattr(sys.modules["opineq.harness"], "_SearchState", None)
        if state_cls is None or not callable(getattr(state_cls, "perturb", None)):
            raise RuntimeError("opineq.harness._SearchState.perturb is gone: the search "
                               "counters follow the hill climb and must change with it")
        self._patch(state_cls, "__init__", self._mark_restart(state_cls.__init__))
        self._patch(state_cls, "perturb", self._observe_perturb(state_cls.perturb))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    # ----------------------------------------------------------- wrappers
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str):
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
        return wrapper

    def _count(self, fn, counter: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_series(self, fn):
        """One series step is one ``unvec`` made directly by the series loop."""
        counters, names, stack = self.counters, self.span_name, self._stack
        fpa = self._id(_FPA)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1] >= 0 and names[stack[-1]] == fpa:
                counters["series_steps"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _mark_restart(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(state, *args, **kwargs):
            counters["search_restarts"] += 1
            self._search_current = None
            self._search_pending = None
            return fn(state, *args, **kwargs)
        return wrapper

    def _observe_perturb(self, fn):
        """Count hill-climb steps and confirm the replayed accept rule.

        The climb perturbs the candidate it accepted, or the old state
        again if it rejected it.  So the base of each perturbation shows
        the program's verdict on the previous candidate; a verdict that
        differs from the replay's is counted as a mismatch.  Only the
        last candidate of a climb goes unconfirmed.
        """
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(state, *args, **kwargs):
            counters["search_steps"] += 1
            if self._search_pending is not None:
                taken = state is self._search_pending
                if taken != self._search_last_accepted:
                    counters["search_mismatches"] += 1
            out = fn(state, *args, **kwargs)
            self._search_pending = out
            return out
        return wrapper

    def _observe_eval(self, fn):
        """Replay the hill climb's accept rule on evaluations made by search.

        This is a copy of the rule in ``search_counterexample``: a step is
        accepted when its normalized margin is below the current one, and
        the first evaluation after a restart sets the current one.
        ``_observe_perturb`` checks the copy against what the program does.
        """
        counters, names, parents, stack = (self.counters, self.span_name,
                                           self.span_parent, self._stack)
        search = self._id(_SEARCH)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = parents[stack[-1]]
            if parent < 0 or names[parent] != search:
                return fn(*args, **kwargs)
            counters["search_evals"] += 1
            self._search_last_accepted = False
            try:
                rep = fn(*args, **kwargs)
            except BaseException:
                counters["search_errors"] += 1
                raise
            value = rep.margin / rep.scale
            if self._search_current is None:
                self._search_current = value
            elif value < self._search_current:
                counters["search_accepted"] += 1
                self._search_current = value
                self._search_last_accepted = True
            return rep
        return wrapper

    # ----------------------------------------------------------- results
    def mark(self) -> tuple[int, dict]:
        """A position to diff exact counts against (see ``exact_since``)."""
        return len(self.span_name), dict(self.counters)

    def exact_since(self, mark: tuple[int, dict]) -> dict:
        """Span calls per name and counter deltas since ``mark``."""
        first, counters = mark
        calls = np.bincount(np.frombuffer(self.span_name, dtype=np.int32)[first:],
                            minlength=len(self.names))
        out = {name: int(c) for name, c in zip(self.names, calls) if c}
        out.update({k: self.counters[k] - counters[k] for k in EXACT_COUNTERS})
        return out

    def table(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(names, minlength=n)
        total = np.bincount(names, weights=dur, minlength=n)
        own = np.bincount(names, weights=self_time, minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span once, as arrays, with the name table."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))

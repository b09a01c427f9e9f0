"""opineq benchmark: verify and search throughput, set-up time and memory.

Run from the repository root:

    python3 perfbench/run.py --workload verify_default --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs paired blocks (untraced, then traced, on the same inputs) and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
run's environment and per-block figures go to ``.perfbench/``.  See
``perfbench/METRICS.md`` for what each metric means and which layer moves it.
"""

import os

# BLAS is pinned to one thread before numpy loads: at d <= 6 a second
# thread only adds hand-off cost and noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wls  # noqa: E402
from spans import SPAN_TARGETS, Tracer, label  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SETUPS_PER_ROUND = 3   # at the start, after the first pass and at the end
MIN_BLOCKS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# --------------------------------------------------------------------------
# environment record

def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    git = wls.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
    }


# --------------------------------------------------------------------------
# untraced run: end-to-end metrics

@dataclass
class Tally:
    """What was attempted, what failed, and why."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def add(self, block: wls.Block) -> None:
        self.attempted += block.attempted
        self.failed += block.failed
        self.problems += block.problems

    def gate(self, api, workload: str) -> None:
        """Repeat the reference records and compare."""
        count, problems = wls.check_reference(api, workload)
        self.attempted += count
        for problem in problems:
            self.fail(f"reference: {problem}")

    def result(self, metrics: dict) -> dict:
        return {"correct": self.failed == 0 and not self.problems,
                "attempted": self.attempted, "failed": self.failed, "metrics": metrics}


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """Each block's time is its median over the workload's passes.

    On a shared 2-core VM the CPU speed seen by one process switched
    between phases about 1.5x apart, lasting from 0.1 s to tens of
    seconds.  A verify block timed in three passes about ten seconds
    apart takes the median, so one pass caught in an unusual phase does
    not set its time.  A search block runs for seconds, long enough to
    span the short phases, and is timed once.  Set-ups are spread over
    the run in the same way, so their median sees the same phases.
    In verify runs, phases that outlast a run are taken out by the speed
    probe, which runs before every set-up and block (see speed.py).
    """
    wl = wls.WORKLOADS[workload]
    probe = SpeedProbe() if wl.SPEED_SCALED else None
    setups = []

    def set_up_round():
        for _ in range(SETUPS_PER_ROUND):
            if probe is not None:
                probe()
            api, elapsed = wls.set_up()
            setups.append(elapsed)
        return api

    api = set_up_round()
    tally = Tally()
    tally.gate(api, workload)
    blocks = []
    deadline = time.perf_counter() + seconds / wl.PASSES
    while len(blocks) < MIN_BLOCKS or time.perf_counter() < deadline:
        blocks.append(wls.run_block(api, workload, wls.block_seed(seed, len(blocks)), probe))
    for block in blocks:
        tally.add(block)
    api = set_up_round()
    times = [[b.seconds] for b in blocks]
    for _ in range(wl.PASSES - 1):
        for index, block in enumerate(blocks):
            again = wls.run_block(api, workload, wls.block_seed(seed, index), probe)
            if again.output != block.output:
                tally.fail(f"block {index}: a repeat pass gave different output")
            times[index].append(again.seconds)
    set_up_round()
    rates = [b.units / statistics.median(t) for b, t in zip(blocks, times)]
    scale = probe.scale() if probe is not None else 1.0
    metrics = {
        "reports_per_ref_s": {"value": statistics.median(rates) * scale, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups) / scale, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    detail = {"reports_per_s": statistics.median(rates), "setup_s": statistics.median(setups),
              "speed_scale": scale, "probe_s": probe.samples if probe is not None else [],
              "setups_s": setups,
              "block_units": [b.units for b in blocks], "block_seconds": times}
    return tally, metrics, detail


# --------------------------------------------------------------------------
# traced run: per-layer metrics

def layer_metrics(table: dict, counters: dict) -> dict:
    """Per-layer metrics from the span table and the exact counters."""
    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    out = {}
    for module, functions in SPAN_TARGETS:
        if module == "opineq.harness":
            continue
        for fn in functions:
            name = label(module, fn)
            out[f"{name}.calls"] = (calls(name), "count")
            out[f"{name}.self_s"] = (self_s(name), "s")
    fpa_calls = calls("transformer.fractional_power_apply")
    out["transformer.series_steps"] = (counters["series_steps"], "count")
    out["transformer.series_steps_per_call"] = (
        counters["series_steps"] / fpa_calls if fpa_calls else 0.0, "count")
    out["hmodule.elements_built"] = (counters["elements_built"], "count")
    out["core.as_matrix.calls"] = (counters["as_matrix"], "count")
    linalg = [v for k, v in table.items() if k.startswith("linalg.")]
    reports = calls("generators.evaluate_instance")
    out["linalg.calls_per_report"] = (sum(v["calls"] for v in linalg) / reports, "count")
    out["linalg.self_s"] = (sum(v["self_s"] for v in linalg), "s")
    out["harness.emit.self_s"] = (self_s("harness._emit"), "s")
    evals, steps = counters["search_evals"], counters["search_steps"]
    out["harness.search.evals"] = (evals, "count")
    out["harness.search.accepted_share"] = (
        counters["search_accepted"] / steps if steps else 0.0, "share")
    out["harness.search.error_share"] = (
        counters["search_errors"] / evals if evals else 0.0, "share")
    out["harness.search.self_s"] = (self_s("harness.search_counterexample"), "s")
    return {k: {"value": v, "unit": unit} for k, (v, unit) in out.items()}


def run_traced(workload: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """Untraced and traced runs of the same block alternate.

    The number of pairs is the workload's ``TRACE_PAIRS_PER_S`` times
    ``--seconds`` (one pair per second for verify, one per 30 s for the
    14 s search blocks), at least one.  It is fixed by the arguments
    rather than the clock, so every count repeats exactly at a fixed seed.
    The set-up warm-up is traced too, so a layer the workload never
    reaches still shows its set-up share rather than a constant zero.
    """
    api = wls.load_opineq()
    tally = Tally()
    tally.gate(api, workload)
    tracer = Tracer()

    def traced_block(index: int) -> tuple[wls.Block, dict]:
        tracer.install()
        try:
            mark = tracer.mark()
            block = wls.run_block(api, workload, wls.block_seed(seed, index))
        finally:
            tracer.uninstall()
        return block, tracer.exact_since(mark)

    tracer.install()
    try:
        wls.warm_up(api)
    finally:
        tracer.uninstall()
    pairs = max(1, int(seconds * wls.WORKLOADS[workload].TRACE_PAIRS_PER_S))
    overheads, first_exact = [], None
    for index in range(pairs):
        plain = wls.run_block(api, workload, wls.block_seed(seed, index))
        traced, exact = traced_block(index)
        if index == 0:
            first_exact = exact
        tally.add(plain)
        tally.add(traced)
        if traced.output != plain.output:
            tally.fail(f"block {index}: traced output differs from untraced")
        overheads.append(1.0 - plain.seconds / traced.seconds)

    table, counters = tracer.table(), dict(tracer.counters)
    metrics = layer_metrics(table, counters)
    metrics["trace.overhead_share"] = {"value": statistics.median(overheads),
                                       "unit": "share"}

    tally.attempted += 1
    if counters["search_mismatches"]:
        tally.fail(f"{counters['search_mismatches']} hill-climb steps were accepted or "
                   f"rejected against the replayed rule; update spans.py with the search")

    _, again = traced_block(0)
    tally.attempted += 1
    if again != first_exact:
        diff = {k: (first_exact.get(k), again.get(k))
                for k in set(first_exact) | set(again) if first_exact.get(k) != again.get(k)}
        tally.fail(f"exact counters of block 0 did not repeat: {diff}")

    tracer.save(wls.OUT / f"trace-{workload}.npz")
    detail = {"pairs": pairs, "overheads": overheads, "block0_exact": first_exact,
              "counters": counters, "spans": table}
    return tally, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (wls.SRC / "opineq" / "__init__.py").is_file():
        print(f"error: no opineq sources under {wls.SRC}", file=sys.stderr)
        return 2
    wls.OUT.mkdir(exist_ok=True)
    env = environment()
    run = run_traced if args.trace else run_untraced
    tally, metrics, detail = run(args.workload, args.seed, args.seconds)
    result = tally.result(metrics)
    problems = tally.problems
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "problems": problems,
              "result": result, "detail": detail}
    out = wls.OUT / f"result-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

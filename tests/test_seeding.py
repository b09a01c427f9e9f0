"""Stacked seeding: every stream and trial seed is the one numpy's own
SeedSequence and default_rng give, whatever the window a run draws it in.
Expected values come from numpy's classes, never from the stacked code."""

import io
import zlib

import numpy as np
import pytest

from opineq import generators
from opineq.checks import GRIDS
from opineq.generators import pcg64_states, trial_seed, trial_seeds
from opineq import harness
from opineq.harness import GROUP_TRIALS, RunConfig, run_suite

EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
MASTERS = [0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]          # one and two 32-bit words
INDICES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 200]


def _numpy_state(seed):
    state = np.random.default_rng(seed).bit_generator.state
    assert state["bit_generator"] == "PCG64" and state["has_uint32"] == 0
    return state["state"]["state"], state["state"]["inc"]


def test_stacked_states_are_numpys_default_rng_states():
    rng = np.random.default_rng(20240601)
    seeds = EDGE_SEEDS + [int(s) for s in rng.integers(0, 2 ** 64 - 1, 1000, dtype=np.uint64)]
    seeds += [int(s) for s in rng.integers(0, 2 ** 32, 200)]
    assert pcg64_states(seeds) == [_numpy_state(seed) for seed in seeds]
    assert pcg64_states([]) == []


@pytest.mark.parametrize("master", MASTERS)
def test_trial_seeds_are_numpys_seed_sequence(master):
    """Five entropy words (a two-word master, an index of 2^32 or more) take
    SeedSequence's path past its pool; the stacked pass must follow it."""
    pairs = [(check, index) for check in ("check_cs", "check_gruss", "") for index in INDICES]
    want = [int(np.random.SeedSequence([master, zlib.crc32(check.encode()), index])
                .generate_state(1, np.uint64)[0]) for check, index in pairs]
    assert trial_seeds(master, pairs) == want
    assert [trial_seed(master, check, index) for check, index in pairs] == want
    assert trial_seeds(master, []) == []


def test_a_window_draws_what_default_rng_draws():
    seeds = EDGE_SEEDS + [12345, 2 ** 63]
    for seed, rng in zip(seeds, generators._streams(seeds)):
        fresh = np.random.default_rng(seed)
        assert rng.integers(0, 2 ** 64 - 1, dtype=np.uint64) == fresh.integers(
            0, 2 ** 64 - 1, dtype=np.uint64)
        assert np.array_equal(rng.standard_normal(5), fresh.standard_normal(5))
        assert rng.integers(1, 7) == fresh.integers(1, 7)


def test_a_run_calls_no_per_trial_numpy_seeding(monkeypatch, serial):
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("default_rng", "SeedSequence"):
        monkeypatch.setattr(np.random, name, counted(name, getattr(np.random, name)))
    summary = run_suite(RunConfig(trials=3, checks=("check_cs", "check_gruss"), seed=1))
    assert summary.lines == 6 and calls == []


@pytest.mark.parametrize("trials", [3, 20, GROUP_TRIALS + 3])
def test_windows_write_each_checks_own_run_in_order(trials):
    """Windows hold several checks' trials (3, 20) or part of one check's
    (GROUP_TRIALS + 3); the run's lines are each check's single-check run,
    concatenated."""
    def lines(names):
        out = io.StringIO()
        run_suite(RunConfig(trials=trials, checks=names, seed=2 ** 32 + 5), out)
        return out.getvalue().splitlines()

    checks = ("check_gruss", "check_cs", "check_alpha", "check_uin")
    alone = {check: lines((check,)) for check in checks}
    for names in (checks[:3], checks):
        together = lines(names)
        assert len(together) == trials * (len(names) - 1 + len(GRIDS["alpha"].points))
        assert together == [line for check in names for line in alone[check]]



@pytest.mark.parametrize("trials, sizes", [
    (2, [22]), (20, [60, 60, 60, 40]), (GROUP_TRIALS + 3, [64, 3] * 11),
    (40, [40] * 11)])
def test_a_window_splits_a_checks_trials_only_where_a_chunk_ends(trials, sizes):
    """So each check is built and evaluated in chunks of GROUP_TRIALS, as
    alone: a window never takes part of a chunk."""
    windows = list(harness._windows(RunConfig(trials=trials, checks=generators.CHECK_NAMES)))
    assert [len(window) for window in windows] == sizes
    assert [pair for window in windows for pair in window] == [
        (check, index) for check in generators.CHECK_NAMES for index in range(trials)]

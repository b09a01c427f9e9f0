"""Elements compute their derived quantities once; verdicts stay per call."""

import numpy as np
import pytest

from opineq import transformer
from opineq.checks import GRIDS
from opineq.hmodule import conjugate, element, inner, is_normal, module_norm
from opineq.harness import RunConfig, run_suite

RNG = np.random.default_rng(20260)


def _cg(d):
    return (RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))) / np.sqrt(2)


def _parts(d=3, n=2):
    return [_cg(d) for _ in range(n)]


def _contractive(d=3, n=2):
    z = element(_parts(d, n))
    return (0.9 / module_norm(z)) * z


def test_defect_trial_vectorizes_each_element_once(monkeypatch):
    calls = []
    original = transformer.vectorized

    def counted(w, *args):
        calls.append(len(w))
        return original(w, *args)

    monkeypatch.setattr(transformer, "vectorized", counted)
    summary = run_suite(RunConfig(trials=1, checks=("check_defect",), seed=3))
    assert summary.counts["check_defect"]["pass"] == len(GRIDS["pqr"].points) == 4
    # x, y and their conjugates, in one stack: one defect operator each,
    # 16 if recomputed per grid point
    assert calls == [4]


@pytest.mark.parametrize("loose_first", [False, True])
def test_normality_verdict_follows_each_callers_tolerance(loose_first):
    z = element(_parts())
    tight, loose = 0.0, 1e3
    order = (loose, tight) if loose_first else (tight, loose)
    verdicts = {cfg: is_normal(z, cfg) for cfg in order}
    assert verdicts[tight][0] is False
    assert verdicts[loose][0] is True
    assert verdicts[tight][1] == verdicts[loose][1] > 0


def test_cached_arrays_are_read_only():
    z = _contractive()
    with pytest.raises(ValueError):
        inner(z, z)[0, 0] = 1
    with pytest.raises(ValueError):
        conjugate(z).parts[0][0, 0] = 1


def test_cached_quantities_match_a_fresh_computation():
    parts = _parts(d=4, n=3)
    x = element(parts, weights=(0.5, 1.0, 2.0))
    assert np.array_equal(inner(x, x), inner(x, element(parts, weights=(0.5, 1.0, 2.0))))
    assert conjugate(x) is conjugate(x)
    assert all(np.array_equal(p, q) for p, q in zip(conjugate(conjugate(x)).parts, x.parts))
    assert module_norm(x) == np.sqrt(np.linalg.svd(inner(x, x), compute_uv=False)[0])

"""Fixtures shared by the test modules."""

import dataclasses
import io

import pytest

from opineq import harness, reference, transformer
from opineq.checks import CHECK_SPECS
from opineq.errors import OpineqError
from opineq.generators import build_instance, evaluate_instance, trial_seed
from opineq.hmodule import module_norm


@pytest.fixture(autouse=True)
def fresh_worker():
    """No test meets a run's worker process forked before its patches: the
    worker is discarded before and after each test."""
    harness._close()
    yield
    harness._close()


@pytest.fixture
def serial(monkeypatch):
    """Runs stay in one process (through the harness's one seam, ``_send``), so a
    test that counts calls across a run counts all of them."""
    monkeypatch.setattr(harness, "_send", lambda request: False)


@pytest.fixture
def kron_series():
    """The reference binomial series of T_{x,y} fed the engine's Kronecker step
    a -> unvec(rep @ vec(a)), at gamma = ||x|| ||y||: at integer alpha up to
    FINITE_MAX, the sum transformer.finite_sum must give, bit for bit."""
    def series(x, y, a, alpha):
        rep = transformer.vectorize(transformer.ElementaryOperator(x, y)).rep
        return reference.binomial_series(lambda m: transformer.unvec(rep @ transformer.vec(m),
                                                                     x.ctx.dim),
                                         a, alpha, module_norm(x) * module_norm(y))
    return series


@pytest.fixture
def cells_alone():
    """The oracle of a run's lines: each (trial, grid point) cell of RunConfig
    ``cfg``, its trial k built alone by build_instance (or, in a run of one check,
    given as ``insts[k]``), evaluated alone by evaluate_instance at the run's
    tolerance and written by harness.write_cell."""
    def cells(cfg, insts=None) -> list[str]:
        out, insts = io.StringIO(), insts or {}
        for check in cfg.checks:
            for index in range(cfg.trials):
                inst = insts[index] if index in insts else build_instance(
                    check, trial_seed(cfg.seed, check, index), dim=cfg.dim,
                    length=cfg.length, weights_mode=cfg.weights_mode)
                for params in cfg.grid_params[CHECK_SPECS[check].grid]:
                    try:
                        outcome = evaluate_instance(dataclasses.replace(
                            inst, params={**inst.params, **params}), cfg.tol)
                    except OpineqError as exc:
                        outcome = exc
                    harness.write_cell(out, check, inst.seed, inst, params, outcome)
        return out.getvalue().splitlines()
    return cells

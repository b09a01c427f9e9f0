"""Fixtures shared by the test modules."""

import pytest

from opineq import harness, reference, transformer
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

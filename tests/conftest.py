"""Fixtures shared by the test modules."""

import pytest

from opineq import reference, transformer
from opineq.hmodule import module_norm


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

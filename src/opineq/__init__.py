"""Numerical laboratory for operator-norm inequalities of elementary
operators acting on matrix algebras.

The package models weighted matrix tuples as elements of a Hilbert
module over M_d(C), realizes the induced transformer a -> <x, ay> both
directly and through its d^2 x d^2 vectorization, and verifies a family
of Cauchy-Schwarz-type norm inequalities by seeded randomized testing
with replayable instances.
"""

from .core import DEFAULT_TOL
from .errors import OpineqError
from .hmodule import (
    ModuleContext, ModuleElement, conjugate, element, inner, is_normal, left_act, module_norm,
    right_mul, uniform_context,
)
from .norms import NormKind, ky_fan, ky_fan_dual, norm, schatten, singular_values
from .transformer import (
    ElementaryOperator, apply, defect_operator, fractional_power_exact, spectral_radius, vectorize,
)
from .checks import CHECK_ANCHORS, InequalityReport
from .generators import CheckInstance, build_instance
from .harness import RunConfig, run_suite, search_counterexample

__version__ = "0.1.0"

__all__ = [
    "CHECK_ANCHORS",
    "CheckInstance",
    "DEFAULT_TOL",
    "ElementaryOperator",
    "InequalityReport",
    "ModuleContext",
    "ModuleElement",
    "NormKind",
    "OpineqError",
    "RunConfig",
    "apply",
    "build_instance",
    "conjugate",
    "defect_operator",
    "element",
    "fractional_power_exact",
    "inner",
    "is_normal",
    "ky_fan",
    "ky_fan_dual",
    "left_act",
    "module_norm",
    "norm",
    "right_mul",
    "run_suite",
    "schatten",
    "search_counterexample",
    "singular_values",
    "spectral_radius",
    "uniform_context",
    "vectorize",
]

"""Every input rule refuses junk with its own error: a call given None, a
bool, nan or an infinity, a string, a list, a dict or a numpy array where it
expects a name, a number or a sequence returns or raises an OpineqError,
never a raw TypeError, KeyError or ValueError."""

import numpy as np
from hypothesis import given, settings, strategies as st

from opineq.checks import GRIDS, ball_bounds, check_spec, validate_drop
from opineq.core import as_integer, as_seed, as_tolerance
from opineq.errors import OpineqError
from opineq.generators import gen_element
from opineq.harness import RunConfig
from opineq.hmodule import ModuleContext, element
from opineq.norms import NormKind

# junk, with some values each rule accepts, so that calls also return
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["check_cs", "normality", "schatten", "uniform", "alpha", 0.5, 2, 3.0])
    | st.sampled_from([np.array(1.0), np.array("ab"), np.zeros(3), np.zeros((4, 2))]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)

RUN = {"trials": 1, "checks": ("check_cs",)}
ELEMENT = {"seed": 1, "dim": 2, "length": 2, "kind": "generic"}

ROUTES = {
    "check_spec": check_spec,
    "validate_drop": validate_drop,
    "validate_drop_name": lambda v: validate_drop((v,)),
    "NormKind_tag": NormKind,
    "NormKind_p": lambda v: NormKind("schatten", p=v),
    "NormKind_k": lambda v: NormKind("ky_fan", k=v),
    "ModuleContext_dim": lambda v: ModuleContext(v, (1.0,)),
    "ModuleContext_weights": lambda v: ModuleContext(2, v),
    "element_weights": lambda v: element([np.eye(2)], weights=v),
    "ball_bounds": ball_bounds,
    **{f"GRIDS_{axis}": GRIDS[axis].params for axis in GRIDS},
    "as_seed": lambda v: as_seed("seed", v),
    "as_integer": lambda v: as_integer("n", v),
    "as_tolerance": as_tolerance,
    **{f"RunConfig_{field}": (lambda field: lambda v: RunConfig(**{**RUN, field: v}))(field)
       for field in ("trials", "checks", "tol", "grids", "seed", "dim", "length", "weights_mode")},
    **{f"RunConfig_grids_{axis}": (lambda axis: lambda v: RunConfig(**RUN, grids={axis: v}))(axis)
       for axis in ("alpha", "pqr")},
    **{f"gen_element_{field}": (lambda field: lambda v: gen_element(**{**ELEMENT, field: v}))(field)
       for field in ("seed", "dim", "length", "kind", "contraction", "weights_mode")},
}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(value=JUNK)
def test_every_input_rule_returns_or_raises_an_opineq_error(value):
    for route in ROUTES.values():
        try:
            route(value)
        except OpineqError:
            pass


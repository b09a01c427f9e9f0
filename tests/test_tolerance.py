"""The relative tolerance is one number, checked by one rule on every route
it enters by: :func:`opineq.core.as_tolerance`."""

import functools

import numpy as np
import pytest

from opineq import checks, generators
from opineq.checks import CHECK_NAMES, CHECK_SPECS
from opineq.errors import InvalidSpec, OpineqError
from opineq.generators import (
    build_instance, evaluate_each, evaluate_instance, run_trials,
)
from opineq.harness import RunConfig
from opineq.hmodule import is_normal

ACCEPTED = [0, 1e-6, np.float64(1e-3), np.int64(1)]
REFUSED = [None, "1e-8", True, -1, np.nan, np.inf]


@functools.cache
def _instance(check: str):
    return build_instance(check, 5, dim=2, length=2)


def _points(inst) -> tuple:
    return (generators._point(CHECK_SPECS[inst.check], inst.params),)


def _check_route(name: str):
    def route(tol):
        inst = _instance(name)
        operands = [getattr(inst, op) for op in CHECK_SPECS[name].operands]
        return getattr(checks, name)(inst.x, inst.y, *operands, *_points(inst)[0], tol=tol)
    return route


def _batch_route(kernel):
    def route(tol):
        inst = _instance("check_gruss")
        return kernel(generators._batch([inst], _points(inst)), tol)
    return route


ROUTES = {
    **{name: _check_route(name) for name in CHECK_NAMES},
    "evaluate_instance": lambda tol: evaluate_instance(_instance("check_gruss"), tol),
    "run_batch": _batch_route(checks.run_batch),
    "require_preconditions": _batch_route(checks.require_preconditions),
    "is_normal": lambda tol: is_normal(_instance("check_uin").x, tol),
    "RunConfig": lambda tol: RunConfig(trials=1, checks=("check_cs",), tol=tol).tol,
}


def _message(tol) -> str:
    return f"tol_rel must be a finite nonnegative number, got {tol!r}"


def _key(out):
    """``out`` with each error, alone or in a list, as its type and message."""
    if isinstance(out, list):
        return [_key(o) for o in out]
    return (type(out), str(out)) if isinstance(out, OpineqError) else out


def _outcome(route, tol):
    """:func:`_key` of what the route gives at ``tol``, or of the OpineqError it raises."""
    try:
        return _key(route(tol))
    except OpineqError as exc:
        return _key(exc)


@pytest.mark.parametrize("route", ROUTES)
def test_every_route_takes_the_tolerance_by_one_rule(route):
    for tol in ACCEPTED:
        # a hypothesis may fail at tol 0; the tolerance itself is never refused
        out = _outcome(ROUTES[route], tol)
        assert (InvalidSpec, _message(tol)) not in (out if isinstance(out, list) else [out])
        assert out == _outcome(ROUTES[route], float(tol))
    for tol in REFUSED:
        with pytest.raises(InvalidSpec) as info:
            ROUTES[route](tol)
        assert str(info.value) == _message(tol)


@pytest.mark.parametrize("tol", REFUSED, ids=repr)
def test_a_refused_tolerance_is_every_instances_error(tol):
    insts = [_instance("check_alpha"), build_instance("check_alpha", 6, dim=2, length=2)]
    points = ((0.5,), (2.0,))
    rows = evaluate_each(insts, tol, points)
    [trials] = run_trials([("check_alpha", [5, 6], points)], tol, dim=2, length=2)
    assert [inst.seed for inst, _ in trials] == [5, 6]
    for row in rows + [row for _, row in trials]:
        assert len(row) == len(points)
        assert all(isinstance(e, InvalidSpec) and str(e) == _message(tol) for e in row)

"""Metamorphic relations: changes of an instance that leave both sides of
every inequality as they are, so any correct implementation keeps its
normalized margin.  They catch a wrong side, transpose, conjugate or weight
without recomputing a margin independently.  Each relation runs on built
instances at every default grid point of the check's axis:

- conjugate x_t, y_t, a and e by one Haar unitary U: every side moves to
  U (side) U*, which keeps every unitarily invariant norm and the PSD order;
- permute the parts together with their weights: every side is a weighted
  sum over the parts;
- split each part of an n = 2 instance into two copies at half weight: every
  weighted sum, and so every side, is the same.

check_radius_submult is held on its ``radius_sq`` branch only: its
``opnorm_gap`` branch bounds ||T|| from below by fixed probes, which do not
rotate with U (a spread of 0.10 under conjugation).
"""

import dataclasses

import numpy as np
import pytest

from opineq.checks import CHECK_NAMES, CHECK_SPECS, EPSILON_REG, GRIDS
from opineq.core import DEFAULT_TOL, ct
from opineq.generators import build_group, evaluate_each
from opineq.hmodule import ModuleContext, ModuleElement
from opineq.reference import haar_unitary

EPS = np.finfo(float).eps
# Largest change measured on these instances for the nine other checks:
# 1.4e-14 (check_alpha under U).
BOUND = 1e-12
# check_interp takes (K + EPSILON_REG)^s with s = 1/(2q) >= 1/12 on the default
# grid.  An eigenvalue error of eps near 0 moves that power by up to
# s EPSILON_REG^(s - 1) eps, 2.7e-8 at s = 1/12.  Measured: 1.5e-9 under U.
# check_gruss takes Phi(y, y)^(1/2), whose first-order error
# eps / (2 sqrt(lambda_min)) grows as a ball point nears the ball's centre:
# 9.7e-13 on the worst instance here (lambda_min = 1.3e-8), which the split
# moves by 7.9e-13.  The bound leaves ten times that.
BOUNDS = {"check_interp": EPSILON_REG ** (1 / 12 - 1) * EPS / 12, "check_gruss": 1e-11}


def _rebuilt(inst, ctx, parts_of):
    """inst with x, y and e (if any) in ctx, their parts mapped by parts_of."""
    def move(z):
        return None if z is None else ModuleElement(ctx, tuple(parts_of(z.parts)))
    return dataclasses.replace(inst, x=move(inst.x), y=move(inst.y), e=move(inst.e))


def _conjugated(inst, k):
    u = haar_unitary(k, inst.x.ctx.dim)
    out = _rebuilt(inst, inst.x.ctx, lambda parts: [u @ p @ ct(u) for p in parts])
    return dataclasses.replace(out, a=None if inst.a is None else u @ inst.a @ ct(u))


def _permuted(inst, k):
    order = np.roll(np.arange(inst.x.ctx.length), 1 + k % (inst.x.ctx.length - 1))
    ctx = ModuleContext(inst.x.ctx.dim, tuple(inst.x.ctx.weights[i] for i in order))
    return _rebuilt(inst, ctx, lambda parts: [parts[i] for i in order])


def _split(inst, k):
    ctx = ModuleContext(inst.x.ctx.dim, tuple(w / 2 for w in inst.x.ctx.weights for _ in "ab"))
    return _rebuilt(inst, ctx, lambda parts: [p for p in parts for _ in "ab"])


# relation, instances, forced draw options (permuting needs n >= 2, the split n = 2)
RELATIONS = {"conjugate": (_conjugated, 40, {}), "permute": (_permuted, 40, {"length": 3}),
             "split": (_split, 30, {"length": 2})}


def _margins(check, insts, points) -> np.ndarray:
    """Normalized margins, per instance and point."""
    out = []
    for row in evaluate_each(insts, DEFAULT_TOL, points):
        for rep in row:
            assert not isinstance(rep, Exception), rep
            out.append(rep.norm_detail["radius_sq"] if check == "check_radius_submult"
                       else rep.margin / rep.scale)
    return np.array(out)


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("check", CHECK_NAMES)
def test_relation_keeps_the_normalized_margin(check, relation):
    move, count, draw = RELATIONS[relation]
    points = GRIDS[CHECK_SPECS[check].grid].points
    insts = build_group(check, range(1000, 1000 + count), **draw)
    before = _margins(check, insts, points)
    after = _margins(check, [move(inst, k) for k, inst in enumerate(insts)], points)
    assert len(before) == count * len(points)
    assert np.max(np.abs(after - before)) <= BOUNDS.get(check, BOUND)

"""Acceptance gate: the full randomized verification program at desk scale.

One test per criterion, at the stated instance counts and tolerances;
dimensions stay <= 6 and tuple lengths <= 4 throughout.  Every test
prints a single PASS/FAIL summary line for its criterion.
"""

import itertools
import json
from functools import reduce

import numpy as np

from opineq import reference
from opineq.checks import GRIDS, check_basic, check_cs, check_naopaka
from opineq.core import DEFAULT_TOL, hermitian_part, op_norm, psd_power
from opineq.errors import OpineqError
from opineq.generators import (
    build_group,
    evaluate_instance,
    gen_element,
    instance_from_json,
    run_trials,
    trial_seed,
    trial_seeds,
)
from opineq.harness import (
    GROUP_TRIALS,
    search_counterexample,
)
from opineq.hmodule import (
    ModuleElement,
    element,
    inner,
    module_norm,
    right_mul,
)
from opineq.norms import (
    HILBERT_SCHMIDT,
    OPERATOR,
    TRACE,
    ky_fan,
    ky_fan_dual,
    norm,
    schatten,
)
from opineq.transformer import (
    ElementaryOperator,
    apply,
    defect_operator,
    operator_norm_T,
    unvec,
    vec,
    vectorize,
)

MASTER = 20260800
MARGIN_TOL = 1e-8   # normalized margin floor for "holds"
EQ_TOL = 1e-10      # equality witnesses

_NON_MARGIN_KEYS = {"sensitivity", "min_inner_eig"}


def _margins(rep):
    vals = [v for k, v in rep.norm_detail.items() if k not in _NON_MARGIN_KEYS]
    vals.append(rep.margin / rep.scale)
    return vals


def _verdict(num, desc, ok, extra=""):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}{extra}")
    return ok


def _trials(check, tag, count, points=((),)):
    """(instance, its reports at each of ``points``) for the criterion's trials
    trial_seed(MASTER, tag, i), i < count: GROUP_TRIALS at a time through
    run_trials, the path a run takes; any build or evaluation error re-raised."""
    out = []
    for start in range(0, count, GROUP_TRIALS):
        seeds = trial_seeds(MASTER, [(tag, i)
                                     for i in range(start, min(start + GROUP_TRIALS, count))])
        for inst, reps in run_trials([(check, seeds, points)], DEFAULT_TOL)[0]:
            for rep in (inst, *reps):
                if isinstance(rep, OpineqError):
                    raise rep
            out.append((inst, reps))
    return out


def _worst(check, tag, count, points=((),)):
    """The smallest margin of every report of :func:`_trials`."""
    return min(min(_margins(rep)) for _, reps in _trials(check, tag, count, points)
               for rep in reps)


def _cg(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)


def _haar(rng, d):
    q, r = np.linalg.qr(_cg(rng, d))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_criterion_01_cauchy_schwarz():
    worst = _worst("check_cs", "acc1", 1000)
    x = element([reference.haar_unitary(1, 4)])
    eq = max(abs(v) for v in _margins(check_cs(x, x)))
    ok = worst >= -MARGIN_TOL and eq <= EQ_TOL
    assert _verdict(1, "operator Cauchy-Schwarz, both PSD forms, n=1000",
                    ok, f"; worst={worst:+.3e} eq={eq:.1e}")


def test_criterion_02_operator_and_trace_bounds():
    worst = min(_worst(name, "acc2", 1000) for name in ("check_basic", "check_hs"))
    rng = np.random.default_rng(2)
    x = element([np.eye(3)])
    eq = max(abs(v) for v in _margins(check_basic(x, x, _cg(rng, 3))))
    ok = worst >= -MARGIN_TOL and eq <= EQ_TOL
    assert _verdict(2, "norm/trace and Hilbert-Schmidt bounds, generic weighted "
                       "tuples, n=2x1000", ok, f"; worst={worst:+.3e} eq={eq:.1e}")


def test_criterion_03_refinement():
    worst = _worst("check_refinement", "acc3", 1000)
    ok = worst >= -MARGIN_TOL
    assert _verdict(3, "PSD refinement bound, n=1000", ok, f"; worst={worst:+.3e}")


def test_criterion_04_unitarily_invariant_family():
    worst = np.inf
    consistency = 0.0
    for i, (inst, (rep,)) in enumerate(_trials("check_uin", "acc4", 1000)):
        worst = min(worst, min(_margins(rep)))
        if i < 200:
            # the top Ky Fan margin is the trace comparison of the
            # two-norm bound on the same instance
            basic = check_basic(inst.x, inst.y, inst.a)
            d = inst.x.ctx.dim
            consistency = max(consistency,
                              abs(rep.norm_detail[f"ky_fan_{d}"]
                                  - basic.norm_detail["tr"]))
    ok = worst >= -MARGIN_TOL and consistency <= 1e-8
    assert _verdict(4, "Ky Fan family bound on normal tuples, n=1000",
                    ok, f"; worst={worst:+.3e} trace-agreement={consistency:.1e}")


def test_criterion_05_schatten_interpolation():
    worst = np.inf
    checked = 0
    sens_ok = True
    for _, reps in _trials("check_interp", "acc5", 500, GRIDS["pqr"].points):
        for rep in reps:
            worst = min(worst, min(_margins(rep)))
            if rep.norm_detail["min_inner_eig"] >= 1e-4:
                checked += 1
                sens_ok = sens_ok and rep.norm_detail["sensitivity"] < 1e-6
    ok = worst >= -MARGIN_TOL and sens_ok and checked >= 200
    assert _verdict(5, "Schatten interpolation over the exponent grid, n=500x4",
                    ok, f"; worst={worst:+.3e} regularization-stable on "
                        f"{checked} well-conditioned evals")


def test_criterion_06_difference_bound():
    worst = _worst("check_naopaka", "acc6", 1000)
    rng = np.random.default_rng(6)
    x = element([0.9 * np.eye(3)])
    eq = max(abs(v) for v in _margins(check_naopaka(x, x, _cg(rng, 3))))
    # diagnostic margin profile as the contraction approaches the boundary:
    # the worst normalized margin of 8 trials per level, for inspection only
    sweep = []
    for delta in (0.9, 0.99, 0.999):
        seeds = [trial_seed(MASTER, f"delta_{delta}", index) for index in range(8)]
        reps = [evaluate_instance(inst)
                for inst in build_group("check_naopaka", seeds, contraction=delta)]
        sweep.append((delta, min(rep.margin / rep.scale for rep in reps)))
    table = ", ".join(f"{delta}:{worst:+.2e}" for delta, worst in sweep)
    ok = worst >= -MARGIN_TOL and eq <= EQ_TOL
    assert _verdict(6, "difference bound on normal contractions, n=1000",
                    ok, f"; worst={worst:+.3e} eq={eq:.1e}; sweep {table}")


def test_criterion_07_fractional_powers():
    worst = np.inf
    agreement = 0.0
    for inst, reps in _trials("check_alpha", "acc7", 300, ((0.5,), (1.0,), (2.0,))):
        for alpha, rep in zip((0.5, 1.0, 2.0), reps):
            worst = min(worst, min(_margins(rep)))
            if alpha == 1.0:
                base = check_naopaka(inst.x, inst.y, inst.a)
                agreement = max(agreement,
                                abs(rep.margin / rep.scale - base.margin / base.scale))
    ok = worst >= -MARGIN_TOL and agreement <= 1e-8
    assert _verdict(7, "fractional-power bound, alpha in {0.5, 1, 2}, n=300x3",
                    ok, f"; worst={worst:+.3e} alpha=1 agreement={agreement:.1e}")


def test_criterion_08_defect_operators():
    worst = _worst("check_defect", "acc8", 300, GRIDS["pqr"].points)
    closed = 0.0
    for i in range(100):
        z = gen_element(trial_seed(MASTER, "acc8n", i), 3, 2, "normal_commuting")
        z = (0.9 / module_norm(z)) * z
        w, zs = z.ctx.weights, z.parts
        # the closed form (I - <z,z>)^(1/2) for normal z, against the engine
        # and against the reference's partial sums of the defining series
        want = reference.psd_power(np.eye(3) - reference.inner(w, zs, zs), 0.5)
        closed = max(closed, op_norm(defect_operator(z) - want),
                     op_norm(reference.defect_operator(w, zs, 300) - want))
    ok = worst >= -MARGIN_TOL and closed <= 1e-8
    assert _verdict(8, "defect-operator bound over the exponent grid, n=300x4",
                    ok, f"; worst={worst:+.3e} closed-form gap={closed:.1e}")


def test_criterion_09_covariance_bounds():
    worst = _worst("check_gruss", "acc9", 500)
    # the covariance form is PSD on arbitrary tuples against any unit
    # reference, without the commuting-family hypotheses
    rng = np.random.default_rng(MASTER + 9)
    psd_floor = 0.0
    for _ in range(1000):
        d, n = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        raw = element([_cg(rng, d) for _ in range(n)],
                      weights=tuple(rng.uniform(0.1, 2.0, n)))
        g = hermitian_part(inner(raw, raw))
        e = right_mul(raw, psd_power(g, -0.5))
        x = ModuleElement(e.ctx, tuple(_cg(rng, d) for _ in range(n)))
        phi = hermitian_part(reference.covariance(e.ctx.weights, x.parts, x.parts, e.parts))
        psd_floor = min(psd_floor, float(np.linalg.eigvalsh(phi)[0]))
    ok = worst >= -MARGIN_TOL and psd_floor >= -1e-10
    assert _verdict(9, "covariance bounds with constructed balls, n=500; "
                       "semi-inner-product positivity, n=1000",
                    ok, f"; worst={worst:+.3e} psd-floor={psd_floor:+.1e}")


def test_criterion_10_oracle_equivalences():
    rng = np.random.default_rng(MASTER + 10)

    def rand_pair(contraction=None):
        d, n = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        x = element([_cg(rng, d) for _ in range(n)])
        y = ModuleElement(x.ctx, tuple(_cg(rng, d) for _ in range(n)))
        if contraction is not None:
            x = (np.sqrt(contraction) / module_norm(x)) * x
            y = (np.sqrt(contraction) / module_norm(y)) * y
        return ElementaryOperator(x, y), d

    neumann_gap = 0.0
    for _ in range(200):
        t, d = rand_pair(contraction=rng.uniform(0.3, 0.85))
        a = _cg(rng, d)
        operands = (t.x.ctx.weights, t.x.parts, t.y.parts)
        b, _ = reference.neumann_series(reference.transformer(*operands), a,
                                        reference.gamma(*operands))
        rep = vectorize(t).rep
        direct = unvec(np.linalg.solve(np.eye(d * d) - rep, vec(a)), d)
        neumann_gap = max(neumann_gap,
                          op_norm(b - direct) / max(1.0, op_norm(direct)))

    def grade_inner(x, y, a, k):
        d = x.ctx.dim
        eye = np.eye(d, dtype=complex)
        acc = np.zeros((d, d), dtype=complex)
        for idx in itertools.product(range(x.ctx.length), repeat=k):
            coeff = np.prod([x.ctx.weights[t] for t in idx]) if idx else 1.0
            left = reduce(np.matmul, [x.parts[t].conj().T for t in reversed(idx)], eye)
            right = reduce(np.matmul, [y.parts[t] for t in idx], eye)
            acc += coeff * (left @ a @ right)
        return acc

    grade_gap = 0.0
    for _ in range(200):
        d, n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        x = element([_cg(rng, d) for _ in range(n)],
                    weights=tuple(rng.uniform(0.1, 2.0, n)))
        y = ModuleElement(x.ctx, tuple(_cg(rng, d) for _ in range(n)))
        t = ElementaryOperator(x, y)
        a = _cg(rng, d)
        for k in range(4):
            got = reference.grade_power(lambda m: apply(t, m), a, k)
            want = grade_inner(x, y, a, k)
            grade_gap = max(grade_gap,
                            op_norm(got - want) / max(1.0, op_norm(want)))

    radius_worst = _worst("check_radius_submult", "acc10", 500)

    probe_gap = 0.0
    for _ in range(100):
        d, n = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        z = element([_cg(rng, d) for _ in range(n)])
        bounds = operator_norm_T(ElementaryOperator(z, z))
        probe_gap = min(probe_gap, bounds.lower - module_norm(z) ** 2)

    ok = (neumann_gap <= 1e-6 and grade_gap <= 1e-10
          and radius_worst >= -MARGIN_TOL and probe_gap >= -1e-8)
    assert _verdict(10, "series/solve, grade recursion, radius, and probe oracles",
                    ok, f"; series={neumann_gap:.1e} grades={grade_gap:.1e} "
                        f"radius-worst={radius_worst:+.3e} probe={probe_gap:+.1e}")


def test_criterion_11_norm_engine():
    rng = np.random.default_rng(MASTER + 11)
    ok = True

    for _ in range(1000):  # unitary invariance, all families
        d = int(rng.integers(2, 7))
        m = _cg(rng, d)
        u, v = _haar(rng, d), _haar(rng, d)
        rotated = u @ m @ v
        kinds = [OPERATOR, TRACE, HILBERT_SCHMIDT, schatten(1.5), schatten(3),
                 ky_fan(1), ky_fan(d), ky_fan_dual(min(2, d))]
        for kind in kinds:
            a, b = norm(m, kind), norm(rotated, kind)
            ok = ok and abs(a - b) <= 1e-8 * max(1.0, a)

    for _ in range(1000):  # Schatten monotonicity in p
        d = int(rng.integers(2, 7))
        m = _cg(rng, d)
        p, q = sorted(rng.uniform(1.0, 6.0, 2))
        ok = ok and norm(m, schatten(q)) <= norm(m, schatten(p)) + 1e-8

    for _ in range(1000):  # duality pairings
        d = int(rng.integers(2, 7))
        m = _cg(rng, d)
        ok = ok and abs(reference.dual_pairing(m, "trace") - norm(m, TRACE)) \
            <= 1e-8 * max(1.0, norm(m, TRACE))
        ok = ok and abs(reference.dual_pairing(m, "operator") - norm(m, OPERATOR)) \
            <= 1e-8 * max(1.0, norm(m, OPERATOR))
        b = _cg(rng, d)
        k = int(rng.integers(1, d + 1))
        pairing = abs(np.trace(m @ b))
        bound = norm(m, ky_fan(k)) * norm(b, ky_fan_dual(k))
        ok = ok and pairing <= bound * (1 + 1e-8) + 1e-8

    for _ in range(1000):  # dominance transfers to every Schatten norm
        d = int(rng.integers(2, 7))
        m, e = _cg(rng, d), _cg(rng, d)
        a = m @ m.conj().T
        b = a + e @ e.conj().T
        holds, _, _ = reference.fan_dominance_leq(a, b)
        ok = ok and holds
        for p in (1.0, 1.5, 2.0, 3.0):
            ok = ok and norm(a, schatten(p)) <= norm(b, schatten(p)) \
                + 1e-8 * max(1.0, norm(b, schatten(p)))
        ok = ok and norm(a, OPERATOR) <= norm(b, OPERATOR) + 1e-8

    assert _verdict(11, "norm engine: invariance, monotonicity, duality, "
                        "dominance, n=4x1000", ok)


def test_criterion_12_hypothesis_drop_searches():
    unconditional_worst = np.inf
    for name in ("check_cs", "check_basic"):
        result = search_counterexample(name, drop=("normality",), budget=5000,
                                       seed=MASTER)
        unconditional_worst = min(unconditional_worst,
                                  result.report.margin / result.report.scale)

    logged = []
    replay_gap = 0.0
    for name in ("check_uin", "check_naopaka"):
        result = search_counterexample(name, drop=("normality",), budget=5000,
                                       seed=MASTER)
        value = result.report.margin / result.report.scale
        logged.append(f"{name}:{value:+.3e}")
        text = json.dumps(result.instance.to_json(), sort_keys=True)
        rep = evaluate_instance(instance_from_json(json.loads(text)))
        replay_gap = max(replay_gap, abs(rep.margin - result.report.margin))

    ok = unconditional_worst >= -MARGIN_TOL and replay_gap <= 1e-12
    assert _verdict(12, "hypothesis-drop searches, budget 5000",
                    ok, f"; unconditional worst={unconditional_worst:+.3e} "
                        f"probed {' '.join(logged)} replay-gap={replay_gap:.1e}")

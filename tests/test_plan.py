"""StencilPlan: one factorisation of a unit-scale set serves every scale h.

Each check compares the plan route against the formulas written out
directly over the scaled set h*S, as the estimates and the bound are
defined.
"""

import numpy as np
import pytest

from cshd import experiments as ex
from cshd.analysis import cross_term_sum, error_bound, plan_error_bound
from cshd.calculus import StencilPlan, evaluate_stencil
from cshd.exceptions import BoundInapplicableError
from cshd.linalg import svd_rank
from cshd.sets import SampleDirections, SetKind, build_set

from helpers import CountedFunction, random_conditioned

RTOL = 1e-10
HS = (1.0, 0.3, 1e-2, 1e-4)


def _close(a, b, rtol=RTOL):
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return float(np.linalg.norm(a - b)) <= rtol * float(np.linalg.norm(b))


def _direct(S, stencil, lipschitz, H):
    """The estimates and bound terms of S computed from S itself."""
    W = S.matrix * S.matrix
    g = np.linalg.pinv(S.matrix.T) @ stencil.delta_c
    d = np.linalg.pinv(W.T) @ stencil.eps
    pinv_norm = np.linalg.norm(np.linalg.pinv((W / S.radius**2).T), 2)
    U = np.triu(H, 1)
    shat = S.matrix / S.radius
    cross = 2.0 * sum(abs(shat[:, i] @ U @ shat[:, i]) for i in range(S.k))
    total = pinv_norm * ((S.k / 12.0) * lipschitz * S.radius**2 + cross)
    return g, d, pinv_norm, cross, total


def _unit_sets(rng, n):
    for kind in (SetKind.CB, SetKind.RB, SetKind.CMPB, SetKind.RMPB):
        yield build_set(kind, n, 1.0)
    for k in (n, n + 1, 2 * n):
        yield SampleDirections(random_conditioned(rng, n, k))


def test_plan_matches_direct_formulas():
    rng = np.random.default_rng(20)
    checked = 0
    for n in (2, 3, 10):
        A = rng.standard_normal((n, n))
        H = A + A.T
        b = rng.standard_normal(n)
        c = rng.uniform(0.5, 1.5, n)
        x0 = rng.standard_normal(n)

        def f(y):
            return float(0.5 * y @ H @ y + b @ y + c @ y**3)

        for unit in _unit_sets(rng, n):
            plan = StencilPlan(unit)
            if plan.w_rank_deficient:
                continue
            cross = 2.0 * cross_term_sum(unit, H)
            for h in HS:
                S = unit.scaled(h)
                st = evaluate_stencil(f, x0, S)
                g, d = plan.estimates(st, S, h)
                lip = float(rng.uniform(0.0, 10.0))
                bb = plan_error_bound(plan, S.radius, lip, cross)
                g_ref, d_ref, pinv_ref, cross_ref, total_ref = _direct(S, st, lip, H)
                assert _close(g.value, g_ref)
                assert _close(d.value, d_ref)
                assert bb.pinv_norm == pytest.approx(pinv_ref, rel=RTOL)
                assert bb.cross_term == pytest.approx(cross_ref, rel=RTOL, abs=1e-12)
                assert bb.total == pytest.approx(total_ref, rel=RTOL)
                assert g.directions is S and d.directions is S
                checked += 1
    assert checked == 3 * 7 * len(HS)


def test_plan_rank_flag_matches_svd_rank():
    rng = np.random.default_rng(21)
    deficient = 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = rng.standard_normal((n, n + int(rng.integers(0, 3))))
        if rng.random() < 0.5:
            # equal squares in two rows make W = S .* S rank deficient
            m[1] = m[0] * rng.choice([-1.0, 1.0], size=m.shape[1])
        S = SampleDirections(m)
        expected = svd_rank(S.squared())[1] < n
        plan = StencilPlan(S)
        assert plan.w_rank_deficient == expected
        st = evaluate_stencil(lambda y: float(y @ y), np.zeros(n), S)
        assert plan.estimates(st, S)[1].w_rank_deficient == expected
        if expected:
            deficient += 1
            with pytest.raises(BoundInapplicableError):
                error_bound(S, 1.0, np.eye(n))
    assert deficient >= 10


def test_plan_flags_too_few_columns():
    S = SampleDirections(np.array([[1.0], [2.0]]))
    plan = StencilPlan(S)
    assert plan.w_rank_deficient and plan.w_sigma_min == 0.0
    with pytest.raises(BoundInapplicableError):
        error_bound(S, 1.0, np.eye(2))


def test_grid_studies_use_exact_evaluations():
    rng = np.random.default_rng(22)
    A = rng.standard_normal((3, 3))
    H = A + A.T
    func = CountedFunction(
        "quad3", 3, lambda y: float(0.5 * y @ H @ y), lambda y: H @ y, lambda y: H,
        lambda x0, delta: 0.0,
    )
    custom = SampleDirections(random_conditioned(rng, 3, 5))
    x0 = rng.standard_normal(3)
    hs = 10.0 ** np.arange(0.0, -4.01, -0.25)
    for kind, S, k in ((SetKind.CMPB, None, 4), (SetKind.CUSTOM, custom, 5)):
        func.issued.clear()
        sweep = ex.run_sweep(func, x0, kind, hs, custom=S, with_bound=True)
        assert sum(o.evals for o in func.issued) == 2 * k * hs.size + 1
        assert len(sweep.report.rows) == hs.size
        func.issued.clear()
        ex.run_limit_study(func, x0, kind, hs=hs, custom=S)
        assert sum(o.evals for o in func.issued) == 2 * k * hs.size + 1

"""StencilPlan: one factorisation of a unit-scale set serves every scale h.

Each check compares the plan route against the formulas written out
directly over the scaled set h*S, as the estimates and the bound are
defined, and the closed-form and QR factors against numpy's SVD-based ones.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cshd import experiments as ex
from cshd.analysis import cross_term_sum, error_bound, plan_error_bound
from cshd.calculus import StencilPlan, evaluate_stencil
from cshd.exceptions import BoundInapplicableError
from cshd import linalg, sets
from cshd.linalg import pinv_factors, svd_rank
from cshd.registry import get
from cshd.sets import SampleDirections, SetKind, build_set

from helpers import CountedFunction, random_conditioned

RTOL = 1e-10
HS = (1.0, 0.3, 1e-2, 1e-4)
PAPER_KINDS = (SetKind.CB, SetKind.RB, SetKind.CMPB, SetKind.RMPB)


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
    for kind in PAPER_KINDS:
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
                g, d = plan.estimates(st, h)
                lip = float(rng.uniform(0.0, 10.0))
                bb = plan_error_bound(plan, S.radius, lip, cross)
                g_ref, d_ref, pinv_ref, cross_ref, total_ref = _direct(S, st, lip, H)
                assert _close(g.value, g_ref)
                assert _close(d.value, d_ref)
                assert bb.pinv_norm == pytest.approx(pinv_ref, rel=RTOL)
                assert bb.cross_term == pytest.approx(cross_ref, rel=RTOL, abs=1e-12)
                assert bb.total == pytest.approx(total_ref, rel=RTOL)
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
        assert plan.estimates(st)[1].w_rank_deficient == expected
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
    for directions, k in ((SetKind.CMPB, 4), (custom, 5)):
        func.issued.clear()
        sweep = ex.run_sweep(func, x0, directions, hs, with_bound=True)
        assert sum(o.evals for o in func.issued) == 2 * k * hs.size + 1
        assert len(sweep.report.rows) == hs.size
        func.issued.clear()
        ex.run_limit_study(func, x0, directions, hs=hs)
        assert sum(o.evals for o in func.issued) == 2 * k * hs.size + 1


def _matches_numpy(A, factors):
    """Pseudoinverse, n-th singular value and full rank agree with numpy's SVD."""
    return (
        _close(factors.apply(np.eye(A.shape[1])), np.linalg.pinv(A))
        and _close(factors.sigma_n(), np.linalg.svd(A, compute_uv=False)[A.shape[0] - 1])
        and factors.rank == min(A.shape)
    )


@pytest.fixture
def svd_calls(monkeypatch):
    """Records the ``compute_uv`` of every np.linalg.svd call while the test
    runs: False for singular values alone (``svd_rank``, or ``sigma_n``'s
    fallback on the QR route), True for a full SVD."""
    calls = []
    svd = np.linalg.svd

    def counted(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append(compute_uv)
        return svd(a, full_matrices, compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 10, 200])
@pytest.mark.parametrize("kind", PAPER_KINDS, ids=lambda k: k.value)
def test_paper_set_factors_match_svd(kind, n):
    S = build_set(kind, n, 0.3)
    for A in (S.matrix, S.squared()):
        assert _matches_numpy(A, pinv_factors(A))


@pytest.mark.parametrize("kind", PAPER_KINDS, ids=lambda k: k.value)
def test_paper_sets_take_the_closed_form_at_every_n(kind, svd_calls):
    for n in [*range(2, 41), 200]:
        S = build_set(kind, n, 0.3)
        pinv_factors(S.matrix)
        pinv_factors(S.squared())
        assert not svd_calls, n
    # At n = 1 there is no pattern to detect; the QR route takes the set.
    S = build_set(kind, 1, 0.3)
    assert pinv_factors(S.matrix).qr is not None
    assert not svd_calls


# The fixture is shared by the examples, so the test clears it itself.
@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(2, 40),
    extra=st.booleans(),
    d=st.floats(-10.0, 10.0),
    b=st.floats(-10.0, 10.0),
    c=st.floats(-10.0, 10.0),
)
def test_patterned_factors_match_svd(n, extra, d, b, c, svd_calls):
    A = np.full((n, n + extra), b)
    np.fill_diagonal(A, d)
    if extra:
        A[:, n] = c
    s = np.linalg.svd(A, compute_uv=False)
    assume(s[-1] > 1e-4 * s[0])
    svd_calls.clear()
    factors = pinv_factors(A)
    assert not svd_calls
    assert _matches_numpy(A, factors)


def test_paper_sets_skip_the_svd(svd_calls):
    StencilPlan(build_set(SetKind.RB, 200, 0.3))
    assert len(svd_calls) == 0


def test_well_separated_custom_set_needs_no_svd_and_no_solve(svd_calls, monkeypatch):
    modes, solves = [], []
    qr, solve = np.linalg.qr, np.linalg.solve
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode="reduced": modes.append(mode) or qr(a, mode))
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **kw: solves.append(1) or solve(*a, **kw))
    S = SampleDirections(np.random.default_rng(23).standard_normal((200, 201)))
    # The largest eigenvalue of x^T x (x = r^-1 for W = q r) exceeds half its
    # trace, which the power iteration's certificate needs.
    inv_s2 = np.linalg.svd(S.squared(), compute_uv=False) ** -2.0
    assert inv_s2[-1] > inv_s2[:-1].sum()
    svd_calls.clear()
    plan = StencilPlan(S)
    plan.scaled_estimates(*np.ones((2, 1, 201)), [0.1])
    plan.s_factors.apply(np.eye(201))
    # Only the triangles are computed: q is never formed.
    assert modes == ["r", "r"] and svd_calls == [] and solves == []
    assert plan.s_factors.qr is not None and plan.w_factors.qr is not None


def test_clustered_sigma_n_falls_back_to_one_svd(svd_calls):
    # sigma_n = sigma_{n-1}: no Rayleigh quotient exceeds the trace bound on lambda_2.
    rng = np.random.default_rng(29)
    n, k = 30, 31
    s = np.append(rng.uniform(1.0, 2.0, n - 2), [0.5, 0.5])
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((k, n)))[0]
    A = u @ np.diag(s) @ v.T
    svd_calls.clear()
    factors = pinv_factors(A)
    sigma_n = factors.sigma_n()
    assert svd_calls == [False] and factors.qr is not None and factors.rank == n
    assert sigma_n == pytest.approx(0.5, rel=RTOL)


def test_stalled_trace_bound_is_certified_by_the_frobenius_bound(svd_calls):
    # lambda_1 of x^T x is below half its trace, so the trace bound on lambda_2
    # never certifies it; sqrt(||M||_F^2 - theta^2) does, with no SVD.
    W = np.random.default_rng(17).standard_normal((20, 21)) ** 2
    s = np.linalg.svd(W, compute_uv=False)
    assert s[-1] ** -2.0 < (s[:-1] ** -2.0).sum()
    svd_calls.clear()
    factors = pinv_factors(W)
    sigma_n = factors.sigma_n()
    assert svd_calls == [] and factors.qr is not None
    assert sigma_n == pytest.approx(s[-1], rel=RTOL)
    assert sigma_n <= s[-1] + max(W.shape) * np.finfo(float).eps * s[0]


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-150, 1e150, 1e160])
def test_certificates_hold_at_any_scale(scale, svd_calls):
    # The squares of r and x = r^-1 leave the double range near 1e+-160; the
    # certificates must not, as kappa and sigma_n / scale are scale-free.
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((5, 3)))[0]
    A = u @ np.diag([2.0, 1.0, 0.5]) @ v.T
    factors = pinv_factors(scale * A)
    sigma_n = factors.sigma_n()
    assert svd_calls == [] and factors.qr is not None and factors.rank == 3
    assert sigma_n == pytest.approx(0.5 * scale, rel=RTOL)


def test_rank_deficient_pattern_falls_back_to_svd(svd_calls):
    n = 5
    A = np.eye(n) - np.ones((n, n)) / n
    f = pinv_factors(A)
    assert svd_calls == [True] and f.rank == n - 1
    assert _close(f.pinv, np.linalg.pinv(A))
    # S = 2I - 11^T is patterned with full rank, but W = 11^T has rank 1.
    S = SampleDirections(2.0 * np.eye(3) - 1.0)
    plan = StencilPlan(S)
    assert plan.w_rank == 1 and plan.s_cond == pytest.approx(np.linalg.cond(S.matrix), rel=RTOL)
    with pytest.raises(BoundInapplicableError):
        error_bound(S, 1.0, np.eye(3))


def test_pattern_below_the_normal_range_is_factored_by_qr(svd_calls):
    # The squares of these entries are subnormal, so p and big lose precision;
    # the QR route's certificates are scale-free and need no SVD.
    A = 1e-160 * (np.eye(3) + 0.3)
    f = pinv_factors(A)
    assert svd_calls == [] and f.rank == 3 and f.pinv is None
    assert _close(1e-160 * f.apply(np.eye(3)), 1e-160 * np.linalg.pinv(A))


def _check_plan_against_numpy(S, rng):
    """The plan's estimates over several scales and its bound terms agree
    with numpy's pinv and SVD of S and W written out directly, and the
    plan's sigma_n of W~ is not above numpy's by more than round-off."""
    W = S.squared()
    plan = StencilPlan(S)
    delta_c, eps = rng.standard_normal((2, len(HS), S.k))
    g, d = plan.scaled_estimates(delta_c, eps, HS)
    for j, h in enumerate(HS):
        assert _close(g[j], np.linalg.pinv(S.matrix.T) @ delta_c[j] / h)
        assert _close(d[j], np.linalg.pinv(W.T) @ eps[j] / h**2)
    assert plan.s_cond == pytest.approx(np.linalg.cond(S.matrix), rel=RTOL)
    assert plan.w_rank == np.linalg.matrix_rank(W) == S.n
    Wt = W / S.radius**2
    s = np.linalg.svd(Wt, compute_uv=False)
    assert plan.w_sigma_min == pytest.approx(s[-1], rel=RTOL)
    assert plan.w_sigma_min <= s[-1] + max(W.shape) * np.finfo(float).eps * s[0]
    pinv_norm = plan_error_bound(plan, S.radius, 1.0, 0.0).pinv_norm
    assert pinv_norm == pytest.approx(np.linalg.norm(np.linalg.pinv(Wt.T), 2), rel=RTOL)


@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 40), extra=st.sampled_from(["0", "1", "n"]), seed=st.integers(0, 2**32 - 1))
def test_full_rank_custom_sets_match_numpy(n, extra, seed, svd_calls):
    k = {"0": n, "1": n + 1, "n": 2 * n}[extra]
    rng = np.random.default_rng(seed)
    S = SampleDirections(random_conditioned(rng, n, k))
    W = S.squared()
    assume(svd_rank(W)[1] == n)
    svd_calls.clear()
    factors = [pinv_factors(A) for A in (S.matrix, W)]
    # S and W go the QR route and reach no full SVD.
    assert all(f.qr is not None for f in factors) and True not in svd_calls
    for A, f in zip((S.matrix, W), factors):
        rows = rng.standard_normal((3, k))
        assert f.rank == n
        assert _close(f.apply(rows), rows @ np.linalg.pinv(A))
        assert _matches_numpy(A, f)
    _check_plan_against_numpy(S, rng)


def test_full_rank_custom_set_at_n_200_matches_numpy(svd_calls):
    rng = np.random.default_rng(26)
    S = SampleDirections(rng.standard_normal((200, 201)))
    plan = StencilPlan(S)
    assert plan.s_factors.qr is not None and plan.w_factors.qr is not None
    assert True not in svd_calls
    _check_plan_against_numpy(S, rng)


def test_unpatterned_full_rank_matrices_are_factored_by_qr(svd_calls):
    rng = np.random.default_rng(24)
    # The kind is a label only: a CB-labelled random matrix is not the identity.
    S = SampleDirections(random_conditioned(rng, 4, 4), SetKind.CB)
    plan = StencilPlan(S)
    assert True not in svd_calls
    assert plan.s_factors.pinv is None and plan.w_factors.pinv is None
    assert _close(plan.s_factors.apply(np.eye(4)).T, np.linalg.pinv(S.matrix.T))
    assert _close(plan.w_factors.apply(np.eye(4)).T, np.linalg.pinv(S.squared().T))


def test_rank_deficient_or_short_sets_reach_the_full_svd(svd_calls):
    rng = np.random.default_rng(27)
    # Equal squares in two rows: S has full row rank, W does not.
    m = rng.standard_normal((4, 6))
    m[1] = m[0] * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    plan = StencilPlan(SampleDirections(m))
    assert svd_calls == [True] and plan.w_rank == 3
    assert plan.s_factors.pinv is None and plan.w_factors.qr is None
    # k < n: the QR route does not apply to either matrix.
    svd_calls.clear()
    S = SampleDirections(rng.standard_normal((4, 3)))
    plan = StencilPlan(S)
    assert svd_calls == [True, True] and plan.w_rank == 3
    delta_c, eps = rng.standard_normal((2, 1, 3))
    g, d = plan.scaled_estimates(delta_c, eps, [0.1])
    assert _close(g[0], np.linalg.pinv(S.matrix.T) @ delta_c[0] / 0.1)
    assert _close(d[0], np.linalg.pinv(S.squared().T) @ eps[0] / 0.01)


@pytest.mark.parametrize("factor", [0.1, 0.3, 3.0, 10.0])
def test_qr_route_rank_agrees_with_svd_rank_near_the_cutoff(factor, svd_calls):
    # sigma_n is set to factor * max(n, k) * sigma_max * eps, the cutoff times factor.
    rng = np.random.default_rng(28)
    eps = np.finfo(float).eps
    for _ in range(200):
        n = int(rng.integers(2, 13))
        k = n + int(rng.integers(0, n + 1))
        s = np.append(2.0, rng.uniform(0.5, 2.0, n - 1))
        s[-1] = factor * max(n, k) * eps * 2.0
        A = random_conditioned(rng, n, n) @ np.diag(s) @ np.linalg.qr(rng.standard_normal((k, n)))[0].T
        svd_calls.clear()
        rank = pinv_factors(A).rank
        # No kappa this large is certified: the full SVD decides either way.
        assert svd_calls == [True]
        assert rank == svd_rank(A)[1] == (n if factor > 1 else n - 1)


# The fixture is shared by the examples, so the test clears it itself.
@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(2, 40),
    extra=st.floats(0.0, 1.0),
    log_kappa=st.floats(1.0, 14.0),
    shape=st.sampled_from(["full", "deficient", "short"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_custom_sets_take_the_certified_qr_or_one_full_svd(n, extra, log_kappa, shape, seed,
                                                           svd_calls):
    # A = u diag(s) v^T with s from 1 down to 1 / kappa and k from n to 2n; a
    # deficient A has its last singular value set to 0, a short one k < n.
    rng = np.random.default_rng(seed)
    k = 1 + int(extra * (n - 2)) if shape == "short" else n + int(extra * n)
    r = min(n, k)
    u = np.linalg.qr(rng.standard_normal((n, r)))[0]
    v = np.linalg.qr(rng.standard_normal((k, r)))[0]
    s = np.logspace(0.0, -log_kappa, r)
    if shape == "deficient":
        s[-1] = 0.0
    A = (u * s) @ v.T
    # Two SVDs of A may round its smallest singular value apart: keep it off the cutoff.
    sv = np.linalg.svd(A, compute_uv=False)
    cutoff = max(n, k) * np.finfo(float).eps * sv[0]
    assume(not cutoff / 4.0 < sv[-1] < 4.0 * cutoff)
    svd_calls.clear()
    factors = pinv_factors(A)
    # Certified and factored by QR with no SVD, or decided by one full SVD.
    assert svd_calls in ([], [True])
    assert (svd_calls == []) == (factors.qr is not None)
    assert factors.rank == svd_rank(A)[1]


def test_plan_keeps_the_condition_number_of_s():
    rng = np.random.default_rng(25)
    sets = [build_set(kind, n, 0.3) for kind in PAPER_KINDS for n in (1, 2, 3, 10)]
    sets += [SampleDirections(random_conditioned(rng, n, k)) for n, k in ((3, 3), (3, 4), (4, 9))]
    for S in sets:
        assert StencilPlan(S).s_cond == pytest.approx(np.linalg.cond(S.matrix), rel=RTOL)
    assert StencilPlan(SampleDirections(np.array([[1.0], [2.0]]))).s_cond == np.inf
    assert StencilPlan(SampleDirections(np.array([[1.0, 2.0], [2.0, 4.0]]))).s_cond == np.inf


@pytest.mark.parametrize("kind", PAPER_KINDS, ids=lambda k: k.value)
def test_a_paper_set_plan_allocates_less_than_one_direction_matrix(kind):
    S = build_set(kind, 200, 0.01)
    tracemalloc.start()
    try:
        plan = StencilPlan(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.s_factors.closed is not None and plan.w_factors.closed is not None
    assert peak < S.matrix.nbytes


def test_no_paper_set_forms_w(monkeypatch):
    def squared(self):
        raise AssertionError("W = S .* S was formed")

    monkeypatch.setattr(SampleDirections, "squared", squared)
    for kind in PAPER_KINDS:
        for n in (*range(2, 9), 200):
            plan = StencilPlan(build_set(kind, n, 0.3).scaled(0.1))
            plan.scaled_estimates(np.ones((1, plan.directions.k)), np.ones((1, plan.directions.k)), [1.0])
        func = get("expprod3")
        ex.run_approx(func, [3.0, 2.0, 1.0], build_set(kind, 3, 1e-2), with_bound=True)
        ex.run_sweep(func, [3.0, 2.0, 1.0], kind, [1e-1, 1e-2, 1e-3], with_bound=True)


def test_cb_applies_its_pseudoinverse_bit_for_bit():
    # Pb = 0 and beta = 0 for cb, so each row is r_i * h / h^2, as a GEMM with
    # the diagonal pseudoinverse gives it.
    rng = np.random.default_rng(43)
    for n in (2, 3, 10, 200):
        h = float(10.0 ** rng.uniform(-4.0, 0.0))
        plan = StencilPlan(build_set(SetKind.CB, n, h))
        rows = rng.standard_normal((3, n))
        assert np.array_equal(plan.s_factors.apply(rows), rows @ (np.eye(n) * (h / (h * h))))
        hh = h * h
        assert np.array_equal(plan.w_factors.apply(rows), rows @ (np.eye(n) * (hh / (hh * hh))))


@pytest.mark.parametrize("kind", PAPER_KINDS, ids=lambda k: k.value)
def test_a_study_detects_the_pattern_at_most_once(kind, monkeypatch):
    calls = []
    detect = linalg.diagonal_pattern

    def counted(A):
        calls.append(A.shape)
        return detect(A)

    monkeypatch.setattr(linalg, "diagonal_pattern", counted)
    monkeypatch.setattr(sets, "diagonal_pattern", counted)
    func, point = get("rosenbrock2"), [0.9, 0.81]
    ex.run_sweep(func, point, kind, 10.0 ** np.arange(0.0, -4.01, -0.25), with_bound=True)
    assert len(calls) <= 1
    calls.clear()
    ex.run_limit_study(func, point, kind)
    assert len(calls) <= 1
    # A set passed in was detected when it was built; its scaled copies inherit.
    S = build_set(kind, 2, 1.0)
    calls.clear()
    ex.run_sweep(func, point, S, [1e-1, 1e-2, 1e-3], with_bound=True)
    ex.run_limit_study(func, point, S)
    assert calls == []


def test_only_a_bound_reads_sigma_n(monkeypatch):
    calls = []
    sigma_n = linalg.PinvFactors.sigma_n
    monkeypatch.setattr(linalg.PinvFactors, "sigma_n", lambda f: calls.append(f) or sigma_n(f))
    func, point = get("expprod3"), [3.0, 2.0, 1.0]
    # A full-rank 3 x 5 set with no closed form: W is factored by QR.
    S = SampleDirections(np.array([[1.0, 0.0, 0.0, 0.5, -1.0], [0.0, 1.0, 0.0, 0.5, -1.0],
                                   [0.0, 0.0, 1.0, -0.5, -1.0]]))
    ex.run_limit_study(func, point, S)
    ex.run_sweep(func, point, S, [1e-1, 1e-2, 1e-3])
    ex.run_approx(func, point, S.scaled(1e-2))
    assert calls == []
    ex.run_sweep(func, point, S, [1e-1, 1e-2, 1e-3], with_bound=True)
    assert len(calls) == 1 and calls[0].qr is not None  # once per plan, for every h

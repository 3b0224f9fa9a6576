from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cshd.calculus import (
    Objective,
    StencilPlan,
    centered_gradient,
    centered_hessian_diagonal,
    evaluate_stencil,
)
from cshd.exceptions import ParameterError, StencilError
from cshd.registry import get
from cshd.sets import SampleDirections, SetKind, build_set

from helpers import random_conditioned, random_lonely
from oracles import diag_model_eval, fd_diag_hessian

X1 = np.array([1.1, 1.1**2 + 1e-5])
X2 = np.array([0.9, 0.81])


def test_objective_counts_every_call():
    obj = Objective(lambda y: float(y @ y), 3)
    for _ in range(5):
        obj(np.zeros(3))
    assert obj.evals == 5


def test_objective_counts_failing_calls():
    def bad(y):
        raise RuntimeError("boom")

    obj = Objective(bad, 2)
    with pytest.raises(RuntimeError):
        obj(np.zeros(2))
    assert obj.evals == 1


def test_objective_rejects_a_non_finite_value():
    values = iter([float("nan"), float("inf"), 2.5])
    obj = Objective(lambda y: next(values), 2)
    for bad in ("nan", "inf"):
        with pytest.raises(StencilError, match=f"non-finite value {bad} at x = \\[0.0, 1.0\\]"):
            obj(np.array([0.0, 1.0]))
    assert obj(np.array([0.0, 1.0])) == 2.5
    assert obj.evals == 3


def test_objective_counter_is_thread_safe():
    obj = Objective(lambda y: 0.0, 1)
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda _: obj(np.zeros(1)), range(400)))
    assert obj.evals == 400


def test_objective_counts_every_row_of_concurrent_calls():
    # 64 arrays of 25 rows on 8 threads; row 7 of array 13 raises, so that
    # call attempts 8 rows and every other call all 25.
    obj = Objective(lambda y: 1.0 / float(y[1]), 2)  # ZeroDivisionError at y[1] = 0
    arrays = [np.column_stack([np.full(25, j), np.arange(1.0, 26.0)]) for j in range(64)]
    arrays[13][7, 1] = 0.0

    def call(points):
        try:
            return obj.values(points).size
        except StencilError:
            return None

    with ThreadPoolExecutor(max_workers=8) as pool:
        sizes = list(pool.map(call, arrays))
    assert sizes.count(None) == 1 and sizes[13] is None
    assert obj.evals == 63 * 25 + 8


def test_objective_rejects_wrong_dimension():
    obj = Objective(lambda y: 0.0, 2)
    with pytest.raises(ParameterError):
        obj(np.zeros(3))
    for shape in [(3,), (2,), (4, 3), (1, 1), (2, 2, 1)]:
        with pytest.raises(ParameterError, match="array of points"):
            obj.values(np.zeros(shape))
    assert obj.evals == 0


def test_objective_values_counts_rows_in_order():
    seen = []
    obj = Objective(lambda y: seen.append(y.copy()) or float(y.sum()), 2)
    pts = np.arange(10.0).reshape(5, 2)
    assert np.array_equal(obj.values(pts), pts.sum(axis=1))
    assert obj.evals == 5
    assert np.array_equal(np.array(seen), pts)
    assert obj.values(np.zeros((0, 2))).shape == (0,) and obj.evals == 5


def test_stencil_constant_function():
    S = build_set(SetKind.CMPB, 3, 0.5)
    st = evaluate_stencil(lambda y: 4.25, np.zeros(3), S)
    assert np.array_equal(st.delta_c, np.zeros(4))
    assert np.array_equal(st.eps, np.zeros(4))


def test_stencil_squared_norm():
    S = build_set(SetKind.CB, 2, 1.0)
    st = evaluate_stencil(lambda y: float(y @ y), np.zeros(2), S)
    assert np.array_equal(st.delta_c, np.zeros(2))
    assert np.allclose(st.eps, [2.0, 2.0], atol=1e-15)


def test_stencil_rosenbrock_eps_matches_diagonal():
    # eps ~= h^2 * diag of the true Hessian (969.996, 200) with the y2
    # component exact because the function is quadratic in y2
    rosen = get("rosenbrock2")
    h = 1e-3
    st = evaluate_stencil(rosen.fn, X1, build_set(SetKind.CB, 2, h))
    assert st.eps[0] == pytest.approx(h * h * 969.996, rel=1e-5)
    assert st.eps[1] == pytest.approx(h * h * 200.0, rel=1e-9)
    # independent cross-check of the diagonal via finite differences
    assert np.allclose(fd_diag_hessian(rosen.fn, X1), [969.996, 200.0], rtol=1e-6)


def test_stencil_accounting():
    S = build_set(SetKind.CMPB, 2, 0.1)
    obj = get("rosenbrock2").objective()
    st = evaluate_stencil(obj, X1, S)
    assert st.evals_used == 2 * S.k + 1 == obj.evals
    obj2 = get("rosenbrock2").objective()
    st2 = evaluate_stencil(obj2, X1, S, known_f0=st.f0)
    assert st2.evals_used == 2 * S.k == obj2.evals
    rng = np.random.default_rng(21)
    for n in (2, 3, 10):
        for kind in SetKind:
            if kind is SetKind.CUSTOM:
                S = SampleDirections(rng.standard_normal((n, n + 1)))
            else:
                S = build_set(kind, n, float(rng.uniform(0.01, 1.0)))
            x0 = rng.standard_normal(n)
            obj = Objective(lambda y: float(y @ y), n)
            st = evaluate_stencil(obj, x0, S)
            assert st.evals_used == 2 * S.k + 1 == obj.evals
            st2 = evaluate_stencil(obj, x0, S, known_f0=st.f0)
            assert st2.evals_used == 2 * S.k == obj.evals - st.evals_used
            assert np.array_equal(st2.eps, st.eps)


def test_stencil_evaluation_order_and_points():
    rng = np.random.default_rng(22)
    for n in (2, 3, 10):
        S = SampleDirections(rng.standard_normal((n, n + 2)))
        x0 = rng.standard_normal(n)
        seen = []

        def f(y):
            seen.append(y.copy())
            return float(np.sin(y).sum())

        st = evaluate_stencil(f, x0, S)  # a plain callable is accepted
        cols = list(S.matrix.T)
        expected = [x0] + [x0 + s for s in cols] + [x0 - s for s in cols]
        assert len(seen) == len(expected) == st.evals_used
        for got, want in zip(seen, expected):
            assert np.array_equal(got, want)
        assert st.f0 == f(x0)
        assert np.array_equal(st.plus_vals, [f(x0 + s) for s in cols])
        assert np.array_equal(st.minus_vals, [f(x0 - s) for s in cols])


def test_stencil_block_system_consistency():
    S = build_set(SetKind.RMPB, 2, 0.3)
    st = evaluate_stencil(get("rosenbrock2").fn, X1, S)
    # stored vectors equal their defining expressions bitwise
    assert np.array_equal(st.delta_c, 0.5 * (st.plus_vals - st.minus_vals))
    assert np.array_equal(st.eps, (st.plus_vals - st.f0) + (st.minus_vals - st.f0))
    # block elimination of the one-sided differences
    dplus = st.plus_vals - st.f0
    dminus = st.minus_vals - st.f0
    assert np.allclose(0.5 * (dplus - dminus), st.delta_c, rtol=1e-12, atol=1e-15)
    assert np.allclose(dplus + dminus, st.eps, rtol=1e-12, atol=1e-15)


def test_stencil_error_identifies_point():
    def partial(y):
        if y[0] > 1.05:
            return float("nan")
        return float(y @ y)

    S = build_set(SetKind.CB, 2, 0.2)
    with pytest.raises(StencilError, match="x0 \\+ s1"):
        evaluate_stencil(partial, np.array([1.0, 0.0]), S)


def test_stencil_failure_names_minus_point_and_is_counted():
    rng = np.random.default_rng(23)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        S = SampleDirections(rng.standard_normal((n, n + 1)))
        x0 = rng.standard_normal(n)
        j = int(rng.integers(1, S.k + 1))
        bad_point = x0 - S.matrix[:, j - 1]
        raises = trial % 2 == 0

        def f(y):
            if np.array_equal(y, bad_point):
                if raises:
                    raise RuntimeError("boom")
                return float("nan")
            return float(y @ y)

        obj = Objective(f, n)
        known_f0 = None if trial % 4 < 2 else 1.0
        match = "evaluation failed" if raises else "non-finite value nan"
        with pytest.raises(StencilError, match=f"{match} at x0 - s{j} = "):
            evaluate_stencil(obj, x0, S, known_f0=known_f0)
        assert obj.evals == (known_f0 is None) + S.k + j


def test_stencil_dimension_mismatch():
    with pytest.raises(ParameterError):
        evaluate_stencil(lambda y: 0.0, np.zeros(3), build_set(SetKind.CB, 2, 1.0))


def test_stencil_rejects_non_finite_known_f0():
    S = build_set(SetKind.CB, 2, 1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="known_f0"):
            evaluate_stencil(lambda y: 0.0, np.zeros(2), S, known_f0=bad)


def test_gradient_exact_for_linear():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(3)
    f = lambda y: float(a @ y + 2.0)
    S = build_set(SetKind.RMPB, 3, 0.7)
    st = evaluate_stencil(f, rng.standard_normal(3), S)
    g = centered_gradient(st, S)
    assert np.allclose(g.value, a, rtol=1e-12, atol=1e-14)


def test_gradient_exact_for_quadratic():
    rng = np.random.default_rng(11)
    Q = rng.standard_normal((3, 3))
    Q = Q + Q.T
    x0 = rng.standard_normal(3)
    f = lambda y: float(0.5 * y @ Q @ y)
    S = build_set(SetKind.CMPB, 3, 0.4)
    st = evaluate_stencil(f, x0, S)
    g = centered_gradient(st, S)
    assert np.allclose(g.value, Q @ x0, rtol=1e-12, atol=1e-12)


def test_gradient_rosenbrock_small_h():
    rosen = get("rosenbrock2")
    S = build_set(SetKind.CB, 2, 1e-6)
    st = evaluate_stencil(rosen.fn, X2, S)
    g = centered_gradient(st, S)
    assert np.linalg.norm(g.value - np.array([-0.2, 0.0])) <= 1e-6


def test_hessdiag_exact_for_diagonal_quadratic():
    a = np.array([1.5, -2.0, 0.75])
    b = np.array([0.3, -0.1, 2.0])
    f = lambda y: float(np.sum(a * y**2) + b @ y + 5.0)
    S = build_set(SetKind.CB, 3, 0.5)
    st = evaluate_stencil(f, np.array([0.2, -0.4, 1.0]), S)
    d = centered_hessian_diagonal(st, S)
    assert np.allclose(d.value, 2.0 * a, rtol=1e-12)
    assert not d.w_rank_deficient


def test_hessdiag_blind_to_pure_cross_terms():
    alpha = 3.0
    f = lambda y: float(alpha * y[0] * y[1])
    S = build_set(SetKind.CB, 2, 0.5)
    st = evaluate_stencil(f, np.array([0.7, -0.3]), S)
    d = centered_hessian_diagonal(st, S)
    assert np.linalg.norm(d.value) <= 1e-9


def test_hessdiag_rosenbrock_reference_error():
    from cshd.analysis import relative_error

    rosen = get("rosenbrock2")
    S = build_set(SetKind.CB, 2, 1e-3)
    st = evaluate_stencil(rosen.fn, X1, S)
    d = centered_hessian_diagonal(st, S)
    rer = relative_error(d.value, rosen.diag_hessian(X1))
    assert rer == pytest.approx(2.02e-7, rel=0.05)


def test_hessdiag_flags_rank_deficient_w():
    # distinct columns whose squares coincide: W has rank 1
    S = SampleDirections(np.array([[1.0, -1.0], [1.0, 1.0]]))
    st = evaluate_stencil(lambda y: float(y @ y), np.zeros(2), S)
    d = centered_hessian_diagonal(st, S)
    assert d.w_rank_deficient


def test_estimates_unchanged_under_reflection():
    rosen = get("rosenbrock2")
    S = build_set(SetKind.RMPB, 2, 0.2)
    neg = SampleDirections(-S.matrix)
    st = evaluate_stencil(rosen.fn, X1, S)
    st_neg = evaluate_stencil(rosen.fn, X1, neg)
    assert np.allclose(
        centered_gradient(st, S).value, centered_gradient(st_neg, neg).value, rtol=1e-12
    )
    assert np.allclose(
        centered_hessian_diagonal(st, S).value,
        centered_hessian_diagonal(st_neg, neg).value,
        rtol=1e-12,
    )


def _least_squares_tolerance(S, g, delta_c) -> float:
    """A bound, fixed before any run, on the gap between two computed
    g = pinv(S^T) delta_c, over S with delta_c and over -S with -delta_c.

    The two problems have the same solution.  The QR route (Householder QR,
    then CSNE, which the route certifies to be as accurate), and the SVD
    route, each solve it within the backward error ||dA|| <= e ||A|| with
    A = S^T and e = 4 k n sqrt(n) u: gamma~_kn = 4 k n u in the Frobenius
    norm (Higham, Accuracy and Stability, 2nd ed., Thm 20.3), sqrt(n) to the
    2-norm.  Wedin's bound (Thm 20.1) then gives ||dg|| <= kappa e / (1 -
    kappa e) (2 ||g|| + (kappa + 1) ||r|| / ||A||) with the residual
    r = delta_c - A g; the gap is at most twice that."""
    u = np.finfo(float).eps / 2.0
    s = np.linalg.svd(S.matrix, compute_uv=False)
    kappa, e = s[0] / s[-1], 4.0 * S.k * S.n * np.sqrt(S.n) * u
    r = float(np.linalg.norm(delta_c - S.matrix.T @ g))
    return 2.0 * kappa * e / (1.0 - kappa * e) * (2.0 * float(np.linalg.norm(g))
                                                 + (kappa + 1.0) * r / s[0])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    kind=st.sampled_from([SetKind.CB, SetKind.RB, SetKind.CMPB, SetKind.RMPB, "qr", "svd"]),
    n=st.integers(2, 8),
    log_h=st.floats(-3.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_reflection_keeps_d_bit_for_bit(kind, n, log_h, seed):
    """S and -S share W and swap each f(x0 + s_i) with f(x0 - s_i), so eps is
    the same two terms added in the other order: the same d, bit for bit.
    delta_c and the closed-form factors of S change sign exactly, so g is
    the same bit for bit there, and within a least-squares bound by QR or SVD."""
    rng = np.random.default_rng(seed)
    if kind == "qr":
        S = SampleDirections(random_conditioned(rng, n, int(rng.choice([n, n + 1, 2 * n]))))
    elif kind == "svd":  # kappa(S) = 1e9 lies past the QR route's certificate
        u, _, vt = np.linalg.svd(rng.standard_normal((n, 2 * n)), full_matrices=False)
        S = SampleDirections(u @ np.diag(np.geomspace(1.0, 1e-9, n)) @ vt)
    else:
        S = build_set(kind, n, 1.0)
    S = S.scaled(10.0**log_h)
    p, Q = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (n, n))
    x0 = rng.uniform(-2.0, 2.0, n)
    f = lambda y: float(np.exp(p @ y) + (Q @ y) @ y)
    plan, flipped = StencilPlan(S), StencilPlan(SampleDirections(-S.matrix, S.kind))
    st, st_flipped = evaluate_stencil(f, x0, S), evaluate_stencil(f, x0, flipped.directions)
    g, d = plan.estimates(st)
    g_flipped, d_flipped = flipped.estimates(st_flipped)
    assert np.array_equal(d.value, d_flipped.value)
    if plan.s_factors.closed is not None:
        assert np.array_equal(g.value, g_flipped.value)
    else:
        assert kind != "svd" or plan.s_factors.qr is None
        gap = float(np.linalg.norm(g.value - g_flipped.value))
        assert gap <= _least_squares_tolerance(S, g.value, st.delta_c)


def test_estimate_dimension_guard():
    S = build_set(SetKind.CB, 2, 1.0)
    other = build_set(SetKind.CMPB, 2, 1.0)
    st = evaluate_stencil(lambda y: float(y @ y), np.zeros(2), S)
    with pytest.raises(ParameterError):
        centered_gradient(st, other)
    with pytest.raises(ParameterError):
        centered_hessian_diagonal(st, other)


def test_exactness_on_random_diagonal_quadratics():
    from cshd.analysis import relative_error

    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        k = n + int(rng.integers(0, 3))
        S = random_lonely(rng, n, k).scaled(0.5)
        a = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        b = rng.standard_normal(n)
        x0 = rng.uniform(-1.0, 1.0, n)
        f = lambda y, a=a, b=b: float(np.sum(a * y**2) + b @ y)
        st = evaluate_stencil(f, x0, S)
        assert relative_error(centered_gradient(st, S).value, 2 * a * x0 + b) <= 1e-9
        assert relative_error(centered_hessian_diagonal(st, S).value, 2 * a) <= 1e-9


def _round_off_tolerance(S, x0, D, F, ops) -> float:
    """A bound, fixed before any run, on ||d - D|| for the estimate over S of
    an f whose exact stencil data is eps = W^T D: a diagonal quadratic over
    any set, or a cubic over a lonely set.

    With u = eps/2 and F(y) the sum of |m(y)| over the monomials m of f:
    rounding a stencil point moves a monomial of degree p by at most p u |m|,
    evaluating it costs u |m| per rounding on its path through f, and forming
    eps_j three more roundings.  So |eps_j error| <= ops u e_j with
    e_j = F(x0 + s_j) + F(x0 - s_j) + 2 F(x0), where the caller counts ops:
    2 + (n + 2) + 3 = n + 7 for 1/2 sum D_i y_i^2 + g.y, and 3 + (n + 5) + 3
    = n + 11 for the cubic.  W = S .* S itself is rounded entrywise, which
    adds u kappa_F(W) ||D||, and so does the cubic's D, computed exactly
    and rounded once.  So ||d - D|| <= ops u ||pinv(W^T)|| ||e|| +
    2 u kappa_F(W) ||D||, and applying the factors costs at most the same
    again: the tolerance is 4 (ops + 1) u times both terms."""
    u = np.finfo(float).eps / 2.0
    e = np.array([F(x0 + s) + F(x0 - s) + 2.0 * F(x0) for s in S.matrix.T])
    W = S.matrix * S.matrix
    pinv_norm = 1.0 / np.linalg.svd(W, compute_uv=False)[-1]
    kappa_f = float(np.linalg.norm(W)) * pinv_norm
    return 4.0 * (ops + 1) * u * (pinv_norm * float(np.linalg.norm(e))
                                  + kappa_f * float(np.linalg.norm(D)))


def _cubic(rng, D, g, x0):
    """f = 1/2 sum D_i y_i^2 + g.y + sum a_i y_i y_i+1 + sum c_i y_i^2 y_i+1
    + sum b_i y_i^3, whose Hessian has off-diagonal terms, with F, the exact
    diagonal of H(x0) rounded once, and the ops count of the tolerance: D y
    and its dot with y take n + 1 roundings, g.y n, the a-term n, the c-term
    n + 1 and the b-term n + 2 (the cube may take two), and the four
    additions bring each monomial to at most n + 5."""
    n = D.size
    a, c = rng.uniform(-10.0, 10.0, (2, n - 1))
    b = rng.uniform(-10.0, 10.0, n)

    def f(y):
        return float(0.5 * (D * y) @ y + g @ y + a @ (y[:-1] * y[1:]) + c @ (y[:-1] ** 2 * y[1:])
                     + b @ y**3)

    def F(y):
        return float(np.abs(0.5 * D * y * y).sum() + np.abs(g * y).sum() + np.abs(b * y**3).sum()
                     + np.abs(a * y[:-1] * y[1:]).sum() + np.abs(c * y[:-1] ** 2 * y[1:]).sum())

    exact = [Fraction(v) + 6 * Fraction(bi) * Fraction(xi) for v, bi, xi in zip(D, b, x0)]
    for i in range(n - 1):
        exact[i] += 2 * Fraction(c[i]) * Fraction(x0[i + 1])
    return f, F, np.array([float(v) for v in exact]), n + 11


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    kind=st.sampled_from([SetKind.CB, SetKind.RB, SetKind.CMPB, SetKind.RMPB, SetKind.CUSTOM,
                          "lonely"]),
    n=st.integers(2, 8),
    log_h=st.floats(-3.0, 0.0),
    cubic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonal_quadratics_are_exact_within_round_off(kind, n, log_h, cubic, seed):
    """So are cubics with off-diagonal Hessian terms over the lonely sets:
    cb and scaled, permuted lonely custom sets."""
    rng = np.random.default_rng(seed)
    D = rng.uniform(-10.0, 10.0, n)
    g = rng.uniform(-10.0, 10.0, n)
    x0 = rng.uniform(-2.0, 2.0, n)
    if kind is SetKind.CUSTOM:  # k = 2n columns, which the certified QR route factors
        S = SampleDirections(random_conditioned(rng, n, 2 * n)).scaled(10.0**log_h)
        plan = StencilPlan(S)
        assume(plan.w_factors.qr is not None)
    elif kind == "lonely":
        S = random_lonely(rng, n, n + int(rng.integers(0, 3))).scaled(10.0**log_h)
        plan = StencilPlan(S)
    else:
        S = build_set(kind, n, 1.0).scaled(10.0**log_h)
        plan = StencilPlan(S)
        assert plan.w_factors.closed is not None
    if cubic and S.is_lonely():
        f, F, diag, ops = _cubic(rng, D, g, x0)
    else:
        f = lambda y: float(0.5 * (D * y) @ y + g @ y)
        F = lambda y: float(np.sum(0.5 * np.abs(D) * y * y + np.abs(g * y)))
        diag, ops = D, n + 7
    d = plan.estimates(evaluate_stencil(f, x0, S))[1].value
    assert np.linalg.norm(d - diag) <= _round_off_tolerance(S, x0, diag, F, ops)


def test_cubic_exactness_with_lonely_sets():
    from cshd.analysis import relative_error

    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        k = n + int(rng.integers(0, 3))
        S = random_lonely(rng, n, k).scaled(0.5)
        b3 = rng.standard_normal(n)
        Q = rng.standard_normal((n, n))
        Q = Q + Q.T
        Q[np.arange(n), np.arange(n)] = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        lin = rng.standard_normal(n)
        x0 = rng.uniform(-1.0, 1.0, n)
        f = lambda y, b3=b3, Q=Q, lin=lin: float(np.sum(b3 * y**3) + 0.5 * y @ Q @ y + lin @ y)
        st = evaluate_stencil(f, x0, S)
        d = centered_hessian_diagonal(st, S)
        assert relative_error(d.value, 6 * b3 * x0 + np.diag(Q)) <= 1e-8


def test_model_at_center():
    assert diag_model_eval([1.0, 2.0], [1.0, 2.0], 7.5, [3.0, -1.0], [2.0, 2.0]) == 7.5


def test_model_unit_step():
    x0 = np.zeros(3)
    for j in range(3):
        x = np.zeros(3)
        x[j] = 1.0
        assert diag_model_eval(x, x0, 1.25, np.zeros(3), 2 * np.ones(3)) == pytest.approx(2.25)


def test_model_interpolates_diagonal_quadratic_on_lonely_stencil():
    rng = np.random.default_rng(14)
    a = np.array([1.2, -0.7, 0.4])
    b = np.array([0.5, 1.5, -2.0])
    c = 3.0
    f = lambda y: float(np.sum(a * y**2) + b @ y + c)
    x0 = rng.uniform(-1.0, 1.0, 3)
    S = random_lonely(rng, 3, 5).scaled(0.5)
    g = 2 * a * x0 + b
    d = 2 * a
    for j in range(S.k):
        for sign in (+1.0, -1.0):
            x = x0 + sign * S.matrix[:, j]
            assert diag_model_eval(x, x0, f(x0), g, d) == pytest.approx(f(x), rel=1e-12)


def test_model_dimension_mismatch():
    with pytest.raises(ParameterError):
        diag_model_eval([1.0], [1.0, 2.0], 0.0, [1.0, 2.0], [1.0, 2.0])

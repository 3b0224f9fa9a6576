import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cshd.analysis import (
    absolute_error,
    convergence_order,
    cross_term_sum,
    error_bound,
    relative_error,
)
from cshd.calculus import centered_hessian_diagonal, evaluate_stencil
from cshd.exceptions import BoundInapplicableError, ParameterError
from cshd.registry import get
from cshd.sets import SampleDirections, SetKind, build_set

from helpers import random_lonely
from oracles import fd_diag_hessian, fd_gradient, fd_hessian, fd_third_tensor, lipschitz_oracle

X1 = np.array([1.1, 1.1**2 + 1e-5])

EPS = float(np.finfo(float).eps)


def test_cross_term_sum_is_220_for_cmpb_at_x1():
    H = get("rosenbrock2").hessian(X1)
    for h in [1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
        S = build_set(SetKind.CMPB, 2, h)
        assert cross_term_sum(S, H) == pytest.approx(220.0, abs=1e-9)


def test_cross_term_vanishes_for_lonely_sets():
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        S = random_lonely(rng, n, n + int(rng.integers(0, 4)))
        H = rng.standard_normal((n, n))
        H = H + H.T
        assert cross_term_sum(S, H) == 0.0


def _triple_sum(S, H):
    """sum_j |sum_{i<m} shat_ij H_im shat_mj|, written out pair by pair."""
    i, m = np.triu_indices(S.n, 1)
    shat = S.unit_directions()
    return sum(abs(float((shat[i, j] * H[i, m] * shat[m, j]).sum())) for j in range(S.k))


def test_cross_term_matches_triple_sum():
    rng = np.random.default_rng(16)
    for n in (2, 3, 10, 200):
        for _ in range(3 if n == 200 else 10):
            S = SampleDirections(rng.standard_normal((n, n + int(rng.integers(0, 3)))))
            assert not S.is_lonely()
            H = rng.standard_normal((n, n))
            H = H + H.T
            assert cross_term_sum(S, H) == pytest.approx(_triple_sum(S, H), rel=1e-12)
    # The paper's sets and a custom set of their pattern take the row-sum form.
    for n in (2, 3, *rng.integers(4, 61, size=8)):
        H = rng.standard_normal((n, n))
        H = H + H.T
        h = 10.0 ** rng.uniform(-6.0, 1.0)
        d, b, c = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        pattern = np.full((n, n + 1), b)
        np.fill_diagonal(pattern, d)
        pattern[:, n] = c
        custom = [SampleDirections(h * pattern), SampleDirections(h * pattern[:, :n])]
        for S in [*(build_set(kind, n, h) for kind in SetKind if kind is not SetKind.CUSTOM),
                  *custom]:
            assert cross_term_sum(S, H) == pytest.approx(_triple_sum(S, H), rel=1e-12)
        for S in (build_set(SetKind.CB, n, h), SampleDirections(d * h * np.eye(n))):
            assert S.is_lonely() and cross_term_sum(S, H) == 0.0


def test_cross_term_scale_invariance():
    H = get("rosenbrock2").hessian(X1)
    base = build_set(SetKind.RMPB, 2, 1.0)
    ref = cross_term_sum(base, H)
    for h in [1e-4, 0.3, 7.0]:
        assert cross_term_sum(base.scaled(h), H) == pytest.approx(ref, rel=1e-12)


def test_error_bound_cb():
    # Wtilde is the identity: pinv norm 1 and the lonely-set form applies
    L, h = 3.0, 0.25
    bb = error_bound(build_set(SetKind.CB, 2, h), L, np.diag([1.0, 2.0]))
    assert bb.pinv_norm == pytest.approx(1.0, rel=1e-12)
    assert bb.cross_term == 0.0
    assert bb.lipschitz_term == pytest.approx((2 / 12) * L * h * h, rel=1e-12)
    assert bb.corollary_total == pytest.approx(np.sqrt(2.0) / 12 * L * h * h, rel=1e-12)
    assert bb.total == pytest.approx(bb.pinv_norm * bb.lipschitz_term, rel=1e-12)


def test_error_bound_total_composition():
    rosen = get("rosenbrock2")
    S = build_set(SetKind.CMPB, 2, 0.01)
    bb = error_bound(S, 2400.0, rosen.hessian(X1))
    assert bb.cross_term == pytest.approx(440.0, abs=1e-9)
    assert bb.total == pytest.approx(bb.pinv_norm * (bb.lipschitz_term + bb.cross_term), rel=1e-14)
    assert bb.corollary_total is None  # CMPB is not lonely


def test_corollary_no_larger_than_total():
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        S = random_lonely(rng, n, n + int(rng.integers(0, 3)))
        H = rng.standard_normal((n, n))
        H = H + H.T
        bb = error_bound(S, rng.uniform(0.0, 10.0), H)
        assert bb.corollary_total is not None
        assert bb.corollary_total <= bb.total * (1 + 1e-12)


def test_error_bound_rejects_rank_deficient_w():
    S = SampleDirections(np.array([[1.0, -1.0], [1.0, 1.0]]))  # squares coincide
    with pytest.raises(BoundInapplicableError):
        error_bound(S, 1.0, np.eye(2))


def test_error_bound_rejects_bad_inputs():
    S = build_set(SetKind.CB, 2, 1.0)
    with pytest.raises(ParameterError):
        error_bound(S, -1.0, np.eye(2))
    with pytest.raises(ParameterError):
        error_bound(S, 1.0, np.array([[0.0, 1.0], [2.0, 0.0]]))  # not symmetric


def test_relative_error_basics():
    t = np.array([3.0, 4.0])
    assert relative_error(t, t) == 0.0
    assert relative_error(np.array([3.0, 5.0]), t) == pytest.approx(0.2)
    with pytest.raises(ParameterError):
        relative_error(np.ones(2), np.zeros(2))
    assert absolute_error(np.ones(2), np.zeros(2)) == pytest.approx(np.sqrt(2.0))


def test_bound_dominates_true_error():
    # with a certified Lipschitz constant the bound is an actual upper bound
    # whenever truncation still dominates round-off
    cases = {
        "rosenbrock2": [X1, np.array([0.9, 0.81])],
        "quartic2": [np.array([0.7, -1.2])],
        "bilinear2": [np.array([0.5, -0.8])],
    }
    checked = 0
    for fname, points in cases.items():
        func = get(fname)
        for pt in points:
            truth = func.diag_hessian(pt)
            for kind in (SetKind.CB, SetKind.RB, SetKind.CMPB, SetKind.RMPB):
                for h in (1e-1, 1e-2, 1e-3):
                    S = build_set(kind, func.dim, h)
                    bb = error_bound(S, func.lipschitz_d3(pt, S.radius), func.hessian(pt))
                    st = evaluate_stencil(func.fn, pt, S)
                    if bb.total < 100 * EPS * abs(st.f0) / S.radius**2:
                        continue  # bound below the round-off floor: skip
                    err = absolute_error(centered_hessian_diagonal(st, S).value, truth)
                    assert err <= bb.total
                    checked += 1
    assert checked >= 40


def test_convergence_order_exact_slopes():
    hs = [1e-1, 1e-2, 1e-3, 1e-4]
    assert convergence_order(hs, [3.0 * h**2 for h in hs]) == pytest.approx(2.0, abs=1e-10)
    assert convergence_order(hs, [0.7] * 4) == pytest.approx(0.0, abs=1e-10)


def test_convergence_order_rosenbrock_sweep():
    rosen = get("rosenbrock2")
    hs = [1e-1, 1e-2, 1e-3]
    errs = []
    for h in hs:
        S = build_set(SetKind.CB, 2, h)
        st = evaluate_stencil(rosen.fn, X1, S)
        errs.append(absolute_error(centered_hessian_diagonal(st, S).value, rosen.diag_hessian(X1)))
    assert 1.9 <= convergence_order(hs, errs) <= 2.1


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    log_h0=st.floats(-8.0, 2.0),
    steps=st.lists(st.floats(0.01, 0.5), min_size=2, max_size=60),
    order=st.floats(0.5, 4.0) | st.floats(-4.0, -0.5),
    log_c=st.floats(-20.0, 20.0),
    noise=st.floats(0.0, 0.1),
    seed=st.integers(0, 2**32 - 1),
)
def test_convergence_order_agrees_with_polyfit(log_h0, steps, order, log_c, noise, seed):
    log_h = log_h0 - np.cumsum([0.0, *steps])
    hs = 10.0 ** log_h
    # Noise in log(error) up to 10% of the fitted rise keeps the slope away
    # from 0, where a relative comparison would measure only round-off.
    spread = noise * abs(order) * np.log(10.0) * (log_h[0] - log_h[-1])
    jitter = spread * np.random.default_rng(seed).standard_normal(hs.size)
    errors = np.exp(log_c + order * np.log(hs) + jitter)
    ref = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
    assert convergence_order(hs, errors) == pytest.approx(ref, rel=1e-12)


def test_convergence_order_validation():
    with pytest.raises(ParameterError):
        convergence_order([1e-1, 1e-2], [1.0, 2.0])
    with pytest.raises(ParameterError):
        convergence_order([1e-1, 1e-2, 1e-3], [1.0, 0.0, 1.0])
    with pytest.raises(ParameterError):
        convergence_order([1e-3, 1e-2, 1e-1], [1.0, 1.0, 1.0])
    with pytest.raises(ParameterError):
        convergence_order([1e-1, -1e-2, 1e-3], [1.0, 1.0, 1.0])
    # Adjacent doubles near 1e300 have the same logarithm.
    hs = [1e300, np.nextafter(1e300, 0.0), np.nextafter(np.nextafter(1e300, 0.0), 0.0)]
    with pytest.raises(ParameterError, match="round-off"):
        convergence_order(hs, [1.0, 2.0, 3.0])


def test_fd_oracles_match_analytic_derivatives():
    rng = np.random.default_rng(17)
    rosen = get("rosenbrock2")
    for _ in range(5):
        x = np.array([1.0, 1.0]) + 0.3 * rng.standard_normal(2)
        assert np.allclose(fd_gradient(rosen.fn, x), rosen.gradient(x), rtol=1e-6, atol=1e-6)
        assert np.allclose(fd_hessian(rosen.fn, x), rosen.hessian(x), rtol=1e-6, atol=1e-4)
        assert np.allclose(fd_diag_hessian(rosen.fn, x), rosen.diag_hessian(x), rtol=1e-6)


def test_fd_third_tensor_on_known_cubic():
    # f = y0^3 + y0 y1 y2: T[0,0,0] = 6, T[0,1,2] = 1 (all permutations)
    f = lambda y: float(y[0] ** 3 + y[0] * y[1] * y[2])
    x = np.array([0.5, -0.2, 0.8])
    T = fd_third_tensor(f, x)
    assert T[0, 0, 0] == pytest.approx(6.0, rel=1e-5)
    for p in [(0, 1, 2), (1, 0, 2), (2, 1, 0)]:
        assert T[p] == pytest.approx(1.0, rel=1e-5)
    assert T[1, 1, 1] == pytest.approx(0.0, abs=1e-6)


def test_lipschitz_oracle_cubic_is_tiny():
    f = lambda y: float(y[0] ** 3 + y[1] ** 3 - 2.0 * y[0] * y[1])
    assert lipschitz_oracle(f, np.zeros(2), 0.5) <= 1e-4


def test_lipschitz_oracle_quartic_window():
    est = lipschitz_oracle(lambda y: float(y[0] ** 4), np.zeros(1), 1.0)
    assert 20.0 <= est <= 24.5
    est2 = lipschitz_oracle(lambda y: float(y[0] ** 4), np.zeros(2), 1.0)
    assert 20.0 <= est2 <= 24.5


def test_lipschitz_oracle_expprod_positive_and_below_certificate():
    func = get("expprod3")
    x0 = np.array([3.0, 2.0, 1.0])
    est = lipschitz_oracle(func.fn, x0, 0.1)
    assert np.isfinite(est) and est > 0.0
    assert est <= func.lipschitz_d3(x0, 0.1)


def test_lipschitz_oracle_validation():
    with pytest.raises(ParameterError):
        lipschitz_oracle(lambda y: 0.0, np.zeros(2), 0.0)
    with pytest.raises(ParameterError):
        lipschitz_oracle(lambda y: 0.0, np.zeros(2), 1.0, samples=0)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cshd.exceptions import DimensionError, ParameterError
from cshd.linalg import as_matrix, as_vector, pinv_factors, pseudoinverse, svd_rank

from helpers import random_conditioned
from oracles import qr_pinv_apply


def penrose_residuals(A, P):
    return [
        np.linalg.norm(A @ P @ A - A),
        np.linalg.norm(P @ A @ P - P),
        np.linalg.norm((A @ P).T - A @ P),
        np.linalg.norm((P @ A).T - P @ A),
    ]


def test_pinv_identity():
    assert np.allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-14)


def test_pinv_diagonal_with_zero():
    # reciprocal of the nonzero entries, zero stays zero
    A = np.array([[2.0, 0.0], [0.0, 0.0]])
    assert np.allclose(pseudoinverse(A), [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)


def test_pinv_wide_ones():
    A = np.array([[1.0, 1.0]])
    P = pseudoinverse(A)
    assert P.shape == (2, 1)
    assert np.allclose(P, [[0.5], [0.5]], atol=1e-14)
    assert max(penrose_residuals(A, P)) <= 1e-12


def test_penrose_identities_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        A = rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        P = pseudoinverse(A)
        tol = 1e-10 * (1.0 + np.linalg.norm(A))
        assert max(penrose_residuals(A, P)) <= tol


def test_pinv_square_full_rank_is_inverse():
    rng = np.random.default_rng(2)
    for n in range(1, 7):
        A = random_conditioned(rng, n, n)
        P = pseudoinverse(A)
        assert np.linalg.norm(P @ A - np.eye(n)) <= 1e-10
        assert np.linalg.norm(A @ P - np.eye(n)) <= 1e-10


def test_pinv_full_row_rank_right_inverse():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        k = n + int(rng.integers(1, 5))
        A = random_conditioned(rng, n, k)
        assert np.linalg.norm(A @ pseudoinverse(A) - np.eye(n)) <= 1e-10


def test_pinv_rejects_nonfinite():
    with pytest.raises(ValueError):
        pseudoinverse(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        pseudoinverse(np.array([[1.0, np.inf], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_a_parameter_error(bad):
    with pytest.raises(ParameterError, match="^matrix contains NaN or infinite entries$"):
        as_matrix([[1.0, bad]])
    with pytest.raises(ParameterError, match="^vector contains NaN or infinite entries$"):
        as_vector([bad, 1.0])


def test_svd_rank():
    _, r = svd_rank(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert r == 1
    _, r = svd_rank(np.eye(3))
    assert r == 3


def _rel_err(a, truth):
    return float(np.linalg.norm(a - truth) / np.linalg.norm(truth))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    n=st.integers(2, 60),
    extra=st.floats(0.0, 1.0),
    log_kappa=st.floats(1.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_qr_route_is_as_accurate_as_the_explicit_q(n, extra, log_kappa, seed):
    # A = u diag(s) v^T with s from 1 down to 1 / kappa, k from n + 1 to 2n.
    rng = np.random.default_rng(seed)
    k = n + 1 + int(extra * (n - 1))
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((k, n)))[0]
    kappa = 10.0**log_kappa
    A = (u * np.logspace(0.0, -log_kappa, n)) @ v.T
    factors = pinv_factors(A)
    assert factors.rank == n
    P = np.linalg.pinv(A)
    # Random rows, and rows in the range of A^T, where the least-squares
    # residual vanishes and the semi-normal equations alone lose accuracy.
    random_rows, range_rows = rng.standard_normal((3, k)), rng.standard_normal((3, n)) @ A
    for got, b in ((factors.apply(random_rows), random_rows), (factors.apply(range_rows), range_rows),
                   (factors.apply(np.eye(k)), np.eye(k))):
        truth = b @ P
        # The reference's own error often falls far below the least-squares
        # perturbation scale eps kappa (1 + kappa ||b - y A|| / ||y||), so
        # either bounds the route's error.
        scale = np.finfo(float).eps * kappa * (
            1.0 + kappa * np.linalg.norm(b - truth @ A) / np.linalg.norm(truth))
        assert _rel_err(got, truth) <= 4.0 * max(_rel_err(qr_pinv_apply(A, b), truth), scale)


def test_factors_do_not_follow_writes_to_the_input():
    rng = np.random.default_rng(4)
    A = random_conditioned(rng, 5, 8)
    rows = rng.standard_normal((2, 8))
    factors = pinv_factors(A)
    assert factors.qr is not None and factors.qr[0] is not A
    before = factors.apply(rows)
    A[...] = rng.standard_normal(A.shape)
    assert A.flags.writeable
    assert np.array_equal(factors.apply(rows), before)
    # A frozen input is copied too: a view taken before it was frozen still writes to it.
    view = A[:]
    A.flags.writeable = False
    factors = pinv_factors(A)
    before = factors.apply(rows)
    view[...] = 0.0
    assert np.array_equal(factors.apply(rows), before)

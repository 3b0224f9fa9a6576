import numpy as np
import pytest

from cshd.exceptions import DimensionError
from cshd.linalg import pseudoinverse, svd_rank

from helpers import random_conditioned


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


def test_svd_rank():
    _, r = svd_rank(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert r == 1
    _, r = svd_rank(np.eye(3))
    assert r == 3

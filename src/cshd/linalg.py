"""Dense real-matrix primitives: input validation, and the pseudoinverse and
numerical rank with one cutoff rule.

The pseudoinverse is factored by the first of three routes that applies:

* the closed form, for the pattern shared by the paper's four direction
  sets and their squares: an n x n matrix with one value on the diagonal
  and one off it, optionally followed by a constant column;
* a QR factorization A^T = q r, for any other n x k matrix with k >= n,
  with the singular values of the triangle r (they are those of A);
* one SVD with U and V, for everything else.

The first two apply only when every one of the n singular values lies above
the cutoff, so the SVD decides every rank-deficient matrix and the cutoff
stays the only rank rule.  The QR route leaves the pseudoinverse unformed:
applying pinv(A^T) = r^-1 q^T to stencil data is a product with q^T and a
triangular solve, while forming pinv(A) would cost most of what the route
saves over the SVD.

Everything operates on plain numpy arrays.  Inputs are validated once at the
boundary (finite entries, expected dimensionality); all functions are pure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exceptions import DimensionError, ParameterError

__all__ = [
    "as_matrix",
    "as_vector",
    "pseudoinverse",
    "PinvFactors",
    "pinv_factors",
    "svd_rank",
]

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate *a* as a nonempty finite 2-d float array."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionError(f"{name} must be a nonempty 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} contains NaN or infinite entries")
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate *a* as a nonempty finite 1-d float array."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"{name} must be a nonempty 1-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} contains NaN or infinite entries")
    return arr


def _svd_cutoff(shape: tuple[int, int], singular_values: np.ndarray) -> float:
    # Rank cutoff max(n, k) * sigma_max * eps, the usual SVD truncation rule.
    smax = float(singular_values[0]) if singular_values.size else 0.0
    return max(shape) * _EPS * smax


class PinvFactors(NamedTuple):
    """The factors of pinv(A) for an n x k matrix A.

    ``pinv`` is pinv(A) itself on the closed-form and SVD routes.  On the QR
    route it is None and ``qr`` holds ``(q, r)`` with A^T = q r, q k x n with
    orthonormal columns and r n x n upper triangular and nonsingular, so
    pinv(A) = q r^-T.
    """

    pinv: np.ndarray | None
    singular_values: np.ndarray  # descending
    rank: int                    # singular values above the cutoff
    qr: tuple[np.ndarray, np.ndarray] | None = None

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """``rows @ pinv(A)`` for an (m, k) array: pinv(A^T) applied to every row."""
        if self.qr is None:
            return rows @ self.pinv
        q, r = self.qr
        return np.linalg.solve(r, q.T @ rows.T).T

    def pseudoinverse(self) -> np.ndarray:
        """pinv(A), formed from the QR factors if it is not kept."""
        if self.qr is None:
            return self.pinv
        q, r = self.qr
        return np.linalg.solve(r, q.T).T


def _patterned_factors(A: np.ndarray) -> PinvFactors | None:
    # A is d on the diagonal and b off it, plus a column of c when k = n + 1.
    # Then A A^T = p I + ((big - p) / n) 11^T: singular values sqrt(big) once
    # and sqrt(p) n - 1 times, and Sherman-Morrison gives A^T (A A^T)^-1.
    n, k = A.shape
    if n < 2 or k not in (n, n + 1):
        return None
    d, b = float(A[0, 0]), float(A[1, 0])
    c = float(A[0, n]) if k > n else 0.0
    pattern = np.full((n, k), b)
    np.fill_diagonal(pattern, d)
    if k > n:
        pattern[:, n] = c
    if not np.array_equal(A, pattern):
        return None
    q = d - b
    r = q + n * b
    p, big = q * q, r * r + n * c * c
    s = np.sqrt(np.sort(np.append(np.full(n - 1, p), big))[::-1])
    if not (min(p, big) >= _TINY and s[-1] > _svd_cutoff(A.shape, s)):
        return None  # rank deficient, or p or big not a normal double: the SVD decides
    pinv = A - ((big - p) / n / big) * A.sum(axis=0)
    pinv /= p
    return PinvFactors(pinv.T, s, n)


def _qr_factors(A: np.ndarray) -> PinvFactors | None:
    # A^T = q r with q orthonormal, so r has the singular values of A.
    n, k = A.shape
    if k < n:
        return None
    q, r = np.linalg.qr(A.T)
    s = np.linalg.svd(r, compute_uv=False)
    if not s[-1] > _svd_cutoff(A.shape, s):
        return None  # rank deficient: the SVD decides
    return PinvFactors(None, s, n, (q, r))


def pinv_factors(A) -> PinvFactors:
    """Factors of the pseudoinverse, singular values and numerical rank of *A*.

    Singular values at or below ``max(n, k) * sigma_max * eps`` are treated
    as zero, so rank-deficient input yields the least-squares /
    minimum-norm inverse.  A patterned matrix of full row rank (see the
    module docstring) is factored in closed form, any other of full row
    rank by QR with the pseudoinverse left unformed, and the rest by one
    SVD.
    """
    A = as_matrix(A)
    factors = _patterned_factors(A) or _qr_factors(A)
    if factors is not None:
        return factors
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    keep = s > _svd_cutoff(A.shape, s)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return PinvFactors((vt.T * inv) @ u.T, s, int(np.count_nonzero(keep)))


def pseudoinverse(A) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a dense real matrix (see
    :func:`pinv_factors` for the rank cutoff)."""
    return pinv_factors(A).pseudoinverse()


def svd_rank(A) -> tuple[np.ndarray, int]:
    """Singular values of *A* and its numerical rank (same cutoff as
    :func:`pseudoinverse`)."""
    A = as_matrix(A)
    s = np.linalg.svd(A, compute_uv=False)
    return s, int(np.count_nonzero(s > _svd_cutoff(A.shape, s)))

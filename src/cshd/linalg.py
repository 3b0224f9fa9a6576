"""Dense real-matrix primitives: input validation, and the pseudoinverse and
numerical rank from one SVD with one cutoff rule.

Everything operates on plain numpy arrays.  Inputs are validated once at the
boundary (finite entries, expected dimensionality); all functions are pure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exceptions import DimensionError

__all__ = [
    "as_matrix",
    "as_vector",
    "pseudoinverse",
    "PinvFactors",
    "pinv_factors",
    "svd_rank",
]

_EPS = float(np.finfo(float).eps)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate *a* as a nonempty finite 2-d float array."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionError(f"{name} must be a nonempty 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite entries")
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate *a* as a nonempty finite 1-d float array."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DimensionError(f"{name} must be a nonempty 1-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite entries")
    return arr


def _svd_cutoff(shape: tuple[int, int], singular_values: np.ndarray) -> float:
    # Rank cutoff max(n, k) * sigma_max * eps, the usual SVD truncation rule.
    smax = float(singular_values[0]) if singular_values.size else 0.0
    return max(shape) * _EPS * smax


class PinvFactors(NamedTuple):
    pinv: np.ndarray             # Moore-Penrose pseudoinverse
    singular_values: np.ndarray  # descending, as returned by the SVD
    rank: int                    # singular values above the cutoff


def pinv_factors(A) -> PinvFactors:
    """Pseudoinverse, singular values and numerical rank of *A* from one SVD.

    Singular values at or below ``max(n, k) * sigma_max * eps`` are treated
    as zero, so rank-deficient input yields the least-squares /
    minimum-norm inverse.
    """
    A = as_matrix(A)
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    keep = s > _svd_cutoff(A.shape, s)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return PinvFactors((vt.T * inv) @ u.T, s, int(np.count_nonzero(keep)))


def pseudoinverse(A) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a dense real matrix (see
    :func:`pinv_factors` for the rank cutoff)."""
    return pinv_factors(A).pinv


def svd_rank(A) -> tuple[np.ndarray, int]:
    """Singular values of *A* and its numerical rank (same cutoff as
    :func:`pseudoinverse`)."""
    A = as_matrix(A)
    s = np.linalg.svd(A, compute_uv=False)
    return s, int(np.count_nonzero(s > _svd_cutoff(A.shape, s)))

"""Dense real-matrix primitives: input validation, and the pseudoinverse and
numerical rank with one cutoff rule.

The pseudoinverse is factored by the first of three routes that applies:

* the closed form, for the pattern shared by the paper's four direction
  sets and their squares: an n x n matrix with one value d on the diagonal
  and one b off it, optionally followed by a constant column of c.  The
  factors keep four scalars and form no pinv(A): a row r of stencil data
  maps to (Pd - Pb) r_i + Pb sum_{j<n} r_j + Pc r_n, O(k) per row.  A
  caller that knows the pattern, as a direction set does for itself and its
  square, passes (d, b, c), and A need not exist;
* the triangle r of a QR factorization A^T = q r, for any other n x k
  matrix with k >= n, and x = r^-1.  As A A^T = r^T r, pinv(A) = A^T x x^T,
  applied with no q by Bjorck's corrected semi-normal equations (CSNE;
  Linear Algebra Appl. 88/89, 1987): g = rows A^T x x^T plus one step with
  the residual rows - g A, as accurate as applying q while kappa^2 eps is small;
* one SVD with U and V, for everything else.

The QR route applies only when it certifies full rank with room to spare:
kappa_F = ||r||_F ||x||_F >= sigma_max / sigma_n below 1 / sqrt(max(n, k)
eps), the square root of the cutoff's margin, so kappa^2 eps < 1 / max(n, k)
for CSNE; the norms are taken again at r / max |r_ij| when their product
leaves the double range, so the certificate does not depend on A's scale.
The closed form applies only when all n singular values lie above the
cutoff.  So the SVD decides every rank-deficient or ill-conditioned matrix,
and the cutoff stays the only rank rule.

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
    "diagonal_pattern",
    "pseudoinverse",
    "PinvFactors",
    "pinv_factors",
    "svd_rank",
]

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _as_array(a, ndim: int, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != ndim or arr.size == 0:
        raise DimensionError(f"{name} must be a nonempty {ndim}-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} contains NaN or infinite entries")
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate *a* as a nonempty finite 2-d float array."""
    return _as_array(a, 2, name)


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate *a* as a nonempty finite 1-d float array."""
    return _as_array(a, 1, name)


def _svd_cutoff(shape: tuple[int, int], smax: float) -> float:
    # Rank cutoff max(n, k) * sigma_max * eps, the usual SVD truncation rule.
    return max(shape) * _EPS * smax


def _invert_upper(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # inv([[a, b], [0, c]]) = [[ai, -ai b ci], [0, ci]]: matrix products, with
    # np.linalg.inv (a general LU) only on blocks of at most 32 rows.
    n = r.shape[0]
    x = np.zeros_like(r) if out is None else out
    if n <= 32:
        x[...] = np.linalg.inv(r)
        return x
    m = n // 2
    ai, ci = _invert_upper(r[:m, :m], x[:m, :m]), _invert_upper(r[m:, m:], x[m:, m:])
    x[:m, m:] = -(ai @ r[:m, m:]) @ ci
    return x


class PinvFactors(NamedTuple):
    """The factors of pinv(A) for an n x k matrix A.

    ``sigma`` is the n-th singular value of A (0 when k < n) on the
    closed-form and SVD routes.  On the SVD route ``pinv`` is pinv(A)
    itself.  On the closed-form route ``closed`` holds ``(n, Pd - Pb, Pb,
    Pc)``, the scalars of pinv(A)'s pattern, and no array is kept.  On the
    QR route ``pinv`` and ``sigma`` are None and ``qr`` holds ``(A, x)``,
    with A read-only and x = r^-1 for A^T = q r, so pinv(A) = A^T x x^T.
    """

    pinv: np.ndarray | None
    rank: int                    # singular values above the cutoff
    sigma: float | None = None
    qr: tuple[np.ndarray, np.ndarray] | None = None
    closed: tuple[int, float, float, float] | None = None

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """``rows @ pinv(A)`` for an (m, k) array: pinv(A^T) applied to every row."""
        if self.closed is not None:
            # Entry i of a row r is (Pd - Pb) r_i + Pb sum_{j<n} r_j + Pc r_n.
            n, diff, pb, pc = self.closed
            head = rows[..., :n]
            out = head * diff
            if pb:  # cb's Pb is an exact 0: its rows come out as head * Pd, bit for bit
                out += pb * head.sum(axis=-1, keepdims=True)
            if rows.shape[-1] > n:
                out += pc * rows[..., n:]
            return out
        if self.qr is None:
            return rows @ self.pinv
        a, x = self.qr
        g = ((rows @ a.T) @ x) @ x.T  # CSNE, refined once by the residual rows - g A
        return g + (((rows - g @ a) @ a.T) @ x) @ x.T

    def sigma_n(self) -> float:
        """sigma_n(A), 0 when k < n; on the QR route a lower bound within 1e-13
        of it, relative, or 1 / sigma_1(x) when 40 power steps certify nothing."""
        if self.qr is None:
            return self.sigma
        _, x = self.qr
        # Power iteration on M = x^T x, whose largest eigenvalue is 1 / sigma_n^2.
        # For a unit v, theta = v^T M v <= lambda_1 and, as the eigenvalues sum
        # to ||x||_F^2 and their squares to ||M||_F^2, lambda_2 <= eta =
        # min(||x||_F^2 - theta, sqrt(||M||_F^2 - theta^2)).  When theta > eta,
        # Kato-Temple bounds lambda_1 by theta + rho^2 / (theta - eta), rho = ||M v - theta v||.
        with np.errstate(all="ignore"):  # x may overflow here; the SVD then decides
            trace, frob2, scale = float(np.vdot(x, x)), None, 1.0
            if not 0.0 < trace * trace < np.inf:
                # The squares of M left the double range: iterate on x / scale,
                # as sigma_1(x) = scale sigma_1(x / scale).
                scale = float(np.abs(x).max())
                x = x / scale
                trace = float(np.vdot(x, x))
            u = x[np.argmax(np.einsum("ij,ij->i", x, x))]  # the longest row of x
            for step in range(40):
                v = u / np.linalg.norm(u)
                w = x @ v
                theta, u = float(w @ w), x.T @ w
                rho, eta = float(np.linalg.norm(u - theta * v)), trace - theta
                if frob2 is None and step >= 3 and eta >= theta:  # the trace bound stalled
                    m = x.T @ x
                    frob2 = float(np.vdot(m, m))
                if frob2 is not None:
                    eta = min(eta, np.sqrt(max(frob2 - theta * theta, 0.0)))
                gap = theta - eta
                if gap > 0.0 and rho * rho <= 1e-13 * theta * gap:
                    return 1.0 / (scale * np.sqrt(theta + rho * rho / gap))
        return 1.0 / (scale * float(np.linalg.svd(x, compute_uv=False)[0]))


def diagonal_pattern(A: np.ndarray) -> tuple[float, float, float] | None:
    """``(d, b, c)`` when the n x k matrix *A* (n >= 2) is d on the diagonal
    and b off it, followed by a constant column of c when k = n + 1 (c is 0
    when k = n); otherwise None."""
    n, k = A.shape
    if n < 2 or k not in (n, n + 1):
        return None
    d, b = float(A[0, 0]), float(A[1, 0])
    c = float(A[0, n]) if k > n else 0.0
    # Through views of A: the off-diagonal entries are b when n (n - 1) are, besides the diagonal.
    square, diagonal = A[:, :n], np.diagonal(A)
    if not ((diagonal == d).all() and (k == n or (A[:, n] == c).all())
            and np.count_nonzero(square == b) == n * (n - 1) + n * (d == b)):
        return None
    return d, b, c


def _closed_factors(shape: tuple[int, int], pattern) -> PinvFactors | None:
    # For an n x k matrix A of the pattern (d, b, c) (see diagonal_pattern),
    # A A^T = p I + ((big - p) / n) 11^T: singular values sqrt(big) once and
    # sqrt(p) n - 1 times, and Sherman-Morrison gives pinv(A) = A^T (A A^T)^-1,
    # whose entry (j, i) is (A_ij - beta s_j) / p for the column sums s_j.
    if pattern is None:
        return None
    d, b, c = pattern
    n = shape[0]
    q = d - b
    r = q + n * b
    p, big = q * q, r * r + n * c * c
    lo, hi = sorted((p, big))
    if not (lo >= _TINY and np.sqrt(lo) > _svd_cutoff(shape, np.sqrt(hi))):
        return None  # rank deficient, or p or big not a normal double: QR or the SVD decides
    beta = (big - p) / n / big
    s = d + (n - 1) * b
    pd, pb, pc = (d - beta * s) / p, (b - beta * s) / p, (c - beta * (n * c)) / p
    return PinvFactors(None, n, float(np.sqrt(lo)), closed=(n, pd - pb, pb, pc))


def _qr_factors(A: np.ndarray) -> PinvFactors | None:
    # A^T = q r with q orthonormal, so r has the singular values of A.
    n, k = A.shape
    if k < n:
        return None
    r = np.linalg.qr(A.T, mode="r")
    if not r.diagonal().all():
        return None  # r is singular: the SVD decides
    with np.errstate(all="ignore"):
        x = _invert_upper(r)
        kappa_f = float(np.linalg.norm(r) * np.linalg.norm(x))
        if not 0.0 < kappa_f < np.inf:
            # The squares of r or x left the double range; the norms are taken
            # at scale = max |r_ij|, as ||r|| ||x|| = ||r / scale|| ||scale x||.
            scale = float(np.abs(r).max())
            kappa_f = float(np.linalg.norm(r / scale) * np.linalg.norm(x * scale))
    if not kappa_f * np.sqrt(max(n, k) * _EPS) < 1.0:
        return None  # full rank with kappa^2 eps small for CSNE is not certified: the SVD decides
    A.flags.writeable = False
    return PinvFactors(None, n, None, (A, x))


def _unpatterned_factors(A: np.ndarray) -> PinvFactors:
    # The QR route when it is certified, else one full SVD; A is not copied.
    factors = _qr_factors(A)
    if factors is not None:
        return factors
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    keep = s > _svd_cutoff(A.shape, s[0])
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    sigma_n = float(s[-1]) if s.size == A.shape[0] else 0.0
    return PinvFactors((vt.T * inv) @ u.T, int(np.count_nonzero(keep)), sigma_n)


def _pinv_factors(A: np.ndarray) -> PinvFactors:
    # pinv_factors for a finite 2-d float array that the factors may keep as it is.
    return _closed_factors(A.shape, diagonal_pattern(A)) or _unpatterned_factors(A)


def pinv_factors(A) -> PinvFactors:
    """Factors of the pseudoinverse of *A*, its numerical rank and sigma_n.

    Singular values at or below ``max(n, k) * sigma_max * eps`` are treated
    as zero, so rank-deficient input yields the least-squares /
    minimum-norm inverse.  A patterned matrix of full row rank (see the
    module docstring) is factored in closed form, as four scalars, a
    certified one by QR with the pseudoinverse left unformed, and the rest
    by one SVD.  The factors keep a copy of *A*, never *A* itself.
    """
    return _pinv_factors(as_matrix(np.array(A, dtype=float)))


def pseudoinverse(A) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a dense real matrix (see
    :func:`pinv_factors` for the rank cutoff)."""
    return pinv_factors(A).apply(np.eye(np.shape(A)[1]))


def svd_rank(A) -> tuple[np.ndarray, int]:
    """Singular values of *A* and its numerical rank (same cutoff as
    :func:`pseudoinverse`)."""
    A = as_matrix(A)
    s = np.linalg.svd(A, compute_uv=False)
    return s, int(np.count_nonzero(s > _svd_cutoff(A.shape, s[0])))

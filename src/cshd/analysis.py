"""Error analysis for the centered simplex Hessian diagonal.

Contains the error bound with its component breakdown, relative/absolute
errors, and convergence-order fitting.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .calculus import StencilPlan
from .exceptions import BoundInapplicableError, DimensionError, ParameterError
from .linalg import as_matrix, as_vector
from .sets import SampleDirections

__all__ = [
    "BoundBreakdown",
    "cross_term_sum",
    "error_bound",
    "plan_error_bound",
    "relative_error",
    "absolute_error",
    "convergence_order",
]


class BoundBreakdown(NamedTuple):
    """The Hessian-diagonal error bound split into its factors.

    ``total = pinv_norm * (lipschitz_term + cross_term)`` where

    * ``pinv_norm``      = ||pinv(Wtilde^T)|| with Wtilde = (S .* S) / radius^2,
    * ``lipschitz_term`` = (k / 12) * L * radius^2 for a Lipschitz bound L of
      the third derivative on the stencil ball,
    * ``cross_term``     = 2 * sum_i |shat_i^T U shat_i| with U the strictly
      upper part of the true Hessian and shat_i the radius-normalized
      directions.

    For lonely direction sets the cross term vanishes and the tighter
    ``corollary_total = pinv_norm * (sqrt(k) / 12) * L * radius^2`` applies.
    """

    pinv_norm: float
    lipschitz_term: float
    cross_term: float
    total: float
    corollary_total: float | None = None


def _validated_hessian(S: SampleDirections, hess) -> np.ndarray:
    """(H + H^T) / 2 in a fresh array, once H is known to be symmetric."""
    H = as_matrix(hess, "hessian")
    if H.shape != (S.n, S.n):
        raise DimensionError(f"hessian shape {H.shape} does not match directions in R^{S.n}")
    scale = 1.0 + max(float(H.max()), -float(H.min()))
    sym = np.subtract(H, H.T)
    if max(float(sym.max()), -float(sym.min())) > 1e-8 * scale:
        raise ParameterError("hessian must be symmetric")
    np.add(H, H.T, out=sym)
    sym *= 0.5
    return sym


def cross_term_sum(S: SampleDirections, hess) -> float:
    """sum_i |shat_i^T U shat_i| over the radius-normalized directions.

    Scale invariant: replacing S by h*S leaves the value unchanged.  For a
    set of the paper's pattern (d on the diagonal, b off it and an optional
    constant column of c; see :attr:`~cshd.sets.SampleDirections.pattern`) it
    takes O(n^2) work from the Hessian's row sums: with off_i = sum_{j != i}
    H_ij and T = sum(off) / 2, the term of column i is (d - b) b off_i + b^2 T
    and that of the constant column c^2 T, over radius^2.  Any other set
    takes one n x n x k product.
    """
    H = _validated_hessian(S, hess)
    if S.pattern is not None:
        d, b, c = (v / S.radius for v in S.pattern)
        off = H.sum(axis=1) - H.diagonal()
        t = float(off.sum()) / 2.0
        terms = abs(c * c * t) if S.k > S.n else 0.0
        if b != 0.0:  # b = 0 leaves the square columns exactly 0, a lonely set's value
            terms += float(np.abs((d - b) * b * off + b * b * t).sum())
        return terms
    H[np.tri(S.n, dtype=bool)] = 0.0  # U, the strictly upper part of H
    shat = S.unit_directions()
    vals = H @ shat
    vals *= shat
    return float(np.abs(vals.sum(axis=0)).sum())


def error_bound(S: SampleDirections, lipschitz: float, hess_at_x0) -> BoundBreakdown:
    """Bound on ``||estimate - diag(true Hessian)||`` for the centered
    simplex Hessian diagonal over S.

    ``lipschitz`` must bound the Lipschitz constant of the third derivative
    on the ball of the stencil radius around the point of interest.  Raises
    :class:`BoundInapplicableError` when W = S .* S lacks full row rank.
    """
    cross = 2.0 * cross_term_sum(S, hess_at_x0)
    return plan_error_bound(StencilPlan(S), S.radius, lipschitz, cross)


def plan_error_bound(
    plan: StencilPlan, radius: float, lipschitz: float, cross_term: float
) -> BoundBreakdown:
    """:func:`error_bound` over the plan's set scaled to ``radius``.

    ``cross_term`` is ``2 * cross_term_sum(S, hess_at_x0)``, which does not
    depend on the scale; ``lipschitz`` bounds the third derivative on the
    ball of that radius.  Only the Lipschitz term changes with the scale.
    """
    if not (np.isfinite(lipschitz) and lipschitz >= 0):
        raise ParameterError(f"Lipschitz constant must be finite and nonnegative, got {lipschitz}")
    S = plan.directions
    if plan.w_rank_deficient:
        raise BoundInapplicableError(
            f"W = S .* S must have full row rank {S.n}, numerical rank is {plan.w_rank}"
        )
    pinv_norm = 1.0 / plan.w_sigma_min
    lip_term = (S.k / 12.0) * lipschitz * radius**2
    total = pinv_norm * (lip_term + cross_term)
    corollary = None
    if S.is_lonely():
        corollary = pinv_norm * (np.sqrt(S.k) / 12.0) * lipschitz * radius**2
    return BoundBreakdown(pinv_norm, lip_term, cross_term, total, corollary)


def relative_error(approx, truth) -> float:
    """``||approx - truth|| / ||truth||``.

    Rejects a zero truth vector; use :func:`absolute_error` for cases such
    as a function whose Hessian diagonal vanishes identically.
    """
    err = absolute_error(approx, truth)
    nt = float(np.linalg.norm(truth))
    if nt == 0.0:
        raise ParameterError("truth vector is zero: relative error undefined, use absolute_error")
    return err / nt


def absolute_error(approx, truth) -> float:
    """``||approx - truth||``."""
    a = as_vector(approx, "approx")
    t = as_vector(truth, "truth")
    if a.size != t.size:
        raise DimensionError(f"approx and truth differ in dimension: {a.size} vs {t.size}")
    return float(np.linalg.norm(a - t))


def convergence_order(hs, errors) -> float:
    """Least-squares slope of log(error) against log(h).

    Requires at least three samples with strictly decreasing positive hs and
    positive errors.
    """
    h = np.asarray(hs, dtype=float)
    e = np.asarray(errors, dtype=float)
    if h.ndim != 1 or e.ndim != 1 or h.size != e.size or h.size < 3:
        raise ParameterError("convergence_order needs matching hs/errors with at least 3 samples")
    if not (np.isfinite(h).all() and np.isfinite(e).all()):
        raise ParameterError("hs and errors must be finite")
    if np.any(h <= 0) or np.any(e <= 0):
        raise ParameterError("hs and errors must be positive")
    if np.any(np.diff(h) >= 0):
        raise ParameterError("hs must be strictly decreasing")
    # The least-squares slope, in closed form on the centred logarithms.
    x, y = np.log(h), np.log(e)
    x -= x.mean()
    y -= y.mean()
    sxx = float(x @ x)
    if sxx == 0.0:
        raise ParameterError("hs must differ by more than round-off in log(h)")
    return float(x @ y) / sxx


"""Error analysis for the centered simplex Hessian diagonal.

Contains the error bound with its component breakdown, relative/absolute
errors, and convergence-order fitting.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class BoundBreakdown:
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
    H = as_matrix(hess, "hessian")
    if H.shape != (S.n, S.n):
        raise DimensionError(f"hessian shape {H.shape} does not match directions in R^{S.n}")
    scale = 1.0 + float(np.abs(H).max())
    if float(np.abs(H - H.T).max()) > 1e-8 * scale:
        raise ParameterError("hessian must be symmetric")
    return 0.5 * (H + H.T)


def cross_term_sum(S: SampleDirections, hess) -> float:
    """sum_i |shat_i^T U shat_i| over the radius-normalized directions.

    Scale invariant: replacing S by h*S leaves the value unchanged.
    """
    H = _validated_hessian(S, hess)
    U = np.triu(H, 1)
    shat = S.unit_directions()
    vals = (shat * (U @ shat)).sum(axis=0)
    return float(np.abs(vals).sum())


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
    if plan.is_lonely:
        corollary = pinv_norm * (np.sqrt(S.k) / 12.0) * lipschitz * radius**2
    return BoundBreakdown(pinv_norm, lip_term, cross_term, total, corollary)


def relative_error(approx, truth) -> float:
    """``||approx - truth|| / ||truth||``.

    Rejects a zero truth vector; use :func:`absolute_error` for cases such
    as a function whose Hessian diagonal vanishes identically.
    """
    a = as_vector(approx, "approx")
    t = as_vector(truth, "truth")
    if a.size != t.size:
        raise DimensionError(f"approx and truth differ in dimension: {a.size} vs {t.size}")
    nt = float(np.linalg.norm(t))
    if nt == 0.0:
        raise ParameterError("truth vector is zero: relative error undefined, use absolute_error")
    return float(np.linalg.norm(a - t)) / nt


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
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


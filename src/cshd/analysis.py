"""Error analysis for the centered simplex Hessian diagonal.

Contains the error bound with its component breakdown, relative/absolute
errors, an empirical Lipschitz estimator for the third derivative,
finite-difference truth oracles, and convergence-order fitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

import numpy as np

from .calculus import StencilPlan
from .exceptions import BoundInapplicableError, DimensionError, ParameterError
from .linalg import _EPS, as_matrix, as_vector
from .sets import SampleDirections

__all__ = [
    "BoundBreakdown",
    "cross_term_sum",
    "error_bound",
    "plan_error_bound",
    "relative_error",
    "absolute_error",
    "lipschitz_oracle",
    "convergence_order",
    "fd_gradient",
    "fd_hessian",
    "fd_diag_hessian",
    "fd_third_tensor",
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


# ---------------------------------------------------------------------------
# Finite-difference truth oracles


def fd_gradient(f, x, step: float | None = None) -> np.ndarray:
    """Central-difference gradient, one coordinate at a time."""
    x = as_vector(x, "x")
    out = np.empty_like(x)
    for j in range(x.size):
        hj = step if step is not None else _EPS ** (1.0 / 3.0) * (1.0 + abs(x[j]))
        e = np.zeros_like(x)
        e[j] = hj
        out[j] = (f(x + e) - f(x - e)) / (2.0 * hj)
    return out


def fd_diag_hessian(f, x, step: float | None = None) -> np.ndarray:
    """Fourth-order central estimate of the Hessian diagonal.

    Uses the five-point stencil (-1, 16, -30, 16, -1) / (12 h^2) per
    coordinate with a step balancing the h^4 truncation against the
    eps / h^2 round-off.
    """
    x = as_vector(x, "x")
    f0 = f(x)
    out = np.empty_like(x)
    for j in range(x.size):
        hj = step if step is not None else _EPS ** (1.0 / 6.0) * (1.0 + abs(x[j]))
        e = np.zeros_like(x)
        e[j] = hj
        out[j] = (
            -f(x + 2 * e) + 16.0 * f(x + e) - 30.0 * f0 + 16.0 * f(x - e) - f(x - 2 * e)
        ) / (12.0 * hj * hj)
    return out


def fd_hessian(f, x, step: float | None = None) -> np.ndarray:
    """Central-difference Hessian: five-point diagonal entries and four-point
    cross terms; symmetric by construction."""
    x = as_vector(x, "x")
    n = x.size
    H = np.empty((n, n))
    np.fill_diagonal(H, fd_diag_hessian(f, x, step=step))
    for i in range(n):
        hi = step if step is not None else _EPS**0.25 * (1.0 + abs(x[i]))
        for j in range(i + 1, n):
            hj = step if step is not None else _EPS**0.25 * (1.0 + abs(x[j]))
            ei = np.zeros_like(x)
            ej = np.zeros_like(x)
            ei[i] = hi
            ej[j] = hj
            val = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (
                4.0 * hi * hj
            )
            H[i, j] = val
            H[j, i] = val
    return H


def fd_third_tensor(f, x, step: float | None = None) -> np.ndarray:
    """Central-difference third-derivative tensor (n x n x n, symmetric).

    Direct stencils: four points for T_aaa, six for T_aab, eight for T_abc.
    """
    x = as_vector(x, "x")
    n = x.size
    d = step if step is not None else _EPS**0.2 * (1.0 + float(np.abs(x).max()))
    T = np.empty((n, n, n))

    def unit(a):
        e = np.zeros_like(x)
        e[a] = d
        return e

    for idx in combinations_with_replacement(range(n), 3):
        a, b, c = idx
        if a == b == c:
            ea = unit(a)
            val = (f(x + 2 * ea) - 2.0 * f(x + ea) + 2.0 * f(x - ea) - f(x - 2 * ea)) / (
                2.0 * d**3
            )
        elif a == b or b == c:
            # one repeated index (tuple is sorted): second difference along
            # `rep`, first difference along `other`
            rep, other = (a, c) if a == b else (b, a)
            er, eo = unit(rep), unit(other)
            val = (
                f(x + er + eo)
                - 2.0 * f(x + eo)
                + f(x - er + eo)
                - f(x + er - eo)
                + 2.0 * f(x - eo)
                - f(x - er - eo)
            ) / (2.0 * d**3)
        else:
            ea, eb, ec = unit(a), unit(b), unit(c)
            val = (
                f(x + ea + eb + ec)
                - f(x + ea + eb - ec)
                - f(x + ea - eb + ec)
                + f(x + ea - eb - ec)
                - f(x - ea + eb + ec)
                + f(x - ea + eb - ec)
                + f(x - ea - eb + ec)
                - f(x - ea - eb - ec)
            ) / (8.0 * d**3)
        for p in set(permutations(idx)):
            T[p] = val
    return T


def _sample_ball(rng: np.random.Generator, x0: np.ndarray, delta: float) -> np.ndarray:
    u = rng.standard_normal(x0.size)
    u /= np.linalg.norm(u)
    r = delta * rng.uniform() ** (1.0 / x0.size)
    return x0 + r * u


def lipschitz_oracle(f, x0, delta: float, samples: int = 12, rng=None) -> float:
    """Empirical lower estimate of the Lipschitz constant of the third
    derivative on the ball B(x0, delta).

    Compares finite-difference third-derivative tensors at sampled point
    pairs (axis-aligned pairs first, then random ones) and returns the
    largest ratio ``||T(y) - T(z)||_F / ||y - z||``.  This is a sampled
    lower estimate, not a certificate.
    """
    x0 = as_vector(x0, "x0")
    if not (np.isfinite(delta) and delta > 0):
        raise ParameterError(f"ball radius must be positive and finite, got {delta}")
    if samples < 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(0 if rng is None else rng)
    n = x0.size
    pairs = []
    for j in range(min(n, samples)):
        e = np.zeros(n)
        e[j] = delta
        pairs.append((x0 - e, x0 + e))
    while len(pairs) < samples:
        y = _sample_ball(rng, x0, delta)
        z = _sample_ball(rng, x0, delta)
        if np.linalg.norm(y - z) >= 0.25 * delta:
            pairs.append((y, z))
    best = 0.0
    for y, z in pairs:
        diff = fd_third_tensor(f, y) - fd_third_tensor(f, z)
        ratio = float(np.sqrt((diff**2).sum())) / float(np.linalg.norm(y - z))
        best = max(best, ratio)
    return best

"""Centered-stencil evaluation and the derivative estimates built from it.

The two estimates are the generalized centered simplex gradient
``pinv(S^T) @ delta_c`` and the centered simplex Hessian diagonal
``pinv(W^T) @ eps`` with ``W = S .* S``.  Both accept arbitrary direction
matrices: the pseudoinverse handles under- and over-determined sample sets,
returning the least-squares / minimum-norm solution.

A :class:`StencilPlan` factors a direction set once and serves every scale
h of it through the exact identities ``pinv((hS)^T) = pinv(S^T) / h`` and
``W(hS) = h^2 W(S)``.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import ParameterError, StencilError
from .linalg import (PinvFactors, _closed_factors, _pinv_factors, _unpatterned_factors, as_vector,
                     svd_rank)
from .sets import SampleDirections

__all__ = [
    "Objective",
    "EvaluatedStencil",
    "GradientEstimate",
    "DiagHessianEstimate",
    "StencilPlan",
    "evaluate_stencil",
    "evaluate_stencils",
    "centered_gradient",
    "centered_hessian_diagonal",
]


class Objective:
    """Wraps an evaluation rule ``f : R^n -> float`` with an evaluation counter.

    The counter grows by exactly one per point evaluated, including a point
    whose evaluation raises.  Each :meth:`values` call adds its points once,
    under a lock, as it returns or raises, so ``evals`` is exact whenever no
    call is running, concurrent calls included.  The rule itself must be
    deterministic.
    """

    def __init__(self, fn: Callable, dim: int, name: str | None = None):
        if dim < 1:
            raise ParameterError(f"objective dimension must be positive, got {dim}")
        self._fn = fn
        self.dim = int(dim)
        self.name = name if name is not None else getattr(fn, "__name__", "objective")
        self._lock = threading.Lock()
        self._evals = 0

    @property
    def evals(self) -> int:
        """Number of evaluations made by the calls that have returned or raised."""
        return self._evals

    def __call__(self, x) -> float:
        """f at one point of R^dim: the one-row case of :meth:`values`, with
        the same count and the same :class:`StencilError` on failure."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ParameterError(f"{self.name}: expected a point in R^{self.dim}, got shape {x.shape}")
        return float(self.values(x[np.newaxis], lambda r: "x")[0])

    def values(self, points, label: Callable[[int], str] = "row {}".format) -> np.ndarray:
        """f at each row of an ``(m, dim)`` array of points, in row order.

        Counts one evaluation per row attempted, including a row whose
        evaluation raises, all at once as the call returns or raises.  A row
        whose rule raises or returns a non-finite value raises
        :class:`StencilError` naming ``label(row index)`` and the point.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ParameterError(
                f"{self.name}: expected an (m, {self.dim}) array of points, got shape {points.shape}"
            )
        fn, out = self._fn, []
        try:
            for r, x in enumerate(points):
                try:
                    value = float(fn(x))
                except StencilError:
                    raise
                except Exception as exc:
                    where = f"{label(r)} = {x.tolist()}"
                    raise StencilError(f"evaluation failed at {where}: {exc}") from exc
                if not math.isfinite(value):
                    raise StencilError(f"non-finite value {value!r} at {label(r)} = {x.tolist()}")
                out.append(value)
        finally:
            # Every row that returned, and the one that raised, if any.
            with self._lock:
                self._evals += len(out) + (len(out) < len(points))
        return np.array(out)


class EvaluatedStencil(NamedTuple):
    """Function values on the centered stencil x0, x0 +- s_i, and the
    difference vectors derived from them.

    From :func:`evaluate_stencils` the arrays have one row per scale h and
    ``evals_used`` counts every point of them."""

    f0: float
    plus_vals: np.ndarray   # f(x0 + s_i)
    minus_vals: np.ndarray  # f(x0 - s_i)
    delta_c: np.ndarray     # (plus - minus) / 2
    eps: np.ndarray         # (plus - f0) + (minus - f0)
    evals_used: int

    def single(self) -> "EvaluatedStencil":
        """The stencil of an evaluation at one scale, without the scale axis."""
        if self.delta_c.ndim != 2 or self.delta_c.shape[0] != 1:
            raise ParameterError("single() needs an evaluation at exactly one scale")
        return EvaluatedStencil(self.f0, self.plus_vals[0], self.minus_vals[0],
                                self.delta_c[0], self.eps[0], self.evals_used)


class GradientEstimate(NamedTuple):
    """Generalized centered simplex gradient."""

    value: np.ndarray


class DiagHessianEstimate(NamedTuple):
    """Centered simplex Hessian diagonal.

    ``w_rank_deficient`` is set when W = S .* S lacks full row rank; the
    estimate is then the least-squares / minimum-norm solution rather than
    the unique one.
    """

    value: np.ndarray
    w_rank_deficient: bool = False


def evaluate_stencils(
    f, x0, S: SampleDirections, hs, known_f0: float | None = None
) -> EvaluatedStencil:
    """Evaluate *f* on the centered stencils over ``h * S`` for every h of
    *hs*, sharing a single f(x0).

    The points go through one :meth:`Objective.values` call (a plain
    callable is wrapped in a fresh :class:`Objective`): x0 first when
    ``known_f0`` is not given (it must be finite otherwise), then for each
    h in turn every x0 + h s_i followed by every x0 - h s_i, the same floats
    as over ``S.scaled(h)``.  That is ``2k |hs|`` evaluations, plus one for
    x0.  The arrays of the result have one row per h.  Evaluation failures
    (exceptions or non-finite values) raise :class:`StencilError` naming the
    offending point.
    """
    x0 = as_vector(x0, "x0")
    if x0.size != S.n:
        raise ParameterError(f"point dimension {x0.size} does not match directions in R^{S.n}")
    hs = np.asarray(hs, dtype=float)
    if hs.ndim != 1 or hs.size == 0 or not (np.isfinite(hs).all() and (hs > 0).all()):
        raise ParameterError(f"scales must be a nonempty list of positive finite values: {hs!r}")
    head = int(known_f0 is None)  # the row of x0, when f(x0) is not known
    if not head:
        f0 = float(known_f0)
        if not math.isfinite(f0):
            raise ParameterError(f"known_f0 must be finite, got {known_f0!r}")
    n, k, m = S.n, S.k, hs.size
    points = np.empty((head + 2 * k * m, n))
    points[:head] = x0
    body = points[head:].reshape(m, 2, k, n)
    # h s_i is written into the minus block first, so the point array is the
    # only allocation of the grid's size.
    steps = body[:, 1]
    np.multiply(hs[:, np.newaxis, np.newaxis], S.matrix.T, out=steps)
    np.add(x0, steps, out=body[:, 0])
    np.subtract(x0, steps, out=steps)

    def label(r: int) -> str:
        r -= head
        if r < 0:
            return "x0"
        r %= 2 * k
        return f"x0 {'+' if r < k else '-'} s{r % k + 1}"

    obj = f if isinstance(f, Objective) else Objective(f, n)
    vals = obj.values(points, label)
    if head:
        f0 = float(vals[0])
    plus, minus = vals[head:].reshape(m, 2, k).transpose(1, 0, 2)
    delta_c = 0.5 * (plus - minus)
    # Grouped as (f+ - f0) + (f- - f0) to limit cancellation against a large f0.
    eps = (plus - f0) + (minus - f0)
    return EvaluatedStencil(f0, plus, minus, delta_c, eps, points.shape[0])


def evaluate_stencil(
    f, x0, S: SampleDirections, known_f0: float | None = None
) -> EvaluatedStencil:
    """Evaluate *f* on the centered stencil over *S*: the one-set case of
    :func:`evaluate_stencils`.

    Uses 2k evaluations for the +-s_i points plus one for f(x0), unless
    ``known_f0`` is supplied (it must be finite), in which case the
    Hessian-diagonal data costs nothing beyond the gradient stencil.
    """
    return evaluate_stencils(f, x0, S, [1.0], known_f0).single()


@dataclass(frozen=True, eq=False)
class StencilPlan:
    """The factors of a direction set S that every scale h*S shares.

    Built from the factors of S and of W = S .* S (see
    :func:`~cshd.linalg.pinv_factors`): in closed form for the paper's
    sets, by QR for any other set certified to have full row rank and by
    SVD for the rest.  ``s_factors`` applies pinv(S^T) and ``w_factors``
    pinv(W^T) to stencil data; on the QR route neither pseudoinverse is
    formed, as that would cost most of what the route saves over the SVD.
    The closed form takes S's factors from its pattern ``(d, b, c)`` and
    W's from ``(d^2, b^2, c^2)``, which is W's pattern entry for entry, so
    it keeps only scalars and forms neither W nor a pseudoinverse.
    ``w_rank``, ``w_sigma_min`` and ``s_cond`` are fixed linear-algebra
    facts of S; only the stencil values and the factors 1/h and 1/h^2
    change with the scale.
    """

    directions: SampleDirections
    s_factors: PinvFactors = field(init=False, repr=False)
    w_factors: PinvFactors = field(init=False, repr=False)

    def __post_init__(self):
        S = self.directions
        # S.matrix is frozen and W is fresh, so the factors keep them uncopied.
        # W = S .* S has the pattern (d^2, b^2, c^2) entry for entry, and is
        # formed only when no closed form applies; W may have a pattern that S has not.
        w_pattern = None if S.pattern is None else tuple(v * v for v in S.pattern)
        s = _closed_factors(S.matrix.shape, S.pattern) or _unpatterned_factors(S.matrix)
        w = _closed_factors(S.matrix.shape, w_pattern) or _pinv_factors(S.squared())
        for a in (s.pinv, w.pinv, *(s.qr or ()), *(w.qr or ())):
            if a is not None:
                a.flags.writeable = False
        object.__setattr__(self, "s_factors", s)
        object.__setattr__(self, "w_factors", w)

    @property
    def w_rank(self) -> int:
        """The numerical rank of W = S .* S."""
        return self.w_factors.rank

    @functools.cached_property
    def w_sigma_min(self) -> float:
        """The n-th singular value of the radius-normalized W~ = W / radius^2,
        computed when first read: 0 when W has fewer than n columns, and on
        the QR route a certified lower bound, so the error bound can only
        round up."""
        return self.w_factors.sigma_n() / self.directions.radius**2

    @functools.cached_property
    def s_cond(self) -> float:
        """sigma_max / sigma_min of S (inf below full row rank), by an SVD run when read."""
        s, rank = svd_rank(self.directions.matrix)
        return float(s[0] / s[-1]) if rank == self.directions.n else math.inf

    @property
    def w_rank_deficient(self) -> bool:
        """True when W = S .* S lacks full row rank."""
        return self.w_rank < self.directions.n

    def scaled_estimates(self, delta_c, eps, hs) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian-diagonal estimates over ``hs[j] * directions``
        from ``(m, k)`` stencil data, one row per scale:
        ``pinv(S^T) @ delta_c / h`` and ``pinv(W^T) @ eps / h^2`` for every
        row at once.

        Raises :class:`ParameterError` naming the first h whose estimates
        are not finite (an h so small that h^2 underflows)."""
        hs = np.asarray(hs, dtype=float)[:, np.newaxis]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = self.s_factors.apply(delta_c) / hs
            d = self.w_factors.apply(eps) / (hs * hs)
        bad = ~(np.isfinite(g).all(axis=1) & np.isfinite(d).all(axis=1))
        if bad.any():
            h = float(hs[bad.argmax(), 0])
            raise ParameterError(f"scale h={h!r} is too small: the estimates are not finite")
        return g, d

    def estimates(
        self, stencil: EvaluatedStencil, h: float = 1.0
    ) -> tuple[GradientEstimate, DiagHessianEstimate]:
        """The gradient and Hessian-diagonal estimates from a stencil
        evaluated over ``h * self.directions``: the one-scale case of
        :meth:`scaled_estimates`."""
        if stencil.delta_c.shape != (self.directions.k,):
            raise ParameterError("stencil was built over a different direction set")
        g, d = self.scaled_estimates(stencil.delta_c[np.newaxis], stencil.eps[np.newaxis], [h])
        return GradientEstimate(g[0]), DiagHessianEstimate(d[0], self.w_rank_deficient)


def centered_gradient(stencil: EvaluatedStencil, S: SampleDirections) -> GradientEstimate:
    """g = pinv(S^T) @ delta_c, the generalized centered simplex gradient."""
    return StencilPlan(S).estimates(stencil)[0]


def centered_hessian_diagonal(stencil: EvaluatedStencil, S: SampleDirections) -> DiagHessianEstimate:
    """d = pinv(W^T) @ eps with W = S .* S, the centered simplex Hessian
    diagonal."""
    return StencilPlan(S).estimates(stencil)[1]


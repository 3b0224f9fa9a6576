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

import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import ParameterError, StencilError
from .linalg import as_vector, pinv_factors
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
    "diag_model_eval",
]


class Objective:
    """Wraps an evaluation rule ``f : R^n -> float`` with a call counter.

    The counter increases by exactly one per call, including calls whose
    evaluation raises, and is guarded by a lock so that concurrent
    evaluation keeps it exact.  The rule itself must be deterministic.
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
        """Number of evaluations issued so far."""
        return self._evals

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ParameterError(f"{self.name}: expected a point in R^{self.dim}, got shape {x.shape}")
        with self._lock:
            self._evals += 1
        return float(self._fn(x))

    def values(self, points, label: Callable[[int], str] = "row {}".format) -> np.ndarray:
        """f at each row of an ``(m, dim)`` array of points, in row order.

        Counts one evaluation per row, including a row whose evaluation
        raises.  A row whose rule raises or returns a non-finite value
        raises :class:`StencilError` naming ``label(row index)`` and the
        point.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ParameterError(
                f"{self.name}: expected an (m, {self.dim}) array of points, got shape {points.shape}"
            )
        fn, lock = self._fn, self._lock
        out = []
        for r, x in enumerate(points):
            with lock:
                self._evals += 1
            try:
                value = float(fn(x))
            except StencilError:
                raise
            except Exception as exc:
                raise StencilError(f"evaluation failed at {label(r)} = {x.tolist()}: {exc}") from exc
            if not math.isfinite(value):
                raise StencilError(f"non-finite value {value!r} at {label(r)} = {x.tolist()}")
            out.append(value)
        return np.array(out)


@dataclass(frozen=True)
class EvaluatedStencil:
    """Function values on the centered stencil x0, x0 +- s_i, and the
    difference vectors derived from them.

    From :func:`evaluate_stencils` the arrays have one row per scale h and
    ``evals_used`` counts every point of them."""

    x0: np.ndarray
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
        return EvaluatedStencil(self.x0, self.f0, self.plus_vals[0], self.minus_vals[0],
                                self.delta_c[0], self.eps[0], self.evals_used)


@dataclass(frozen=True)
class GradientEstimate:
    """Generalized centered simplex gradient with its provenance."""

    value: np.ndarray
    directions: SampleDirections
    x0: np.ndarray


@dataclass(frozen=True)
class DiagHessianEstimate:
    """Centered simplex Hessian diagonal with its provenance.

    ``w_rank_deficient`` is set when W = S .* S lacks full row rank; the
    estimate is then the least-squares / minimum-norm solution rather than
    the unique one.
    """

    value: np.ndarray
    directions: SampleDirections
    x0: np.ndarray
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
    if known_f0 is None:
        head = 1
    else:
        f0 = float(known_f0)
        if not math.isfinite(f0):
            raise ParameterError(f"known_f0 must be finite, got {known_f0!r}")
        head = 0
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
    return EvaluatedStencil(x0, f0, plus, minus, delta_c, eps, points.shape[0])


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

    Built from one SVD of S and one of W = S .* S.  ``grad_map`` is
    pinv(S^T), ``diag_map`` is pinv(W^T), ``w_rank`` the numerical rank of
    W and ``w_sigma_min`` the n-th singular value of the radius-normalized
    W~ = W / radius^2 (0 when W has fewer than n columns).  All of them are
    fixed linear-algebra facts of S; only the stencil values and the
    factors 1/h and 1/h^2 change with the scale.
    """

    directions: SampleDirections
    grad_map: np.ndarray = field(init=False, repr=False)
    diag_map: np.ndarray = field(init=False, repr=False)
    w_rank: int = field(init=False)
    w_sigma_min: float = field(init=False)
    is_lonely: bool = field(init=False)

    def __post_init__(self):
        S = self.directions
        grad_map = pinv_factors(S.matrix).pinv.T
        w = pinv_factors(S.squared())
        diag_map = w.pinv.T
        sigma_n = float(w.singular_values[S.n - 1]) if S.k >= S.n else 0.0
        for a in (grad_map, diag_map):
            a.flags.writeable = False
        object.__setattr__(self, "grad_map", grad_map)
        object.__setattr__(self, "diag_map", diag_map)
        object.__setattr__(self, "w_rank", w.rank)
        object.__setattr__(self, "w_sigma_min", sigma_n / S.radius**2)
        object.__setattr__(self, "is_lonely", S.is_lonely())

    @property
    def w_rank_deficient(self) -> bool:
        """True when W = S .* S lacks full row rank."""
        return self.w_rank < self.directions.n

    def scaled_estimates(self, delta_c, eps, hs) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian-diagonal estimates over ``hs[j] * directions``
        from ``(m, k)`` stencil data, one row per scale:
        ``delta_c @ pinv(S^T)^T / h`` and ``eps @ pinv(W^T)^T / h^2``.

        Raises :class:`ParameterError` naming the first h whose estimates
        are not finite (an h so small that h^2 underflows)."""
        hs = np.asarray(hs, dtype=float)[:, np.newaxis]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = delta_c @ self.grad_map.T / hs
            d = eps @ self.diag_map.T / (hs * hs)
        bad = ~(np.isfinite(g).all(axis=1) & np.isfinite(d).all(axis=1))
        if bad.any():
            h = float(hs[bad.argmax(), 0])
            raise ParameterError(f"scale h={h!r} is too small: the estimates are not finite")
        return g, d

    def estimates(
        self, stencil: EvaluatedStencil, S: SampleDirections, h: float = 1.0
    ) -> tuple[GradientEstimate, DiagHessianEstimate]:
        """The gradient and Hessian-diagonal estimates from a stencil
        evaluated over ``S = h * self.directions``: the one-scale case of
        :meth:`scaled_estimates`."""
        if stencil.delta_c.shape != (self.directions.k,) or S.k != self.directions.k:
            raise ParameterError("stencil was built over a different direction set")
        g, d = self.scaled_estimates(stencil.delta_c[np.newaxis], stencil.eps[np.newaxis], [h])
        return (
            GradientEstimate(g[0], S, stencil.x0),
            DiagHessianEstimate(d[0], S, stencil.x0, w_rank_deficient=self.w_rank_deficient),
        )


def centered_gradient(stencil: EvaluatedStencil, S: SampleDirections) -> GradientEstimate:
    """g = pinv(S^T) @ delta_c, the generalized centered simplex gradient."""
    return StencilPlan(S).estimates(stencil, S)[0]


def centered_hessian_diagonal(stencil: EvaluatedStencil, S: SampleDirections) -> DiagHessianEstimate:
    """d = pinv(W^T) @ eps with W = S .* S, the centered simplex Hessian
    diagonal."""
    return StencilPlan(S).estimates(stencil, S)[1]


def diag_model_eval(x, x0, f0: float, g, d) -> float:
    """Evaluate the diagonal quadratic model
    ``f0 + g . (x - x0) + 1/2 (x - x0) . D (x - x0)`` where D = Diag(d)."""
    x = as_vector(x, "x")
    x0 = as_vector(x0, "x0")
    g = as_vector(g, "g")
    d = as_vector(d, "d")
    if not (x.size == x0.size == g.size == d.size):
        raise ParameterError(
            f"diag_model_eval: mismatched dimensions {x.size}, {x0.size}, {g.size}, {d.size}"
        )
    step = x - x0
    return float(f0 + g @ step + 0.5 * (d * step) @ step)

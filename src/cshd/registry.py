"""Built-in test functions with analytic derivatives.

Each entry carries the evaluation rule, analytic gradient and Hessian, and,
where derivable, a certified upper bound on the Lipschitz constant of the
third derivative over a ball (Frobenius sense, valid for the remainder
estimates used by the error bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .calculus import Objective
from .exceptions import ParameterError

__all__ = ["RegistryFunction", "REGISTRY", "get"]


@dataclass(frozen=True)
class RegistryFunction:
    """A test function with analytic first and second derivatives.

    ``lipschitz_d3(x0, delta)`` returns a certified upper bound on the
    Lipschitz constant of the third derivative over B(x0, delta), or None
    when no certificate is available.
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    lipschitz_d3: Callable[[np.ndarray, float], float] | None = None

    def diag_hessian(self, x) -> np.ndarray:
        return np.diag(self.hessian(np.asarray(x, dtype=float))).copy()

    def objective(self) -> Objective:
        """A fresh counting wrapper around the evaluation rule."""
        return Objective(self.fn, self.dim, self.name)


def _rosenbrock(y):
    return (1.0 - y[0]) ** 2 + 100.0 * (y[1] - y[0] ** 2) ** 2


def _rosenbrock_grad(y):
    return np.array(
        [
            -2.0 * (1.0 - y[0]) - 400.0 * y[0] * (y[1] - y[0] ** 2),
            200.0 * (y[1] - y[0] ** 2),
        ]
    )


def _rosenbrock_hess(y):
    return np.array(
        [
            [2.0 - 400.0 * y[1] + 1200.0 * y[0] ** 2, -400.0 * y[0]],
            [-400.0 * y[0], 200.0],
        ]
    )


# log(DBL_MAX): np.exp is finite up to this exponent and overflows past it.
# Returning inf past it keeps numpy's overflow warning off stderr.
_LOG_DBL_MAX = 709.782712893384


def _expprod(y):
    u = float(y[0] * y[1] * y[2])
    return math.inf if u > _LOG_DBL_MAX else float(np.exp(u))


def _expprod_grad(y):
    g = np.array([y[1] * y[2], y[0] * y[2], y[0] * y[1]])
    return _expprod(y) * g


def _expprod_hess(y):
    g = np.array([y[1] * y[2], y[0] * y[2], y[0] * y[1]])
    cross = np.array([[0.0, y[2], y[1]], [y[2], 0.0, y[0]], [y[1], y[0], 0.0]])
    return _expprod(y) * (np.outer(g, g) + cross)


def _expprod_lipschitz(x0, delta):
    """Certified (loose) bound for exp(y1 y2 y3) on B(x0, delta).

    Encloses the ball in a coordinate box and bounds every fourth partial of
    exp(u), u trilinear, via the partition expansion: blocks of size 1, 2, 3
    contribute at most m1, m2, 1 respectively, and size-4 blocks vanish.
    """
    b = np.abs(np.asarray(x0, dtype=float)) + float(delta)
    m1 = float(max(b[0] * b[1], b[0] * b[2], b[1] * b[2]))
    m2 = float(b.max())
    entry = m1**4 + 6.0 * m2 * m1**2 + 3.0 * m2**2 + 4.0 * m1
    u = b[0] * b[1] * b[2]
    # sqrt(3**4) = 9 converts the entrywise bound to a Frobenius bound.
    return 9.0 * (math.inf if u > _LOG_DBL_MAX else float(np.exp(u))) * entry


def _quartic(y):
    return float(y[0] ** 4 + y[1] ** 4)


def _quartic_grad(y):
    return np.array([4.0 * y[0] ** 3, 4.0 * y[1] ** 3])


def _quartic_hess(y):
    return np.diag([12.0 * y[0] ** 2, 12.0 * y[1] ** 2])


def _bilinear(y):
    return float(y[0] * y[1])


def _bilinear_grad(y):
    return np.array([y[1], y[0]])


def _bilinear_hess(y):
    return np.array([[0.0, 1.0], [1.0, 0.0]])


REGISTRY: dict[str, RegistryFunction] = {
    f.name: f
    for f in [
        RegistryFunction(
            "rosenbrock2",
            2,
            _rosenbrock,
            _rosenbrock_grad,
            _rosenbrock_hess,
            # only the (1,1,1) third partial varies (2400 y1), so 2400 is the
            # exact global Lipschitz constant of the third derivative
            lambda x0, delta: 2400.0,
        ),
        RegistryFunction(
            "expprod3", 3, _expprod, _expprod_grad, _expprod_hess, _expprod_lipschitz
        ),
        RegistryFunction(
            "quartic2",
            2,
            _quartic,
            _quartic_grad,
            _quartic_hess,
            lambda x0, delta: 24.0,
        ),
        RegistryFunction(
            "bilinear2",
            2,
            _bilinear,
            _bilinear_grad,
            _bilinear_hess,
            lambda x0, delta: 0.0,
        ),
    ]
}


def get(name: str) -> RegistryFunction:
    """Look up a registry function by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise ParameterError(f"unknown function {name!r}; known functions: {known}") from None

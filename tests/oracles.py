"""Test-only truth oracles: finite-difference derivatives, an empirical
Lipschitz estimate of the third derivative, the diagonal quadratic model
and the explicit-q application of a QR-factored pseudoinverse.  They check
the library's analytic derivatives, estimates and factors; the library
itself does not use them.
"""

from itertools import combinations_with_replacement, permutations

import numpy as np

from cshd.exceptions import ParameterError
from cshd.linalg import _EPS, _invert_upper, as_vector


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


def qr_pinv_apply(A, rows) -> np.ndarray:
    """``rows @ pinv(A)`` for an n x k matrix A of full row rank through the
    explicit q of A^T = q r: ``(rows @ q) @ x.T`` with the library's x = r^-1."""
    q, r = np.linalg.qr(np.asarray(A, dtype=float).T)
    return (rows @ q) @ _invert_upper(r).T

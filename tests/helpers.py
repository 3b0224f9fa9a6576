"""Shared generators for randomized tests (seeded, deterministic)."""

from dataclasses import dataclass, field

import numpy as np

from cshd.registry import RegistryFunction
from cshd.sets import SampleDirections


@dataclass(frozen=True)
class CountedFunction(RegistryFunction):
    """Keeps every Objective it hands out, so a test can sum their counts."""

    issued: list = field(default_factory=list, compare=False)

    def objective(self):
        obj = super().objective()
        self.issued.append(obj)
        return obj


def random_lonely(rng, n, k):
    """A random lonely n x k direction matrix with full row rank.

    The first n columns hit each row once (a scaled permutation); any extra
    columns land on random rows.  Entry magnitudes stay in [0.5, 1.5], so
    columns are distinct with probability one.
    """
    assert k >= n
    rows = list(rng.permutation(n)) + list(rng.integers(0, n, size=k - n))
    m = np.zeros((n, k))
    for j, r in enumerate(rows):
        m[r, j] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    return SampleDirections(m)


def random_conditioned(rng, n, k, smin=0.5, smax=2.0):
    """A random n x k matrix with singular values in [smin, smax]."""
    r = min(n, k)
    u, _ = np.linalg.qr(rng.standard_normal((n, r)))
    v, _ = np.linalg.qr(rng.standard_normal((k, r)))
    s = rng.uniform(smin, smax, size=r)
    return u @ np.diag(s) @ v.T

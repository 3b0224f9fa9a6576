"""Direction matrices for centered-simplex calculus.

Provides the four standard constructions (coordinate basis, regular basis,
and their minimal positive-basis extensions), custom matrices loaded from
plain-text files, the sample-set radius, and the lonely-matrix test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import ParameterError
from .linalg import as_matrix

__all__ = [
    "SetKind",
    "SampleDirections",
    "build_set",
    "regular_basis",
    "load_directions",
    "CUSTOM_ZERO_TOL",
]


class SetKind(enum.Enum):
    """Named direction-set constructions; CUSTOM wraps an explicit matrix."""

    CB = "cb"        # coordinate basis, Id_n
    RB = "rb"        # regular basis: unit columns at equal pairwise angles
    CMPB = "cmpb"    # coordinate minimal positive basis [Id_n, -1_n]
    RMPB = "rmpb"    # regular minimal positive basis [RB, -RB @ 1_n]
    CUSTOM = "custom"


# Entries of CUSTOM matrices with magnitude below this fraction of the radius
# count as zero in the lonely test; constructed sets compare against exact 0.
CUSTOM_ZERO_TOL = 1e-14

# The smallest column norm whose square is a normal double.
_MIN_NORM = float(np.sqrt(np.finfo(float).tiny))


@dataclass(frozen=True)
class SampleDirections:
    """An n x k matrix whose columns are the nonzero, pairwise distinct
    directions added to and subtracted from the point of interest.

    ``radius`` is the largest column norm; it is cached at construction and
    the matrix is made read-only, so instances are safe to share.
    """

    matrix: np.ndarray
    kind: SetKind = SetKind.CUSTOM
    radius: float = field(init=False)

    def __post_init__(self):
        m = as_matrix(self.matrix, "direction matrix").copy()
        norms = np.linalg.norm(m, axis=0)
        if norms.min() < _MIN_NORM:  # W = S .* S would underflow, and the diagonal with it
            if not np.any(m, axis=0).all():
                raise ParameterError("every direction column must be nonzero")
            j = int(norms.argmin())
            raise ParameterError(f"direction column {j} is too small: its squares underflow")
        # Columns keyed by their bytes; adding 0.0 turns -0.0 into 0.0, so
        # keys are equal exactly when the columns compare equal.
        first: dict[bytes, int] = {}
        for j, col in enumerate(np.add(m.T, 0.0, order="C")):
            i = first.setdefault(col.tobytes(), j)
            if i != j:
                raise ParameterError(f"direction columns {i} and {j} are identical")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "radius", float(norms.max()))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    def squared(self) -> np.ndarray:
        """W = S .* S, the columnwise squares of the directions."""
        return self.matrix * self.matrix

    def unit_directions(self) -> np.ndarray:
        """Columns divided by the radius (the largest has unit norm)."""
        return self.matrix / self.radius

    def is_lonely(self) -> bool:
        """True iff every column has exactly one nonzero entry."""
        tol = CUSTOM_ZERO_TOL * self.radius if self.kind is SetKind.CUSTOM else 0.0
        return bool(np.all(np.count_nonzero(np.abs(self.matrix) > tol, axis=0) == 1))

    def scaled(self, h: float) -> "SampleDirections":
        """The same directions multiplied by a positive factor h."""
        if not (np.isfinite(h) and h > 0):
            raise ParameterError(f"scale factor must be positive and finite, got {h}")
        return SampleDirections(h * self.matrix, self.kind)


def regular_basis(n: int) -> np.ndarray:
    """The n x n regular basis: unit columns at equal pairwise angles."""
    shrink = (1.0 - np.sqrt(1.0 / (n + 1))) / n
    return np.sqrt((n + 1) / n) * (np.eye(n) - shrink * np.ones((n, n)))


def build_set(kind: SetKind, n: int, h: float) -> SampleDirections:
    """Construct one of the named direction sets in R^n, scaled by h > 0."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"dimension n must be a positive integer, got {n!r}")
    if not (np.isfinite(h) and h > 0):
        raise ParameterError(f"scale h must be positive and finite, got {h!r}")
    n = int(n)
    if kind is SetKind.CB:
        m = np.eye(n)
    elif kind is SetKind.RB:
        m = regular_basis(n)
    elif kind is SetKind.CMPB:
        m = np.hstack([np.eye(n), -np.ones((n, 1))])
    elif kind is SetKind.RMPB:
        rb = regular_basis(n)
        # The (n+1)-th column is the negated row sums of the regular basis.
        m = np.hstack([rb, -rb.sum(axis=1, keepdims=True)])
    else:
        raise ParameterError("custom sets are loaded from a file or built from an explicit matrix")
    return SampleDirections(h * m, kind)


def load_directions(path) -> SampleDirections:
    """Read a custom direction matrix from a plain-text file.

    Format: first line ``n k``, then n rows of k whitespace-separated
    decimals.  Blank lines and lines starting with ``#`` are ignored.
    """
    text = Path(path).read_text()
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ParameterError(f"{path}: empty direction file")
    header = lines[0].split()
    if len(header) != 2:
        raise ParameterError(f"{path}: first line must be 'n k', got {lines[0]!r}")
    try:
        n, k = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParameterError(f"{path}: first line must be 'n k', got {lines[0]!r}") from exc
    if len(lines) - 1 != n:
        raise ParameterError(f"{path}: expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        fields = ln.split()
        if len(fields) != k:
            raise ParameterError(f"{path}: line {lineno}: expected {k} entries, found {len(fields)}")
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise ParameterError(f"{path}: line {lineno}: non-numeric entry") from exc
    return SampleDirections(np.array(rows), SetKind.CUSTOM)

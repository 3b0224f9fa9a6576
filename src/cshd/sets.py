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
from .linalg import as_matrix, diagonal_pattern

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


def _checked_scale(h: float) -> float:
    """h itself, once it is known to be a positive, finite scale."""
    if not (np.isfinite(h) and h > 0):
        raise ParameterError(f"scale h must be positive and finite, got {h}")
    return h


@dataclass(frozen=True, eq=False)
class SampleDirections:
    """An n x k matrix whose columns are the nonzero, pairwise distinct
    directions added to and subtracted from the point of interest.  For
    n >= 2 no column is the negative of another, as x0 + s_j would then
    repeat x0 - s_i; in R^1 the columns 1 and -1 are the central difference.

    ``radius`` is the largest column norm; it is cached at construction and
    the matrix is made read-only, so instances are safe to share.  A set
    compares and hashes by identity, so it can key a dict.
    ``pattern`` is ``(d, b, c)`` when the matrix is d on the diagonal and b
    off it, optionally followed by a constant column of c, as the paper's
    four sets are (see :func:`~cshd.linalg.diagonal_pattern`), and None
    otherwise.  It is detected once, when a set is constructed from a
    matrix; :meth:`scaled` derives it.
    """

    matrix: np.ndarray
    kind: SetKind = SetKind.CUSTOM
    radius: float = field(init=False)
    pattern: tuple[float, float, float] | None = field(init=False, repr=False)

    def __post_init__(self):
        m = as_matrix(self.matrix, "direction matrix").copy()
        self._freeze(m, diagonal_pattern(m))

    @classmethod
    def _owning(cls, m: np.ndarray, kind: SetKind, pattern) -> "SampleDirections":
        # A set that takes the fresh, finite array m as it is, with m's pattern.
        directions = object.__new__(cls)
        object.__setattr__(directions, "kind", kind)
        directions._freeze(m, pattern)
        return directions

    def _freeze(self, m: np.ndarray, pattern) -> None:
        # Validate the columns of m, which this set then owns read-only.
        with np.errstate(over="ignore"):  # an infinite norm is rejected below, with no warning
            norms = np.sqrt(np.add.reduce(m * m, axis=0))
        radius = float(norms.max())
        if radius == np.inf:  # W = S .* S, or the radius with its squares, would overflow
            j = int(norms.argmax())
            raise ParameterError(f"direction column {j} is too large: its squares overflow")
        if norms.min() < _MIN_NORM:  # W = S .* S would underflow, and the diagonal with it
            if not np.any(m, axis=0).all():
                raise ParameterError("every direction column must be nonzero")
            j = int(norms.argmin())
            raise ParameterError(f"direction column {j} is too small: its squares underflow")
        if pattern is None or abs(pattern[0]) == abs(pattern[1]):
            # A pattern with |d| != |b| has pairwise distinct columns, none the
            # negative of another (two square columns are negatives only for
            # n = 2 and d = -b).  Any other columns are keyed by their bytes;
            # 0.0 + s and 0.0 - s turn -0.0 into 0.0, so two keys are equal
            # exactly when the columns they stand for compare equal.
            cols = np.add(m.T, 0.0, order="C")
            first: dict[bytes, int] = {}
            for j, col in enumerate(cols):
                i = first.setdefault(col.tobytes(), j)
                if i != j:
                    raise ParameterError(f"direction columns {i} and {j} are identical")
            if m.shape[0] > 1:  # in R^1, the columns 1 and -1 are the central difference
                for j, neg in enumerate(np.subtract(0.0, cols)):
                    i = first.get(neg.tobytes(), j)
                    if i < j:
                        raise ParameterError(f"direction columns {i} and {j} are antipodal")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "pattern", pattern)

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
        if self.pattern is not None:
            # Square columns are lonely when b is zero; a constant column of
            # n >= 2 entries never is.
            return self.k == self.n and abs(self.pattern[1]) <= tol
        return bool(np.all(np.count_nonzero(np.abs(self.matrix) > tol, axis=0) == 1))

    def scaled(self, h: float) -> "SampleDirections":
        """The same directions multiplied by a positive factor h.  Every
        |entry| is at most the radius, so a finite h * radius keeps them finite.

        Every entry of h * M is the rounded product of h and its entry of M,
        so the pattern of the scaled set is (h d, h b, h c), with no detection."""
        scale = float(_checked_scale(h))
        if scale * self.radius == np.inf:
            raise ParameterError(f"scale h={h} is too large: the scaled directions overflow")
        pattern = None if self.pattern is None else tuple(scale * v for v in self.pattern)
        return SampleDirections._owning(scale * self.matrix, self.kind, pattern)


def regular_basis(n: int) -> np.ndarray:
    """The n x n regular basis: unit columns at equal pairwise angles."""
    shrink = (1.0 - np.sqrt(1.0 / (n + 1))) / n
    m = np.full((n, n), -shrink)  # I - shrink 11^T, scaled in place
    np.fill_diagonal(m, 1.0 - shrink)
    m *= np.sqrt((n + 1) / n)
    return m


def build_set(kind: SetKind, n: int, h: float) -> SampleDirections:
    """Construct one of the named direction sets in R^n, scaled by h > 0."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"dimension n must be a positive integer, got {n!r}")
    h, n = _checked_scale(h), int(n)
    if kind is SetKind.CB:
        m = np.eye(n)
    elif kind is SetKind.RB:
        m = regular_basis(n)
    elif kind is SetKind.CMPB:
        m = np.hstack([np.eye(n), -np.ones((n, 1))])
    elif kind is SetKind.RMPB:
        rb = regular_basis(n)
        # The (n+1)-th column is the negated row sum of the regular basis.
        # Every row has the same sum; taking the first row's for all keeps the
        # column exactly constant, which rounding each row's sum would not.
        m = np.hstack([rb, np.full((n, 1), -rb[0].sum())])
    else:
        raise ParameterError("a custom direction matrix is required for kind=custom")
    m *= h  # finite, as every entry is at most 1 in magnitude
    return SampleDirections._owning(m, kind, diagonal_pattern(m))


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

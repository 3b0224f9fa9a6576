import re

import numpy as np
import pytest

from cshd.exceptions import ParameterError
from cshd.linalg import svd_rank
from cshd.sets import SampleDirections, SetKind, build_set, load_directions, regular_basis

from helpers import random_lonely


def test_cb():
    S = build_set(SetKind.CB, 2, 1.0)
    assert np.array_equal(S.matrix, np.eye(2))


def test_cmpb():
    S = build_set(SetKind.CMPB, 2, 1.0)
    assert np.array_equal(S.matrix, np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]))


def test_rmpb3_matches_reference_matrix():
    s3 = np.sqrt(3.0)
    expected = np.array(
        [
            [5 * s3 / 9, -s3 / 9, -s3 / 9, -s3 / 3],
            [-s3 / 9, 5 * s3 / 9, -s3 / 9, -s3 / 3],
            [-s3 / 9, -s3 / 9, 5 * s3 / 9, -s3 / 3],
        ]
    )
    S = build_set(SetKind.RMPB, 3, 1.0)
    assert np.allclose(S.matrix, expected, atol=1e-14)


def test_radius():
    assert build_set(SetKind.CB, 4, 0.25).radius == pytest.approx(0.25, rel=1e-15)
    assert build_set(SetKind.CMPB, 2, 0.5).radius == pytest.approx(0.5 * np.sqrt(2.0), rel=1e-14)
    # direct column-norm oracle for the 3x4 regular positive basis
    S = build_set(SetKind.RMPB, 3, 0.125)
    oracle = max(float(np.linalg.norm(S.matrix[:, j])) for j in range(S.k))
    assert S.radius == oracle
    assert S.radius == pytest.approx(0.125, rel=1e-13)


def test_radius_scales_linearly():
    rng = np.random.default_rng(6)
    base = SampleDirections(rng.standard_normal((3, 5)))
    for h in [0.01, 0.5, 3.0]:
        assert base.scaled(h).radius == pytest.approx(h * base.radius, rel=1e-14)


def test_is_lonely():
    assert build_set(SetKind.CB, 3, 0.7).is_lonely()
    assert not build_set(SetKind.CMPB, 3, 0.7).is_lonely()
    assert not build_set(SetKind.RB, 3, 0.7).is_lonely()
    scaled_perm = SampleDirections(np.array([[2.0, 0, 0], [0, 0, 3.0], [0, -1.0, 0]]))
    assert scaled_perm.is_lonely()


def test_is_lonely_invariant_under_scaling():
    rng = np.random.default_rng(7)
    S = random_lonely(rng, 4, 6)
    for h in [1e-6, 0.1, 50.0]:
        assert S.scaled(h).is_lonely()
    T = build_set(SetKind.CMPB, 3, 1.0)
    for h in [1e-6, 0.1, 50.0]:
        assert not T.scaled(h).is_lonely()


def test_squared_set():
    h = 0.3
    S = build_set(SetKind.CB, 3, h)
    assert np.allclose(S.squared(), h * h * np.eye(3), atol=1e-16)
    C = build_set(SetKind.CMPB, 2, h)
    assert np.allclose(C.squared(), [[h * h, 0, h * h], [0, h * h, h * h]], atol=1e-16)


def test_zero_column_is_rejected():
    with pytest.raises(ParameterError, match="every direction column must be nonzero"):
        SampleDirections(np.array([[1.0, 0.0], [0.0, -0.0]]))


@pytest.mark.parametrize("h", [1e-170, 1e-160])
def test_column_whose_squares_underflow_is_rejected(h):
    # Nonzero columns whose norm lies below sqrt(tiny) ~ 1.49e-154: W = S .* S
    # would underflow and the diagonal estimate would silently read 0.
    S = build_set(SetKind.CB, 2, 1.0)
    with pytest.raises(ParameterError, match="column 0 is too small: its squares underflow"):
        S.scaled(h)
    with pytest.raises(ParameterError, match="too small"):
        build_set(SetKind.RMPB, 3, h)
    assert S.scaled(1e-150).radius == 1e-150


def test_lonely_squared_has_full_row_rank():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        k = n + int(rng.integers(0, 5))
        S = random_lonely(rng, n, k)
        _, rank = svd_rank(S.squared())
        assert rank == n


def test_lonely_kills_strictly_upper_cross_terms():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        k = n + int(rng.integers(0, 5))
        S = random_lonely(rng, n, k)
        U = np.triu(rng.standard_normal((n, n)), 1)
        total = sum(abs(S.matrix[:, j] @ U @ S.matrix[:, j]) for j in range(k))
        assert total == 0.0  # each term has an exactly zero factor


def test_regular_basis_unit_columns():
    for n in range(2, 11):
        rb = regular_basis(n)
        assert np.allclose(np.linalg.norm(rb, axis=0), 1.0, atol=1e-12)
        last = -rb.sum(axis=1)
        assert np.linalg.norm(last) == pytest.approx(1.0, abs=1e-12)
        S = build_set(SetKind.RMPB, n, 1.0)
        assert np.allclose(np.linalg.norm(S.matrix, axis=0), 1.0, atol=1e-12)


def test_build_set_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        build_set(SetKind.CB, 0, 1.0)
    with pytest.raises(ParameterError):
        build_set(SetKind.CB, 2, 0.0)
    with pytest.raises(ParameterError):
        build_set(SetKind.CB, 2, -1.0)
    with pytest.raises(ParameterError):
        build_set(SetKind.CUSTOM, 2, 1.0)


def test_directions_reject_zero_and_duplicate_columns():
    with pytest.raises(ParameterError):
        SampleDirections(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ParameterError):
        SampleDirections(np.array([[1.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(ValueError):
        SampleDirections(np.array([[np.nan, 1.0], [0.0, 2.0]]))


def test_duplicate_columns_named_and_signed_zeros_folded():
    with pytest.raises(ParameterError, match="columns 0 and 1 are identical"):
        SampleDirections(np.array([[1.0, 1.0], [0.0, -0.0]]))
    rng = np.random.default_rng(17)
    for _ in range(30):
        n, k = int(rng.integers(1, 6)), int(rng.integers(2, 12))
        # small integer entries make duplicates likely; random signs turn
        # some zeros into -0.0, which must still compare equal to 0.0
        m = rng.integers(-1, 2, size=(n, k)) * rng.choice([-1.0, 1.0], size=(n, k))
        distinct = len({tuple(c) for c in m.T.tolist()}) == k
        if np.any(np.linalg.norm(m, axis=0) == 0.0):
            continue
        try:
            SampleDirections(m)
        except ParameterError as exc:
            i, j = map(int, re.search(r"columns (\d+) and (\d+)", str(exc)).groups())
            assert not distinct and i < j and np.array_equal(m[:, i], m[:, j])
        else:
            assert distinct


def test_matrix_is_read_only():
    S = build_set(SetKind.CB, 2, 1.0)
    with pytest.raises(ValueError):
        S.matrix[0, 0] = 5.0


def test_load_directions_roundtrip(tmp_path):
    path = tmp_path / "dirs.txt"
    path.write_text("# a comment\n2 3\n1.5 0 -1.5\n0 2.5 -2.5\n")
    S = load_directions(path)
    assert S.kind is SetKind.CUSTOM
    assert np.array_equal(S.matrix, np.array([[1.5, 0.0, -1.5], [0.0, 2.5, -2.5]]))


def test_load_directions_rejects_malformed(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("2\n1 0\n0 1\n")
    with pytest.raises(ParameterError):
        load_directions(bad_header)
    short = tmp_path / "b.txt"
    short.write_text("2 2\n1 0\n")
    with pytest.raises(ParameterError):
        load_directions(short)
    ragged = tmp_path / "c.txt"
    ragged.write_text("2 2\n1 0\n0 1 7\n")
    with pytest.raises(ParameterError):
        load_directions(ragged)


def test_custom_lonely_tolerance():
    # tiny off-axis noise below 1e-14 * radius still counts as lonely for
    # custom matrices but exact zeros are required of constructed ones
    m = np.eye(3)
    m[1, 0] = 1e-16
    assert SampleDirections(m, SetKind.CUSTOM).is_lonely()

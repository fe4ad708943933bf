"""Sparse dataset container, text parsing, and row arithmetic."""
import numpy as np
import pytest

from adaptreduce import (DataError, Dataset, matvec, normalize_rows,
                         parse_libsvm, rmatvec, row_dot, serialize_libsvm)


def random_sparse(rng, n, d, density=0.4):
    indptr = [0]
    indices = []
    values = []
    for _ in range(n):
        mask = rng.random(d) < density
        cols = np.flatnonzero(mask)
        indices.extend(cols.tolist())
        values.extend((rng.normal(size=len(cols)) * 2).tolist())
        indptr.append(len(indices))
    labels = rng.normal(size=n)
    return Dataset(np.array(indptr), np.array(indices, dtype=np.int64),
                   np.array(values), labels, dim=d)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_single_row():
    ds = parse_libsvm("1 1:0.5 3:2.0\n")
    assert ds.n == 1 and ds.dim == 3
    assert ds.labels[0] == 1.0
    idx, val = ds.row(0)
    np.testing.assert_array_equal(idx, [0, 2])
    np.testing.assert_allclose(val, [0.5, 2.0])


def test_parse_negative_label():
    ds = parse_libsvm("-1 2:1.0\n")
    assert ds.labels[0] == -1.0
    idx, val = ds.row(0)
    np.testing.assert_array_equal(idx, [1])
    np.testing.assert_allclose(val, [1.0])


def test_parse_bad_label_names_line():
    with pytest.raises(DataError, match="line 1"):
        parse_libsvm("abc 1:1\n")
    with pytest.raises(DataError, match="line 2"):
        parse_libsvm("1 1:1\nxyz 1:1\n")


def test_parse_bad_feature_token():
    with pytest.raises(DataError, match="line 1"):
        parse_libsvm("1 1:abc\n")
    with pytest.raises(DataError, match="line 1"):
        parse_libsvm("1 notatoken\n")


def test_parse_rejects_non_increasing_indices():
    with pytest.raises(DataError, match="increasing"):
        parse_libsvm("1 2:1.0 2:3.0\n")  # duplicate
    with pytest.raises(DataError, match="increasing"):
        parse_libsvm("1 3:1.0 2:3.0\n")  # decreasing
    with pytest.raises(DataError):
        parse_libsvm("1 0:1.0\n")  # 1-based on disk


def test_parse_skips_blank_and_comment_lines():
    ds = parse_libsvm("# header\n\n1 1:2.0\n  \n-1 2:1.0  # trailing\n")
    assert ds.n == 2
    assert ds.dim == 2


def test_parse_dim_override():
    ds = parse_libsvm("1 2:1.0\n", dim=10)
    assert ds.dim == 10
    with pytest.raises(DataError):
        parse_libsvm("1 5:1.0\n", dim=3)


def test_parse_empty_row_allowed():
    ds = parse_libsvm("1 1:1.0\n-1\n")
    assert ds.n == 2
    idx, val = ds.row(1)
    assert len(idx) == 0 and len(val) == 0
    assert ds.row_sq_norms()[1] == 0.0


def test_round_trip_identity():
    rng = np.random.default_rng(20)
    ds = random_sparse(rng, 12, 7)
    text = serialize_libsvm(ds)
    back = parse_libsvm(text, dim=ds.dim)
    np.testing.assert_array_equal(back.indptr, ds.indptr)
    np.testing.assert_array_equal(back.indices, ds.indices)
    np.testing.assert_array_equal(back.values, ds.values)  # exact, repr floats
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.dim == ds.dim
    assert serialize_libsvm(back) == text


# ---------------------------------------------------------------------------
# container validation and arithmetic
# ---------------------------------------------------------------------------

def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset(np.array([1, 2]), np.array([0, 0]), np.ones(2), np.ones(1), dim=1)
    with pytest.raises(DataError):  # indptr length mismatch
        Dataset(np.array([0, 1]), np.array([0]), np.ones(1), np.ones(2), dim=1)
    with pytest.raises(DataError):  # index out of range
        Dataset(np.array([0, 1]), np.array([3]), np.ones(1), np.ones(1), dim=2)
    with pytest.raises(DataError):  # decreasing indptr
        Dataset(np.array([0, 2, 1]), np.array([0, 0, 0]), np.ones(3),
                np.ones(2), dim=1)


def test_row_dot_hand_anchor():
    ds = Dataset(np.array([0, 2]), np.array([0, 2]), np.array([1.0, 1.0]),
                 np.array([1.0]), dim=3)
    assert row_dot(ds, 0, np.array([1.0, 5.0, 1.0])) == 2.0


def test_row_dot_matches_dense():
    rng = np.random.default_rng(21)
    ds = random_sparse(rng, 30, 40)
    A = ds.dense()
    x = rng.normal(size=40)
    for i in range(ds.n):
        assert row_dot(ds, i, x) == pytest.approx(float(A[i] @ x), abs=1e-12)


def test_matvec_rmatvec_adjoint():
    rng = np.random.default_rng(22)
    ds = random_sparse(rng, 15, 9)
    x = rng.normal(size=9)
    g = rng.normal(size=15)
    np.testing.assert_allclose(matvec(ds, x), ds.dense() @ x, atol=1e-12)
    np.testing.assert_allclose(rmatvec(ds, g), ds.dense().T @ g, atol=1e-12)
    # <Ax, g> == <x, A'g>
    assert float(matvec(ds, x) @ g) == pytest.approx(
        float(x @ rmatvec(ds, g)), rel=1e-12)


def test_row_sq_norms_match_dense():
    rng = np.random.default_rng(23)
    ds = random_sparse(rng, 20, 10, density=0.3)
    want = (ds.dense() ** 2).sum(axis=1)
    np.testing.assert_allclose(ds.row_sq_norms(), want, rtol=1e-12)
    # cached object is reused
    assert ds.row_sq_norms() is ds.row_sq_norms()


def test_dense_matches_row_by_row_fill():
    # ragged rows, empty ones in the middle and at the end
    rng = np.random.default_rng(25)
    ds = random_sparse(rng, 12, 7, density=0.35)
    keep = np.ones(ds.n, dtype=bool)
    keep[[0, 5, 6, 10, 11]] = False
    lens = np.where(keep, np.diff(ds.indptr), 0)
    rows = np.repeat(np.arange(ds.n), np.diff(ds.indptr))
    mask = keep[rows]
    ds = Dataset(np.concatenate(([0], np.cumsum(lens))), ds.indices[mask],
                 ds.values[mask], ds.labels, dim=ds.dim)
    assert ds.indptr[-1] == ds.indptr[-3]
    want = np.zeros((ds.n, ds.dim))
    for i in range(ds.n):
        idx, val = ds.row(i)
        want[i, idx] = val
    assert np.array_equal(ds.dense(), want)
    assert ds.dense() is ds.dense()


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_rows_mean_norm_one():
    rng = np.random.default_rng(24)
    ds = random_sparse(rng, 25, 8)
    out = normalize_rows(ds)
    norms = np.sqrt(out.row_sq_norms())
    assert norms.mean() == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_array_equal(out.labels, ds.labels)
    # relative row sizes preserved: one global scale factor
    scale = np.sqrt(ds.row_sq_norms()).mean()
    np.testing.assert_allclose(out.values, ds.values / scale, rtol=1e-15)


def test_normalize_rows_rejects_all_zero():
    ds = Dataset(np.array([0, 0, 0]), np.array([], dtype=np.int64),
                 np.array([]), np.array([1.0, -1.0]), dim=3)
    with pytest.raises(DataError, match="normalize"):
        normalize_rows(ds)


def test_content_bytes_distinguishes_datasets():
    rng = np.random.default_rng(25)
    ds = random_sparse(rng, 5, 4)
    assert ds.content_bytes() == ds.content_bytes()
    other = Dataset(ds.indptr.copy(), ds.indices.copy(), ds.values.copy(),
                    ds.labels + 1.0, dim=ds.dim)
    assert ds.content_bytes() != other.content_bytes()
    wider = Dataset(ds.indptr.copy(), ds.indices.copy(), ds.values.copy(),
                    ds.labels.copy(), dim=ds.dim + 1)
    assert ds.content_bytes() != wider.content_bytes()

"""Sparse dataset container, text parsing, and row arithmetic."""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import adaptreduce
from adaptreduce import (DataError, Dataset, gen_classification,
                         gen_regression, matvec, normalize_rows, parse_libsvm,
                         rmatvec, row_dot, serialize_libsvm)
from adaptreduce import data as data_mod
from adaptreduce.data import CsrMatrix, gram


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


def without_rows(ds, rows):
    """`ds` with the given rows emptied."""
    keep = np.ones(ds.n, dtype=bool)
    keep[rows] = False
    lens = np.where(keep, np.diff(ds.indptr), 0)
    mask = np.repeat(keep, np.diff(ds.indptr))
    return Dataset(np.concatenate(([0], np.cumsum(lens))), ds.indices[mask],
                   ds.values[mask], ds.labels, dim=ds.dim)


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


@pytest.mark.parametrize("text,message", [
    ("nan 1:1\n", "line 1: non-finite label 'nan'"),
    ("1 1:1\n-inf 2:1\n", "line 2: non-finite label '-inf'"),
    ("1 1:1 2:0.5\n-1 1:nan 2:1\n", "line 2: non-finite feature value '1:nan'"),
    ("# c\n\n1 1:1\n1 3:1e999\n", "line 4: non-finite feature value '3:1e999'"),
    ("1 1:1\n1 1:-Infinity 2:x\n", "line 2: non-finite feature value '1:-Infinity'"),
])
def test_parse_rejects_non_finite_numbers(text, message):
    with pytest.raises(DataError) as err:
        parse_libsvm(text)
    assert str(err.value) == message


def test_parse_rejects_an_index_beyond_int64():
    with pytest.raises(DataError, match="line 2: bad feature token"):
        parse_libsvm("1 1:1\n1 9223372036854775808:1\n")
    assert parse_libsvm("1 9223372036854775807:1\n").dim == 2 ** 63 - 1


def test_parse_peak_memory_bounded():
    # the per-token parser this one replaced peaked at 3351514 bytes (Python
    # 3.11, numpy 2.4); a conversion batch that grows with the file breaks
    # the bound
    text = serialize_libsvm(gen_regression(11, 500, 100))
    tracemalloc.start()
    try:
        parse_libsvm(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 3351514


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


def test_dataset_rejects_non_finite_numbers_naming_the_row():
    indptr, indices = np.array([0, 2, 2, 4]), np.array([0, 1, 0, 2])
    with pytest.raises(DataError, match="row 2: non-finite feature value inf"):
        Dataset(indptr, indices, np.array([1.0, 2.0, np.inf, 3.0]),
                np.ones(3), dim=3)
    with pytest.raises(DataError, match="row 0: non-finite feature value nan"):
        Dataset(indptr, indices, np.array([1.0, np.nan, 1.0, 3.0]),
                np.ones(3), dim=3)
    with pytest.raises(DataError, match="row 1: non-finite label nan"):
        Dataset(indptr, indices, np.ones(4), np.array([1.0, np.nan, 1.0]),
                dim=3)


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


def test_row_sq_norms_match_dense_with_trailing_empty_rows():
    # the last filled row's sum must not stop at a trailing empty row
    ds = Dataset(np.array([0, 2, 2]), np.array([0, 1]), np.array([1.0, 2.0]),
                 np.ones(2), dim=2)
    np.testing.assert_array_equal(ds.row_sq_norms(), [5.0, 0.0])
    rng = np.random.default_rng(27)
    ds = without_rows(random_sparse(rng, 20, 10, density=0.3), [3, 4, 18, 19])
    np.testing.assert_allclose(ds.row_sq_norms(),
                               (ds.dense() ** 2).sum(axis=1), rtol=1e-12)


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
    ds = without_rows(random_sparse(rng, 12, 7, density=0.35), [0, 5, 6, 10, 11])
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


def test_step_rows_are_built_once_per_dataset():
    # every oracle call reads one cached list; a dataset made from another,
    # scaled or with its rows reordered, builds its own from its own rows
    rng = np.random.default_rng(25)
    ds = random_sparse(rng, 30, 6, density=0.8)
    rows = ds.step_rows()
    assert ds.step_rows() is rows
    assert {idx is None for idx, _ in rows} == {True, False}
    perm = rng.permutation(ds.n)
    take = np.concatenate([np.arange(ds.indptr[i], ds.indptr[i + 1])
                           for i in perm])
    indptr = np.concatenate(([0], np.cumsum(np.diff(ds.indptr)[perm])))
    permuted = Dataset(indptr, ds.indices[take], ds.values[take],
                       ds.labels[perm], dim=ds.dim)
    scaled = normalize_rows(ds)
    scale = np.sqrt(ds.row_sq_norms()).mean()
    for other, order, div in ((scaled, range(ds.n), scale),
                              (permuted, perm, 1.0)):
        got = other.step_rows()
        assert got is not rows and other.step_rows() is got
        for (idx, val), i in zip(got, order, strict=True):
            want_idx, want_val = rows[i]
            assert (idx is None) == (want_idx is None)
            if idx is not None:
                np.testing.assert_array_equal(idx, want_idx)
            np.testing.assert_array_equal(val, want_val / div)
            assert np.shares_memory(val, other.values)


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


def test_dataset_rejects_repeated_or_decreasing_indices_in_a_row():
    # with a repeated index the data would disagree with itself: dense()
    # keeps the last entry, row_dot and row_sq_norms add both
    with pytest.raises(DataError, match="row 0: .*increasing"):
        Dataset(np.array([0, 2]), np.array([1, 1]), np.array([1.0, 2.0]),
                np.array([1.0]), dim=3)
    with pytest.raises(DataError, match="row 2: .*increasing"):
        Dataset(np.array([0, 1, 1, 3]), np.array([2, 1, 0]), np.ones(3),
                np.ones(3), dim=3)
    with pytest.raises(DataError, match="length"):  # indptr[-1] != nnz
        Dataset(np.array([0, 1]), np.array([], dtype=np.int64), np.array([]),
                np.ones(1), dim=2)
    # a row may start below the previous row's last index, across empty
    # rows too
    ds = Dataset(np.array([0, 0, 2, 2, 3]), np.array([0, 2, 1]), np.ones(3),
                 np.ones(4), dim=3)
    assert ds.n == 4


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

def test_backend_follows_density():
    assert not gen_classification(7, 500, 100).uses_csr
    n, d, per_row = 4500, 250, 12
    offsets = np.random.default_rng(28).integers(0, 20, size=n)
    indices = (offsets[:, None] + 20 * np.arange(per_row)).ravel()
    ds = Dataset(np.arange(n + 1) * per_row, indices, np.ones(n * per_row),
                 np.ones(n), dim=d)
    assert ds.uses_csr and isinstance(ds.matrix(), CsrMatrix)
    assert ds.matrix() is ds.matrix()
    assert ds._dense_cache is None
    # at exactly _CSR_DENSITY of the entries the data stay dense
    ds = Dataset(np.array([0, 1]), np.array([0]), np.ones(1), np.ones(1),
                 dim=int(round(1 / data_mod._CSR_DENSITY)))
    assert not ds.uses_csr and isinstance(ds.matrix(), np.ndarray)


def test_csr_backend_matches_dense():
    rng = np.random.default_rng(26)
    ds = without_rows(random_sparse(rng, 300, 80, density=0.05),
                      [0, 7, 150, 151, 298, 299])
    assert ds.uses_csr and ds.indptr[-1] == ds.indptr[-3]
    x, g = rng.normal(size=80), rng.normal(size=300)
    got_x, got_g = matvec(ds, x), rmatvec(ds, g)
    assert ds._dense_cache is None
    A = ds.dense()
    np.testing.assert_allclose(got_x, A @ x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_g, A.T @ g, rtol=0, atol=1e-12)
    assert got_x[[0, 7, 150, 151, 298, 299]].tolist() == [0.0] * 6
    # the backend stays CSR once the dense matrix exists
    assert isinstance(ds.matrix(), CsrMatrix)
    empty = Dataset(np.zeros(4, dtype=np.int64), np.array([], dtype=np.int64),
                    np.array([]), np.ones(3), dim=5)
    assert empty.uses_csr
    assert matvec(empty, np.ones(5)).tolist() == [0.0] * 3
    assert rmatvec(empty, np.ones(3)).tolist() == [0.0] * 5


def test_csr_matrix_selections_and_gram_match_dense(monkeypatch):
    rng = np.random.default_rng(29)
    ds = without_rows(random_sparse(rng, 60, 30, density=0.08), [5, 58, 59])
    M, A = ds.matrix(), ds.dense()
    rows = rng.random(60) < 0.5
    cols = rng.random(30) < 0.5
    for got, want in ((M[rows], A[rows]), (M[np.flatnonzero(rows)], A[rows]),
                      (M[[4, 2, 2]], A[[4, 2, 2]]), (M[10:60], A[10:60]),
                      (M[:, cols], A[:, cols]), (M[rows][:, cols], A[rows][:, cols])):
        assert isinstance(got, CsrMatrix) and got.shape == want.shape
        assert np.array_equal(np.asarray(got), want)
        x, g = rng.normal(size=want.shape[1]), rng.normal(size=want.shape[0])
        np.testing.assert_allclose(got @ x, want @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.T @ g, want.T @ g, rtol=0, atol=1e-12)
    with pytest.raises(TypeError):
        M[:, np.flatnonzero(cols)]
    h = rng.random(60)
    one_block = gram(M, h)
    np.testing.assert_allclose(one_block, (A * h[:, None]).T @ A, atol=1e-12)
    np.testing.assert_allclose(gram(M), A.T @ A, atol=1e-12)
    monkeypatch.setattr(data_mod, "_GRAM_BLOCK", 7 * 30)  # 210 products a chunk
    np.testing.assert_allclose(gram(M, h), one_block, rtol=0, atol=1e-12)
    # on a dense array gram is the plain product, bit for bit
    assert np.array_equal(gram(A, h), (A * h[:, None]).T @ A)
    assert np.array_equal(gram(A), A.T @ A)


def test_csr_gram_on_mixed_row_lengths_matches_dense(monkeypatch):
    # empty rows, single-entry rows, a row storing all d columns and rows
    # of other lengths, each length a group of rows of its own
    rng = np.random.default_rng(31)
    d = 9
    lengths = [0, 1, 3, d, 1, 0, 3, 2, 1, 3, 2, 0, 3, 1, 3, 3, 2, d, 3, 0]
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    indices = np.concatenate(
        [np.sort(rng.choice(d, c, replace=False)) for c in lengths])
    M = CsrMatrix(indptr, indices, rng.normal(size=indptr[-1]), d)
    A = np.asarray(M)
    h = rng.random(len(lengths))
    want_h, want = (A * h[:, None]).T @ A, A.T @ A
    np.testing.assert_allclose(gram(M, h), want_h, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gram(M), want, rtol=0, atol=1e-12)
    # 7 rows of length 3 (3 pairs each) in chunks of 2, a full row's 36
    # pairs in a chunk of its own
    monkeypatch.setattr(data_mod, "_GRAM_BLOCK", 6)
    np.testing.assert_allclose(gram(M, h), want_h, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gram(M), want, rtol=0, atol=1e-12)
    # no rows, or no stored entries: the zero matrix
    empty = CsrMatrix(np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64),
                      np.zeros(0), d)
    assert np.array_equal(gram(empty, np.ones(3)), np.zeros((d, d)))
    assert np.array_equal(gram(M[[]]), np.zeros((d, d)))


def test_csr_gram_memory_is_bounded_by_its_chunks():
    # 4500 rows of 12 stored entries among 250 columns: a chunk holds
    # _GRAM_BLOCK products and as many keys, the upper triangle and a
    # chunk's bincount are d x d each, and the row order takes a few int64
    # per row
    rng = np.random.default_rng(32)
    n, d, per_row = 4500, 250, 12
    indices = np.sort(np.argsort(rng.random((n, d)), axis=1)[:, :per_row],
                      axis=1).ravel()
    M = CsrMatrix(np.arange(n + 1) * per_row, indices,
                  rng.normal(size=n * per_row), d)
    h = rng.random(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gram(M, h)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * data_mod._GRAM_BLOCK * 8 + 2 * d * d * 8


def test_only_the_data_module_materializes_the_dense_matrix():
    # matvec, rmatvec and the references reach the data through
    # Dataset.matrix(), so sparse data are never densified whole
    package = Path(adaptreduce.__file__).parent
    calls = [f"{path.relative_to(package)}:{lineno}"
             for path in sorted(package.rglob("*.py")) if path.name != "data.py"
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if ".dense(" in line]
    assert calls == []

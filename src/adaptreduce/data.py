"""Datasets of (feature vector, label) pairs in compressed sparse row form.

Rows are stored as three flat arrays (indptr, indices, values) like CSR so
that desk-scale dense problems and genuinely sparse ones share one code
path.  Feature indices are 0-based internally; the text format is 1-based.

`matvec`, `rmatvec` and the reference solvers reach the data matrix only
through `Dataset.matrix()`, whose backend the data choose: the cached dense
array, or a `CsrMatrix` over the backing arrays when fewer than
`_CSR_DENSITY` of the n*dim entries are stored.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import contains

import numpy as np

from .errors import DataError

# Below this fraction of stored entries the CSR kernels are the backend.
# Measured crossover (one BLAS thread, 2 vCPUs): on 4500x250 rows the CSR
# matvec/rmatvec took 0.2-0.5x the dense time at 2-5% density, 0.7-0.9x at
# 10%, 1.1-1.5x at 15% and 2-6x at 20-50%; 500x100 and 60x20 rows, which
# fit in cache dense, were faster dense at 5% and above.
_CSR_DENSITY = 0.1
# products per chunk in CsrMatrix.gram (1 MiB of float64 weights, as many
# int64 keys), unless one row alone holds more
_GRAM_BLOCK = 1 << 17
# feature tokens at which parse_libsvm closes a conversion batch.  On a
# 500x100 dense file, 512-4096 parse equally fast with a traced peak of
# 2.8-2.9 MiB (3.2 MiB for the per-token parser before them); at 16384 the
# batch's strings take the peak to 5.7 MiB.
_PARSE_BATCH = 1024
_INT64_MAX = int(np.iinfo(np.int64).max)


def _indptr(counts: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(counts)))


@dataclass
class Dataset:
    """n feature rows with labels; immutable by convention once built."""

    indptr: np.ndarray   # int64, shape (n+1,)
    indices: np.ndarray  # int64, shape (nnz,), strictly increasing per row
    values: np.ndarray   # float64, shape (nnz,)
    labels: np.ndarray   # float64, shape (n,)
    dim: int

    _row_sq_cache: np.ndarray | None = field(default=None, repr=False, compare=False)
    _dense_cache: np.ndarray | None = field(default=None, repr=False, compare=False)
    _csr_cache: CsrMatrix | None = field(default=None, repr=False, compare=False)
    _step_rows_cache: list | None = field(default=None, repr=False, compare=False)
    _sha256_cache: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.indptr.ndim != 1 or self.indptr[0] != 0:
            raise DataError("indptr must be 1-d and start at 0")
        if len(self.indptr) != len(self.labels) + 1:
            raise DataError("indptr length must be n+1")
        if np.any(np.diff(self.indptr) < 0):
            raise DataError("indptr must be non-decreasing")
        nnz = len(self.indices)
        if len(self.values) != nnz or self.indptr[-1] != nnz:
            raise DataError("indices/values length mismatch")
        if nnz and (self.indices.min() < 0 or self.indices.max() >= self.dim):
            raise DataError("feature index out of range for dim=%d" % self.dim)
        # within a row each index must exceed the one before it; the
        # pairs that straddle a row boundary are exempt
        bad = self.indices[1:] <= self.indices[:-1]
        bounds = self.indptr[1:-1]
        bad[bounds[(bounds > 0) & (bounds < nnz)] - 1] = False
        if bad.any():
            k = int(np.argmax(bad)) + 1
            row = int(np.searchsorted(self.indptr, k, side="right")) - 1
            raise DataError(
                f"row {row}: feature indices must be strictly increasing "
                f"(got {self.indices[k]} after {self.indices[k - 1]})")
        if not np.isfinite(self.labels).all():
            row = int(np.argmin(np.isfinite(self.labels)))
            raise DataError(
                f"row {row}: non-finite label {self.labels[row]}")
        if not np.isfinite(self.values).all():
            k = int(np.argmin(np.isfinite(self.values)))
            row = int(np.searchsorted(self.indptr, k, side="right")) - 1
            raise DataError(
                f"row {row}: non-finite feature value {self.values[k]}")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def uses_csr(self) -> bool:
        """Whether `matrix()` is the CSR backend rather than the dense one."""
        return len(self.indices) < _CSR_DENSITY * self.n * self.dim

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(indices, values) of row i, views into the backing arrays."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def step_rows(self) -> list[tuple[np.ndarray | None, np.ndarray]]:
        """`row(i)` for every row, except that a row storing all dim columns
        has indices None: its strictly increasing indices are 0..dim-1, so
        its values are the dense row and a step needs no gather or scatter.
        Cached: every stochastic oracle call reads the same list."""
        if self._step_rows_cache is None:
            self._step_rows_cache = [
                (None if len(idx) == self.dim else idx, val)
                for idx, val in map(self.row, range(self.n))]
        return self._step_rows_cache

    def row_sq_norms(self) -> np.ndarray:
        """Squared Euclidean norm of every row (cached)."""
        if self._row_sq_cache is None:
            self._row_sq_cache = _row_sums(self.indptr, self.values * self.values)
        return self._row_sq_cache

    def dense(self) -> np.ndarray:
        """Materialized (n, dim) matrix; cached.  n*dim floats, so only the
        dense backend and tests call it; everything else uses `matrix()`."""
        if self._dense_cache is None:
            A = np.zeros((self.n, self.dim))
            A[np.repeat(np.arange(self.n), np.diff(self.indptr)),
              self.indices] = self.values
            self._dense_cache = A
        return self._dense_cache

    def matrix(self) -> np.ndarray | CsrMatrix:
        """The (n, dim) data matrix on this dataset's backend: `dense()`, or
        a cached `CsrMatrix` over the backing arrays when `uses_csr`."""
        if not self.uses_csr:
            return self.dense()
        if self._csr_cache is None:
            self._csr_cache = CsrMatrix(self.indptr, self.indices,
                                        self.values, self.dim)
        return self._csr_cache

    def content_bytes(self) -> bytes:
        """Stable byte serialization used for hashing."""
        return b"".join((
            self.indptr.tobytes(), self.indices.tobytes(),
            self.values.tobytes(), self.labels.tobytes(),
            np.int64(self.dim).tobytes(),
        ))

    def content_sha256(self):
        """A new SHA-256 object that has consumed `content_bytes()`, for the
        caller to add its own fields to.  The data are hashed once: the
        object is cached like the other derived arrays, and each call
        returns a copy of it."""
        if self._sha256_cache is None:
            self._sha256_cache = hashlib.sha256(self.content_bytes())
        return self._sha256_cache.copy()


def _row_sums(indptr: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Sum of terms[indptr[i]:indptr[i+1]] for every row i (0 if empty)."""
    filled = indptr[:-1] < indptr[1:]
    if filled.all():
        return np.add.reduceat(terms, indptr[:-1])
    # reduceat gives an empty row the entry at its offset (and rejects the
    # offset nnz of a trailing one), so it sees the filled rows only
    out = np.zeros(len(filled))
    if len(terms):
        out[filled] = np.add.reduceat(terms, indptr[:-1][filled])
    return out


class CsrMatrix:
    """Read-only CSR matrix with what the reference solvers do to the data
    matrix: ``A @ x`` and ``A.T @ g`` for vectors, ``A[rows]`` (mask, index
    array or slice), ``A[:, cols]`` (boolean mask), ``np.asarray(A)`` for a
    small block, and the weighted Gram matrix through `gram`, which reads
    the stored entries only."""

    def __init__(self, indptr, indices, values, dim: int):
        self.indptr, self.indices, self.values = indptr, indices, values
        self.shape = (len(indptr) - 1, int(dim))
        self._rows = np.repeat(np.arange(self.shape[0]), np.diff(indptr))

    @property
    def T(self) -> _Adjoint:
        return _Adjoint(self)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return _row_sums(self.indptr, self.values * x[self.indices])

    def rmatvec(self, g: np.ndarray) -> np.ndarray:
        return np.bincount(self.indices, weights=self.values * g[self._rows],
                           minlength=self.shape[1])

    def __getitem__(self, key) -> CsrMatrix:
        if isinstance(key, tuple):
            rows, cols = key
            if not (isinstance(rows, slice) and rows == slice(None)
                    and np.asarray(cols).dtype == bool):
                raise TypeError("CsrMatrix columns take A[:, boolean mask]")
            keep = cols[self.indices]
            counts = np.bincount(self._rows[keep], minlength=self.shape[0])
            return CsrMatrix(_indptr(counts),
                             (np.cumsum(cols) - 1)[self.indices[keep]],
                             self.values[keep], int(np.count_nonzero(cols)))
        rows = np.arange(self.shape[0])[key]
        counts = self.indptr[rows + 1] - self.indptr[rows]
        indptr = _indptr(counts)
        take = (np.repeat(self.indptr[rows] - indptr[:-1], counts)
                + np.arange(indptr[-1]))
        return CsrMatrix(indptr, self.indices[take], self.values[take],
                         self.shape[1])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        A = np.zeros(self.shape)
        A[self._rows, self.indices] = self.values
        return A if dtype is None else A.astype(dtype, copy=False)

    def gram(self, h: np.ndarray | None = None) -> np.ndarray:
        """A^T diag(h) A (h = 1 when None) from the stored entries alone:
        each row i adds h_i v_ij v_ik at (j, k) and (k, j) for every pair
        j < k of its stored columns and h_i v_ij^2 at (j, j), and no row is
        densified.  The rows go in groups of one length c, a chunk of m rows
        of a group as (c, m) blocks of indices and values (rows last, so
        that numpy's inner loops run over m, not c); one np.bincount adds
        the chunk's c(c-1)/2 m products of pairs, at most _GRAM_BLOCK (or
        one row's), into the flat upper triangle, which is mirrored."""
        n, d = self.shape
        upper, diag = np.zeros(d * d), np.zeros(d)
        counts = np.diff(self.indptr)
        order = np.argsort(counts, kind="stable")
        counts = counts[order]
        # where the sorted length changes; rows of length 0 start no group
        starts = np.flatnonzero(np.diff(counts, prepend=0)).tolist()
        for first, end in zip(starts, starts[1:] + [n]):
            c = int(counts[first])
            # positions p < q; a row's indices increase, so j < k
            p, q = np.triu_indices(c, 1)
            step = max(1, _GRAM_BLOCK // max(len(p), c))
            for lo in range(first, end, step):
                rows = order[lo:min(lo + step, end)]
                at = self.indptr[rows] + np.arange(c)[:, None]
                idx, val = self.indices[at], self.values[at]
                left = val if h is None else val * h[rows]
                diag += np.bincount(idx.ravel(), weights=(left * val).ravel(),
                                    minlength=d)
                upper += np.bincount((idx[p] * d + idx[q]).ravel(),
                                     weights=(left[p] * val[q]).ravel(),
                                     minlength=d * d)
        upper = upper.reshape(d, d)
        G = upper + upper.T
        G.flat[::d + 1] = diag
        return G


class _Adjoint:
    """``A.T`` of a CsrMatrix, for ``A.T @ g``."""

    def __init__(self, A: CsrMatrix):
        self.A = A

    def __matmul__(self, g: np.ndarray) -> np.ndarray:
        return self.A.rmatvec(g)


def gram(A: np.ndarray | CsrMatrix, h: np.ndarray | None = None) -> np.ndarray:
    """A^T diag(h) A (h = 1 when None) for a matrix from `Dataset.matrix()`
    or a selection of it; on a dense array the plain numpy product."""
    if isinstance(A, CsrMatrix):
        return A.gram(h)
    return A.T @ A if h is None else (A * h[:, None]).T @ A


def row_dot(ds: Dataset, i: int, x: np.ndarray) -> float:
    """Inner product of row i with x."""
    idx, val = ds.row(i)
    return float(val @ x[idx])


def matvec(ds: Dataset, x: np.ndarray) -> np.ndarray:
    """All n inner products a_i.x as one vector, on the data's backend."""
    return ds.matrix() @ x


def rmatvec(ds: Dataset, g: np.ndarray) -> np.ndarray:
    """sum_i g_i * a_i, the adjoint of matvec, on the data's backend."""
    return ds.matrix().T @ g


def parse_libsvm(text: str, dim: int | None = None) -> Dataset:
    """Parse classic sparse text rows: "<label> <idx>:<val> <idx>:<val> ...".

    Indices are 1-based and must be strictly increasing within a line
    (duplicates are rejected); labels and values must be finite.  `dim`
    overrides the inferred feature count and must be at least the largest
    index seen.  Text from "#" to the end of a line is a comment, and blank
    lines are skipped.

    Python splits each line, and `int` and `float` convert the feature
    tokens batch by batch.  A batch is whole lines and closes once it holds
    _PARSE_BATCH (1024) tokens, so it holds fewer than 1024 plus one line's
    tokens, whatever the file size.  When a batch is malformed, a number
    does not convert or the arrays fail `Dataset`'s checks,
    `_raise_first_bad_line` rescans the text one token at a time and
    raises the error of the first bad line.
    """
    lines = text.splitlines()
    labels: list[float] = []
    counts: list[int] = []
    index_chunks: list[np.ndarray] = []
    value_chunks: list[np.ndarray] = []
    toks: list[str] = []

    def convert():
        # with two pieces per token and a ":" in each, every token holds
        # exactly one, so the pieces alternate index and value; an empty
        # side fails its conversion
        pieces = ":".join(toks).split(":") if toks else []
        if (len(pieces) != 2 * len(toks)
                or not all(map(contains, toks, repeat(":")))):
            raise ValueError("malformed feature token")
        index_chunks.append(np.fromiter(map(int, pieces[0::2]), np.int64,
                                        len(toks)))
        value_chunks.append(np.fromiter(map(float, pieces[1::2]),
                                        np.float64, len(toks)))
        toks.clear()

    try:
        for _, parts in _split_lines(lines):
            labels.append(float(parts[0]))
            toks += parts[1:]
            counts.append(len(parts) - 1)
            if len(toks) >= _PARSE_BATCH:
                convert()
        convert()
        indices = np.concatenate(index_chunks)
        indices -= 1
        inferred = int(indices.max()) + 1 if len(indices) else 0
        # Dataset checks the indices are >= 0 and increase within each row
        ds = Dataset(indptr=_indptr(counts), indices=indices,
                     values=np.concatenate(value_chunks),
                     labels=np.array(labels, dtype=np.float64),
                     dim=inferred if dim is None else max(int(dim), inferred))
    except (ValueError, OverflowError, DataError):
        _raise_first_bad_line(lines)
        raise
    if dim is not None and dim < inferred:
        raise DataError(f"dim={dim} is smaller than largest index {inferred}")
    return ds


def _split_lines(lines: list[str]):
    """(1-based line number, whitespace-split tokens) of every line that
    holds more than a comment ("#" to the end of the line) and blanks."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _raise_first_bad_line(lines: list[str]) -> None:
    """Raise the DataError that names the first line of `lines` that
    `parse_libsvm` rejects, checking one token at a time; return if none."""
    for lineno, parts in _split_lines(lines):
        try:
            label = float(parts[0])
        except ValueError:
            raise DataError(f"line {lineno}: bad label {parts[0]!r}")
        if not math.isfinite(label):
            raise DataError(f"line {lineno}: non-finite label {parts[0]!r}")
        prev = -1
        for tok in parts[1:]:
            try:
                k, v = tok.split(":", 1)
                j = int(k) - 1
                val = float(v)
            except ValueError:
                raise DataError(f"line {lineno}: bad feature token {tok!r}")
            if j < 0:
                raise DataError(f"line {lineno}: feature index must be >= 1")
            if j >= _INT64_MAX:  # the 1-based index does not fit int64
                raise DataError(f"line {lineno}: bad feature token {tok!r}")
            if j <= prev:
                raise DataError(
                    f"line {lineno}: indices must be strictly increasing "
                    f"(got {j + 1} after {prev + 1})")
            if not math.isfinite(val):
                raise DataError(
                    f"line {lineno}: non-finite feature value {tok!r}")
            prev = j


def serialize_libsvm(ds: Dataset) -> str:
    """Inverse of parse_libsvm; floats use repr so a round trip is exact."""
    lines = []
    for i in range(ds.n):
        idx, val = ds.row(i)
        toks = [repr(float(ds.labels[i]))]
        toks += [f"{j + 1}:{float(v)!r}" for j, v in zip(idx, val)]
        lines.append(" ".join(toks))
    return "\n".join(lines) + ("\n" if lines else "")


def normalize_rows(ds: Dataset) -> Dataset:
    """Divide every row by the mean row norm, so norms average to 1.

    This is a single global scaling, not per-row normalization; it keeps
    relative row sizes intact while fixing the overall data scale.
    """
    norms = np.sqrt(ds.row_sq_norms())
    mean = float(norms.mean()) if ds.n else 0.0
    if mean <= 0.0:
        raise DataError("cannot normalize: mean row norm is zero")
    return Dataset(
        indptr=ds.indptr.copy(),
        indices=ds.indices.copy(),
        values=ds.values / mean,
        labels=ds.labels.copy(),
        dim=ds.dim,
    )

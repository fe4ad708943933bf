"""Datasets of (feature vector, label) pairs in compressed sparse row form.

Rows are stored as three flat arrays (indptr, indices, values) like CSR so
that desk-scale dense problems and genuinely sparse ones share one code
path.  Feature indices are 0-based internally; the text format is 1-based.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass
class Dataset:
    """n feature rows with labels; immutable by convention once built."""

    indptr: np.ndarray   # int64, shape (n+1,)
    indices: np.ndarray  # int64, shape (nnz,)
    values: np.ndarray   # float64, shape (nnz,)
    labels: np.ndarray   # float64, shape (n,)
    dim: int

    _row_sq_cache: np.ndarray | None = field(default=None, repr=False, compare=False)
    _dense_cache: np.ndarray | None = field(default=None, repr=False, compare=False)

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
        if len(self.indices) != len(self.values) or (len(self.indices) and self.indptr[-1] != len(self.indices)):
            raise DataError("indices/values length mismatch")
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= self.dim):
            raise DataError("feature index out of range for dim=%d" % self.dim)

    @property
    def n(self) -> int:
        return len(self.labels)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(indices, values) of row i, views into the backing arrays."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def row_sq_norms(self) -> np.ndarray:
        """Squared Euclidean norm of every row (cached)."""
        if self._row_sq_cache is None:
            sq = self.values * self.values
            if len(sq):
                # trailing empty rows have offset == nnz, which reduceat
                # rejects; clip them and let the empty-row patch fix the value
                starts = np.minimum(self.indptr[:-1], len(sq) - 1)
                out = np.add.reduceat(sq, starts)
            else:
                out = np.zeros(self.n)
            empty = np.diff(self.indptr) == 0
            if empty.any():
                out = np.where(empty, 0.0, out)
            self._row_sq_cache = out
        return self._row_sq_cache

    def dense(self) -> np.ndarray:
        """Materialized (n, dim) matrix; cached. Fine at desk scale."""
        if self._dense_cache is None:
            A = np.zeros((self.n, self.dim))
            A[np.repeat(np.arange(self.n), np.diff(self.indptr)),
              self.indices] = self.values
            self._dense_cache = A
        return self._dense_cache

    def content_bytes(self) -> bytes:
        """Stable byte serialization used for hashing."""
        return b"".join((
            self.indptr.tobytes(), self.indices.tobytes(),
            self.values.tobytes(), self.labels.tobytes(),
            np.int64(self.dim).tobytes(),
        ))


def row_dot(ds: Dataset, i: int, x: np.ndarray) -> float:
    """Inner product of row i with x."""
    idx, val = ds.row(i)
    return float(val @ x[idx])


def matvec(ds: Dataset, x: np.ndarray) -> np.ndarray:
    """All n inner products a_i.x as one vector (uses the dense cache)."""
    return ds.dense() @ x


def rmatvec(ds: Dataset, g: np.ndarray) -> np.ndarray:
    """sum_i g_i * a_i, the adjoint of matvec."""
    return ds.dense().T @ g


def parse_libsvm(text: str, dim: int | None = None) -> Dataset:
    """Parse classic sparse text rows: "<label> <idx>:<val> <idx>:<val> ...".

    Indices are 1-based and must be strictly increasing within a line
    (duplicates are rejected).  `dim` overrides the inferred feature count
    and must be at least the largest index seen.
    """
    labels: list[float] = []
    indptr: list[int] = [0]
    indices: list[int] = []
    values: list[float] = []
    max_idx = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            labels.append(float(parts[0]))
        except ValueError:
            raise DataError(f"line {lineno}: bad label {parts[0]!r}")
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
            if j <= prev:
                raise DataError(
                    f"line {lineno}: indices must be strictly increasing "
                    f"(got {j + 1} after {prev + 1})")
            prev = j
            indices.append(j)
            values.append(val)
            max_idx = max(max_idx, j)
        indptr.append(len(indices))
    inferred = max_idx + 1
    if dim is None:
        dim = inferred
    elif dim < inferred:
        raise DataError(f"dim={dim} is smaller than largest index {inferred}")
    return Dataset(
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        values=np.array(values, dtype=np.float64),
        labels=np.array(labels, dtype=np.float64),
        dim=int(dim),
    )


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

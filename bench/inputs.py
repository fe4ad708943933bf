"""Workload definitions and the benchmark's own input generators.

Each workload fixes one base problem (a data generator with a fixed seed,
plus one experiment config).  The --seed argument picks a *presentation* of
that problem: a column permutation with random column sign flips.  That
changes every byte of the LibSVM file the program parses, but not the
optimization problem: F*, the minimizer up to the same permutation and
signs, and the sampled row sequence of the stochastic solvers all stay the
same.  The workloads keep test_c05's exact run seeds because the 1e-6 claim
checked on the dense workloads holds for those seeds and not for others
(bench/README.md lists the measurements).

Nothing here calls the program: the generators repeat the arithmetic of
test_c05's generators with numpy alone, and the writer produces the
LibSVM text directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Problem:
    """Rows in CSR form: row i holds indices[indptr[i]:indptr[i+1]]."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    dim: int

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict          # ExperimentConfig fields, data_path/out_dir aside
    target: float         # suboptimality that defines passes_to_target
    final_max: float | None  # bound on the last row's suboptimality
    make_base: Callable[[], "Problem"]

    @property
    def cli_args(self) -> list[str]:
        """The same config as `adaptreduce run` flags."""
        args = []
        for key, value in self.config.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                args.append(flag)
            else:
                args += [flag, repr(value) if isinstance(value, float) else str(value)]
        return args


def _dense(A: np.ndarray, labels: np.ndarray) -> Problem:
    n, d = A.shape
    return Problem(indptr=np.arange(0, n * d + 1, d, dtype=np.int64),
                   indices=np.tile(np.arange(d, dtype=np.int64), n),
                   values=A.ravel().copy(), labels=np.asarray(labels, float),
                   dim=d)


def regression(seed=11, n=500, d=100, sparsity=10, planted_scale=2.0,
               noise=0.08) -> Problem:
    """test_c05's lasso data: Gaussian design, planted sparse solution."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, d)) / np.sqrt(d)
    x_planted = np.zeros(d)
    support = rng.choice(d, sparsity, replace=False)
    x_planted[support] = rng.normal(size=sparsity) * planted_scale
    b = A @ x_planted + noise * rng.normal(size=n)
    return _dense(A, b)


def classification(seed=7, n=500, d=100, separation=2.0, noise_scale=2.0,
                   flip_fraction=0.05) -> Problem:
    """test_c05's svm data: two Gaussian classes, 5% of labels flipped."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    A = (separation * y[:, None] * direction[None, :]
         + noise_scale * rng.normal(size=(n, d)) / np.sqrt(d))
    flip = rng.random(n) < flip_fraction
    y[flip] *= -1.0
    return _dense(A, y)


def sparse_logistic(seed=1603, n=4500, d=250, nnz=12,
                    planted_scale=0.2) -> Problem:
    """Sparse rows (nnz of d columns, standard normal values) with labels
    drawn from a logistic model around a planted vector.  The label noise
    keeps the classes overlapping, so the unregularized loss has a finite
    minimizer (the reference certificate checks it on every run)."""
    rng = np.random.default_rng(seed)
    cols = np.stack([np.sort(rng.choice(d, nnz, replace=False))
                     for _ in range(n)])
    vals = rng.normal(size=(n, nnz))
    w = rng.normal(size=d) * planted_scale
    margin = (vals * w[cols]).sum(axis=1)
    labels = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-margin)), 1.0, -1.0)
    return Problem(indptr=np.arange(0, n * nnz + 1, nnz, dtype=np.int64),
                   indices=cols.ravel().astype(np.int64),
                   values=vals.ravel(), labels=labels, dim=d)


def present(base: Problem, seed: int) -> Problem:
    """The seed's presentation: permute columns, flip column signs, keep
    the indices of every row increasing."""
    rng = np.random.default_rng([seed, base.dim])
    perm = rng.permutation(base.dim)
    sign = rng.choice([-1.0, 1.0], size=base.dim)
    indices = perm[base.indices]
    values = base.values * sign[base.indices]
    row = np.repeat(np.arange(base.n), np.diff(base.indptr))
    order = np.lexsort((indices, row))
    return Problem(base.indptr.copy(), indices[order], values[order],
                   base.labels.copy(), base.dim)


def row_permutation(n: int, seed: int, k: int) -> np.ndarray:
    """Row order of the k-th cold reference solve of a run."""
    return np.random.default_rng([seed, n, k]).permutation(n)


def write_libsvm(p: Problem, path: str) -> None:
    lines = []
    for i in range(p.n):
        lo, hi = p.indptr[i], p.indptr[i + 1]
        toks = [repr(float(p.labels[i]))]
        toks += [f"{j + 1}:{v!r}" for j, v in
                 zip(p.indices[lo:hi].tolist(), p.values[lo:hi].tolist())]
        lines.append(" ".join(toks))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="lasso-dense",
        config=dict(task="lasso", l1_weight=0.012, method="adaptreg",
                    oracle="sdca", T=14, seed=5, pass_budget=300.0),
        target=5e-6, final_max=1e-6, make_base=regression),
    Workload(
        name="svm-dense",
        config=dict(task="svm", l2_weight=1.0, method="adaptsmooth",
                    oracle="svrg", lam0=0.02, T=10, seed=123,
                    pass_budget=300.0),
        target=5e-6, final_max=1e-6, make_base=classification),
    Workload(
        name="logistic-sparse",
        config=dict(task="logistic", method="adaptreg", oracle="sdca",
                    T=20, seed=5, pass_budget=30.0, normalize=True),
        target=2e-3, final_max=None, make_base=sparse_logistic),
)}

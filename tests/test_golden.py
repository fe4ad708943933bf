"""Golden traces: the SHA-256 of the CSV that run_experiment writes for a
small matrix of configs, one or more per method.

A change that is meant to leave the traces alone (a refactor, a speed-up
that keeps every float) must leave every hash here unchanged.  A change
that is meant to alter a trace updates that hash alone and says why.
"""
import hashlib

import numpy as np
import pytest

from adaptreduce import (Dataset, ExperimentConfig, gen_classification,
                         gen_regression, run_experiment, write_dataset)


def sparsify(data, seed, keep=0.3):
    """`data` with each stored entry kept with probability `keep`."""
    kept = np.random.default_rng(seed).random(len(data.values)) < keep
    rows = np.repeat(np.arange(data.n), np.diff(data.indptr))[kept]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=data.n))))
    return Dataset(indptr, data.indices[kept], data.values[kept], data.labels,
                   data.dim)


DATA = {
    "regression": lambda: gen_regression(61, 40, 8, sparsity=4),
    "classification": lambda: gen_classification(62, 40, 8),
    # about 6 of 20 entries per row, so the steps touch a row's support only
    "sparse-regression": lambda: sparsify(
        gen_regression(63, 60, 20, sparsity=5), 65),
    "sparse-classification": lambda: sparsify(
        gen_classification(64, 60, 20, flip_fraction=0.2), 66),
}

# name -> (dataset, config fields, SHA-256 of the written CSV)
GOLDEN = {
    "lasso-adaptreg-sdca": (
        "regression", dict(task="lasso", l1_weight=0.05, method="adaptreg",
                           oracle="sdca", T=6, seed=3),
        "5954349454a3261940fd5d9615c2f09496495464a550febed1c775f47b1ccaf2"),
    # the budget runs out mid-run: the last epochs cannot afford a pass
    "lasso-adaptreg-svrg-budget": (
        "regression", dict(task="lasso", l1_weight=0.05, method="adaptreg",
                           oracle="svrg", T=8, seed=4, pass_budget=20.0),
        "7e30dcfcccd423e4d70b10f4e40717e748df5724066d9cd3bd9152d9936522a6"),
    "svm-adaptsmooth-svrg": (
        "classification", dict(task="svm", l2_weight=0.05,
                               method="adaptsmooth", oracle="svrg", T=5,
                               seed=5),
        "6677d9c9009a7b869baa6a68cc020107e4618cf2355d7ae8ed4c5c1ca13365be"),
    "svm-adaptsmooth-sdca": (
        "classification", dict(task="svm", l2_weight=0.05,
                               method="adaptsmooth", oracle="sdca", T=5,
                               seed=6),
        "c627d38f65c0e06b9f388748a96062ff94006efc385710402fc97bcaac948a10"),
    "l1svm-joint-sdca-budget": (
        "classification", dict(task="l1svm", l1_weight=0.05, method="joint",
                               oracle="sdca", T=4, seed=7, pass_budget=20.0),
        "7b56be35682e4a3c295a04c89f4d8289abcb1e3ee9c66e5dad9bb32a7fd62895"),
    "lasso-classical-reg-apg": (
        "regression", dict(task="lasso", l1_weight=0.05,
                           method="classical-reg", oracle="apg", sigma=0.1),
        "9ffe22d8a567fcec7dfe2eaf8b096a6ddf7d1e827b722257f69fb3e3d00d9bec"),
    "svm-classical-smooth-svrg-budget": (
        "classification", dict(task="svm", l2_weight=0.05,
                               method="classical-smooth", oracle="svrg",
                               lam=0.05, seed=8, pass_budget=30.0),
        "f00f8aec1de89be0c4de352c0a287d50b6928812e3baf98ca61aa6c2ecc98fe4"),
    "ridge-direct-apg": (
        "regression", dict(task="ridge", l2_weight=0.1, method="direct",
                           oracle="apg"),
        "647ebfb6514ad471e462c893340c52dfd7fbdb2bb485e35257ea5b692e64fa1e"),
    "ridge-direct-sdca": (
        "regression", dict(task="ridge", l2_weight=0.1, method="direct",
                           oracle="sdca", seed=9),
        "1bcb13254b246a83adce2ab0921fdcfa41f50962fb0e1a59608d1861d2ac87f2"),
    # sparse rows: the SDCA primal update and the SVRG step touch a row's
    # support; adaptreg adds a shifted quadratic to the l1 term
    "sparse-lasso-adaptreg-sdca": (
        "sparse-regression", dict(task="lasso", l1_weight=0.02,
                                  method="adaptreg", oracle="sdca", T=6,
                                  seed=10),
        "bef395fa8b222bf6b77a5e25b1b2dff99972add70089acb7cc77ab81a6a9ea72"),
    "sparse-lasso-adaptreg-svrg": (
        "sparse-regression", dict(task="lasso", l1_weight=0.02,
                                  method="adaptreg", oracle="svrg", T=6,
                                  seed=12),
        "c395825dc6c541f55d1c36cea971b030365ed659d0190a117d0e598b0546c25d"),
    "sparse-logistic-adaptreg-sdca": (
        "sparse-classification", dict(task="logistic", method="adaptreg",
                                      oracle="sdca", T=4, seed=13),
        "8d1e179c19e99781b2baa2aff9da832e10c6ab5acd26f0c6b969947eb5c23d34"),
    "sparse-svm-adaptsmooth-svrg": (
        "sparse-classification", dict(task="svm", l2_weight=0.05,
                                      method="adaptsmooth", oracle="svrg",
                                      T=5, seed=11),
        "8b4f4423bc49324c47af41532bafcac642027e02dbb731a0f4920214e887f452"),
}


def golden_csv(tmp_path, name) -> bytes:
    dataset, fields, _ = GOLDEN[name]
    path = tmp_path / f"{dataset}.txt"
    write_dataset(DATA[dataset](), str(path))
    config = ExperimentConfig(data_path=str(path), out_dir=str(tmp_path),
                              **fields)
    run_experiment(config)
    with open(config.out_path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_hash(tmp_path, name):
    digest = hashlib.sha256(golden_csv(tmp_path, name)).hexdigest()
    assert digest == GOLDEN[name][2]

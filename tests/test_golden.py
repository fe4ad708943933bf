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
    # about 2 of 40 entries per row, 24 rows empty: below the density at
    # which matvec/rmatvec and the reference run on the CSR backend
    "csr-classification": lambda: sparsify(
        gen_classification(67, 200, 40, flip_fraction=0.2), 68, keep=0.05),
}

# name -> (dataset, config fields, SHA-256 of the written CSV)
GOLDEN = {
    "lasso-adaptreg-sdca": (
        "regression", dict(task="lasso", l1_weight=0.05, method="adaptreg",
                           oracle="sdca", T=6, seed=3),
        "e63d0e5bb862c37856db6d90f114e49b3b099c45ec6f168c844b68731a858270"),
    # the budget runs out mid-run: the last epochs cannot afford a pass
    "lasso-adaptreg-svrg-budget": (
        "regression", dict(task="lasso", l1_weight=0.05, method="adaptreg",
                           oracle="svrg", T=8, seed=4, pass_budget=20.0),
        "0be0fb6a1abf8d8258d9e2aee0ce44fa8823b825ea285d4f0660195db95db0dd"),
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
        "4dda5cdd68c431e4e8521300bf7b08d23a77b8196f550fdb386f792c97ff9149"),
    # the prox-gradient loop without momentum: the gap policy, the free
    # gradient norm, and TheoryBudget; the apg svm run takes the paid norm
    "lasso-adaptreg-proxgd": (
        "regression", dict(task="lasso", l1_weight=0.05, method="adaptreg",
                           oracle="proxgd", T=6, seed=3),
        "e6b7af2948502e71fb1ae45f0c302959a35ee85e5b7459629cd85c25fe27d03e"),
    "svm-adaptsmooth-proxgd": (
        "classification", dict(task="svm", l2_weight=0.05,
                               method="adaptsmooth", oracle="proxgd", T=5,
                               seed=5),
        "8b16e56e5008455da994e76ef9ad40cc4b5a1c1f47e8d76d6216a9c9dc2c1aa8"),
    "svm-adaptsmooth-apg": (
        "classification", dict(task="svm", l2_weight=0.05,
                               method="adaptsmooth", oracle="apg", T=5,
                               seed=5),
        "43f64f36e9bfdd0bedc7f49396a063e165028f8b3dd4a0ef1907455aa0c1d918"),
    "ridge-direct-proxgd": (
        "regression", dict(task="ridge", l2_weight=0.1, method="direct",
                           oracle="proxgd"),
        "d9aff1710f64e5224106e8db7a79647919ce5f852e008115b8a39d4f221d45e7"),
    "lasso-classical-reg-apg": (
        "regression", dict(task="lasso", l1_weight=0.05,
                           method="classical-reg", oracle="apg", sigma=0.1),
        "c11255b361bf25062255eee0c46de89c14d008e50ec5781ede50709b044f7aa0"),
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
        "50dcee544c7d33248738643a51afdd9795058aae9db6b9ce485bd98bac090ba1"),
    "sparse-lasso-adaptreg-svrg": (
        "sparse-regression", dict(task="lasso", l1_weight=0.02,
                                  method="adaptreg", oracle="svrg", T=6,
                                  seed=12),
        "b1e1483f44048f8d39e758c2adf5443d2c61ec3743d97edb319d6a2b13aff575"),
    "sparse-logistic-adaptreg-sdca": (
        "sparse-classification", dict(task="logistic", method="adaptreg",
                                      oracle="sdca", T=4, seed=13),
        "77396ef7f533d584eab9eb9c5d7f65d73a045775c3de4d202391c0282170ff4a"),
    "sparse-svm-adaptsmooth-svrg": (
        "sparse-classification", dict(task="svm", l2_weight=0.05,
                                      method="adaptsmooth", oracle="svrg",
                                      T=5, seed=11),
        "8b4f4423bc49324c47af41532bafcac642027e02dbb731a0f4920214e887f452"),
    # the CSR kernels' summation order, which differs from the dense
    # backend's in the last bits
    "csr-logistic-adaptreg-sdca": (
        "csr-classification", dict(task="logistic", method="adaptreg",
                                   oracle="sdca", T=4, seed=14),
        "c114617b80d87281da79314553830fb8683b87589c87f7cdb16d18af5096ae1a"),
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

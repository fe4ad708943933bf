"""Acceptance suite: one test per primary contract, each printing a single
pass/fail line under pytest -v.

Every numeric target here was frozen from an independent computation (closed
forms, brute-force grids, or certified reference solves) before the assertion
was written; nothing is tuned to the implementation under test.
"""
import os
import time

import numpy as np
import pytest

from adaptreduce import (CompositeObjective, ExperimentConfig, Regularizer,
                         TheoryBudget, apg_hood, base_reference,
                         classical_smooth, dense_to_dataset,
                         gen_classification, gen_regression, loss_value,
                         prox_gd_hood, reference_minimize, run_experiment,
                         smoothed_value, svrg_hood, verify_bound,
                         write_dataset)
from helpers import quadratic_reference


def ridge_reference(data, l2):
    """Closed-form optimum of a squared-loss + l2 objective (independent of
    the iterative solvers)."""
    A, b = data.dense(), data.labels
    n, d = A.shape
    Q = A.T @ A / n + l2 * np.eye(d)
    c = A.T @ b / n
    x_star, qval = quadratic_reference(Q, c)
    return x_star, qval + 0.5 * float(b @ b) / n


def test_c01_hood_certification_on_conditioned_quadratics():
    """prox-GD and APG certified oracles quarter the gap on 20 random
    strongly convex quadratics per condition number in {10, 100, 1000},
    within their theory budgets, in under 10 seconds."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    sigma = 0.5
    for kappa in (10.0, 100.0, 1000.0):
        for _ in range(20):
            A = rng.normal(size=(8, 8))
            A *= np.sqrt(kappa * sigma / (A * A).sum(axis=1).max())
            b = rng.normal(size=8)
            x0 = 3.0 * rng.normal(size=8)
            F = CompositeObjective(dense_to_dataset(A, b), "squared",
                                   Regularizer(l2=sigma))
            assert F.smoothness == pytest.approx(kappa * sigma)
            _, F_star = ridge_reference(F.data, sigma)
            d0 = F.full_value(x0) - F_star
            for solver in (prox_gd_hood, apg_hood):
                rep = solver(F, x0, TheoryBudget())
                d1 = F.full_value(rep.x_out) - F_star
                assert d1 <= d0 / 4.0 + 1e-12, (kappa, solver.__name__)
    assert time.monotonic() - t0 < 10.0


def test_c02_svrg_probabilistic_quarter_decrease():
    """SVRG hits the factor-4 decrease on at least 18 of 20 seeds within its
    theory budget on synthetic ridge (n=200, d=20)."""
    data = gen_regression(42, 200, 20)
    F = CompositeObjective(data, "squared", Regularizer(l2=0.1))
    _, F_star = ridge_reference(data, 0.1)
    x0 = 2.0 * np.ones(20)
    d0 = F.full_value(x0) - F_star
    wins = 0
    for seed in range(20):
        rep = svrg_hood(F, x0, TheoryBudget(), seed=seed)
        wins += (F.full_value(rep.x_out) - F_star) <= d0 / 4.0
    assert wins >= 18


def test_c03_smoothing_sandwich_and_monotonicity():
    """f - lam*G^2/2 <= f_lam <= f and lam-monotonicity hold to 1e-9 for
    hinge and logistic over z in [-5, 5] (step 0.01), lam in {0.01, 0.1, 1}."""
    z = np.arange(-5.0, 5.0 + 1e-12, 0.01)
    for kind in ("hinge", "logistic"):
        f = loss_value(kind, z, 1.0)
        G = 1.0  # both losses are 1-Lipschitz at unit label
        prev = None
        for lam in (1.0, 0.1, 0.01):  # increasing in the monotone direction
            s = smoothed_value(kind, z, 1.0, lam)
            assert np.all(s <= f + 1e-9)
            assert np.all(s >= f - 0.5 * lam * G * G - 1e-9)
            if prev is not None:
                assert np.all(s >= prev - 1e-9)  # smaller lam, larger value
            prev = s


def test_c04_reduction_bound_certificates_exact_oracle():
    """With exact per-epoch minimization, the halving reductions satisfy
    their final suboptimality bounds, per-epoch recursions, and distance
    claims for T = 1..8 at slack 1e-7 on n=200, d=50 instances."""
    t0 = time.monotonic()
    reg_data = gen_regression(3, 200, 50)
    cls_data = gen_classification(3, 200, 50, separation=1.5,
                                  noise_scale=1.5, flip_fraction=0.05)
    plan = [
        (CompositeObjective(reg_data, "squared", Regularizer(l1=0.02)),
         ("adaptreg-final-bound", "adaptreg-recursion", "adaptreg-distance")),
        (CompositeObjective(cls_data, "hinge", Regularizer(l2=0.1)),
         ("adaptsmooth-final-bound", "adaptsmooth-recursion",
          "adaptsmooth-d0")),
        (CompositeObjective(cls_data, "hinge", Regularizer(l1=0.02)),
         ("joint-final-bound", "joint-recursion", "joint-distance")),
    ]
    x0 = np.zeros(50)
    for F, names in plan:
        for name in names:
            for T in range(1, 9):
                report = verify_bound(name, F, x0, T, slack=1e-7)
                assert report.passed, report.summary()
    assert time.monotonic() - t0 < 120.0


def _min_subopt_sweep(data_path, out_dir, *, task, l1, l2, method, fixed_key):
    grid = sorted(10.0 ** k * m for k in range(-6, 0) for m in (1.0, 3.0))
    results = []
    for v in grid:
        c = ExperimentConfig(data_path=data_path, task=task, l1_weight=l1,
                             l2_weight=l2, method=method, oracle="sdca"
                             if method == "classical-reg" else "svrg",
                             seed=5 if method == "classical-reg" else 123,
                             pass_budget=300.0, eps=1e-6, out_dir=out_dir,
                             **{fixed_key: v})
        tr = run_experiment(c, write=False)
        results.append((tr.min_subopt(), tr.passes_to(1e-6)))
    return results


def test_c05_adaptive_beats_every_fixed_parameter_baseline(tmp_path):
    """At n=500, d=100 with a 300-pass budget, the adaptive reductions reach
    suboptimality <= 1e-6 while every classical fixed-parameter run from the
    {10^k, 3*10^k} sweep plateaus above 1e-6 or gets there in more passes."""
    lasso_path = str(tmp_path / "lasso.txt")
    write_dataset(gen_regression(11, 500, 100, sparsity=10,
                                 planted_scale=2.0, noise=0.08), lasso_path)
    svm_path = str(tmp_path / "svm.txt")
    write_dataset(gen_classification(7, 500, 100, separation=2.0,
                                     noise_scale=2.0, flip_fraction=0.05),
                  svm_path)
    out = str(tmp_path / "runs")

    ada = run_experiment(ExperimentConfig(
        data_path=lasso_path, task="lasso", l1_weight=0.012,
        method="adaptreg", oracle="sdca", T=14, seed=5, pass_budget=300.0,
        out_dir=out), write=False)
    assert ada.min_subopt() <= 1e-6
    ada_passes = ada.passes_to(1e-6)
    for mn, p in _min_subopt_sweep(lasso_path, out, task="lasso", l1=0.012,
                                   l2=0.0, method="classical-reg",
                                   fixed_key="sigma"):
        assert mn > 1e-6 or p > ada_passes

    ada = run_experiment(ExperimentConfig(
        data_path=svm_path, task="svm", l2_weight=1.0, method="adaptsmooth",
        oracle="svrg", lam0=0.02, T=10, seed=123, pass_budget=300.0,
        out_dir=out), write=False)
    assert ada.min_subopt() <= 1e-6
    ada_passes = ada.passes_to(1e-6)
    for mn, p in _min_subopt_sweep(svm_path, out, task="svm", l1=0.0,
                                   l2=1.0, method="classical-smooth",
                                   fixed_key="lam"):
        assert mn > 1e-6 or p > ada_passes


def test_c06_classical_smoothing_plateau_bound():
    """classical_smooth's final suboptimality on the original objective is
    at most lam*G^2/2 (+1e-8) for lam in {0.1, 0.01} on synthetic SVM."""
    data = gen_classification(5, 60, 10)
    F = CompositeObjective(data, "hinge", Regularizer(l2=0.5))
    F_star = F.full_value(base_reference(F))
    G = F.lipschitz_G
    for lam in (0.1, 0.01):
        x, _ = classical_smooth(F, apg_hood, np.zeros(10), lam,
                                pass_budget=4000.0)
        assert F.full_value(x) - F_star <= 0.5 * lam * G * G + 1e-8


def test_c07_gradients_match_central_differences():
    """Full gradients (plain and smoothed) match central finite differences
    at step 1e-6 within relative error 1e-5, 100 random points per family."""
    rng = np.random.default_rng(77)
    data_r = gen_regression(21, 25, 6, sparsity=3)
    data_c = gen_classification(22, 25, 6)
    families = [
        CompositeObjective(data_r, "squared", Regularizer(l2=0.3)),
        CompositeObjective(data_c, "logistic", Regularizer(l2=0.3)),
        CompositeObjective(data_r, "squared", Regularizer(l2=0.3)).smooth(0.5),
        CompositeObjective(data_c, "hinge", Regularizer(l2=0.3)).smooth(0.3),
        CompositeObjective(data_c, "logistic", Regularizer(l2=0.3)).smooth(0.3),
    ]
    h = 1e-6
    for F in families:
        for _ in range(100):
            x = rng.normal(size=6)
            g = F.full_gradient(x, include_quadratic_reg=True)
            num = np.empty(6)
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                num[j] = (F.full_value(x + e) - F.full_value(x - e)) / (2 * h)
            err = np.linalg.norm(num - g) / max(1.0, np.linalg.norm(g))
            assert err <= 1e-5


def test_c08_duality_gap_soundness():
    """Gap is never below -1e-10, is <= 1e-6 at certified reference
    minimizers, and upper-bounds measured suboptimality (to 1e-8)."""
    rng = np.random.default_rng(88)
    ridge = CompositeObjective(gen_regression(31, 12, 4, sparsity=2),
                               "squared", Regularizer(l2=0.4))
    sm_hinge = CompositeObjective(gen_classification(32, 15, 4), "hinge",
                                  Regularizer(l2=0.4)).smooth(0.2)
    for F in (ridge, sm_hinge):
        x_ref = reference_minimize(F, tol=1e-12)
        assert F.duality_gap(x_ref) <= 1e-6
        F_star = F.full_value(x_ref)
        for scale in (0.01, 0.3, 2.0):
            for _ in range(20):
                x = x_ref + scale * rng.normal(size=4)
                gap = F.duality_gap(x)
                assert gap >= -1e-10
                assert gap >= (F.full_value(x) - F_star) - 1e-8


def test_c09_byte_identical_traces(tmp_path):
    """Identical config + seed produce byte-identical trace CSVs across two
    independent runs."""
    data_path = str(tmp_path / "data.txt")
    write_dataset(gen_regression(61, 40, 8, sparsity=4), data_path)
    blobs = []
    for run_dir in ("first", "second"):
        c = ExperimentConfig(data_path=data_path, task="lasso",
                             l1_weight=0.05, method="adaptreg", oracle="sdca",
                             T=4, seed=9, out_dir=str(tmp_path / run_dir))
        run_experiment(c)
        with open(c.out_path, "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


def test_c10_out_of_scope_items_documented_not_automated():
    """Full-scale dataset figures and wall-clock comparisons are explicitly
    out of scope; the README documents a manual subsample sweep recipe
    instead, and no test in this suite exercises it."""
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    assert "20,000" in text
    assert "not part of the automated suite" in text
    assert "wall-clock" in text

"""Certified reference minimizers for every task family.

Each family is re-verified here with an independent oracle written directly
against the objective definition: closed forms for quadratics, KKT conditions
recomputed from scratch for l1 supports and hinge margins, and a primal-dual
sandwich (projected dual ascent in plain numpy) for the SVM family.
"""
import numpy as np
import pytest

from adaptreduce import (CompositeObjective, Dataset, NumericalError,
                         Regularizer, base_reference, gen_classification,
                         quadratic_reference, reference_minimize,
                         write_dataset)
from adaptreduce import references
from adaptreduce.cli import main


def dense_ds(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n, d = A.shape
    return Dataset(np.arange(n + 1) * d, np.tile(np.arange(d), n),
                   A.ravel().copy(), b, dim=d)


def labels(rng, n):
    return np.where(rng.random(n) < 0.5, 1.0, -1.0)


def assert_local_min(F, x_hat, rng, scales=(1e-3, 1e-5), trials=50):
    base = F.full_value(x_hat)
    for s in scales:
        for _ in range(trials):
            pert = x_hat + rng.normal(size=len(x_hat)) * s
            assert F.full_value(pert) >= base - 1e-12


def test_ridge_reference_matches_closed_form():
    rng = np.random.default_rng(90)
    A = rng.normal(size=(25, 6))
    b = rng.normal(size=25)
    l2 = 0.3
    F = CompositeObjective(dense_ds(A, b), "squared", Regularizer(l2=l2))
    x_hat = base_reference(F)
    want, _ = quadratic_reference(A.T @ A / 25 + l2 * np.eye(6), A.T @ b / 25)
    np.testing.assert_allclose(x_hat, want, atol=1e-6)
    assert F.duality_gap(x_hat) <= 1e-12


def test_lasso_reference_kkt():
    rng = np.random.default_rng(91)
    n, d, w = 40, 8, 0.05
    A = rng.normal(size=(n, d))
    b = rng.normal(size=n)
    F = CompositeObjective(dense_ds(A, b), "squared", Regularizer(l1=w))
    x_hat = base_reference(F)
    # independent KKT recheck: g = (1/n) A'(Ax - b) must lie in -w dsign(x)
    g = A.T @ (A @ x_hat - b) / n
    for j in range(d):
        if abs(x_hat[j]) > 1e-10:
            assert g[j] + w * np.sign(x_hat[j]) == pytest.approx(0.0, abs=1e-8)
        else:
            assert abs(g[j]) <= w + 1e-9
    assert_local_min(F, x_hat, rng)


def test_l1_logistic_reference_kkt():
    rng = np.random.default_rng(92)
    n, d, w = 35, 6, 0.02
    A = rng.normal(size=(n, d)) / np.sqrt(d)
    y = labels(rng, n)
    F = CompositeObjective(dense_ds(A, y), "logistic", Regularizer(l1=w))
    x_hat = base_reference(F)
    margins = A @ x_hat
    sig = 1.0 / (1.0 + np.exp(y * margins))
    g = A.T @ (-y * sig) / n
    for j in range(d):
        if abs(x_hat[j]) > 1e-10:
            assert g[j] + w * np.sign(x_hat[j]) == pytest.approx(0.0, abs=1e-8)
        else:
            assert abs(g[j]) <= w + 1e-9
    assert_local_min(F, x_hat, rng)


def test_svm_reference_primal_dual_sandwich():
    rng = np.random.default_rng(93)
    n, d, sig = 16, 4, 0.4
    A = rng.normal(size=(n, d)) / np.sqrt(d)
    y = labels(rng, n)
    F = CompositeObjective(dense_ds(A, y), "hinge", Regularizer(l2=sig))
    x_hat = base_reference(F)

    # independent dual: max_{tau in [0,1]^n} (1/n) sum tau
    #                    - 1/(2 sig) |(1/n) sum tau_i y_i a_i|^2
    Ay = A * y[:, None]
    tau = np.full(n, 0.5)
    step = sig * n / float((Ay @ Ay.T).diagonal().max()) * 0.5
    for _ in range(200_000):
        v = Ay.T @ tau / n
        grad = np.full(n, 1.0 / n) - (Ay @ v) / (sig * n)
        tau = np.clip(tau + step * grad, 0.0, 1.0)
    v = Ay.T @ tau / n
    dual = float(tau.sum()) / n - float(v @ v) / (2.0 * sig)

    primal = F.full_value(x_hat)
    assert primal >= dual - 1e-12          # weak duality on our certificate
    assert primal - dual <= 1e-8           # sandwich: both are near-optimal
    assert_local_min(F, x_hat, rng)


def test_l1svm_reference_kkt():
    rng = np.random.default_rng(94)
    n, d, w = 30, 5, 0.03
    A = rng.normal(size=(n, d)) / np.sqrt(d)
    y = labels(rng, n)
    F = CompositeObjective(dense_ds(A, y), "hinge", Regularizer(l1=w))
    x_hat = base_reference(F)

    # recompute the hinge KKT certificate from scratch: multipliers tau_i = 1
    # on violated margins, tau_i in [0,1] on active margins, 0 elsewhere,
    # with A' tau / n inside w * dsign(x) componentwise
    m = y * (A @ x_hat)
    tol = 1e-6
    viol = m < 1.0 - tol
    active = np.abs(m - 1.0) <= tol
    g0 = -(A[viol] * y[viol, None]).sum(axis=0) / n
    B = (A[active] * y[active, None])
    if B.shape[0]:
        # solve for active multipliers from the support stationarity rows
        S = np.abs(x_hat) > 1e-7
        rhs = -(g0[S] + w * np.sign(x_hat[S]))
        tau, *_ = np.linalg.lstsq(-B[:, S].T / n, rhs, rcond=None)
        assert np.all(tau >= -1e-6) and np.all(tau <= 1.0 + 1e-6)
        g = g0 - B.T @ tau / n
    else:
        g = g0
    for j in range(d):
        if abs(x_hat[j]) > 1e-7:
            assert g[j] + w * np.sign(x_hat[j]) == pytest.approx(0.0, abs=1e-6)
        else:
            assert abs(g[j]) <= w + 1e-6
    assert_local_min(F, x_hat, rng)


def test_smoothed_hinge_reference_is_case1_dispatch():
    rng = np.random.default_rng(95)
    A = rng.normal(size=(20, 4)) / 2.0
    y = labels(rng, 20)
    F = CompositeObjective(dense_ds(A, y), "hinge", Regularizer(l2=0.2),
                           smoothing=0.1)
    x_hat = base_reference(F)
    assert F.duality_gap(x_hat) <= 1e-12


def test_base_reference_cache_identity():
    rng = np.random.default_rng(96)
    A = rng.normal(size=(15, 3))
    b = rng.normal(size=15)
    F = CompositeObjective(dense_ds(A, b), "squared", Regularizer(l1=0.05))
    first = base_reference(F)
    again = base_reference(F)
    assert first is again            # in-memory cache hit
    with pytest.raises(ValueError):
        first[0] = 3.14              # read-only result
    # equal content under a fresh but identical objective
    F2 = CompositeObjective(dense_ds(A, b), "squared", Regularizer(l1=0.05))
    assert base_reference(F2) is first


def test_case1_reference_is_the_reference_minimize_array():
    rng = np.random.default_rng(97)
    A = rng.normal(size=(15, 3))
    b = rng.normal(size=15)
    F = CompositeObjective(dense_ds(A, b), "squared", Regularizer(l2=0.2))
    assert base_reference(F) is reference_minimize(F)


def test_hinge_warmup_runs_apg_hood_until_the_polish_certifies(monkeypatch):
    # the golden svm objective: the polish certifies before the schedule's
    # 30th epoch, and each epoch is one apg_hood call
    F = CompositeObjective(gen_classification(62, 40, 8), "hinge",
                           Regularizer(l2=0.05))
    calls = []
    real = references.apg_hood

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(references, "apg_hood", counted)
    monkeypatch.setattr(references, "_BASE_CACHE", {})
    x = base_reference(F)
    assert 1 <= len(calls) <= 29
    assert F.full_value(x) == pytest.approx(0.15515605176761818, abs=1e-12)


def test_separable_logistic_has_no_reference(tmp_path, capsys):
    # every label is classified with a positive margin at the "minimizer",
    # whose norm only grows with the accuracy asked for
    F = CompositeObjective(gen_classification(62, 40, 8), "logistic",
                           Regularizer())
    with pytest.raises(NumericalError, match="linearly separable"):
        base_reference(F)
    path = str(tmp_path / "sep.txt")
    write_dataset(gen_classification(62, 40, 8), path)
    rc = main(["reference", "--data-path", path, "--task", "logistic",
               "--out", str(tmp_path)])
    assert rc == 4
    assert "linearly separable" in capsys.readouterr().err


def test_overlapping_logistic_reference_certifies():
    F = CompositeObjective(gen_classification(63, 40, 8), "logistic",
                           Regularizer())
    x = base_reference(F)
    assert F.full_value(x) == pytest.approx(0.164054, abs=1e-6)
    assert np.linalg.norm(F.full_gradient(x)) <= 1e-10


def test_l1_polish_grows_the_support_from_zero():
    # started on an empty support, the polish adds one violator per round
    # until the KKT conditions hold, and lands on the reference
    rng = np.random.default_rng(91)
    A = rng.normal(size=(40, 8))
    F = CompositeObjective(dense_ds(A, rng.normal(size=40)), "squared",
                           Regularizer(l1=0.05))
    x = references._polish_l1(F, A, F.data.labels, np.zeros(8))
    assert np.count_nonzero(x) >= 2
    assert np.array_equal(x, base_reference(F))
    rng = np.random.default_rng(92)
    A = rng.normal(size=(35, 6)) / np.sqrt(6)
    F = CompositeObjective(dense_ds(A, labels(rng, 35)), "logistic",
                           Regularizer(l1=0.02))
    x = references._polish_l1(F, A, F.data.labels, np.zeros(6))
    np.testing.assert_allclose(x, base_reference(F), atol=1e-12)

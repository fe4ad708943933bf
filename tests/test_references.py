"""Certified reference minimizers for every task family.

Each family is re-verified here with an independent oracle written directly
against the objective definition: closed forms for quadratics, KKT conditions
recomputed from scratch for l1 supports and hinge margins, and a primal-dual
sandwich (projected dual ascent in plain numpy) for the SVM family.
"""
import numpy as np
import pytest

from adaptreduce import (CompositeObjective, Dataset, ExperimentConfig,
                         NumericalError, Regularizer, base_reference,
                         gen_classification, gen_regression,
                         quadratic_reference, run_experiment, write_dataset)
from adaptreduce import data as data_mod
from adaptreduce import harness, references
from adaptreduce.cli import main
from test_golden import sparsify


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
    # one cache for every Case: a Case2 and a Case1 objective
    for seed, reg in ((96, dict(l1=0.05)), (97, dict(l2=0.2))):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(15, 3))
        b = rng.normal(size=15)
        F = CompositeObjective(dense_ds(A, b), "squared", Regularizer(**reg))
        first = base_reference(F)
        again = base_reference(F)
        assert first is again            # in-memory cache hit
        with pytest.raises(ValueError):
            first[0] = 3.14              # read-only result
        # equal content under a fresh but identical objective
        F2 = CompositeObjective(dense_ds(A, b), "squared", Regularizer(**reg))
        assert base_reference(F2) is first


def test_svm_warmup_is_dual_coordinate_ascent(monkeypatch):
    # the golden svm objective: Case3 is warmed up without apg_hood, by
    # whole epochs of coordinate steps, polished every _DCA_POLISH_EVERY
    def refuse(*args, **kwargs):
        raise AssertionError("the Case3 warm-up called apg_hood")

    F = CompositeObjective(gen_classification(62, 40, 8), "hinge",
                           Regularizer(l2=0.05))
    monkeypatch.setattr(references, "apg_hood", refuse)
    steps = count_calls(monkeypatch, "_sdca_coordinate")
    x = base_reference(F)
    assert len(steps) > 0
    assert len(steps) % (references._DCA_POLISH_EVERY * F.n) == 0
    assert F.full_value(x) == pytest.approx(0.15515605176761818, abs=1e-12)


def test_l1svm_warmup_runs_apg_hood_until_the_polish_certifies(monkeypatch):
    # the golden l1svm objective: the polish certifies before the schedule's
    # 34th epoch, and each epoch is one apg_hood call
    F = CompositeObjective(gen_classification(62, 40, 8), "hinge",
                           Regularizer(l1=0.05))
    calls = count_calls(monkeypatch, "apg_hood")
    x = base_reference(F)
    assert 1 <= len(calls) <= 33
    assert F.full_value(x) == pytest.approx(0.21077018664805297, abs=1e-12)


def test_svm_reference_duality_gap_certificate():
    F = CompositeObjective(gen_classification(62, 40, 8), "hinge",
                           Regularizer(l2=0.05))
    x = base_reference(F)
    _, tau = references._polish_hinge(F, x, references._MARGIN_TOLS[0])
    assert np.all((tau >= 0.0) & (tau <= 1.0))
    assert abs(references._check_hinge_gap(F, x, tau, 1e-12)) <= 1e-15
    # the same dual point no longer certifies a displaced primal point
    displaced = x + 1e-4 * np.random.default_rng(98).normal(size=F.dim)
    with pytest.raises(NumericalError, match=r"duality gap .* exceeds tol 1e-12"):
        references._check_hinge_gap(F, displaced, tau, 1e-12)
    # base_reference's tol reaches the check: no gap is below a negative tol
    with pytest.raises(NumericalError, match=r"duality gap .* exceeds tol -1"):
        base_reference(F, -1.0)


def test_readme_scale_small_l2_svm_reference_certifies(tmp_path, capsys):
    # the l2 of the README's covtype recipe, on README-scale data
    path = str(tmp_path / "cls.txt")
    write_dataset(gen_classification(7, 500, 100), path)
    rc = main(["reference", "--data-path", path, "--task", "svm",
               "--l2-weight", "1e-5", "--out", str(tmp_path)])
    assert rc == 0
    assert "objective value at reference: 0.00186044636112" in (
        capsys.readouterr().out)


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


@pytest.mark.parametrize("seeds, one_sided", [((67, 120, 40, 68), 6),
                                              ((69, 100, 60, 70), 14)])
def test_axis_separable_logistic_is_refused_before_fista(
        monkeypatch, seeds, one_sided):
    # some column's nonzeros all give b_i a_ij one sign, so the loss falls
    # forever along that axis although not every margin is positive
    def refuse(*args, **kwargs):
        raise AssertionError("FISTA ran on axis-separable data")

    gen_seed, n, d, sparsify_seed = seeds
    data = sparsify(gen_classification(gen_seed, n, d, flip_fraction=0.2),
                    sparsify_seed, keep=0.05)
    F = CompositeObjective(data, "logistic", Regularizer())
    monkeypatch.setattr(references, "soft_threshold", refuse)
    with pytest.raises(NumericalError,
                       match=f"separable along {one_sided} feature axes"):
        base_reference(F)


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


def count_calls(monkeypatch, name):
    # wrap references.<name> with a call counter; start from an empty cache
    calls = []
    real = getattr(references, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(references, name, counted)
    monkeypatch.setattr(references, "_BASE_CACHE", {})
    return calls


def assert_l1_kkt(F, x):
    # the l1 optimality conditions, recomputed from the data
    A, y, w = F.data.dense(), F.data.labels, F.reg.l1
    n = A.shape[0]
    if F.loss == "squared":
        g = A.T @ (A @ x - y) / n
    else:
        g = A.T @ (-y / (1.0 + np.exp(y * (A @ x)))) / n
    S = np.abs(x) > 1e-10
    np.testing.assert_allclose(g[S] + w * np.sign(x[S]), 0.0, atol=1e-8)
    assert np.all(np.abs(g[~S]) <= w + 1e-9)


@pytest.mark.parametrize("loss", ["squared", "logistic"])
def test_case2_warmup_stops_at_a_certified_checkpoint(monkeypatch, loss):
    if loss == "squared":
        F = CompositeObjective(gen_regression(61, 40, 8, sparsity=4),
                               "squared", Regularizer(l1=0.05))
    else:
        F = CompositeObjective(gen_classification(63, 40, 8), "logistic",
                               Regularizer())
    # soft_threshold runs once per FISTA step and never in the polish
    calls = count_calls(monkeypatch, "soft_threshold")
    x = base_reference(F)
    assert 0 < len(calls) < 6000
    assert len(calls) in references._FISTA_CHECKPOINTS
    if loss == "logistic":
        assert F.full_value(x) == pytest.approx(0.164054, abs=1e-6)
    else:
        assert_l1_kkt(F, x)


def test_case2_warmup_runs_in_full_when_no_polish_certifies(monkeypatch):
    # every attempt fails: all 6000 steps run, and the last polish's own
    # error reaches the caller
    F = CompositeObjective(gen_regression(61, 40, 8, sparsity=4), "squared",
                           Regularizer(l1=0.05))
    calls = count_calls(monkeypatch, "soft_threshold")
    err = NumericalError("polish refused")
    attempts = []

    def refuse(*args):
        attempts.append(1)
        raise err

    monkeypatch.setattr(references, "_polish_l1", refuse)
    with pytest.raises(NumericalError) as info:
        base_reference(F)
    assert info.value is err
    assert len(calls) == 6000
    assert 1 <= len(attempts) <= len(references._FISTA_CHECKPOINTS)


@pytest.mark.parametrize("w", [1e-3, 1e-1])
@pytest.mark.parametrize("loss", ["squared", "logistic"])
def test_readme_scale_case2_references_certify(monkeypatch, loss, w):
    if loss == "squared":
        data = gen_regression(7, 500, 100, sparsity=10)
    else:
        data = gen_classification(7, 500, 100)
    F = CompositeObjective(data, loss, Regularizer(l1=w))
    # the support gate lets through only the polish that certifies
    attempts = count_calls(monkeypatch, "_polish_l1")
    assert_l1_kkt(F, base_reference(F))
    assert len(attempts) == 1


@pytest.mark.parametrize("F", [
    CompositeObjective(gen_classification(62, 40, 8), "hinge",
                       Regularizer(l1=0.05), smoothing=0.1),
    CompositeObjective(gen_classification(7, 500, 100), "logistic",
                       Regularizer(l1=1e-2), smoothing=0.5),
], ids=["hinge", "logistic"])
def test_smoothed_case2_has_no_reference(monkeypatch, F):
    # refused before any warm-up step, naming case, loss and smoothing
    calls = count_calls(monkeypatch, "soft_threshold")
    with pytest.raises(NumericalError,
                       match=rf"smoothed Case2 .*{F.loss} loss.*{F.smoothing}"):
        base_reference(F)
    assert calls == []


def sparse_logistic_rows(seed, n, d, per_row):
    """per_row standard normal entries in each row, labels drawn from a
    logistic model around a planted vector (overlapping classes)."""
    rng = np.random.default_rng(seed)
    cols = np.sort(np.argsort(rng.random((n, d)), axis=1)[:, :per_row], axis=1)
    vals = rng.normal(size=(n, per_row))
    margin = (vals * rng.normal(size=d)[cols]).sum(axis=1)
    y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-margin)), 1.0, -1.0)
    return Dataset(np.arange(n + 1) * per_row, cols.ravel(), vals.ravel(), y,
                   dim=d)


@pytest.mark.parametrize("loss, reg", [
    ("logistic", Regularizer(l1=0.01)),   # Case2
    ("hinge", Regularizer(l2=0.1)),       # Case3
])
def test_sparse_references_never_densify_and_match_dense(monkeypatch, loss, reg):
    data = sparse_logistic_rows(93, 300, 60, 3)
    assert data.uses_csr
    monkeypatch.setattr(references, "_BASE_CACHE", {})
    F = CompositeObjective(data, loss, reg)
    x = base_reference(F)
    assert data._dense_cache is None
    # the same problem on the dense backend
    monkeypatch.setattr(data_mod, "_CSR_DENSITY", 0.0)
    monkeypatch.setattr(references, "_BASE_CACHE", {})
    G = CompositeObjective(sparse_logistic_rows(93, 300, 60, 3), loss, reg)
    assert not G.data.uses_csr
    np.testing.assert_allclose(x, base_reference(G), rtol=0, atol=1e-9)
    if loss == "logistic":
        assert_l1_kkt(F, x)


def test_sparse_adaptreg_run_never_densifies(tmp_path, monkeypatch):
    path = str(tmp_path / "sparse.txt")
    write_dataset(sparse_logistic_rows(94, 300, 60, 3), path)
    loaded = []
    real = harness.load_dataset

    def load_dataset(config):
        loaded.append(real(config))
        return loaded[-1]

    monkeypatch.setattr(harness, "load_dataset", load_dataset)
    trace = run_experiment(ExperimentConfig(
        data_path=path, out_dir=str(tmp_path), task="logistic",
        method="adaptreg", oracle="sdca", T=4, seed=3, normalize=True))
    assert trace.rows and trace.rows[-1].subopt < trace.rows[0].subopt
    [data] = loaded
    assert data.uses_csr and data._dense_cache is None

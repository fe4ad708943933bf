"""Certified reference minimizers for every task family.

Each family is re-verified here with an independent oracle written directly
against the objective definition: closed forms for quadratics, KKT conditions
recomputed from scratch for l1 supports and hinge margins, and a primal-dual
sandwich (projected dual ascent in plain numpy) for the SVM family.
"""
import hashlib

import numpy as np
import pytest

from adaptreduce import (CompositeObjective, Dataset, ExperimentConfig,
                         NumericalError, Regularizer, base_reference,
                         dense_to_dataset, gen_classification, gen_regression,
                         run_experiment, write_dataset)
from adaptreduce import data as data_mod
from adaptreduce import harness, references, solvers
from adaptreduce.cli import main
from helpers import full_sweep_svm_reference, quadratic_reference
from test_golden import DATA as GOLDEN_DATA, sparsify


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
    F = CompositeObjective(dense_to_dataset(A, b), "squared", Regularizer(l2=l2))
    x_hat = base_reference(F)
    want, _ = quadratic_reference(A.T @ A / 25 + l2 * np.eye(6), A.T @ b / 25)
    np.testing.assert_allclose(x_hat, want, atol=1e-6)
    assert F.duality_gap(x_hat) <= 1e-12


def test_lasso_reference_kkt():
    rng = np.random.default_rng(91)
    n, d, w = 40, 8, 0.05
    A = rng.normal(size=(n, d))
    b = rng.normal(size=n)
    F = CompositeObjective(dense_to_dataset(A, b), "squared", Regularizer(l1=w))
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
    F = CompositeObjective(dense_to_dataset(A, y), "logistic", Regularizer(l1=w))
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
    F = CompositeObjective(dense_to_dataset(A, y), "hinge", Regularizer(l2=sig))
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
    F = CompositeObjective(dense_to_dataset(A, y), "hinge", Regularizer(l1=w))
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
    F = CompositeObjective(dense_to_dataset(A, y), "hinge", Regularizer(l2=0.2),
                           smoothing=0.1)
    x_hat = base_reference(F)
    assert F.duality_gap(x_hat) <= 1e-12


def test_base_reference_cache_identity():
    # one cache for every Case: a Case2 and a Case1 objective
    for seed, reg in ((96, dict(l1=0.05)), (97, dict(l2=0.2))):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(15, 3))
        b = rng.normal(size=15)
        F = CompositeObjective(dense_to_dataset(A, b), "squared", Regularizer(**reg))
        first = base_reference(F)
        again = base_reference(F)
        assert first is again            # in-memory cache hit
        with pytest.raises(ValueError):
            first[0] = 3.14              # read-only result
        # equal content under a fresh but identical objective
        F2 = CompositeObjective(dense_to_dataset(A, b), "squared", Regularizer(**reg))
        assert base_reference(F2) is first


def test_svm_warmup_is_dual_coordinate_ascent(monkeypatch):
    # the golden svm objective: Case3 is warmed up without apg_hood, by
    # epochs of coordinate steps, polished every _DCA_POLISH_EVERY; an epoch
    # skips the rows whose step is a no-op, so it takes fewer than n steps
    def refuse(*args, **kwargs):
        raise AssertionError("the Case3 warm-up called apg_hood")

    F = CompositeObjective(gen_classification(62, 40, 8), "hinge",
                           Regularizer(l2=0.05))
    monkeypatch.setattr(references, "apg_hood", refuse)
    steps = count_calls(monkeypatch, "_sdca_coordinate", solvers)
    epochs, polished_at = [], []
    real_sweeper = references._sdca_sweeper
    real_polish = references._try_polish

    def sweeper(*args):
        sweep = real_sweeper(*args)

        def counted(indices):
            epochs.append(1)
            sweep(indices)
        return counted

    def polish(*args):
        polished_at.append((len(epochs), len(steps)))
        return real_polish(*args)

    monkeypatch.setattr(references, "_sdca_sweeper", sweeper)
    monkeypatch.setattr(references, "_try_polish", polish)
    x = base_reference(F)
    assert len(steps) > 0 and polished_at
    assert all(e % references._DCA_POLISH_EVERY == 0 for e, _ in polished_at)
    assert len(steps) == polished_at[-1][1] < polished_at[-1][0] * F.n
    assert F.full_value(x) == pytest.approx(0.15515605176761818, abs=1e-12)


@pytest.mark.parametrize("name, l2", [
    *[("readme", l2) for l2 in (1.0, 1e-2, 1e-3)],
    *[(name, 0.05) for name in
      ("classification", "sparse-classification", "csr-classification")]])
def test_svm_reference_skips_no_op_rows_and_keeps_its_bits(monkeypatch, name,
                                                           l2):
    # a row whose dual sits on the bound its margin pushes it to is skipped
    # for the epoch; the polish reads only the margin sets, so the reference
    # is the full sweep's, byte for byte, from fewer coordinate steps
    data = (gen_classification(7, 500, 100) if name == "readme"
            else GOLDEN_DATA[name]())
    F = CompositeObjective(data, "hinge", Regularizer(l2=l2))
    steps = count_calls(monkeypatch, "_sdca_coordinate", solvers)
    full = full_sweep_svm_reference(F)
    swept = len(steps)
    x = base_reference(F)
    assert x.tobytes() == full.tobytes()
    assert 0 < len(steps) - swept < swept


def partition(F, x_warm, margin_tol):
    # what the hinge polish reads off its warm point, recomputed here: the
    # violated and margin rows, and with an l1 term the support and signs
    m = F.data.labels * (F.data.dense() @ x_warm)
    sets = [m < 1.0 - margin_tol, np.abs(m - 1.0) <= margin_tol]
    if F.reg.l1 > 0.0:
        S = np.abs(x_warm) > 1e-7
        sets += [S, np.sign(x_warm[S])]
    return tuple(mask.tobytes() for mask in sets)


def count_partitions(monkeypatch):
    # wrap references._polish_hinge with a list of the partition each call
    # reads off its warm point
    partitions = []
    real = references._polish_hinge

    def counted(F, x_warm, margin_tol):
        partitions.append(partition(F, x_warm, margin_tol))
        return real(F, x_warm, margin_tol)

    monkeypatch.setattr(references, "_polish_hinge", counted)
    return partitions


def test_svm_reference_polishes_each_partition_once(monkeypatch):
    # the svm-dense benchmark's objective before its column presentation:
    # polishing every tolerance of every attempt took 25 calls on the 12
    # partitions the warm points show
    F = CompositeObjective(gen_classification(7, 500, 100), "hinge",
                           Regularizer(l2=1.0))
    partitions = count_partitions(monkeypatch)
    monkeypatch.setattr(references, "_BASE_CACHE", {})
    base_reference(F)
    assert len(partitions) == len(set(partitions)) == 12


@pytest.mark.parametrize("reg", [Regularizer(l2=0.05), Regularizer(l1=0.05)])
def test_hinge_polish_reads_its_warm_point_only_through_its_partition(reg):
    # the premise of _try_polish's memo: warm points whose margin sets, and
    # l1 support with its signs, are equal give the same polished bytes or
    # the same error, although the points differ in every coordinate
    F = CompositeObjective(gen_classification(62, 40, 8), "hinge", reg)
    x_hat = base_reference(F)
    rng = np.random.default_rng(99)
    margin_tol = references._MARGIN_TOLS[0]
    outcomes = []
    for warm in (x_hat, 0.9 * x_hat):
        twin = warm * (1.0 + 1e-10 * rng.normal(size=F.dim))
        twin[warm == 0.0] = 5e-8 * rng.choice([-1.0, 1.0], F.dim)[warm == 0.0]
        assert np.all(twin != warm)
        assert partition(F, twin, margin_tol) == partition(F, warm, margin_tol)
        results = []
        for w in (warm, twin):
            try:
                x, tau = references._polish_hinge(F, w, margin_tol)
                results.append(x.tobytes() + tau.tobytes())
            except NumericalError as err:
                results.append(str(err))
        assert results[0] == results[1]
        outcomes.append(results[0])
    assert outcomes[0][:x_hat.nbytes] == x_hat.tobytes()
    assert outcomes[1] == ("hinge polish: margin classification changed"
                           if reg.l1 == 0.0 else
                           "hinge polish system singular: Singular matrix")


def test_polish_memo_keys_the_l1_support_and_its_signs(monkeypatch):
    # warm points with the golden l1svm reference's margin sets, but with
    # one more support coordinate of either sign, fail on partitions of
    # their own; the reference's own partition is polished after them
    F = CompositeObjective(gen_classification(62, 40, 8), "hinge",
                           Regularizer(l1=0.05))
    x_hat = base_reference(F)
    partitions = count_partitions(monkeypatch)
    failed, last, polished = {}, [None], []
    j = int(np.argmax(x_hat == 0.0))
    for value in (2e-7, -2e-7):
        warm = x_hat.copy()
        warm[j] = value
        assert all(partition(F, warm, tol)[:2] == partition(F, x_hat, tol)[:2]
                   for tol in references._MARGIN_TOLS)
        assert references._try_polish(F, warm, last, failed) is None
        assert last[0] == "hinge polish system singular: Singular matrix"
        polished.append(len(partitions))
    x, _ = references._try_polish(F, x_hat, last, failed)
    assert x.tobytes() == x_hat.tobytes()
    assert 0 < polished[0] < polished[1] < len(partitions)


def test_l1svm_warmup_runs_apg_hood_until_the_polish_certifies(monkeypatch):
    # the golden l1svm objective: the polish certifies before the schedule's
    # 34th epoch, and each epoch is one apg_hood call; no margin/support
    # partition is polished twice, and the reference keeps its bytes
    F = CompositeObjective(gen_classification(62, 40, 8), "hinge",
                           Regularizer(l1=0.05))
    calls = count_calls(monkeypatch, "apg_hood")
    partitions = count_partitions(monkeypatch)
    x = base_reference(F)
    assert 1 <= len(calls) <= 33
    assert F.full_value(x) == pytest.approx(0.21077018664805297, abs=1e-12)
    assert 1 < len(partitions) == len(set(partitions))
    assert hashlib.sha256(x.tobytes()).hexdigest() == (
        "dbbecf146a5eb1f5e167ceda2cd9d8fa3c11a4a06c46bce1bb5ced4523623dd9")


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


def test_l1_free_logistic_reference_polishes_at_the_first_checkpoint(
        monkeypatch):
    # without an l1 term every coordinate is on the support, so there is no
    # sign pattern to wait for: the polish is tried after the first 25
    # FISTA iterations (one loss_deriv call each), not after 50
    F = CompositeObjective(gen_classification(63, 40, 8), "logistic",
                           Regularizer())
    calls = []
    deriv, polish = references.losses.loss_deriv, references._polish_l1

    def counted(*args):
        calls.append(None)
        return deriv(*args)

    polished_after = []

    def first_polish(*args):
        polished_after.append(len(calls))
        return polish(*args)

    monkeypatch.setattr(references.losses, "loss_deriv", counted)
    monkeypatch.setattr(references, "_polish_l1", first_polish)
    x = references._l1_smooth_reference(F)
    assert polished_after == [references._FISTA_CHECKPOINTS[0]] == [25]
    assert np.linalg.norm(F.full_gradient(x)) <= 1e-10


def test_l1_polish_grows_the_support_from_zero():
    # started on an empty support, the polish adds one violator per round
    # until the KKT conditions hold, and lands on the reference
    rng = np.random.default_rng(91)
    A = rng.normal(size=(40, 8))
    F = CompositeObjective(dense_to_dataset(A, rng.normal(size=40)), "squared",
                           Regularizer(l1=0.05))
    x = references._polish_l1(F, A, F.data.labels, np.zeros(8))
    assert np.count_nonzero(x) >= 2
    assert np.array_equal(x, base_reference(F))
    rng = np.random.default_rng(92)
    A = rng.normal(size=(35, 6)) / np.sqrt(6)
    F = CompositeObjective(dense_to_dataset(A, labels(rng, 35)), "logistic",
                           Regularizer(l1=0.02))
    x = references._polish_l1(F, A, F.data.labels, np.zeros(6))
    np.testing.assert_allclose(x, base_reference(F), atol=1e-12)


def count_calls(monkeypatch, name, module=references):
    # wrap module.<name> with a call counter; start from an empty cache
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
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


@pytest.mark.parametrize("data, w", [
    # the csr-classification golden data (24 empty rows), l1 off and on
    (GOLDEN_DATA["csr-classification"], 0.0),
    (GOLDEN_DATA["csr-classification"], 1e-2),
    # 12 of 250 columns per row, the logistic-sparse benchmark's shape
    (lambda: sparse_logistic_rows(95, 4500, 250, 12), 0.0),
], ids=["golden-l1-off", "golden-l1-on", "4500x250"])
def test_case2_logistic_reference_on_csr_never_densifies(monkeypatch, data, w):
    # the Newton polish's Gram reads the stored entries only, so no
    # CsrMatrix (the data or a column selection) is ever made dense
    def refuse(*args, **kwargs):
        raise AssertionError("CsrMatrix densified")

    data = data()
    assert data.uses_csr
    monkeypatch.setattr(data_mod.CsrMatrix, "__array__", refuse)
    monkeypatch.setattr(references, "_BASE_CACHE", {})
    F = CompositeObjective(data, "logistic", Regularizer(l1=w))
    x = base_reference(F)
    assert data._dense_cache is None
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

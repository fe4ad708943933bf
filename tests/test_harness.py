"""Experiment harness: configs, compatibility, traces, caching, sweeps, and
the synthetic problem generators."""
import os

import numpy as np
import pytest

from adaptreduce import (CSV_HEADER, CompositeObjective, ConfigError,
                         ConvergenceTrace, DataError, ExperimentConfig,
                         Regularizer, TraceRow, build_objective,
                         dense_to_dataset, gen_classification, gen_regression,
                         parse_config_file, parse_trace_csv, run_experiment,
                         sweep, sweep_summary, write_dataset)
from adaptreduce.harness import cached_reference, reference_cache_key


@pytest.fixture()
def ridge_file(tmp_path):
    data = gen_regression(1, 30, 5, sparsity=3)
    path = str(tmp_path / "ridge.txt")
    write_dataset(data, path)
    return path


@pytest.fixture()
def class_file(tmp_path):
    data = gen_classification(2, 30, 5)
    path = str(tmp_path / "class.txt")
    write_dataset(data, path)
    return path


def cfg(**kw):
    kw.setdefault("data_path", "unused")
    return ExperimentConfig(**kw)


# ---------------------------------------------------------------------------
# config validation and naming
# ---------------------------------------------------------------------------

def test_config_validation_matrix():
    with pytest.raises(ConfigError, match="data_path"):
        ExperimentConfig().validate()
    bad = [dict(task="qda"), dict(method="magic"), dict(oracle="lbfgs"),
           dict(eps=0.0), dict(T=0), dict(pass_budget=-1.0),
           dict(l1_weight=-0.1), dict(sigma=0.0), dict(lam0=-2.0)]
    for kw in bad:
        with pytest.raises(ConfigError):
            cfg(**kw).validate()
    cfg(task="ridge", l2_weight=0.1).validate()  # minimal valid


def test_run_name_and_out_path():
    c = cfg(task="lasso", method="adaptreg", oracle="sdca", sigma0=0.25,
            T=4, seed=7, out_dir="out")
    assert c.run_name == "lasso-adaptreg-sdca-sigma00.25-T4-seed7"
    assert c.out_path == os.path.join("out", c.run_name + ".csv")
    plain = cfg(task="svm", method="direct", oracle="apg")
    assert plain.run_name == "svm-direct-apg-seed0"


# ---------------------------------------------------------------------------
# objective construction and compatibility
# ---------------------------------------------------------------------------

def test_build_objective_weight_matrix():
    data = gen_regression(3, 10, 4, sparsity=2)
    F = build_objective(data, "ridge", 0.0, 0.3)
    assert F.loss == "squared" and F.reg.l2 == 0.3
    build_objective(data, "elasticnet", 0.1, 0.1)
    build_objective(data, "lasso", 0.1, 0.0)
    build_objective(data, "logistic", 0.0, 0.0)
    build_objective(data, "logistic", 0.0, 0.2)
    build_objective(data, "svm", 0.0, 0.5)
    build_objective(data, "l1svm", 0.2, 0.0)
    for task, l1, l2 in [("ridge", 0.1, 0.3), ("ridge", 0.0, 0.0),
                         ("elasticnet", 0.0, 0.1), ("lasso", 0.1, 0.2),
                         ("logistic", 0.1, 0.0), ("svm", 0.0, 0.0),
                         ("l1svm", 0.0, 0.0)]:
        with pytest.raises(ConfigError):
            build_objective(data, task, l1, l2)


def test_compatibility_gate(ridge_file, class_file):
    # lasso is smooth without strong convexity: smoothing methods reject it
    c = cfg(data_path=ridge_file, task="lasso", l1_weight=0.05,
            method="adaptsmooth", oracle="apg")
    with pytest.raises(ConfigError, match="Case3"):
        run_experiment(c, write=False)
    # classical baselines insist on their fixed parameter
    c = cfg(data_path=ridge_file, task="lasso", l1_weight=0.05,
            method="classical-reg", oracle="apg")
    with pytest.raises(ConfigError, match="sigma"):
        run_experiment(c, write=False)
    c = cfg(data_path=class_file, task="svm", l2_weight=0.3,
            method="classical-smooth", oracle="apg")
    with pytest.raises(ConfigError, match="lam"):
        run_experiment(c, write=False)
    # direct solvers need Case1 (or strong convexity for sdca)
    c = cfg(data_path=ridge_file, task="lasso", l1_weight=0.05,
            method="direct", oracle="apg")
    with pytest.raises(ConfigError, match="Case1"):
        run_experiment(c, write=False)
    c = cfg(data_path=ridge_file, task="lasso", l1_weight=0.05,
            method="direct", oracle="sdca")
    with pytest.raises(ConfigError, match="strongly convex"):
        run_experiment(c, write=False)


def test_missing_data_file():
    c = cfg(data_path="/nonexistent/file.txt", task="ridge", l2_weight=0.1)
    with pytest.raises(DataError, match="cannot read"):
        run_experiment(c, write=False)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_regression_deterministic_and_planted():
    a = gen_regression(42, 25, 10, sparsity=4)
    b = gen_regression(42, 25, 10, sparsity=4)
    c = gen_regression(43, 25, 10, sparsity=4)
    assert a.content_bytes() == b.content_bytes()
    assert a.content_bytes() != c.content_bytes()
    assert a.n == 25 and a.dim == 10
    with pytest.raises(ConfigError):
        gen_regression(1, 10, 5, sparsity=6)


def test_gen_classification_deterministic_and_labeled():
    a = gen_classification(7, 40, 6)
    b = gen_classification(7, 40, 6)
    assert a.content_bytes() == b.content_bytes()
    assert set(np.unique(a.labels)) <= {-1.0, 1.0}
    with pytest.raises(ConfigError):
        gen_classification(1, 10, 5, flip_fraction=1.0)


def test_dense_to_dataset_round_trip():
    rng = np.random.default_rng(110)
    A = rng.normal(size=(6, 3))
    y = rng.normal(size=6)
    ds = dense_to_dataset(A, y)
    np.testing.assert_allclose(ds.dense(), A)
    np.testing.assert_allclose(ds.labels, y)


# ---------------------------------------------------------------------------
# end-to-end runs and traces
# ---------------------------------------------------------------------------

def test_run_experiment_direct(tmp_path, ridge_file):
    c = cfg(data_path=ridge_file, task="ridge", l2_weight=0.5,
            method="direct", oracle="apg", out_dir=str(tmp_path / "runs"))
    trace = run_experiment(c)
    assert os.path.exists(c.out_path)
    assert len(trace.rows) == 1
    assert trace.rows[0].subopt >= -1e-12
    assert trace.rows[0].wall_ms == 0.0


def test_run_experiment_adaptreg_schedule_echo(tmp_path, ridge_file):
    c = cfg(data_path=ridge_file, task="lasso", l1_weight=0.05,
            method="adaptreg", oracle="apg", sigma0=0.5, T=4,
            out_dir=str(tmp_path / "runs"))
    trace = run_experiment(c)
    sig = [r.sigma_t for r in trace.rows]
    assert sig == [0.5 / 2 ** t for t in range(len(sig))]
    passes = [r.passes for r in trace.rows]
    assert all(b > a for a, b in zip(passes, passes[1:]))
    assert trace.final_subopt >= -1e-12
    assert trace.final_subopt < trace.rows[0].subopt


def test_run_experiment_adaptsmooth_lambda_echo(tmp_path, class_file):
    c = cfg(data_path=class_file, task="svm", l2_weight=0.3,
            method="adaptsmooth", oracle="svrg", lam0=0.4, T=3, seed=5,
            out_dir=str(tmp_path / "runs"))
    trace = run_experiment(c)
    lams = [r.lambda_t for r in trace.rows]
    assert lams == [0.4 / 2 ** t for t in range(len(lams))]


def test_run_experiment_joint_finishes_without_a_budget(tmp_path):
    # joint tasks carry an l1 term; a statistic that leaves it out would
    # never fall to a third of its baseline and the run would not end
    path = str(tmp_path / "l1svm.txt")
    write_dataset(gen_classification(62, 40, 8), path)
    trace = run_experiment(ExperimentConfig(
        data_path=path, task="l1svm", l1_weight=0.05, method="joint",
        oracle="apg", T=4, out_dir=str(tmp_path)))
    assert [r.epoch for r in trace.rows] == [0, 1, 2, 3]
    assert trace.rows[-1].subopt < trace.rows[0].subopt


def test_byte_identical_reruns(tmp_path, ridge_file):
    c = cfg(data_path=ridge_file, task="lasso", l1_weight=0.05,
            method="adaptreg", oracle="sdca", T=3, seed=9,
            out_dir=str(tmp_path / "runs"))
    run_experiment(c)
    with open(c.out_path, "rb") as fh:
        first = fh.read()
    run_experiment(c)  # second run resolves the reference from the disk cache
    with open(c.out_path, "rb") as fh:
        second = fh.read()
    assert first == second
    assert first.startswith(CSV_HEADER.encode() + b"\n")


def test_trace_csv_round_trip(tmp_path, ridge_file):
    c = cfg(data_path=ridge_file, task="ridge", l2_weight=0.5,
            method="direct", oracle="proxgd", out_dir=str(tmp_path / "runs"))
    trace = run_experiment(c)
    back = parse_trace_csv(c.out_path)
    assert len(back.rows) == len(trace.rows)
    for a, b in zip(trace.rows, back.rows):
        assert a == b  # repr floats parse back exactly


def test_parse_trace_csv_validation(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("epoch,passes\n0,1\n")
    with pytest.raises(DataError, match="header"):
        parse_trace_csv(str(bad_header))
    bad_cols = tmp_path / "c.csv"
    bad_cols.write_text(CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(DataError, match="8 columns"):
        parse_trace_csv(str(bad_cols))


def test_trace_helpers():
    rows = [TraceRow(0, 1.0, 5.0, 4.0, 1.0, 0.0, 0.0),
            TraceRow(1, 2.0, 2.0, 1.0, 0.5, 0.0, 0.0),
            TraceRow(2, 3.0, 3.0, 2.0, 0.2, 0.0, 0.0)]
    tr = ConvergenceTrace(rows)
    assert tr.final_subopt == 2.0
    assert tr.total_passes == 3.0
    assert tr.min_subopt() == 1.0
    assert tr.passes_to(1.5) == 2.0
    assert tr.passes_to(0.5) is None
    empty = ConvergenceTrace()
    assert np.isnan(empty.final_subopt) and empty.total_passes == 0.0


# ---------------------------------------------------------------------------
# reference disk cache
# ---------------------------------------------------------------------------

def test_reference_cache_key_sensitivity():
    data = gen_regression(5, 10, 4, sparsity=2)
    k = reference_cache_key(data, "lasso", 0.1, 0.0, False)
    assert k == reference_cache_key(data, "lasso", 0.1, 0.0, False)
    assert k != reference_cache_key(data, "lasso", 0.2, 0.0, False)
    assert k != reference_cache_key(data, "ridge", 0.1, 0.0, False)
    assert k != reference_cache_key(data, "lasso", 0.1, 0.0, True)


def test_cached_reference_disk_precedence(tmp_path):
    data = gen_regression(6, 12, 3, sparsity=2)
    F = CompositeObjective(data, "squared", Regularizer(l2=0.5))
    cache = str(tmp_path / "cache")
    os.makedirs(cache)
    planted = [1.5, -2.25, 0.125]
    with open(os.path.join(cache, "deadbeef.ref"), "w") as fh:
        fh.writelines(repr(v) + "\n" for v in planted)
    out = cached_reference(F, "deadbeef", cache)
    np.testing.assert_array_equal(out, planted)  # disk wins, exact decimals
    with open(os.path.join(cache, "short.ref"), "w") as fh:
        fh.write("1.0\n")
    with pytest.raises(DataError, match="wrong length"):
        cached_reference(F, "short", cache)
    for key, entry, why in (("text", "1.0\nabc\n2.0\n", "unparsable"),
                            ("nan", "1.0\nnan\n2.0\n", "not finite"),
                            ("inf", "1.0\n-inf\n2.0\n", "not finite")):
        with open(os.path.join(cache, key + ".ref"), "w") as fh:
            fh.write(entry)
        with pytest.raises(DataError, match=f"{key}.ref is {why}"):
            cached_reference(F, key, cache)


def test_cached_reference_writes_and_reloads(tmp_path):
    data = gen_regression(7, 12, 3, sparsity=2)
    F = CompositeObjective(data, "squared", Regularizer(l2=0.5))
    cache = str(tmp_path / "cache")
    first = cached_reference(F, "k1", cache)
    assert os.path.exists(os.path.join(cache, "k1.ref"))
    second = cached_reference(F, "k1", cache)
    np.testing.assert_array_equal(first, second)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_rejects_duplicate_paths(tmp_path, ridge_file):
    c1 = cfg(data_path=ridge_file, task="ridge", l2_weight=0.5,
             out_dir=str(tmp_path))
    c2 = cfg(data_path=ridge_file, task="ridge", l2_weight=0.5,
             out_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="duplicate"):
        sweep([c1, c2])
    assert not os.path.exists(c1.out_path)  # nothing ran


def test_sweep_records_failures_and_continues(tmp_path, ridge_file):
    good = cfg(data_path=ridge_file, task="ridge", l2_weight=0.5,
               method="direct", oracle="apg", out_dir=str(tmp_path / "a"))
    bad = cfg(data_path=ridge_file, task="lasso", l1_weight=0.05,
              method="adaptsmooth", oracle="apg", out_dir=str(tmp_path / "b"))
    results = sweep([good, bad])
    assert results[0].error is None and results[0].trace is not None
    assert isinstance(results[1].error, ConfigError)
    table = sweep_summary(results)
    assert "ok" in table and "ERROR" in table
    assert good.run_name in table and bad.run_name in table


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_parse_config_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(
        "# an experiment\n"
        "data-path = data.txt\n"
        "task = lasso\n"
        "l1-weight = 0.05   # inline comment\n"
        "method = adaptreg\n"
        "T = 6\n"
        "seed = 3\n"
        "normalize = true\n"
        "pass-budget = 250\n")
    got = parse_config_file(str(p))
    assert got == {"data_path": "data.txt", "task": "lasso",
                   "l1_weight": 0.05, "method": "adaptreg", "T": 6,
                   "seed": 3, "normalize": True, "pass_budget": 250.0}


def test_parse_config_file_errors(tmp_path):
    cases = [
        ("unknown = 1\n", "unknown config key"),
        ("just a line\n", "expected 'key = value'"),
        ("eps = abc\n", "bad numeric"),
        ("normalize = maybe\n", "bad boolean"),
    ]
    for i, (text, match) in enumerate(cases):
        p = tmp_path / f"bad{i}.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match=match):
            parse_config_file(str(p))
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(str(tmp_path / "missing.cfg"))

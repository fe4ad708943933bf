"""Adaptive reductions (parameter halving, warm starts, budget threading) and
the fixed-parameter classical baselines they are compared against."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

from adaptreduce import (Case, CompositeObjective, ConfigError,
                         FixedIterations, HALVING, PracticalGapQuarter,
                         ReductionParams, Regularizer, STAT_FLOOR, adapt_reg,
                         adapt_smooth, apg_hood, base_reference, classical_reg,
                         classical_smooth, default_params, dense_to_dataset,
                         exact_oracle, gen_regression, joint_adapt,
                         prox_gd_hood, sdca_hood, svrg_hood)
from adaptreduce import reductions
from helpers import quadratic_reference


def least_squares(rng, n=20, d=4):
    """Case2 objective with a closed-form reference for any added quadratic."""
    A = rng.normal(size=(n, d))
    b = rng.normal(size=n)
    F = CompositeObjective(dense_to_dataset(A, b), "squared", Regularizer())
    Q = A.T @ A / n
    c = A.T @ b / n
    return F, A, b, Q, c


def svm_like(rng, n=30, d=5, l2=0.5):
    """Case3 objective: hinge loss with an l2 regularizer."""
    A = rng.normal(size=(n, d)) / np.sqrt(d)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return CompositeObjective(dense_to_dataset(A, y), "hinge", Regularizer(l2=l2))


# ---------------------------------------------------------------------------
# default parameters
# ---------------------------------------------------------------------------

def test_default_params_formulas():
    p = default_params(delta=1.0, theta=1.0, G=1.0, eps=2.0 ** -10)
    assert p.sigma0 == 1.0 and p.lam0 == 1.0 and p.T == 10
    p = default_params(delta=4.0, theta=1.0, G=1.0, eps=1.0)
    assert p.T == 2
    p = default_params(delta=9.0, theta=3.0, G=2.0, eps=1.0)
    assert p.sigma0 == pytest.approx(3.0)
    assert p.lam0 == pytest.approx(2.25)


def test_default_params_infinite_G_leaves_lam0_unset():
    p = default_params(delta=1.0, theta=1.0, G=math.inf, eps=0.1)
    assert p.lam0 is None
    assert p.sigma0 == 1.0


def test_default_params_clamps_T_with_warning():
    with pytest.warns(UserWarning, match="clamping T to 1"):
        p = default_params(delta=0.5, theta=1.0, G=1.0, eps=0.5)
    assert p.T == 1


def test_default_params_validation():
    with pytest.raises(ConfigError):
        default_params(delta=0.0, theta=1.0, G=1.0, eps=0.1)
    with pytest.raises(ConfigError):
        default_params(delta=1.0, theta=-1.0, G=1.0, eps=0.1)
    with pytest.raises(ConfigError):
        default_params(delta=1.0, theta=1.0, G=1.0, eps=0.0)


def test_reduction_params_validation():
    with pytest.raises(ConfigError):
        ReductionParams(T=0)
    with pytest.raises(ConfigError):
        ReductionParams(sigma0=-1.0)
    with pytest.raises(ConfigError):
        ReductionParams(lam0=0.0)


# ---------------------------------------------------------------------------
# schedules and the fixed-center transform
# ---------------------------------------------------------------------------

def test_adapt_reg_schedule_and_fixed_center():
    rng = np.random.default_rng(70)
    F, A, b, Q, c = least_squares(rng)
    x0 = rng.normal(size=4)
    params = ReductionParams(sigma0=1.0, T=4)
    x_hat, records = adapt_reg(F, exact_oracle, x0, params, None)
    assert [r.sigma_t for r in records] == [1.0, 0.5, 0.25, 0.125]
    assert all(r.lambda_t == 0.0 for r in records)
    # epoch t solves (Q + sigma_t I) x = c + sigma_t x0: center stays at the
    # ORIGINAL x0 even though epochs warm-start from the previous answer
    for r in records:
        want, _ = quadratic_reference(Q + r.sigma_t * np.eye(4),
                                      c + r.sigma_t * x0)
        np.testing.assert_allclose(r.x_hat, want, atol=1e-6)
    np.testing.assert_array_equal(x_hat, records[-1].x_hat)


def test_adapt_smooth_schedule():
    rng = np.random.default_rng(71)
    F = svm_like(rng)
    params = ReductionParams(lam0=0.8, T=5)
    _, records = adapt_smooth(F, exact_oracle, np.zeros(5), params, None)
    assert [r.lambda_t for r in records] == [0.8, 0.4, 0.2, 0.1, 0.05]
    assert all(r.sigma_t == 0.0 for r in records)
    assert HALVING == 2.0


def test_joint_schedule():
    rng = np.random.default_rng(72)
    A = rng.normal(size=(20, 4))
    y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
    F = CompositeObjective(dense_to_dataset(A, y), "hinge", Regularizer(l1=0.05))
    assert F.classify_case() is Case.Case4
    params = ReductionParams(sigma0=2.0, lam0=0.4, T=3)
    _, records = joint_adapt(F, exact_oracle, np.zeros(4), params, None)
    assert [r.sigma_t for r in records] == [2.0, 1.0, 0.5]
    assert [r.lambda_t for r in records] == [0.4, 0.2, 0.1]


def test_adaptive_objective_decreases_on_original_problem():
    rng = np.random.default_rng(73)
    F, A, b, Q, c = least_squares(rng)
    x0 = rng.normal(size=4) * 2
    params = ReductionParams(sigma0=0.5, T=6)
    x_hat, _ = adapt_reg(F, exact_oracle, x0, params, None)
    x_star, val = quadratic_reference(Q, c)
    F_star = val + 0.5 * float(b @ b) / len(b)
    assert F.full_value(x_hat) - F_star <= (F.full_value(x0) - F_star) / 3.0


# ---------------------------------------------------------------------------
# case gating and parameter requirements
# ---------------------------------------------------------------------------

def test_reduction_case_gating():
    rng = np.random.default_rng(74)
    F2, *_ = least_squares(rng)       # Case2
    F3 = svm_like(rng)                # Case3
    p = ReductionParams(sigma0=1.0, lam0=1.0, T=2)
    with pytest.raises(ConfigError, match="Case2"):
        adapt_reg(F3, exact_oracle, np.zeros(5), p, None)
    with pytest.raises(ConfigError, match="Case3"):
        adapt_smooth(F2, exact_oracle, np.zeros(4), p, None)
    with pytest.raises(ConfigError, match="Case4"):
        joint_adapt(F2, exact_oracle, np.zeros(4), p, None)
    with pytest.raises(ConfigError, match="sigma0"):
        adapt_reg(F2, exact_oracle, np.zeros(4), ReductionParams(T=2), None)
    with pytest.raises(ConfigError, match="lam0"):
        adapt_smooth(F3, exact_oracle, np.zeros(5),
                     ReductionParams(sigma0=1.0, T=2), None)


def test_reductions_do_not_mutate_the_objective():
    rng = np.random.default_rng(75)
    F, *_ = least_squares(rng)
    adapt_reg(F, exact_oracle, np.zeros(4), ReductionParams(sigma0=1.0, T=2), None)
    assert F.reg.shift_weight == 0.0 and F.smoothing is None


# ---------------------------------------------------------------------------
# anytime property and budgets
# ---------------------------------------------------------------------------

def test_anytime_prefix_property():
    # truncating T must reproduce the shorter run exactly: per-epoch seeds
    rng = np.random.default_rng(76)
    F, *_ = least_squares(rng, n=15, d=3)
    x0 = rng.normal(size=3)
    long = adapt_reg(F, svrg_hood, x0, ReductionParams(sigma0=1.0, T=6),
                     FixedIterations(40), seed=11)[1]
    short = adapt_reg(F, svrg_hood, x0, ReductionParams(sigma0=1.0, T=3),
                      FixedIterations(40), seed=11)[1]
    assert len(short) == 3
    for t in range(3):
        np.testing.assert_array_equal(long[t].x_hat, short[t].x_hat)


def test_pass_budget_hand_count():
    rng = np.random.default_rng(77)
    F, *_ = least_squares(rng, n=10, d=3)
    _, records = adapt_reg(F, apg_hood, np.zeros(3),
                           ReductionParams(sigma0=1.0, T=3), FixedIterations(2))
    # per epoch: 2 gradients + 1 end-of-run statistic = 3 passes
    assert [r.report.data_passes for r in records] == [3.0, 3.0, 3.0]
    total = sum(r.report.data_passes for r in records)
    assert total == 9.0


def test_pass_budget_truncates_epochs():
    rng = np.random.default_rng(78)
    F, *_ = least_squares(rng, n=10, d=3)
    _, records = adapt_reg(F, apg_hood, np.zeros(3),
                           ReductionParams(sigma0=1.0, T=8), FixedIterations(3),
                           pass_budget=5.0)
    used = sum(r.report.data_passes for r in records)
    assert used <= 5.0 + 1e-9
    assert len(records) == 2          # 4 passes, then a 1-pass stub epoch
    assert records[1].report.data_passes == 1.0


def test_budgeted_run_stops_at_the_first_idle_epoch():
    rng = np.random.default_rng(83)
    F, *_ = least_squares(rng, n=10, d=3)
    F = CompositeObjective(F.data, "squared", Regularizer(l1=0.01))
    calls = []

    def oracle(F_t, x, policy, **kwargs):
        calls.append(sdca_hood(F_t, x, policy, **kwargs))
        return calls[-1]

    _, records = adapt_reg(F, oracle, np.zeros(3),
                           ReductionParams(sigma0=1.0, T=20),
                           FixedIterations(10), seed=3, pass_budget=7.05)
    # the first epoch: dual init + 10 steps + final gap = 3 passes; the
    # final gap is taken at the output, so each later epoch starts its duals
    # from its pieces at no pass: 10 steps + final gap = 2 passes.  The
    # fourth epoch cannot afford one step (0.1 of the 0.05 passes left), and
    # no later epoch could either, so none is run
    assert [r.passes for r in records] == [3.0, 5.0, 7.0, 7.0]
    assert len(calls) == len(records) == 4
    np.testing.assert_array_equal(records[3].x_hat, records[2].x_hat)


def test_shared_policy_gives_identical_runs():
    rng = np.random.default_rng(84)
    F, *_ = least_squares(rng, n=30, d=4)
    F = CompositeObjective(F.data, "squared", Regularizer(l1=0.01))
    policy = PracticalGapQuarter()
    params = ReductionParams(sigma0=1.0, T=4)
    runs = [adapt_reg(F, sdca_hood, np.zeros(4), params, policy, seed=2)[1]
            for _ in range(2)]
    for a, b in zip(*runs):
        assert a.report.iterations == b.report.iterations
        assert a.passes == b.passes
        np.testing.assert_array_equal(a.x_hat, b.x_hat)


def test_every_gap_policy_epoch_cuts_its_own_input_gap():
    # each epoch gets no baseline, so it stops at a quarter of the gap of
    # its own F_t at its input.  When every call took its first mid-epoch
    # check as the baseline instead, SDCA's restarted duals inflated it and
    # the output gaps rose to 27.7 at epoch 6 and 1.9e53 at epoch 15
    F = CompositeObjective(gen_regression(11, 500, 100), "squared",
                           Regularizer(l1=1e-2))
    x0 = np.zeros(100)
    x_ref = base_reference(F)
    F_star = F.full_value(x_ref)
    sigma0 = (F.full_value(x0) - F_star) / float(x_ref @ x_ref)  # harness's
    policy = PracticalGapQuarter()
    _, records = adapt_reg(F, sdca_hood, x0, ReductionParams(sigma0, T=16),
                           policy, seed=5, pass_budget=300.0)
    assert len(records) == 16
    assert records[-1].passes < 299.0  # so no epoch met its pass cap
    first = F.regularize(sigma0, x0).duality_gap(x0)
    x_in = x0
    for rec in records:
        F_t = F.regularize(rec.sigma_t, x0)
        gap_in = F_t.duality_gap(x_in)
        stat = rec.report.final_stat
        assert stat < STAT_FLOOR or stat <= 0.25 * gap_in
        assert stat <= first
        # the epoch is the library's default call on F_t
        alone = sdca_hood(F_t, x_in, policy,
                          seed=reductions._epoch_seed(5, rec.t))
        assert alone.x_out.tobytes() == rec.x_hat.tobytes()
        x_in = rec.x_hat
    assert F.full_value(x_in) - F_star <= 1e-10


def test_reductions_import_no_reference_code():
    # each epoch goes to a black-box oracle: reference minimizers belong to
    # references.py and verify.py, not to the epoch loop
    tree = ast.parse(Path(reductions.__file__).read_text())
    names = [name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for name in [node.module or ""] + [a.name for a in node.names]]
    assert "solvers" in names
    assert [name for name in names if "reference" in name] == []


def test_reductions_pass_the_oracle_state_on_unread():
    # the oracle stays a black box: the reduction hands each report's state
    # to the next call as `state=` and never subscripts it or reads from it
    tree = ast.parse(Path(reductions.__file__).read_text())
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "state"]
    assert [ast.unparse(parent[node]) for node in reads] == [
        "state = report.state"]
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Name)
            and node.id == "state" and isinstance(node.ctx, ast.Load)]
    assert uses
    for node in uses:
        assert isinstance(parent[node], ast.keyword)
        assert parent[node].arg == "state"


def stateless(oracle):
    """`oracle` with the handed-in state dropped: every call pays its start."""

    def call(F_t, x, policy, *, state=None, **kwargs):
        return oracle(F_t, x, policy, **kwargs)

    return call


@pytest.mark.parametrize("oracle", [sdca_hood, svrg_hood, prox_gd_hood,
                                    apg_hood])
def test_the_state_saves_each_reused_start_and_keeps_every_iterate(oracle):
    # adapt_reg and classical_reg keep the data, the loss and the smoothing,
    # and every epoch ends on a gap at its output: each epoch after the
    # first starts from those pieces, one pass fewer, on the same floats
    rng = np.random.default_rng(86)
    F, *_ = least_squares(rng, n=30, d=4)
    F = CompositeObjective(F.data, "squared", Regularizer(l1=0.01))
    x0 = rng.normal(size=4)
    policy = PracticalGapQuarter()
    params = ReductionParams(sigma0=1.0, T=6)
    runs = [(6, lambda o: adapt_reg(F, o, x0, params, policy, seed=2)[1]),
            (None, lambda o: classical_reg(F, o, x0, 0.1, seed=2,
                                           target_stat=1e-10)[1])]
    for epochs, run in runs:
        kept, paid = run(oracle), run(stateless(oracle))
        assert len(kept) == len(paid) > 1
        assert epochs is None or len(kept) == epochs  # T - 1 reused starts
        for t, (a, b) in enumerate(zip(kept, paid)):
            assert a.x_hat.tobytes() == b.x_hat.tobytes()
            assert a.report.recorded_stat == b.report.recorded_stat
            assert a.report.sample_evals == b.report.sample_evals
            assert a.report.full_evals == b.report.full_evals - (t > 0)
        reused = len(kept) - 1
        assert (sum(r.report.full_evals for r in paid)
                - sum(r.report.full_evals for r in kept)) == reused
        assert kept[-1].passes == pytest.approx(paid[-1].passes - reused)


@pytest.mark.parametrize("oracle", [sdca_hood, svrg_hood, prox_gd_hood,
                                    apg_hood])
def test_the_state_is_refused_where_the_smoothing_moves(oracle):
    # adapt_smooth and joint_adapt smooth each epoch at a new lambda_t, so
    # no state fits and every epoch pays its start
    rng = np.random.default_rng(87)
    F3 = svm_like(rng)
    F4 = CompositeObjective(F3.data, "hinge", Regularizer(l1=0.05))
    policy = PracticalGapQuarter()
    params = ReductionParams(sigma0=1.0, lam0=0.5, T=4)
    for reduce_fn, F in ((adapt_smooth, F3), (joint_adapt, F4)):
        kept = reduce_fn(F, oracle, np.zeros(5), params, policy, seed=3)[1]
        paid = reduce_fn(F, stateless(oracle), np.zeros(5), params, policy,
                         seed=3)[1]
        assert len(kept) == len(paid) == 4
        for a, b in zip(kept, paid):
            assert a.x_hat.tobytes() == b.x_hat.tobytes()
            assert a.report.full_evals == b.report.full_evals
            assert a.passes == b.passes


# ---------------------------------------------------------------------------
# classical baselines
# ---------------------------------------------------------------------------

def test_classical_reg_one_dimensional_anchor():
    # F(x) = x^2/2 via one squared-loss row (a=1, b=0); fixing sigma = 1
    # around x0 = 1 converges to the regularized optimum 0.5, not to 0
    F = CompositeObjective(dense_to_dataset(np.array([[1.0]]), np.array([0.0])),
                           "squared", Regularizer())
    x, records = classical_reg(F, exact_oracle, np.array([1.0]), 1.0)
    assert x[0] == pytest.approx(0.5, abs=1e-9)
    assert records[0].sigma_t == 1.0 and records[0].lambda_t == 0.0


def test_classical_reg_plateau_bound_and_monotonicity():
    rng = np.random.default_rng(80)
    F, A, b, Q, c = least_squares(rng)
    x0 = rng.normal(size=4) * 2
    x_star, val = quadratic_reference(Q, c)
    F_star = val + 0.5 * float(b @ b) / len(b)
    theta = float((x0 - x_star) @ (x0 - x_star))
    plateaus = []
    for sigma in (1.0, 0.1, 0.01):
        x, _ = classical_reg(F, exact_oracle, x0, sigma)
        plat = F.full_value(x) - F_star
        assert -1e-12 <= plat <= 0.5 * sigma * theta + 1e-9
        plateaus.append(plat)
    assert plateaus[0] > plateaus[1] > plateaus[2] >= 0.0


def test_classical_smooth_plateau_bound():
    rng = np.random.default_rng(81)
    F = svm_like(rng)
    x_star = base_reference(F)
    F_star = F.full_value(x_star)
    G = F.lipschitz_G
    last = None
    for lam in (0.2, 0.02):
        x, records = classical_smooth(F, exact_oracle, np.zeros(5), lam)
        plat = F.full_value(x) - F_star
        assert -1e-9 <= plat <= 0.5 * lam * G * G + 1e-9
        assert records[0].lambda_t == lam
        if last is not None:
            assert plat <= last + 1e-12
        last = plat


def test_classical_validation():
    rng = np.random.default_rng(82)
    F2, *_ = least_squares(rng)
    F3 = svm_like(rng)
    with pytest.raises(ConfigError):
        classical_reg(F2, exact_oracle, np.zeros(4), 0.0)
    with pytest.raises(ConfigError):
        classical_reg(F3, exact_oracle, np.zeros(5), 1.0)  # wrong case
    with pytest.raises(ConfigError):
        classical_smooth(F3, exact_oracle, np.zeros(5), -0.1)
    with pytest.raises(ConfigError):
        classical_smooth(F2, exact_oracle, np.zeros(4), 0.1)  # wrong case

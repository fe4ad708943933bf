"""Inner solvers: certified iteration budgets, the factor-4 decrease contract,
termination policies, and exact pass accounting."""
import hashlib
import math
import warnings

import numpy as np
import pytest

from adaptreduce import (CompositeObjective, ConfigError, Dataset,
                         FixedIterations, NumericalError, PracticalGapQuarter,
                         PracticalGradThird, Regularizer, TheoryBudget,
                         apg_hood, exact_oracle, gen_classification,
                         prox_gd_hood,
                         quadratic_reference, reference_minimize, sdca_hood,
                         svrg_hood)
from adaptreduce import solvers
from adaptreduce.solvers import _sdca_coordinate


def dense_ds(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n, d = A.shape
    return Dataset(np.arange(n + 1) * d, np.tile(np.arange(d), n),
                   A.ravel().copy(), b, dim=d)


def ridge(rng, n, d, l2):
    A = rng.normal(size=(n, d))
    b = rng.normal(size=n)
    F = CompositeObjective(dense_ds(A, b), "squared", Regularizer(l2=l2))
    Q = A.T @ A / n + l2 * np.eye(d)
    c = A.T @ b / n
    x_star, val = quadratic_reference(Q, c)
    F_star = val + 0.5 * float(b @ b) / n
    return F, x_star, F_star


ONE_D = CompositeObjective(dense_ds(np.array([[1.0]]), np.array([3.0])),
                           "squared", Regularizer(l2=1.0))
# F(x) = (x-3)^2/2 + x^2/2: L = 1, sigma = 1, minimizer 1.5


# ---------------------------------------------------------------------------
# certified budgets
# ---------------------------------------------------------------------------

def test_theory_iteration_counts():
    # L = sigma = 1: prox-GD budget ceil(ln 4) = 2, APG budget ceil(ln 8) = 3
    r = prox_gd_hood(ONE_D, np.zeros(1), TheoryBudget())
    assert r.budget_used == 2 and r.iterations == 2
    r = apg_hood(ONE_D, np.zeros(1), TheoryBudget())
    assert r.budget_used == 3 and r.iterations == 3


def test_theory_budget_formula_scaling():
    rng = np.random.default_rng(50)
    F, _, _ = ridge(rng, 30, 4, l2=0.05)
    L, sig = F.smoothness, F.strong_convexity
    r = prox_gd_hood(F, np.zeros(4), TheoryBudget())
    assert r.budget_used == math.ceil(math.log(4.0) * L / sig)
    r = apg_hood(F, np.zeros(4), TheoryBudget())
    assert r.budget_used == math.ceil(math.log(8.0) * math.sqrt(L / sig))
    r = sdca_hood(F, np.zeros(4), TheoryBudget(), seed=0)
    assert r.budget_used == math.ceil(30 + L / sig)
    r = svrg_hood(F, np.zeros(4), TheoryBudget(), seed=0)
    assert r.budget_used == math.ceil(8.0 * L / sig)  # uncertified fallback


def test_one_step_exact_solve_on_one_dimension():
    # eta = 1/L solves the 1-d f-part exactly, prox lands on the minimizer
    r = prox_gd_hood(ONE_D, np.zeros(1), FixedIterations(1))
    assert r.x_out[0] == pytest.approx(1.5, abs=1e-15)


def test_hood_quarter_decrease_deterministic_solvers():
    rng = np.random.default_rng(51)
    for trial in range(5):
        F, _, F_star = ridge(rng, 25, 6, l2=10.0 ** rng.uniform(-2, 0))
        x0 = rng.normal(size=6) * 2
        gap0 = F.full_value(x0) - F_star
        for solver in (prox_gd_hood, apg_hood):
            out = solver(F, x0, TheoryBudget()).x_out
            gap = F.full_value(out) - F_star
            assert gap <= gap0 / 4.0 + 1e-12, (trial, solver.__name__)


def test_hood_quarter_decrease_svrg_in_expectation():
    # the stochastic contract holds in expectation: check the seed average
    rng = np.random.default_rng(52)
    n, d, l2 = 60, 6, 0.1
    A = rng.normal(size=(n, d)) / np.sqrt(d)
    b = rng.normal(size=n)
    F = CompositeObjective(dense_ds(A, b), "squared", Regularizer(l2=l2))
    _, val = quadratic_reference(A.T @ A / n + l2 * np.eye(d), A.T @ b / n)
    F_star = val + 0.5 * float(b @ b) / n
    x0 = rng.normal(size=d) * 2
    gap0 = F.full_value(x0) - F_star
    ratios = [
        (F.full_value(svrg_hood(F, x0, TheoryBudget(), seed=s).x_out) - F_star)
        / gap0
        for s in range(20)
    ]
    assert sum(ratios) / len(ratios) <= 0.25


def test_sdca_improves_objective():
    rng = np.random.default_rng(53)
    F, _, F_star = ridge(rng, 30, 5, l2=0.2)
    x0 = rng.normal(size=5) * 2
    r = sdca_hood(F, x0, TheoryBudget(), seed=3)
    assert F.full_value(r.x_out) < F.full_value(x0)
    assert r.final_stat >= 0.0  # duality gap statistic


def test_logistic_sdca_newton_keeps_the_bisection_run():
    # on this run the Newton coordinate solve gives the x_out of the
    # bisection it replaced, bit for bit (the digest is that loop's x_out);
    # it evaluates no log at a domain end, where log1p(-1) once warned
    F = CompositeObjective(gen_classification(7, 500, 100), "logistic",
                           Regularizer(l2=0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = sdca_hood(F, np.zeros(100), TheoryBudget(), seed=0)
    assert hashlib.sha256(r.x_out.tobytes()).hexdigest() == (
        "acaa99bd414b946f4c64ff38dcb20276a957a9386a357bc30381c7d4c668d546")


def bisection_coordinate(kind, b, lam, alpha_i, z, q):
    """The logistic branch of _sdca_coordinate before Newton replaced it."""
    lo, hi = min(-b, 0.0), max(-b, 0.0)
    # logistic: phi*' rises monotonically from -inf to +inf over the open
    # domain, so bisection on s is safe
    s_lo, s_hi = lo, hi
    for _ in range(64):
        s = 0.5 * (s_lo + s_hi)
        if s == s_lo or s == s_hi:
            break  # collapsed: later halvings would leave the bracket as is
        u = s / b
        h = (np.log1p(u) - np.log(-u)) / b + lam * s + q * (s - alpha_i) - z
        if h < 0.0:
            s_lo = s
        else:
            s_hi = s
    return 0.5 * (s_lo + s_hi)


def test_logistic_sdca_coordinate_matches_bisection(monkeypatch):
    # every tuple converges well inside the cap: steps that cross the
    # inflection stop at 0, and roots that round onto the bracket's ends
    # are reached (without either, some tuples need 25 to 100 steps)
    monkeypatch.setattr(solvers, "_NEWTON_CAP", 25)
    rng = np.random.default_rng(70)
    n = 20000
    b = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    b *= np.where(rng.random(n) < 0.3, 1.0, rng.uniform(0.05, 5.0, n))
    lam = np.where(rng.random(n) < 0.3, 0.0, 10.0 ** rng.uniform(-6, 1, n))
    q = 10.0 ** rng.uniform(-6, 4, n)
    z = rng.uniform(-1e3, 1e3, n) * 10.0 ** rng.uniform(-6, 0, n)
    where = rng.random(n)  # a tenth of the duals on each domain end
    alpha = np.where(where < 0.1, -b, np.where(where < 0.2, 0.0,
                                               -b * rng.random(n)))
    worst = 0.0
    for args in zip(b.tolist(), lam.tolist(), alpha.tolist(), z.tolist(),
                    q.tolist()):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s = _sdca_coordinate("logistic", *args)
        with np.errstate(divide="ignore"):
            s_ref = bisection_coordinate("logistic", *args)
        bi = args[0]
        assert min(-bi, 0.0) <= s <= max(-bi, 0.0), args
        worst = max(worst, abs(s - s_ref) / abs(bi))
    assert worst <= 2e-15


def test_logistic_sdca_coordinate_guard_names_its_inputs(monkeypatch):
    with pytest.raises(NumericalError, match=r"z=nan"):
        _sdca_coordinate("logistic", 1.0, 0.0, -0.5, float("nan"), 1.0)
    monkeypatch.setattr(solvers, "_NEWTON_CAP", 1)
    with pytest.raises(NumericalError,
                       match=r"in 1 steps \(b=-2.0, lam=0.1, "
                             r"alpha_i=1.0, z=3.0, q=0.5\)"):
        _sdca_coordinate("logistic", -2.0, 0.1, 1.0, 3.0, 0.5)


def test_sdca_practical_policies_keep_the_pass_cap():
    # each statistic check costs a pass: the chunk's steps must shrink to
    # the room left after it (this run once spent 6.0 passes under cap 5
    # and 20.25 under cap 20)
    F = CompositeObjective(gen_classification(62, 40, 8), "hinge",
                           Regularizer(l2=0.05)).smooth(0.1)
    for policy, cap in ((PracticalGradThird(), 5.0),
                        (PracticalGapQuarter(), 20.0)):
        r = sdca_hood(F, np.zeros(8), policy, seed=0, pass_cap=cap,
                      baseline=1e-12)
        assert r.data_passes == pytest.approx(cap, abs=1e-9)
        assert r.data_passes <= cap + 1e-9


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

def test_fixed_iterations_zero_is_a_no_op():
    x0 = np.array([2.0])
    for solver in (prox_gd_hood, apg_hood, svrg_hood, sdca_hood):
        r = solver(ONE_D, x0, FixedIterations(0), seed=0)
        assert r.iterations == 0
        assert r.data_passes == 0.0
        np.testing.assert_array_equal(r.x_out, x0)
    with pytest.raises(ConfigError):
        FixedIterations(-1)


def test_stat_floor_stops_practical_policy():
    # one prox step lands exactly on the minimizer; the next free stat is ~0
    r = prox_gd_hood(ONE_D, np.zeros(1), PracticalGradThird(snapshot_interval=1))
    assert r.iterations == 1
    assert r.final_stat <= 1e-14
    assert r.data_passes == 2.0  # two gradients, stats free


def test_practical_gap_quarter_stops_on_quarter():
    rng = np.random.default_rng(54)
    F, _, _ = ridge(rng, 20, 5, l2=0.5)
    policy = PracticalGapQuarter(check_interval=20)  # one check per iterate
    r = prox_gd_hood(F, np.ones(5), policy)
    first = F.duality_gap(prox_gd_hood(F, np.ones(5), FixedIterations(1)).x_out)
    assert r.final_stat < 0.25 * first + 1e-12
    # stats were paid for: each check costs one pass on top of the gradients
    assert r.full_evals > r.iterations
    assert r.data_passes == r.full_evals


def test_practical_policy_threads_baseline_between_runs():
    rng = np.random.default_rng(55)
    F, _, _ = ridge(rng, 20, 5, l2=0.5)
    policy = PracticalGradThird(snapshot_interval=20)
    r1 = prox_gd_hood(F, np.ones(5), policy)
    assert r1.recorded_stat == pytest.approx(r1.final_stat)
    # second run measures against the handed-in baseline: it must beat a
    # third of it
    r2 = prox_gd_hood(F, r1.x_out, policy, baseline=r1.recorded_stat)
    assert r2.final_stat < r1.final_stat / 3.0 + 1e-12
    # the policy keeps nothing between calls: the same call repeats exactly
    again = prox_gd_hood(F, r1.x_out, policy, baseline=r1.recorded_stat)
    np.testing.assert_array_equal(again.x_out, r2.x_out)


def test_pass_cap_truncates():
    rng = np.random.default_rng(56)
    F, _, _ = ridge(rng, 20, 5, l2=0.01)
    r = prox_gd_hood(F, np.ones(5), FixedIterations(10), pass_cap=2.0)
    assert r.iterations == 2
    assert r.data_passes == 2.0  # no room left for the final statistic
    r = svrg_hood(F, np.ones(5), FixedIterations(10 ** 6), seed=0, pass_cap=3.0)
    assert r.data_passes <= 3.0 + 1e-9


# ---------------------------------------------------------------------------
# pass accounting (exact, integer-based)
# ---------------------------------------------------------------------------

def test_pass_accounting_deterministic_solvers():
    rng = np.random.default_rng(57)
    F, _, _ = ridge(rng, 12, 4, l2=0.3)
    for solver in (prox_gd_hood, apg_hood):
        r = solver(F, np.zeros(4), FixedIterations(3))
        # 3 gradients + 1 end-of-run statistic
        assert r.full_evals == 4 and r.sample_evals == 0
        assert r.data_passes == 4.0


def test_pass_accounting_svrg():
    rng = np.random.default_rng(58)
    F, _, _ = ridge(rng, 3, 2, l2=0.5)
    r = svrg_hood(F, np.zeros(2), FixedIterations(5), seed=1)
    # one snapshot (m = 2n = 6 >= 5), 5 inner steps, 1 final stat
    assert r.full_evals == 2 and r.sample_evals == 5
    assert r.data_passes == pytest.approx(2.0 + 5.0 / 3.0)


def test_pass_accounting_sdca():
    rng = np.random.default_rng(59)
    F, _, _ = ridge(rng, 2, 2, l2=0.5)
    r = sdca_hood(F, np.zeros(2), FixedIterations(4), seed=1)
    # dual init costs one pass, 4 steps at 1/n, final gap costs one pass
    assert r.full_evals == 2 and r.sample_evals == 4
    assert r.data_passes == pytest.approx(4.0)


def test_snapshot_stat_is_free_for_svrg_grad_policy():
    rng = np.random.default_rng(60)
    F, _, _ = ridge(rng, 10, 4, l2=0.4)
    policy = PracticalGradThird(snapshot_interval=10)  # snapshot every n steps
    r = svrg_hood(F, np.ones(4), policy, seed=2)
    # every full eval is a snapshot whose statistic reused that gradient
    assert r.data_passes == pytest.approx(r.full_evals + r.sample_evals / 10.0)


# ---------------------------------------------------------------------------
# stochastic equivalences and determinism
# ---------------------------------------------------------------------------

def test_svrg_with_one_sample_is_prox_gd():
    F = CompositeObjective(dense_ds(np.array([[1.0, 0.5]]), np.array([2.0])),
                           "squared", Regularizer(l2=0.8))
    a = svrg_hood(F, np.zeros(2), FixedIterations(7), seed=9).x_out
    b = prox_gd_hood(F, np.zeros(2), FixedIterations(7)).x_out
    np.testing.assert_array_equal(a, b)


def test_seed_determinism():
    rng = np.random.default_rng(61)
    F, _, _ = ridge(rng, 15, 4, l2=0.2)
    for solver in (svrg_hood, sdca_hood):
        a = solver(F, np.zeros(4), FixedIterations(40), seed=5).x_out
        b = solver(F, np.zeros(4), FixedIterations(40), seed=5).x_out
        c = solver(F, np.zeros(4), FixedIterations(40), seed=6).x_out
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# case gating
# ---------------------------------------------------------------------------

def test_solvers_reject_non_case1():
    rng = np.random.default_rng(62)
    A = rng.normal(size=(6, 3))
    flat = CompositeObjective(dense_ds(A, rng.normal(size=6)), "squared",
                              Regularizer(l1=0.1))  # Case2
    sharp = CompositeObjective(dense_ds(A, np.where(rng.random(6) < 0.5, 1.0, -1.0)),
                               "hinge", Regularizer(l2=0.5))  # Case3
    for solver in (prox_gd_hood, apg_hood, svrg_hood, sdca_hood):
        with pytest.raises(ConfigError, match="Case"):
            solver(flat, np.zeros(3), TheoryBudget(), seed=0)
        with pytest.raises(ConfigError, match="Case"):
            solver(sharp, np.zeros(3), TheoryBudget(), seed=0)


# ---------------------------------------------------------------------------
# reference and exact oracle
# ---------------------------------------------------------------------------

def test_reference_minimize_certified():
    rng = np.random.default_rng(63)
    F, x_star, _ = ridge(rng, 20, 5, l2=0.3)
    ref = reference_minimize(F, 1e-12)
    assert F.duality_gap(ref) <= 1e-12
    # gap <= tol and sigma-strong convexity bound the distance to x*
    dist_bound = math.sqrt(2e-12 / F.strong_convexity)
    assert float(np.linalg.norm(ref - x_star)) <= dist_bound + 1e-9


def test_exact_oracle_returns_reference_for_free():
    rng = np.random.default_rng(64)
    F, x_star, _ = ridge(rng, 15, 4, l2=0.5)
    r = exact_oracle(F, np.ones(4), TheoryBudget())
    assert r.data_passes == 0.0 and r.iterations == 0
    np.testing.assert_allclose(r.x_out, x_star, atol=1e-7)

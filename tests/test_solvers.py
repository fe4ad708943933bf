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
                         apg_hood, dense_to_dataset, exact_oracle,
                         gen_classification, gen_regression, prox_gd_hood,
                         reference_minimize, sdca_hood, svrg_hood)
from adaptreduce import losses, solvers
from adaptreduce.solvers import _sdca_coordinate
from helpers import plain_svrg, quadratic_reference


def ridge(rng, n, d, l2):
    A = rng.normal(size=(n, d))
    b = rng.normal(size=n)
    F = CompositeObjective(dense_to_dataset(A, b), "squared", Regularizer(l2=l2))
    Q = A.T @ A / n + l2 * np.eye(d)
    c = A.T @ b / n
    x_star, val = quadratic_reference(Q, c)
    F_star = val + 0.5 * float(b @ b) / n
    return F, x_star, F_star


ONE_D = CompositeObjective(dense_to_dataset(np.array([[1.0]]), np.array([3.0])),
                           "squared", Regularizer(l2=1.0))
# F(x) = (x-3)^2/2 + x^2/2: L = 1, sigma = 1, minimizer 1.5


# ---------------------------------------------------------------------------
# certified budgets
# ---------------------------------------------------------------------------

def test_theory_iteration_counts():
    # L = sigma = 1: prox-GD budget ceil(ln 4) = 2, APG budget ceil(ln 8) = 3
    r = prox_gd_hood(ONE_D, np.zeros(1), TheoryBudget())
    assert r.iterations == 2
    r = apg_hood(ONE_D, np.zeros(1), TheoryBudget())
    assert r.iterations == 3


def test_theory_budget_formula_scaling():
    rng = np.random.default_rng(50)
    F, _, _ = ridge(rng, 30, 4, l2=0.05)
    L, sig = F.smoothness, F.strong_convexity
    r = prox_gd_hood(F, np.zeros(4), TheoryBudget())
    assert r.iterations == math.ceil(math.log(4.0) * L / sig)
    r = apg_hood(F, np.zeros(4), TheoryBudget())
    assert r.iterations == math.ceil(math.log(8.0) * math.sqrt(L / sig))
    r = sdca_hood(F, np.zeros(4), TheoryBudget(), seed=0)
    assert r.iterations == math.ceil(30 + L / sig)
    r = svrg_hood(F, np.zeros(4), TheoryBudget(), seed=0)
    assert r.iterations == math.ceil(8.0 * L / sig)  # uncertified fallback


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
    F = CompositeObjective(dense_to_dataset(A, b), "squared", Regularizer(l2=l2))
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


def newton_grid():
    """1800 logistic coordinate inputs that reach every branch of the
    Newton solve: b = 0, alpha_i at both ends of the domain and inside it
    (its logit clamped from below, from above and not at all), 267 sign
    crossings reset to 0 and 6 steps that leave the bracket and bisect
    (at q = 3000)."""
    grid = []
    for b in (1.0, -1.0, 2.5, -0.3, 0.0):
        for lam in (0.0, 1e-3, 0.5):
            for u in (0.0, 1e-12, 0.3, 1.0 - 1e-12, 1.0):  # alpha_i = -u b
                for z in (-40.0, -2.0, 0.0, 0.7, 5.0, 40.0):
                    for q in (1e-6, 0.3, 50.0, 3000.0):
                        grid.append((b, lam, -u * b, z, q))
    return grid


def test_logistic_sdca_coordinate_keeps_its_bits():
    # the digest was taken before the Newton loop lost its builtin calls:
    # the matches-bisection test bounds the error only, so a rewrite that
    # moved the last bit would pass it, not this one
    out = np.array([_sdca_coordinate("logistic", *args)
                    for args in newton_grid()])
    assert hashlib.sha256(out.tobytes()).hexdigest() == (
        "e6ce8d3abc26726079f944ab3022bf9a716430dcad84b229ec787c80dba8fc42")


def hinge_grid():
    """Hinge coordinate inputs over b in {+-1, +-0.5} and lam in {0, 0.1}:
    alpha_i at both box ends (0 of either sign, -b) and inside it; z that
    clamps s on either side, lands it inside, gives s = -0.0 by underflow
    (q = 1e308), is +-0.0, +-inf or NaN; and q = 0, the zero row."""
    grid = []
    for b in (1.0, -1.0, 0.5, -0.5):
        for lam in (0.0, 0.1):
            for alpha_i in (0.0, -0.0, -b, -0.5 * b, -1e-3 * b):
                for z in (-50.0, -1.5, -0.0, 0.0, 0.5, 1.0 / b,
                          math.nextafter(1.0 / b, -math.inf),
                          math.nextafter(1.0 / b, math.inf), 2.5, 50.0,
                          math.inf, -math.inf, math.nan):
                    for q in (0.0, 0.25, 3.0, 1e308):
                        grid.append((b, lam, alpha_i, z, q))
    return grid


def test_hinge_sdca_coordinate_keeps_its_bits():
    # the digest was taken while the clamp was four min/max builtin calls
    out = np.array([_sdca_coordinate("hinge", *args) for args in hinge_grid()])
    assert hashlib.sha256(out.tobytes()).hexdigest() == (
        "8e9647cbbbd8a869471f9f61296eb24cbc19ee25c87fe06ba5196a2c5a512fb7")


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
        assert r.data_passes <= cap + 1e-9
        if isinstance(policy, PracticalGradThird):
            assert r.data_passes == pytest.approx(cap, abs=1e-9)
        else:
            # the gap policy stops on its check when the next ceil(40/3) =
            # 14 steps and the check that would judge them do not fit
            assert r.recorded_stat == F.duality_gap(r.x_out)
            assert r.data_passes + 14 / 40 + 1.0 > cap + 1e-9


def test_svrg_practical_policies_keep_the_pass_cap():
    # each in-loop gap check costs a pass: the inner steps left must shrink
    # to the room after it (this run once spent 2.7 passes under cap 2.5
    # and 4.05 under cap 3.75)
    F = CompositeObjective(gen_classification(62, 40, 8), "hinge",
                           Regularizer(l2=0.05)).smooth(0.1)
    for cap in (2.5, 3.75):
        r = svrg_hood(F, np.zeros(8), PracticalGapQuarter(), seed=0,
                      pass_cap=cap, baseline=1e-12)
        assert r.data_passes <= cap + 1e-9


def csr_rows(seed, n, d, per_row):
    """`per_row` random entries in each row: CSR-backed below 10% density."""
    rng = np.random.default_rng(seed)
    indices = np.concatenate([np.sort(rng.choice(d, per_row, replace=False))
                              for _ in range(n)])
    return Dataset(np.arange(0, n * per_row + 1, per_row), indices,
                   rng.normal(size=n * per_row),
                   np.where(rng.random(n) < 0.5, 1.0, -1.0), d)


def test_input_gap_is_free_and_exact():
    # with no baseline the gap policy takes the gap at x0: SDCA, SVRG,
    # prox-GD and APG build it from their dual start, first snapshot or
    # first gradient, bit for bit the one F.duality_gap gives, at no pass
    csr = csr_rows(91, 120, 40, 3)
    assert csr.uses_csr
    dense = gen_regression(92, 60, 12, sparsity=4)
    assert not dense.uses_csr
    rng = np.random.default_rng(93)
    for F in (CompositeObjective(dense, "squared", Regularizer(l1=0.02))
              .regularize(0.05, rng.normal(size=12)),
              CompositeObjective(csr, "logistic", Regularizer(l2=0.01))):
        x0 = rng.normal(size=F.dim)
        gap = F.duality_gap(x0)
        for solver in (sdca_hood, svrg_hood, prox_gd_hood, apg_hood):
            own = solver(F, x0, PracticalGapQuarter(), seed=4)
            given = solver(F, x0, PracticalGapQuarter(), seed=4,
                           baseline=gap)
            assert own.x_out.tobytes() == given.x_out.tobytes()
            assert own.data_passes == given.data_passes
            assert own.final_stat < 0.25 * gap


def test_gap_policy_steps_only_when_its_first_check_fits():
    # a gap-policy call takes a step only when its start, its first segment
    # of steps and the check that ends it fit under the cap: ceil(40/3) = 14
    # SDCA or SVRG steps and one gap, or one prox-gradient step, its gap and
    # the gradient that check reserves.  A start from the state of the last
    # call's closing gap costs no pass and meets the same rule
    F = CompositeObjective(gen_regression(61, 40, 8, sparsity=4), "squared",
                           Regularizer(l1=0.05)).regularize(0.1, np.zeros(8))
    policy = PracticalGapQuarter()
    for solver, first in ((sdca_hood, 14 / 40 + 1), (svrg_hood, 14 / 40 + 1),
                          (prox_gd_hood, 2.0), (apg_hood, 2.0)):
        before = solver(F, np.zeros(8), policy, seed=1)
        assert before.state is not None
        for x0, state, need in ((np.zeros(8), None, 1.0 + first),
                                (before.x_out, before.state, first)):
            short = solver(F, x0, policy, seed=2, pass_cap=need - 0.01,
                           state=state)
            assert short.data_passes == 0.0 and short.recorded_stat is None
            assert short.x_out.tobytes() == x0.tobytes()
            enough = solver(F, x0, policy, seed=2, pass_cap=need, state=state)
            assert enough.iterations > 0 and enough.recorded_stat is not None
            assert enough.data_passes <= need + 1e-9


def test_gap_policy_never_ends_on_unjudged_steps():
    # after a check a gap-policy call steps on only when the next segment
    # and the check that ends it fit under the cap, so its last recorded gap
    # is x_out's wherever the cap falls.  prox-GD at cap 3 once took a
    # second iteration on the pass its first check reserved and recorded
    # the gap before it
    F = CompositeObjective(gen_regression(61, 40, 8, sparsity=4), "squared",
                           Regularizer(l1=0.05)).regularize(0.1, np.zeros(8))
    policy = PracticalGapQuarter()
    r = prox_gd_hood(F, np.zeros(8), policy, pass_cap=3.0)
    assert r.iterations == 2 and r.data_passes == 3.0
    assert r.recorded_stat == F.duality_gap(r.x_out)
    for solver in (sdca_hood, svrg_hood, prox_gd_hood, apg_hood):
        for cap in (3.0, 3.7, 4.4, 5.2, 6.9, 9.5, 12.0):
            r = solver(F, np.zeros(8), policy, seed=3, pass_cap=cap,
                       baseline=1e-12)
            assert r.iterations > 0 and r.data_passes <= cap + 1e-9
            assert r.recorded_stat == F.duality_gap(r.x_out), (solver, cap)
    # nor does SVRG pay for a snapshot that no segment and check can follow:
    # at n = 42 a snapshot's 84 steps are 6 segments of 14, so the 6th check,
    # at 9 passes, falls where the next snapshot is due
    F = CompositeObjective(gen_regression(61, 42, 8, sparsity=4), "squared",
                           Regularizer(l1=0.05)).regularize(0.1, np.zeros(8))
    for cap, spent in ((10.5, 9.0), (11.4, 9.0 + 1.0 + 14 / 42 + 1.0)):
        r = svrg_hood(F, np.zeros(8), policy, seed=3, pass_cap=cap,
                      baseline=1e-12)
        assert r.data_passes == pytest.approx(spent, abs=1e-12)
        assert r.recorded_stat == F.duality_gap(r.x_out)


def test_state_serves_only_its_point_data_loss_and_smoothing():
    # the last gap's pieces z, f'(z) and A^T f'(z)/n do not depend on psi:
    # a call on another psi at the same point starts from them at no pass,
    # with every float kept; any other point, data object, loss or
    # smoothing refuses them, and the call is the one without a state
    data = gen_classification(62, 40, 8)
    F = CompositeObjective(data, "squared", Regularizer(l2=0.05)).smooth(0.1)
    same = Dataset(data.indptr, data.indices, data.values, data.labels,
                   data.dim)
    policy = PracticalGapQuarter()
    for solver in (sdca_hood, svrg_hood, prox_gd_hood, apg_hood):
        prev = solver(F, np.zeros(8), policy, seed=1)
        x = prev.x_out
        cases = [(F.regularize(0.2, np.ones(8)), x, 1),
                 (F, x + 1e-3, 0),
                 (CompositeObjective(same, "squared", F.reg, 0.1), x, 0),
                 (CompositeObjective(data, "hinge", F.reg, 0.1), x, 0),
                 (CompositeObjective(data, "squared", F.reg, 0.2), x, 0),
                 (CompositeObjective(data, "squared", F.reg), x, 0)]
        for F_next, x0, saved in cases:
            kept = solver(F_next, x0, policy, seed=2, state=prev.state)
            paid = solver(F_next, x0, policy, seed=2)
            assert kept.x_out.tobytes() == paid.x_out.tobytes()
            assert kept.recorded_stat == paid.recorded_stat
            assert kept.sample_evals == paid.sample_evals
            assert kept.full_evals == paid.full_evals - saved


def test_prox_gradient_oracles_take_no_mean_over_no_rows():
    # an objective with no rows has f = 0 and a dual value of -psi*(0): the
    # empty means are 0, so the gap policy's input gap warns of nothing
    F = CompositeObjective(Dataset(np.array([0]), [], [], [], 3), "squared",
                           Regularizer(l2=0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert F.duality_gap(np.ones(3)) == 0.75
        for solver in (prox_gd_hood, apg_hood):
            r = solver(F, np.ones(3), PracticalGapQuarter())
            assert np.all(np.isfinite(r.x_out))
            assert r.recorded_stat < 0.25 * 0.75


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
    # one prox step lands exactly on the minimizer; with n = 1 the free
    # statistic is due every 2 iterations, and the first one is ~0
    r = prox_gd_hood(ONE_D, np.zeros(1), PracticalGradThird())
    assert r.iterations == 2
    assert r.final_stat <= 1e-14
    assert r.data_passes == 3.0  # three gradients, stats free


def test_practical_gap_quarter_stops_on_quarter():
    rng = np.random.default_rng(54)
    F, _, _ = ridge(rng, 20, 5, l2=0.5)
    policy = PracticalGapQuarter()  # n = 20: one check per iterate
    r = prox_gd_hood(F, np.ones(5), policy)
    # no baseline handed in: the run cuts the gap at its own input
    start = F.duality_gap(np.ones(5))
    assert r.final_stat < 0.25 * start
    before = prox_gd_hood(F, np.ones(5), FixedIterations(r.iterations - 1))
    assert F.duality_gap(before.x_out) >= 0.25 * start  # the first such point
    # each check cost one pass, and the gradient after it came free from
    # the check's pieces at y = x; the input gap came free with the first
    # gradient, which is the one paid gradient
    assert r.full_evals == r.iterations + 1
    assert r.data_passes == r.full_evals


def test_practical_policy_threads_baseline_between_runs():
    rng = np.random.default_rng(55)
    F, _, _ = ridge(rng, 20, 5, l2=0.5)
    policy = PracticalGradThird()
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
    r = svrg_hood(F, np.ones(4), PracticalGradThird(), seed=2)
    # every full eval is a snapshot whose statistic reused that gradient
    assert r.data_passes == pytest.approx(r.full_evals + r.sample_evals / 10.0)


# ---------------------------------------------------------------------------
# stochastic equivalences and determinism
# ---------------------------------------------------------------------------

def test_svrg_with_one_sample_is_prox_gd():
    F = CompositeObjective(dense_to_dataset(np.array([[1.0, 0.5]]), np.array([2.0])),
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


def mixed_rows(seed, n, d):
    """Rows 0, 3, 6, ... store all d columns; every other row keeps each of
    its entries with probability 0.3."""
    data = gen_classification(seed, n, d)
    row_of = np.repeat(np.arange(n), np.diff(data.indptr))
    kept = ((row_of % 3 == 0)
            | (np.random.default_rng(seed + 1).random(len(data.values)) < 0.3))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row_of[kept],
                                                        minlength=n))))
    return Dataset(indptr, data.indices[kept], data.values[kept],
                   data.labels, d)


# a shift center holding both signed zeros
CENTER = np.random.default_rng(83).normal(size=12) * 0.3
CENTER[:2] = -0.0, 0.0
STEP_BODY_OBJECTIVES = {
    "l2": ("hinge", 0.2, Regularizer(l2=0.05)),
    "l1+shift": ("squared", None, Regularizer(l1=0.2, shift_weight=0.1,
                                              shift_center=CENTER)),
    "shift": ("logistic", None, Regularizer(shift_weight=0.1,
                                            shift_center=CENTER)),
}


# (oracle, objective) -> SHA-256 of x_out
STEP_BODY_DIGESTS = {
    ("svrg", "l2"):
        "c7a17196af61cf9d959116750927eaa15bad6bf864b21084942cd4d23dd4748e",
    ("sdca", "l2"):
        "7e9134fc9e891ca1ba49a0571a4089eff6f01ae9740407e1e411b88ffa0216c0",
    ("svrg", "l1+shift"):
        "6139db566173d250ece05d26ef7ec7d0beeebcdde4d9ad0a2828d9af82ddcec0",
    ("sdca", "l1+shift"):
        "395805052dadc2a39c21c23def46281dc4fd2e49edbd577d6094117ad1f27eef",
    ("svrg", "shift"):
        "ea775fc6ecf566ee24b734ffdb90c4da63cfc1ec01b6d6f49482bc197c6281bc",
    ("sdca", "shift"):
        "1e75d5c1236aa7695b87d9e0ed70f6835d9f6aa2df1f2d94059ea5937e80a7cb",
}


@pytest.mark.parametrize("oracle, name", list(STEP_BODY_DIGESTS),
                         ids=[f"{o}-{n}" for o, n in STEP_BODY_DIGESTS])
def test_full_and_sparse_row_steps_keep_their_bits(oracle, name):
    # one run takes both step bodies: 20 of the 60 rows store all 12
    # columns; the shift center and x0 hold signed zeros, and the l1 run
    # ends with zeros of both signs.  The digests were taken from the
    # gather/scatter-only step loops, so the full-row bodies keep every bit
    data = mixed_rows(81, 60, 12)
    assert sum(idx is None for idx, _ in data.step_rows()) == 20
    loss, lam, reg = STEP_BODY_OBJECTIVES[name]
    F = CompositeObjective(data, loss, reg, lam)
    x0 = np.zeros(12)
    x0[::2] = -0.0
    solve = {"svrg": svrg_hood, "sdca": sdca_hood}[oracle]
    r = solve(F, x0, FixedIterations(500), seed=7)
    assert r.iterations == 500
    assert (hashlib.sha256(r.x_out.tobytes()).hexdigest()
            == STEP_BODY_DIGESTS[oracle, name])


def zero_column_rows():
    """`mixed_rows(81, 60, 12)` plus a 13th column that holds no nonzero:
    the full rows store it as an explicit 0.0, so they stay full rows."""
    data = mixed_rows(81, 60, 12)
    indices, values = [], []
    for idx, val in map(data.row, range(data.n)):
        full = len(idx) == 12
        indices.append(np.append(idx, 12) if full else idx)
        values.append(np.append(val, 0.0) if full else val)
    indptr = np.concatenate(([0], np.cumsum([len(i) for i in indices])))
    return Dataset(indptr, np.concatenate(indices), np.concatenate(values),
                   data.labels, 13)


ZERO_COLUMN_REGS = {
    "l2": Regularizer(l2=0.05),
    "l1+shift": Regularizer(l1=0.2, shift_weight=0.1,
                            shift_center=np.append(CENTER, -0.0)),
}
# (regularizer, steps) -> SHA-256 of x_out
ZERO_COLUMN_DIGESTS = {
    ("l2", 1):
        "8042ce42987692c12323a0ceb55c38beeb40cca3f29cee9d233cb6a8b16a6bb9",
    ("l2", 500):
        "5f286586238118922ead209b710d30a70f9f80bef2274cd094c5becec622fd62",
    ("l1+shift", 1):
        "93adbf67c7da2d1af07cf4263cf4ad249d42381e8351ffbcbf1fd1289200a3c4",
    ("l1+shift", 500):
        "bc10c77fd6f722b7d704c0efabe0ddb43df1e24c30ea3ae9ae689570ab4ebc4d",
}


@pytest.mark.parametrize("name, steps", list(ZERO_COLUMN_DIGESTS),
                         ids=[f"{n}-{k}" for n, k in ZERO_COLUMN_DIGESTS])
def test_svrg_zero_coefficient_steps_keep_their_bits(name, steps):
    # on the smoothed hinge f' is flat off its ramp, so the variance-reduced
    # coefficient c is often exactly 0.0, and the zero column makes mu hold
    # exact zeros: a step that drops c*a_i must still give x's signed zeros
    # the bits of the full formula.  The l2 run takes the zero path on 430
    # of its 500 steps, the l1+shift run on 454.  The first step always
    # takes it, since x is still the snapshot x0: the one-step runs pin
    # that x0's -0.0 in the zero column comes out +0.0, as the full formula
    # gives it.  The digests were taken before the zero-coefficient step
    # existed
    data = zero_column_rows()
    assert sum(idx is None for idx, _ in data.step_rows()) == 20
    F = CompositeObjective(data, "hinge", ZERO_COLUMN_REGS[name], 0.2)
    x0 = np.zeros(13)
    x0[::2] = -0.0
    r = svrg_hood(F, x0, FixedIterations(steps), seed=7)
    assert r.iterations == steps
    assert (hashlib.sha256(r.x_out.tobytes()).hexdigest()
            == ZERO_COLUMN_DIGESTS[name, steps])


def labelled_rows(seed, n, d):
    """`gen_classification` rows with labels of size 0.5, 1 and 3, and one
    label 0, whose smoothed hinge is constant."""
    data = gen_classification(seed, n, d)
    rng = np.random.default_rng(seed + 1)
    labels = data.labels * rng.choice([0.5, 1.0, 3.0], size=n)
    labels[n - 1] = 0.0
    return Dataset(data.indptr, data.indices, data.values, labels, d)


def edge_start(F, k=6):
    """An x0 that puts the margins of rows 0..k-1 on the edges of their
    ramps, up to rounding: even rows where u = (b z - 1)/(lam b^2) is 0,
    odd rows where it is -1."""
    b = F.data.labels[:k]
    lam = F.smoothing
    edges = np.where(np.arange(k) % 2 == 0, 1.0 / b, (1.0 - lam * b * b) / b)
    return np.linalg.lstsq(F.data.dense()[:k], edges, rcond=None)[0]


PLAIN_DATA = {
    "dense": lambda: labelled_rows(5, 60, 12),
    "mixed-rows": lambda: mixed_rows(81, 60, 12),
    "zero-column": zero_column_rows,
}


@pytest.mark.parametrize("lam", [0.2, 1e-3, 1e-6])
@pytest.mark.parametrize("name", list(PLAIN_DATA))
def test_svrg_keeps_the_bits_of_the_plain_formula(name, lam):
    # the skipped dot products must change no float: x_out against prox-SVRG
    # by its formula (helpers.plain_svrg), which computes every c and calls
    # Regularizer.prox.  Six rows start on the edges of their ramps, where
    # an ulp's move can turn c nonzero; at small lam the ramps are narrow
    # and the steps short, so margins stay near the edges
    data = PLAIN_DATA[name]()
    center = np.append(CENTER, np.full(data.dim - 12, -0.0))
    regs = (Regularizer(l2=0.05),
            Regularizer(l1=0.2, shift_weight=0.1, shift_center=center),
            Regularizer(shift_weight=0.1, shift_center=center))
    nonzero = 0
    for k, reg in enumerate(regs):
        F = CompositeObjective(data, "hinge", reg, lam)
        x0 = edge_start(F)
        seed = 100 * k + int(-math.log10(lam))
        r = svrg_hood(F, x0, FixedIterations(2000), seed=seed)
        x, taken = plain_svrg(F, x0, 2000, seed)
        assert r.x_out.tobytes() == x.tobytes(), reg
        nonzero += sum(c != 0.0 for _, c in taken)
    assert nonzero > 0


def counting_derivs(monkeypatch):
    """A list whose one element counts the calls to the functions that
    F.scalar_deriv returns from now on."""
    calls = [0]
    make = losses.scalar_deriv

    def counted(kind, lam=None):
        deriv = make(kind, lam)

        def call(z, b):
            calls[0] += 1
            return deriv(z, b)
        return call
    monkeypatch.setattr(losses, "scalar_deriv", counted)
    return calls


def test_svrg_skips_derivatives_only_where_the_loss_is_flat(monkeypatch):
    # the skip is live on the smoothed hinge, whose derivative is flat off
    # the ramp, and absent where no piece is flat: squared and logistic
    # loss, smoothed or not, call f' on every step
    calls = counting_derivs(monkeypatch)
    data = mixed_rows(81, 60, 12)
    for loss, lam in (("hinge", 0.2), ("squared", None), ("squared", 0.2),
                      ("logistic", None), ("logistic", 0.2)):
        F = CompositeObjective(data, loss, Regularizer(l2=0.05), lam)
        calls[0] = 0
        r = svrg_hood(F, np.zeros(12), FixedIterations(500), seed=7)
        assert r.iterations == 500
        if loss == "hinge":
            assert calls[0] < 250
        else:
            assert calls[0] == 500, loss


def test_svrg_never_skips_a_step_across_a_ramps_edge(monkeypatch):
    # row 0, a_0 = (1, 0), starts with its margin x0[0] on an edge of its
    # ramp: the last float of the flat piece moved by -4..4 ulps, and by
    # distances from 1e-15 to 1e-3 of the ramp's width; then the
    # regularizer drags x[0] across that edge, into the ramp (l2) or onto
    # the flat piece (a shift centred at x[0] = +-5).  So the bound |a_0| D
    # meets row 0's room from either side, and the margin crosses the edge
    # within a few steps.  Step k computes c when the k-step run calls f'
    # once more than the (k-1)-step run; every step whose c is not 0 must,
    # and x must keep the plain formula's bits
    calls = counting_derivs(monkeypatch)
    data = dense_to_dataset(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -0.5]]),
                            np.array([1.0, 1.0, -1.0]))
    regs = (Regularizer(l2=0.05),
            Regularizer(shift_weight=0.5, shift_center=np.array([5.0, 0.0])),
            Regularizer(shift_weight=0.5, shift_center=np.array([-5.0, 0.0])))
    steps = 12
    row0 = {"skipped": 0, "computed": 0, "nonzero": 0}
    for lam in (0.2, 1e-6):
        deriv = losses.scalar_deriv("hinge", lam)
        for u, inward in ((0.0, -math.inf), (-1.0, math.inf)):
            # the flat piece's last float, where f' = b u (b = 1); its
            # inward neighbour is on the ramp
            edge = 1.0 + u * lam
            while deriv(edge, 1.0) != u:
                edge = math.nextafter(edge, -inward)
            while deriv(math.nextafter(edge, inward), 1.0) == u:
                edge = math.nextafter(edge, inward)
            starts = [edge]
            for _ in range(4):
                starts = ([math.nextafter(starts[0], inward)] + starts
                          + [math.nextafter(starts[-1], -inward)])
            starts += [edge - math.copysign(lam * f, inward)
                       for f in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3)]
            for reg in regs:
                F = CompositeObjective(data, "hinge", reg, lam)
                for start in starts:
                    x0 = np.array([start, 0.25])
                    x, taken = plain_svrg(F, x0, steps, seed=3)
                    made = []
                    for k in range(steps + 1):
                        calls[0] = 0
                        r = svrg_hood(F, x0, FixedIterations(k), seed=3)
                        made.append(calls[0])
                    assert r.x_out.tobytes() == x.tobytes()
                    for k, (i, c) in enumerate(taken):
                        computed = made[k + 1] > made[k]
                        assert computed or c == 0.0, (lam, u, reg, start, k)
                        if i == 0:
                            row0["computed" if computed else "skipped"] += 1
                            row0["nonzero"] += c != 0.0
    # the sweep meets both sides of the bound, and edges that are crossed
    assert min(row0.values()) > 0, row0


def test_grad_policy_refuses_an_l1_term():
    # its statistic leaves out the l1 term, so it does not vanish at the
    # minimizer: without a cap sdca_hood ran this to the 10**8-step guard
    # (355 s).  The refusal comes before any work; the cap only keeps a
    # run that is not refused short
    F = CompositeObjective(gen_regression(5, 40, 6, sparsity=3), "squared",
                           Regularizer(l1=0.01, l2=0.1))
    for solver in (prox_gd_hood, apg_hood, svrg_hood, sdca_hood):
        with pytest.raises(ConfigError, match="l1"):
            solver(F, np.zeros(6), PracticalGradThird(), seed=3,
                   pass_cap=20.0)


# ---------------------------------------------------------------------------
# case gating
# ---------------------------------------------------------------------------

def test_solvers_reject_non_case1():
    rng = np.random.default_rng(62)
    A = rng.normal(size=(6, 3))
    flat = CompositeObjective(dense_to_dataset(A, rng.normal(size=6)), "squared",
                              Regularizer(l1=0.1))  # Case2
    y = np.where(rng.random(6) < 0.5, 1.0, -1.0)
    sharp = CompositeObjective(dense_to_dataset(A, y), "hinge",
                               Regularizer(l2=0.5))  # Case3
    for solver in (prox_gd_hood, apg_hood, svrg_hood, sdca_hood):
        with pytest.raises(ConfigError, match="Case"):
            solver(flat, np.zeros(3), TheoryBudget(), seed=0)
        with pytest.raises(ConfigError, match="Case"):
            solver(sharp, np.zeros(3), TheoryBudget(), seed=0)


def test_oracles_return_on_all_zero_rows():
    # all-zero rows make the loss constant (smoothness 0); the prox-gradient
    # oracles and SVRG then step at 1/sigma
    F = CompositeObjective(dense_to_dataset(np.zeros((4, 3)), np.ones(4)),
                           "squared", Regularizer(l2=0.5))
    assert F.smoothness == 0.0
    x0 = np.ones(3)
    for solver in (prox_gd_hood, apg_hood, svrg_hood, sdca_hood):
        for policy in (TheoryBudget(), PracticalGradThird()):
            rep = solver(F, x0, policy, seed=1, pass_cap=20.0)
            assert np.all(np.isfinite(rep.x_out))
            assert F.full_value(rep.x_out) < F.full_value(x0)


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

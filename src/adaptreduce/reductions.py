"""Adaptive reductions between optimization objectives.

adapt_reg turns a smooth non-strongly-convex problem (Case2) into a sequence
of strongly convex ones by adding sigma_t/2 |x - x0|^2 with sigma_t halving
each epoch; adapt_smooth turns a strongly convex nonsmooth problem (Case3)
into smooth ones via loss smoothing at lambda_t, halving likewise;
joint_adapt does both at once for Case4.  Every epoch calls a HOOD oracle on
the freshly transformed objective, warm-started at the previous epoch's
output.  The classical baselines fix sigma or lambda once and run the oracle
to its plateau, which is biased: the fixed transform moves the minimizer.

Epoch t of a seeded run draws its randomness from a child seed derived from
(seed, t), so truncating at epoch t reproduces exactly the run with T = t.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .objectives import Case, CompositeObjective
from .solvers import (OracleReport, PracticalGapQuarter, PracticalGradThird,
                      STAT_FLOOR)

HALVING = 2.0  # fixed epoch halving factor; the analysis constants assume it
_EPOCH_GUARD = 10 ** 6  # constant schedules give up after this many epochs


@dataclass(frozen=True)
class ReductionParams:
    """Initial parameters and epoch count for the adaptive reductions.

    sigma0/lam0 are None when not applicable (or not derivable: lam0 needs a
    finite Lipschitz constant G).  delta, theta, G, eps record the estimates
    the defaults were computed from, when they were.
    """

    sigma0: float | None = None
    lam0: float | None = None
    T: int = 1
    delta: float | None = None
    theta: float | None = None
    G: float | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.T < 1:
            raise ConfigError("epoch count T must be at least 1")
        if self.sigma0 is not None and self.sigma0 <= 0.0:
            raise ConfigError("sigma0 must be positive")
        if self.lam0 is not None and self.lam0 <= 0.0:
            raise ConfigError("lam0 must be positive")


@dataclass
class EpochRecord:
    t: int
    sigma_t: float
    lambda_t: float
    x_hat: np.ndarray
    report: OracleReport
    passes: float  # cumulative data passes through this epoch


def default_params(delta: float, theta: float, G: float, eps: float) -> ReductionParams:
    """sigma0 = delta/theta, lam0 = delta/G^2, T = ceil(log2(delta/eps)).

    delta bounds F(x0) - F*, theta bounds |x0 - x*|^2, G is the loss
    Lipschitz constant.  G = inf (squared loss) leaves lam0 = None; methods
    that need lam0 reject that explicitly.  delta <= eps clamps T to 1 with
    a warning.
    """
    for name, val in (("delta", delta), ("theta", theta), ("G", G), ("eps", eps)):
        if not (val > 0.0):
            raise ConfigError(f"default_params: {name} must be positive, got {val}")
    sigma0 = delta / theta
    lam0 = None if math.isinf(G) else delta / (G * G)
    if delta <= eps:
        warnings.warn(
            "target accuracy eps >= initial gap estimate delta; clamping T to 1",
            stacklevel=2)
        T = 1
    else:
        T = max(1, math.ceil(math.log2(delta / eps)))
    return ReductionParams(sigma0=sigma0, lam0=lam0, T=T,
                           delta=delta, theta=theta, G=G, eps=eps)


def _epoch_seed(seed, t: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(0 if seed is None else int(seed), spawn_key=(t,))


def _require_case(F: CompositeObjective, case: Case, who: str):
    got = F.classify_case()
    if got is not case:
        raise ConfigError(f"{who} requires a {case.name} objective; got {got.name}")


def _drive(F, oracle, x0, policy, schedule, transform, *, seed=None,
           pass_budget=None, stalled=None, epoch_seed=_epoch_seed):
    """The one epoch loop: for each (sigma_t, lambda_t) of the schedule,
    call the oracle on transform(sigma_t, lambda_t), warm-started at the
    previous epoch's output.

    Passes are counted here, once, from each report's integer full and
    sample evaluations, and stored cumulatively on the records.  The driver
    owns the practical policies' baseline: the last statistic an oracle
    recorded is handed to the next call.  The run ends with the schedule,
    when `stalled(report)` is true, or once the pass budget is spent: an
    epoch that could afford no work leaves the remaining budget, and so
    every later epoch, unchanged.  The hinge references use `stalled` as a
    stop hook too: it polishes each epoch's output and ends the run at the
    first certified point.
    """
    x_hat = np.array(x0, dtype=float)
    records: list[EpochRecord] = []
    n = max(F.n, 1)
    full = 0
    samples = 0
    baseline = None
    for t, (sigma_t, lam_t) in enumerate(schedule):
        remaining = None
        if pass_budget is not None:
            remaining = pass_budget - (full + samples / n)
            if remaining <= 1e-9:
                break
        F_t = transform(sigma_t, lam_t)
        report = oracle(F_t, x_hat, policy, seed=epoch_seed(seed, t),
                        pass_cap=remaining, baseline=baseline)
        full += report.full_evals
        samples += report.sample_evals
        if report.recorded_stat is not None:
            baseline = report.recorded_stat
        x_hat = np.array(report.x_out, dtype=float)
        records.append(EpochRecord(
            t=t, sigma_t=sigma_t, lambda_t=lam_t, x_hat=x_hat, report=report,
            passes=full + samples / n))
        idle = report.full_evals == 0 and report.sample_evals == 0
        if (pass_budget is not None and idle) or (stalled and stalled(report)):
            break
    return x_hat, records


def adapt_reg(F, oracle, x0, params: ReductionParams, policy, *,
              seed=None, pass_budget=None):
    """Adaptive regularization: epoch t minimizes F + sigma_t/2 |x - x0|^2
    (center fixed at the ORIGINAL x0), sigma_t = sigma0 / 2^t, warm starts
    threading through.  Requires a smooth non-strongly-convex (Case2) F."""
    _require_case(F, Case.Case2, "adapt_reg")
    if params.sigma0 is None:
        raise ConfigError("adapt_reg needs sigma0")
    x0 = np.array(x0, dtype=float)
    schedule = [(params.sigma0 / HALVING ** t, 0.0) for t in range(params.T)]
    return _drive(F, oracle, x0, policy, schedule,
                  lambda sigma_t, lam_t: F.regularize(sigma_t, x0),
                  seed=seed, pass_budget=pass_budget)


def adapt_smooth(F, oracle, x0, params: ReductionParams, policy, *,
                 seed=None, pass_budget=None):
    """Adaptive smoothing: epoch t minimizes the lambda_t-smoothed objective,
    lambda_t = lam0 / 2^t.  Requires a strongly convex nonsmooth (Case3) F."""
    _require_case(F, Case.Case3, "adapt_smooth")
    if params.lam0 is None:
        raise ConfigError(
            "adapt_smooth needs lam0 (unavailable from defaults when the loss "
            "is not Lipschitz, e.g. squared loss has G = inf)")
    schedule = [(0.0, params.lam0 / HALVING ** t) for t in range(params.T)]
    return _drive(F, oracle, x0, policy, schedule,
                  lambda sigma_t, lam_t: F.smooth(lam_t),
                  seed=seed, pass_budget=pass_budget)


def joint_adapt(F, oracle, x0, params: ReductionParams, policy, *,
                seed=None, pass_budget=None):
    """Joint reduction: epoch t minimizes the lambda_t-smoothed losses plus
    sigma_t/2 |x - x0|^2 (original center), halving both parameters.
    Requires a Case4 F (neither smooth nor strongly convex)."""
    _require_case(F, Case.Case4, "joint_adapt")
    if params.sigma0 is None or params.lam0 is None:
        raise ConfigError("joint_adapt needs both sigma0 and lam0")
    x0 = np.array(x0, dtype=float)
    schedule = [(params.sigma0 / HALVING ** t, params.lam0 / HALVING ** t)
                for t in range(params.T)]
    return _drive(F, oracle, x0, policy, schedule,
                  lambda sigma_t, lam_t: F.smooth(lam_t).regularize(sigma_t, x0),
                  seed=seed, pass_budget=pass_budget)


def _classical(F_fixed, oracle, x0, policy, sigma, lam, *, seed, pass_budget,
               target_stat):
    """Run F_fixed under the constant schedule (sigma, lam) until it stalls:
    no oracle iterations, a statistic under STAT_FLOOR or at target_stat."""

    def constant():
        for _ in range(_EPOCH_GUARD + 1):
            yield sigma, lam
        raise ConfigError(
            "classical reduction ran 10^6 epochs; give a pass_budget or target")

    def stalled(report):
        return (report.iterations == 0 or report.final_stat < STAT_FLOOR
                or (target_stat is not None
                    and report.final_stat <= target_stat))

    return _drive(F_fixed, oracle, x0, policy, constant(),
                  lambda sigma_t, lam_t: F_fixed, seed=seed,
                  pass_budget=pass_budget, stalled=stalled)


def classical_reg(F, oracle, x0, sigma: float, *, policy=None, seed=None,
                  pass_budget=None, target_stat=None):
    """Classical regularization baseline: fix sigma once, run the oracle on
    F + sigma/2 |x - x0|^2 until the statistic stalls, reaches target_stat,
    or the pass budget runs out.  Converges to the REGULARIZED minimizer,
    which sits up to (sigma/2) |x0 - x*|^2 above the true optimum."""
    _require_case(F, Case.Case2, "classical_reg")
    if sigma <= 0.0:
        raise ConfigError("classical_reg needs sigma > 0")
    if policy is None:
        policy = PracticalGapQuarter()
    F_fixed = F.regularize(sigma, np.array(x0, dtype=float))
    return _classical(F_fixed, oracle, x0, policy, sigma, 0.0,
                      seed=seed, pass_budget=pass_budget,
                      target_stat=target_stat)


def classical_smooth(F, oracle, x0, lam: float, *, policy=None, seed=None,
                     pass_budget=None, target_stat=None):
    """Classical smoothing baseline: fix lambda once, run the oracle on the
    smoothed objective.  The plateau on the original F is at most
    lam G^2 / 2 above the optimum (smoothing underestimates by at most
    that much pointwise)."""
    _require_case(F, Case.Case3, "classical_smooth")
    if lam <= 0.0:
        raise ConfigError("classical_smooth needs lambda > 0")
    if policy is None:
        policy = PracticalGradThird()
    return _classical(F.smooth(lam), oracle, x0, policy, 0.0, lam,
                      seed=seed, pass_budget=pass_budget,
                      target_stat=target_stat)

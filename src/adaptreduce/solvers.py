"""Inner solvers with the homogeneous-objective-decrease (HOOD) contract.

Each solver takes a strongly convex and smooth (Case1) objective and a
termination policy and returns an OracleReport.  Under TheoryBudget the
iteration counts are chosen so the solver's linear-rate bound guarantees the
objective gap shrinks by a factor of at least 4 (the HOOD contract); the
stochastic solvers provide that decrease in expectation only.

Every solver is called as

    oracle(F, x0, policy, *, seed=None, pass_cap=None, baseline=None)

where `baseline` is the statistic the caller's previous oracle call
recorded last (its report's recorded_stat); the practical policies measure
their decrease against it.  Policies carry no state between calls.

Pass accounting: one full-gradient or statistic evaluation costs one pass
over the data; one stochastic step costs 1/n.  A gradient-norm statistic
evaluated at a point whose full gradient was just computed (SVRG snapshots,
prox-GD iterates) is free.  Counts are kept as integers (full passes and
sample steps) so totals are exact.

The SVRG and SDCA step loops run once per sample in Python, so they work on
lists and row views made once per call, yet every float stays the one the
vectorized functions give: a scalar closed form stands in for a numpy call
only where it needs nothing but + - * / min max, which are exactly rounded;
exp and log stay numpy calls, because math's differ in the last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import data as data_mod
from .errors import ConfigError, NumericalError
from .objectives import Case, CompositeObjective

STAT_FLOOR = 1e-14   # policies stop unconditionally below this statistic
_ITER_GUARD = 10 ** 8  # hard safety limit on steps in one invocation


# ---------------------------------------------------------------------------
# termination policies
# ---------------------------------------------------------------------------

@dataclass
class TheoryBudget:
    """Run the solver-specific certified iteration count, then stop."""


@dataclass
class PracticalGapQuarter:
    """Stop when the duality gap falls below 1/4 of the baseline: the gap
    the previous epoch recorded last, handed in by the caller (or the first
    gap recorded when there is none).

    check_interval is in stochastic-step units; None means ceil(n/3).
    """

    check_interval: int | None = None
    factor = 0.25

    def interval(self, n: int) -> int:
        if self.check_interval is not None:
            return max(1, int(self.check_interval))
        return max(1, math.ceil(n / 3))

    def stat(self, F: CompositeObjective, x) -> float:
        return F.duality_gap(x)


@dataclass
class PracticalGradThird:
    """Stop when the gradient norm falls below 1/3 of the baseline: the
    norm the previous epoch recorded last, handed in by the caller (or the
    first norm recorded this epoch when there is none).

    The statistic is the norm of the gradient of the whole differentiable
    part (f plus psi's quadratic terms, never the l1 term): with a shifted
    quadratic in psi the f-gradient alone does not vanish at the minimizer,
    so the one-third rule would stall on it.

    snapshot_interval is in stochastic-step units; None means 2n.
    """

    snapshot_interval: int | None = None
    factor = 1.0 / 3.0

    def interval(self, n: int) -> int:
        if self.snapshot_interval is not None:
            return max(1, int(self.snapshot_interval))
        return max(1, 2 * n)

    def stat(self, F: CompositeObjective, x) -> float:
        return F.grad_norm(x, include_quadratic_reg=True)


@dataclass
class FixedIterations:
    """Run exactly k iterations (stochastic steps for SVRG/SDCA)."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ConfigError("iteration count must be nonnegative")


TerminationPolicy = Union[TheoryBudget, PracticalGapQuarter, PracticalGradThird,
                          FixedIterations]
_PRACTICAL = (PracticalGapQuarter, PracticalGradThird)


@dataclass
class OracleReport:
    x_out: np.ndarray
    iterations: int
    data_passes: float
    final_stat: float
    budget_used: int
    full_evals: int = 0
    sample_evals: int = 0
    recorded_stat: float | None = None  # last statistic recorded, if any


class _Run:
    """Shared bookkeeping for one solver invocation: pass counters, the
    practical-policy baseline, and the pass cap."""

    def __init__(self, F, policy, pass_cap, baseline):
        self.F = F
        self.n = max(F.n, 1)
        self.policy = policy if isinstance(policy, _PRACTICAL) else None
        self.baseline = baseline if self.policy else None
        self.latest: float | None = None
        self.pass_cap = pass_cap
        self.full = 0
        self.samples = 0

    @property
    def passes(self) -> float:
        return self.full + self.samples / self.n

    def room_for(self, full=0, samples=0) -> bool:
        if self.pass_cap is None:
            return True
        projected = (self.full + full) + (self.samples + samples) / self.n
        return projected <= self.pass_cap + 1e-9

    def sample_room(self) -> int:
        """How many more stochastic steps fit under the cap."""
        if self.pass_cap is None:
            return 2 ** 62
        left = (self.pass_cap + 1e-9 - self.passes) * self.n
        return max(0, int(math.floor(left)))

    def record(self, stat: float) -> bool:
        """Register a statistic; True means the policy says stop."""
        self.latest = float(stat)
        if self.latest < STAT_FLOOR:
            return True
        if self.baseline is None:
            self.baseline = self.latest
            return False
        return self.latest < self.policy.factor * self.baseline

    def finish(self, x, iterations, budget) -> OracleReport:
        stat = self.latest if self.latest is not None else 0.0
        return OracleReport(
            x_out=np.asarray(x, dtype=float),
            iterations=iterations,
            data_passes=self.passes,
            final_stat=max(float(stat), 0.0),
            budget_used=budget,
            full_evals=self.full,
            sample_evals=self.samples,
            recorded_stat=self.latest,
        )


def _require_case1(F: CompositeObjective, who: str):
    case = F.classify_case()
    if case is not Case.Case1:
        raise ConfigError(
            f"{who} requires a strongly convex, smooth (Case1) objective; "
            f"got {case.name}")


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    else:
        ss = np.random.SeedSequence(0 if seed is None else int(seed))
    return np.random.Generator(np.random.Philox(ss))


def _budget_final_stat(run: _Run, F, x, use_gap: bool):
    """Record an end-of-run statistic for TheoryBudget/FixedIterations."""
    if run.latest is None and run.room_for(full=1):
        run.full += 1
        if use_gap:
            run.latest = F.duality_gap(x)
        else:
            run.latest = F.grad_norm(x, include_quadratic_reg=True)


def _theory_iters(who: str, L: float, sigma: float) -> int:
    if who == "prox_gd_hood":
        return max(1, math.ceil(math.log(4.0) * L / sigma))
    if who == "apg_hood":
        return max(1, math.ceil(math.log(8.0) * math.sqrt(L / sigma)))
    raise AssertionError(who)


def _deterministic_budget(policy, who, L, sigma):
    if isinstance(policy, TheoryBudget):
        return _theory_iters(who, L, sigma)
    if isinstance(policy, FixedIterations):
        return policy.k
    return None


# ---------------------------------------------------------------------------
# deterministic full-gradient solvers
# ---------------------------------------------------------------------------

def prox_gd_hood(F, x0, policy, *, seed=None, pass_cap=None,
                 baseline=None) -> OracleReport:
    """Proximal gradient descent with step 1/L.

    TheoryBudget runs ceil(ln(4) L/sigma) iterations: each step contracts
    the distance to the minimizer by 1/(1 + sigma/L) and the objective gap
    by its square on quadratics, so the gap drops by a factor >= 4 within
    the budget.  `seed` is accepted for interface uniformity and ignored.
    """
    _require_case1(F, "prox_gd_hood")
    L, sigma = F.smoothness, F.strong_convexity
    if L <= 0.0:
        L = sigma  # constant f: any positive step; prox does all the work
    run = _Run(F, policy, pass_cap, baseline)
    n = run.n
    budget = _deterministic_budget(policy, "prox_gd_hood", L, sigma)
    check_every = None
    if run.policy is not None:
        check_every = max(1, round(run.policy.interval(n) / n))

    x = np.array(x0, dtype=float)
    it = 0
    while budget is None or it < budget:
        if it > _ITER_GUARD:
            raise NumericalError("prox_gd_hood exceeded the iteration guard")
        if not run.room_for(full=1):
            break
        due = check_every is not None and it > 0 and it % check_every == 0
        if due and isinstance(run.policy, PracticalGapQuarter):
            if not run.room_for(full=2):
                break
            run.full += 1
            if run.record(run.policy.stat(F, x)):
                break
        g = F.full_gradient(x)
        run.full += 1
        if due and isinstance(run.policy, PracticalGradThird):
            # free: reuses g, adds only psi's closed-form quadratic gradient
            stat = np.linalg.norm(g + F.reg.differentiable_gradient(x))
            if run.record(stat):
                break
        x = F.prox(x - g / L, 1.0 / L)
        it += 1

    if isinstance(policy, (TheoryBudget, FixedIterations)) and it > 0:
        _budget_final_stat(run, F, x, use_gap=False)
    return run.finish(x, it, budget or 0)


def apg_hood(F, x0, policy, *, seed=None, pass_cap=None,
             baseline=None) -> OracleReport:
    """Accelerated proximal gradient with fixed strong-convexity momentum
    (sqrt(L) - sqrt(sigma)) / (sqrt(L) + sqrt(sigma)).

    TheoryBudget runs ceil(ln(8) sqrt(L/sigma)) iterations, from the
    objective-gap rate bound 2 (1 - sqrt(sigma/L))^k.  Gradients are taken
    at the extrapolated point y; statistics are evaluated at the primal
    iterate x (one extra pass each).
    """
    _require_case1(F, "apg_hood")
    L, sigma = F.smoothness, F.strong_convexity
    if L <= 0.0:
        L = sigma
    beta = 0.0
    if L > sigma:
        rL, rS = math.sqrt(L), math.sqrt(sigma)
        beta = (rL - rS) / (rL + rS)
    run = _Run(F, policy, pass_cap, baseline)
    n = run.n
    budget = _deterministic_budget(policy, "apg_hood", L, sigma)
    check_every = None
    if run.policy is not None:
        check_every = max(1, round(run.policy.interval(n) / n))

    x = np.array(x0, dtype=float)
    y = x.copy()
    it = 0
    while budget is None or it < budget:
        if it > _ITER_GUARD:
            raise NumericalError("apg_hood exceeded the iteration guard")
        if not run.room_for(full=1):
            break
        if check_every is not None and it > 0 and it % check_every == 0:
            if not run.room_for(full=2):
                break
            run.full += 1
            if run.record(run.policy.stat(F, x)):
                break
        g = F.full_gradient(y)
        run.full += 1
        x_new = F.prox(y - g / L, 1.0 / L)
        y = x_new + beta * (x_new - x)
        x = x_new
        it += 1

    if isinstance(policy, (TheoryBudget, FixedIterations)) and it > 0:
        _budget_final_stat(run, F, x, use_gap=False)
    return run.finish(x, it, budget or 0)


# ---------------------------------------------------------------------------
# SVRG
# ---------------------------------------------------------------------------

def _svrg_theory(n: int, L: float, sigma: float) -> tuple[int, int]:
    """(outer epochs, inner steps per epoch) for a factor-4 decrease.

    The standard prox-SVRG per-epoch contraction bound
        rho = 1/(sigma eta (1-4 L eta) m) + 4 L eta (m+1)/((1-4 L eta) m)
    cannot certify anything at the practical step eta = 1/L (the 1 - 4 L eta
    factor is negative), so the budget falls back to one outer epoch of
    ceil(8 L/sigma) inner steps at eta = 1/L — an empirically validated
    allotment, documented as uncertified.
    """
    eta = 1.0 / L
    m = 2 * n
    denom = 1.0 - 4.0 * L * eta
    if denom > 0.0:
        rho = (1.0 / (sigma * eta * denom * m)
               + 4.0 * L * eta * (m + 1) / (denom * m))
        if 0.0 < rho < 1.0:
            return max(1, math.ceil(math.log(4.0) / math.log(1.0 / rho))), m
    return 1, max(1, math.ceil(8.0 * L / sigma))


def svrg_hood(F, x0, policy, *, seed=None, pass_cap=None,
              baseline=None) -> OracleReport:
    """Prox-SVRG: full-gradient snapshot every m inner steps, variance
    reduced stochastic prox steps at eta = 1/L, next snapshot taken at the
    last inner iterate.

    Snapshot loss derivatives are cached, so an inner step evaluates one
    fresh derivative (1/n of a pass).  A gradient-norm statistic at a
    snapshot is free (the snapshot gradient is in hand); under the
    gradient-norm policy the snapshot interval is the policy's interval.
    """
    _require_case1(F, "svrg_hood")
    if F.n < 1:
        raise ConfigError("svrg_hood needs a finite-sum objective with n >= 1")
    L, sigma = F.smoothness, F.strong_convexity
    eta = 1.0 / L
    n = F.n
    run = _Run(F, policy, pass_cap, baseline)
    rng = _rng(seed)

    if isinstance(policy, TheoryBudget):
        outer, m = _svrg_theory(n, L, sigma)
        total_budget = outer * m
    elif isinstance(policy, FixedIterations):
        m = 2 * n
        total_budget = policy.k
    else:
        m = 2 * n
        total_budget = None
    gap_every = None
    if isinstance(run.policy, PracticalGapQuarter):
        gap_every = run.policy.interval(n)
    elif isinstance(run.policy, PracticalGradThird):
        m = run.policy.interval(n)

    rows = [F.data.row(i) for i in range(n)]
    labels = F.data.labels.tolist()
    deriv = F.scalar_deriv
    prox = F.reg.prox_map(eta)
    x = np.array(x0, dtype=float)
    steps = 0
    since_gap = 0
    stopped = False
    while not stopped:
        if steps > _ITER_GUARD:
            raise NumericalError("svrg_hood exceeded the iteration guard")
        if total_budget is not None and steps >= total_budget:
            break
        if not run.room_for(full=1, samples=1):
            break
        # snapshot
        z_tilde = F.margins(x)
        d_tilde = np.asarray(F.loss_derivs(z_tilde), dtype=float)
        mu = data_mod.rmatvec(F.data, d_tilde) / n
        run.full += 1
        if isinstance(run.policy, PracticalGradThird):
            stat = np.linalg.norm(mu + F.reg.differentiable_gradient(x))
            if run.record(stat):
                break
        # inner loop
        todo = m
        if total_budget is not None:
            todo = min(todo, total_budget - steps)
        todo = min(todo, run.sample_room())
        if todo <= 0:
            break
        d_list = d_tilde.tolist()
        for i in rng.integers(0, n, size=m)[:todo].tolist():
            ridx, rval = rows[i]
            di = deriv(float(rval @ x[ridx]), labels[i])
            v = mu.copy()
            v[ridx] += (di - d_list[i]) * rval
            x = prox(x - eta * v)
            steps += 1
            run.samples += 1
            since_gap += 1
            if gap_every is not None and since_gap >= gap_every:
                since_gap = 0
                if not run.room_for(full=1):
                    stopped = True
                    break
                run.full += 1
                if run.record(run.policy.stat(F, x)):
                    stopped = True
                    break

    if isinstance(policy, (TheoryBudget, FixedIterations)) and steps > 0:
        _budget_final_stat(run, F, x, use_gap=False)
    return run.finish(x, steps, total_budget or 0)


# ---------------------------------------------------------------------------
# SDCA
# ---------------------------------------------------------------------------

def _sdca_coordinate(kind: str, b: float, lam: float, alpha_i: float,
                     z: float, q: float) -> float:
    """New dual value s maximizing the coordinate dual model.

    Solves phi*'(s) + q (s - alpha_i) = z on the conjugate domain, where
    phi* is the (lam-smoothed) loss conjugate and q = |a_i|^2/(sigma n) is
    the curvature of psi* along a_i.  Exact coordinate maximization when
    psi* is quadratic along a_i (no l1 support change).
    """
    if kind == "squared":
        return (z - b + q * alpha_i) / (1.0 + lam + q)
    if b == 0.0:
        return 0.0  # the conjugate's domain is the single point 0
    lo, hi = min(-b, 0.0), max(-b, 0.0)
    if kind == "hinge":
        if lam + q <= 0.0:
            return -b  # zero row, unsmoothed: dual is linear, pick its argmax
        s = (z - 1.0 / b + q * alpha_i) / (lam + q)
        return min(max(s, lo), hi)
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


def sdca_hood(F, x0, policy, *, seed=None, pass_cap=None,
              baseline=None) -> OracleReport:
    """Proximal stochastic dual coordinate ascent with exact per-coordinate
    maximization (the steepest, automatic choice).

    Dual variables start at the loss derivatives of x0's margins (one pass);
    the primal iterate is psi's conjugate maximizer at v = -(1/n) sum_i
    alpha_i a_i, both updated on the sampled row's support only.
    TheoryBudget allots ceil(n + L/sigma) steps per the standard SDCA epoch
    count — without a certification claim (SDCA does not satisfy HOOD).
    """
    _require_case1(F, "sdca_hood")
    if F.n < 1:
        raise ConfigError("sdca_hood needs a finite-sum objective with n >= 1")
    sigma = F.strong_convexity
    if sigma <= 0.0:
        raise ConfigError("sdca_hood: dual undefined without strong convexity in psi")
    n = F.n
    L = F.smoothness
    lam = 0.0 if F.smoothing is None else F.smoothing
    run = _Run(F, policy, pass_cap, baseline)
    rng = _rng(seed)

    if isinstance(policy, TheoryBudget):
        total_budget = max(1, math.ceil(n + L / sigma))
    elif isinstance(policy, FixedIterations):
        total_budget = policy.k
    else:
        total_budget = None
    check_every = run.policy.interval(n) if run.policy is not None else None

    if total_budget == 0 or not run.room_for(full=1, samples=1):
        return run.finish(np.array(x0, dtype=float), 0, total_budget or 0)

    # initialize duals from x0 (one pass over the data)
    z0 = F.margins(x0)
    alpha = np.array(F.loss_derivs(z0, allow_subgradient=True), dtype=float)
    run.full += 1
    v = -data_mod.rmatvec(F.data, alpha) / n
    x = F.reg.conjugate_argmax(v)
    alpha = alpha.tolist()
    rows = [F.data.row(i) for i in range(n)]
    labels = F.data.labels.tolist()
    q = (F.data.row_sq_norms() / (sigma * n)).tolist()

    steps = 0
    since_check = 0
    chunk = 4096
    stopped = False
    while not stopped:
        if steps > _ITER_GUARD:
            raise NumericalError("sdca_hood exceeded the iteration guard")
        if total_budget is not None and steps >= total_budget:
            break
        todo = chunk if total_budget is None else min(chunk, total_budget - steps)
        todo = min(todo, run.sample_room())
        if todo <= 0:
            break
        for i in rng.integers(0, n, size=todo).tolist():
            ridx, rval = rows[i]
            s = _sdca_coordinate(F.loss, labels[i], lam, alpha[i],
                                 float(rval @ x[ridx]), q[i])
            delta = s - alpha[i]
            if delta != 0.0:
                alpha[i] = s
                vi = v[ridx] - (delta / n) * rval
                v[ridx] = vi
                # psi is separable and v moved on row i's support only
                x[ridx] = F.reg.conjugate_argmax(vi, ridx)
            steps += 1
            run.samples += 1
            since_check += 1
            if check_every is not None and since_check >= check_every:
                since_check = 0
                if not run.room_for(full=1):
                    stopped = True
                    break
                run.full += 1
                if run.record(run.policy.stat(F, x)):
                    stopped = True
                    break

    if isinstance(policy, (TheoryBudget, FixedIterations)) and steps > 0:
        _budget_final_stat(run, F, x, use_gap=True)
    return run.finish(x, steps, total_budget or 0)


# ---------------------------------------------------------------------------
# high-accuracy reference
# ---------------------------------------------------------------------------

_REFERENCE_CACHE: dict[tuple[str, float], np.ndarray] = {}
_REFERENCE_ITER_CAP = 10 ** 7


def reference_minimize(F: CompositeObjective, tol: float = 1e-12) -> np.ndarray:
    """High-accuracy minimizer of a Case1 objective: APG in rounds until the
    duality gap is at most tol.  Results are cached in-process by content
    hash, so a repeated call returns the identical read-only array.
    """
    key = (F.content_hash(), float(tol))
    hit = _REFERENCE_CACHE.get(key)
    if hit is not None:
        return hit
    _require_case1(F, "reference_minimize")
    L, sigma = F.smoothness, F.strong_convexity
    chunk = max(25, _theory_iters("apg_hood", max(L, sigma), sigma))
    x = np.zeros(F.dim)
    total = 0
    stalls = 0
    prev_gap = np.inf
    while True:
        gap = F.duality_gap(x)
        if gap <= tol:
            break
        if gap >= prev_gap * 0.999:
            stalls += 1
            if stalls >= 5:
                raise NumericalError(
                    f"reference failed: gap stalled at {gap:g} above tol {tol:g}")
        else:
            stalls = 0
        prev_gap = gap
        report = apg_hood(F, x, FixedIterations(chunk))
        x = report.x_out
        total += chunk
        if total > _REFERENCE_ITER_CAP:
            raise NumericalError("reference failed: iteration cap exceeded")
    x = np.asarray(x, dtype=float)
    x.setflags(write=False)
    _REFERENCE_CACHE[key] = x
    return x


def exact_oracle(F: CompositeObjective, x0, policy=None, *, seed=None,
                 pass_cap=None, baseline=None,
                 tol: float = 1e-12) -> OracleReport:
    """Test-mode oracle: returns the reference minimizer of F regardless of
    policy or start, for verifying the reduction analysis independently of
    inner-solver quality."""
    x = reference_minimize(F, tol)
    return OracleReport(
        x_out=x, iterations=0, data_passes=0.0, final_stat=0.0, budget_used=0)

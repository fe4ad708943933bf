"""Inner solvers with the homogeneous-objective-decrease (HOOD) contract.

Each solver takes a strongly convex and smooth (Case1) objective and a
termination policy and returns an OracleReport.  Under TheoryBudget the
iteration counts are chosen so the solver's linear-rate bound guarantees the
objective gap shrinks by a factor of at least 4 (the HOOD contract); the
stochastic solvers provide that decrease in expectation only.

Every solver is called as

    oracle(F, x0, policy, *, seed=None, pass_cap=None, baseline=None,
           state=None)

where `baseline` is the statistic the practical policies measure their
decrease against.  A caller hands one in only when it was measured on the
same objective, or under PracticalGradThird (the previous call's
recorded_stat).  When it is None, PracticalGapQuarter takes the duality gap
of F at the input x0: SDCA's dual start, SVRG's first snapshot and the
first gradient of prox-GD and APG hold its pieces, so it costs no pass.
PracticalGradThird takes the first norm it records.  Policies carry no
state between calls.

`state` is the previous call's report.state, opaque to the caller.  A
report carries the pieces of its last duality gap when that gap was taken
at x_out: z = A x_out, alpha = f'(z) and g = A^T alpha / n.  They depend on
the data, the loss and the smoothing, not on psi, so a call whose x0 has
x_out's bytes and whose F shares those three starts from them: SDCA's dual
start, SVRG's first snapshot and the first gradient of prox-GD and APG are
those floats bit for bit, and cost no pass.  Any other state, None
included, is ignored, and the call pays for its start.

Each oracle keeps its books in one `_Run`, which holds the contract:
- budget: TheoryBudget runs the oracle's own certified step count,
  FixedIterations its k; under a practical policy there is none, and the
  policy, the pass cap or the statistic floor stops the run;
- `start(x0, state, first, reserve)` gives the pieces at the input, from
  `state` or for one pass, or None when the call may take no step: its
  start and, under the gap policy, its first segment of `first` steps and
  the check that ends it must fit under the cap, so that no step goes
  unjudged.  The gap policy without a baseline sets the gap at the input
  as one, from those pieces;
- `check(x, reserve)` pays one pass for the policy's statistic at x and
  records it, and says stop when the policy is met or that pass and
  `reserve` more would not fit under the cap; a free statistic (a gradient
  norm where the gradient is in hand) is recorded unpaid;
- `todo(most)` says how many stochastic steps, at most `most`, the budget
  and the cap leave, and `steps(draws, take, x, interval, between)` hands
  the draws to the step body `take` in segments ending at each check due
  every `interval` steps (counted across calls); a check costs a pass, so
  the draws left after it shrink to the room it leaves.  Under the gap
  policy every segment is held to the start's rule (`segment_fits`): it
  runs only when it and the check that ends it fit, so a gap-policy run
  always ends on a check, and its last recorded gap is x_out's;
- `finish(x, iterations, use_gap)` returns the report, after a budgeted run
  that took a step pays for its closing statistic (the duality gap or the
  gradient norm) if it fits under the cap.

Pass accounting: one full-gradient or statistic evaluation costs one pass
over the data; one stochastic step costs 1/n.  A gradient-norm statistic
evaluated at a point whose full gradient was just computed (SVRG snapshots,
prox-GD iterates) is free, and so is a start whose pieces are handed in as
`state`, and prox-GD's gradient at the point its gap check just took.
Counts are kept as integers (full passes and sample steps) so totals are
exact.

The SVRG and SDCA step loops run once per sample in Python, so they work on
lists, row views and d-float buffers made once per call and write x, v and
the step's terms in place, yet every float stays the one the vectorized
formulas give:
- a row that stores all d columns (`Dataset.step_rows` gives it indices
  None) takes a full-row body that reads and writes whole vectors, with no
  gather or scatter; any other row gathers and scatters its support.  Each
  element meets the same + - * / in the same order in both bodies and in
  the formula (IEEE + and * are commutative, so `rval * c` is `c * rval`),
  and writing a result into a buffer changes none of its bits;
- prox-SVRG moves x by eta (c a_i + mu) with c = f'(a_i x) - f'(a_i x~).
  Where f' is flat (the smoothed hinge off its ramp) c is often exactly
  zero: with c = +-0, c a_ij + mu_j is mu_j bit for bit but for the sign
  of a zero, and that sign reaches x only as a zero of x - v, which the
  step writes as +0.0 (the shrink's + 0.0 at tau None, taken right after
  x - v, or sign(-0.0) = 0 at tau > 0).  So such a step adds -mu eta with
  its zeros made +0.0, made once per snapshot: that is (x - mu eta) + 0.0
  bit for bit, since x - y is x + (-y) and a sum is -0.0 only when both
  terms are.  For the same reason a shift added after the + 0.0 makes no
  -0.0, so x keeps every bit;
- before it forms a_i x, a prox-SVRG step tests |a_i| D < dist_i: D bounds
  |x - x~| and is updated in O(1) a step, dist_i is how far a_i x may move
  from the snapshot margin with f' keeping its value, made in O(n) once
  per snapshot.  A step that passes has c exactly 0, so it takes the
  zero-coefficient body without the dot product or f'; `svrg_hood` holds
  the proof, rounding included;
- psi's prox and conjugate maximizer are `regularizers._shrink`, the one
  soft-threshold, on constants `prox_terms` and `conjugate_terms` compute
  once per call (at tau None the SVRG step and SDCA's support branch write
  its add of 0.0 inline); numpy takes an array operand faster than a
  Python float, so the constants a full row meets are d-float arrays,
  those the SDCA step meets on a row's support are 0-d arrays, and the
  step's own scalar delta/n is written into a 0-d array; `x.dot` stands in
  for `x @`, the same BLAS dot at less call cost;
- a scalar closed form stands in for a numpy call only where it needs
  nothing but + - * / and comparisons, which are exactly rounded; exp and
  log stay numpy calls, because math's differ in the last bit.  The one
  exception is the logistic SDCA coordinate, a safeguarded Newton solve on
  math.exp: no vectorized function fixes its bits, and numpy scalar calls
  would cost more than the 3 to 5 Newton steps it takes.  That loop calls
  no builtin: abs, min and max are written as the comparisons that give
  the same floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .data import Dataset
from .errors import ConfigError, NumericalError
from .objectives import Case, CompositeObjective
from .regularizers import _shrink

STAT_FLOOR = 1e-14   # policies stop unconditionally below this statistic
_ITER_GUARD = 10 ** 8  # hard safety limit on steps in one invocation
_NEWTON_CAP = 100     # Newton steps allowed to one logistic SDCA coordinate
_NEWTON_TOL = 1e-9    # relative size of the last Newton step taken
_TINY = 2.0 ** -1000  # covers rounding below the normal range (svrg_hood)
# the Newton coordinate solve's math functions, one name lookup a call
_exp, _log, _log1p, _nextafter = math.exp, math.log, math.log1p, math.nextafter


# ---------------------------------------------------------------------------
# termination policies
# ---------------------------------------------------------------------------

@dataclass
class TheoryBudget:
    """Run the solver-specific certified iteration count, then stop."""


@dataclass
class PracticalGapQuarter:
    """Stop when the duality gap falls below 1/4 of the baseline: the gap
    handed in by the caller, measured on the same objective, or else the
    gap at the call's input x0, so that each call cuts its own input gap
    by the factor.

    The gap is checked every ceil(n/3) stochastic steps, and at every
    iteration of the full-gradient solvers (ceil(n/3)/n rounds to at most 1).
    """

    factor = 0.25

    def interval(self, n: int) -> int:
        return max(1, math.ceil(n / 3))


@dataclass
class PracticalGradThird:
    """Stop when the gradient norm falls below 1/3 of the baseline: the
    norm the previous epoch recorded last, handed in by the caller (or the
    first norm recorded this epoch when there is none).

    The statistic is the norm of the gradient of the whole differentiable
    part (f plus psi's quadratic terms, never the l1 term): with a shifted
    quadratic in psi the f-gradient alone does not vanish at the minimizer,
    so the one-third rule would stall on it.  Nor does this norm where psi
    has an l1 term, so every oracle refuses that pairing.

    The norm is checked every 2n stochastic steps (SVRG's snapshot interval,
    where it is free) and every 2 iterations of the full-gradient solvers.
    """

    factor = 1.0 / 3.0

    def interval(self, n: int) -> int:
        return max(1, 2 * n)


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
_NEVER = 2 ** 62  # a step count no run reaches: no cap, or no statistic due


@dataclass
class OracleReport:
    x_out: np.ndarray
    iterations: int
    data_passes: float
    full_evals: int = 0
    sample_evals: int = 0
    recorded_stat: float | None = None  # last statistic recorded, if any
    # opaque: hand it to the next call as state= (see the module docstring)
    state: object = field(default=None, repr=False)

    @property
    def final_stat(self) -> float:
        """The last statistic recorded, clipped at 0 (0 when none was)."""
        if self.recorded_stat is None:
            return 0.0
        return max(float(self.recorded_stat), 0.0)


@dataclass(frozen=True, eq=False)
class _GapPieces:
    """An oracle's state: the pieces of a duality gap taken at the point
    whose bytes are `x`, with z = A x, alpha = f'(z) and g = A^T alpha / n
    on `data`, `loss` and `smoothing`.  Never written after it is made."""

    x: bytes
    data: Dataset
    loss: str
    smoothing: float | None
    z: np.ndarray
    alpha: np.ndarray
    g: np.ndarray

    def fits(self, F, x) -> bool:
        return (self.data is F.data and self.loss == F.loss
                and self.smoothing == F.smoothing and self.x == x.tobytes())

    @property
    def parts(self):
        return self.z, self.alpha, self.g


class _Run:
    """Bookkeeping for one oracle call: the step budget, pass counters, the
    practical policy's statistic checks against its baseline, and the pass
    cap.  `theory` is the oracle's TheoryBudget step count."""

    def __init__(self, F, policy, pass_cap, baseline, theory: int):
        if isinstance(policy, PracticalGradThird) and F.reg.l1 > 0.0:
            raise ConfigError(
                "PracticalGradThird's gradient norm leaves out the l1 term, "
                "so it does not vanish at the minimizer of an objective with "
                "l1 > 0; use PracticalGapQuarter")
        self.F = F
        self.n = max(F.n, 1)
        self.policy = policy if isinstance(policy, _PRACTICAL) else None
        self.gap_policy = isinstance(policy, PracticalGapQuarter)
        self.baseline = baseline if self.policy else None
        if isinstance(policy, TheoryBudget):
            self.budget = theory
        elif isinstance(policy, FixedIterations):
            self.budget = policy.k
        else:
            self.budget = None  # the policy, the cap or the floor stops it
        self.interval = self.policy.interval(self.n) if self.policy else _NEVER
        self.latest: float | None = None
        self.pass_cap = pass_cap
        self.full = 0
        self.samples = 0
        self.since = 0  # stochastic steps since the last check
        self.kept: _GapPieces | None = None  # the last gap's pieces

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
            return _NEVER
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

    def pieces(self, x):
        """(z, alpha, g) at x: the margins z = A x, alpha = f'(z) and the
        f-part gradient g = A^T alpha / n, for one pass.  F is Case1, so
        f' exists and the smoothness test before it is skipped."""
        self.full += 1
        return self.F._gradient_pieces(x, allow_subgradient=True)

    def gap(self, x, z, alpha, g) -> float:
        """The duality gap of F at x from its pieces; they are kept, and the
        report hands them on as its state when x is its output."""
        self.kept = _GapPieces(x.tobytes(), self.F.data, self.F.loss,
                               self.F.smoothing, z, alpha, g)
        return self.F._gap(x, z, alpha, -g)

    def start(self, x, state, first: int, reserve: int = 0):
        """The pieces at the input x, or None: the call takes no step.

        They are `state`'s when it was taken at x's bytes on F's data, loss
        and smoothing, at no pass, and else cost one.  The call steps only
        if its start and one step fit under the cap; under the gap policy,
        its first segment, `first` steps, and the check that ends it with
        its `reserve` must fit too, so that a run never ends on steps that
        no check has judged.  The gap policy without a baseline takes the
        gap at x from the pieces as its baseline."""
        free = state is not None and state.fits(self.F, x)
        full, samples = (0 if free else 1), min(first, 1)
        if self.gap_policy:
            full, samples = full + 1 + reserve, first
        if self.budget == 0 or not self.room_for(full=full, samples=samples):
            return None
        pieces = state.parts if free else self.pieces(x)
        if self.gap_policy and self.baseline is None:
            self.baseline = self.gap(x, *pieces)
        return pieces

    def segment_fits(self, full=0) -> bool:
        """Under the gap policy, whether the steps left to the next check,
        that check and `full` more passes fit under the cap, so that no
        step goes unjudged; always True under any other policy."""
        return not self.gap_policy or self.room_for(
            full=1 + full, samples=self.interval - self.since)

    def stat(self, x, use_gap: bool) -> float:
        """The duality gap or the gradient norm at x, for one pass."""
        if use_gap:
            return self.gap(x, *self.pieces(x))
        self.full += 1
        return self.F.grad_norm(x, include_quadratic_reg=True)

    def check(self, x, reserve=0) -> bool:
        """Pay one pass for the policy's statistic at x and record it; True
        means stop: the policy is met, or that pass and `reserve` more do
        not fit under the cap."""
        if not self.room_for(full=1 + reserve):
            return True
        return self.record(self.stat(x, self.gap_policy))

    def todo(self, most: int) -> int:
        """How many more stochastic steps, at most `most`, the budget and
        the cap leave (0 or less: none)."""
        todo = min(most, self.sample_room())
        if self.budget is not None:
            todo = min(todo, self.budget - self.samples)
        return todo

    def steps(self, draws: list, take, x, interval: int,
              between: int = 0) -> bool:
        """Hand the draws to `take` in segments ending at each check due
        every `interval` steps, checking the statistic at x, which `take`
        moves; after a check the draws left shrink to the room it leaves.
        Under the gap policy a segment runs only when it and its check fit,
        with `between` passes more when it goes on past these draws (the
        caller's pay before its next draws).  True means stop: a check said
        so, or a segment did not fit."""
        while draws:
            cut = interval - self.since
            if not self.segment_fits(between if cut > len(draws) else 0):
                return True
            segment, draws = draws[:cut], draws[cut:]
            take(segment)
            self.samples += len(segment)
            self.since += len(segment)
            if self.since == interval:
                self.since = 0
                if self.check(x):
                    return True
                del draws[self.sample_room():]
        return False

    def finish(self, x, iterations, use_gap=False) -> OracleReport:
        """The report.  A budgeted run that took a step first pays for its
        closing statistic, the duality gap or the gradient norm, if it fits."""
        if self.budget is not None and iterations > 0 and self.room_for(full=1):
            self.latest = self.stat(x, use_gap)
        x_out = np.asarray(x, dtype=float)
        kept = self.kept
        if kept is not None and kept.x != x_out.tobytes():
            kept = None  # taken before the last steps
        return OracleReport(
            x_out=x_out,
            iterations=iterations,
            data_passes=self.passes,
            full_evals=self.full,
            sample_evals=self.samples,
            recorded_stat=self.latest,
            state=kept,
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


# ---------------------------------------------------------------------------
# deterministic full-gradient solvers
# ---------------------------------------------------------------------------

def _apg_theory(L: float, sigma: float) -> int:
    """APG's TheoryBudget count, from the gap bound 2 (1 - sqrt(sigma/L))^k."""
    return max(1, math.ceil(math.log(8.0) * math.sqrt(L / sigma)))


def _prox_gradient(F, x0, policy, pass_cap, baseline, state, momentum: bool):
    """The prox-gradient loop at step 1/L, with APG's momentum or none.

    Without momentum y is x, and the gradient-norm statistic reuses the
    step's gradient at x, free, as the next gradient reuses the gap check's
    pieces at x, free; with it, statistics are taken at x and paid.
    Statistics are due every round(interval/n) iterations.  The first
    gradient is the start's: its pieces at x0 = y."""
    who = "apg_hood" if momentum else "prox_gd_hood"
    _require_case1(F, who)
    L, sigma = F.smoothness, F.strong_convexity
    if L <= 0.0:
        L = sigma  # constant f: any positive step; prox does all the work
    beta = 0.0
    if momentum:
        theory = _apg_theory(L, sigma)
        if L > sigma:
            rL, rS = math.sqrt(L), math.sqrt(sigma)
            beta = (rL - rS) / (rL + rS)
    else:
        theory = max(1, math.ceil(math.log(4.0) * L / sigma))
    run = _Run(F, policy, pass_cap, baseline, theory)
    check_every = max(1, round(run.interval / run.n))
    free_norm = not momentum and isinstance(run.policy, PracticalGradThird)

    x = np.array(x0, dtype=float)
    # the first segment is one iteration; it, its check and a pass more
    # must fit
    pieces = run.start(x, state, 0, reserve=1)
    y = x
    it = 0
    while pieces is not None and (run.budget is None or it < run.budget):
        if it > _ITER_GUARD:
            raise NumericalError(f"{who} exceeded the iteration guard")
        due = it > 0 and it % check_every == 0
        if it > 0:
            # a gap check was reserved by the one before it, and the run
            # steps on from it only if the next gradient and the next check
            # fit; the gradient is free at y = x, from the check's pieces.
            # A paid gradient-norm check reserves the next gradient
            gap = run.gap_policy
            if due and not free_norm and run.check(x, reserve=0 if gap else 1):
                break
            reuse = gap and y is x
            if not run.room_for(full=(0 if reuse else 1) + (1 if gap else 0)):
                break
            pieces = run.kept.parts if reuse else run.pieces(y)
        g = pieces[2]
        # free: reuses g at y = x, adds only psi's closed-form gradient
        if due and free_norm and run.record(
                np.linalg.norm(g + F.reg.differentiable_gradient(x))):
            break
        x_new = F.prox(y - g / L, 1.0 / L)
        y = x_new + beta * (x_new - x) if momentum else x_new
        x = x_new
        it += 1
    return run.finish(x, it)


def prox_gd_hood(F, x0, policy, *, seed=None, pass_cap=None,
                 baseline=None, state=None) -> OracleReport:
    """Proximal gradient descent with step 1/L.

    TheoryBudget runs ceil(ln(4) L/sigma) iterations: each step contracts
    the distance to the minimizer by 1/(1 + sigma/L) and the objective gap
    by its square on quadratics, so the gap drops by a factor >= 4 within
    the budget.  `seed` is accepted for interface uniformity and ignored.
    """
    return _prox_gradient(F, x0, policy, pass_cap, baseline, state,
                          momentum=False)


def apg_hood(F, x0, policy, *, seed=None, pass_cap=None,
             baseline=None, state=None) -> OracleReport:
    """Accelerated proximal gradient with fixed strong-convexity momentum
    (sqrt(L) - sqrt(sigma)) / (sqrt(L) + sqrt(sigma)).

    TheoryBudget runs ceil(ln(8) sqrt(L/sigma)) iterations, from the
    objective-gap rate bound 2 (1 - sqrt(sigma/L))^k.  Gradients are taken
    at the extrapolated point y; statistics are evaluated at the primal
    iterate x (one extra pass each).
    """
    return _prox_gradient(F, x0, policy, pass_cap, baseline, state,
                          momentum=True)


# ---------------------------------------------------------------------------
# SVRG
# ---------------------------------------------------------------------------

def svrg_hood(F, x0, policy, *, seed=None, pass_cap=None,
              baseline=None, state=None) -> OracleReport:
    """Prox-SVRG: full-gradient snapshot every m inner steps, variance
    reduced stochastic prox steps at eta = 1/L, next snapshot taken at the
    last inner iterate.

    Snapshot loss derivatives are cached, so an inner step evaluates one
    fresh derivative (1/n of a pass).  TheoryBudget takes one snapshot and
    runs m = ceil(8 L/sigma) steps at eta = 1/L; the prox-SVRG contraction
    bound certifies only eta < 1/(4L), so not this budget.  Outside
    TheoryBudget m = 2n, the gradient-norm policy's interval: its statistic
    is taken at each snapshot, free, since the snapshot gradient is in hand.

    A step whose variance-reduced coefficient c = f'(a_i x) - f'(a_i x~) is
    zero, of either sign, adds -mu*eta with its zeros made +0.0, made once
    per snapshot, and skips c*a_i and the + 0.0: it gives every bit of the
    full step (see the module docstring), since that step's v differs from
    mu*eta only in the signs of zeros, and (x - v) + 0.0 writes every zero
    of x - v as +0.0.

    Before it computes a_i x, a step asks whether a proven bound keeps that
    margin where f' has the value d~_i it has at the snapshot margin z~_i;
    then c is exactly 0, and the step takes the zero-coefficient body
    without the dot product or f'.  The test is |a_i| D < dist_i, with D a
    running bound on |x - x~| and dist_i made once per snapshot.  The proof
    (u = 2^-53, d = dim, |.| the 2-norm, rounding to nearest):

    1. Room: every float z within e_i = F.flat_room(z~)_i of z~_i gives f'
       the value it gives z~_i (`losses.flat_room` proves it), which is d~_i
       bit for bit, so c = 0.  e_i < 0 on the smoothed hinge's ramp, and
       -inf for squared and logistic loss.
    2. Margins: a dot product of a row's stored entries, summed in any
       order, errs by at most gamma_d |a_i| |x|, gamma_d = d u/(1 - d u)
       (Higham 2002, eq. 3.5), plus d 2^-1075 below the normal range.  The
       step's a_i x and the snapshot's matvec are two such sums, and
       |x| <= |x~| + D, so |z - z~_i| <= |a_i| D (1 + gamma_d)
       + 2 gamma_d |a_i| |x~| + 2^-1000.
    3. One step: with the computed constants, P(y) = shrink(y + shift,
       tau)/scale is 1/scale-Lipschitz, as the shrink is nonexpansive, and
       scale >= 1.  Each element of the computed step meets at most 7
       roundings (c a_ij, + mu_j, * eta, x_j -, + shift_j, - tau, / scale),
       so the computed x+ = P(x - eta (c a_i + mu)) + e with |e| <= 8u (|x|
       + eta |c| |a_i| + eta |mu| + |shift| + tau sqrt(d)) + 2^-1000; the
       zero-coefficient body has fewer roundings.
    4. The bound: by 3, |x+ - x~| <= (|x - x~| + eta |c| |a_i|)/scale + G
       + |e|, with G = |P(x~ - eta mu) - x~|.  So D = 0 at the snapshot and
       D+ = (D + eta |c| |a_i|) (1/scale + 8u) + H after each step, c = 0
       on a skipped one, keep D >= |x - x~|, where H = G + 8u R + 2^-1000
       and R = |x~| + eta |mu| + |shift| + tau sqrt(d).  G is at most the
       computed |x1 - x~| of x1, the computed first zero-coefficient step
       from x~, plus that step's own |e|: hence 16u R + 2^-999 in H.
    5. Floats: a computed norm errs by at most (d/2 + 2)u relative and each
       formula above adds at most 4 roundings.  g = 8(d + 8)u exceeds twice
       their sum, so the factor 1 + g on eta |a_i|, on 1/scale + 8u and on
       H keeps the computed D above the real bound of 4, and
       dist_i = (1 - g) e_i - g |a_i| |x~| - 2^-1000 makes fl(|a_i| D) <
       dist_i imply the inequality of 2 within e_i.  The absolute 2^-1000
       terms cover rounding below the normal range.  A NaN or an infinity
       in x~ or D makes the test false.
    """
    _require_case1(F, "svrg_hood")
    if F.n < 1:
        raise ConfigError("svrg_hood needs a finite-sum objective with n >= 1")
    L, sigma = F.smoothness, F.strong_convexity
    if L <= 0.0:
        L = sigma  # all-zero rows: the step of _prox_gradient's constant f
    eta = 1.0 / L
    n = F.n
    m = max(1, math.ceil(8.0 * L / sigma))
    run = _Run(F, policy, pass_cap, baseline, m)
    if not isinstance(policy, TheoryBudget):
        m = 2 * n
    gap_every = run.interval if run.gap_policy else _NEVER
    rng = _rng(seed)

    rows = F.data.step_rows()
    labels = F.data.labels.tolist()
    deriv = F.scalar_deriv
    flat_room = F.flat_room
    shift, tau, scale = F.reg.prox_terms(eta)
    # constants as arrays: numpy 2 takes them faster than Python floats
    etas, scales, zeros = (np.full(F.dim, c) for c in (eta, scale, 0.0))
    taus = None if tau is None else np.full(F.dim, tau)
    x = np.array(x0, dtype=float)
    v = np.empty(F.dim)  # eta times the variance-reduced gradient
    t = np.empty(F.dim)  # the prox's scratch
    # the skip test's terms (see the docstring): the row norms, and eta
    # |a_i| and the bound's factor per step, rounded up by 1 + g
    g = (F.dim + 8) * 2.0 ** -50
    norms = np.sqrt(F.data.row_sq_norms())
    norm_list = norms.tolist()
    step_list = (eta * (1.0 + g) * norms).tolist()
    rho = (1.0 / scale + 2.0 ** -50) * (1.0 + g)
    fixed = ((0.0 if shift is None else float(np.linalg.norm(shift)))
             + (0.0 if tau is None else tau * math.sqrt(F.dim)))
    D = 0.0  # the bound on |x - x~|

    def take(segment):
        nonlocal D
        for i in segment:
            if norm_list[i] * D < dist[i]:
                c = 0.0  # proven: a_i x keeps f' on a_i x~'s flat piece
            else:
                ridx, rval = rows[i]
                z = float(rval.dot(x) if ridx is None else rval.dot(x[ridx]))
                c = deriv(z, labels[i]) - d_list[i]
            if c == 0.0:
                np.add(x, mu_eta_neg, x)  # (x - mu eta) + 0.0, bit for bit
                D = D * rho + H
            else:
                if ridx is None:
                    np.multiply(rval, c, v)
                    np.add(v, mu, v)
                else:
                    np.copyto(v, mu)
                    v[ridx] += c * rval
                np.multiply(v, etas, v)
                np.subtract(x, v, x)
                if taus is None:
                    np.add(x, zeros, x)  # _shrink's +0.0 at tau None
                D = (D + (c if c > 0.0 else -c) * step_list[i]) * rho + H
            if shift is not None:
                np.add(x, shift, x)
            if taus is not None:
                _shrink(x, taus, zeros, t, x)
            np.divide(x, scales, x)

    snapshot = run.start(x, state, run.interval)  # the first, at x0
    while snapshot is not None:
        z_tilde, d_tilde, mu = snapshot
        mu_eta = mu * etas
        # the step of every draw whose c is zero, its zeros made +0.0
        mu_eta_neg = np.add(np.negative(mu_eta), zeros)
        if isinstance(run.policy, PracticalGradThird) and run.record(
                np.linalg.norm(mu + F.reg.differentiable_gradient(x))):
            break
        todo = run.todo(m)
        if todo <= 0:
            break
        d_list = d_tilde.tolist()
        # the skip test's snapshot terms: each row's proven room less the
        # dot products' rounding, and H, the bound's growth per step; an
        # infinity or NaN in x makes them NaN or infinite, so no step skips
        with np.errstate(invalid="ignore", over="ignore"):
            xn = float(np.linalg.norm(x))
            dist = ((1.0 - g) * flat_room(z_tilde) - g * xn * norms
                    - _TINY).tolist()
            drift = float(np.linalg.norm(F.reg.prox(x + mu_eta_neg, eta) - x))
            H = (drift + 2.0 ** -49 * (xn + float(np.linalg.norm(mu_eta))
                                       + fixed) + 2.0 * _TINY) * (1.0 + g)
        D = 0.0
        draws = rng.integers(0, n, size=m)[:todo].tolist()
        # a segment that runs past these draws pays for the next snapshot
        if run.steps(draws, take, x, gap_every, between=1):
            break
        if run.budget is not None and run.samples >= run.budget:
            break
        if run.samples > _ITER_GUARD:
            raise NumericalError("svrg_hood exceeded the iteration guard")
        if not run.room_for(full=1, samples=1) or not run.segment_fits(1):
            break
        snapshot = run.pieces(x)
    return run.finish(x, run.samples)


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

    Logistic runs Newton in the logit of -s/b from alpha_i's, with math.exp:
    s lands within about 1e-15 |b| of the root, not on every last bit (the
    module's one exception).  No convergence in _NEWTON_CAP steps raises.
    """
    if kind == "squared":
        return (z - b + q * alpha_i) / (1.0 + lam + q)
    if b == 0.0:
        return 0.0  # the conjugate's domain is the single point 0
    if kind == "hinge":
        if lam + q <= 0.0:
            return -b  # zero row, unsmoothed: dual is linear, pick its argmax
        s = (z - 1.0 / b + q * alpha_i) / (lam + q)
        # s clamped into the box between -b and 0 by the comparisons that
        # give min(max(s, lo), hi)'s float, NaN and -0.0 included (b is
        # finite and nonzero, so one end is -b and the other 0.0)
        if b > 0.0:
            return -b if s < -b else (0.0 if s > 0.0 else s)
        return 0.0 if s < 0.0 else (-b if s > -b else s)
    # logistic: in the logit t of -s/b the condition is g(t) = 0 with
    # g(t) = t - r + w sigmoid(t), g' >= 1, and its root lies in [r - w, r].
    # The bracket's ends sit one ulp outside, so a root that rounds onto one
    # is reachable; a point already evaluated never is again (no 2-cycles).
    # No builtin is called: each conditional below gives the float that
    # abs, min or max gives, NaN included (a comparison with NaN is false).
    w = (lam + q) * b * b
    r = -b * (z + q * alpha_i)
    r_lo = r - w
    lo, hi = _nextafter(r_lo, -math.inf), _nextafter(r, math.inf)
    u = -alpha_i / b
    if 0.0 < u < 1.0:
        t = _log(u) - _log1p(-u)  # alpha_i's logit, clamped into [r_lo, r]
        if t < r_lo:
            t = r_lo
        if t > r:
            t = r
    else:
        t = r - 0.5 * w
    for _ in range(_NEWTON_CAP):
        # e = exp(-|t|) and g = t - r + w sigmoid(t) on either side of 0
        if t >= 0.0:
            e = _exp(-t)
            d = 1.0 + e
            g = t - r + w * (1.0 / d)
            tol = _NEWTON_TOL * t if t > 1.0 else _NEWTON_TOL
        else:
            e = _exp(t)
            d = 1.0 + e
            g = t - r + w * (e / d)
            tol = _NEWTON_TOL * -t if t < -1.0 else _NEWTON_TOL
        if g < 0.0:
            lo = t
        else:
            hi = t
        step = g / (1.0 + w * e / (d * d))
        t_new = t - step
        if -tol <= step <= tol:
            t = t_new
            break
        if t * t_new < 0.0:
            # g is convex left of 0 and concave right of it, so Newton from
            # 0 closes in on the root from one side, never overshooting
            t_new = 0.0
        t = t_new if lo < t_new < hi else 0.5 * (lo + hi)
    else:
        raise NumericalError(
            f"logistic SDCA Newton: no convergence in {_NEWTON_CAP} steps"
            f" (b={b!r}, lam={lam!r}, alpha_i={alpha_i!r}, z={z!r}, q={q!r})")
    if t >= 0.0:
        return -b * (1.0 / (1.0 + _exp(-t)))
    e = _exp(t)
    return -b * (e / (1.0 + e))


def _sdca_sweeper(F, lam, alpha, v, x):
    """A function that takes exact coordinate steps on a list of rows, in
    order.  Each step maximizes the lam-smoothed dual in alpha[i] and moves
    v = -(1/n) sum_i alpha_i a_i and x = psi's conjugate maximizer at v on
    row i's support only (psi is separable).  The caller's alpha (a list),
    v and x are updated in place."""
    n = F.n
    rows = F.data.step_rows()
    labels = F.data.labels.tolist()
    q = (F.data.row_sq_norms() / (F.strong_convexity * n)).tolist()
    loss = F.loss
    shift, sigma, tau = F.reg.conjugate_terms()
    # constants as arrays, which numpy 2 takes faster than Python floats:
    # d floats for a full row, 0-d for a row's support; delta/n is written
    # into its 0-d array at each step
    sigmas, zeros = np.full(F.dim, sigma), np.zeros(F.dim)
    taus = None if tau is None else np.full(F.dim, tau)
    sigma0, zero0, dn = np.array(sigma), np.zeros(()), np.zeros(())
    tau0 = None if tau is None else np.array(tau)
    t = np.empty(F.dim)  # a full row's step, then the shrink's scratch

    def sweep(indices):
        for i in indices:
            ridx, rval = rows[i]
            z = float(rval.dot(x) if ridx is None else rval.dot(x[ridx]))
            s = _sdca_coordinate(loss, labels[i], lam, alpha[i], z, q[i])
            delta = s - alpha[i]
            if delta == 0.0:
                continue
            alpha[i] = s
            dn[()] = delta / n
            if ridx is None:
                np.multiply(rval, dn, t)
                np.subtract(v, t, v)
                if shift is None:
                    np.divide(v, sigmas, x)
                else:
                    np.add(v, shift, x)
                    np.divide(x, sigmas, x)
                _shrink(x, taus, zeros, t, x)
            else:
                step = np.multiply(rval, dn)
                vi = v[ridx]
                np.subtract(vi, step, vi)
                v[ridx] = vi
                if shift is not None:
                    vi += shift[ridx]
                np.divide(vi, sigma0, vi)
                if tau is None:
                    np.add(vi, zero0, vi)  # _shrink at tau = 0
                else:
                    _shrink(vi, tau0, zero0, step, vi)
                x[ridx] = vi

    return sweep


def sdca_hood(F, x0, policy, *, seed=None, pass_cap=None,
              baseline=None, state=None) -> OracleReport:
    """Proximal stochastic dual coordinate ascent with exact per-coordinate
    maximization (the steepest, automatic choice).

    Dual variables start at the loss derivatives of x0's margins (one pass,
    or none from a fitting `state`); the primal iterate is psi's conjugate
    maximizer at v = -(1/n) sum_i alpha_i a_i, both updated on the sampled
    row's support only.
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
    run = _Run(F, policy, pass_cap, baseline,
               max(1, math.ceil(n + F.smoothness / sigma)))
    rng = _rng(seed)
    x0 = np.array(x0, dtype=float)
    start = run.start(x0, state, run.interval)
    if start is None:
        return run.finish(x0, 0)

    # the duals start at the loss derivatives of x0's margins; the sweep
    # writes its own list of them and its own v = -g, so the pieces stay
    _, alpha, g = start
    v = -g
    x = F.reg.conjugate_argmax(v)
    sweep = _sdca_sweeper(F, 0.0 if F.smoothing is None else F.smoothing,
                          alpha.tolist(), v, x)

    while run.budget is None or run.samples < run.budget:
        if run.samples > _ITER_GUARD:
            raise NumericalError("sdca_hood exceeded the iteration guard")
        todo = run.todo(4096)
        if todo <= 0:
            break
        chunk = rng.integers(0, n, size=todo).tolist()
        if run.steps(chunk, sweep, x, run.interval):
            break  # a check ran, so the policy is practical: no budget
    return run.finish(x, run.samples, use_gap=True)


# ---------------------------------------------------------------------------
# high-accuracy reference
# ---------------------------------------------------------------------------

_REFERENCE_ITER_CAP = 10 ** 7


def reference_minimize(F: CompositeObjective, tol: float = 1e-12) -> np.ndarray:
    """High-accuracy minimizer of a Case1 objective: APG in rounds until the
    duality gap is at most tol.  Uncached: `references.base_reference`
    keeps the one in-process cache of reference minimizers.
    """
    _require_case1(F, "reference_minimize")
    L, sigma = F.smoothness, F.strong_convexity
    chunk = max(25, _apg_theory(max(L, sigma), sigma))
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
    return np.asarray(x, dtype=float)

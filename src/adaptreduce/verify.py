"""Independent verification oracles and analysis-inequality checks.

The brute-force functions recompute smoothing/conjugacy by direct grid
maximization so the closed forms in `losses`/`regularizers` can be tested
against something that shares no code with them.  `quadratic_reference`
supplies exact minimizers for solver certification.  `verify_bound` runs a
reduction over `exact_oracle` (every epoch solved to machine tolerance by a
certified reference), records each epoch's initial gap D_t in its wrapper of
that oracle, and measures each inequality the adaptive analysis promises,
returning per-epoch pass/fail records.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .losses import ScalarLoss, loss_conjugate, loss_value
from .objectives import CompositeObjective
from .reductions import HALVING, ReductionParams, adapt_reg, adapt_smooth, joint_adapt
from .references import base_reference
from .regularizers import Regularizer
from .solvers import OracleReport

CHECK_NAMES = (
    "adaptreg-final-bound",
    "adaptreg-recursion",
    "adaptreg-distance",
    "adaptsmooth-final-bound",
    "adaptsmooth-recursion",
    "adaptsmooth-d0",
    "joint-final-bound",
    "joint-recursion",
    "joint-distance",
)

# distance non-expansion is checked at a tighter tolerance than the value
# inequalities, per its statement
_DISTANCE_TOL = 1e-9


@dataclass(frozen=True)
class BoundCheck:
    label: str
    lhs: float
    rhs: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + self.tol

    @property
    def slack(self) -> float:
        """rhs - lhs; negative means the inequality is violated by |slack|."""
        return self.rhs - self.lhs


@dataclass(frozen=True)
class BoundReport:
    name: str
    checks: tuple[BoundCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = [f"{self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            mark = "ok " if c.passed else "BAD"
            lines.append(f"  {mark} {c.label}: lhs={c.lhs:.6e} rhs={c.rhs:.6e} "
                         f"slack={c.slack:.3e}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    k = max(1, int(math.ceil((hi - lo) / step)))
    return np.linspace(lo, hi, k + 1)


def brute_force_smoothed(loss: ScalarLoss, lam: float, z: float,
                         grid_step: float = 1e-5) -> float:
    """max over a beta-grid of beta*z - conj(beta) - lam/2 beta^2.

    Grid restricted to the conjugate domain (bracketed for the squared loss,
    whose domain is the whole line).  Never calls the closed-form smoothing.
    """
    if grid_step <= 0.0:
        raise ConfigError("grid_step must be positive")
    lo, hi = loss.conjugate_domain()
    if math.isinf(lo) or math.isinf(hi):
        width = abs(z) + abs(loss.b) + 10.0
        lo, hi = -width, width
    if lo > hi:
        raise ConfigError("empty conjugate domain")
    if hi - lo < grid_step:
        betas = np.array([lo, 0.5 * (lo + hi), hi])
    else:
        betas = _grid(lo, hi, grid_step)
    vals = (betas * z - loss_conjugate(loss.kind, betas, loss.b)
            - 0.5 * lam * betas * betas)
    return float(vals.max())


def brute_force_conjugate(loss: ScalarLoss, beta: float,
                          half_width: float = 60.0,
                          grid_step: float = 1e-4) -> float:
    """sup over a z-grid of beta*z - loss(z), with one refinement pass."""
    lo, hi = -half_width, half_width
    for _ in range(3):
        zs = _grid(lo, hi, grid_step)
        vals = beta * zs - loss_value(loss.kind, zs, loss.b)
        j = int(np.argmax(vals))
        lo = zs[max(0, j - 1)]
        hi = zs[min(len(zs) - 1, j + 1)]
        grid_step = max((hi - lo) / 400.0, 1e-13)
    return float(vals[j])


def brute_force_reg_conjugate(reg: Regularizer, u: np.ndarray,
                              half_width: float = 60.0,
                              grid_step: float = 1e-4) -> float:
    """Coordinate-separable sup of <u, x> - psi(x) by per-coordinate grids."""
    u = np.asarray(u, dtype=float)
    total = 0.0
    sw = reg.shift_weight
    for j, uj in enumerate(u):
        cj = reg.shift_center[j] if sw > 0.0 else 0.0
        lo, hi = -half_width, half_width
        step = grid_step
        best = -np.inf
        for _ in range(3):
            xs = _grid(lo, hi, step)
            vals = (uj * xs - reg.l1 * np.abs(xs) - 0.5 * reg.l2 * xs * xs
                    - 0.5 * sw * (xs - cj) ** 2)
            k = int(np.argmax(vals))
            best = float(vals[k])
            lo = xs[max(0, k - 1)]
            hi = xs[min(len(xs) - 1, k + 1)]
            step = max((hi - lo) / 400.0, 1e-13)
        total += best
    return total - reg.const


def quadratic_reference(Q: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimizer and value of 1/2 x'Qx - b'x for PD symmetric Q."""
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.linalg.eigvalsh(Q).min() <= 0.0:
        raise ConfigError("quadratic_reference requires a positive definite matrix")
    x = np.linalg.solve(Q, b)
    return x, float(-0.5 * (b @ x))


def exact_oracle(F: CompositeObjective, x0, policy=None, *, seed=None,
                 pass_cap=None, baseline=None) -> OracleReport:
    """Test-mode oracle: returns the reference minimizer of F regardless of
    policy or start, for verifying the reduction analysis independently of
    inner-solver quality."""
    return OracleReport(x_out=base_reference(F), iterations=0,
                        data_passes=0.0, final_stat=0.0, budget_used=0)


# ---------------------------------------------------------------------------
# analysis-inequality verification
# ---------------------------------------------------------------------------

def verify_bound(name: str, F: CompositeObjective, x0, T: int, *,
                 sigma0: float | None = None, lam0: float | None = None,
                 slack: float = 1e-7) -> BoundReport:
    """Run the reduction matching `name` with exact per-epoch minimization and
    measure the named inequality at tolerance `slack` (distance checks use
    1e-9).  Defaults sigma0 = delta/theta, lam0 = delta/G^2 are measured from
    a certified reference minimizer of F itself."""
    if name not in CHECK_NAMES:
        raise ConfigError(f"unknown bound check {name!r}; expected one of {CHECK_NAMES}")
    if T < 0:
        raise ConfigError("T must be nonnegative")
    if T == 0:
        return BoundReport(name, (BoundCheck("T=0 degenerate (output is x0)",
                                             0.0, 0.0, slack),))

    x0 = np.array(x0, dtype=float)
    x_star = base_reference(F)
    F_star = F.full_value(x_star)
    delta = F.full_value(x0) - F_star
    theta = float(np.sum((x0 - x_star) ** 2))
    G = F.lipschitz_G

    family = name.split("-")[0]
    if family in ("adaptreg", "joint") and sigma0 is None:
        if theta <= 0.0:
            raise ConfigError("x0 is already optimal; cannot derive sigma0")
        sigma0 = delta / theta
    if family in ("adaptsmooth", "joint") and lam0 is None:
        if math.isinf(G):
            raise ConfigError("lam0 underivable: loss Lipschitz constant is infinite")
        lam0 = delta / (G * G)

    params = ReductionParams(sigma0=sigma0, lam0=lam0, T=T,
                             delta=delta, theta=theta, G=G)

    D: list[float] = []  # each epoch's F_t(warm start) - F_t(x_t*)

    def oracle(F_t, x, policy, **kwargs):
        report = exact_oracle(F_t, x, policy, **kwargs)
        D.append(F_t.full_value(x) - F_t.full_value(report.x_out))
        return report

    reduce_fn = {"adaptreg": adapt_reg, "adaptsmooth": adapt_smooth,
                 "joint": joint_adapt}[family]
    x_hat, records = reduce_fn(F, oracle, x0, params, None)

    checks: list[BoundCheck] = []
    if name.endswith("final-bound"):
        lhs = F.full_value(x_hat) - F_star
        rhs = delta / 4.0 ** T
        sigma_T = (sigma0 / HALVING ** T) if sigma0 is not None else 0.0
        lam_T = (lam0 / HALVING ** T) if lam0 is not None else 0.0
        if family == "adaptreg":
            rhs += 4.5 * sigma_T * theta
        elif family == "adaptsmooth":
            rhs += 2.5 * lam_T * G * G
        else:
            rhs += 4.5 * lam_T * G * G + 4.5 * sigma_T * theta
        checks.append(BoundCheck(f"T={T} final suboptimality", float(lhs),
                                 float(rhs), slack))
    elif name.endswith("recursion"):
        for t in range(1, len(records)):
            rhs = D[t - 1] / 4.0
            if family == "adaptreg":
                rhs += 2.0 * records[t].sigma_t * theta
            elif family == "adaptsmooth":
                rhs += records[t - 1].lambda_t * G * G / 2.0
            else:
                rhs += (2.0 * records[t].sigma_t * theta
                        + 2.0 * records[t].lambda_t * G * G)
            checks.append(BoundCheck(f"t={t} epoch recursion", float(D[t]),
                                     float(rhs), slack))
        if not checks:
            checks.append(BoundCheck("T=1: no recursion steps", 0.0, 0.0, slack))
    elif name == "adaptreg-distance":
        r0 = math.sqrt(theta)
        for rec in records:
            lhs = float(np.linalg.norm(rec.x_hat - x_star))
            checks.append(BoundCheck(f"t={rec.t} distance non-expansion",
                                     lhs, r0, _DISTANCE_TOL))
    elif name == "joint-distance":
        for rec in records:
            dist_sq = float(np.sum((rec.x_hat - x_star) ** 2))
            lhs = 0.5 * rec.sigma_t * dist_sq
            rhs = 0.5 * rec.sigma_t * theta + 0.5 * rec.lambda_t * G * G
            checks.append(BoundCheck(f"t={rec.t} weighted distance", lhs,
                                     float(rhs), slack))
    elif name == "adaptsmooth-d0":
        rhs = delta + 0.5 * records[0].lambda_t * G * G
        checks.append(BoundCheck("t=0 initial gap bound", float(D[0]),
                                 float(rhs), slack))
    return BoundReport(name, tuple(checks))

"""Analysis-inequality checks over an exact oracle.

`verify_bound` runs a reduction over `exact_oracle` (every epoch solved to
machine tolerance by a certified reference), records each epoch's initial
gap D_t in its wrapper of that oracle, and measures each inequality the
adaptive analysis promises, returning per-epoch pass/fail records.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .objectives import CompositeObjective
from .reductions import HALVING, ReductionParams, adapt_reg, adapt_smooth, joint_adapt
from .references import base_reference
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


def exact_oracle(F: CompositeObjective, x0, policy=None, *, seed=None,
                 pass_cap=None, baseline=None, state=None) -> OracleReport:
    """Test-mode oracle: returns the reference minimizer of F regardless of
    policy, start or state, for verifying the reduction analysis
    independently of inner-solver quality."""
    return OracleReport(x_out=base_reference(F), iterations=0,
                        data_passes=0.0)


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

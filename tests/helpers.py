"""Test-only reference computations that share no code with the closed
forms they check.

The brute-force functions recompute smoothing and conjugacy by direct grid
maximization, so the closed forms in `adaptreduce.losses` and
`adaptreduce.regularizers` can be tested against something independent;
`ScalarLoss` is the one-term loss they take.  `quadratic_reference` gives
exact minimizers of quadratics for solver certification, `plain_svrg`
and `plain_sdca` are prox-SVRG and SDCA by their formulas, one step at a
time, and `full_sweep_svm_reference` is the Case3 reference whose warm-up
sweeps every row in every epoch.
"""
import math
from dataclasses import dataclass

import numpy as np

from adaptreduce import (ConfigError, NumericalError, Regularizer,
                         conjugate_domain, loss_conjugate, loss_deriv,
                         loss_lipschitz, loss_smoothness, loss_value,
                         references, smoothed_deriv)
from adaptreduce.losses import _check_kind
from adaptreduce.solvers import _rng, _sdca_coordinate, _sdca_sweeper


@dataclass(frozen=True)
class ScalarLoss:
    """One loss term f(z) with its label b."""

    kind: str
    b: float = 1.0

    def __post_init__(self):
        _check_kind(self.kind)

    def value(self, z: float) -> float:
        return float(loss_value(self.kind, z, self.b))

    def subgradient(self, z: float) -> float:
        return float(loss_deriv(self.kind, z, self.b))

    def conjugate(self, beta: float) -> float:
        return float(loss_conjugate(self.kind, beta, self.b))

    def conjugate_domain(self) -> tuple[float, float]:
        return conjugate_domain(self.kind, self.b)

    @property
    def lipschitz(self) -> float:
        return float(loss_lipschitz(self.kind, self.b))

    @property
    def smoothness(self) -> float:
        return float(loss_smoothness(self.kind, self.b))


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


def plain_svrg(F, x0, steps: int, seed):
    """x after `steps` prox-SVRG steps, and each step's row i and
    coefficient c, as `svrg_hood` runs them under FixedIterations (a
    snapshot every 2n steps, the same draws), but by the formula: every
    step takes a_i x over the row's stored entries, calls the vector
    derivative for c = f'(a_i x) - f'(a_i x~), and `Regularizer.prox` on
    x - eta (c a_i + mu)."""
    L = F.smoothness if F.smoothness > 0.0 else F.strong_convexity
    eta = 1.0 / L
    rng = _rng(seed)
    b = F.data.labels
    x = np.array(x0, dtype=float)
    taken = []
    while len(taken) < steps:
        d_tilde = F.loss_derivs(F.margins(x))
        mu = F.full_gradient(x)
        left = steps - len(taken)
        for i in rng.integers(0, F.n, size=2 * F.n)[:left].tolist():
            idx, val = F.data.row(i)
            z = float(val @ x[idx])
            d = (loss_deriv(F.loss, z, b[i]) if F.smoothing is None
                 else smoothed_deriv(F.loss, z, b[i], F.smoothing))
            c = float(d) - float(d_tilde[i])
            a = np.zeros(F.dim)
            a[idx] = val
            x = F.reg.prox(x - (c * a + mu) * eta, eta)
            taken.append((i, c))
    return x, taken



def plain_sdca(F, lam, alpha, v, indices):
    """Exact SDCA coordinate steps on `indices` in order, as
    `solvers._sdca_sweeper` takes them, but by the formula: every step
    takes x = `Regularizer.conjugate_argmax(v)` in full and a_i x over the
    row's stored entries.  alpha (a list) and v are updated in place; the
    x at v is returned."""
    q = (F.data.row_sq_norms() / (F.strong_convexity * F.n)).tolist()
    b = F.data.labels.tolist()
    for i in indices:
        idx, val = F.data.row(i)
        x = F.reg.conjugate_argmax(v)
        s = _sdca_coordinate(F.loss, b[i], lam, alpha[i],
                             float(val @ x[idx]), q[i])
        if s != alpha[i]:
            v[idx] -= val * ((s - alpha[i]) / F.n)
            alpha[i] = s
    return F.reg.conjugate_argmax(v)

def full_sweep_svm_reference(F, tol=1e-12):
    """The Case3 (hinge, l2) reference as exact dual coordinate ascent that
    steps on every row in every epoch's fixed-seed order, polished and
    certified as `references._svm_reference` does; no row is skipped, and
    every polish attempt tries every margin tolerance, with no memo of the
    margin sets that failed before."""
    alpha = [0.0] * F.n
    v = np.zeros(F.dim)
    x = F.reg.conjugate_argmax(v)
    sweep = _sdca_sweeper(F, 0.0, alpha, v, x)
    rng = np.random.default_rng(references._DCA_SEED)
    last = "no epoch ran"
    for epoch in range(1, references._DCA_EPOCH_CAP + 1):
        sweep(rng.permutation(F.n).tolist())
        if epoch % references._DCA_POLISH_EVERY:
            continue
        for margin_tol in references._MARGIN_TOLS:
            try:
                polished = references._polish_hinge(F, x, margin_tol)
            except NumericalError as err:
                last = str(err)
                continue
            references._check_hinge_gap(F, *polished, tol)
            return polished[0]
    raise NumericalError(f"hinge reference polish failed: {last}")

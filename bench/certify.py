"""Checks of the program's outputs, computed apart from the program.

Everything here is the benchmark's own numpy on the benchmark's own copy of
the input rows: objective values from the paper's formula
F(x) = (1/n) sum_i f(b_i, <a_i, x>) + l1 |x|_1 + l2/2 |x|^2, a KKT residual
for the lasso, a primal-dual gap against a dual point from the benchmark's
own dual coordinate ascent for the SVM, and the gradient's infinity norm for
unregularized logistic regression.  A failed check raises CheckFailed.
"""
from __future__ import annotations

import numpy as np

from inputs import Problem

KKT_TOL = 1e-9       # lasso: largest KKT residual at the reference
GAP_TOL = 1e-9       # svm: primal-dual gap at the reference
GRAD_TOL = 1e-9      # logistic: gradient infinity norm at the reference
FSTAR_TOL = 1e-12    # program's F* against the recomputed F*
TRACE_TOL = 1e-9     # no trace objective may sit below F* by more
SIGMA0_RTOL = 1e-9   # adaptreg's sigma0 against delta/theta recomputed

CSV_HEADER = "epoch,passes,objective,subopt,stat,sigma_t,lambda_t,wall_ms"
_LOSS = {"lasso": "squared", "svm": "hinge", "logistic": "logistic"}


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Rows:
    """The input rows as the program should see them (after the global
    normalization when the config asks for it), with CSR products."""

    def __init__(self, p: Problem, normalize: bool):
        self.n, self.dim = p.n, p.dim
        self.indptr, self.indices, self.labels = p.indptr, p.indices, p.labels
        self.row = np.repeat(np.arange(p.n), np.diff(p.indptr))
        values = p.values
        if normalize:
            sq = np.bincount(self.row, weights=values * values, minlength=p.n)
            values = values / np.sqrt(sq).mean()
        self.values = values
        self.sq_norms = np.bincount(self.row, weights=values * values,
                                    minlength=p.n)

    def margins(self, x):
        return np.bincount(self.row, weights=self.values * x[self.indices],
                           minlength=self.n)

    def adjoint(self, g):
        return np.bincount(self.indices, weights=self.values * g[self.row],
                           minlength=self.dim)


def objective(rows: Rows, config: dict, x) -> float:
    """F(x) by the paper's formula."""
    b, z = rows.labels, rows.margins(x)
    loss = _LOSS[config["task"]]
    if loss == "squared":
        f = 0.5 * (z - b) ** 2
    elif loss == "hinge":
        f = np.maximum(0.0, 1.0 - b * z)
    else:
        f = np.logaddexp(0.0, -b * z)
    l1, l2 = config.get("l1_weight", 0.0), config.get("l2_weight", 0.0)
    return float(f.mean() + l1 * np.abs(x).sum() + 0.5 * l2 * (x @ x))


def lasso_kkt_residual(rows: Rows, l1: float, x) -> float:
    g = rows.adjoint(rows.margins(x) - rows.labels) / rows.n
    on = x != 0.0
    r_on = np.abs(g[on] + l1 * np.sign(x[on]))
    r_off = np.maximum(np.abs(g[~on]) - l1, 0.0)
    return float(max(r_on.max(initial=0.0), r_off.max(initial=0.0)))


def svm_duality_gap(rows: Rows, l2: float, x, max_epochs: int = 400) -> float:
    """P(x) - D(alpha) for the hinge-loss SVM, where alpha in [0, 1]^n comes
    from dual coordinate ascent (Hsieh et al. 2008), warm-started from the
    margins at x: 1 inside the margin, 0 outside, least squares on it.
    D(alpha) <= P* for every such alpha, so the gap bounds the
    suboptimality of x whatever produced it."""
    n, b = rows.n, rows.labels
    scale = l2 * n
    m = b * rows.margins(x)
    alpha = np.where(m < 1.0, 1.0, 0.0)
    on = np.flatnonzero(np.abs(m - 1.0) <= 1e-6)
    alpha[on] = 0.0
    if len(on):
        # stationarity: l2 n x = sum_i alpha_i b_i a_i
        B = np.zeros((len(on), rows.dim))
        for r, i in enumerate(on):
            lo, hi = rows.indptr[i], rows.indptr[i + 1]
            B[r, rows.indices[lo:hi]] = b[i] * rows.values[lo:hi]
        rest = scale * x - rows.adjoint(alpha * b)
        alpha[on] = np.clip(np.linalg.lstsq(B.T, rest, rcond=None)[0], 0.0, 1.0)
    primal = objective(rows, {"task": "svm", "l2_weight": l2}, x)
    gap = np.inf
    for _ in range(max_epochs):
        w = rows.adjoint(alpha * b) / scale
        gap = primal - (alpha.mean() - 0.5 * l2 * (w @ w))
        if gap <= GAP_TOL:
            break
        for i in range(n):
            lo, hi = rows.indptr[i], rows.indptr[i + 1]
            idx, val = rows.indices[lo:hi], rows.values[lo:hi]
            grad = b[i] * (val @ w[idx]) - 1.0
            new = min(1.0, max(0.0, alpha[i] - grad * scale / rows.sq_norms[i]))
            if new != alpha[i]:
                w[idx] += (new - alpha[i]) * b[i] / scale * val
                alpha[i] = new
    return float(gap)


def logistic_grad_inf(rows: Rows, x) -> float:
    bz = rows.labels * rows.margins(x)
    # -b * sigmoid(-b z), with sigmoid(-t) = exp(-softplus(t))
    d = -rows.labels * np.exp(-np.logaddexp(0.0, bz))
    return float(np.abs(rows.adjoint(d) / rows.n).max())


def certify_reference(rows: Rows, config: dict, x) -> float:
    """Check the program's reference minimizer x; return F(x)."""
    x = np.asarray(x, dtype=float)
    require(x.shape == (rows.dim,) and np.all(np.isfinite(x)),
            "reference is not a finite vector of length d")
    task = config["task"]
    if task == "lasso":
        r = lasso_kkt_residual(rows, config["l1_weight"], x)
        require(r <= KKT_TOL, f"lasso KKT residual {r:.3g} > {KKT_TOL:g}")
    elif task == "svm":
        gap = svm_duality_gap(rows, config["l2_weight"], x)
        require(gap <= GAP_TOL, f"svm duality gap {gap:.3g} > {GAP_TOL:g}")
    else:
        g = logistic_grad_inf(rows, x)
        require(g <= GRAD_TOL, f"logistic gradient norm {g:.3g} > {GRAD_TOL:g}")
    return objective(rows, config, x)


def check_dataset(ds, rows: Rows) -> None:
    """The program's parsed dataset holds exactly the rows written."""
    require(ds.n == rows.n and ds.dim == rows.dim, "parsed shape differs")
    require(np.array_equal(ds.indptr, rows.indptr)
            and np.array_equal(ds.indices, rows.indices)
            and np.array_equal(ds.labels, rows.labels), "parsed rows differ")
    require(np.allclose(ds.values, rows.values, rtol=1e-13, atol=0.0),
            "parsed values differ")


def check_trace(text: str, config: dict, f_star: float, sigma0: float,
                target: float, final_max: float | None) -> float:
    """Check every row of one CSV trace; return passes_to_target."""
    lines = text.split("\n")
    require(lines[0] == CSV_HEADER and lines[-1] == "" and len(lines) > 2,
            "trace header or layout is wrong")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:-1]]
    require(all(len(r) == 8 for r in rows), "trace row without 8 columns")
    budget = config["pass_budget"]
    first_sigma, first_lam = rows[0][5], rows[0][6]
    prev_epoch, prev_passes = -1, 0.0
    crossed = None
    for epoch, passes, obj, subopt, stat, sigma, lam, wall in rows:
        require(epoch == int(epoch) and epoch > prev_epoch,
                "epochs do not increase")
        require(prev_passes < passes <= budget + 1e-9,
                f"passes {passes!r} do not increase within the budget")
        require(obj >= f_star - TRACE_TOL, f"objective {obj!r} below F*")
        require(abs(obj - subopt - f_star) <= FSTAR_TOL,
                "objective - subopt differs from the recomputed F*")
        require(np.isfinite(stat) and stat >= 0.0, "statistic not finite")
        scale = 2.0 ** epoch
        require(sigma * scale == first_sigma and lam * scale == first_lam,
                "sigma_t or lambda_t does not halve each epoch")
        require(wall == 0.0, "wall_ms is not 0.0")
        if crossed is None and obj - f_star <= target:
            crossed = passes
        prev_epoch, prev_passes = epoch, passes
    require(rows[0][0] == 0, "trace does not start at epoch 0")
    if config["method"] == "adaptreg":
        require(first_lam == 0.0 and abs(first_sigma - sigma0) <= SIGMA0_RTOL * sigma0,
                f"sigma_0 {first_sigma!r} differs from delta/theta {sigma0!r}")
    else:
        require(first_sigma == 0.0 and first_lam == config["lam0"],
                "lambda_0 differs from the configured lam0")
    if final_max is not None:
        final = rows[-1][2] - f_star
        require(final <= final_max,
                f"final suboptimality {final:.3g} > {final_max:g}")
    require(crossed is not None, f"trace never reaches suboptimality {target:g}")
    return crossed

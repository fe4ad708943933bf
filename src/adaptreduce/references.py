"""High-accuracy reference minimizers for every objective class.

Strongly convex smooth problems (Case1) use the duality-gap-certified APG
loop `solvers.reference_minimize`.  The other classes are warmed up first to
locate the combinatorial structure, then polished: a direct solve of the
optimality system on that structure, followed by a check of the full KKT
conditions.  A failed check raises rather than returning a sloppy point, so
every reference is certificate backed.  `base_reference` keeps the one
in-process reference cache, for every class (`harness` keeps the disk one).

- Case2 (smooth loss, l1): FISTA locates the active set; the polish solves
  the support stationarity system (a linear solve for the squared loss,
  Newton for the logistic loss) and grows or trims the support.  FISTA runs
  in blocks up to 6000 iterations; the polish is tried at each block end
  whose sign pattern equals the previous one (at every block end without an
  l1 term), and the first certified point is the reference.  Smoothed
  non-Case1 objectives are refused.
- Case3 (hinge, psi strongly convex): exact dual coordinate ascent on the
  box-constrained dual (Hsieh et al. 2008) is the warm-up: each epoch,
  `solvers._sdca_sweeper` (sdca_hood's coordinate step) steps once on each
  row of a fixed-seed random order whose step can move its dual.  A row
  whose dual sits on the bound its margin at the last epoch's end pushes
  it to is a no-op and skipped that epoch (the shrinking of Hsieh et al.
  2008, section 3, decided afresh every epoch).  Every `_DCA_POLISH_EVERY`
  epochs the margin polish is tried, and the first certified point whose
  duality gap at the polish's multipliers is at most `tol` is the
  reference.
- Case4 (hinge, psi = l1): the package's own smoothing reduction is the
  warm-up, joint_adapt's halving smoothing and regularization centred at
  the origin, run by `reductions._drive` over `apg_hood`.  After every
  epoch the margin/support polish is tried, and the first certified point
  is the reference.

Within one solve the hinge polish runs at most once on each margin/support
partition (`_try_polish`): it reads its warm point only through that
partition, so a partition that failed would fail again.

The data matrix comes from `Dataset.matrix()`: the dense array, on which
every expression here is plain numpy, or a `data.CsrMatrix` on sparse data,
which supports the same expressions and forms `data.gram` from the stored
entries alone; only the hinge polish's small margin block is densified.
"""
from __future__ import annotations

import numpy as np

from . import losses
from .data import gram
from .errors import NumericalError
from .objectives import Case, CompositeObjective
from .reductions import HALVING, _drive
from .regularizers import soft_threshold
from .solvers import (FixedIterations, _sdca_sweeper, apg_hood,
                      reference_minimize)

_BASE_CACHE: dict[str, np.ndarray] = {}

_KKT_TOL = 1e-9
_SUPPORT_TOL = 1e-9  # |x_j| above this puts j on an l1 support
_MARGIN_TOLS = (1e-6, 1e-5, 3e-7, 3e-5, 1e-4)  # hinge margin sets, in order
# Case3 dual coordinate ascent: epochs between polish attempts, the epoch
# cap and the seed of the row orders.  An epoch steps only on the rows not
# skipped as no-ops (Hsieh et al. 2008, section 3); on gen_classification(7,
# 500, 100), l2 = 1e-5 certifies at epoch 1120 with about 88 steps an epoch
_DCA_POLISH_EVERY = 5
_DCA_EPOCH_CAP = 2000
_DCA_SEED = 0
# Case2 FISTA iteration counts after which the polish may be tried
_FISTA_CHECKPOINTS = (25, 50, 100, 200, 400, 800, 1600, 3200, 6000)


def base_reference(F: CompositeObjective, tol: float = 1e-12) -> np.ndarray:
    """Certified minimizer of F for any Case, as a read-only array cached
    in-process in `_BASE_CACHE` under `content_hash:tol`.

    `tol` bounds the duality gap of Case1 and Case3 references.  Case2 and
    Case4 references are certified by KKT checks at fixed tolerances and
    ignore it."""
    case = F.classify_case()
    if case is not Case.Case1 and F.smoothing is not None:
        raise NumericalError(
            f"no reference method for a smoothed {case.name} objective "
            f"({F.loss} loss, smoothing {F.smoothing!r})")
    key = F.content_hash() + f":{tol!r}"
    hit = _BASE_CACHE.get(key)
    if hit is not None:
        return hit
    x = (reference_minimize(F, tol) if case is Case.Case1
         else _l1_smooth_reference(F) if case is Case.Case2
         else _hinge_reference(F, tol))
    x.setflags(write=False)
    _BASE_CACHE[key] = x
    return x


def _parts(F):
    A = F.data.matrix()
    b = F.data.labels
    return A, b, A.shape[0], A.shape[1]


# ---------------------------------------------------------------------------
# Case2: smooth loss + l1 (sigma = 0)
# ---------------------------------------------------------------------------

def _l1_smooth_reference(F) -> np.ndarray:
    A, b, n, d = _parts(F)
    w = F.reg.l1
    L = F.smoothness
    if L <= 0.0:
        return np.zeros(d)
    if F.loss == "logistic" and w == 0.0:
        # a column whose nonzeros all give b_i a_ij one sign: moving x_j
        # that way raises every margin it touches, so the loss falls forever
        s = np.sign(F.data.values * np.repeat(b, np.diff(F.data.indptr)))
        pos, neg = (np.bincount(F.data.indices, side, minlength=d) > 0
                    for side in (s > 0, s < 0))
        if np.any(pos != neg):
            raise NumericalError(
                "logistic loss without l1 has no minimizer: the data are "
                f"separable along {np.sum(pos != neg)} feature axes")
    # FISTA warmup to localize the support, polished at each checkpoint
    # whose sign pattern held since the previous one (at every checkpoint
    # without an l1 term, whose support is every coordinate); the last
    # polish raises
    x = np.zeros(d)
    y = x.copy()
    tk = 1.0
    done = 0
    held = np.zeros(d)
    for stop in _FISTA_CHECKPOINTS:
        for _ in range(stop - done):
            g = A.T @ losses.loss_deriv(F.loss, A @ y, b) / n
            xn = soft_threshold(y - g / L, w / L)
            tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
            y = xn + ((tk - 1.0) / tn) * (xn - x)
            x, tk = xn, tn
        done = stop
        if stop == _FISTA_CHECKPOINTS[-1]:
            x = _polish_l1(F, A, b, x)
            break
        pattern = np.sign(x) * (np.abs(x) > _SUPPORT_TOL)
        if w == 0.0 or np.array_equal(pattern, held):
            try:
                x = _polish_l1(F, A, b, x)
                break
            except NumericalError:
                pass
        held = pattern
    if F.loss == "logistic" and w == 0.0 and np.all(b * (A @ x) > 0.0):
        raise NumericalError(
            "logistic loss without l1 has no minimizer: the data are "
            "linearly separable")
    return x


def _polish_l1(F, A, b, x) -> np.ndarray:
    """Active-set polish: solve for x on the support read off x, check the
    KKT conditions, then grow the support by the worst violator or drop
    the coordinates that died, and repeat."""
    n, d = A.shape
    w = F.reg.l1
    for _ in range(12):
        S = np.abs(x) > _SUPPORT_TOL
        sgn = np.sign(x[S])
        xs = x[S]
        x = np.zeros(d)
        if S.any():
            x[S] = _support_solve(F.loss, A[:, S], b, xs, w * sgn)
        g = A.T @ losses.loss_deriv(F.loss, A @ x, b) / n
        if (np.all(np.sign(x[S]) == sgn)
                and np.all(np.abs(g[S] + w * sgn) < 1e-10)
                and np.all(np.abs(g[~S]) <= w + 1e-12)):
            return x
        viol = np.abs(g) - w
        viol[np.abs(x) > _SUPPORT_TOL] = -np.inf
        j = int(np.argmax(viol))
        if viol[j] > 1e-12:
            x[j] = -2.0 * _SUPPORT_TOL * np.sign(g[j])
        else:
            x[np.abs(x) <= _SUPPORT_TOL] = 0.0
    raise NumericalError(f"l1 reference polish failed to certify ({F.loss} loss)")


def _support_solve(loss, AS, b, xs, shift) -> np.ndarray:
    """x_S with grad_S f + shift = 0: one linear solve for the squared
    loss, Newton from xs for the logistic loss."""
    n = AS.shape[0]
    try:
        if loss == "squared":
            return np.linalg.solve(gram(AS) / n, AS.T @ b / n - shift)
        for _ in range(60):
            z = AS @ xs
            gS = AS.T @ losses.loss_deriv(loss, z, b) / n + shift
            if np.abs(gS).max() < 1e-13:
                break
            sig = losses._sigmoid(-b * z)
            h = sig * (1.0 - sig) * b * b
            H = gram(AS, h) / n
            try:
                step = np.linalg.solve(H, gS)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(H, gS, rcond=None)[0]
            xs = xs - step
        return xs
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"l1 polish system singular: {err}")


# ---------------------------------------------------------------------------
# Case3/Case4: hinge loss (margin/support polish after a warm-up)
# ---------------------------------------------------------------------------

def _hinge_reference(F, tol) -> np.ndarray:
    if F.loss != "hinge":
        raise NumericalError(
            f"no reference method for {F.classify_case().name} with loss {F.loss!r}")
    if F.classify_case() is Case.Case3:
        return _svm_reference(F, tol)
    # joint_adapt at sigma0 = lam0 = 1/4, centred at the origin
    origin = np.zeros(F.dim)
    schedule = [(0.25 / HALVING ** t,) * 2 for t in range(34)]
    transform = lambda sigma_t, lam_t: (
        F.smooth(lam_t).regularize(sigma_t, origin))
    found = []
    last = ["no epoch ran"]
    failed = {}

    def certified(report) -> bool:
        polished = _try_polish(F, report.x_out, last, failed)
        if polished is not None:
            found.append(polished[0])
        return polished is not None

    _drive(F, apg_hood, origin, FixedIterations(2500), schedule, transform,
           stalled=certified)
    if not found:
        raise NumericalError(f"hinge reference polish failed: {last[0]}")
    return found[0]


def _svm_reference(F, tol) -> np.ndarray:
    """Case3 warm-up: exact dual coordinate ascent from alpha = 0 by
    sdca_hood's sweep, polished every _DCA_POLISH_EVERY epochs.

    Each epoch steps on the rows of a fixed-seed permutation that can move,
    as decided from the margins m = b (A x) at the end of the epoch before
    (Hsieh et al. 2008, section 3, shrink the same bounded duals).  Row i
    is skipped when alpha_i = 0 with m_i > 1, or alpha_i = -b_i with
    m_i < 1: the exact hinge step at that x clamps alpha_i back onto the
    bound it sits on (a row with b_i = 0 stays at 0).  The margins come
    from one matvec and a step's from the row's dot product, which may
    differ in the last bits, so only a margin within that rounding of 1
    could still move alpha_i, by about that rounding.  Every row is decided
    again each epoch, so none is skipped for good.  The polish reads the
    warm point only through its margin sets, so where those match the full
    sweep's the reference has every bit of the full sweep's."""
    A, b, n, _ = _parts(F)
    alpha = [0.0] * n
    v = np.zeros(F.dim)
    x = F.reg.conjugate_argmax(v)
    sweep = _sdca_sweeper(F, 0.0, alpha, v, x)
    rng = np.random.default_rng(_DCA_SEED)
    last = ["no epoch ran"]
    failed = {}
    live = np.ones(n, dtype=bool)  # the rows whose step can move alpha_i
    for epoch in range(1, _DCA_EPOCH_CAP + 1):
        order = rng.permutation(n)
        sweep(order[live[order]].tolist())
        m = b * (A @ x)
        a = np.array(alpha)
        live = ~(((a == 0.0) & (m > 1.0)) | ((a == -b) & (m < 1.0)))
        if epoch % _DCA_POLISH_EVERY:
            continue
        polished = _try_polish(F, x, last, failed)
        if polished is not None:
            _check_hinge_gap(F, *polished, tol)
            return polished[0]
    raise NumericalError(f"hinge reference polish failed: {last[0]}")


def _try_polish(F, x_warm, last: list, failed: dict):
    """`_polish_hinge` at each of _MARGIN_TOLS in turn: the first (point,
    multipliers) it certifies, or None, with the last failure's message in
    last[0] (the message only: a kept error's traceback holds the polish's
    arrays alive).

    `failed` is one solve's memo of failed polishes, each message under the
    packed bits of its margin sets (`_margin_sets`).  The polish reads its
    warm point only through those sets, so a tolerance whose sets failed
    before would fail again with the same message, and is skipped."""
    m = F.data.labels * (F.data.matrix() @ x_warm)
    for margin_tol in _MARGIN_TOLS:
        viol, marg, S, sgn = _margin_sets(F, x_warm, m, margin_tol)
        key = np.packbits(np.concatenate((viol, marg, S, sgn > 0))).tobytes()
        if key in failed:
            last[0] = failed[key]
            continue
        try:
            return _polish_hinge(F, x_warm, margin_tol)
        except NumericalError as err:
            last[0] = failed[key] = str(err)
    return None


def _check_hinge_gap(F, x, tau, tol) -> float:
    """The duality gap P(x) - D(alpha) at the feasible dual point
    alpha = -b tau, tau in [0, 1]^n; raises when it is not at most tol."""
    gap = F.full_value(x) - F.dual_value(-F.data.labels * tau)
    if not gap <= tol:
        raise NumericalError(
            f"hinge reference duality gap {gap:.3g} exceeds tol {tol:g}")
    return gap


def _margin_sets(F, x_warm, m, margin_tol):
    """All that `_polish_hinge` reads of its warm point x_warm, whose
    margins are m = b (A x_warm): the violated and the margin rows at
    margin_tol, and the support S with its signs (every coordinate, with
    signs 0, without an l1 term)."""
    viol = m < 1.0 - margin_tol
    marg = np.abs(m - 1.0) <= margin_tol
    if F.reg.l1 > 0.0:
        S = np.abs(x_warm) > 1e-7
        sgn = np.sign(x_warm[S])
    else:
        S = np.ones(F.dim, dtype=bool)
        sgn = np.zeros(F.dim)
    return viol, marg, S, sgn


def _polish_hinge(F, x_warm, margin_tol) -> tuple[np.ndarray, np.ndarray]:
    """Solve the hinge KKT system on the margin/support sets read off the
    warmup point, then verify every optimality condition.  Returns the
    point and its multipliers: 1 on violated margins, the solve's clipped
    to [0, 1] on the margin set, 0 elsewhere."""
    A, b, n, d = _parts(F)
    reg = F.reg
    w = reg.l1
    sigma = reg.strong_convexity
    sw = reg.shift_weight
    c = reg.shift_center if sw > 0.0 else np.zeros(d)

    viol, marg, S, sgn = _margin_sets(F, x_warm, b * (A @ x_warm), margin_tol)
    M = np.where(marg)[0]
    k = int(S.sum())
    mcount = len(M)
    g0 = -(A[viol].T @ b[viol]) / n
    B = np.asarray(A[M]) * b[M][:, None] if mcount else np.zeros((0, d))
    # unknowns [x_S, tau_M]; stationarity on S then margin equalities
    Z = np.zeros((k + mcount, k + mcount))
    rhs = np.zeros(k + mcount)
    Z[:k, :k] = sigma * np.eye(k)
    if mcount:
        Z[:k, k:] = -B[:, S].T / n
        Z[k:, :k] = B[:, S]
        rhs[k:] = 1.0
    rhs[:k] = sw * c[S] - g0[S] - w * sgn
    try:
        sol = np.linalg.solve(Z, rhs)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"hinge polish system singular: {err}")
    x = np.zeros(d)
    x[S] = sol[:k]
    tau = sol[k:]

    # --- verify the full KKT conditions at the polished point ---
    mm = b * (A @ x)
    if mcount and np.abs(mm[M] - 1.0).max() > 1e-8:
        raise NumericalError("hinge polish: margin equalities not met")
    if not np.all((tau > -1e-8) & (tau < 1.0 + 1e-8)):
        raise NumericalError("hinge polish: multipliers outside [0, 1]")
    others = ~viol & ~marg
    if np.any(mm[viol] > 1.0 + 1e-8) or np.any(mm[others] < 1.0 - 1e-8):
        raise NumericalError("hinge polish: margin classification changed")
    g_total = g0.copy()
    if mcount:
        g_total = g_total - B.T @ tau / n
    g_total = g_total + reg.differentiable_gradient(x)
    if w > 0.0:
        if k and np.abs(g_total[S] + w * sgn).max() > _KKT_TOL:
            raise NumericalError("hinge polish: support stationarity failed")
        if np.any(np.abs(g_total[~S]) > w + _KKT_TOL):
            raise NumericalError("hinge polish: off-support bound failed")
        if k and np.any(np.sign(x[S]) != sgn):
            raise NumericalError("hinge polish: support signs flipped")
    else:
        if np.abs(g_total).max() > _KKT_TOL:
            raise NumericalError("hinge polish: stationarity failed")
    tau_hat = viol.astype(float)
    tau_hat[M] = np.clip(tau, 0.0, 1.0)
    return x, tau_hat

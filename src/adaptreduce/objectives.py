"""Composite objectives F(x) = (1/n) sum_i f_i(<a_i, x>) + psi(x).

An objective bundles a dataset, one loss kind with per-sample labels, a
regularizer, and an optional smoothing level lambda (when set, every loss
is replaced by its smoothed variant).  Objectives are immutable: the
`regularize` and `smooth` transforms return new objects.

Case classification:
    Case1  sigma > 0 and L < inf   (strongly convex, smooth)
    Case2  sigma = 0 and L < inf   (smooth only)
    Case3  sigma > 0 and L = inf   (strongly convex only)
    Case4  otherwise
where sigma is psi's strong convexity and L the reported smoothness of f.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import data as data_mod
from . import losses
from .data import Dataset
from .errors import ConfigError
from .regularizers import Regularizer


class Case(Enum):
    Case1 = 1
    Case2 = 2
    Case3 = 3
    Case4 = 4


@dataclass(frozen=True, eq=False)
class CompositeObjective:
    data: Dataset
    loss: str
    reg: Regularizer
    smoothing: float | None = None

    def __post_init__(self):
        if self.loss not in losses.KINDS:
            raise ConfigError(f"unknown loss kind {self.loss!r}")
        if self.smoothing is not None and self.smoothing <= 0.0:
            raise ConfigError("smoothing parameter must be positive")

    # -- shape ---------------------------------------------------------
    @property
    def n(self) -> int:
        return self.data.n

    @property
    def dim(self) -> int:
        return self.data.dim

    # -- constants -----------------------------------------------------
    @property
    def smoothness(self) -> float:
        """Reported L = max_i |a_i|^2 * L_loss (L_loss = 1/lambda if smoothed)."""
        sq = self.data.row_sq_norms()
        if len(sq) == 0:
            return 0.0
        if self.smoothing is not None:
            return float(sq.max() / self.smoothing)
        per = losses.loss_smoothness(self.loss, self.data.labels)
        with np.errstate(invalid="ignore"):  # 0 * inf lanes are masked below
            terms = np.where(sq == 0.0, 0.0, sq * per)
        return float(terms.max())

    @property
    def lipschitz_G(self) -> float:
        """Largest per-loss Lipschitz constant G (inf for squared loss)."""
        if self.n == 0:
            return 0.0
        return float(losses.loss_lipschitz(self.loss, self.data.labels).max())

    @property
    def strong_convexity(self) -> float:
        return self.reg.strong_convexity

    def classify_case(self) -> Case:
        sc = self.strong_convexity > 0.0
        smooth = np.isfinite(self.smoothness)
        if sc and smooth:
            return Case.Case1
        if smooth:
            return Case.Case2
        if sc:
            return Case.Case3
        return Case.Case4

    # -- loss dispatch over margins z = A x -----------------------------
    def margins(self, x) -> np.ndarray:
        return data_mod.matvec(self.data, np.asarray(x, dtype=float))

    def loss_values(self, z) -> np.ndarray:
        b = self.data.labels
        if self.smoothing is not None:
            return losses.smoothed_value(self.loss, z, b, self.smoothing)
        return losses.loss_value(self.loss, z, b)

    def loss_derivs(self, z, allow_subgradient: bool = False) -> np.ndarray:
        b = self.data.labels
        if self.smoothing is not None:
            return losses.smoothed_deriv(self.loss, z, b, self.smoothing)
        if not allow_subgradient and not np.isfinite(self.smoothness):
            raise ConfigError(
                "gradient unavailable: loss is nonsmooth and no smoothing is active")
        return losses.loss_deriv(self.loss, z, b)

    # -- evaluation ------------------------------------------------------
    def f_value(self, x) -> float:
        if self.n == 0:
            return 0.0
        return float(self.loss_values(self.margins(x)).mean())

    def full_value(self, x) -> float:
        return self.f_value(x) + self.reg.value(x)

    def full_gradient(self, x, include_quadratic_reg: bool = False) -> np.ndarray:
        """Gradient of the f part; psi is normally handled by its prox.

        `include_quadratic_reg` opts in to adding the gradient of psi's
        quadratic terms (never the l1 term), for solvers or statistics that
        treat those terms as part of the smooth piece.
        """
        x = np.asarray(x, dtype=float)
        g = self._gradient_pieces(x)[2]
        if include_quadratic_reg:
            g = g + self.reg.differentiable_gradient(x)
        return g

    def _gradient_pieces(self, x, allow_subgradient: bool = False):
        """(z, alpha, g): the margins z = A x, alpha = f'(z) and the f-part
        gradient g = A^T alpha / n, whose -g is _gap's v bit for bit."""
        if self.n == 0:
            return np.zeros(0), np.zeros(0), np.zeros(self.dim)
        z = self.margins(x)
        alpha = self.loss_derivs(z, allow_subgradient=allow_subgradient)
        return z, alpha, data_mod.rmatvec(self.data, alpha) / self.n

    @property
    def scalar_deriv(self):
        """(z, b) -> f'(z) for one margin z with label b, as a float: the
        value loss_derivs gives that margin (the subgradient at a kink)."""
        return losses.scalar_deriv(self.loss, self.smoothing)

    @property
    def flat_room(self):
        """z -> how far each float margin may move with scalar_deriv keeping
        its value, for all n margins z (`losses.flat_room`)."""
        return losses.flat_room(self.loss, self.data.labels, self.smoothing)

    def grad_norm(self, x, include_quadratic_reg: bool = False) -> float:
        g = self.full_gradient(x, include_quadratic_reg=include_quadratic_reg)
        return float(np.linalg.norm(g))

    def prox(self, v, eta: float) -> np.ndarray:
        return self.reg.prox(v, eta)

    # -- duality ---------------------------------------------------------
    def dual_value(self, alpha) -> float:
        """The Fenchel dual -mean_i f_i*(alpha_i) - psi*(-(1/n) A^T alpha),
        where a mean over no rows is 0, as in f_value."""
        v = (-data_mod.rmatvec(self.data, alpha) / self.n if self.n
             else np.zeros(self.dim))
        return self._dual_value(alpha, v)

    def _dual_value(self, alpha, v) -> float:
        """dual_value(alpha), given v = -(1/n) A^T alpha."""
        b = self.data.labels
        if self.smoothing is not None:
            fstar = losses.smoothed_conjugate(self.loss, alpha, b, self.smoothing)
        else:
            fstar = losses.loss_conjugate(self.loss, alpha, b)
        mean = float(fstar.mean()) if self.n else 0.0
        return -mean - self.reg.conjugate_value(v)

    def duality_gap(self, x) -> float:
        """Primal value minus Fenchel dual value at alpha_i = f_i'(z_i).

        Nonnegative by weak duality; zero at the minimizer when the losses
        are differentiable.  Requires psi strongly convex.
        """
        if self.strong_convexity <= 0.0:
            raise ConfigError("duality gap unavailable: psi is not strongly convex")
        x = np.asarray(x, dtype=float)
        # one matvec serves both the primal and alpha
        z, alpha, g = self._gradient_pieces(x, allow_subgradient=True)
        return self._gap(x, z, alpha, -g)

    def _gap(self, x, z, alpha, v) -> float:
        """duality_gap(x) from the pieces it computes: the margins z = A x,
        alpha = f'(z) and v = -(1/n) A^T alpha.  An oracle that holds them
        (SDCA's dual start, SVRG's snapshot, the first gradient of prox-GD
        and APG, or the pieces of the previous call's last gap) takes the
        gap at no pass.  The pieces do not depend on psi, so they serve
        every objective on the same data, loss and smoothing."""
        f = float(self.loss_values(z).mean()) if self.n else 0.0
        primal = f + self.reg.value(x)  # full_value(x), from the same z
        return primal - self._dual_value(alpha, v)

    # -- transforms ------------------------------------------------------
    def regularize(self, weight: float, center) -> "CompositeObjective":
        """Add weight/2 |x - center|^2 to psi."""
        if weight <= 0.0:
            raise ConfigError("added regularization weight must be positive")
        return CompositeObjective(
            self.data, self.loss, self.reg.with_shifted(weight, center), self.smoothing)

    def smooth(self, lam: float) -> "CompositeObjective":
        """Replace every loss by its lam-smoothed variant."""
        if lam <= 0.0:
            raise ConfigError("smoothing parameter must be positive")
        if self.smoothing is not None:
            raise ConfigError("objective is already smoothed; smooth the base objective")
        return CompositeObjective(self.data, self.loss, self.reg, lam)

    # -- identity --------------------------------------------------------
    def content_hash(self) -> str:
        h = self.data.content_sha256()
        h.update(self.loss.encode())
        r = self.reg
        center = b"" if r.shift_center is None else np.asarray(r.shift_center).tobytes()
        h.update(repr((r.l1, r.l2, r.shift_weight, r.const)).encode())
        h.update(center)
        h.update(repr(self.smoothing).encode())
        return h.hexdigest()

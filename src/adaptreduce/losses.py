"""Scalar losses f(z) with label b, their conjugates, and quadratic-conjugate
smoothing.

Supported kinds: "squared" (z-b)^2/2, "logistic" log(1+exp(-b z)), "hinge"
max(0, 1 - b z).  The smoothed variant of f is

    f_lam(z) = max_beta { beta z - f*(beta) - lam/2 beta^2 },

which is (1/lam)-smooth, sits within [f - lam G^2/2, f] for G-Lipschitz f,
and decreases pointwise as lam grows.

Labels with |b| != 1 are handled by the exact rescalings
f_b(z) = f_1(b z), f_b*(beta) = f_1*(beta/b), f_b^{(lam)}(z) = f_1^{(lam b^2)}(b z),
so only unit-label formulas appear below.  All module-level functions are
vectorized over z / beta / b.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

KINDS = ("squared", "logistic", "hinge")


def _sigmoid(t):
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))  # never overflows
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(t):
    return np.logaddexp(0.0, t)


def _check_kind(kind):
    if kind not in KINDS:
        raise ConfigError(f"unknown loss kind {kind!r}")


# ---------------------------------------------------------------------------
# plain values and derivatives
# ---------------------------------------------------------------------------

def loss_value(kind, z, b):
    _check_kind(kind)
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    if kind == "squared":
        return 0.5 * (z - b) ** 2
    if kind == "logistic":
        return _softplus(-b * z)
    return np.maximum(0.0, 1.0 - b * z)


def loss_deriv(kind, z, b):
    """Derivative in z; at the hinge kink the chosen subgradient is -b."""
    _check_kind(kind)
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    if kind == "squared":
        return z - b
    if kind == "logistic":
        return -b * _sigmoid(-b * z)
    return np.where(b * z <= 1.0, -b, 0.0)


def loss_lipschitz(kind, b):
    """Lipschitz constant G of z -> f(z); inf for the squared loss."""
    _check_kind(kind)
    b = np.asarray(b, dtype=float)
    if kind == "squared":
        return np.full_like(b, np.inf)
    return np.abs(b)


def loss_smoothness(kind, b):
    """Smoothness (second-derivative bound) of z -> f(z); inf for hinge."""
    _check_kind(kind)
    b = np.asarray(b, dtype=float)
    if kind == "squared":
        return np.ones_like(b)
    if kind == "logistic":
        return 0.25 * b * b
    return np.full_like(b, np.inf)


# ---------------------------------------------------------------------------
# conjugates
# ---------------------------------------------------------------------------

def _unit_logistic_conjugate(u):
    # (-u)log(-u) + (1+u)log(1+u) on [-1, 0], with 0 log 0 = 0
    u = np.asarray(u, dtype=float)
    out = np.full_like(u, np.inf)
    inside = (u >= -1.0) & (u <= 0.0)
    ui = np.clip(u[inside], -1.0, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(ui < 0.0, -ui * np.log(np.maximum(-ui, 1e-300)), 0.0)
        c = np.where(ui > -1.0, (1.0 + ui) * np.log1p(np.maximum(ui, -1.0)), 0.0)
    out[inside] = a + c
    return out


def conjugate_domain(kind, b):
    """Closed interval [lo, hi] where f* is finite (scalar label only)."""
    _check_kind(kind)
    b = float(b)
    if kind == "squared":
        return (-np.inf, np.inf)
    if b == 0.0:
        return (0.0, 0.0)
    return (min(-b, 0.0), max(-b, 0.0))


def loss_conjugate(kind, beta, b):
    """f*(beta) = sup_z beta z - f(z); +inf outside the domain."""
    _check_kind(kind)
    beta = np.asarray(beta, dtype=float)
    b = np.asarray(b, dtype=float)
    if kind == "squared":
        return 0.5 * beta ** 2 + b * beta
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(b != 0.0, beta / np.where(b != 0.0, b, 1.0), np.nan)
    if kind == "hinge":
        out = np.where((u >= -1.0) & (u <= 0.0), u, np.inf)
    else:
        out = _unit_logistic_conjugate(u)
    # b == 0 degenerates to a constant loss; conjugate is finite only at 0
    zero_b = np.broadcast_to(b == 0.0, out.shape)
    if np.any(zero_b):
        const = 1.0 if kind == "hinge" else np.log(2.0)
        out = np.where(zero_b, np.where(np.broadcast_to(beta, out.shape) == 0.0, -const, np.inf), out)
    return out


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def _unit_smoothed_hinge(t, mu, value=True):
    """Value (None unless asked for) and argmax beta of
    max_{beta in [-1,0]} beta t - beta - mu/2 beta^2."""
    beta = np.clip((t - 1.0) / mu, -1.0, 0.0)
    if not value:
        return None, beta
    val = np.where(
        t >= 1.0, 0.0,
        np.where(t <= 1.0 - mu, 1.0 - t - 0.5 * mu, (1.0 - t) ** 2 / (2.0 * mu)))
    return val, beta


def _unit_smoothed_logistic(t, mu, value=True):
    """Value (None unless asked for) and argmax beta for the logistic
    conjugate with quadratic term.

    With beta = -sigmoid(-u) the stationarity condition becomes
    u = t + mu * sigmoid(-u), a monotone scalar equation solved by bisection
    on [t, t + mu] to below the 1e-12 tolerance.
    """
    lo = t.copy()
    hi = t + mu
    # 64 halvings shrink the bracket by 5e-20, far below tolerance
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        phi = mid - t - mu * _sigmoid(-mid)
        smaller = phi < 0.0
        lo = np.where(smaller, mid, lo)
        hi = np.where(smaller, hi, mid)
    u = 0.5 * (lo + hi)
    beta = -_sigmoid(-u)
    if not value:
        return None, beta
    # f*(beta) with (-beta) = sigmoid(-u), (1+beta) = sigmoid(u):
    # log sigmoid(v) = -softplus(-v)
    fstar = -(_sigmoid(-u) * _softplus(u) + _sigmoid(u) * _softplus(-u))
    val = beta * t - fstar - 0.5 * mu * beta * beta
    return val, beta


def _smoothed_value_and_deriv(kind, z, b, lam, value=True):
    """The smoothed loss's value (None when value=False) and derivative."""
    _check_kind(kind)
    if lam <= 0.0:
        raise ConfigError("smoothing parameter must be positive")
    z = np.asarray(z, dtype=float)
    b = np.asarray(b, dtype=float)
    if kind == "squared":
        val = (z - b) ** 2 / (2.0 * (1.0 + lam)) if value else None
        return val, (z - b) / (1.0 + lam)
    # b == 0 makes the loss constant: its lanes run the unit formulas at
    # mu = 1 and are overwritten
    nonzero = b != 0.0
    t = b * z
    mu = np.where(nonzero, lam * b * b, 1.0)
    unit = _unit_smoothed_hinge if kind == "hinge" else _unit_smoothed_logistic
    v, beta1 = unit(t, mu, value)
    if value:
        v = np.where(nonzero, v, 1.0 if kind == "hinge" else np.log(2.0))
    return v, np.where(nonzero, b * beta1, 0.0)


def smoothed_value(kind, z, b, lam):
    return _smoothed_value_and_deriv(kind, z, b, lam)[0]


def smoothed_deriv(kind, z, b, lam):
    return _smoothed_value_and_deriv(kind, z, b, lam, value=False)[1]


def scalar_deriv(kind, lam=None):
    """The function (z, b) -> float equal bit for bit to smoothed_deriv(kind,
    z, b, lam), or to loss_deriv(kind, z, b) when lam is None.

    Squared and hinge use closed forms of + - * / min max only, which are
    exactly rounded; logistic needs exp and log, where math and numpy
    differ in the last bit, so it calls the vector functions."""
    _check_kind(kind)
    if lam is not None and lam <= 0.0:
        raise ConfigError("smoothing parameter must be positive")
    if kind == "squared":
        scale = 1.0 if lam is None else 1.0 + lam
        return lambda z, b: (z - b) / scale
    if kind == "hinge" and lam is None:
        return lambda z, b: -b if b * z <= 1.0 else 0.0
    if kind == "hinge":
        return lambda z, b: (0.0 if b == 0.0 else
                             b * min(max((b * z - 1.0) / (lam * b * b), -1.0), 0.0))
    if lam is None:
        return lambda z, b: float(loss_deriv(kind, z, b))
    return lambda z, b: float(smoothed_deriv(kind, z, b, lam))


def smoothed_conjugate(kind, beta, b, lam):
    """Conjugate of the smoothed loss: f*(beta) + lam/2 beta^2."""
    beta = np.asarray(beta, dtype=float)
    return loss_conjugate(kind, beta, b) + 0.5 * lam * beta ** 2


# ---------------------------------------------------------------------------
# scalar wrappers
# ---------------------------------------------------------------------------

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

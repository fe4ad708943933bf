"""Separable regularizers psi(x) = w |x|_1 + l2/2 |x|^2 + sw/2 |x - c|^2 + const.

The shifted quadratic term is what the regularize transform adds around a
center point; `with_shifted` merges a new such term into an existing one
exactly (two quadratics centered at different points combine into one plus a
scalar constant, which is kept so objective values stay exact).

Strong convexity is l2 + sw.  The proximal operator and the conjugate both
have closed forms built on soft-thresholding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def soft_threshold(v, tau):
    """Componentwise sign(v) * max(|v| - tau, 0); at tau = 0 that is
    v + 0.0 bit for bit, signed zeros included (sign(-0.0) is 0.0)."""
    v = np.asarray(v, dtype=float)
    if tau == 0.0:
        return v + 0.0
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Regularizer:
    l1: float = 0.0
    l2: float = 0.0
    shift_weight: float = 0.0
    shift_center: np.ndarray | None = None
    const: float = 0.0

    def __post_init__(self):
        if self.l1 < 0.0 or self.l2 < 0.0 or self.shift_weight < 0.0:
            raise ConfigError("regularizer weights must be nonnegative")
        if self.shift_weight > 0.0:
            if self.shift_center is None:
                raise ConfigError("shifted quadratic needs a center")
            object.__setattr__(self, "shift_center", _readonly(self.shift_center))
        elif self.shift_center is not None:
            object.__setattr__(self, "shift_center", None)

    @property
    def strong_convexity(self) -> float:
        return self.l2 + self.shift_weight

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        v = self.const
        if self.l1 > 0.0:
            v += self.l1 * np.abs(x).sum()
        if self.l2 > 0.0:
            v += 0.5 * self.l2 * float(x @ x)
        if self.shift_weight > 0.0:
            d = x - self.shift_center
            v += 0.5 * self.shift_weight * float(d @ d)
        return float(v)

    def differentiable_gradient(self, x):
        """Gradient of the quadratic (non-l1) part of psi."""
        x = np.asarray(x, dtype=float)
        g = self.l2 * x
        if self.shift_weight > 0.0:
            g = g + self.shift_weight * (x - self.shift_center)
        return g

    def prox(self, v, eta: float):
        """argmin_x eta*psi(x) + 1/2 |x - v|^2."""
        return self.prox_map(eta)(v)

    def prox_map(self, eta: float):
        """The function v -> prox(v, eta), with the step's constants
        eta*sw*c, eta*l1 and 1 + eta*sigma computed once."""
        if eta < 0.0:
            raise ConfigError("prox step size must be nonnegative")
        if eta == 0.0:
            return lambda v: np.array(v, dtype=float)
        shift = (eta * self.shift_weight * self.shift_center
                 if self.shift_weight > 0.0 else None)
        tau = eta * self.l1
        scale = 1.0 + eta * self.strong_convexity

        def prox(v):
            u = np.asarray(v, dtype=float)
            u = u if shift is None else u + shift
            return soft_threshold(u, tau) / scale
        return prox

    def conjugate_argmax(self, u, idx=None):
        """The maximizer of <u, x> - psi(x); requires strong convexity.
        psi is separable: given index array `idx`, u and the result hold
        only those coordinates."""
        sigma = self.strong_convexity
        if sigma <= 0.0:
            raise ConfigError("conjugate maximizer needs strong convexity")
        w = np.asarray(u, dtype=float)
        if self.shift_weight > 0.0:
            c = self.shift_center if idx is None else self.shift_center[idx]
            w = w + self.shift_weight * c
        return soft_threshold(w / sigma, self.l1 / sigma)

    def conjugate_value(self, u) -> float:
        """psi*(u) = sup_x <u, x> - psi(x)."""
        u = np.asarray(u, dtype=float)
        if self.strong_convexity > 0.0:
            x = self.conjugate_argmax(u)
            return float(u @ x) - self.value(x)
        # pure l1 (+const): an indicator of the l-infinity ball of radius l1
        if np.max(np.abs(u), initial=0.0) <= self.l1 + 1e-12:
            return -self.const
        return np.inf

    def with_shifted(self, weight: float, center) -> "Regularizer":
        """psi + weight/2 |x - center|^2, merged into a single shifted term."""
        if weight < 0.0:
            raise ConfigError("quadratic weight must be nonnegative")
        if weight == 0.0:
            return self
        center = np.asarray(center, dtype=float)
        if self.shift_weight == 0.0:
            return Regularizer(self.l1, self.l2, weight, center, self.const)
        total = self.shift_weight + weight
        merged = (self.shift_weight * self.shift_center + weight * center) / total
        d = self.shift_center - center
        cross = 0.5 * self.shift_weight * weight / total * float(d @ d)
        return Regularizer(self.l1, self.l2, total, merged, self.const + cross)

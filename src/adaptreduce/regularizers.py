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


def _shrink(v, tau, zero, scratch=None, out=None):
    """sign(v) * max(|v| - tau, 0) into `out` (v itself to work in place, a
    new array when None), with |v| in `scratch` (a new array when None): the
    one implementation of the formula.  tau is None for tau = 0, where the
    formula is v + 0.0 bit for bit, signed zeros included (sign(-0.0) is
    0.0).  Either way every zero of v comes out +0.0, and the step loops
    rely on it: a zero of x - v may carry either sign, and SVRG's
    zero-coefficient step gives every bit of the formula only because the
    formula writes such a zero as +0.0 (see `solvers`).  tau and `zero`
    are floats or arrays like v; the step loops pass arrays, which numpy 2
    takes faster than Python floats (0.4 against 0.7 us a call on 100
    floats, numpy 2.4 on a 2-vCPU x86 host)."""
    if tau is None:
        return np.add(v, zero, out)
    t = np.abs(v, scratch)
    np.subtract(t, tau, t)
    np.maximum(t, zero, out=t)
    s = np.sign(v, out)
    return np.multiply(s, t, s)


def soft_threshold(v, tau):
    """Componentwise sign(v) * max(|v| - tau, 0), as a new array."""
    return _shrink(np.asarray(v, dtype=float), tau or None, 0.0)


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

    def _shift(self, weight: float):
        """weight * c, or None when that holds no nonzero (`prox_terms`)."""
        if self.shift_weight == 0.0:
            return None
        shift = weight * self.shift_center
        return shift if shift.any() else None

    def prox_terms(self, eta: float):
        """(shift, tau, scale) with prox(v, eta) = shrink(v + shift, tau) /
        scale: shift = eta*sw*c, None when it has no nonzero, tau = eta*l1,
        None when it is zero, and scale = 1 + eta*sigma, computed once per
        step size.

        A shift of zeros alone (adapt_reg's, centred at x0 = 0) is dropped
        with every bit kept: adding +-0.0 changes only the sign of a zero,
        and the shrink writes every zero of its input as +0.0 (v + 0.0 at
        tau None, sign(+-0.0) = 0.0 otherwise), before or after the divide
        by a positive scale, which keeps a zero's sign."""
        if eta < 0.0:
            raise ConfigError("prox step size must be nonnegative")
        return (self._shift(eta * self.shift_weight), eta * self.l1 or None,
                1.0 + eta * self.strong_convexity)

    def prox(self, v, eta: float):
        """argmin_x eta*psi(x) + 1/2 |x - v|^2."""
        shift, tau, scale = self.prox_terms(eta)
        x = np.array(v, dtype=float)
        if eta == 0.0:
            return x
        if shift is not None:
            x += shift
        _shrink(x, tau, 0.0, out=x)
        x /= scale
        return x

    def conjugate_terms(self):
        """(shift, sigma, tau) with conjugate_argmax(u) = shrink((u + shift)
        / sigma, tau): shift = sw*c, None when it has no nonzero (every bit
        is kept, as in `prox_terms`), and tau = l1/sigma, None when it is
        zero; requires strong convexity."""
        sigma = self.strong_convexity
        if sigma <= 0.0:
            raise ConfigError("conjugate maximizer needs strong convexity")
        return self._shift(self.shift_weight), sigma, self.l1 / sigma or None

    def conjugate_argmax(self, u):
        """The maximizer of <u, x> - psi(x); requires strong convexity."""
        shift, sigma, tau = self.conjugate_terms()
        x = np.array(u, dtype=float)
        if shift is not None:
            x += shift
        x /= sigma
        return _shrink(x, tau, 0.0, out=x)

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

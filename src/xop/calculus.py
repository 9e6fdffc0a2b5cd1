"""Second-order jets: (value, first, second derivative) triples on sample
arrays, with the arithmetic needed to differentiate closed-form wavefunctions
of the shape  prefactor(x) * polynomial(x) / pole_factor(x)  analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polynomials import Polynomial

__all__ = ["Jet2", "jet_identity", "jet_poly", "jet_pow", "jet_exp"]


@dataclass(frozen=True)
class Jet2:
    """Values and first two derivatives of a function at sample points."""

    val: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.val + other.val, self.d1 + other.d1, self.d2 + other.d2)
        return Jet2(self.val + other, self.d1, self.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, -self.d1, -self.d2)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet2) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.val * other.val,
                self.d1 * other.val + self.val * other.d1,
                self.d2 * other.val + 2 * self.d1 * other.d1 + self.val * other.d2,
            )
        return Jet2(self.val * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return self * (1.0 / other)
        val = self.val / other.val
        d1 = (self.d1 - val * other.d1) / other.val
        d2 = (self.d2 - 2 * d1 * other.d1 - val * other.d2) / other.val
        return Jet2(val, d1, d2)

    def compose(self, inner: "Jet2") -> "Jet2":
        """Chain rule: self holds d/du-jets of g at u = inner.val; the result
        holds d/dx-jets of g(u(x))."""
        return Jet2(
            self.val,
            self.d1 * inner.d1,
            self.d2 * inner.d1**2 + self.d1 * inner.d2,
        )


def jet_identity(x) -> Jet2:
    x = np.asarray(x, dtype=float)
    return Jet2(x, np.ones_like(x), np.zeros_like(x))


def jet_poly(p: Polynomial, u: Jet2) -> Jet2:
    """Jet of p(u(x))."""
    outer = Jet2(p(u.val), p.derivative()(u.val), p.derivative(2)(u.val))
    return outer.compose(u)


def jet_pow(u: Jet2, gamma: float) -> Jet2:
    """Jet of u(x)**gamma (u must stay on one side of zero); for plain
    values u, their power only."""
    if not isinstance(u, Jet2):
        return u**gamma
    v = u.val**gamma
    outer = Jet2(v, gamma * u.val ** (gamma - 1), gamma * (gamma - 1) * u.val ** (gamma - 2))
    return outer.compose(u)


def jet_exp(u: Jet2) -> Jet2:
    """Jet of exp(u(x)); for plain values u, their exponential only."""
    if not isinstance(u, Jet2):
        return np.exp(u)
    v = np.exp(u.val)
    return Jet2(v, v * u.d1, v * (u.d2 + u.d1**2))

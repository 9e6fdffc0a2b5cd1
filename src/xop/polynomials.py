"""Classical Laguerre/Jacobi polynomials and a dense coefficient-vector type.

Evaluation goes through the standard three-term recurrences; coefficient
vectors are built from the finite series expansions so the two routes stay
independently checkable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

_P = np.polynomial.polynomial

__all__ = [
    "Polynomial",
    "eval_laguerre",
    "eval_jacobi",
    "laguerre_polynomial",
    "jacobi_polynomial",
    "polynomial_from_json",
]


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with coefficients stored in ascending degree order.

    The coefficient array is trimmed so the leading coefficient is nonzero
    (the zero polynomial keeps a single 0.0 entry) and is frozen after
    construction.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1:
            raise ParameterError("coefficient vector must be one-dimensional")
        if c.size == 0 or not np.all(np.isfinite(c)):
            raise ParameterError("coefficients must be a non-empty finite sequence")
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1].copy() if nz.size else np.zeros(1)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        return _P.polyval(np.asarray(x, dtype=float), self.coeffs)

    def derivative(self, order: int = 1) -> "Polynomial":
        return Polynomial(_P.polyder(self.coeffs, order))

    def to_json(self) -> str:
        """Serialize as a JSON array of coefficients, ascending degree."""
        return json.dumps([float(c) for c in self.coeffs])


def polynomial_from_json(text: str) -> Polynomial:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ParameterError("polynomial JSON must be an array of coefficients")
    return Polynomial(np.asarray(data, dtype=float))


def _check_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("evaluation points must be finite")
    return x


def eval_laguerre(n: int, k: float, x):
    """Generalized Laguerre polynomial L_n^(k)(x) by three-term recurrence.

    Requires k > -1. Accepts scalar or array x; non-finite x raises
    DomainError.
    """
    if n < 0 or n != int(n):
        raise ParameterError("degree n must be a nonnegative integer")
    if not k > -1:
        raise ParameterError(f"Laguerre parameter must exceed -1, got k={k}")
    x = _check_points(x)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p = 1.0 + k - x
    for i in range(1, int(n)):
        p, p_prev = ((2 * i + k + 1 - x) * p - (i + k) * p_prev) / (i + 1), p
    return p


def eval_jacobi(n: int, alpha: float, beta: float, x):
    """Jacobi polynomial P_n^(alpha,beta)(x) by three-term recurrence.

    Requires alpha > -1 and beta > -1.
    """
    if n < 0 or n != int(n):
        raise ParameterError("degree n must be a nonnegative integer")
    if not (alpha > -1 and beta > -1):
        raise ParameterError(
            f"Jacobi parameters must exceed -1, got alpha={alpha}, beta={beta}"
        )
    x = _check_points(x)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p = 0.5 * ((alpha - beta) + (alpha + beta + 2) * x)
    ab = alpha + beta
    for i in range(2, int(n) + 1):
        c1 = 2 * i * (i + ab) * (2 * i + ab - 2)
        c2 = (2 * i + ab - 1) * (alpha**2 - beta**2)
        c3 = (2 * i + ab - 1) * (2 * i + ab) * (2 * i + ab - 2)
        c4 = 2 * (i + alpha - 1) * (i + beta - 1) * (2 * i + ab)
        p, p_prev = ((c2 + c3 * x) * p - c4 * p_prev) / c1, p
    return p


def _rising_binom(top: float, count: int) -> float:
    # binom(top, count) for real top, integer count >= 0
    out = 1.0
    for j in range(1, count + 1):
        out *= (top - count + j) / j
    return out


def laguerre_polynomial(n: int, k: float) -> Polynomial:
    """Coefficient vector of L_n^(k) from its finite series expansion."""
    if n < 0 or n != int(n):
        raise ParameterError("degree n must be a nonnegative integer")
    if not k > -1:
        raise ParameterError(f"Laguerre parameter must exceed -1, got k={k}")
    n = int(n)
    coeffs = np.zeros(n + 1)
    fact = 1.0
    for i in range(n + 1):
        if i > 0:
            fact *= i
        coeffs[i] = (-1) ** i * _rising_binom(n + k, n - i) / fact
    return Polynomial(coeffs)


def jacobi_polynomial(n: int, alpha: float, beta: float) -> Polynomial:
    """Coefficient vector of P_n^(alpha,beta) from the finite sum
    sum_m C(n+a, n-m) C(n+b, m) ((x-1)/2)^m ((x+1)/2)^(n-m)."""
    if n < 0 or n != int(n):
        raise ParameterError("degree n must be a nonnegative integer")
    if not (alpha > -1 and beta > -1):
        raise ParameterError(
            f"Jacobi parameters must exceed -1, got alpha={alpha}, beta={beta}"
        )
    n = int(n)
    total = np.zeros(n + 1)
    for m in range(n + 1):
        factor = _rising_binom(n + alpha, n - m) * _rising_binom(n + beta, m)
        term = np.array([1.0])
        for _ in range(m):
            term = _P.polymul(term, [-0.5, 0.5])
        for _ in range(n - m):
            term = _P.polymul(term, [0.5, 0.5])
        total[: term.size] += factor * term
    return Polynomial(total)

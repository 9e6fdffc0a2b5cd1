"""Classical Laguerre/Jacobi polynomials and a dense coefficient-vector type.

Each job has one route, and both return all degrees at once.  Values come
from the normalized three-term recurrences (`_laguerre_rows`,
`_jacobi_rows`).  Coefficient vectors come from the classical ODE: the monic
coefficients solved top-down (`_classical_monic`) times the leading
coefficients (`_classical_leads`), both in np.longdouble and rounded once to
double.  The X1 two-term forms in `exceptional` are built from these pieces.
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


def _laguerre_rows(count: int, k, x: np.ndarray) -> np.ndarray:
    """Row m (m = 0..count-1): L_m^(k) at the points x."""
    p = np.empty((count,) + x.shape)
    p[0] = 1.0
    if count > 1:
        p[1] = 1.0 + k - x
    for i in range(1, count - 1):
        p[i + 1] = ((2 * i + k + 1 - x) * p[i] - (i + k) * p[i - 1]) / (i + 1)
    return p


def _jacobi_rows(count: int, alpha, beta, x: np.ndarray) -> np.ndarray:
    """Row m (m = 0..count-1): P_m^(alpha,beta) at the points x."""
    p = np.empty((count,) + x.shape)
    p[0] = 1.0
    if count > 1:
        p[1] = 0.5 * ((alpha - beta) + (alpha + beta + 2) * x)
    ab = alpha + beta
    for i in range(2, count):
        c1 = 2 * i * (i + ab) * (2 * i + ab - 2)
        c2 = (2 * i + ab - 1) * (alpha**2 - beta**2)
        c3 = (2 * i + ab - 1) * (2 * i + ab) * (2 * i + ab - 2)
        c4 = 2 * (i + alpha - 1) * (i + beta - 1) * (2 * i + ab)
        p[i] = ((c2 + c3 * x) * p[i - 1] - c4 * p[i - 2]) / c1
    return p


def eval_laguerre(n: int, k: float, x):
    """Generalized Laguerre polynomial L_n^(k)(x) by three-term recurrence.

    Requires k > -1. Accepts scalar or array x; non-finite x raises
    DomainError.
    """
    if n < 0 or n != int(n):
        raise ParameterError("degree n must be a nonnegative integer")
    if not k > -1:
        raise ParameterError(f"Laguerre parameter must exceed -1, got k={k}")
    return _laguerre_rows(int(n) + 1, k, _check_points(x))[int(n)]


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
    return _jacobi_rows(int(n) + 1, alpha, beta, _check_points(x))[int(n)]


def _classical_monic(count: int, *, k=None, ab=None) -> np.ndarray:
    """Row m (m = 0..count-1): ascending coefficients of the monic classical
    member of degree m, Laguerre L_m^(k) or, with ab = (alpha+beta,
    beta-alpha), Jacobi P_m^(alpha,beta), in the parameters' dtype.

    The classical ODE fixes each coefficient from the two above it, so every
    row is solved top-down from its leading 1:
        Laguerre:  c_j = -(j+1)(j+1+k) c_{j+1} / (m-j)
        Jacobi:    c_j = -[(j+2)(j+1) c_{j+2} + (beta-alpha)(j+1) c_{j+1}]
                         / ((m-j)(m+j+1 + alpha+beta))
    """
    dtype = type(k if ab is None else ab[0])
    c = np.zeros((count, count + 1), dtype=dtype)  # spare column for c_{j+2}
    c[np.arange(count), np.arange(count)] = 1
    m = np.arange(count, dtype=dtype)
    for j in range(count - 2, -1, -1):
        rows = m[j + 1:]
        if ab is None:
            c[j + 1:, j] = -(j + 1) * ((j + 1) + k) * c[j + 1:, j + 1] / (rows - j)
        else:
            c[j + 1:, j] = -((j + 2) * (j + 1) * c[j + 1:, j + 2]
                             + ab[1] * (j + 1) * c[j + 1:, j + 1]) / (
                (rows - j) * ((rows + j + 1) + ab[0]))
    return c[:, :count]


def _jacobi_lead_ratios(count: int, total) -> np.ndarray:
    """Entry m >= 1: lead(P_{m-1}) / lead(P_m) = 2m (m+total) / ((2m+total)
    (2m-1+total)), total = alpha+beta, in total's dtype; at m = 1 it is
    exactly 2 / (2+total).  Entry 0 is 0."""
    dtype = type(total)
    m = np.arange(2, count, dtype=dtype)
    ratio = np.zeros(count, dtype=dtype)
    ratio[1:2] = 2 / (2 + total)
    ratio[2:] = 2 * m * (m + total) / ((2 * m + total) * ((2 * m - 1) + total))
    return ratio


def _classical_leads(count: int, *, k=None, ab=None) -> np.ndarray:
    """Entry m: lead of the classical member of degree m (parameters as in
    `_classical_monic`), (-1)^m / m! for Laguerre, in the parameters' dtype."""
    ratio = -np.arange(count, dtype=type(k)) if ab is None else _jacobi_lead_ratios(count, ab[0])
    ratio[0] = 1
    return 1 / np.cumprod(ratio)


def _laguerre_coefficients(count: int, k: float) -> np.ndarray:
    """Row m (m = 0..count-1): ascending coefficients of L_m^(k)."""
    k = np.longdouble(k)
    return (_classical_monic(count, k=k) * _classical_leads(count, k=k)[:, None]).astype(float)


def _jacobi_coefficients(count: int, alpha: float, beta: float) -> np.ndarray:
    """Row m (m = 0..count-1): ascending coefficients of P_m^(alpha,beta)."""
    alpha, beta = np.longdouble(alpha), np.longdouble(beta)
    ab = (alpha + beta, beta - alpha)
    return (_classical_monic(count, ab=ab) * _classical_leads(count, ab=ab)[:, None]).astype(float)


def laguerre_polynomial(n: int, k: float) -> Polynomial:
    """Coefficient vector of L_n^(k) from the classical ODE."""
    if n < 0 or n != int(n):
        raise ParameterError("degree n must be a nonnegative integer")
    if not k > -1:
        raise ParameterError(f"Laguerre parameter must exceed -1, got k={k}")
    return Polynomial(_laguerre_coefficients(int(n) + 1, k)[int(n)])


def jacobi_polynomial(n: int, alpha: float, beta: float) -> Polynomial:
    """Coefficient vector of P_n^(alpha,beta) from the classical ODE."""
    if n < 0 or n != int(n):
        raise ParameterError("degree n must be a nonnegative integer")
    if not (alpha > -1 and beta > -1):
        raise ParameterError(
            f"Jacobi parameters must exceed -1, got alpha={alpha}, beta={beta}"
        )
    return Polynomial(_jacobi_coefficients(int(n) + 1, alpha, beta)[int(n)])

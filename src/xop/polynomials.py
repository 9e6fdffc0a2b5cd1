"""A dense coefficient-vector type and the classical Laguerre/Jacobi pieces.

The family objects of `exceptional` (`ClassicalLaguerre`, `ClassicalJacobi`
and the X1 families) are the one public route to name, tabulate and expand a
polynomial.  They tabulate members with the normalized three-term
recurrences themselves, and expand them with the pieces here, each returning
all degrees at once: the monic coefficients solved top-down from the
classical ODE (`_classical_monic`) times the leading coefficients
(`_classical_leads`), both in np.longdouble and rounded once to double.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_P = np.polynomial.polynomial

__all__ = ["Polynomial"]


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

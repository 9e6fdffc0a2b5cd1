"""Exceptional (X1) Laguerre and Jacobi polynomial families.

The X1 families are codimension-1: their polynomial sequences start at degree
one.  The degree-n member is the monic polynomial eigenfunction, with
eigenvalue family_eigenvalue(family, n), of the rational operator

    X1-Laguerre:  -x y'' + (x-k)/(x+k) [ (x+k+1) y' - y ]          = lam y
    X1-Jacobi:    (x^2-1) y'' + 2a (1-bx)/(b-x) [ (x-c) y' - y ]   = lam y,  c = b + 1/a

Members are built directly from their classical two-term forms (Gomez-Ullate,
Kamran and Milson 2009; Quesne 2008),

    X1-Laguerre:  monic( -(x+k+1) L_{n-1}^(k) + L_{n-2}^(k) )
    X1-Jacobi:    monic( -(x-b)/2 P_{n-1} + (b P_{n-1} - P_{n-2}) / (alpha+beta+2n-2) )

with P_m = P_m^(alpha,beta) for (alpha, beta) = x1_jacobi_alpha_beta(a, b);
see x1_eigenpairs.  The sign inside the bracket is the one for which
polynomial eigenfunctions exist at every degree; with the opposite sign some
degrees have none (see tests), which is how the convention was pinned.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    NumericError,
    ParameterError,
    UsageError,
)
from .io_utils import _record_from_dict
from .polynomials import (
    Polynomial,
    _classical_leads,
    _classical_monic,
    _jacobi_lead_ratios,
)
from .quadrature import _half_line_rule, gauss_jacobi_rule

__all__ = [
    "ClassicalLaguerre",
    "ClassicalJacobi",
    "X1Laguerre",
    "X1Jacobi",
    "FamilySpec",
    "EigenPair",
    "family_from_dict",
    "family_to_dict",
    "family_eigenvalue",
    "x1_jacobi_alpha_beta",
    "x1_eigenpairs",
    "x1_polynomial",
    "degree0_eigenfunction_exists",
    "ode_residual",
    "weight",
    "family_members",
    "gram_matrix",
    "x1_members_and_gram",
    "max_offdiag_ratio",
]


# ---------------------------------------------------------------------------
# family specifications
#
# Each kind's facts are private methods and class attributes of its class,
# never dataclass fields (`family_to_dict` reads the fields), from two axes:
# `_Laguerre` or `_Jacobi` (domain, weight, sample window, classical rows,
# first Gram rule) and `_Classical` or `_X1` (members, pole).

class _Laguerre:
    """Laguerre facts: the classical weight x^k e^-x on the half line."""

    _domain = (0.0, math.inf)
    _window = (0.0, 40.0)  # of `_sample_points`
    # near the NumericError bound a coarse panel level can overshoot the float
    # range; its inf entries then fail the Gram comparison like any other miss
    _gram_errors = {"over": "ignore", "invalid": "ignore"}

    def _log_classical_weight(self, x):
        return self.k * np.log(x) - x

    def _member_values(self, count, x):
        """Row m (m = 0..count-1): the classical member L_m^(k) at the points x."""
        k = self.k
        p = np.empty((count,) + x.shape)
        p[0] = 1.0
        if count > 1:
            p[1] = 1.0 + k - x
        spare = np.empty_like(p[0])
        for i in range(1, count - 1):  # p[i+1] = ((2i+k+1 - x) p[i] - (i+k) p[i-1]) / (i+1)
            out = p[i + 1, ...]  # a view also where x is a scalar
            np.subtract(2 * i + k + 1, x, out=out)
            out *= p[i]
            out -= np.multiply(i + k, p[i - 1], out=spare)
            out /= i + 1
        return p

    def _first_rule(self, n_max):
        """The graded half-line panels; a Gram whose entries pass the float
        range is refused before its weight overflows."""
        try:
            log_top = self._log_largest_entry(n_max)
        except OverflowError:  # lgamma past ~2.5e305
            log_top = math.inf
        if not log_top < _LOG_GRAM_RANGE:
            raise NumericError(
                f"the Gram matrix of {family_to_dict(self)} at n_max {n_max} has "
                f"entries of e^{log_top:g}, beyond the float64 range"
            )
        return _half_line_rule(functools.partial(weight, self), self.k)


class _Jacobi:
    """Jacobi facts: the classical weight (1-x)^alpha (1+x)^beta on (-1, 1),
    (alpha, beta) = `_exponents`."""

    _domain = (-1.0, 1.0)
    _window = (-0.99, 0.99)
    _gram_errors = {}  # Gauss levels are exact, so an overflow still warns

    def _log_classical_weight(self, x):
        al, be = self._exponents
        return al * np.log1p(-x) + be * np.log1p(x)

    def _member_values(self, count, x):
        """Row m (m = 0..count-1): the classical member P_m^(alpha,beta) at
        the points x."""
        alpha, beta = self._exponents
        p = np.empty((count,) + x.shape)
        p[0] = 1.0
        if count > 1:
            p[1] = 0.5 * ((alpha - beta) + (alpha + beta + 2) * x)
        ab, squares = alpha + beta, alpha**2 - beta**2
        spare = np.empty_like(p[0])
        for i in range(2, count):  # p[i] = ((c2 + c3 x) p[i-1] - c4 p[i-2]) / c1
            t = 2 * i + ab
            c1 = 2 * i * (i + ab) * (t - 2)
            c2 = (t - 1) * squares
            c3 = (t - 1) * t * (t - 2)
            c4 = 2 * (i + alpha - 1) * (i + beta - 1) * t
            out = p[i, ...]
            np.multiply(c3, x, out=out)
            out += c2
            out *= p[i - 1]
            out -= np.multiply(c4, p[i - 2], out=spare)
            out /= c1
        return p

    def _first_rule(self, n_max):
        """The Gauss rule of the whole weight with n_max + 1 nodes, which
        already integrates every product of two members exactly."""
        return gauss_jacobi_rule(*self._exponents, n_max + 1, self._pole)


class _Classical:
    """Classical facts: members of degrees 0, 1, ..., no rational factor."""

    _pole = None

    def _members(self, n_max):
        classical = self._monic_params()
        rows = _classical_monic(n_max, **classical) * _classical_leads(n_max, **classical)[:, None]
        return [Polynomial(c) for c in rows.astype(float)]

    def _tabulated(self, degree, x):
        """The degree-`degree` member at x, and its Polynomial if that was built."""
        return self._member_values(degree + 1, x)[degree], None

    def _certified(self, n_max):
        """The first n_max members as certified for a Gram matrix: none needed."""
        return None


class _X1:
    """X1 facts: members of degrees 1, 2, ... in two-term form, certified by
    `x1_eigenpairs` (called through the module, so that a wrapper of it sees
    every call), over a pole off the domain."""

    _collision = ""  # what makes a member undetermined, for x1_eigenpairs

    def _member_values(self, count, x):
        """Row n-1: the degree-n member at x from the hidden classical rows
        (the axis base's member values) over their leads, for gram_matrix
        (alpha, beta > -1).  From monomial coefficients a degree-16 X1-Laguerre
        member loses ~1e-9 of its size at large x, noise the Gram refinements
        cannot pass."""
        classical, shift, lower = self._two_term_factors(count, np.float64, False)
        p = super()._member_values(count, x)
        p /= _classical_leads(count, **classical)[:, None]
        vals = x + shift[:, None]
        vals *= p
        p[:-1] *= lower[1:, None]  # in place: two blocks of values at a time
        vals[1:] += p[:-1]
        return vals

    def _members(self, n_max):
        return [pair.polynomial for pair in x1_eigenpairs(self, n_max)]

    def _tabulated(self, degree, x):
        poly = x1_polynomial(self, degree).polynomial
        return poly(x), poly

    def _certified(self, n_max):
        return x1_eigenpairs(self, n_max)


@dataclass(frozen=True)
class ClassicalLaguerre(_Classical, _Laguerre):
    k: float

    def __post_init__(self):
        if not self.k > -1:
            raise ParameterError(f"Laguerre parameter must exceed -1, got k={self.k}")

    def _eigenvalue(self, degree):
        return float(degree)

    def _ode_coefficients(self, x):
        return -x, -(self.k + 1 - x), 0.0

    def _monic_params(self):
        return {"k": np.longdouble(self.k)}

    def _log_largest_entry(self, n_max):  # Gamma(n+k+1)/n! for L_n^(k), n < n_max
        return max(math.lgamma(n + self.k + 1) - math.lgamma(n + 1) for n in range(n_max))


@dataclass(frozen=True)
class ClassicalJacobi(_Classical, _Jacobi):
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1 and self.beta > -1):
            raise ParameterError(
                f"Jacobi parameters must exceed -1, got ({self.alpha}, {self.beta})"
            )

    _exponents = property(lambda self: (self.alpha, self.beta))

    def _eigenvalue(self, degree):
        return degree * (degree + self.alpha + self.beta + 1)

    def _ode_coefficients(self, x):
        al, be = self.alpha, self.beta
        return -(1 - x**2), -(be - al - (al + be + 2) * x), 0.0

    def _monic_params(self):
        alpha, beta = np.longdouble(self.alpha), np.longdouble(self.beta)
        return {"ab": (alpha + beta, beta - alpha)}


@dataclass(frozen=True)
class X1Laguerre(_X1, _Laguerre):
    k: float

    def __post_init__(self):
        if not self.k > 0:
            raise ParameterError(
                f"pole inside domain: X1-Laguerre needs k > 0 so -k stays off [0, inf), got k={self.k}"
            )

    _pole = property(lambda self: -self.k)
    _degree0_rows = property(lambda self: ((self.k, self.k), (-1.0, 1.0)))

    def _eigenvalue(self, degree):
        return float(degree - 1)

    def _ode_coefficients(self, x):
        k = self.k
        ratio = (x - k) / (x + k)
        return -x, ratio * (x + k + 1), -ratio

    def _two_term_factors(self, n_max, dtype, nudge):
        """shift_n = k+1, lower_n = n-1 (see `_two_term_members`)."""
        k = dtype(self.k)
        k = np.nextafter(k, dtype(np.inf)) if nudge else k
        return {"k": k}, np.full(n_max, k + 1), np.arange(n_max, dtype=dtype)

    def _log_largest_entry(self, n_max):  # (n-1)! (n+k) Gamma(n+k-1), degree n <= n_max
        k = self.k
        return max(math.lgamma(n) + math.log(n + k) + math.lgamma(n + k - 1)
                   for n in range(1, n_max + 1))


@dataclass(frozen=True)
class X1Jacobi(_X1, _Jacobi):
    a: float
    b: float

    _collision = ("; near 2ab = -N, N a positive integer, degrees d and N + 1 - d "
                  "share an eigenvalue")

    def __post_init__(self):
        if self.a == 0:
            raise ParameterError("X1-Jacobi parameter a must be nonzero")
        if not abs(self.b) > 1:
            raise ParameterError(
                f"pole inside domain: X1-Jacobi needs |b| > 1, got b={self.b}"
            )

    # the hidden classical (alpha, beta); they may lie at or below -1
    _exponents = property(lambda self: x1_jacobi_alpha_beta(self.a, self.b))
    _pole = property(lambda self: self.b)
    _degree0_rows = property(lambda self: ((-2 * self.a, self.b), (2 * self.a * self.b, -1.0)))

    def _eigenvalue(self, degree):
        return (degree - 1) * (degree + 2 * self.a * self.b)

    def _ode_coefficients(self, x):
        a, b = self.a, self.b
        c = b + 1.0 / a
        ratio = 2 * a * (1 - b * x) / (b - x)
        return x**2 - 1, ratio * (x - c), -ratio

    def _two_term_factors(self, n_max, dtype, nudge):
        """shift_n = -b - 2b/s, lower_n = 2 r_n / s with s = alpha+beta+2n-2
        and r_n = lead(P_{n-2}) / lead(P_{n-1}) (see `_two_term_members`)."""
        n = np.arange(1, n_max + 1, dtype=dtype)
        a, b = dtype(self.a), dtype(self.b)
        total = 2 * a * b
        total = np.nextafter(total, dtype(np.inf)) if nudge else total
        s = (2 * n - 2) + total
        ratio = _jacobi_lead_ratios(n_max, total)  # entry n-1 is r_n
        return {"ab": (total, 2 * a)}, -b - 2 * b / s, 2 * ratio / s


FamilySpec = Union[ClassicalLaguerre, ClassicalJacobi, X1Laguerre, X1Jacobi]

_FAMILY_KINDS = {cls.__name__: cls for cls in (ClassicalLaguerre, ClassicalJacobi,
                                               X1Laguerre, X1Jacobi)}


def family_to_dict(family: FamilySpec) -> dict:
    params = {k: float(v) for k, v in vars(family).items()}
    return {"kind": type(family).__name__, "params": params}


def family_from_dict(data: dict) -> FamilySpec:
    return _record_from_dict(data, _FAMILY_KINDS, "family")


def x1_jacobi_alpha_beta(a: float, b: float) -> tuple[float, float]:
    """Classical (alpha, beta) hiding behind X1-Jacobi (a, b): from
    beta - alpha = 2a and beta + alpha = 2ab."""
    if not abs(b) > 1:
        raise ParameterError(f"|b| must exceed 1, got b={b}")
    return a * b - a, a * b + a


@dataclass(frozen=True)
class EigenPair:
    eigenvalue: float
    polynomial: Polynomial


def family_eigenvalue(family: FamilySpec, degree: int) -> float:
    """Eigenvalue of the degree-`degree` member under the family's operator
    (classical operators oriented so the eigenvalue is +n resp. +n(n+a+b+1))."""
    return family._eigenvalue(degree)


# ---------------------------------------------------------------------------
# members from the classical two-term forms

# Rounding errors scale with the unit roundoff, so a float64 rebuild's departure
# from the long-double members, times the ratio of the roundoffs, estimates the
# members' error.  The rebuild moves its rounded parameter up one ulp so that
# the sensitivity to that rounding always shows (it can be exact by chance).
_PRECISION_GAIN = float(np.finfo(np.longdouble).eps / np.finfo(float).eps)
_MEMBER_TOL = 1e-14  # largest estimated error, relative to max |coefficient|
_RESIDUAL_TOL = 1e-9


def _two_term_members(family: FamilySpec, n_max: int, dtype, *, nudge: bool = False) -> np.ndarray:
    """Row n-1 (n = 1..n_max): ascending coefficients of the monic degree-n
    member (x + shift_n) p_{n-1} + lower_n p_{n-2}, in `dtype`.  The
    family's `_two_term_factors` give the classical parameters (k, or ab =
    (alpha+beta, beta-alpha)) of the monic p and the factors.  alpha+beta =
    2ab is rounded once and every factor that can vanish is an integer plus
    it, so a nearly vanishing factor is exact and the same wherever it
    recurs.  `nudge`: see _PRECISION_GAIN."""
    classical, shift, lower = family._two_term_factors(n_max, dtype, nudge)
    p = _classical_monic(n_max, **classical)
    out = np.zeros((n_max, n_max + 1), dtype=dtype)
    out[:, 1:] = p
    out[:, :-1] += shift[:, None] * p
    out[1:, :-1] += lower[1:, None] * p[:-1]
    return out


def _sample_points(family: FamilySpec, count: int = 50) -> np.ndarray:
    """Chebyshev points on the family's test window ([0, 40] or [-0.99, 0.99])."""
    lo, hi = family._window
    theta = (2 * np.arange(1, count + 1) - 1) * np.pi / (2 * count)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)


def _uncertified(family: FamilySpec, coeffs: np.ndarray, eigenvalues: np.ndarray) -> list[int]:
    """Degrees failing the rational-ODE residual at the sample points, all
    in one evaluation: max |L[y] - lam y| must be at most 1e-9 (1 + max |term|)
    or the float64 noise floor, 64 eps times the largest sum of term
    magnitudes (|coefficients| at |x|), which past degree ~18 of X1-Laguerre
    lies above the 1e-9 target.

    The powers x^j are cumulative products, and their absolute values are
    the powers of |x|; one product with the jet table gives every member's
    (y'', y', y), and each member's four terms are reduced as one array."""
    x = _sample_points(family)
    size = coeffs.shape[1]
    j = np.arange(size)
    power = np.empty((size, x.size))
    power[0], power[1:] = 1.0, x
    np.multiply.accumulate(power, axis=0, out=power)
    table = np.zeros((size, 3, x.size))  # column blocks (x^j)'', (x^j)', x^j
    table[2:, 0] = (j[2:] * j[1:-1])[:, None] * power[:-2]
    table[1:, 1] = j[1:, None] * power[:-1]
    table[:, 2] = power
    table = table.reshape(size, -1)

    def terms(c, t, coefficients, lam):
        """Entry (member, k, point): f2 y'', f1 y', f0 y, -lam y for k = 0..3."""
        jets = (c @ t).reshape(len(c), 3, -1)
        out = np.empty((len(c), 4, jets.shape[2]))
        np.multiply(jets, np.array(coefficients), out=out[:, :3])
        np.multiply(-lam, jets[:, 2], out=out[:, 3])
        return out

    lam = eigenvalues[:, None]
    signed = terms(coeffs, table, family._ode_coefficients(x), lam)
    resid = np.abs(signed.sum(axis=1)).max(axis=1)
    scale = 1.0 + np.abs(signed).reshape(len(coeffs), -1).max(axis=1)
    magnitude = np.abs(terms(np.abs(coeffs), np.abs(table),
                             family._ode_coefficients(np.abs(x)), np.abs(lam))).sum(axis=1)
    floor = 64 * np.finfo(float).eps * magnitude.max(axis=1)
    ok = resid <= np.maximum(_RESIDUAL_TOL * scale, floor)
    return [int(d) for d in np.flatnonzero(~ok) + 1]


def _require_x1(family) -> None:
    if not isinstance(family, _X1):
        raise UsageError(f"{type(family).__name__} is not an X1 family")


def x1_eigenpairs(family: FamilySpec, n_max: int):
    """All X1 eigenpairs with degrees 1..n_max, monic, ascending by degree.

    Members are the two-term forms of the module docstring, built from
    classical coefficients solved top-down from the classical ODE in
    np.longdouble and rounded once; eigenvalues are `family_eigenvalue`.
    Members do not depend on n_max; degree zero is absent (codimension gap).
    Two checks raise ConsistencyError naming the degrees that fail them: the
    estimated construction error (see _PRECISION_GAIN) must stay within 1e-14
    of the largest coefficient, and the rational-ODE residual must pass
    (`_uncertified`).  Where 2ab is at or near a negative integer, degrees d
    and 1 - 2ab - d share an eigenvalue: the higher member is not unique, and
    near the collision the two-term form cancels, so such degrees fail.
    """
    _require_x1(family)
    if not 1 <= n_max <= 32:
        raise UsageError(f"n_max must lie in 1..32, got {n_max}")
    with np.errstate(all="ignore"):  # a collision divides by zero; caught below
        coeffs = _two_term_members(family, n_max, np.longdouble).astype(float)
        rough = _two_term_members(family, n_max, np.float64, nudge=True)
        drift = np.max(np.abs(rough - coeffs), axis=1) / np.max(np.abs(coeffs), axis=1)
    unresolved = [int(d) for d in np.flatnonzero(~(_PRECISION_GAIN * drift <= _MEMBER_TOL)) + 1]
    if unresolved:
        raise ConsistencyError(
            f"X1 members of degrees {unresolved} of {family_to_dict(family)} are "
            f"not determined to {_MEMBER_TOL:g} relative{family._collision}"
        )
    eigenvalues = np.array([family_eigenvalue(family, d) for d in range(1, n_max + 1)])
    failed = _uncertified(family, coeffs, eigenvalues)
    if failed:
        raise ConsistencyError(
            f"X1 members of degrees {failed} of {family_to_dict(family)} fail "
            "the rational-ODE residual check"
        )
    # every row passed the checks above, so it is finite and ends in its
    # leading 1; packed, degree d takes entries (d-1)(d+2)/2 .. d(d+3)/2 - 1
    packed = coeffs[np.tri(n_max, n_max + 1, 1, dtype=bool)]
    packed.setflags(write=False)
    return [EigenPair(float(lam), Polynomial._trusted(packed[(d - 1) * (d + 2) // 2:d * (d + 3) // 2]))
            for d, lam in enumerate(eigenvalues.tolist(), start=1)]


def x1_polynomial(family: FamilySpec, degree: int) -> EigenPair:
    """Single X1 member of the given degree (degree >= 1)."""
    if degree == 0:
        raise UsageError(
            "codimension gap: X1 families have no degree-0 member"
        )
    return x1_eigenpairs(family, degree)[degree - 1]


def degree0_eigenfunction_exists(family: FamilySpec) -> bool:
    """Whether a constant solves the cleared X1 equation T y = lam S y.

    For y = 1 only the lowest two rows are nonzero: T 1 = -(x-k) and
    S 1 = x+k (X1-Laguerre), T 1 = -2a(1-bx) and S 1 = b-x (X1-Jacobi).
    Each row fixes lam = t_i / s_i, and a constant solves only if they agree,
    decided exactly on the cross-multiplied rows: for X1-Jacobi they agree
    only at b^2 = 1, however close |b| lies to 1.
    """
    _require_x1(family)
    (t0, s0), (t1, s1) = family._degree0_rows
    return t0 * s1 == t1 * s0


# ---------------------------------------------------------------------------
# residuals

def _ode_terms(family, lam, y, y1, y2, x):
    """Additive terms of L[y] - lam y from the jets of y at the points x;
    arrays broadcast, so one call serves a stack of members."""
    f2, f1, f0 = family._ode_coefficients(x)
    return [f2 * y2, f1 * y1, f0 * y, -lam * y]


def ode_residual(family: FamilySpec, pair: EigenPair, sample_points,
                 *, scaled: bool = False) -> float:
    """max |L[y] - lam y| over the samples, derivatives taken analytically
    from the coefficient vector.

    With scaled=True the maximum is divided by (1 + max |term|), the scale
    the residual invariants are stated against.
    """
    x = np.asarray(sample_points, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("sample points must be finite")
    pole = family._pole
    if pole is not None and np.any(x == pole):
        raise DomainError(f"sample point at pole x = {pole}")
    p = pair.polynomial
    terms = _ode_terms(family, pair.eigenvalue, p(x), p.derivative()(x),
                       p.derivative(2)(x), x)
    resid = np.max(np.abs(sum(terms)))
    if not scaled:
        return float(resid)
    scale = 1.0 + max(np.max(np.abs(t)) for t in terms)
    return float(resid / scale)


# ---------------------------------------------------------------------------
# weights, members, Gram matrices

def weight(family: FamilySpec, x):
    """Orthogonality weight at points strictly inside the family domain, the
    classical part x^k e^-x or (1-x)^alpha (1+x)^beta formed in log form
    (a product of powers overflows to inf * 0 at large exponents), over
    (x-pole)^2 for X1 families."""
    x = np.asarray(x, dtype=float)
    lo, hi = family._domain
    if np.any(x <= lo) or np.any(x >= hi):
        raise DomainError(f"weight argument outside open domain ({lo}, {hi})")
    classical = np.exp(family._log_classical_weight(x))
    return classical * (1.0 if family._pole is None else 1.0 / (x - family._pole) ** 2)


def family_members(family: FamilySpec, n_max: int) -> list[Polynomial]:
    """First n_max members: degrees 0..n_max-1 for classical families, their
    monic coefficients (`_classical_monic`) times their leads in
    np.longdouble, rounded once; degrees 1..n_max for X1 families."""
    if n_max < 1:
        raise UsageError("n_max must be positive")
    return family._members(n_max)


# Gram convergence: two successive rule levels agree to _GRAM_TOL relative to
# the largest entry within _MAX_REFINEMENTS refinements.
_GRAM_TOL = 1e-10
_MAX_REFINEMENTS = 6
# The symmetrization g + g.T doubles the largest entry on the way.
_LOG_GRAM_RANGE = math.log(np.finfo(float).max / 2)


def _gram_on_rule(family, n_max, rule):
    vals = family._member_values(n_max, rule.nodes)
    g = (vals * rule.weights) @ vals.T
    return 0.5 * (g + g.T)


def gram_matrix(family: FamilySpec, n_max: int) -> np.ndarray:
    """Gram matrix G_ij = integral p_i p_j w over the first n_max members,
    evaluated through the classical recurrences (X1 members as two-term
    forms of them, after `x1_eigenpairs` has certified them).

    Every rule carries the family's whole weight w.  Jacobi families
    integrate on the Gauss rule of (1-x)^alpha (1+x)^beta, over (x-b)^2 for
    X1 families (`gauss_jacobi_rule` with the pole b), starting at n_max + 1
    nodes: every level is exact however close b lies to +-1.  Laguerre
    families integrate on the graded half-line panels, which sample w at
    their nodes; a Gram whose entries pass the float range raises
    NumericError first.  The rule is refined (`QuadratureRule.refined`:
    nodes doubled, panels halved) until two successive levels agree to 1e-10
    relative to the largest entry, which takes one refinement for Jacobi
    families and one or two for Laguerre families; disagreement past 6
    refinements raises AccuracyError.
    """
    return _certified_gram(family, n_max)[1]


def x1_members_and_gram(family: FamilySpec, n_max: int) -> tuple[list[EigenPair], np.ndarray]:
    """The first n_max members of an X1 family as certified by
    `x1_eigenpairs`, and their `gram_matrix`, from one build of them."""
    _require_x1(family)
    return _certified_gram(family, n_max)


def _certified_gram(family: FamilySpec, n_max: int):
    """The family's `_certified` members (None for classical families) and
    their `gram_matrix`."""
    if not 1 <= n_max <= 16:
        raise UsageError(f"n_max must lie in 1..16, got {n_max}")
    members = family._certified(n_max)
    rule = family._first_rule(n_max)
    with np.errstate(**family._gram_errors):
        g_prev = _gram_on_rule(family, n_max, rule)
        for _ in range(_MAX_REFINEMENTS):
            rule = rule.refined()
            g = _gram_on_rule(family, n_max, rule)
            if np.max(np.abs(g - g_prev)) <= _GRAM_TOL * (1.0 + np.max(np.abs(g))):
                return members, g
            g_prev = g
    raise AccuracyError(
        f"Gram quadrature did not converge to {_GRAM_TOL} within "
        f"{_MAX_REFINEMENTS} refinements for {family_to_dict(family)}"
    )


def max_offdiag_ratio(gram: np.ndarray) -> float:
    """max_{i != j} |G_ij| / sqrt(G_ii G_jj); zero for a 1x1 matrix."""
    d = np.sqrt(np.diag(gram))
    normalized = gram / np.outer(d, d)
    off = normalized - np.diag(np.diag(normalized))
    return float(np.max(np.abs(off)))

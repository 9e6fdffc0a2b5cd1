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

import contextlib
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
from .polynomials import (
    Polynomial,
    _classical_leads,
    _classical_monic,
    _jacobi_lead_ratios,
    _jacobi_rows,
    _laguerre_rows,
)
from .quadrature import QuadratureRule, _half_line_rule, gauss_jacobi_rule

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

@dataclass(frozen=True)
class ClassicalLaguerre:
    k: float

    def __post_init__(self):
        if not self.k > -1:
            raise ParameterError(f"Laguerre parameter must exceed -1, got k={self.k}")


@dataclass(frozen=True)
class ClassicalJacobi:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > -1 and self.beta > -1):
            raise ParameterError(
                f"Jacobi parameters must exceed -1, got ({self.alpha}, {self.beta})"
            )


@dataclass(frozen=True)
class X1Laguerre:
    k: float

    def __post_init__(self):
        if not self.k > 0:
            raise ParameterError(
                f"pole inside domain: X1-Laguerre needs k > 0 so -k stays off [0, inf), got k={self.k}"
            )


@dataclass(frozen=True)
class X1Jacobi:
    a: float
    b: float

    def __post_init__(self):
        if self.a == 0:
            raise ParameterError("X1-Jacobi parameter a must be nonzero")
        if not abs(self.b) > 1:
            raise ParameterError(
                f"pole inside domain: X1-Jacobi needs |b| > 1, got b={self.b}"
            )


FamilySpec = Union[ClassicalLaguerre, ClassicalJacobi, X1Laguerre, X1Jacobi]

_FAMILY_KINDS = {
    "ClassicalLaguerre": ClassicalLaguerre,
    "ClassicalJacobi": ClassicalJacobi,
    "X1Laguerre": X1Laguerre,
    "X1Jacobi": X1Jacobi,
}


def family_to_dict(family: FamilySpec) -> dict:
    params = {k: float(v) for k, v in vars(family).items()}
    return {"kind": type(family).__name__, "params": params}


def family_from_dict(data: dict) -> FamilySpec:
    try:
        kind = data["kind"]
        params = data.get("params", {})
        cls = _FAMILY_KINDS[kind]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"invalid family spec: {data!r}") from exc
    try:
        return cls(**params)
    except TypeError as exc:
        raise UsageError(f"invalid parameters for {kind}: {params!r}") from exc


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
    if isinstance(family, ClassicalLaguerre):
        return float(degree)
    if isinstance(family, ClassicalJacobi):
        return degree * (degree + family.alpha + family.beta + 1)
    if isinstance(family, X1Laguerre):
        return float(degree - 1)
    return (degree - 1) * (degree + 2 * family.a * family.b)


# ---------------------------------------------------------------------------
# members from the classical two-term forms

# Rounding errors scale with the unit roundoff, so a float64 rebuild's departure
# from the long-double members, times the ratio of the roundoffs, estimates the
# members' error.  The rebuild moves its rounded parameter up one ulp so that
# the sensitivity to that rounding always shows (it can be exact by chance).
_PRECISION_GAIN = float(np.finfo(np.longdouble).eps / np.finfo(float).eps)
_MEMBER_TOL = 1e-14  # largest estimated error, relative to max |coefficient|
_RESIDUAL_TOL = 1e-9


def _two_term_factors(family: FamilySpec, n_max: int, dtype, nudge: bool = False):
    """Classical parameters (k or ab = (alpha+beta, beta-alpha)) and factors
    of the monic members (x + shift_n) p_{n-1} + lower_n p_{n-2}, in `dtype`:
    shift_n = k+1, lower_n = n-1 (X1-Laguerre) resp. shift_n = -b - 2b/s,
    lower_n = 2 r_n / s with s = alpha+beta+2n-2 and r_n = lead(P_{n-2}) /
    lead(P_{n-1}) (X1-Jacobi).  alpha+beta = 2ab is rounded once and every
    factor that can vanish is an integer plus it, so a nearly vanishing factor
    is exact and the same wherever it recurs.  `nudge`: see _PRECISION_GAIN.
    """
    n = np.arange(1, n_max + 1, dtype=dtype)
    if isinstance(family, X1Laguerre):
        k = dtype(family.k)
        k = np.nextafter(k, dtype(np.inf)) if nudge else k
        return {"k": k}, np.full(n_max, k + 1), n - 1
    a, b = dtype(family.a), dtype(family.b)
    total = 2 * a * b
    total = np.nextafter(total, dtype(np.inf)) if nudge else total
    s = (2 * n - 2) + total
    ratio = _jacobi_lead_ratios(n_max, total)  # entry n-1 is r_n
    return {"ab": (total, 2 * a)}, -b - 2 * b / s, 2 * ratio / s


def _two_term_members(family: FamilySpec, n_max: int, dtype, *, nudge: bool = False) -> np.ndarray:
    """Row n-1 (n = 1..n_max): ascending coefficients of the monic degree-n
    member, in `dtype` (see `_two_term_factors`)."""
    classical, shift, lower = _two_term_factors(family, n_max, dtype, nudge)
    p = _classical_monic(n_max, **classical)
    out = np.zeros((n_max, n_max + 1), dtype=dtype)
    out[:, 1:] = p
    out[:, :-1] += shift[:, None] * p
    out[1:, :-1] += lower[1:, None] * p[:-1]
    return out


def _two_term_values(family: FamilySpec, n_max: int, x: np.ndarray) -> np.ndarray:
    """Row n-1: the degree-n member at x from the classical recurrence rows
    over their leads, for gram_matrix (alpha, beta > -1).  From monomial
    coefficients a degree-16 X1-Laguerre member loses ~1e-9 of its size at
    large x, noise the Gram refinements cannot pass."""
    classical, shift, lower = _two_term_factors(family, n_max, np.float64)
    if isinstance(family, X1Laguerre):
        p = _laguerre_rows(n_max, classical["k"], x)
    else:
        p = _jacobi_rows(n_max, *x1_jacobi_alpha_beta(family.a, family.b), x)
    p /= _classical_leads(n_max, **classical)[:, None]
    vals = x + shift[:, None]
    vals *= p
    p[:-1] *= lower[1:, None]  # in place: two blocks of values at a time
    vals[1:] += p[:-1]
    return vals


def _sample_points(family: FamilySpec, count: int = 50) -> np.ndarray:
    """Chebyshev points on the family's test window ([0, 40] or [-0.99, 0.99])."""
    lo, hi = (0.0, 40.0) if isinstance(family, (ClassicalLaguerre, X1Laguerre)) else (-0.99, 0.99)
    theta = (2 * np.arange(1, count + 1) - 1) * np.pi / (2 * count)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)


def _uncertified(family: FamilySpec, coeffs: np.ndarray, eigenvalues: np.ndarray) -> list[int]:
    """Degrees failing the rational-ODE residual at the sample points, all
    in one evaluation: max |L[y] - lam y| must be at most 1e-9 (1 + max |term|)
    or the float64 noise floor, 64 eps times the largest sum of term
    magnitudes (|coefficients| at |x|), which past degree ~18 of X1-Laguerre
    lies above the 1e-9 target."""
    x = _sample_points(family)
    lam = eigenvalues[:, None]

    def jets(c, t):
        j = np.arange(c.shape[1])
        power = t[:, None] ** j
        first, second = np.zeros_like(power), np.zeros_like(power)
        first[:, 1:] = j[1:] * power[:, :-1]
        second[:, 2:] = (j[2:] * j[1:-1]) * power[:, :-2]
        return c @ power.T, c @ first.T, c @ second.T

    terms = _ode_terms(family, lam, *jets(coeffs, x), x)
    resid = np.max(np.abs(sum(terms)), axis=1)
    scale = 1.0 + np.max([np.max(np.abs(t), axis=1) for t in terms], axis=0)
    magnitude = sum(np.abs(t) for t in _ode_terms(family, np.abs(lam),
                                                  *jets(np.abs(coeffs), np.abs(x)),
                                                  np.abs(x)))
    floor = 64 * np.finfo(float).eps * np.max(magnitude, axis=1)
    ok = resid <= np.maximum(_RESIDUAL_TOL * scale, floor)
    return [int(d) for d in np.flatnonzero(~ok) + 1]


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
    if not isinstance(family, (X1Laguerre, X1Jacobi)):
        raise UsageError(
            f"x1_eigenpairs needs an X1 family, got {type(family).__name__}"
        )
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
            f"not determined to {_MEMBER_TOL:g} relative; near 2ab = -N, N a positive "
            "integer, degrees d and N + 1 - d share an eigenvalue"
        )
    eigenvalues = np.array([family_eigenvalue(family, d) for d in range(1, n_max + 1)])
    failed = _uncertified(family, coeffs, eigenvalues)
    if failed:
        raise ConsistencyError(
            f"X1 members of degrees {failed} of {family_to_dict(family)} fail "
            "the rational-ODE residual check"
        )
    return [EigenPair(float(lam), Polynomial(c[: d + 1]))
            for d, (lam, c) in enumerate(zip(eigenvalues, coeffs), start=1)]


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
    Each row fixes lam = t_i / s_i, and a constant solves only if they agree.
    """
    if isinstance(family, X1Laguerre):
        rows = ((family.k, family.k), (-1.0, 1.0))
    elif isinstance(family, X1Jacobi):
        a, b = family.a, family.b
        rows = ((-2 * a, b), (2 * a * b, -1.0))
    else:
        raise UsageError(f"{type(family).__name__} is not an X1 family")
    (t0, s0), (t1, s1) = rows
    return abs(t0 / s0 - t1 / s1) < 1e-12 * (1 + abs(t0 / s0))


# ---------------------------------------------------------------------------
# residuals

def _ode_terms(family, lam, y, y1, y2, x):
    """Additive terms of L[y] - lam y from the jets of y at the points x;
    arrays broadcast, so one call serves a stack of members."""
    if isinstance(family, ClassicalLaguerre):
        f2, f1, f0 = -x, -(family.k + 1 - x), 0.0
    elif isinstance(family, ClassicalJacobi):
        al, be = family.alpha, family.beta
        f2, f1, f0 = -(1 - x**2), -(be - al - (al + be + 2) * x), 0.0
    elif isinstance(family, X1Laguerre):
        k = family.k
        ratio = (x - k) / (x + k)
        f2, f1, f0 = -x, ratio * (x + k + 1), -ratio
    else:
        a, b = family.a, family.b
        c = b + 1.0 / a
        ratio = 2 * a * (1 - b * x) / (b - x)
        f2, f1, f0 = x**2 - 1, ratio * (x - c), -ratio
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
    if isinstance(family, X1Laguerre) and np.any(x == -family.k):
        raise DomainError(f"sample point at pole x = {-family.k}")
    if isinstance(family, X1Jacobi) and np.any(x == family.b):
        raise DomainError(f"sample point at pole x = {family.b}")
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

def _jacobi_exponents(family: FamilySpec) -> tuple[float, float]:
    """(alpha, beta) of the classical Jacobi weight of a Jacobi family."""
    if isinstance(family, ClassicalJacobi):
        return family.alpha, family.beta
    return x1_jacobi_alpha_beta(family.a, family.b)


def _rational_factor(family: FamilySpec, x: np.ndarray):
    """The weight over its classical part: 1/(x+k)^2 (X1-Laguerre),
    1/(x-b)^2 (X1-Jacobi), 1 (classical families)."""
    if isinstance(family, X1Laguerre):
        return 1.0 / (x + family.k) ** 2
    if isinstance(family, X1Jacobi):
        return 1.0 / (x - family.b) ** 2
    return 1.0


def weight(family: FamilySpec, x):
    """Orthogonality weight at points strictly inside the family domain,
    the classical part x^k e^-x or (1-x)^alpha (1+x)^beta formed in log
    form (a product of powers overflows to inf * 0 at large exponents)."""
    x = np.asarray(x, dtype=float)
    laguerre = isinstance(family, (ClassicalLaguerre, X1Laguerre))
    lo, hi = (0.0, math.inf) if laguerre else (-1.0, 1.0)
    if np.any(x <= lo) or np.any(x >= hi):
        raise DomainError(f"weight argument outside open domain ({lo}, {hi})")
    if laguerre:
        log_classical = family.k * np.log(x) - x
    else:
        al, be = _jacobi_exponents(family)
        log_classical = al * np.log1p(-x) + be * np.log1p(x)
    return np.exp(log_classical) * _rational_factor(family, x)


def family_members(family: FamilySpec, n_max: int) -> list[Polynomial]:
    """First n_max members: degrees 0..n_max-1 for classical families, their
    monic coefficients (`_classical_monic`) times their leads in
    np.longdouble, rounded once; degrees 1..n_max for X1 families."""
    if n_max < 1:
        raise UsageError("n_max must be positive")
    if isinstance(family, (X1Laguerre, X1Jacobi)):
        return [pair.polynomial for pair in x1_eigenpairs(family, n_max)]
    if isinstance(family, ClassicalLaguerre):
        classical = {"k": np.longdouble(family.k)}
    else:
        alpha, beta = np.longdouble(family.alpha), np.longdouble(family.beta)
        classical = {"ab": (alpha + beta, beta - alpha)}
    rows = _classical_monic(n_max, **classical) * _classical_leads(n_max, **classical)[:, None]
    return [Polynomial(c) for c in rows.astype(float)]


# Gram convergence: two successive rule levels agree to _GRAM_TOL relative to
# the largest entry within _MAX_REFINEMENTS refinements.
_GRAM_TOL = 1e-10
_MAX_REFINEMENTS = 6
# The symmetrization g + g.T doubles the largest entry on the way.
_LOG_GRAM_RANGE = math.log(np.finfo(float).max / 2)


def _log_largest_laguerre_entry(family, n_max: int) -> float:
    """Log of the largest entry, a diagonal one, of a Laguerre family's Gram
    matrix: Gamma(n+k+1)/n! for L_n^(k), n < n_max, and (n-1)! (n+k)
    Gamma(n+k-1) for the monic X1 member of degree n <= n_max."""
    k = family.k
    try:
        if isinstance(family, ClassicalLaguerre):
            return max(math.lgamma(n + k + 1) - math.lgamma(n + 1) for n in range(n_max))
        return max(math.lgamma(n) + math.log(n + k) + math.lgamma(n + k - 1)
                   for n in range(1, n_max + 1))
    except OverflowError:  # lgamma past ~2.5e305
        return math.inf


def _first_rule(family: FamilySpec, n_max: int) -> QuadratureRule:
    """First rule of `gram_matrix`: the graded half-line panels, or the Gauss
    rule of the family's whole weight with n_max + 1 nodes, which already
    integrates every product of two members exactly.  A Laguerre Gram whose
    entries pass the float range is refused before its weight overflows."""
    if isinstance(family, (ClassicalLaguerre, X1Laguerre)):
        log_top = _log_largest_laguerre_entry(family, n_max)
        if not log_top < _LOG_GRAM_RANGE:
            raise NumericError(
                f"the Gram matrix of {family_to_dict(family)} at n_max {n_max} has "
                f"entries of e^{log_top:.1f}, beyond the float64 range"
            )
        return _half_line_rule(functools.partial(weight, family), family.k)
    alpha, beta = _jacobi_exponents(family)
    pole = family.b if isinstance(family, X1Jacobi) else None
    return gauss_jacobi_rule(alpha, beta, n_max + 1, pole)


def _member_values(family: FamilySpec, n_max: int, x: np.ndarray) -> np.ndarray:
    """Row m: the (m+1)-th member of `family` (`family_members`) at x, from
    the classical recurrences (X1 members through `_two_term_values`)."""
    if isinstance(family, ClassicalLaguerre):
        return _laguerre_rows(n_max, family.k, x)
    if isinstance(family, ClassicalJacobi):
        return _jacobi_rows(n_max, family.alpha, family.beta, x)
    return _two_term_values(family, n_max, x)


def _gram_on_rule(family, n_max, rule):
    vals = _member_values(family, n_max, rule.nodes)
    g = (vals * rule.weights) @ vals.T
    return 0.5 * (g + g.T)


def gram_matrix(family: FamilySpec, n_max: int) -> np.ndarray:
    """Gram matrix G_ij = integral p_i p_j w over the first n_max members,
    evaluated through the classical recurrences (X1 members through
    `_two_term_values`, after `x1_eigenpairs` has certified them).

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
    if isinstance(family, (X1Laguerre, X1Jacobi)):
        return x1_members_and_gram(family, n_max)[1]
    _check_gram_size(n_max)
    return _gram(family, n_max)


def x1_members_and_gram(family: FamilySpec, n_max: int) -> tuple[list[EigenPair], np.ndarray]:
    """The first n_max members of an X1 family as certified by
    `x1_eigenpairs`, and their `gram_matrix`, from one build of them."""
    if not isinstance(family, (X1Laguerre, X1Jacobi)):
        raise UsageError(f"not an X1 family: {family_to_dict(family)}")
    _check_gram_size(n_max)
    members = x1_eigenpairs(family, n_max)
    return members, _gram(family, n_max)


def _check_gram_size(n_max: int) -> None:
    if not 1 <= n_max <= 16:
        raise UsageError(f"n_max must lie in 1..16, got {n_max}")


def _gram(family: FamilySpec, n_max: int) -> np.ndarray:
    """`gram_matrix` without the certification of X1 members."""
    rule = _first_rule(family, n_max)
    # near the NumericError bound a coarse Laguerre level can overshoot the
    # float range; its inf entries then fail the comparison like any other
    # miss.  Jacobi levels are exact, so there an overflow still warns.
    laguerre = isinstance(family, (ClassicalLaguerre, X1Laguerre))
    with np.errstate(over="ignore", invalid="ignore") if laguerre else contextlib.nullcontext():
        g_prev = _gram_on_rule(family, n_max, rule)
        for _ in range(_MAX_REFINEMENTS):
            rule = rule.refined()
            g = _gram_on_rule(family, n_max, rule)
            if np.max(np.abs(g - g_prev)) <= _GRAM_TOL * (1.0 + np.max(np.abs(g))):
                return g
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

"""Correctness oracles for the benchmark, written apart from xop.

Nothing here calls into xop: the analytic levels are the closed formulas of
the xop README table, the X1 operators are re-derived from their stated
form, and the integrals use scipy's adaptive quadrature instead of xop's
panel rules.  Every check returns a number (a defect); the caller compares
it with the tolerance named next to it.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.integrate
import scipy.special

P = np.polynomial.polynomial

RADIAL_KINDS = ("HartmannRadial", "DiracOscillator", "HydrogenLike")
ANGULAR_KINDS = ("HartmannAngularI", "HartmannAngularII")

# the report's own spectral tolerances (xop's Tolerances defaults)
SPECTRAL_TOL = {"r": 1e-4, "theta": 1e-3}
X1_RESIDUAL_TOL = 1e-9
LAGUERRE_REFERENCE_TOL = 1e-7
GRAM_TOL = 1e-8
PSI_TOL = 1e-9
POTENTIAL_SUM_TOL = 1e-10


def coordinate(kind: str) -> str:
    if kind in RADIAL_KINDS:
        return "r"
    if kind in ANGULAR_KINDS:
        return "theta"
    raise ValueError(f"unknown system kind {kind!r}")


def analytic_levels(kind: str, params: dict, count: int) -> np.ndarray:
    """Lowest `count` eigenvalues from the closed formulas; the coupling
    form lambda_n = n + s + 1 for the hydrogen-like system."""
    n = np.arange(count, dtype=float)
    if kind == "HartmannRadial":
        return (2 * n + params["l"] + 1.5) * params.get("omega", 1.0)
    if kind == "DiracOscillator":
        return 2 * n + params["l"] + 1.5
    if kind == "HydrogenLike":
        return n + params["s"] + 1
    if kind == "HartmannAngularI":
        return (params["s"] + n) ** 2
    if kind == "HartmannAngularII":
        return (params["lambda_a"] + params["s"] + 2 * n) ** 2
    raise ValueError(f"unknown system kind {kind!r}")


def level_error(kind: str, params: dict, values) -> float:
    """max |E - analytic| over a list of ascending eigenvalues."""
    values = np.asarray(values, dtype=float)
    return float(np.max(np.abs(values - analytic_levels(kind, params, values.size))))


# ---------------------------------------------------------------------------
# X1 families

def x1_eigenvalue(kind: str, params: dict, degree: int) -> float:
    """n - 1 for X1-Laguerre, (n - 1)(n + 2ab) for X1-Jacobi."""
    if kind == "X1Laguerre":
        return float(degree - 1)
    if kind == "X1Jacobi":
        return (degree - 1) * (degree + 2 * params["a"] * params["b"])
    raise ValueError(f"not an X1 family: {kind!r}")


def x1_samples(kind: str) -> np.ndarray:
    if kind == "X1Laguerre":
        return np.linspace(0.05, 30.0, 61)
    return np.linspace(-0.97, 0.97, 61)


def _x1_terms(kind, params, coeffs, x, eigenvalue, bracket_sign, absolute):
    """Additive terms of L[y] - lam y; with absolute=True each replaced by
    the magnitude its float64 evaluation works with."""
    c = np.asarray(coeffs, dtype=float)
    xe = np.abs(x) if absolute else x
    ce = np.abs(c) if absolute else c
    y = P.polyval(xe, ce)
    y1 = P.polyval(xe, P.polyder(ce))
    y2 = P.polyval(xe, P.polyder(ce, 2))
    if kind == "X1Laguerre":
        k = params["k"]
        ratio = (x - k) / (x + k)
        factors = (-x, ratio * (x + k + 1), bracket_sign * ratio, -eigenvalue)
    else:
        a, b = params["a"], params["b"]
        c_pole = b + 1.0 / a
        ratio = 2 * a * (1 - b * x) / (b - x)
        factors = (x**2 - 1, ratio * (x - c_pole), bracket_sign * ratio, -eigenvalue)
    values = (y2, y1, y, y)
    if absolute:
        return [np.abs(f) * v for f, v in zip(factors, values)]
    return [f * v for f, v in zip(factors, values)]


def _x1_residual_parts(kind, params, degree, coeffs, bracket_sign, eigenvalue):
    """|L[y] - lam y| at the samples and the magnitude the float64
    evaluation handles there, or None for a member that is not monic of the
    stated degree."""
    c = np.asarray(coeffs, dtype=float)
    if c.size != degree + 1 or c[-1] != 1.0:
        return None
    lam = x1_eigenvalue(kind, params, degree) if eigenvalue is None else eigenvalue
    x = x1_samples(kind)
    resid = np.abs(sum(_x1_terms(kind, params, c, x, lam, bracket_sign, False)))
    scale = sum(_x1_terms(kind, params, c, x, lam, bracket_sign, True))
    return resid, scale


def x1_residual(kind: str, params: dict, degree: int, coeffs, *,
                bracket_sign: float = -1.0, eigenvalue: float | None = None) -> float:
    """Scaled rational-ODE residual of one X1 member: max |L[y] - lam y| over
    the samples divided by the largest magnitude the evaluation handles, the
    standard xop certifies its members against.  The eigenvalue is the
    analytic one unless given; a non-monic member reads infinity."""
    parts = _x1_residual_parts(kind, params, degree, coeffs, bracket_sign, eigenvalue)
    return math.inf if parts is None else float(np.max(parts[0]) / np.max(parts[1]))


def x1_residual_pointwise(kind: str, params: dict, degree: int, coeffs) -> float:
    """The same residual divided point by point by the magnitude at that
    point: it also sees errors of the low-order coefficients, which the
    largest magnitude hides at high degree."""
    parts = _x1_residual_parts(kind, params, degree, coeffs, -1.0, None)
    return math.inf if parts is None else float(np.max(parts[0] / parts[1]))


def x1_laguerre_reference(k: float, degree: int, x) -> np.ndarray:
    """monic(-(x+k+1) L_{n-1}^(k) + L_{n-2}^(k)) from scipy's Laguerre."""
    x = np.asarray(x, dtype=float)
    low = scipy.special.genlaguerre(degree - 2, k)(x) if degree >= 2 else 0.0
    raw = -(x + k + 1) * scipy.special.genlaguerre(degree - 1, k)(x) + low
    # leading coefficient of -(x+k+1) L_{n-1}^(k) is (-1)^n / (n-1)!
    return raw * (-1) ** degree * math.factorial(degree - 1)


def laguerre_reference_error(k: float, degree: int, coeffs) -> float:
    """Largest gap between a member and the classical two-term form on the
    oscillation window [0, 4n + 2k + 4], relative point by point to the
    magnitude the member's float64 evaluation handles there."""
    x = np.linspace(0.0, 4 * degree + 2 * k + 4, 81)
    c = np.asarray(coeffs, dtype=float)
    ref = x1_laguerre_reference(k, degree, x)
    gap = np.abs(P.polyval(x, c) - ref)
    return float(np.max(gap / P.polyval(x, np.abs(c))))


def x1_weight(kind: str, params: dict, x):
    """Orthogonality weight without its endpoint power factors."""
    if kind == "X1Laguerre":
        return np.exp(-x) / (x + params["k"]) ** 2
    return 1.0 / (x - params["b"]) ** 2


def x1_weight_powers(kind: str, params: dict) -> tuple[float, float]:
    """Exponents of the weight at the lower and upper end of the domain."""
    if kind == "X1Laguerre":
        return params["k"], 0.0
    a, b = params["a"], params["b"]
    return a * b + a, a * b - a  # beta at -1, alpha at +1


def gram_entry(kind: str, params: dict, ci, cj) -> float:
    """Integral of p_i p_j w by scipy.integrate.quad, with the algebraic
    endpoint factors handled by QUADPACK's QAWS rule."""
    def f(x):
        return P.polyval(x, ci) * P.polyval(x, cj) * x1_weight(kind, params, x)

    lo_pow, hi_pow = x1_weight_powers(kind, params)
    if kind == "X1Laguerre":
        head, _ = scipy.integrate.quad(f, 0.0, 1.0, weight="alg", wvar=(lo_pow, 0.0),
                                       epsabs=0.0, epsrel=1e-12, limit=200)
        tail, _ = scipy.integrate.quad(lambda x: f(x) * x**lo_pow, 1.0, np.inf,
                                       epsabs=0.0, epsrel=1e-12, limit=200)
        return head + tail
    value, _ = scipy.integrate.quad(f, -1.0, 1.0, weight="alg", wvar=(lo_pow, hi_pow),
                                    epsabs=0.0, epsrel=1e-12, limit=200)
    return value


def gram_entries_error(kind: str, params: dict, members, gram, entries) -> float:
    """max |G_ij - quad_ij| / sqrt(G_ii G_jj) over the listed (i, j)."""
    gram = np.asarray(gram, dtype=float)
    size = gram.shape[0]
    if gram.shape != (size, size) or len(members) != size:
        return math.inf
    diag = np.sqrt(np.abs(np.diag(gram)))
    worst = 0.0
    with warnings.catch_warnings():
        # QUADPACK flags roundoff near its 1e-12 target; the check is at GRAM_TOL
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        for i, j in entries:
            ref = gram_entry(kind, params, members[i], members[j])
            worst = max(worst, abs(gram[i, j] - ref) / (diag[i] * diag[j]))
    return float(worst)


def x1_implied_eigenvalue(kind: str, params: dict, degree: int, coeffs) -> float:
    """Least-squares eigenvalue <y, L0 y> / <y, y> of a member over the
    samples, L0 being the X1 operator without its eigenvalue term.  Each
    sample is weighted by the inverse square of the magnitude its float64
    evaluation handles, so the estimate reflects the member, not the
    cancellation in evaluating it."""
    c = np.asarray(coeffs, dtype=float)
    x = x1_samples(kind)
    _, scale = _x1_residual_parts(kind, params, degree, c, -1.0, None)
    weights = 1.0 / scale**2
    y = P.polyval(x, c)
    l0y = sum(_x1_terms(kind, params, c, x, 0.0, -1.0, False))
    return float(np.dot(weights * y, l0y) / np.dot(weights * y, y))


# ---------------------------------------------------------------------------
# tables

def psi_defect(x, psi) -> float:
    """Largest departure of the grid eigenfunction columns from an
    orthonormal set under the discrete L2 product sum(f g) h."""
    x = np.asarray(x, dtype=float)
    psi = np.asarray(psi, dtype=float)
    h = (x[-1] - x[0]) / (x.size - 1)
    overlap = psi.T @ psi * h
    return float(np.max(np.abs(overlap - np.eye(psi.shape[1]))))


def potential_sum_defect(v_original, v_e, v_extended) -> float:
    """max |V_extended - V_original - V_e| relative to the terms' size."""
    v_original, v_e, v_extended = (np.asarray(v, dtype=float)
                                   for v in (v_original, v_e, v_extended))
    scale = 1.0 + np.abs(v_original) + np.abs(v_e)
    return float(np.max(np.abs(v_extended - v_original - v_e) / scale))

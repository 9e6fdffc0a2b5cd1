"""Quadrature rules for the Gram-matrix orthogonality checks.

Every rule carries its whole weight in its weights, so an integral of f
against the weight is sum(weights * f(nodes)).  Two kinds of rule, each
refined by `QuadratureRule.refined`, which is what the convergence checks in
gram-matrix assembly rely on:

* Gauss rules on (-1, 1) (`gauss_jacobi_rule`) of the Jacobi weight
  (1-x)^alpha (1+x)^beta, divided by (x-pole)^2 when a pole outside [-1, 1]
  is given, integrate polynomials of degree below 2 count exactly, however
  close the pole lies to the interval.  The nodes are the eigenvalues of the
  symmetric tridiagonal matrix of the weight's recurrence (Golub & Welsch
  1969, "Calculation of Gauss quadrature rules"), the weights the
  Christoffel numbers mass / sum_k q_k(x)^2 of the orthonormal polynomials
  q_k, formed degree by degree so that memory stays linear in count, or, for
  divided weights up to 512 nodes, the mass times the squared first
  eigenvector components.  The recurrence of the divided weight comes from the
  Jacobi one by two linear-divisor modifications (Uvarov; Gautschi 2004,
  "Orthogonal Polynomials: Computation and Approximation", sec. 2.4), driven
  by one backward continued-fraction sweep.  A refinement doubles the node
  count.
* The half line is mapped to (0, 1) through x = t / (1 - t) and covered by
  Gauss-Legendre panels (`_half_line_rule`), graded geometrically toward
  t = 0 for the algebraic factor x^e and toward t = 1, where the bulk of an
  exponentially decaying integrand with a polynomial factor of degree ~30
  lies (x of order tens).  The weight, a callable, is sampled at the nodes
  and multiplied into the panel weights.  A refinement splits every panel in
  two.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AccuracyError, NumericError, ParameterError

__all__ = ["QuadratureRule", "gauss_jacobi_rule"]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights, the weights carrying the whole weight function."""

    nodes: np.ndarray
    weights: np.ndarray
    _refine: Callable[[], "QuadratureRule"] = field(repr=False, compare=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    def refined(self) -> "QuadratureRule":
        """Same construction with twice the Gauss points, or with every panel
        split in half."""
        return self._refine()


def gauss_jacobi_rule(alpha: float, beta: float, count: int,
                      pole: float | None = None) -> QuadratureRule:
    """`count`-point Gauss rule of the weight (1-x)^alpha (1+x)^beta on
    (-1, 1), divided by (x-pole)^2 if a pole with |pole| > 1 is given; exact
    for polynomials of degree below 2 count.

    The total mass of the Jacobi weight, 2^(s+1) Gamma(alpha+1)
    Gamma(beta+1) / Gamma(s+2) with s = alpha+beta, is formed from
    log-gammas, so large exponents do not overflow on the way.  Nodes whose
    weight comes out zero (underflow far in the tails of exponents in the
    thousands) are dropped.
    """
    if not (alpha > -1 and beta > -1 and math.isfinite(alpha + beta)):
        raise ParameterError(
            f"weight exponents ({alpha}, {beta}) must be finite and exceed -1 "
            "(integrable)"
        )
    if pole is not None and not (abs(pole) > 1 and math.isfinite(pole)):
        raise ParameterError(f"the pole {pole} must be finite and lie outside [-1, 1]")
    if count < 1:
        raise ParameterError(f"a Gauss rule takes at least one node, got {count}")
    return _gauss_jacobi(float(alpha), float(beta), None if pole is None else float(pole),
                         count, None)


def _gauss_jacobi(alpha, beta, pole, count, recurrence):
    """gauss_jacobi_rule from a recurrence computed for at least `count`
    nodes, or computed here for 2 count, so that the refinement reuses it."""
    if recurrence is None or recurrence[0].size < count:
        with np.errstate(all="ignore"):  # a recurrence past the float range is refused below
            recurrence = (_jacobi_recurrence(alpha, beta, 0, 2 * count) if pole is None
                          else _divided_twice(alpha, beta, pole, 2 * count))
    diag, off2 = (c[:count] for c in recurrence)
    if off2[0] == 0:  # the mass over (x-pole)^2 underflows: a pole far out
        raise NumericError(f"the weight {_weight_text(alpha, beta, pole)} has a total mass "
                           "below the float64 range")
    s = alpha + beta
    log_mass = ((s + 1) * math.log(2) + math.lgamma(alpha + 1) + math.lgamma(beta + 1)
                - math.lgamma(s + 2) + math.log(off2[0]))
    if log_mass >= math.log(np.finfo(float).max):
        raise NumericError(
            f"the weight {_weight_text(alpha, beta, pole)} has total mass "
            f"e^{log_mass:g}, beyond the float64 range"
        )
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off2))):
        raise NumericError(f"the recurrence of the weight {_weight_text(alpha, beta, pole)} "
                           f"passes the float64 range within {count} nodes")
    mass = math.exp(log_mass)
    nodes, weights = _gauss_rule(diag, off2, mass, vectors=pole is not None)
    keep = weights > 0
    return QuadratureRule(nodes[keep], weights[keep],
                          functools.partial(_gauss_jacobi, alpha, beta, pole, 2 * count,
                                            recurrence))


def _weight_text(alpha, beta, pole):
    text = f"(1-x)^{alpha} (1+x)^{beta}"
    return text if pole is None else f"{text} / (x-{pole})^2"


def _jacobi_recurrence(alpha, beta, start, stop, dtype=np.float64):
    """Monic Jacobi recurrence p_{j+1} = (x - a_j) p_j - b_j p_{j-1} for
    j in [start, stop), in `dtype`: a_j = (beta^2 - alpha^2) / ((2j+s)(2j+s+2))
    and b_j = 4j(j+alpha)(j+beta)(j+s) / ((2j+s)^2 (2j+s+1)(2j+s-1)),
    s = alpha+beta, with b_0 = 1 (unit mass).  At j = 0 and 1 the limits are
    used, finite at s = 0 and s = -1 where the generic forms read 0/0."""
    alpha, beta = dtype(alpha), dtype(beta)
    s = alpha + beta
    j = np.arange(start, stop, dtype=dtype)
    t = 2 * j + s
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (beta - alpha) * s / (t * (t + 2))
        b = 4 * j * (j + alpha) * (j + beta) * (j + s) / (t * t * (t + 1) * (t - 1))
    if start == 0:
        a[0], b[0] = (beta - alpha) / (s + 2), 1.0
    if start <= 1 < stop:
        b[1 - start] = 4 * (1 + alpha) * (1 + beta) / ((2 + s) ** 2 * (3 + s))
    return a, b


# The continued fraction for the divided weight converges like
# rho^-2(top - k), rho = |z| + sqrt(z^2 - 1) the Bernstein ellipse through
# the pole z: _SWEEP_DIGITS / ln(rho) extra terms leave e^-40 (its derivative
# a little more; the entries moved by < 4e-16 against a margin of 30).  Near
# z = +-1 + eps, ln(rho) ~ sqrt(2 eps), so the cap of 2^20 terms admits eps
# down to ~2e-10.  The sweep reads the Jacobi coefficients in blocks of
# _SWEEP_BLOCK.
_SWEEP_DIGITS = 20.0
_MAX_SWEEP = 1 << 20
_SWEEP_BLOCK = 1 << 14
_LONG_SWEEP = 256


def _divided_twice(alpha, beta, pole, count):
    """Recurrence (a~_0..a~_{count-1}; m, b~_1..b~_{count-1}) of the Jacobi
    weight w of unit mass divided by (z-x)^2, z = pole, with m its mass.

    Dividing w by (z-x) gives the recurrence a^_n = a_n + r_{n+1} - r_n
    (r_0 term absent at n = 0), b^_n = b_{n-1} r_n / r_{n-1} (b_0 = 1), mass
    r_0, where r_k = rho_k / rho_{k-1} are the ratios of the Cauchy
    integrals rho_k = int p_k w / (z-x) (rho_{-1} = 1), from the backward
    sweep r_k = b_k / (z - a_k - r_{k+1}).  The second division repeats this
    on (a^, b^), in the same sweep two indices behind.  Its mass int w /
    (z-x)^2 = -drho_0/dz would come out of that sweep as a difference that
    cancels near z = +-1, so it is taken from the differentiated sweep
    d_k = (r_k^2 / b_k)(1 + d_{k+1}) = -dr_k/dz, a sum of positive terms.
    Near z = +-1 + eps the mass still moves by 1/eps times the rounding of
    the Jacobi coefficients (they place the end of the support): at
    eps = 1e-5 a float64 sweep is off by 4e-12 and a long-double one by
    2e-16.  Sweeps longer than _LONG_SWEEP terms (the pole within ~4e-3 of
    +-1) therefore run in long double, shorter ones in float64, about twice
    as fast.
    """
    rho = abs(pole) + math.sqrt(pole * pole - 1)
    top = count + 2 + math.ceil(_SWEEP_DIGITS / math.log(rho))
    if top > _MAX_SWEEP:
        raise AccuracyError(
            f"the pole {pole} lies too close to +-1: the Gauss rule of "
            f"{_weight_text(alpha, beta, pole)} needs a continued fraction of "
            f"{top} terms (at most {_MAX_SWEEP})"
        )
    dtype = np.longdouble if top - count > _LONG_SWEEP else np.float64
    scalars = list if dtype is np.longdouble else np.ndarray.tolist
    z = dtype(pole)
    keep = count + 1
    ah, bh, rh = ([0.0] * (keep + 2) for _ in range(3))
    r1 = r2 = h2 = d = z - z  # r_{k+1}, r_{k+2}, r^_{k+2}, d_{k+1}
    for stop in range(top + 1, 0, -_SWEEP_BLOCK):
        start = max(stop - _SWEEP_BLOCK, 0)
        a, b = map(scalars, _jacobi_recurrence(alpha, beta, start, stop + 1, dtype))
        for i in range(stop - start - 1, -1, -1):
            k = start + i
            r0 = b[i] / (z - a[i] - r1)
            d = r0 * r0 / b[i] * (1.0 + d)
            if k < top - 1:  # the divided weight's entries at n = k + 1
                a1 = a[i + 1] + r2 - r1
                b1 = b[i] * r1 / r0
                h1 = b1 / (z - a1 - h2)
                if k <= keep:
                    ah[k + 1], bh[k + 1], rh[k + 1] = a1, b1, h1
                h2 = h1
            r1, r2 = r0, r1
    ah[0], bh[0] = a[0] + r2, r1  # r_1 and r_0 after the last step
    rh[0] = d  # = r^_0, the mass of the twice divided weight
    n = range(1, count)
    diag = [ah[0] + rh[1]] + [ah[i] + rh[i + 1] - rh[i] for i in n]
    off2 = [d] + [bh[i - 1] * rh[i] / rh[i - 1] for i in n]
    return np.array(diag, dtype=float), np.array(off2, dtype=float)


# Weights: the Christoffel numbers mass / sum_k q_k(x)^2 of the orthonormal
# polynomials q_k keep each weight to a few ulps, also the tiny ones at the
# ends, which eigenvector components know only to an ulp of the largest
# weight (the classical Gram at n_max 16 is off-diagonal by 5e-15 against
# 1.3e-14).  But they are evaluated at the rounded node, and the divided
# weight's Christoffel function is steep near a pole eps from +-1: its rules
# are off by ~ulp/eps (1.2e-12 of the mass in the moments of a 34-node rule at
# eps = 1e-5, against 2e-14).  Divided rules therefore take the Golub-Welsch
# weights, mass times the squared first eigenvector components, which belong
# to the exact eigenvalue, up to _MAX_VECTOR_NODES nodes (2 MB of vectors).
_MAX_VECTOR_NODES = 512


def _gauss_rule(diag, off2, mass, vectors):
    """Nodes and weights of the Gauss rule of the recurrence (diag, off2),
    off2[0] ignored, for a weight of total mass `mass`; weights from the
    eigenvectors if `vectors` (and count <= _MAX_VECTOR_NODES)."""
    # imported here, not with the module: `import xop` reaches this module
    # before `spectral`, and loading scipy.linalg that early measured ~30 ms
    # (6 %) slower start-up over 150 interleaved starts
    from scipy.linalg import eigh_tridiagonal

    root = np.sqrt(off2)
    root[0] = 0.0
    if vectors and diag.size <= _MAX_VECTOR_NODES:
        nodes, v = eigh_tridiagonal(diag, root[1:])
        return nodes, mass * v[0] ** 2
    nodes = eigh_tridiagonal(diag, root[1:], eigvals_only=True)
    q_prev, q = np.zeros_like(nodes), np.ones_like(nodes)
    total = np.ones_like(nodes)  # sum of q_k(x)^2, q_k orthonormal
    with np.errstate(over="ignore", invalid="ignore"):
        for a_k, b_k, b_next in zip(diag.tolist(), root.tolist(), root[1:].tolist()):
            q_prev, q = q, ((nodes - a_k) * q - b_k * q_prev) / b_next
            total += q * q
    return nodes, mass / total


@functools.lru_cache(maxsize=8)
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre reference rule on [-1, 1], built once per order."""
    t, w = np.polynomial.legendre.leggauss(order)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _assemble(weight, boundaries) -> QuadratureRule:
    t_ref, w_ref = _legendre(_PANEL_ORDER)
    lo = boundaries[:-1]
    width = np.diff(boundaries)
    t = (lo[:, None] + 0.5 * width[:, None] * (t_ref[None, :] + 1.0)).ravel()
    w = (0.5 * width[:, None] * w_ref[None, :]).ravel()
    # x = t/(1-t) maps (0,1) -> (0,inf); dx = dt/(1-t)^2
    x = t / (1.0 - t)
    return QuadratureRule(x, w / (1.0 - t) ** 2 * weight(x),
                          functools.partial(_halved, weight, boundaries))


def _halved(weight, boundaries) -> QuadratureRule:
    mid = 0.5 * (boundaries[:-1] + boundaries[1:])
    return _assemble(weight, np.sort(np.concatenate([boundaries, mid])))


def _graded_boundaries(lo, hi, depth_lo, depth_hi):
    """Panel boundaries on [lo, hi], geometrically graded toward each end
    (the two gradings meet at the midpoint)."""
    width = hi - lo
    pts = [lo, hi]
    pts.extend(lo + width * 0.5 ** np.arange(1, depth_lo + 1))
    pts.extend(hi - width * 0.5 ** np.arange(1, depth_hi + 1))
    return np.unique(np.asarray(pts, dtype=float))


def _depth_for_exponent(exponent: float) -> int:
    # mass of x^p below 2^-d scales like 2^(-d(1+p)); push it under ~1e-13
    return max(12, math.ceil(44.0 / (1.0 + exponent)))


# Panels toward t = 1 end at t = 1 - 2^-8, x = 255: panel edges 1, 3, 7, ...,
# 127, 255 in x, so the bulk of e^-x x^(k+2n) (x ~ k + 2n, tens) falls in
# panels no wider than itself and the first level is already accurate.
_DEPTH_AT_INFINITY = 8
_PANEL_ORDER = 16  # Gauss-Legendre points per panel


def _half_line_rule(weight: Callable[[np.ndarray], np.ndarray],
                    exponent_zero: float) -> QuadratureRule:
    """Rule on (0, inf) through x = t/(1-t) for the weight w (a callable),
    which behaves like x^e near 0, e = exponent_zero > -1, and decays
    (super)exponentially at infinity: panel weight times dx/dt times w(x).
    Nodes where w underflows keep their zero weight: dropping the leading
    ones (x^k underflows below x ~ 0.005 at k ~ 140) would regroup the sums
    of the Gram products and move their last bits."""
    b = _graded_boundaries(0.0, 1.0, _depth_for_exponent(exponent_zero),
                           _DEPTH_AT_INFINITY)
    return _assemble(weight, b)

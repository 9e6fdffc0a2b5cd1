"""Quadrature rules and Gram-matrix orthogonality.

The Gram cross-checks use scipy.integrate.quad (adaptive QUADPACK) and,
near the poles at +-1, mpmath's adaptive quadrature with breakpoints as
independent oracles for the rules, and scipy.special.roots_jacobi for the
Gauss-Jacobi nodes and weights.
"""

import functools
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

import xop.quadrature
from xop import (
    AccuracyError,
    ClassicalJacobi,
    ClassicalLaguerre,
    NumericError,
    ParameterError,
    QuadratureRule,
    UsageError,
    X1Jacobi,
    X1Laguerre,
    gauss_jacobi_rule,
    gram_matrix,
    max_offdiag_ratio,
    weight,
    x1_eigenpairs,
    x1_jacobi_alpha_beta,
    x1_members_and_gram,
)
from xop.quadrature import _half_line_rule


def x1_jacobi(alpha, beta):
    """The X1-Jacobi family whose weight has the classical exponents
    (alpha, beta), alpha != beta (inverse of `x1_jacobi_alpha_beta`)."""
    return X1Jacobi(a=0.5 * (beta - alpha), b=(beta + alpha) / (beta - alpha))


def integral(rule, values):
    """The rule's integral of `values` (at its nodes) against its weight."""
    return float(np.dot(values, rule.weights))


def jacobi_mass(alpha, beta):
    """integral (1-x)^alpha (1+x)^beta over (-1, 1), from log-gammas."""
    s = alpha + beta
    return math.exp((s + 1) * math.log(2) + math.lgamma(alpha + 1) + math.lgamma(beta + 1)
                    - math.lgamma(s + 2))


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.5, 1.5), (0.5, -0.5),
                                         (-0.25, -0.75), (-0.9, 3.0), (40.0, 2.5)])
def test_gauss_jacobi_rule_matches_scipy_roots(alpha, beta):
    """Nodes and Christoffel weights against scipy's Gauss-Jacobi roots,
    also at alpha+beta = 0 and -1, where the generic recurrence entries are
    0/0.  scipy's weights are off by up to ~5e-13 of the largest weight
    here, hence the weight tolerance."""
    rule = gauss_jacobi_rule(alpha, beta, 24)
    with np.errstate(invalid="ignore"):  # scipy forms 0/0 at alpha+beta = -1, then drops it
        nodes, weights = special.roots_jacobi(24, alpha, beta)
    assert np.max(np.abs(rule.nodes - nodes)) <= 1e-14
    assert np.max(np.abs(rule.weights - weights)) <= 1e-12 * np.max(weights)
    assert jacobi_mass(alpha, beta) == pytest.approx(np.sum(weights), rel=1e-13)
    # the Christoffel weights of (-0.9, 3) sum to the mass within 1.8e-13
    assert np.sum(rule.weights) == pytest.approx(jacobi_mass(alpha, beta), rel=1e-12)


def test_gauss_jacobi_rule_integrates_its_weight_exactly():
    # integral (1-x)^a (1+x)^b x^m, m < 2 count, against QUADPACK
    rule = gauss_jacobi_rule(-0.5, 0.25, 6)
    for m in (0, 5, 11):
        want, _ = integrate.quad(lambda x: x**m, -1.0, 1.0, weight="alg",
                                 wvar=(0.25, -0.5), epsabs=1e-14, epsrel=1e-14)
        assert integral(rule, rule.nodes**m) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_gauss_jacobi_refinement_doubles_the_nodes():
    rule = gauss_jacobi_rule(0.5, 1.5, 12)
    finer = rule.refined()
    assert finer.nodes.size == 24
    assert np.sum(finer.weights) == pytest.approx(np.sum(rule.weights), rel=1e-15)


def test_gauss_jacobi_mass_in_log_form():
    """2^4000 and the Gamma functions overflow on their own; their ratio,
    the total mass, does not.  A mass past the float range is refused."""
    rule = gauss_jacobi_rule(1998.5, 2000.5, 16)
    assert np.sum(rule.weights) == pytest.approx(jacobi_mass(1998.5, 2000.5), rel=1e-13)
    with pytest.raises(NumericError, match="float64 range"):
        gauss_jacobi_rule(2000.0, 0.5, 8)


@pytest.mark.parametrize("count, pole", [(1024, None), (256, 1999.5)])
def test_gauss_jacobi_drops_nodes_without_weight(count, pole):
    """The far tails of (1-x)^1998.5 (1+x)^2000.5 get zero weight: the
    Christoffel numbers underflow at 1024 nodes, and the first eigenvector
    components of the divided weight's rule vanish at 256.  The kept weights
    still sum to the mass: the exact one, or for the divided weight that of
    a 16-node rule, which drops no node."""
    rule = gauss_jacobi_rule(1998.5, 2000.5, count, pole)
    finer = rule.refined()
    assert 0 < rule.nodes.size < count and np.all(rule.weights > 0)
    if pole is None:
        mass = jacobi_mass(1998.5, 2000.5)
    else:
        small = gauss_jacobi_rule(1998.5, 2000.5, 16, pole)
        assert small.nodes.size == 16
        mass = np.sum(small.weights)
    assert np.sum(rule.weights) == pytest.approx(mass, rel=1e-13)
    assert count < finer.nodes.size <= 2 * count  # the refinement doubles the count asked for


@pytest.mark.parametrize("alpha, beta, pole", [
    (0.3, -0.4, 1.5), (-0.5, -0.25, -3.0), (2.0, 0.5, -1.0001), (1e-5, 3e-5, 1.00001),
], ids=repr)
def test_divided_rule_integrates_its_weight_exactly(alpha, beta, pole):
    """integral x^m (1-x)^alpha (1+x)^beta / (x-pole)^2, m < 2 count, against
    mpmath with breakpoints toward a pole close to +-1."""
    rule = gauss_jacobi_rule(alpha, beta, 6, pole)
    a, b, z = mp.mpf(alpha), mp.mpf(beta), mp.mpf(pole)
    with mp.workdps(25):
        for m in (0, 1, 5, 11):
            want = mp.quad(lambda x: x**m * (1 - x)**a * (1 + x)**b / (x - z) ** 2,
                           _breakpoints(pole))
            assert integral(rule, rule.nodes**m) == pytest.approx(float(want), rel=1e-13)


def _breakpoints(pole):
    """[-1, 1] split geometrically toward the end nearest the pole."""
    gap, end = abs(pole) - 1, np.sign(pole)
    near = [end * (1 - gap * 10.0**j) for j in range(12) if gap * 10.0**j < 1]
    return sorted({-1.0, 0.0, 1.0, *near})


def test_large_rules_take_memory_linear_in_the_nodes():
    """4096 nodes: the Christoffel weights need a few node-length arrays,
    where eigenvectors would take 134 MB.  They sum to the mass within
    ~1e-12: at the end nodes, 1 - |x| ~ 1e-7 holds only ~9 digits."""
    tracemalloc.start()
    try:
        rule = gauss_jacobi_rule(0.5, -0.5, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rule.nodes.size == 4096 and peak < 4e6
    assert np.sum(rule.weights) == pytest.approx(math.pi, rel=1e-11)  # the mass of (0.5, -0.5)


def panel_rule(family):
    """The half-line panel rule of a Laguerre family's whole weight."""
    return _half_line_rule(functools.partial(weight, family), family.k)


@pytest.mark.parametrize("k", [-0.9, -0.5, 0.0, 0.5, 2.0, 7.3, 40.0])
def test_panel_weights_sum_to_the_classical_laguerre_mass(k):
    """The panels carry x^k e^-x, also for k in (-1, 0) where it is
    unbounded at 0: the weights sum to Gamma(k+1)."""
    rule = panel_rule(ClassicalLaguerre(k))
    assert np.all(rule.nodes > 0) and np.all(rule.weights >= 0)
    assert np.sum(rule.weights) == pytest.approx(special.gamma(k + 1), rel=1e-12)
    assert integral(rule, rule.nodes) == pytest.approx(special.gamma(k + 2), rel=1e-12)


@pytest.mark.parametrize("k", [0.05, 0.5, 2.8, 20.0])
def test_panel_weights_sum_to_the_x1_laguerre_mass(k):
    """x^k e^-x / (x+k)^2 against QUADPACK, with the algebraic endpoint
    weight on (0, 1)."""
    rule = panel_rule(X1Laguerre(k))
    head, _ = integrate.quad(lambda x: np.exp(-x) / (x + k) ** 2, 0.0, 1.0, weight="alg",
                             wvar=(k, 0.0), epsabs=0.0, epsrel=1e-13)
    tail, _ = integrate.quad(lambda x: x**k * np.exp(-x) / (x + k) ** 2, 1.0, np.inf,
                             epsabs=0.0, epsrel=1e-13)
    assert np.sum(rule.weights) == pytest.approx(head + tail, rel=1e-11)


def test_refinement_halves_panels():
    rule = panel_rule(ClassicalLaguerre(0.5))
    finer = rule.refined()
    assert finer.nodes.size == 2 * rule.nodes.size
    assert np.sum(finer.weights) == pytest.approx(special.gamma(1.5), rel=1e-12)


def test_refinement_reuses_the_reference_rule(monkeypatch):
    rule = panel_rule(ClassicalLaguerre(0.5))

    def unexpected(order):
        raise AssertionError("Gauss-Legendre reference rule rebuilt")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", unexpected)
    assert rule.refined().refined().nodes.size == 4 * rule.nodes.size


def test_rejects_nonintegrable_exponent():
    for alpha, beta in ((-1.0, 0.5), (0.5, -1.5), (np.inf, 0.5), (0.5, np.nan)):
        with pytest.raises(ParameterError):
            gauss_jacobi_rule(alpha, beta, 8)
    for pole in (0.5, 1.0, -1.0, np.inf, np.nan):
        with pytest.raises(ParameterError):
            gauss_jacobi_rule(0.5, 0.5, 8, pole)
    with pytest.raises(ParameterError):
        gauss_jacobi_rule(0.5, 0.5, 0)


# --- Gram matrices -------------------------------------------------------------

def test_classical_laguerre_gram():
    g = gram_matrix(ClassicalLaguerre(0.5), 4)
    assert g.shape == (4, 4)
    assert np.allclose(g, g.T, atol=1e-12 * np.max(np.abs(g)))
    assert np.all(np.diag(g) > 0)
    assert max_offdiag_ratio(g) < 1e-8
    # diagonal oracle: Gamma(n + k + 1) / n!
    for n in range(4):
        want = special.gamma(n + 1.5) / special.factorial(n)
        assert g[n, n] == pytest.approx(want, rel=1e-11)


def test_classical_jacobi_gram():
    g = gram_matrix(ClassicalJacobi(0.5, 1.5), 4)
    assert max_offdiag_ratio(g) < 1e-8
    assert np.all(np.diag(g) > 0)


def test_x1_laguerre_gram_orthogonality():
    g = gram_matrix(X1Laguerre(0.5), 4)
    assert max_offdiag_ratio(g) < 1e-8


def test_x1_jacobi_gram_orthogonality():
    g = gram_matrix(X1Jacobi(a=2.0, b=1.25), 4)
    assert max_offdiag_ratio(g) < 1e-7


def test_trivial_gram_is_one_by_one_positive():
    for fam in (ClassicalLaguerre(0.5), X1Laguerre(0.5), X1Jacobi(a=2.0, b=1.25)):
        g = gram_matrix(fam, 1)
        assert g.shape == (1, 1) and g[0, 0] > 0


def test_x1_gram_against_quadpack_oracle():
    fam = X1Laguerre(0.5)
    pairs = x1_eigenpairs(fam, 2)
    g = gram_matrix(fam, 2)
    for i in range(2):
        for j in range(2):
            want, err = integrate.quad(
                lambda x: pairs[i].polynomial(x) * pairs[j].polynomial(x)
                * x**0.5 * np.exp(-x) / (x + 0.5) ** 2,
                0.0, np.inf,
            )
            assert g[i, j] == pytest.approx(want, rel=1e-8, abs=1e-9)


@pytest.mark.parametrize("fam", [X1Laguerre(0.5), X1Jacobi(a=2.0, b=1.25)], ids=repr)
def test_x1_members_and_gram_is_one_certified_build(fam):
    members, g = x1_members_and_gram(fam, 4)
    for ours, theirs in zip(members, x1_eigenpairs(fam, 4), strict=True):
        assert np.array_equal(ours.polynomial.coeffs, theirs.polynomial.coeffs)
    assert np.array_equal(g, gram_matrix(fam, 4))
    for bad in (0, 17):
        with pytest.raises(UsageError, match="n_max must lie in 1..16"):
            x1_members_and_gram(fam, bad)
    with pytest.raises(UsageError, match="not an X1 family"):
        x1_members_and_gram(ClassicalLaguerre(0.5), 4)


def test_frozen_x1_laguerre_diagonal():
    # values frozen from the QUADPACK oracle
    g = gram_matrix(X1Laguerre(0.5), 2)
    assert g[0, 0] == pytest.approx(2.658680776358246, rel=1e-10)
    assert g[1, 1] == pytest.approx(2.2155673136318987, rel=1e-10)


def test_gram_usage_and_accuracy_errors():
    with pytest.raises(UsageError):
        gram_matrix(ClassicalLaguerre(0.5), 0)
    with pytest.raises(UsageError):
        gram_matrix(ClassicalLaguerre(0.5), 17)
    # the (a=1.5, b=-1.5) family has alpha = -3.75: not an integrable weight;
    # it must be refused before any arithmetic warns
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises((AccuracyError, ParameterError)):
            gram_matrix(X1Jacobi(a=1.5, b=-1.5), 2)


def test_gram_nonconvergence_raises_accuracy_error(monkeypatch):
    """Two Gauss-Legendre points per panel do not settle within the six
    refinements."""
    monkeypatch.setattr(xop.quadrature, "_PANEL_ORDER", 2)
    with pytest.raises(AccuracyError, match="within 6 refinements"):
        gram_matrix(ClassicalLaguerre(0.5), 6)


@pytest.fixture
def refinements(monkeypatch):
    """Counts `QuadratureRule.refined` calls."""
    calls = []
    original = QuadratureRule.refined

    def counted(rule):
        calls.append(rule.nodes.size)
        return original(rule)

    monkeypatch.setattr(QuadratureRule, "refined", counted)
    return calls


# --- Laguerre Grams near and past the float range ------------------------------

LARGE_K = (150.0, 170.0, 200.0, 1e3, 1e6)
# (k, n_max) whose Gram fits in float64 (largest entry below half the float
# range, the symmetrization doubling it), for both Laguerre kinds
FINITE_LARGE_K = {(150.0, 1), (150.0, 4), (150.0, 16), (170.0, 1)}


def exact_diagonal(family, n_max):
    """Gamma(n+k+1)/n! (L_n^(k)) resp. (n-1)! (n+k) Gamma(n+k-1) (monic X1
    member of degree n), from log-gammas; inf past the float range."""
    k = family.k
    if isinstance(family, ClassicalLaguerre):
        logs = [math.lgamma(n + k + 1) - math.lgamma(n + 1) for n in range(n_max)]
    else:
        logs = [math.lgamma(n) + math.log(n + k) + math.lgamma(n + k - 1)
                for n in range(1, n_max + 1)]
    with np.errstate(over="ignore"):
        return np.exp(logs)


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("k", LARGE_K)
@pytest.mark.parametrize("kind", [ClassicalLaguerre, X1Laguerre])
def test_laguerre_gram_past_the_float_range_is_refused_without_warnings(kind, k, n):
    """A Gram whose entries pass the float range raises NumericError before
    any arithmetic warns; one that fits is computed as before, its diagonal
    the exact norms."""
    family = kind(k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if (k, n) in FINITE_LARGE_K:
            g = gram_matrix(family, n)
            assert np.all(np.isfinite(g))
            assert np.diag(g) == pytest.approx(exact_diagonal(family, n), rel=1e-10)
        else:
            assert 2 * np.max(exact_diagonal(family, n)) > np.finfo(float).max
            with pytest.raises(NumericError, match="beyond the float64 range"):
                gram_matrix(family, n)


@pytest.mark.parametrize("k", [1e306, math.inf])
def test_gram_refusal_survives_the_log_gamma_overflow(k):
    """lgamma itself overflows past ~2.5e305; the Gram is still refused."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="e\\^inf, beyond the float64 range"):
            gram_matrix(ClassicalLaguerre(k), 2)


def test_gram_near_the_float_range_does_not_warn():
    """Just below the bound the first panel level overshoots the float range
    (k = 161.85, n_max 14); the refinements still converge, silently."""
    family = ClassicalLaguerre(161.85)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gram_matrix(family, 14)
    assert np.diag(g) == pytest.approx(exact_diagonal(family, 14), rel=1e-10)


# --- Jacobi families with alpha, beta in (-1, 0) (ab < 0) ---------------------

def _quad_gram_entry(fam, pairs, i, j):
    """G_ij by QUADPACK with the algebraic endpoint weight."""
    al, be = x1_jacobi_alpha_beta(fam.a, fam.b)
    value, _ = integrate.quad(
        lambda x: pairs[i].polynomial(x) * pairs[j].polynomial(x) / (x - fam.b) ** 2,
        -1.0, 1.0, weight="alg", wvar=(be, al), epsabs=1e-13, epsrel=1e-12, limit=200)
    return value


@pytest.mark.parametrize("fam", [
    X1Jacobi(a=0.125, b=-3.0),   # classical (alpha, beta) = (-0.5, -0.25)
    X1Jacobi(a=-0.2, b=2.0),     # (-0.2, -0.6)
    X1Jacobi(a=-0.25, b=2.0),    # (-0.25, -0.75): alpha + beta = -1 exactly
], ids=repr)
def test_negative_exponent_gram_against_quadpack(fam):
    n = 4
    pairs = x1_eigenpairs(fam, n)
    g = gram_matrix(fam, n)
    scale = np.sqrt(np.outer(np.diag(g), np.diag(g)))
    for i in range(n):
        for j in range(i, n):
            assert abs(g[i, j] - _quad_gram_entry(fam, pairs, i, j)) <= 1e-11 * scale[i, j]
    assert max_offdiag_ratio(g) <= 1e-13


def test_negative_exponent_grid_is_orthogonal():
    """A coarse grid of classical (alpha, beta) in (-1, 0)^2; before the
    Gauss-Jacobi rules every one raised DomainError (nodes on +-1)."""
    grid = (-0.95, -0.7, -0.45, -0.2, -0.05)
    for alpha in grid:
        for beta in grid:
            if alpha == beta:
                continue
            fam = x1_jacobi(alpha, beta)
            for n in (4, 16):
                assert max_offdiag_ratio(gram_matrix(fam, n)) <= 1e-12, (alpha, beta, n)
    fam = x1_jacobi(-0.95, -0.05)
    pairs = x1_eigenpairs(fam, 2)
    g = gram_matrix(fam, 2)
    assert g[1, 1] == pytest.approx(_quad_gram_entry(fam, pairs, 1, 1), rel=1e-11)


@pytest.mark.parametrize("fam", [X1Laguerre(k) for k in (0.05, 0.5, 2.8, 6.4, 20.0)]
                         + [X1Jacobi(a=2.0, b=1.25), X1Jacobi(a=-0.2, b=2.0)], ids=repr)
def test_gram_converges_within_three_rule_evaluations(fam, refinements):
    """The first rule is already close: one or two refinements suffice at
    n_max 16."""
    g = gram_matrix(fam, 16)
    assert 1 <= len(refinements) <= 2
    assert max_offdiag_ratio(g) <= 1e-12


# --- X1-Jacobi poles close to +-1 ---------------------------------------------

def _mp_gram_entry(fam, pairs, i, j):
    """G_ij by mpmath from the members' (ascending) monomial coefficients."""
    al, be = (mp.mpf(v) for v in x1_jacobi_alpha_beta(fam.a, fam.b))
    p, q = ([mp.mpf(c) for c in pairs[k].polynomial.coeffs[::-1]] for k in (i, j))
    z = mp.mpf(fam.b)

    def f(x):
        weight = (1 - x) ** al * (1 + x) ** be / (x - z) ** 2
        return mp.polyval(p, x) * mp.polyval(q, x) * weight

    with mp.workdps(20):
        return float(mp.quad(f, _breakpoints(fam.b)))


@pytest.mark.parametrize("fam", [X1Jacobi(a=1.0, b=1.0001), X1Jacobi(a=1.0, b=1.00001),
                                 X1Jacobi(a=-1.0, b=-1.0001)], ids=repr)
@pytest.mark.parametrize("n", [4, 16])
def test_near_pole_gram_against_mpmath(fam, n, refinements):
    """With the pole inside the rule's weight, a pole 1e-4 or 1e-5 from the
    interval costs nothing in accuracy: the corner entries agree with
    mpmath within 1e-13 of the largest entry, in two rule evaluations."""
    pairs = x1_eigenpairs(fam, n)
    g = gram_matrix(fam, n)
    assert len(refinements) == 1
    scale = np.max(np.abs(g))
    for i, j in {(0, 0), (n - 1, n - 1), (0, n - 1), (n // 2 - 1, n // 2)}:
        assert abs(g[i, j] - _mp_gram_entry(fam, pairs, i, j)) <= 1e-13 * scale, (i, j)
    assert max_offdiag_ratio(g) <= 1e-8


def test_pole_too_close_to_the_interval_is_an_accuracy_error():
    """Within ~2e-10 of +-1 the continued fraction would need more than 2^20
    terms: refused up front, without warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(AccuracyError, match="too close"):
            gram_matrix(X1Jacobi(a=1.0, b=1.0 + 1e-12), 4)

"""X1 families: eigenpair construction against independent oracles.

The oracle is the monomial pencil of the cleared-denominator operator:
T y = lam S y, with T and S applied to each monomial by plain polynomial
arithmetic and no code shared with the two-term construction under test.
At the analytic eigenvalue the member spans the null space of the
rectangular system, read off by SVD in float64 or solved top-down from the
monic leading coefficient in 50-digit mpmath arithmetic.
"""

import ast
import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate

from xop import (
    ClassicalJacobi,
    ClassicalLaguerre,
    ConsistencyError,
    DomainError,
    EigenPair,
    ParameterError,
    Polynomial,
    UsageError,
    X1Jacobi,
    X1Laguerre,
    degree0_eigenfunction_exists,
    family_eigenvalue,
    family_from_dict,
    family_members,
    family_to_dict,
    gram_matrix,
    max_offdiag_ratio,
    ode_residual,
    weight,
    x1_eigenpairs,
    x1_jacobi_alpha_beta,
    x1_polynomial,
)
from xop.exceptional import _sample_points


def x1_jacobi(alpha, beta):
    """The X1-Jacobi family whose weight has the classical exponents
    (alpha, beta), alpha != beta (inverse of `x1_jacobi_alpha_beta`)."""
    return X1Jacobi(a=0.5 * (beta - alpha), b=(beta + alpha) / (beta - alpha))


# --- monomial pencil oracle ----------------------------------------------------

def _mul(p, q):
    out = [0 * p[0]] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


def _add(*polys):
    out = [0 * polys[0][0]] * max(len(p) for p in polys)
    for p in polys:
        for i, u in enumerate(p):
            out[i] += u
    return out


def cleared_column(family, j, sign=-1, num=float):
    """(T x^j, S x^j) as ascending coefficient lists over the number type
    `num`, for the cleared operators
        X1-Laguerre:  T y = -x(x+k) y'' + (x-k)(x+k+1) y' + sign (x-k) y,
                      S y = (x+k) y
        X1-Jacobi:    T y = (b-x)(x^2-1) y'' + 2a(1-bx)(x-c) y' + sign 2a(1-bx) y,
                      S y = (b-x) y
    `sign` is the in-bracket sign; xop's convention is -1."""
    one, zero = num(1), num(0)
    y = [zero] * j + [one]
    y1 = [zero] * (j - 1) + [num(j)] if j >= 1 else [zero]
    y2 = [zero] * (j - 2) + [num(j * (j - 1))] if j >= 2 else [zero]
    if isinstance(family, X1Laguerre):
        k = num(family.k)
        t = _add(_mul([zero, -k, -one], y2), _mul([-k * k - k, one, one], y1),
                 _mul([-sign * k, sign * one], y))
        return t, _mul([k, one], y)
    a, b = num(family.a), num(family.b)
    c = b + 1 / a
    t = _add(_mul(_mul([b, -one], [-one, zero, one]), y2),
             _mul(_mul([2 * a, -2 * a * b], [-c, one]), y1),
             _mul([sign * 2 * a, -sign * 2 * a * b], y))
    return t, _mul([b, -one], y)


def leading_order_eigenvalue(family, degree, sign=-1):
    """The eigenvalue the x^(degree+1) row forces on a degree-`degree`
    eigenfunction; family_eigenvalue for sign -1."""
    if isinstance(family, X1Laguerre):
        return degree + sign
    return degree * (degree - 1) + 2 * family.a * family.b * (degree + sign)


def pencil(family, degree, lam, sign=-1, num=float):
    """Rows 0..degree+1 of T - lam S on monomial columns 0..degree."""
    rows = [[num(0)] * (degree + 1) for _ in range(degree + 4)]
    for j in range(degree + 1):
        t, s = cleared_column(family, j, sign, num)
        for i, v in enumerate(t):
            rows[i][j] += v
        for i, v in enumerate(s):
            rows[i][j] -= lam * v
    assert not any(any(row) for row in rows[degree + 2:])  # T, S raise degree by one
    return rows[: degree + 2]


def pencil_null_ratio(family, degree, sign=-1):
    """Smallest over largest singular value of the pencil at the leading-order
    eigenvalue: ~1e-16 when a degree-`degree` eigenfunction exists."""
    system = np.array(pencil(family, degree, leading_order_eigenvalue(family, degree, sign), sign))
    sing = np.linalg.svd(system, compute_uv=False)
    return sing[-1] / sing[0]


def nullspace_member(family, degree):
    """Monic degree-`degree` solution of the rectangular system at the known
    eigenvalue, via SVD."""
    system = np.array(pencil(family, degree, family_eigenvalue(family, degree)))
    _, sing, vt = np.linalg.svd(system)
    assert sing[-1] < 1e-8, "no null space at the analytic eigenvalue"
    vec = vt[-1]
    return vec / vec[degree]


def mpmath_member(family, degree, dps=50):
    """Monic member at `dps` digits: rows degree..1 of the pencil at the exact
    eigenvalue solved top-down for coefficients degree-1..0; rows 0 and
    degree+1 must then vanish.  Returns mpf coefficients, ascending."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        if isinstance(family, X1Laguerre):
            lam = mpmath.mpf(degree - 1)
        else:
            lam = (degree - 1) * (degree + 2 * mpmath.mpf(family.a) * mpmath.mpf(family.b))
        m = pencil(family, degree, lam, num=mpmath.mpf)
        c = [mpmath.mpf(0)] * degree + [mpmath.mpf(1)]
        for row in range(degree, 0, -1):
            c[row - 1] = -mpmath.fsum(m[row][j] * c[j] for j in range(row, degree + 1)) / m[row][row - 1]
        scale = max(abs(v) for v in c)
        for row in (0, degree + 1):
            defect = mpmath.fsum(u * v for u, v in zip(m[row], c))
            assert abs(defect) <= mpmath.mpf(10) ** (20 - dps) * scale
        return c


def mpmath_error(family, coeffs_by_degree):
    """max over degrees of max |c - c_mpmath| / max |c_mpmath|."""
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for degree, coeffs in coeffs_by_degree.items():
        ref = mpmath_member(family, degree)
        scale = max(abs(v) for v in ref)
        worst = max(worst, float(max(abs(mpmath.mpf(float(u)) - v)
                                     for u, v in zip(coeffs, ref)) / scale))
    return worst


LAGUERRE_KS = (0.5, 1.5, 2.5)
JACOBI_ABS = ((1.0, 2.0), (2.0, 1.25), (1.5, -1.5))


@pytest.mark.parametrize("k", LAGUERRE_KS)
def test_x1_laguerre_matches_nullspace_oracle(k):
    fam = X1Laguerre(k)
    pairs = x1_eigenpairs(fam, 6)
    assert [p.polynomial.degree for p in pairs] == [1, 2, 3, 4, 5, 6]
    for d, pair in enumerate(pairs, start=1):
        assert pair.eigenvalue == pytest.approx(d - 1, abs=1e-9)
        oracle = nullspace_member(fam, d)
        assert np.allclose(pair.polynomial.coeffs, oracle, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("ab", JACOBI_ABS)
def test_x1_jacobi_matches_nullspace_oracle(ab):
    a, b = ab
    fam = X1Jacobi(a=a, b=b)
    pairs = x1_eigenpairs(fam, 6)
    assert [p.polynomial.degree for p in pairs] == [1, 2, 3, 4, 5, 6]
    for d, pair in enumerate(pairs, start=1):
        assert pair.eigenvalue == pytest.approx((d - 1) * (d + 2 * a * b), abs=1e-8)
        oracle = nullspace_member(fam, d)
        assert np.allclose(pair.polynomial.coeffs, oracle, rtol=1e-8, atol=1e-8)


def test_known_low_degree_members():
    # hand-derived closed forms
    p1 = x1_polynomial(X1Laguerre(1.5), 1)
    assert np.allclose(p1.polynomial.coeffs, [2.5, 1.0], atol=1e-10)
    assert p1.eigenvalue == pytest.approx(0.0, abs=1e-10)
    p2 = x1_polynomial(X1Laguerre(1.5), 2)
    assert np.allclose(p2.polynomial.coeffs, [-5.25, 0.0, 1.0], atol=1e-9)
    j1 = x1_polynomial(X1Jacobi(a=2.0, b=1.25), 1)
    assert np.allclose(j1.polynomial.coeffs, [-1.75, 1.0], atol=1e-10)
    j2 = x1_polynomial(X1Jacobi(a=2.0, b=1.25), 2)
    assert np.allclose(j2.polynomial.coeffs, [1.0, -61.0 / 28.0, 1.0], atol=1e-9)
    assert j2.eigenvalue == pytest.approx(7.0, abs=1e-9)


def test_bracket_sign_oracle():
    """The pencil with xop's in-bracket sign has a polynomial eigenfunction at
    every degree; the opposite sign misses some degree, which is how the
    convention was pinned.  xop's members solve the -1 pencil."""
    for fam in [X1Laguerre(k) for k in LAGUERRE_KS] + [X1Jacobi(a=a, b=b) for a, b in JACOBI_ABS]:
        assert max(pencil_null_ratio(fam, d, -1) for d in range(1, 7)) < 1e-12
        assert max(pencil_null_ratio(fam, d, +1) for d in range(1, 7)) > 1e-4
        for d, pair in enumerate(x1_eigenpairs(fam, 6), start=1):
            system = np.array(pencil(fam, d, pair.eigenvalue, -1))
            assert np.max(np.abs(system @ pair.polynomial.coeffs)) < 1e-12 * np.max(np.abs(system))


def test_degree_gap():
    for k in LAGUERRE_KS:
        assert not degree0_eigenfunction_exists(X1Laguerre(k))
    for a, b in JACOBI_ABS:
        assert not degree0_eigenfunction_exists(X1Jacobi(a=a, b=b))


def test_x1_eigenpairs_usage_errors():
    with pytest.raises(UsageError):
        x1_eigenpairs(ClassicalLaguerre(0.5), 3)
    with pytest.raises(UsageError):
        x1_eigenpairs(X1Laguerre(0.5), 0)
    with pytest.raises(UsageError):
        x1_eigenpairs(X1Laguerre(0.5), 33)
    with pytest.raises(UsageError):
        x1_polynomial(X1Laguerre(0.5), 0)


# --- ODE residuals ------------------------------------------------------------

def chebyshev_points(lo, hi, n=50):
    theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)


def test_classical_laguerre_residual_exact():
    pair = EigenPair(2.0, family_members(ClassicalLaguerre(0.5), 3)[2])
    pts = chebyshev_points(0.0, 40.0)
    assert ode_residual(ClassicalLaguerre(0.5), pair, pts) < 1e-10


def test_x1_laguerre_residual_from_eigenpairs():
    pts = chebyshev_points(0.0, 40.0)
    for pair in x1_eigenpairs(X1Laguerre(0.5), 3):
        assert ode_residual(X1Laguerre(0.5), pair, pts) < 1e-9


def test_x1_jacobi_residual_from_eigenpairs():
    pts = chebyshev_points(-0.99, 0.99)
    fam = X1Jacobi(a=2.0, b=1.25)
    for pair in x1_eigenpairs(fam, 2):
        assert ode_residual(fam, pair, pts) < 1e-10


def test_scaled_residual_invariant_all_spec_families():
    for k in LAGUERRE_KS:
        fam = X1Laguerre(k)
        pts = chebyshev_points(0.0, 40.0)
        for pair in x1_eigenpairs(fam, 6):
            assert ode_residual(fam, pair, pts, scaled=True) <= 1e-9
    for a, b in JACOBI_ABS:
        fam = X1Jacobi(a=a, b=b)
        pts = chebyshev_points(-0.99, 0.99)
        for pair in x1_eigenpairs(fam, 6):
            assert ode_residual(fam, pair, pts, scaled=True) <= 1e-9


def test_perturbed_polynomial_fails_residual():
    base = family_members(ClassicalLaguerre(0.5), 3)[2]
    coeffs = base.coeffs.copy()
    coeffs[-1] += 1e-3
    pair = EigenPair(2.0, Polynomial(coeffs))
    pts = chebyshev_points(0.0, 40.0)
    assert ode_residual(ClassicalLaguerre(0.5), pair, pts) > 1e-4


def test_residual_pole_rejection():
    pair = x1_polynomial(X1Laguerre(0.5), 1)
    with pytest.raises(DomainError):
        ode_residual(X1Laguerre(0.5), pair, [-0.5])
    jfam = X1Jacobi(a=2.0, b=1.25)
    jpair = x1_polynomial(jfam, 1)
    with pytest.raises(DomainError):
        ode_residual(jfam, jpair, [1.25])


def test_internal_sample_points_span_the_stated_windows():
    lag = _sample_points(X1Laguerre(0.5))
    assert lag.size == 50 and lag.min() > 0.0 and lag.max() < 40.0
    jac = _sample_points(X1Jacobi(a=2.0, b=1.25))
    assert jac.min() > -0.99 and jac.max() < 0.99


# --- weights and the (a, b) <-> (alpha, beta) map ------------------------------

def test_weight_examples():
    assert weight(ClassicalLaguerre(0.0), 0.7) == pytest.approx(np.exp(-0.7), rel=1e-15)
    # (0.5 + 0.5)^2 = 1 in the denominator
    assert weight(X1Laguerre(0.5), 0.5) == pytest.approx(0.5**0.5 * np.exp(-0.5), rel=1e-14)
    # alpha = ab - a = 0.5, beta = ab + a = 4.5; at x=0 the Jacobi factors are 1
    assert weight(X1Jacobi(a=2.0, b=1.25), 0.0) == pytest.approx(1 / 1.5625, rel=1e-14)


def test_weight_domain_errors():
    with pytest.raises(DomainError):
        weight(ClassicalLaguerre(0.5), -1.0)
    with pytest.raises(DomainError):
        weight(X1Jacobi(a=2.0, b=1.25), 1.0)


def test_alpha_beta_inversion_roundtrip():
    alpha, beta = x1_jacobi_alpha_beta(2.0, 1.25)
    assert (alpha, beta) == (0.5, 4.5)
    fam = x1_jacobi(alpha, beta)
    assert fam.a == pytest.approx(2.0) and fam.b == pytest.approx(1.25)
    with pytest.raises(ParameterError):
        x1_jacobi_alpha_beta(2.0, 0.5)


def test_family_invariants():
    with pytest.raises(ParameterError):
        X1Laguerre(0.0)
    with pytest.raises(ParameterError):
        X1Jacobi(a=2.0, b=0.5)
    with pytest.raises(ParameterError):
        X1Jacobi(a=0.0, b=2.0)
    with pytest.raises(ParameterError):
        ClassicalJacobi(-1.0, 0.0)


def test_family_serialization_roundtrip():
    for fam in (ClassicalLaguerre(0.5), ClassicalJacobi(0.5, -0.5),
                X1Laguerre(1.5), X1Jacobi(a=2.0, b=1.25)):
        data = family_to_dict(fam)
        assert family_from_dict(data) == fam
    assert family_to_dict(X1Jacobi(a=2.0, b=1.25)) == {"kind": "X1Jacobi",
                                                      "params": {"a": 2.0, "b": 1.25}}
    with pytest.raises(UsageError):
        family_from_dict({"kind": "NoSuchFamily", "params": {}})
    with pytest.raises(UsageError):  # c = b + 1/a is derived, not a parameter
        family_from_dict({"kind": "X1Jacobi", "params": {"a": 2.0, "b": 1.25, "c": 1.75}})


def test_x1_jacobi_eigenvalue_matches_angular_level_formula():
    # degree d eigenvalue equals the classical angular eigenvalue n^2 + 2sn
    # at n = d - 1, with 2ab = 2s - 1
    s, lam = 2.5, 1.0
    fam = X1Jacobi(a=lam, b=(2 * s - 1) / (2 * lam))
    for d in range(1, 6):
        n = d - 1
        assert family_eigenvalue(fam, d) == pytest.approx(n**2 + 2 * s * n, abs=1e-12)


def test_high_degree_families_certify_to_cap():
    # the n_max cap; high Laguerre degrees certify against the evaluation
    # noise floor (see x1_eigenpairs docstring)
    for fam in (X1Laguerre(0.5), X1Jacobi(a=2.0, b=1.25)):
        pairs = x1_eigenpairs(fam, 32)
        assert [p.polynomial.degree for p in pairs] == list(range(1, 33))


# --- two-term construction: n_max independence, mpmath, collisions --------------

MPMATH_FAMILIES = (
    X1Laguerre(0.5),
    X1Laguerre(6.4),
    X1Jacobi(a=1.0, b=2.0),
    X1Jacobi(a=-2.8595951060788547, b=5.797434331352339),
    X1Jacobi(a=2.88232799393015, b=-4.528127749765942),  # alpha, beta < -1
)


@pytest.mark.parametrize("fam", MPMATH_FAMILIES[:3] + (X1Jacobi(a=-1.7614, b=-1.2075),))
def test_members_do_not_depend_on_n_max(fam):
    full, half = x1_eigenpairs(fam, 32)[:16], x1_eigenpairs(fam, 16)
    for p, q in zip(full, half):
        assert p.eigenvalue == q.eigenvalue
        assert np.array_equal(p.polynomial.coeffs, q.polynomial.coeffs)


@pytest.mark.parametrize("fam", MPMATH_FAMILIES)
def test_members_match_mpmath_to_degree_32(fam):
    pairs = x1_eigenpairs(fam, 32)
    coeffs = {d: pair.polynomial.coeffs for d, pair in enumerate(pairs, start=1)}
    assert mpmath_error(fam, coeffs) <= 1e-15


def collision_degrees(fam, n_max):
    """Degrees d <= n_max that share an eigenvalue with a lower degree
    1 - 2ab - d >= 0 when 1 - 2ab is an integer."""
    total = 1 - 2 * fam.a * fam.b
    if total != round(total):
        return []
    return [d for d in range(1, n_max + 1) if 0 <= total - d < d]


# near 2ab = -6 - 2e-5 the degree-4 member built in long double is off by
# ~7e-10 and passes the residual check; only the precision check stops it
@pytest.mark.parametrize("ab", [(1.0, -3.0), (0.5, -3.0), (2.0, -1.5), (1.0, -2.0),
                                (1.0, -3.0 - 1e-10), (1.0, -3.0 - 1e-5)])
def test_eigenvalue_collisions_raise_or_match_mpmath(ab):
    """At and near 2ab = -N the members either match mpmath or raise
    ConsistencyError naming the degrees, with no floating-point exception."""
    fam = X1Jacobi(*ab)
    named = set()
    with np.errstate(all="raise"):
        for n_max in range(1, 11):
            try:
                pairs = x1_eigenpairs(fam, n_max)
            except ConsistencyError as exc:
                degrees = set(ast.literal_eval(re.search(r"degrees (\[[^]]*\])", str(exc))[1]))
                assert degrees >= set(collision_degrees(fam, n_max))
                assert degrees and max(degrees) <= n_max
                named |= degrees
                continue
            assert not collision_degrees(fam, n_max)
            coeffs = {d: p.polynomial.coeffs for d, p in enumerate(pairs, start=1)}
            assert mpmath_error(fam, coeffs) <= 1e-14
    assert named  # every case collides within degree 10


@pytest.mark.parametrize("fam", MPMATH_FAMILIES[:3] + (
    x1_jacobi(5.437940902568693, 0.6311977349156458),))
def test_recurrence_values_match_the_members(fam):
    """gram_matrix evaluates members by the classical recurrences; on
    families with an integrable weight the values agree with the
    coefficients to well within the Gram tolerance."""
    x = _sample_points(fam)
    pairs = x1_eigenpairs(fam, 16)
    values = fam._member_values(16, x)
    for row, pair in zip(values, pairs):
        size = Polynomial(np.abs(pair.polynomial.coeffs))(np.abs(x))
        assert np.max(np.abs(row - pair.polynomial(x)) / size) <= 1e-12


def test_recurrence_values_at_alpha_plus_beta_minus_one():
    """alpha + beta = -1 (2ab = -1) makes no 0/0 in the recurrence rows."""
    fam = X1Jacobi(a=-0.25, b=2.0)
    assert sum(x1_jacobi_alpha_beta(fam.a, fam.b)) == -1.0
    values = fam._member_values(4, _sample_points(fam))
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize("fam", [ClassicalLaguerre(0.5), ClassicalLaguerre(3.0),
                                 ClassicalJacobi(0.5, 1.5), ClassicalJacobi(2.0, 0.25)],
                         ids=repr)
def test_classical_gram_is_diagonal_to_roundoff(fam):
    """Classical Gram entries come from the recurrence rows; from monomial
    coefficients, cancellation leaves them off-diagonal by up to ~1e-10."""
    assert max_offdiag_ratio(gram_matrix(fam, 16)) <= 1e-14


# 6.4 and 7.275 raised AccuracyError with the pencil members, 4.8897... and
# 5.7 with the two-term members evaluated from their monomial coefficients
@pytest.mark.parametrize("k", [4.8897037259746226, 5.7, 6.4, 7.275])
def test_laguerre_gram_converges_and_matches_quad(k):
    """The Gram refinements converge, and the diagonal, the first
    off-diagonal and the corner entry agree with QUADPACK."""
    fam = X1Laguerre(k)
    g = gram_matrix(fam, 16)
    members = [tuple(reversed(p.polynomial.coeffs)) for p in x1_eigenpairs(fam, 16)]

    def horner(coeffs, x):
        out = 0.0
        for c in coeffs:
            out = out * x + c
        return out

    diag = np.sqrt(np.diag(g))
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        for i, j in [(i, i) for i in range(16)] + [(i, i + 1) for i in range(15)] + [(0, 15)]:
            def f(x, p=members[i], q=members[j]):
                return horner(p, x) * horner(q, x) * math.exp(-x) / (x + k) ** 2
            head, _ = scipy.integrate.quad(f, 0.0, 1.0, weight="alg", wvar=(k, 0.0),
                                           epsabs=0.0, epsrel=1e-11, limit=200)
            tail, _ = scipy.integrate.quad(lambda x: f(x) * x**k, 1.0, math.inf,
                                           epsabs=0.0, epsrel=1e-11, limit=200)
            worst = max(worst, abs(g[i, j] - head - tail) / (diag[i] * diag[j]))
    assert worst <= 1e-8

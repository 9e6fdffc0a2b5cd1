"""Classical polynomials, tabulated and expanded through their family
objects, against independent series oracles."""

import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import special

from xop import ClassicalJacobi, ClassicalLaguerre, ParameterError, Polynomial, family_members
from xop.polynomials import _classical_monic


# --- the routes under test ---------------------------------------------------

def laguerre_values(n, k, x):
    """L_n^(k) at x: the last recurrence row of the family's members."""
    return ClassicalLaguerre(k)._member_values(n + 1, np.asarray(x, dtype=float))[n]


def jacobi_values(n, alpha, beta, x):
    return ClassicalJacobi(alpha, beta)._member_values(n + 1, np.asarray(x, dtype=float))[n]


def laguerre_coefficients(n, k):
    """Coefficient vector of L_n^(k): the family's last member."""
    return family_members(ClassicalLaguerre(k), n + 1)[n]


def jacobi_coefficients(n, alpha, beta):
    return family_members(ClassicalJacobi(alpha, beta), n + 1)[n]


# --- independent oracles ----------------------------------------------------

def laguerre_series(n, k, x):
    """L_n^(k)(x) = sum_i (-1)^i C(n+k, n-i) x^i / i!; also returns the sum of
    term magnitudes, the scale any floating-point comparison is relative to."""
    total, scale = 0.0, 0.0
    for i in range(n + 1):
        term = (-1) ** i * special.binom(n + k, n - i) * x**i / special.factorial(i)
        total += term
        scale += abs(term)
    return total, scale


def jacobi_series(n, alpha, beta, x):
    total, scale = 0.0, 0.0
    for m in range(n + 1):
        term = (
            special.binom(n + alpha, n - m)
            * special.binom(n + beta, m)
            * ((x - 1) / 2) ** m
            * ((x + 1) / 2) ** (n - m)
        )
        total += term
        scale += abs(term)
    return total, scale


def laguerre_series_coefficients(n, k):
    """Ascending coefficients (-1)^i C(n+k, n-i) / i! in mpmath arithmetic."""
    k = mpmath.mpf(k)
    return [(-1) ** i * mpmath.binomial(n + k, n - i) / mpmath.factorial(i)
            for i in range(n + 1)]


def jacobi_series_coefficients(n, alpha, beta):
    """Ascending coefficients in mpmath arithmetic of
    sum_l (n+a+b+1)_l (a+l+1)_(n-l) / (l! (n-l)!) ((x-1)/2)^l, with each
    power of (x-1)/2 expanded binomially."""
    alpha, beta = mpmath.mpf(alpha), mpmath.mpf(beta)
    out = [mpmath.mpf(0)] * (n + 1)
    for l in range(n + 1):
        c = (mpmath.rf(n + alpha + beta + 1, l) * mpmath.rf(alpha + l + 1, n - l)
             / (mpmath.factorial(l) * mpmath.factorial(n - l) * 2**l))
        for i in range(l + 1):
            out[i] += c * mpmath.binomial(l, i) * (-1) ** (l - i)
    return out


# --- spec examples ----------------------------------------------------------

def test_laguerre_degree_zero_is_one():
    assert laguerre_values(0, 0.5, 7.3) == 1.0


def test_laguerre_degree_one_at_origin():
    assert laguerre_values(1, 0.5, 0.0) == 1.5  # k + 1


def test_laguerre_degree_two_closed_form():
    # x^2/2 - (k+2)x + (k+1)(k+2)/2 at k=0.5, x=2
    assert laguerre_values(2, 0.5, 2.0) == pytest.approx(-1.125, abs=1e-14)


def test_jacobi_degree_zero_is_one():
    assert jacobi_values(0, 0.3, 1.2, -0.4) == 1.0


def test_jacobi_legendre_case():
    assert jacobi_values(1, 0.0, 0.0, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_jacobi_against_series_oracle():
    # value frozen from the series oracle (and re-derived here)
    oracle, _ = jacobi_series(3, 0.5, -0.5, 0.2)
    assert oracle == pytest.approx(-0.4925, abs=1e-13)
    assert jacobi_values(3, 0.5, -0.5, 0.2) == pytest.approx(oracle, rel=1e-13)


# --- recurrence vs series over the domain ------------------------------------

def test_laguerre_recurrence_matches_series():
    rng = np.random.default_rng(42)
    for n in range(11):
        for k in (-0.5, 0.0, 0.5, 1.5, 3.25):
            x = rng.uniform(0.0, 30.0, 20)
            got = laguerre_values(n, k, x)
            pairs = [laguerre_series(n, k, xi) for xi in x]
            want = np.array([v for v, _ in pairs])
            scale = np.array([s for _, s in pairs])
            assert np.all(np.abs(got - want) <= 1e-12 * (1 + scale))


def test_jacobi_recurrence_matches_series():
    rng = np.random.default_rng(43)
    for n in range(11):
        for alpha, beta in ((-0.5, 0.5), (0.0, 0.0), (1.0, 3.0), (2.5, -0.25)):
            x = rng.uniform(-1.0, 1.0, 20)
            got = jacobi_values(n, alpha, beta, x)
            pairs = [jacobi_series(n, alpha, beta, xi) for xi in x]
            want = np.array([v for v, _ in pairs])
            scale = np.array([s for _, s in pairs])
            assert np.all(np.abs(got - want) <= 1e-12 * (1 + scale))


def test_against_scipy_evaluators():
    x = np.linspace(0.1, 25.0, 31)
    assert np.allclose(laguerre_values(7, 1.5, x), special.eval_genlaguerre(7, 1.5, x), rtol=1e-12)
    z = np.linspace(-0.95, 0.95, 31)
    assert np.allclose(jacobi_values(6, 0.5, 2.0, z), special.eval_jacobi(6, 0.5, 2.0, z), rtol=1e-12)


# --- symmetry property -------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=10),
    alpha=st.floats(min_value=-0.9, max_value=4.0),
    beta=st.floats(min_value=-0.9, max_value=4.0),
    x=st.floats(min_value=-0.999, max_value=0.999),
)
def test_jacobi_reflection_symmetry(n, alpha, beta, x):
    left = jacobi_values(n, alpha, beta, -x)
    right = (-1) ** n * jacobi_values(n, beta, alpha, x)
    assert abs(left - right) <= 1e-12 * (1 + abs(left) + abs(right))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=10),
    k=st.floats(min_value=-0.9, max_value=4.0),
    x=st.floats(min_value=0.0, max_value=30.0),
)
def test_laguerre_recurrence_vs_series_property(n, k, x):
    got = laguerre_values(n, k, x)
    want, scale = laguerre_series(n, k, x)
    assert abs(got - want) <= 1e-12 * (1 + scale)


# --- coefficient builders -----------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=16),
    k=st.floats(min_value=-0.9, max_value=8.0),
    alpha=st.floats(min_value=-0.9, max_value=8.0),
    beta=st.floats(min_value=-0.9, max_value=8.0),
)
def test_coefficient_builders_match_recurrence(n, k, alpha, beta):
    """The two routes, the ODE coefficients and the recurrence values, agree
    to roundoff of the sum of term magnitudes."""
    x = np.linspace(0.0, 20.0, 17)
    p = laguerre_coefficients(n, k)
    scale = Polynomial(np.abs(p.coeffs))(x)
    assert np.all(np.abs(p(x) - laguerre_values(n, k, x)) <= 1e-13 * (1 + scale))
    z = np.linspace(-1.0, 1.0, 17)
    q = jacobi_coefficients(n, alpha, beta)
    scale = Polynomial(np.abs(q.coeffs))(np.abs(z))
    assert np.all(np.abs(q(z) - jacobi_values(n, alpha, beta, z)) <= 1e-13 * (1 + scale))


def _max_relative_gap(got, want):
    """max |got - want| over the largest |want|, in mpmath arithmetic."""
    gap = max(abs(mpmath.mpf(float(g)) - w) for g, w in zip(got, want))
    return float(gap / max(abs(w) for w in want))


@pytest.mark.parametrize("k", [-0.85, 0.5, 7.3, 19.5])
def test_laguerre_coefficients_match_mpmath(k):
    with mpmath.workdps(50):
        for n in range(25):
            want = laguerre_series_coefficients(n, k)
            assert _max_relative_gap(laguerre_coefficients(n, k).coeffs, want) <= 5e-16


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.5), (2.0, 0.25), (-0.95, 7.9), (7.5, -0.9)])
def test_jacobi_coefficients_match_mpmath(alpha, beta):
    with mpmath.workdps(50):
        for n in range(25):
            want = jacobi_series_coefficients(n, alpha, beta)
            assert _max_relative_gap(jacobi_coefficients(n, alpha, beta).coeffs, want) <= 5e-16


def classical_monic_reference(count, *, k=None, ab=None):
    """`_classical_monic` as a plain column loop with fresh arrays: the
    in-place build must reproduce it bit for bit."""
    dtype = type(k if ab is None else ab[0])
    c = np.zeros((count, count + 1), dtype=dtype)
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


@pytest.mark.parametrize("dtype", [np.longdouble, np.float64])
@pytest.mark.parametrize("count", [1, 2, 3, 17, 33])
@pytest.mark.parametrize("params", [{"k": 0.5}, {"k": -0.85}, {"k": 19.123456789}, {"ab": (6.0, 2.4)},
                                    {"ab": (0.70710678, -1.3)}, {"ab": (-1.9, 0.1)}, {"ab": (-5.0, -1.0)},
                                    {"ab": (40.0, -7.5)}], ids=repr)
def test_classical_monic_is_the_plain_column_loop(dtype, count, params):
    """Same entries, signs of zero and infinities included (ab = -5 divides
    by zero: a collision of degrees); a NaN may differ in its sign bit,
    which no comparison or output reads."""
    params = {key: dtype(v) if key == "k" else tuple(dtype(u) for u in v)
              for key, v in params.items()}
    with np.errstate(all="ignore"):
        got = _classical_monic(count, **params)
        want = classical_monic_reference(count, **params)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    signed = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[signed]), np.signbit(want[signed]))


def test_jacobi_constant_term_is_exact():
    # P_7^(0.5,1.5)(x) has the dyadic constant term 0.34912109375
    assert jacobi_coefficients(7, 0.5, 1.5).coeffs[0] == 0.34912109375


# --- the Polynomial type -------------------------------------------------------

def test_polynomial_trims_and_freezes():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert not p.coeffs.flags.writeable
    with pytest.raises(ValueError):
        p.coeffs[0] = 9.0


def test_polynomial_rejects_nonfinite():
    with pytest.raises(ParameterError):
        Polynomial([1.0, np.nan])


def test_zero_polynomial():
    p = Polynomial([0.0, 0.0])
    assert p.degree == 0
    assert p(3.0) == 0.0


def test_polynomial_derivative():
    p = Polynomial([1.0, 2.0, 3.0])  # 1 + 2x + 3x^2
    d = p.derivative()
    assert np.allclose(d.coeffs, [2.0, 6.0])


@seed(24)
@settings(max_examples=200, deadline=None, database=None)
@given(
    coeffs=st.lists(st.floats(min_value=-1e290, max_value=1e290), min_size=1, max_size=40),
    order=st.integers(min_value=1, max_value=3),
    past_degree=st.booleans(),
)
def test_polynomial_derivative_is_polyder_bit_for_bit(coeffs, order, past_degree):
    """Orders 1-3 and orders above the degree, which leave the zero
    polynomial."""
    order = len(coeffs) + order - 1 if past_degree else order
    got = Polynomial(coeffs).derivative(order).coeffs
    want = Polynomial(np.polynomial.polynomial.polyder(coeffs, order)).coeffs
    assert got.tobytes() == want.tobytes()


def test_polynomial_to_json():
    assert json.loads(Polynomial([0.5, -1.25, 3.0]).to_json()) == [0.5, -1.25, 3.0]


def test_parameter_validation():
    with pytest.raises(ParameterError):
        ClassicalLaguerre(-1.0)
    with pytest.raises(ParameterError):
        ClassicalJacobi(-1.5, 0.0)

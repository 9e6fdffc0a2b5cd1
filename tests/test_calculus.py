"""Jet arithmetic against centered finite differences.

The pole-quotient identity (H = f/(x-b) with |b| > 1, derivatives expanded
analytically) is the algebra every closed-form wavefunction rests on, so it
gets checked directly at finite-difference accuracy.

The closed-form factor (the prefactor, over the pole factor for the
exceptional variant) is formed from its log terms in one overflow-free
form; it is checked against the product of power and exponential jets
below, against finite differences, and across the accepted parameter box.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from xop import (
    DiracOscillator,
    HartmannAngularI,
    HartmannAngularII,
    HartmannRadial,
    HydrogenLike,
    NumericError,
    ParameterError,
    Polynomial,
    reduce_system,
    x1_eigenpairs,
)
from xop.calculus import Jet2, jet_identity, jet_poly
from xop.systems import _closed_form
from xop.verify import _closed_form_residuals


# the product form of a closed-form prefactor, a power and an exponential
# jet at a time; the systems form their prefactors as one log form instead

def jet_pow(u: Jet2, gamma: float) -> Jet2:
    """Jet of u(x)**gamma (u must stay on one side of zero)."""
    v = u.val**gamma
    outer = Jet2(v, gamma * u.val ** (gamma - 1), gamma * (gamma - 1) * u.val ** (gamma - 2))
    return outer.compose(u)


def jet_exp(u: Jet2) -> Jet2:
    """Jet of exp(u(x))."""
    v = np.exp(u.val)
    return Jet2(v, v * u.d1, v * (u.d2 + u.d1**2))


def finite_differences(fn, x, h=1e-5):
    # stencil in extended precision so the step-h comparison measures the
    # O(h^2) truncation error, not float64 cancellation in the stencil
    x = np.asarray(x, dtype=np.longdouble)
    h = np.longdouble(h)
    d1 = (fn(x + h) - fn(x - h)) / (2 * h)
    d2 = (fn(x + h) - 2 * fn(x) + fn(x - h)) / h**2
    return d1.astype(float), d2.astype(float)


def test_pole_quotient_identity():
    rng = np.random.default_rng(7)
    for b in (1.5, -1.25, 2.0, -3.0):
        for _ in range(5):
            coeffs = rng.uniform(-2.0, 2.0, size=rng.integers(2, 6))
            f = Polynomial(coeffs)
            x = rng.uniform(-0.95, 0.95, 20)
            clong = np.asarray(coeffs, dtype=np.longdouble)

            def h_of(t):
                return np.polynomial.polynomial.polyval(t, clong) / (t - b)

            jet = jet_poly(f, jet_identity(x)) / (jet_identity(x) - b)
            d1, d2 = finite_differences(h_of, x)
            scale = 1 + np.max(np.abs(jet.val))  # fd truncation grows with |H|
            assert np.allclose(jet.val, h_of(x).astype(float), rtol=1e-13)
            assert np.max(np.abs(jet.d1 - d1)) < 1e-6 * scale
            assert np.max(np.abs(jet.d2 - d2)) < 1e-6 * scale


def test_product_and_power_jets():
    x = np.linspace(0.3, 3.0, 25)

    def fn(t):
        return t**1.7 * np.exp(-t / 2)

    u = jet_identity(x)
    jet = jet_pow(u, 1.7) * jet_exp(u * (-0.5))
    d1, d2 = finite_differences(fn, x)
    assert np.allclose(jet.val, fn(x), rtol=1e-13)
    assert np.max(np.abs(jet.d1 - d1)) < 1e-6
    assert np.max(np.abs(jet.d2 - d2)) < 1e-5


def test_composition_chain_rule():
    theta = np.linspace(0.3, np.pi - 0.3, 30)
    z = np.cos(theta)
    f = Polynomial([0.5, -1.0, 2.0])

    def fn(t):
        return f(np.cos(t)) / (2.0 - np.cos(t))

    from xop.calculus import Jet2

    zjet = Jet2(z, -np.sin(theta), -np.cos(theta))
    jet = jet_poly(f, zjet) / (zjet * (-1.0) + 2.0)
    d1, d2 = finite_differences(fn, theta)
    assert np.allclose(jet.val, fn(theta), rtol=1e-13)
    assert np.max(np.abs(jet.d1 - d1)) < 1e-6
    assert np.max(np.abs(jet.d2 - d2)) < 1e-5


# --- the closed-form factor ------------------------------------------------------

# the bench systems, the pole below -1, and each system at the limits of its
# accepted parameters
FACTOR_SYSTEMS = [
    HartmannRadial(l=0, omega=1.0), HartmannAngularI(lambda_a=1.0, s=2.5),
    DiracOscillator(l=0), HydrogenLike(s=0.9, lambda_c=1.9),
    HartmannAngularII(lambda_a=2.0, s=4.0), HartmannAngularII(lambda_a=4.0, s=2.0),
    HartmannRadial(l=0, omega=1e-8), HartmannRadial(l=0, omega=1e8),
    HartmannRadial(l=64, omega=1e-8), HartmannRadial(l=64, omega=1e8),
    DiracOscillator(l=64), HydrogenLike(s=0.05, lambda_c=1.9), HydrogenLike(s=5.0, lambda_c=1.9),
    HartmannAngularI(lambda_a=1.0, s=2000.0), HartmannAngularI(lambda_a=1.0, s=3000.0),
    HartmannAngularI(lambda_a=1.0, s=1e4), HartmannAngularI(lambda_a=9999.0, s=1e4),
    HartmannAngularI(lambda_a=2e-8, s=2.5),
    HartmannAngularII(lambda_a=2.0, s=1e4), HartmannAngularII(lambda_a=1e4, s=2.0),
]


def records(params):
    """The system's record and, for hydrogen, the oscillator in y that its
    grid solves; each with points spanning its residual window and its grid."""
    reduced = reduce_system(params)
    for record in [reduced] + ([reduced.solved_as[0]] if reduced.solved_as else []):
        lo, hi = record.grid_domain or (0.0, 40.0)  # hydrogen's r record has no grid
        x = np.linspace(lo, hi, 402)[1:-1]
        if record.residual_window is not None:
            x = np.concatenate([x, np.linspace(*record.residual_window, 200)])
        yield record, x


def product_factor(record, variant, z):
    """The factor as a product of power and exponential jets, from the
    system's parameters: z^((l+1)/2) e^(-z/2) for the oscillators (l =
    2s + 1/2 for hydrogen in y), z^(s+1) e^(-z/2) for hydrogen in r,
    (1 - z)^(a/2) (1 + z)^(b/2) for the Jacobi wells; over the pole factor
    c0 + c1 z for the exceptional variant."""
    params = record.params
    if record.coordinate == "theta":
        a, b = params.well
        factor = jet_pow(1.0 - z, a / 2) * jet_pow(1.0 + z, b / 2)
    else:
        if isinstance(params, HydrogenLike):
            g = params.s + 1 if record.coordinate == "r" else params.s + 0.75
        else:
            g = (params.l + 1) / 2
        factor = jet_pow(z, g) * jet_exp(z * (-0.5))
    if variant == "exceptional":
        c0, c1 = record.pole_offset
        factor = factor / (z * c1 + c0)
    return factor


def log_factor(record, variant, x):
    """The factor as `_closed_form` forms it: its jets times those of the
    constant polynomial 1."""
    return _closed_form(record, variant, [Polynomial([1.0])])(x)[0]


@pytest.mark.parametrize("variant", ["original", "exceptional"])
@pytest.mark.parametrize("params", FACTOR_SYSTEMS, ids=repr)
def test_log_form_factor_is_the_product_form(params, variant):
    """The log form agrees with the product form to 1e-12 of each
    component's peak wherever the product form's value lies in the float
    range, as jets in z at the z of the record's points: in the coordinate,
    the chain through z = omega r^2 / 2 cancels terms of size |f| / r^2 in
    either form (7e-11 of the peak of d2 at omega = 1e-8, r = 0.05).  The
    product form runs in extended precision, where its powers neither
    overflow nor cancel (at s = 1e4 the second derivatives of the two
    Jacobi powers cancel to ~1e-12 in float64); its values are then rounded
    to float64."""
    for record, x in records(params):
        z = record.coordinate_jet(x).val
        in_z = dataclasses.replace(record, coordinate_jet=jet_identity,
                                   domain=(-math.inf, math.inf))
        with np.errstate(all="ignore"):
            ours = log_factor(in_z, variant, z)
            reference = product_factor(record, variant, jet_identity(z.astype(np.longdouble)))
            parts = [np.asarray(getattr(reference, part), dtype=float)
                     for part in ("val", "d1", "d2")]
        finite = np.isfinite(parts[0]) & np.isfinite(parts[1]) & np.isfinite(parts[2])
        assert np.any(finite)
        for part, expected in zip(("val", "d1", "d2"), parts):
            got = getattr(ours, part)[finite]
            peak = np.max(np.abs(expected[finite]))
            assert np.max(np.abs(got - expected[finite])) <= 1e-12 * peak, (record.coordinate, part)


@pytest.mark.parametrize("variant", ["original", "exceptional"])
@pytest.mark.parametrize("params", FACTOR_SYSTEMS[:6], ids=repr)
def test_log_form_factor_derivatives_are_its_finite_differences(params, variant):
    """d1 and d2 of the factor against central differences of its values
    across the residual window (hydrogen's r record: (0.1, 40)): step 1e-4
    keeps the float64 stencil's rounding (~1e-8 of the peak in d2) and its
    truncation below the bound."""
    h = 1e-4
    for record, _ in records(params):
        x = np.linspace(*(record.residual_window or (0.1, 40.0)), 200)
        jets = log_factor(record, variant, x)
        val = jets.val
        up, down = log_factor(record, variant, x + h).val, log_factor(record, variant, x - h).val
        for got, expected in ((jets.d1, (up - down) / (2 * h)),
                              (jets.d2, (up - 2 * val + down) / h**2)):
            assert np.max(np.abs(got - expected)) <= 1e-6 * np.max(np.abs(got))


def angular(cls, lambda_a, s):
    """The angular well, or None where (lambda_a, s) lies off the accepted
    box (a pole inside the domain, a well parameter below 1/2)."""
    try:
        return cls(lambda_a, s)
    except ParameterError:
        return None


def accepted_systems():
    """Systems drawn from the whole accepted parameter box, and None."""
    return st.one_of(
        st.builds(HartmannRadial, st.integers(0, 64),
                  st.floats(-8.0, 8.0).map(lambda e: 10.0**e)),
        st.builds(DiracOscillator, st.integers(0, 64)),
        st.builds(HydrogenLike, st.floats(0.0, 5.0, exclude_min=True), st.floats(0.5, 10.0)),
        st.builds(angular, st.sampled_from([HartmannAngularI, HartmannAngularII]),
                  st.floats(-8.0, 4.0).map(lambda e: 10.0**e), st.floats(0.5, 1e4)),
    )


@seed(26)
@settings(max_examples=300, deadline=None, database=None)
@given(accepted_systems())
def test_closed_form_residuals_are_finite_or_name_a_degree(params):
    """Across the accepted box the residuals of X1 degrees 1..3 are finite,
    or one raises NumericError naming its degree; no RuntimeWarning escapes
    (warnings fail this suite)."""
    if params is None:
        return
    reduced = reduce_system(params)
    members = x1_eigenpairs(reduced.x1_family, 3)
    try:
        residuals = _closed_form_residuals(reduced, members)
    except NumericError as exc:
        assert re.search(r"degree-[123] X1 wavefunction is not finite", str(exc))
    else:
        assert len(residuals) == 3 and np.all(np.isfinite(residuals))

"""System potentials, shifts, closed-form wavefunctions, and energies.

The sign/scale of every operator-level shift is pinned here by the residual
property: the extended closed-form wavefunctions must satisfy the extended
operators at the original eigenvalues.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

import xop.systems
from xop import (
    ClassicalJacobi,
    ClassicalLaguerre,
    DiracOscillator,
    DomainError,
    Grid,
    HartmannAngularI,
    HartmannAngularII,
    HartmannRadial,
    HydrogenLike,
    Interval,
    ParameterError,
    UsageError,
    X1Jacobi,
    X1Laguerre,
    analytic_energy,
    dirac_oscillator_potential_printed,
    family_to_dict,
    hydrogen_s_parameter,
    hydrogen_standard_energy,
    potential_hartmann_angular_i_printed,
    reduce_system,
    residual_on_operator,
    system_from_dict,
    system_from_json,
    system_to_dict,
    ve_dirac_oscillator,
    ve_hartmann_angular_i,
    ve_hartmann_angular_ii,
    ve_hartmann_radial,
    ve_hydrogen,
    wavefunction,
)

ALL_SYSTEMS = [
    HartmannRadial(l=0, omega=1.0),
    HartmannRadial(l=1, omega=2.0),
    HartmannAngularI(lambda_a=1.0, s=2.5),
    HartmannAngularII(lambda_a=2.0, s=4.0),
    DiracOscillator(l=0),
    DiracOscillator(l=1),
    HydrogenLike(s=0.9, lambda_c=1.9),
    HydrogenLike(s=1.5, lambda_c=2.5),
]

# the hydrogen-like r record has no residual window (its grid form in y has
# one); its closed forms in r are checked on this one
HYDROGEN_R_WINDOW = (0.1, 40.0)


def residual_samples(reduced):
    return np.linspace(*(reduced.residual_window or HYDROGEN_R_WINDOW), 200)


def eigen_residual(reduced, variant, n):
    """Residual of the closed form of `variant` and index n in its system's
    eigenproblem: -u'' + V u = E u, V the original or the extended; for the
    hydrogen-like system the coupling form A u = lambda (1/r) u in r, with
    A = -d^2/dr^2 + s(s+1)/r^2 + 1/4 (+ shift), the weight 1/r written
    out."""
    potential = reduced.original if variant == "original" else reduced.extended
    energy = reduced.energy(n if variant == "original" else n - 1)
    if isinstance(reduced.params, HydrogenLike):
        s, coupling = reduced.params.s, energy
        shift = reduced.shift if variant == "exceptional" else np.zeros_like

        def potential(r):
            return s * (s + 1) / r**2 + 0.25 + shift(r) - coupling / r

        energy = 0.0
    return residual_on_operator(potential, reduced.wavefunction(variant, n), energy,
                                residual_samples(reduced))


# --- printed rational terms ---------------------------------------------------

def test_ve_hartmann_radial_values():
    params = HartmannRadial(l=0, omega=1.0)
    # xi + m = 0.5 + 0.5 = 1 at r=1: 1/1 - 1/1 = 0
    assert ve_hartmann_radial(params, 1.0) == pytest.approx(0.0, abs=1e-14)
    # vanishes at xi = m, i.e. r = sqrt(2m/omega)
    r_star = math.sqrt((2 * params.l + 1) / params.omega)
    assert abs(ve_hartmann_radial(params, r_star)) < 1e-14


def test_ve_hartmann_radial_asymptotic_bound():
    params = HartmannRadial(l=1, omega=1.0)
    m = params.l + 0.5
    r = np.linspace(math.sqrt(4 * (2 * m) / params.omega), 40.0, 200)
    xi = params.omega * r**2 / 2  # all > 2m here
    assert np.all(xi > 2 * m)
    assert np.all(np.abs(ve_hartmann_radial(params, r)) <= 4 / (params.omega * r**2))


def test_ve_angular_i_arithmetic():
    params = HartmannAngularI(lambda_a=1.0, s=2.5)  # b = 2
    assert params.pole == pytest.approx(2.0)
    # 2*2/2 - (2-8)/4 = 2 + 1.5
    assert ve_hartmann_angular_i(params, 0.0) == pytest.approx(3.5, abs=1e-14)
    theta = np.linspace(1e-3, np.pi - 1e-3, 500)
    assert np.all(np.isfinite(ve_hartmann_angular_i(params, np.cos(theta))))


def test_ve_angular_i_negative_pole():
    # b = -2 reached with valid exponents (alpha, beta) = (-0.75, -0.25)
    params = HartmannAngularI(lambda_a=0.25, s=0.0)
    b = params.pole
    assert b == pytest.approx(-2.0)
    want = 2 * b / (b - 0.0) - (2 - 2 * b**2) / (b - 0.0) ** 2
    assert ve_hartmann_angular_i(params, 0.0) == pytest.approx(want, abs=1e-14)
    assert want == pytest.approx(3.5)


def test_ve_angular_ii_arithmetic():
    params = HartmannAngularII(lambda_a=1.0, s=3.0)  # b = 1.5
    assert params.pole == pytest.approx(1.5)
    assert ve_hartmann_angular_ii(params, 0.0) == pytest.approx(-2 + 10 / 9, abs=1e-14)
    assert ve_hartmann_angular_ii(params, 1.0 - 1e-15) == pytest.approx(4.0, abs=1e-9)
    with pytest.raises(ParameterError):
        HartmannAngularII(lambda_a=1.0, s=1.0)  # s = lambda


def test_ve_dirac_values():
    params = DiracOscillator(l=0)
    assert ve_dirac_oscillator(params, 1.0) == pytest.approx(2.0 / 9.0, abs=1e-15)
    # zero at r^2 = (2l+1)/2
    assert abs(ve_dirac_oscillator(params, math.sqrt(0.5))) < 1e-14
    r = np.linspace(3.0, 50.0, 100)
    assert np.all(np.abs(ve_dirac_oscillator(params, r)) <= 2 / r**2)


def test_ve_hydrogen_values():
    params = HydrogenLike(s=0.5, lambda_c=1.5)
    assert ve_hydrogen(params, 1.0) == pytest.approx(-1.0 / 9.0, abs=1e-15)
    # zero at r = 2s+1
    assert abs(ve_hydrogen(params, 2 * params.s + 1)) < 1e-14
    r = np.linspace(50.0, 500.0, 50)
    vals = ve_hydrogen(params, r)
    assert np.all(vals > 0) and np.all(vals < 1.0 / r)


# --- operator-level shifts -----------------------------------------------------

@pytest.mark.parametrize("params", ALL_SYSTEMS, ids=lambda p: repr(p))
def test_extended_is_original_plus_shift(params):
    reduced = reduce_system(params)
    rng = np.random.default_rng(11)
    lo, hi = reduced.residual_window or HYDROGEN_R_WINDOW
    x = rng.uniform(lo, hi, 1000)
    total = reduced.original(x) + reduced.shift(x)
    ext = reduced.extended(x)
    assert np.all(np.abs(ext - total) <= 1e-14 * (1 + np.abs(total)))


def test_radial_shift_anchor_points():
    # shift vanishes where the printed term does: xi = m (radial oscillators),
    # r = 2s+1 (hydrogen-like), exact to 1e-14
    reduced = reduce_system(HartmannRadial(l=0, omega=1.0))
    assert abs(reduced.shift(1.0)) < 1e-14  # xi = 0.5 = m
    reduced = reduce_system(DiracOscillator(l=0))
    assert abs(reduced.shift(1.0)) < 1e-14  # xi = r^2/2 = 0.5 = m
    s = 0.9
    reduced = reduce_system(HydrogenLike(s=s, lambda_c=1.9))
    assert abs(reduced.shift(2 * s + 1)) < 1e-14


def test_radial_shift_far_decay():
    for params in (HartmannRadial(l=0, omega=1.0), DiracOscillator(l=1),
                   HydrogenLike(s=0.9, lambda_c=1.9)):
        reduced = reduce_system(params)
        assert abs(reduced.shift(500.0)) < 1e-2
        assert abs(reduced.shift(500.0)) < abs(reduced.shift(5.0))


def test_angular_shift_anchor():
    # angular shift vanishes at cos(theta) = 1/b
    params = HartmannAngularI(lambda_a=1.0, s=2.5)
    reduced = reduce_system(params)
    theta_star = math.acos(1.0 / params.pole)
    assert abs(reduced.shift(theta_star)) < 1e-12


# --- closed-form wavefunction residuals (the construction's ground truth) ------

@pytest.mark.parametrize("params", ALL_SYSTEMS, ids=lambda p: repr(p))
def test_original_wavefunctions_satisfy_original_operator(params):
    reduced = reduce_system(params)
    for n in range(3):
        resid = eigen_residual(reduced, "original", n)
        assert resid < 1e-10, (params, n, resid)


@pytest.mark.parametrize("params", ALL_SYSTEMS, ids=lambda p: repr(p))
def test_exceptional_wavefunctions_satisfy_extended_operator(params):
    """Isospectrality at the solution level: X1 degree n pairs with the
    original level n-1 eigenvalue."""
    reduced = reduce_system(params)
    for degree in (1, 2, 3):
        resid = eigen_residual(reduced, "exceptional", degree)
        assert resid < 1e-8, (params, degree, resid)


def test_classical_wavefunction_fails_extended_operator():
    # negative control: the unextended solution is not an extended eigenstate
    params = DiracOscillator(l=0)
    reduced = reduce_system(params)
    samples = np.linspace(0.05, 12.0, 200)
    psi = wavefunction(params, "original", 0)
    resid = residual_on_operator(reduced.extended, psi, reduced.energy(0), samples)
    assert resid >= 1e-2


def test_wrong_sign_shift_breaks_residual():
    params = HartmannAngularI(lambda_a=1.0, s=2.5)
    reduced = reduce_system(params)
    samples = np.linspace(0.15, np.pi - 0.15, 200)
    psi = wavefunction(params, "exceptional", 1)

    def flipped(theta):
        return reduced.original(theta) - reduced.shift(theta)

    resid = residual_on_operator(flipped, psi, reduced.energy(0), samples)
    assert resid >= 1e-2


def test_exceptional_degree_zero_rejected():
    with pytest.raises(UsageError):
        wavefunction(DiracOscillator(l=0), "exceptional", 0)


def test_original_ground_state_has_no_node():
    psi = wavefunction(HartmannRadial(l=0, omega=1.0), "original", 0)
    vals = psi(np.linspace(0.05, 10.0, 300)).val
    assert np.all(vals > 0)


def test_hydrogen_exceptional_finite_and_decaying():
    params = HydrogenLike(s=0.9, lambda_c=1.9)
    psi = wavefunction(params, "exceptional", 1)
    r = np.linspace(1e-6, 60.0, 400)
    vals = psi(r).val
    assert np.all(np.isfinite(vals))
    assert abs(vals[-1]) < 1e-8 * np.max(np.abs(vals))


def test_wavefunction_domain_and_variant_errors():
    psi = wavefunction(DiracOscillator(l=0), "original", 0)
    with pytest.raises(DomainError):
        psi(np.array([-1.0]))
    with pytest.raises(UsageError):
        wavefunction(DiracOscillator(l=0), "both", 1)


@pytest.mark.parametrize("variant, n", [("original", 2), ("exceptional", 3)])
def test_reduced_wavefunction_is_built_on_its_own_record(variant, n, monkeypatch):
    """`ReducedSystem.wavefunction` reads the record it is called on and does
    not reduce the system again: a record whose prefactor is doubled gives
    twice the jets, and no `reduce_system` call is made."""
    reduced = reduce_system(HydrogenLike(s=0.9, lambda_c=1.9))
    doubled = dataclasses.replace(reduced, prefactor_jet=lambda z: reduced.prefactor_jet(z) * 2.0)
    monkeypatch.setattr(xop.systems, "reduce_system", None)
    r = np.linspace(0.1, 40.0, 50)
    jets, twice = reduced.wavefunction(variant, n)(r), doubled.wavefunction(variant, n)(r)
    for part in ("val", "d1", "d2"):
        assert np.array_equal(getattr(twice, part), 2.0 * getattr(jets, part))


def test_interval_is_open():
    """`contains` holds only when every point lies strictly inside, ends
    excluded, for scalars and arrays alike; an infinite end is never
    reached, and NaN is inside nothing."""
    unit = Interval(0.0, 1.0)
    assert unit.contains(0.5)
    assert not unit.contains(0.0) and not unit.contains(1.0)
    assert unit.contains(np.array([1e-300, 0.5, 1.0 - 1e-16]))
    assert not unit.contains([0.25, 1.5]) and not unit.contains([-0.25, 0.5])
    half_line = Interval(0.0, np.inf)
    assert half_line.contains([1e-300, 1e300])
    assert not half_line.contains(np.inf) and not half_line.contains([1.0, np.nan])
    assert reduce_system(HydrogenLike(s=0.9, lambda_c=1.9)).domain == half_line


# --- energies -------------------------------------------------------------------

def test_oscillator_energies():
    assert analytic_energy(HartmannRadial(l=0, omega=1.0), 0) == 1.5
    assert analytic_energy(HartmannRadial(l=1, omega=1.0), 2) == 6.5
    assert analytic_energy(HartmannRadial(l=0, omega=2.0), 1) == 7.0
    assert analytic_energy(DiracOscillator(l=0), 0) == 1.5
    assert analytic_energy(DiracOscillator(l=2), 1) == 5.5


def test_angular_eigenvalue_identity():
    # n^2 + 2sn + s^2 == (n+s)^2 exactly
    s = 2.5
    for n in range(5):
        assert analytic_energy(HartmannAngularI(lambda_a=1.0, s=s), n) == (s + n) ** 2
        assert n**2 + 2 * s * n == pytest.approx((n + s) ** 2 - s**2, abs=0)


def test_hydrogen_energies():
    params = HydrogenLike(s=0.9, lambda_c=1.9)
    assert analytic_energy(params, 0) == pytest.approx(1.9)  # coupling form
    assert hydrogen_standard_energy(params, 0) == pytest.approx(-0.25)
    assert hydrogen_standard_energy(params, 1) == pytest.approx(
        -(1.9**2) / (4 * 2.9**2))


def test_hydrogen_s_parameter_positive_root():
    s = hydrogen_s_parameter(1, 0.5)  # s(s+1) = 2 - 0.5
    assert s > 0
    assert s * (s + 1) == pytest.approx(1.5, rel=1e-14)
    with pytest.raises(ParameterError):
        hydrogen_s_parameter(0, 0.5)


# --- parameter maps --------------------------------------------------------------

def test_laguerre_parameter_map():
    # k = l + 1/2 reproduces the first-order coefficient l + 3/2 = k + 1
    reduced = reduce_system(HartmannRadial(l=1, omega=1.0))
    assert isinstance(reduced.classical_family, ClassicalLaguerre)
    assert reduced.classical_family.k == 1.5
    assert isinstance(reduced.x1_family, X1Laguerre)
    assert reduced.x1_family.k == 1.5


def test_angular_jacobi_parameter_map():
    params = HartmannAngularI(lambda_a=1.0, s=2.5)
    reduced = reduce_system(params)
    fam = reduced.classical_family
    assert isinstance(fam, ClassicalJacobi)
    assert fam.alpha == pytest.approx(-1.0 + 2.5 - 0.5)  # s - lambda - 1/2
    assert fam.beta == pytest.approx(1.0 + 2.5 - 0.5)
    x1 = reduced.x1_family
    assert isinstance(x1, X1Jacobi)
    assert x1.a == pytest.approx(params.lambda_a)
    assert x1.b == pytest.approx((2 * 2.5 - 1) / (2 * 1.0))
    # the (a, b) inversion reproduces (alpha, beta)
    from xop import x1_jacobi_alpha_beta

    assert x1_jacobi_alpha_beta(x1.a, x1.b) == pytest.approx((fam.alpha, fam.beta))


@pytest.mark.parametrize("lambda_a, s", [(2.0, 4.0), (1.0, 3.0), (3.0, 1.0), (1e4, 2.0)])
def test_second_angular_family_is_the_first_in_half_the_angle(lambda_a, s):
    """HartmannAngularII(lambda_a, s) at theta is 4 x the first family's
    well at ((s - lambda_a)/2, (lambda_a + s)/2) at 2 theta: both are the
    Jacobi well at (a, b) = (lambda_a, s).  For s < lambda_a the first
    family's class refuses its negative lambda_a, and the well is built at
    the same (a, b) directly; it needs no reflection z -> -z."""
    second = reduce_system(HartmannAngularII(lambda_a, s))
    if s > lambda_a:
        first = reduce_system(HartmannAngularI((s - lambda_a) / 2, (lambda_a + s) / 2))
    else:
        first = xop.systems._jacobi_well(second.params, lambda_a, s, 0.5)
    assert first.domain.hi == first.grid_domain[1] == 2 * second.domain.hi
    theta = np.linspace(1e-3, np.pi / 2 - 1e-3, 500)
    scale = (abs(lambda_a * (lambda_a - 1)) / np.sin(theta) ** 2
             + abs(s * (s - 1)) / np.cos(theta) ** 2)
    assert np.all(np.abs(4 * first.original(2 * theta) - second.original(theta)) <= 1e-13 * scale)
    shift = second.shift(theta)
    assert np.max(np.abs(4 * first.shift(2 * theta) - shift)) <= 1e-13 * np.max(np.abs(shift))
    z_first, z_second = first.coordinate_jet(2 * theta), second.coordinate_jet(theta)
    assert np.array_equal(z_second.val, z_first.val)
    assert np.array_equal(z_second.d1, 2 * z_first.d1)
    assert np.array_equal(z_second.d2, 4 * z_first.d2)
    z = np.linspace(-0.9, 0.9, 7)
    assert np.array_equal(first.prefactor_jet(z), second.prefactor_jet(z))
    assert [4 * first.energy(n) for n in range(8)] == [second.energy(n) for n in range(8)]
    for one, two in ((first.classical_family, second.classical_family),
                     (first.x1_family, second.x1_family)):
        assert family_to_dict(one) == family_to_dict(two)
    assert first.pole_offset == second.pole_offset


def test_first_angular_potential_does_not_cancel_at_the_walls():
    """At s - lambda_a = 1 the single fraction
    ((lambda^2 + s^2 - s) - lambda (2s-1) cos theta) / sin^2 theta cancels
    near theta = 0, to ~6e-9 relative on a 20000-point grid; the Jacobi
    well's two terms meet its 40-digit value on the first and last 50 grid
    points to 1e-14."""
    params = HartmannAngularI(lambda_a=9999.0, s=1e4)
    theta = Grid(0.0, np.pi, 20000).points
    theta = np.concatenate((theta[:50], theta[-50:]))
    got = reduce_system(params).original(theta)
    with mpmath.workdps(40):
        la, s = mpmath.mpf(params.lambda_a), mpmath.mpf(params.s)
        worst = max(
            abs(value / ((la**2 + s**2 - s) - la * (2 * s - 1) * mpmath.cos(t))
                * mpmath.sin(t) ** 2 - 1)
            for value, t in zip(map(mpmath.mpf, got), map(mpmath.mpf, theta)))
    assert worst <= 1e-14


def test_hydrogen_family_map():
    reduced = reduce_system(HydrogenLike(s=0.9, lambda_c=1.9))
    assert reduced.classical_family.k == pytest.approx(2.8)  # 2s + 1


# --- printed accessors ------------------------------------------------------------

def test_angular_printed_potential_at_half_pi():
    params = HartmannAngularI(lambda_a=1.0, s=2.5)
    # csc = 1, cot = 0 there
    want = params.lambda_a**2 + params.s**2 + params.s
    assert potential_hartmann_angular_i_printed(params, np.pi / 2) == pytest.approx(want)


def test_angular_printed_parity():
    params = HartmannAngularI(lambda_a=1.0, s=2.5)
    theta = 0.7
    plus = potential_hartmann_angular_i_printed(params, theta)
    minus = potential_hartmann_angular_i_printed(params, np.pi - theta)
    csc2 = 1 / np.sin(theta) ** 2
    # the pair differs only through the odd csc*cot term
    assert plus + minus == pytest.approx(2 * (params.lambda_a**2 + params.s**2 + params.s) * csc2)
    with pytest.raises(DomainError):
        potential_hartmann_angular_i_printed(params, 0.0)


def test_angular_printed_vs_operator_form_differ_by_2s_csc2():
    params = HartmannAngularI(lambda_a=1.0, s=2.5)
    reduced = reduce_system(params)
    theta = np.linspace(0.2, np.pi - 0.2, 50)
    printed = potential_hartmann_angular_i_printed(params, theta)
    used = reduced.original(theta)
    assert np.allclose(printed - used, 2 * params.s / np.sin(theta) ** 2, rtol=1e-12)


def test_dirac_printed_potential():
    params = DiracOscillator(l=0)
    val = dirac_oscillator_potential_printed(params, 1.0, energy=1.5)
    assert val == pytest.approx(0.5 - 1.5 + 2.0 / 9.0, abs=1e-14)


# --- parameter records and serialization -------------------------------------------

def test_system_validation():
    with pytest.raises(ParameterError):
        HartmannRadial(l=-1)
    with pytest.raises(ParameterError):
        HartmannRadial(l=0, omega=0.0)
    with pytest.raises(ParameterError):
        HartmannAngularI(lambda_a=1.0, s=0.9)  # |b| = 0.4 < 1
    with pytest.raises(ParameterError):
        HydrogenLike(s=0.0, lambda_c=1.0)
    with pytest.raises(ParameterError):
        DiracOscillator(l=0, omega=2.0)  # reduction fixed at omega = 1
    with pytest.raises(ParameterError):
        HydrogenLike(s=0.9, lambda_c=1.9, chi=2.0)  # reduction fixed at chi = 1


def test_system_json_roundtrip():
    for params in ALL_SYSTEMS:
        data = system_to_dict(params)
        assert system_from_dict(data) == params
        assert {"kind", "params"} == set(data)
    parsed = system_from_json('{"kind": "DiracOscillator", "params": {"l": 0}}')
    assert parsed == DiracOscillator(l=0)
    with pytest.raises(UsageError):
        system_from_json("{not json")
    with pytest.raises(UsageError):
        system_from_dict({"kind": "Unknown", "params": {}})


def test_named_reduce_helpers():
    assert reduce_system(HartmannRadial(0, 1.0)).energy(0) == 1.5
    assert reduce_system(DiracOscillator(1)).energy(2) == 6.5
    reduced = reduce_system(HydrogenLike(0.9, 1.9))  # lambda_c = s + 1
    assert hydrogen_standard_energy(reduced.params, 0) == pytest.approx(-0.25)


def test_hydrogen_s_parameter_continuity():
    # small coupling leaves the centrifugal term nearly classical
    s = hydrogen_s_parameter(1, 1e-4)
    assert s == pytest.approx(1.0, abs=1e-4)


# --- the per-system records --------------------------------------------------------

# (params, coordinate, domain, grid_domain, residual_window, pole_offset,
#  classical family, X1 family, levels 0-3), every number exact
RECORDS = [
    (HartmannRadial(l=0, omega=1.0), "r", (0.0, math.inf), (0.0, 20.0), (0.05, 12.0),
     (0.5, 1.0), ("ClassicalLaguerre", {"k": 0.5}), ("X1Laguerre", {"k": 0.5}),
     [1.5, 3.5, 5.5, 7.5]),
    (HartmannAngularI(lambda_a=1.0, s=2.5), "theta", (0.0, math.pi),
     (0.0, 3.141592653589793), (0.15, 2.991592653589793), (2.0, -1.0),
     ("ClassicalJacobi", {"alpha": 1.0, "beta": 3.0}),
     ("X1Jacobi", {"a": 1.0, "b": 2.0, "c": 3.0}), [6.25, 12.25, 20.25, 30.25]),
    (DiracOscillator(l=0), "r", (0.0, math.inf), (0.0, 20.0), (0.05, 12.0),
     (0.5, 1.0), ("ClassicalLaguerre", {"k": 0.5}), ("X1Laguerre", {"k": 0.5}),
     [1.5, 3.5, 5.5, 7.5]),
    (HydrogenLike(s=0.9, lambda_c=1.9), "r", (0.0, math.inf), None, None,
     (2.8, 1.0), ("ClassicalLaguerre", {"k": 2.8}), ("X1Laguerre", {"k": 2.8}),
     [1.9, 2.9, 3.9, 4.9]),
    (HartmannAngularII(lambda_a=2.0, s=4.0), "theta", (0.0, 1.5707963267948966),
     (0.0, 1.5707963267948966), (0.075, 1.4957963267948966), (2.5, -1.0),
     ("ClassicalJacobi", {"alpha": 1.5, "beta": 3.5}),
     ("X1Jacobi", {"a": 1.0, "b": 2.5, "c": 3.5}), [36.0, 64.0, 100.0, 144.0]),
    (HartmannRadial(l=2, omega=2.5), "r", (0.0, math.inf), (0.0, 12.649110640673516),
     (0.05, 7.58946638440411), (2.5, 1.0), ("ClassicalLaguerre", {"k": 2.5}),
     ("X1Laguerre", {"k": 2.5}), [8.75, 13.75, 18.75, 23.75]),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: repr(r[0]))
def test_reduced_record_values(record):
    params, coordinate, domain, grid, window, pole, classical, x1, levels = record
    reduced = reduce_system(params)
    assert reduced.coordinate == coordinate
    assert (reduced.domain.lo, reduced.domain.hi) == domain
    assert reduced.grid_domain == grid
    assert reduced.residual_window == window
    assert reduced.pole_offset == pole
    for family, (kind, values) in ((reduced.classical_family, classical),
                                   (reduced.x1_family, x1)):
        assert family_to_dict(family) == {"kind": kind, "params": values}
    assert [reduced.energy(n) for n in range(4)] == levels
    assert [analytic_energy(params, n) for n in range(4)] == levels


@pytest.mark.parametrize("s", [0.05, 0.9, 5.0])
def test_hydrogen_is_the_half_omega_oscillator_in_y(s):
    """With r = y^2/4 and u = (y/2)^(1/2) w, the coupling form is the radial
    oscillator at l = 2s + 1/2 and omega = 1/2: its grid record has the
    oscillator potential, the shift ve_hydrogen(y^2/4), the couplings
    n + s + 1 as levels, the r record's families and pole offset, and the
    closed forms (y/2)^(-1/2) u(y^2/4)."""
    params = HydrogenLike(s=s, lambda_c=1.9)
    reduced = reduce_system(params)
    in_y, grid = reduced.grid_form()
    assert in_y.coordinate == "y" and grid == in_y.grid_domain == (0.0, 20.0 / math.sqrt(0.5))
    y = np.linspace(0.05, 25.0, 500)
    nu = 2 * s + 0.5
    assert np.allclose(in_y.original(y), nu * (nu + 1) / y**2 + y**2 / 16, rtol=1e-14, atol=0)
    ve = ve_hydrogen(params, y**2 / 4)
    assert np.max(np.abs(in_y.shift(y) - ve)) <= 1e-12 * np.max(np.abs(ve))
    assert [in_y.energy(n) for n in range(4)] == pytest.approx(
        [n + s + 1 for n in range(4)], rel=1e-15, abs=0)
    assert (in_y.classical_family, in_y.x1_family, in_y.pole_offset) == (
        reduced.classical_family, reduced.x1_family, reduced.pole_offset)
    for variant, n in (("original", 2), ("exceptional", 3)):
        w = in_y.wavefunction(variant, n)(y).val
        u = reduced.wavefunction(variant, n)(y**2 / 4).val
        assert np.max(np.abs(w - (y / 2) ** -0.5 * u)) <= 1e-12 * np.max(np.abs(w))


def test_grid_form_checks_and_maps_overrides():
    """An override lies within the closed domain and is given in the
    system's own coordinate; hydrogen's is mapped by y = 2 sqrt(r)."""
    hydrogen = reduce_system(HydrogenLike(s=0.9, lambda_c=1.9))
    assert hydrogen.grid_form((0.0, 31.0))[1] == (0.0, 2 * math.sqrt(31.0))
    angular = reduce_system(HartmannAngularI(lambda_a=1.0, s=2.5))
    assert angular.grid_form((0.0, math.pi)) == (angular, (0.0, math.pi))
    for reduced, bounds in ((hydrogen, (-1.0, 80.0)), (angular, (0.5, 3.5))):
        with pytest.raises(UsageError, match="outside its domain"):
            reduced.grid_form(bounds)

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
    ParameterError,
    UsageError,
    X1Jacobi,
    X1Laguerre,
    analytic_energy,
    family_to_dict,
    reduce_system,
    residual_on_operator,
    system_from_dict,
    system_from_json,
    system_to_dict,
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


# --- the printed rational terms, transported --------------------------------

def ve_radial(params, r):
    """The ring-shaped oscillator's printed term 1/u - (2l+1)/u^2,
    u = xi + l + 1/2 with xi = omega r^2/2."""
    u = params.omega * r**2 / 2 + params.l + 0.5
    return 1.0 / u - (2 * params.l + 1) / u**2


def ve_dirac(params, rho):
    """The Dirac oscillator's printed term 1/(rho^2+m) - 2m/(rho^2+m)^2,
    m = l + 1/2, in its unscaled radial coordinate rho."""
    m = params.l + 0.5
    return 1.0 / (rho**2 + m) - 2 * m / (rho**2 + m) ** 2


def ve_hydrogen(params, r):
    """The hydrogen-like printed term 1/(r+2s+1) - 2(2s+1)/(r+2s+1)^2."""
    k = 2 * params.s + 1
    return 1.0 / (r + k) - 2 * k / (r + k) ** 2


def printed_angular(z, b):
    """P(z, b) = 2b/(z-b) - (2-2b^2)/(z-b)^2, the angular printed term at
    the pole b."""
    return 2 * b / (z - b) - (2 - 2 * b**2) / (z - b) ** 2


# (params, coordinate of the record, its shift from the printed term)
TRANSPORTS = [
    (HartmannRadial(l=0, omega=1.0), "r", lambda p, r: 2 * p.omega * ve_radial(p, r)),
    (HartmannRadial(l=2, omega=2.5), "r", lambda p, r: 2 * p.omega * ve_radial(p, r)),
    (HartmannRadial(l=64, omega=1e-8), "r", lambda p, r: 2 * p.omega * ve_radial(p, r)),
    (DiracOscillator(l=0), "r", lambda p, r: 2 * ve_dirac(p, r / math.sqrt(2))),
    (DiracOscillator(l=5), "r", lambda p, r: 2 * ve_dirac(p, r / math.sqrt(2))),
    (HydrogenLike(s=0.9, lambda_c=1.9), "r", lambda p, r: ve_hydrogen(p, r) / r),
    (HydrogenLike(s=0.9, lambda_c=1.9), "y", lambda p, y: ve_hydrogen(p, y**2 / 4)),
    (HydrogenLike(s=5.0, lambda_c=1.0), "y", lambda p, y: ve_hydrogen(p, y**2 / 4)),
    (HartmannAngularII(lambda_a=2.0, s=4.0), "theta",
     lambda p, t: -4 * printed_angular(np.cos(2 * t), p.pole)),
    (HartmannAngularII(lambda_a=3.0, s=1.0), "theta",
     lambda p, t: -4 * printed_angular(np.cos(2 * t), p.pole)),
    (HartmannAngularII(lambda_a=1e4, s=2.0), "theta",
     lambda p, t: -4 * printed_angular(np.cos(2 * t), p.pole)),
    (HartmannAngularI(lambda_a=1.0, s=2.5), "theta",
     lambda p, t: -printed_angular(np.cos(t), p.pole)),
    (HartmannAngularI(lambda_a=2.0, s=1e3), "theta",
     lambda p, t: -printed_angular(np.cos(t), p.pole)),
    (HartmannAngularI(lambda_a=0.3, s=2.0), "theta",
     lambda p, t: -printed_angular(np.cos(t), p.pole)),
]


@pytest.mark.parametrize("params, coordinate, transported", TRANSPORTS,
                         ids=[f"{params!r}-{coordinate}" for params, coordinate, _ in TRANSPORTS])
def test_shift_is_the_printed_term_transported(params, coordinate, transported):
    """Each builder's shift is the source's printed rational term carried to
    the Schrodinger operator by the variable and prefactor maps: the
    oscillators' 2 omega ve(xi), the Dirac oscillator's printed term in
    rho = r/sqrt(2), the hydrogen-like term over r (and at r = y^2/4 in the
    y record the grid solves), and -kappa^2 x 4 P(z, pole) in
    z = cos(2 kappa theta) for the Jacobi wells.  The first angular family's
    term as transcribed, 2b/(b-z) - (2-2b^2)/(b-z)^2, has the sign of its
    second term flipped against P and is no affine image of the shift."""
    reduced = reduce_system(params)
    record = reduced if reduced.coordinate == coordinate else reduced.grid_form()[0]
    assert record.coordinate == coordinate
    x = np.linspace(*(record.residual_window or HYDROGEN_R_WINDOW), 1000)
    want = transported(params, x)
    assert np.max(np.abs(record.shift(x) - want)) <= 3e-13 * np.max(np.abs(want))


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


@pytest.mark.parametrize("params, inside, outside", [
    (HartmannAngularI(lambda_a=1.0, s=2.5), [1e-3, 0.5, np.pi - 1e-3], [0.0, np.pi]),
    (HartmannAngularI(lambda_a=1.0, s=2.5), [0.5], [np.nan]),
    (HydrogenLike(s=0.9, lambda_c=1.9), [1e-6, 1.0, 1e3], [np.inf]),
], ids=["ends excluded", "nan", "infinite end"])
def test_wavefunction_domain_is_open(params, inside, outside):
    """A closed-form wavefunction takes points strictly inside its open
    domain, scalars and arrays alike; an end, NaN or an infinite end in
    the argument raises DomainError."""
    psi = reduce_system(params).wavefunction("exceptional", 2)
    assert np.all(np.isfinite(psi(np.array(inside)).val))
    for point in outside:
        with pytest.raises(DomainError, match="outside open domain"):
            psi(point)
        with pytest.raises(DomainError, match="outside open domain"):
            psi(np.array(inside + [point]))


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
    assert first.domain[1] == first.grid_domain[1] == 2 * second.domain[1]
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


# --- parameter records and serialization -------------------------------------------

def test_system_validation():
    with pytest.raises(ParameterError):
        HartmannRadial(l=-1)
    with pytest.raises(ParameterError):
        HartmannRadial(l=0, omega=0.0)
    with pytest.raises(ParameterError):
        HartmannAngularI(lambda_a=1.0, s=0.9)  # |b| = 0.4 < 1
    with pytest.raises(ParameterError):
        HartmannAngularII(lambda_a=1.0, s=1.0)  # s = lambda_a: infinite pole
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
    assert reduce_system(HydrogenLike(0.9, 1.9)).energy(1) == 2.9


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
     ("X1Jacobi", {"a": 1.0, "b": 2.0}), [6.25, 12.25, 20.25, 30.25]),
    (DiracOscillator(l=0), "r", (0.0, math.inf), (0.0, 20.0), (0.05, 12.0),
     (0.5, 1.0), ("ClassicalLaguerre", {"k": 0.5}), ("X1Laguerre", {"k": 0.5}),
     [1.5, 3.5, 5.5, 7.5]),
    (HydrogenLike(s=0.9, lambda_c=1.9), "r", (0.0, math.inf), None, None,
     (2.8, 1.0), ("ClassicalLaguerre", {"k": 2.8}), ("X1Laguerre", {"k": 2.8}),
     [1.9, 2.9, 3.9, 4.9]),
    (HartmannAngularII(lambda_a=2.0, s=4.0), "theta", (0.0, 1.5707963267948966),
     (0.0, 1.5707963267948966), (0.075, 1.4957963267948966), (2.5, -1.0),
     ("ClassicalJacobi", {"alpha": 1.5, "beta": 3.5}),
     ("X1Jacobi", {"a": 1.0, "b": 2.5}), [36.0, 64.0, 100.0, 144.0]),
    (HartmannRadial(l=2, omega=2.5), "r", (0.0, math.inf), (0.0, 12.649110640673516),
     (0.05, 7.58946638440411), (2.5, 1.0), ("ClassicalLaguerre", {"k": 2.5}),
     ("X1Laguerre", {"k": 2.5}), [8.75, 13.75, 18.75, 23.75]),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: repr(r[0]))
def test_reduced_record_values(record):
    params, coordinate, domain, grid, window, pole, classical, x1, levels = record
    reduced = reduce_system(params)
    assert reduced.coordinate == coordinate
    assert reduced.domain == domain
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
    oscillator potential, the shift ve(y^2/4) (see the transport test), the couplings
    n + s + 1 as levels, the r record's families and pole offset, and the
    closed forms (y/2)^(-1/2) u(y^2/4)."""
    params = HydrogenLike(s=s, lambda_c=1.9)
    reduced = reduce_system(params)
    in_y, grid = reduced.grid_form()
    assert in_y.coordinate == "y" and grid == in_y.grid_domain == (0.0, 20.0 / math.sqrt(0.5))
    y = np.linspace(0.05, 25.0, 500)
    nu = 2 * s + 0.5
    assert np.allclose(in_y.original(y), nu * (nu + 1) / y**2 + y**2 / 16, rtol=1e-14, atol=0)
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

"""The five exactly solvable systems and their rational extensions.

A system is a frozen parameter record plus one builder that turns it into a
``ReducedSystem``; ``_BUILDERS`` maps each parameter class to its builder
and is the only list of systems (``reduce_system``, ``analytic_energy``,
``wavefunction`` and the JSON kinds all read it).  Adding a system means
writing its parameter class and its builder and adding one table entry.  A
builder supplies:

* the coordinate name, the open domain, the truncated grid domain and the
  window where closed-form residuals are sampled;
* the potentials ``original`` and ``shift`` (the rational term that turns
  it into its isospectral partner; ``extended`` is their pointwise sum);
  the grid solves -u'' + V u = E u for V either of them;
* the classical and X1 families whose members carry the original and
  extended levels;
* the level-energy law, and the three pieces of the closed-form
  wavefunctions: the jet of the polynomial variable z in the coordinate,
  the prefactor jet in z (which maps plain values of z to plain values),
  and the pole offset (c0, c1) of the pole factor c0 + c1 z;
* for a system the grid solves in another coordinate, ``solved_as``: the
  record in that coordinate and the map onto it (its own grid domain and
  residual window are then None).

The ``ve_*`` functions reproduce the source expressions for the rational
terms verbatim (in the polynomial-equation normalization they were derived
in).  The ``shift`` used by the eigenvalue pipeline is the same rational
profile transported to the Schrodinger operator, which fixes overall scale
and sign; the transport factors were pinned by requiring the closed-form
extended wavefunctions to satisfy the extended operators exactly (see
tests/test_systems.py) rather than by transcription.

Radial oscillators use xi = omega r^2 / 2 and energies (2n + l + 3/2) omega.
The Dirac oscillator reduces, after rescaling the radial coordinate by
sqrt(2), to the omega = 1 oscillator operator -u'' + [l(l+1)/r^2 + r^2/4] u,
whose spectrum is exactly E_n = 2n + l + 3/2, so both share one builder; its
printed form (in the unscaled coordinate, where xi = r^2) is kept as a
labelled accessor.

The two angular families are one Jacobi (Poschl-Teller) well
kappa^2 [a(a-1)/sin^2(kappa theta) + b(b-1)/cos^2(kappa theta)] in
z = cos(2 kappa theta), with levels kappa^2 (a + b + 2n)^2: the second at
(a, b, kappa) = (lambda_a, s, 1), the first at (s - lambda_a, s + lambda_a,
1/2), so both share one builder.  The first family's printed single
fraction ((lambda^2 + s^2 - s) - lambda (2s - 1) cos theta) / sin^2 theta is
the same function, but it cancels near theta = 0 when s - lambda_a is near
1; the two terms subtract nothing.

The hydrogen-like system is conditionally exactly solvable: with the radial
variable fixed at chi = 1 scale the energy sits at -1/4 and the Coulomb
coupling is quantized at lambda_n = n + s + 1, the eigenvalues of the
coupling form  A u = lambda (1/r) u  with A = -d^2/dr^2 + s(s+1)/r^2 + 1/4
(+ shift ve_hydrogen(r)/r); "isospectral" means equal coupling spectra.
With r = y^2/4 and u = (y/2)^(1/2) w (the Coulomb-oscillator duality) the
coupling form is exactly the oscillator in y at l = 2s + 1/2, omega = 1/2,
-w'' + [l(l+1)/y^2 + y^2/16 + ve_hydrogen(y^2/4)] w = lambda w, with the
couplings as levels and the same families and pole: the grid solves that
(``solved_as``).  The r record keeps the fixed-coupling potential
``lambda_c`` as ``original``, for plots and the Coulomb-level cross-check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

import numpy as np

from .calculus import Jet2, jet_exp, jet_identity, jet_poly, jet_pow
from .errors import DomainError, ParameterError, UsageError
from .exceptional import (
    ClassicalJacobi,
    ClassicalLaguerre,
    FamilySpec,
    X1Jacobi,
    X1Laguerre,
    _member_values,
    family_members,
    x1_polynomial,
)
from .polynomials import Polynomial

__all__ = [
    "HartmannRadial",
    "HartmannAngularI",
    "HartmannAngularII",
    "DiracOscillator",
    "HydrogenLike",
    "SystemParams",
    "Interval",
    "ReducedSystem",
    "system_from_dict",
    "system_to_dict",
    "system_from_json",
    "reduce_system",
    "ve_hartmann_radial",
    "ve_hartmann_angular_i",
    "ve_hartmann_angular_ii",
    "ve_dirac_oscillator",
    "ve_hydrogen",
    "potential_hartmann_angular_i_printed",
    "dirac_oscillator_potential_printed",
    "hydrogen_standard_energy",
    "analytic_energy",
    "wavefunction",
    "hydrogen_s_parameter",
]


# ---------------------------------------------------------------------------
# parameter records
#
# Beyond these ranges values overflow (l(l+1), s(s+1), the squared pole) or
# the fixed grid domains no longer hold the levels, so they are rejected.
# At the limits the eight lowest levels still come out of the default grids,
# relative to the level: to ~1e-10 for the oscillators at l = 64 (the grid
# ends at xi = 200) and to ~3e-10 for the hydrogen-like system at s = 5,
# solved as the oscillator at l = 10.5 in y (the grid ends at r = 200).
_MAX_OSCILLATOR_L = 64
_OMEGA_RANGE = (1e-8, 1e8)
_MAX_HYDROGEN_S = 5.0
_MAX_ANGULAR_PARAM = 1e4
_MAX_ANGULAR_POLE = 1e8


def _require_level(l) -> int:
    if l != int(l) or l < 0:
        raise ParameterError(f"orbital index must be a nonnegative integer, got {l}")
    return int(l)


def _require_oscillator_level(l) -> int:
    l = _require_level(l)
    if l > _MAX_OSCILLATOR_L:
        raise ParameterError(f"orbital index must be at most {_MAX_OSCILLATOR_L}, got {l}")
    return l


@dataclass(frozen=True)
class HartmannRadial:
    """Radial channel of the ring-shaped oscillator: V = l(l+1)/r^2 + omega^2 r^2/4."""

    l: int
    omega: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "l", _require_oscillator_level(self.l))
        lo, hi = _OMEGA_RANGE
        if not lo <= self.omega <= hi:
            raise ParameterError(f"omega must lie in [{lo:g}, {hi:g}], got {self.omega}")


@dataclass(frozen=True)
class HartmannAngularI:
    """First angular family; Jacobi variable z = cos(theta) on (0, pi)."""

    lambda_a: float
    s: float

    def __post_init__(self):
        if not self.lambda_a > 0:
            raise ParameterError(f"lambda_a must be positive, got {self.lambda_a}")
        _require_jacobi_well(self)

    @property
    def pole(self) -> float:
        return (2 * self.s - 1) / (2 * self.lambda_a)

    @property
    def jacobi_ab(self) -> tuple[float, float]:
        return self.s - self.lambda_a - 0.5, self.s + self.lambda_a - 0.5


@dataclass(frozen=True)
class HartmannAngularII:
    """Second angular family; Jacobi variable z = cos(2 theta) on (0, pi/2)."""

    lambda_a: float
    s: float

    def __post_init__(self):
        if self.s == self.lambda_a:
            raise ParameterError("s = lambda_a makes the pole parameter infinite")
        _require_jacobi_well(self)

    @property
    def pole(self) -> float:
        return (self.s + self.lambda_a - 1) / (self.s - self.lambda_a)

    @property
    def jacobi_ab(self) -> tuple[float, float]:
        return self.lambda_a - 0.5, self.s - 0.5


def _require_jacobi_well(params) -> None:
    """The parameter checks both angular families share."""
    pole = params.pole
    for name, value, limit in (("lambda_a", params.lambda_a, _MAX_ANGULAR_PARAM),
                               ("s", params.s, _MAX_ANGULAR_PARAM),
                               ("pole", pole, _MAX_ANGULAR_POLE)):
        if not abs(value) <= limit:
            raise ParameterError(f"|{name}| must be at most {limit:g}, got {value}")
    if not abs(pole) > 1:
        raise ParameterError(f"pole inside domain: the pole {pole} must lie outside [-1, 1]")
    al, be = params.jacobi_ab
    if not (al > -1 and be > -1):
        raise ParameterError(f"Jacobi exponents ({al}, {be}) must exceed -1")


@dataclass(frozen=True)
class DiracOscillator:
    """Dirac oscillator radial channel in natural units (omega = 1)."""

    l: int
    omega: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "l", _require_oscillator_level(self.l))
        if self.omega != 1.0:
            raise ParameterError(
                "the Dirac oscillator reduction is taken in natural units; omega must be 1"
            )


@dataclass(frozen=True)
class HydrogenLike:
    """Relativistic hydrogen-like radial channel, radial variable at chi = 1 scale."""

    s: float
    lambda_c: float
    chi: float = 1.0

    def __post_init__(self):
        if not 0 < self.s <= _MAX_HYDROGEN_S:
            raise ParameterError(
                f"s must lie in (0, {_MAX_HYDROGEN_S:g}] (positive root), got {self.s}")
        if self.chi != 1.0:
            raise ParameterError(
                "the hydrogen-like reduction is taken at radial scale chi = 1; chi must be 1"
            )


SystemParams = Union[
    HartmannRadial, HartmannAngularI, HartmannAngularII, DiracOscillator, HydrogenLike
]


def system_to_dict(params: SystemParams) -> dict:
    fields = {}
    for key, value in vars(params).items():
        fields[key] = int(value) if isinstance(value, int) else float(value)
    return {"kind": type(params).__name__, "params": fields}


def _finite_number(value) -> bool:
    """True for an int or float (not a bool) with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def system_from_dict(data: dict) -> SystemParams:
    try:
        cls = _SYSTEM_KINDS[data["kind"]]
        params = data.get("params", {})
    except (KeyError, TypeError) as exc:
        raise UsageError(f"invalid system spec: {data!r}") from exc
    if not isinstance(params, dict):
        raise UsageError(f"parameters of {data['kind']} must be a JSON object, got {params!r}")
    for key, value in params.items():
        if not _finite_number(value):
            raise UsageError(
                f"parameter {key!r} of {data['kind']} must be a finite number, got {value!r}"
            )
    try:
        return cls(**params)
    except TypeError as exc:
        raise UsageError(f"invalid parameters for {data['kind']}: {params!r}") from exc


def system_from_json(text: str) -> SystemParams:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"system spec is not valid JSON: {exc}") from exc
    return system_from_dict(data)


def hydrogen_s_parameter(l: int, coupling_sq: float) -> float:
    """Positive root of s(s+1) = l(l+1) - coupling_sq."""
    rhs = _require_level(l) * (int(l) + 1) - coupling_sq
    disc = 1.0 + 4.0 * rhs
    if disc <= 1.0:
        raise ParameterError(
            f"no positive root: l(l+1) - coupling_sq = {rhs} must be positive"
        )
    return 0.5 * (-1.0 + math.sqrt(disc))


# ---------------------------------------------------------------------------
# printed rational terms, exactly as derived in the polynomial equations

def ve_hartmann_radial(params: HartmannRadial, r):
    """1/(xi+m) - (2l+1)/(xi+m)^2 with xi = omega r^2/2, m = l + 1/2."""
    xi = params.omega * np.asarray(r, dtype=float) ** 2 / 2
    u = xi + params.l + 0.5
    return 1.0 / u - (2 * params.l + 1) / u**2


def ve_hartmann_angular_i(params: HartmannAngularI, z):
    """2b/(b-z) - (2-2b^2)/(b-z)^2 with b = (2s-1)/(2 lambda), z = cos(theta)."""
    b = params.pole
    z = np.asarray(z, dtype=float)
    if np.any(z <= -1) or np.any(z >= 1):
        raise DomainError("z = cos(theta) must lie in (-1, 1)")
    return 2 * b / (b - z) - (2 - 2 * b**2) / (b - z) ** 2


def ve_hartmann_angular_ii(params: HartmannAngularII, z):
    """2b/(z-b) - (2-2b^2)/(z-b)^2 with b = (s+lambda-1)/(s-lambda)."""
    b = params.pole
    z = np.asarray(z, dtype=float)
    if np.any(z <= -1) or np.any(z >= 1):
        raise DomainError("z = cos(2 theta) must lie in (-1, 1)")
    return 2 * b / (z - b) - (2 - 2 * b**2) / (z - b) ** 2


def ve_dirac_oscillator(params: DiracOscillator, r):
    """1/(r^2+m) - 2m/(r^2+m)^2 with m = (2l+1)/2, in the unscaled coordinate."""
    u = np.asarray(r, dtype=float) ** 2 + params.l + 0.5
    return 1.0 / u - (2 * params.l + 1) / u**2


def ve_hydrogen(params: HydrogenLike, r):
    """1/(r+2s+1) - 2(2s+1)/(r+2s+1)^2."""
    kk = 2 * params.s + 1
    u = np.asarray(r, dtype=float) + kk
    return 1.0 / u - 2 * kk / u**2


def potential_hartmann_angular_i_printed(params: HartmannAngularI, theta):
    """First angular potential in its textbook-printed form, with csc^2
    coefficient (lambda^2 + s^2 + s).

    Kept for documentation: the eigenproblem -H'' + V H = (s+n)^2 H with the
    Jacobi-form closed solutions requires the coefficient (lambda^2+s^2-s)
    used by ``reduce_system`` instead (the two differ by 2s csc^2 theta).
    """
    la, s = params.lambda_a, params.s
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0) or np.any(theta >= np.pi):
        raise DomainError("theta must lie in (0, pi)")
    sin2 = np.sin(theta) ** 2
    return ((la**2 + s**2 + s) - la * (2 * s - 1) * np.cos(theta)) / sin2


def dirac_oscillator_potential_printed(params: DiracOscillator, r, energy: float):
    """As-printed modified Dirac oscillator potential
    r^2/2 + l(l+1)/r^2 - E + ve; documentation only (the spectral pipeline
    uses the rescaled operator form, see module docstring)."""
    r = np.asarray(r, dtype=float)
    return (r**2 / 2 + params.l * (params.l + 1) / r**2 - energy
            + ve_dirac_oscillator(params, r))


def hydrogen_standard_energy(params: HydrogenLike, n: int) -> float:
    """Bound-state energy -lambda_c^2 / (4 (n+s+1)^2) of the fixed-coupling form."""
    if n < 0 or n != int(n):
        raise UsageError(f"level must be a nonnegative integer, got {n}")
    return -params.lambda_c**2 / (4.0 * (n + params.s + 1) ** 2)


# ---------------------------------------------------------------------------
# the reduced record

@dataclass(frozen=True)
class Interval:
    """The open interval (lo, hi)."""

    lo: float
    hi: float

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all((x > self.lo) & (x < self.hi)))


@dataclass(frozen=True)
class ReducedSystem:
    """Everything the spectral pipeline and the closed-form wavefunctions
    need for one system, as its builder supplies it (see the module
    docstring).  The potential callables take float arrays."""

    params: SystemParams
    coordinate: str  # "r" | "theta" | "y"
    domain: Interval
    grid_domain: tuple[float, float] | None  # None with `solved_as`
    residual_window: tuple[float, float] | None  # None with `solved_as`
    original: Callable[[np.ndarray], np.ndarray]
    shift: Callable[[np.ndarray], np.ndarray]
    classical_family: FamilySpec
    x1_family: FamilySpec
    level_energy: Callable[[int], float]
    coordinate_jet: Callable[[np.ndarray], Jet2]
    prefactor_jet: Callable[[Jet2], Jet2]  # plain values of z give values up to a constant
    pole_offset: tuple[float, float]  # (c0, c1): the pole factor is c0 + c1 z
    # the record the grid solves and the map of this coordinate onto its own
    solved_as: tuple[ReducedSystem, Callable[[float], float]] | None = None

    def extended(self, x):
        return self.original(x) + self.shift(x)

    def energy(self, n: int) -> float:
        """Eigenvalue of the system's eigenproblem at level n (0-based)."""
        if n < 0 or n != int(n):
            raise UsageError(f"level must be a nonnegative integer, got {n}")
        return self.level_energy(int(n))

    def grid_form(self, domain: tuple[float, float] | None = None
                  ) -> tuple[ReducedSystem, tuple[float, float]]:
        """The record whose grid solves this system (this one, or
        `solved_as`) and its grid domain.  An override `domain`, in this
        record's coordinate, must lie within the closed domain."""
        record, to_grid = self.solved_as or (self, lambda x: x)
        if domain is None:
            return record, record.grid_domain
        lo, hi = domain
        if not self.domain.lo <= lo < hi <= self.domain.hi:
            raise UsageError(f"grid domain ({lo}, {hi}) of {type(self.params).__name__} "
                             f"lies outside its domain ({self.domain.lo}, {self.domain.hi})")
        return record, (to_grid(lo), to_grid(hi))

    def wavefunction(self, variant: str, n: int) -> Callable[[np.ndarray], Jet2]:
        """Closed-form eigenfunction with analytic first/second derivatives.

        variant "original": level n >= 0, prefactor times the classical
        polynomial.  variant "exceptional": X1 degree n >= 1 (level n-1),
        prefactor times the X1 polynomial over the pole factor; degree 0
        does not exist (codimension gap).
        """
        if variant not in ("original", "exceptional"):
            raise UsageError(f"variant must be 'original' or 'exceptional', got {variant!r}")
        if n != int(n) or n < 0:
            raise UsageError(f"index must be a nonnegative integer, got {n}")
        n = int(n)
        if variant == "exceptional":
            if n == 0:
                raise UsageError("codimension gap: no degree-0 exceptional wavefunction")
            poly = x1_polynomial(self.x1_family, n).polynomial
        else:
            poly = family_members(self.classical_family, n + 1)[n]
        jets = _closed_form(self, variant, [poly])
        return lambda x: jets(x)[0]


# ---------------------------------------------------------------------------
# the builders, one per well shape

def _oscillator(params: SystemParams, l: float, w: float) -> ReducedSystem:
    """Radial oscillator in xi = omega r^2/2 at a real orbital index l; the
    Dirac oscillator is its omega = 1 case and the hydrogen-like system its
    omega = 1/2 case in y.  The truncation radii keep the dropped prefactor
    tail below 1e-12 of its peak."""

    def original(r):
        return l * (l + 1) / r**2 + w**2 * r**2 / 4

    def shift(r):
        u = w * r**2 / 2 + l + 0.5
        return 2 * w * (1.0 / u - (2 * l + 1) / u**2)

    return ReducedSystem(
        params=params,
        coordinate="r",
        domain=Interval(0.0, math.inf),
        grid_domain=(0.0, 20.0 / math.sqrt(w)),
        residual_window=(0.05, 12.0 / math.sqrt(w)),
        original=original,
        shift=shift,
        classical_family=ClassicalLaguerre(l + 0.5),
        x1_family=X1Laguerre(l + 0.5),
        level_energy=lambda n: (2 * n + l + 1.5) * w,
        coordinate_jet=lambda x: Jet2(w * x**2 / 2, w * x, np.full_like(x, w)),
        prefactor_jet=lambda z: jet_pow(z, (l + 1) / 2) * jet_exp(z * (-0.5)),
        pole_offset=(l + 0.5, 1.0),
    )


def _hydrogen(params: HydrogenLike) -> ReducedSystem:
    """The coupling form in r, solved as the omega = 1/2 oscillator in
    y = 2 sqrt(r) (module docstring); `original` is the fixed-coupling
    potential."""
    s = params.s

    def original(r):
        return s * (s + 1) / r**2 - params.lambda_c / r

    def shift(r):
        return ve_hydrogen(params, r) / r

    # l = (2s + 1) - 1/2 is exact, so the oscillator's families and pole
    # offset take the parameter 2s + 1 to the bit
    in_y = replace(_oscillator(params, 2 * s + 1 - 0.5, 0.5), coordinate="y")
    return ReducedSystem(
        params=params,
        coordinate="r",
        domain=Interval(0.0, math.inf),
        grid_domain=None,
        residual_window=None,
        original=original,
        shift=shift,
        classical_family=in_y.classical_family,
        x1_family=in_y.x1_family,
        level_energy=lambda n: n + s + 1,
        coordinate_jet=jet_identity,
        prefactor_jet=lambda z: jet_pow(z, s + 1) * jet_exp(z * (-0.5)),
        pole_offset=in_y.pole_offset,
        solved_as=(in_y, lambda r: 2.0 * math.sqrt(r)),
    )


def _jacobi_prefactor(a_exp: float, b_exp: float) -> Callable[[Jet2], Jet2]:
    """(1 - z)^a_exp (1 + z)^b_exp; for plain values z, exp of its log less
    the log's maximum, so exponents in the thousands do not overflow."""
    def prefactor(z: Jet2) -> Jet2:
        if not isinstance(z, Jet2):
            log = a_exp * np.log1p(-z) + b_exp * np.log1p(z)
            return np.exp(log - np.max(log))
        return jet_pow(1.0 - z, a_exp) * jet_pow(1.0 + z, b_exp)
    return prefactor


def _jacobi_well(params: SystemParams, a: float, b: float, kappa: float) -> ReducedSystem:
    """The Jacobi well at (a, b) in kappa theta on (0, pi/(2 kappa)), scaled
    by kappa^2 (module docstring); its grid domain, residual window and pole
    (a + b - 1)/(b - a) come from (a, b, kappa) alone."""
    k2, w = kappa**2, 2 * kappa
    pole = (a + b - 1) / (b - a)
    end, margin = math.pi / w, 0.15 / w

    def original(theta):
        return k2 * (a * (a - 1) / np.sin(kappa * theta) ** 2
                     + b * (b - 1) / np.cos(kappa * theta) ** 2)

    def shift(theta):
        # the rational term entering the polynomial equation next to the eigenvalue
        z = np.cos(w * theta)
        return -4.0 * k2 * (2 * z / (pole - z) - 2 * (1 - z**2) / (pole - z) ** 2)

    return ReducedSystem(
        params=params,
        coordinate="theta",
        domain=Interval(0.0, end),
        grid_domain=(0.0, end),
        residual_window=(margin, end - margin),
        original=original,
        shift=shift,
        classical_family=ClassicalJacobi(a - 0.5, b - 0.5),
        x1_family=X1Jacobi(a=(b - a) / 2, b=pole),
        level_energy=lambda n: k2 * (a + b + 2 * n) ** 2,
        coordinate_jet=lambda x: Jet2(np.cos(w * x), -w * np.sin(w * x), -w * w * np.cos(w * x)),
        prefactor_jet=_jacobi_prefactor(a / 2, b / 2),
        pole_offset=(pole, -1.0),
    )


_BUILDERS: dict[type, Callable[..., ReducedSystem]] = {
    HartmannRadial: lambda params: _oscillator(params, params.l, params.omega),
    HartmannAngularI: lambda params: _jacobi_well(
        params, params.s - params.lambda_a, params.s + params.lambda_a, 0.5),
    HartmannAngularII: lambda params: _jacobi_well(params, params.lambda_a, params.s, 1.0),
    DiracOscillator: lambda params: _oscillator(params, params.l, params.omega),
    HydrogenLike: _hydrogen,
}

_SYSTEM_KINDS = {cls.__name__: cls for cls in _BUILDERS}


def reduce_system(params: SystemParams) -> ReducedSystem:
    """Build the full reduced description (potentials, families, eigenform)."""
    try:
        build = _BUILDERS[type(params)]
    except KeyError:
        raise UsageError(f"not a system: {params!r}") from None
    return build(params)


# ---------------------------------------------------------------------------
# energies and closed-form wavefunctions

def analytic_energy(params: SystemParams, n: int) -> float:
    """Eigenvalue of the system's eigenproblem at level n (0-based).

    For HydrogenLike this is the quantized coupling lambda_n = n + s + 1 of
    the coupling-form eigenproblem; all other systems return plain energies.
    """
    return reduce_system(params).energy(n)


def wavefunction(params: SystemParams, variant: str, n: int) -> Callable[[np.ndarray], Jet2]:
    """`ReducedSystem.wavefunction` of the system `params`."""
    return reduce_system(params).wavefunction(variant, n)


def _closed_form(system: ReducedSystem, variant: str, polys: Sequence[Polynomial]):
    """Closed-form eigenfunctions of `system`, one per polynomial of `polys`:
    the prefactor times poly(z), over the pole factor for the exceptional
    variant.  The returned function gives their jets at x as a list; the
    coordinate, prefactor and pole-factor jets are evaluated once for all
    of them."""
    c0, c1 = system.pole_offset
    domain = system.domain

    def psis(x) -> list[Jet2]:
        x = np.asarray(x, dtype=float)
        if not domain.contains(x):
            raise DomainError(
                f"coordinate outside open domain ({domain.lo}, {domain.hi})"
            )
        z = system.coordinate_jet(x)
        prefactor = system.prefactor_jet(z)
        values = [prefactor * jet_poly(poly, z) for poly in polys]
        if variant == "exceptional":
            pole = z * c1 + c0
            values = [value / pole for value in values]
        return values

    return psis


def _level_samples(system: ReducedSystem, variant: str, count: int, x: np.ndarray) -> np.ndarray:
    """Column n (n = 0..count-1): the closed-form eigenfunction of level n of
    the `variant` operator ("original" or "extended") at the points x, values
    only and up to a constant: the prefactor times the classical member of
    degree n, or times the X1 member of degree n + 1 over the pole factor.
    Values past the float range come out non-finite, without a warning."""
    family = system.classical_family if variant == "original" else system.x1_family
    with np.errstate(all="ignore"):
        z = system.coordinate_jet(x).val
        rows = _member_values(family, count, z)
        rows *= system.prefactor_jet(z)
        if variant != "original":
            c0, c1 = system.pole_offset
            rows /= c0 + c1 * z
    return rows.T

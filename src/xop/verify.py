"""Isospectrality verification: solve original and extended operators on the
same grids, Richardson-extrapolate, and bundle spectral differences and
distances from the analytic levels with closed-form residuals and Gram
orthogonality checks into one report.

Each system builds its X1 members once: one `x1_members_and_gram` call
(one `x1_eigenpairs` build) certifies the four members whose degrees 1..3
give the closed-form residuals and whose Gram matrix gives the
orthogonality check.  The residuals take one jet pass: the coordinate,
prefactor and pole-factor jets and the extended potential are evaluated
once at the samples and shared by every degree.  Grids and residuals are
those of the record that the grid solves (`ReducedSystem.grid_form`); for
the hydrogen-like system, the oscillator in y = 2 sqrt(r).

`solve_variants` bisects nothing: every coarse and fine level is a
certified `refine_lowest` polish (or its bisection fallback).  Each coarse
polish starts every level from its closed-form eigenfunction sampled on the
coarse grid, at its analytic level; each fine polish starts every level
from the coarse result's eigenfunction, prolonged to the fine grid, and a
coarse fallback to bisection keeps its eigenfunctions for that.  Either
start's Rayleigh quotient is already within O(h^4) of the grid's level, so
it counts as the step before the first solve, and a level settles in one
solve on every grid.  `spectrum --psi-out` writes the original variant's
coarse eigenfunctions, certified or bisected, from the same solve
(`_solve_with_eigenfunctions`), so no grid is solved a second time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError
from .exceptional import EigenPair, max_offdiag_ratio, x1_members_and_gram
from .spectral import (
    Grid,
    SpectrumResult,
    TridiagonalOperator,
    _jet_residual,
    discretize,
    extrapolate,
    refine_lowest,
)
from .systems import (
    ReducedSystem,
    SystemParams,
    _closed_form,
    _finite_number,
    _level_samples,
    reduce_system,
    system_to_dict,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "VerificationReport",
    "isospectral_compare",
    "solve_variants",
    "variant_operator",
]

_RESIDUAL_DEGREES = 3  # closed-form residuals of X1 degrees 1..3, at most `levels` of them
_GRAM_MEMBERS = 4


@dataclass(frozen=True)
class Tolerances:
    spectral_radial: float = 1e-4
    spectral_angular: float = 1e-3
    residual: float = 1e-8
    gram: float = 1e-7

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (_finite_number(value) and value > 0):
                raise UsageError(f"tolerance {name} must be a finite positive number, "
                                 f"got {value!r}")


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class VerificationReport:
    system: SystemParams
    level_count: int
    eigenvalues_original: tuple[float, ...]
    eigenvalues_extended: tuple[float, ...]
    spectral_diffs: tuple[float, ...]
    analytic_errors_original: tuple[float, ...]
    analytic_errors_extended: tuple[float, ...]
    max_wavefunction_residual: float
    gram_max_offdiag: float
    spectral_tolerance: float
    residual_tolerance: float
    gram_tolerance: float
    extrapolation_error: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "system": system_to_dict(self.system),
            "level_count": self.level_count,
            "eigenvalues_original": list(self.eigenvalues_original),
            "eigenvalues_extended": list(self.eigenvalues_extended),
            "spectral_diffs": list(self.spectral_diffs),
            "analytic_errors_original": list(self.analytic_errors_original),
            "analytic_errors_extended": list(self.analytic_errors_extended),
            "max_wavefunction_residual": self.max_wavefunction_residual,
            "gram_max_offdiag": self.gram_max_offdiag,
            "tolerances": {
                "spectral": self.spectral_tolerance,
                "residual": self.residual_tolerance,
                "gram": self.gram_tolerance,
            },
            "extrapolation_error": self.extrapolation_error,
            "passed": self.passed,
        }


def variant_operator(reduced: ReducedSystem, variant: str, grid: Grid) -> TridiagonalOperator:
    """Finite-difference operator of one potential variant of the record
    that the grid solves (`ReducedSystem.grid_form`), on `grid` in that
    record's coordinate."""
    if variant not in ("original", "extended"):
        raise UsageError(f"variant must be 'original' or 'extended', got {variant!r}")
    return discretize(getattr(reduced.grid_form()[0], variant), grid)


def solve_variants(reduced: ReducedSystem, levels: int, grid_points: int,
                   domain: tuple[float, float] | None = None) -> tuple[SpectrumResult, SpectrumResult]:
    """Extrapolated lowest `levels` eigenvalues of the original and of the
    extended operator (values-only: eigenfunctions None), from a coarse grid
    of `grid_points` and its half-spacing refinement; `levels` must lie in
    1..8.

    Every solve is a `refine_lowest` polish.  Each coarse grid is polished
    from the analytic levels of the record that the grid solves, each level
    started from its closed-form eigenfunction sampled on the coarse grid
    (`_level_samples`, one variant at a time); each fine grid from its own
    coarse result, each level started from its coarse eigenfunction
    prolonged to the fine grid.  So each level takes one solve per grid.
    Only the coarse solves keep eigenfunctions, a bisection fallback's
    included.  The polish certifies its values or falls back to bisection,
    so a poor guess or start, wrong physics included, costs time and never
    changes a result.

    `domain` overrides the grid domain, in the coordinate of `reduced`.
    """
    return _solve_with_eigenfunctions(reduced, levels, grid_points, domain)[:2]


def _solve_with_eigenfunctions(reduced: ReducedSystem, levels: int, grid_points: int,
                               domain: tuple[float, float] | None = None
                               ) -> tuple[SpectrumResult, SpectrumResult, SpectrumResult]:
    """The two results of `solve_variants` and beside them the coarse
    original one: the certified polish (or its bisection fallback) with its
    eigenfunctions on the coarse grid, which `spectrum --psi-out` writes.
    The extended variant is solved first, so the kept eigenfunctions are
    never held beside another variant's."""
    if not 1 <= levels <= 8:
        raise UsageError(f"levels must lie in 1..8, got {levels}")
    coarse_grid = Grid(*reduced.grid_form(domain)[1], grid_points)
    extended = _solve_variant(reduced, "extended", levels, coarse_grid)[0]
    original, coarse = _solve_variant(reduced, "original", levels, coarse_grid)
    return original, extended, coarse


def _solve_variant(reduced: ReducedSystem, variant: str, levels: int,
                   coarse_grid: Grid) -> tuple[SpectrumResult, SpectrumResult]:
    """(extrapolated result, coarse result) of `solve_variants` for one
    variant.  The coarse result holds its eigenfunctions; its start vectors
    are freed before the fine polish."""
    record = reduced.grid_form()[0]
    start = SpectrumResult([record.energy(n) for n in range(levels)],
                           _level_samples(record, variant, levels, coarse_grid.points),
                           coarse_grid, 0.0)
    coarse = refine_lowest(variant_operator(reduced, variant, coarse_grid), start, vectors=True)
    del start  # not held through the fine polish
    fine = refine_lowest(variant_operator(reduced, variant, coarse_grid.refined()), coarse)
    return extrapolate(coarse, fine), coarse


def _closed_form_residuals(reduced: ReducedSystem, members: list[EigenPair]) -> list[float]:
    """Closed-form residual of the extended operator at each X1 member's
    wavefunction, in the order of `members` (degrees 1, 2, ...); a non-finite
    one (the closed form overflows at large parameters) raises NumericError
    naming its degree.  One pass evaluates the extended potential of the
    record that the grid solves and the shared jets of all members at the
    samples."""
    record = reduced.grid_form()[0]
    samples = np.linspace(*record.residual_window, 200)
    residuals = []
    with np.errstate(all="ignore"):  # overflow shows as a non-finite residual
        jets = _closed_form(record, "exceptional", [pair.polynomial for pair in members])(samples)
        v = record.extended(samples)
        for degree, jet in enumerate(jets, start=1):
            residual = _jet_residual(jet, v, record.energy(degree - 1))
            if not np.isfinite(residual):
                raise NumericError(f"closed-form residual of the degree-{degree} X1 "
                                   f"wavefunction is not finite ({residual})")
            residuals.append(residual)
    return residuals


def isospectral_compare(params: SystemParams, levels: int = 4, *,
                        grid_points: int = 2000,
                        tolerances: Tolerances = DEFAULT_TOLERANCES,
                        domain: tuple[float, float] | None = None) -> VerificationReport:
    """Compare the lowest `levels` extrapolated eigenvalues of the original
    and extended operators with each other and with the analytic levels,
    and run the residual and orthogonality checks.

    Eigenvalues are energies, except for the hydrogen-like system where they
    are the quantized couplings of its coupling form.
    The report passes when the spectral differences are within the
    spectral tolerance, both spectra's distances from the analytic levels
    within the spectral tolerance plus the Richardson error estimate, and
    the residual and Gram ratio within theirs.  The estimate lets levels
    in the millions miss the analytic ones by what the grid itself admits
    (0.9 at 300 points for levels near 4e6), while a spectrum the grid
    cannot explain, such as one of walls that cut the well short, fails.
    """
    reduced = reduce_system(params)
    original, extended = solve_variants(reduced, levels, grid_points, domain)
    diffs = np.abs(extended.eigenvalues - original.eigenvalues)
    analytic = np.array([reduced.energy(n) for n in range(levels)])
    errors = [np.abs(result.eigenvalues - analytic) for result in (original, extended)]
    extrapolation_error = max(original.extrapolation_error, extended.extrapolation_error)
    members, gram = x1_members_and_gram(reduced.x1_family, _GRAM_MEMBERS)
    residual = max(_closed_form_residuals(reduced, members[:min(_RESIDUAL_DEGREES, levels)]))
    gram_off = max_offdiag_ratio(gram)
    spectral_tol = (tolerances.spectral_radial if reduced.coordinate == "r"
                    else tolerances.spectral_angular)
    passed = bool(
        np.max(diffs) <= spectral_tol
        and np.max(errors) <= spectral_tol + extrapolation_error
        and residual <= tolerances.residual
        and gram_off <= tolerances.gram
    )
    return VerificationReport(
        system=params,
        level_count=levels,
        eigenvalues_original=tuple(float(v) for v in original.eigenvalues),
        eigenvalues_extended=tuple(float(v) for v in extended.eigenvalues),
        spectral_diffs=tuple(float(v) for v in diffs),
        analytic_errors_original=tuple(float(v) for v in errors[0]),
        analytic_errors_extended=tuple(float(v) for v in errors[1]),
        max_wavefunction_residual=float(residual),
        gram_max_offdiag=float(gram_off),
        spectral_tolerance=spectral_tol,
        residual_tolerance=tolerances.residual,
        gram_tolerance=tolerances.gram,
        extrapolation_error=extrapolation_error,
        passed=passed,
    )

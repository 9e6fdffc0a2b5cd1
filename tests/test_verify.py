"""End-to-end isospectrality verification for all five systems."""

import numpy as np
import pytest

from xop import (
    DiracOscillator,
    HartmannAngularI,
    HartmannAngularII,
    HartmannRadial,
    HydrogenLike,
    Tolerances,
    UsageError,
    analytic_energy,
    isospectral_compare,
)

RADIAL = [
    DiracOscillator(l=0),
    DiracOscillator(l=1),
    HydrogenLike(s=0.9, lambda_c=1.9),
    HydrogenLike(s=1.5, lambda_c=2.5),
    HartmannRadial(l=0, omega=1.0),
]
ANGULAR = [
    HartmannAngularI(lambda_a=1.0, s=2.5),
    HartmannAngularII(lambda_a=2.0, s=4.0),
]


@pytest.mark.parametrize("params", RADIAL, ids=lambda p: repr(p))
def test_radial_isospectrality(params):
    report = isospectral_compare(params, levels=4, grid_points=2000)
    assert max(report.spectral_diffs) < 1e-4
    assert report.max_wavefunction_residual < 1e-8
    assert report.gram_max_offdiag < 1e-7
    assert report.passed


@pytest.mark.parametrize("params", ANGULAR, ids=lambda p: repr(p))
def test_angular_isospectrality(params):
    report = isospectral_compare(params, levels=4, grid_points=2000)
    assert max(report.spectral_diffs) < 1e-3
    assert report.max_wavefunction_residual < 1e-8
    assert report.passed


@pytest.mark.parametrize("params", ANGULAR, ids=lambda p: repr(p))
def test_angular_levels_match_the_analytic_levels(params):
    """The angular grids span the whole open interval, so at the default
    settings both spectra meet the analytic levels; walls 1e-2 in from the
    ends miss them by 8e-3."""
    report = isospectral_compare(params)
    analytic = [analytic_energy(params, n) for n in range(report.level_count)]
    for values in (report.eigenvalues_original, report.eigenvalues_extended):
        assert np.max(np.abs(np.subtract(values, analytic))) <= 1e-5


def test_angular_domain_matches_clipped_window():
    report = isospectral_compare(
        HartmannAngularI(lambda_a=1.0, s=2.5), levels=3, grid_points=2000,
        domain=(0.01, np.pi - 0.01),
    )
    assert max(report.spectral_diffs) < 1e-3


def test_unreachable_tolerance_fails():
    tight = Tolerances(spectral_radial=1e-12, spectral_angular=1e-12,
                       residual=1e-8, gram=1e-7)
    report = isospectral_compare(DiracOscillator(l=0), levels=2,
                                 grid_points=1000, tolerances=tight)
    assert not report.passed


def test_levels_validation():
    with pytest.raises(UsageError):
        isospectral_compare(DiracOscillator(l=0), levels=0)
    with pytest.raises(UsageError):
        isospectral_compare(DiracOscillator(l=0), levels=9)


def test_report_dict_shape():
    report = isospectral_compare(DiracOscillator(l=0), levels=2, grid_points=1000)
    data = report.to_dict()
    assert set(data) == {
        "system", "level_count", "eigenvalues_original", "eigenvalues_extended",
        "spectral_diffs", "max_wavefunction_residual", "gram_max_offdiag",
        "tolerances", "extrapolation_error", "passed",
    }
    assert data["system"]["kind"] == "DiracOscillator"
    assert len(data["spectral_diffs"]) == 2
    assert isinstance(data["passed"], bool)


def test_tolerance_scaling():
    base = Tolerances()
    scaled = base.scaled(10.0)
    assert scaled.spectral_radial == pytest.approx(1e-3)
    assert scaled.residual == pytest.approx(1e-7)
    with pytest.raises(UsageError):
        base.scaled(-1.0)
    with pytest.raises(UsageError):
        Tolerances(spectral_radial=0.0)

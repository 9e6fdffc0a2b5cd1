"""End-to-end isospectrality verification for all five systems."""

import json
import math
import warnings

import numpy as np
import pytest

import xop
import xop.exceptional
import xop.systems
import xop.verify
from xop import (
    DiracOscillator,
    HartmannAngularI,
    HartmannAngularII,
    HartmannRadial,
    HydrogenLike,
    NumericError,
    ParameterError,
    Tolerances,
    UsageError,
    analytic_energy,
    gram_matrix,
    isospectral_compare,
    max_offdiag_ratio,
    reduce_system,
)
from xop.cli import main

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
    HartmannAngularII(lambda_a=3.0, s=1.0),  # s < lambda_a: a > b in the Jacobi well
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


FINE_BOUNDS = {"r": 1e-11, "theta": 2e-7}
FIVE_SYSTEMS = [
    HartmannRadial(l=0, omega=1.0), HartmannAngularI(lambda_a=1.0, s=2.5),
    DiracOscillator(l=0), HydrogenLike(s=0.9, lambda_c=1.9),
    HartmannAngularII(lambda_a=2.0, s=4.0),
]


@pytest.mark.parametrize("params", FIVE_SYSTEMS, ids=lambda p: type(p).__name__)
def test_fine_grid_levels_match_the_analytic_levels(params):
    """8 levels on 20000 points: the polished fine grid is not limited by
    bisection's ulp * 2/h^2 floor (1.1e-8 radial, 1.0e-6 angular)."""
    report = isospectral_compare(params, levels=8, grid_points=20000)
    analytic = [analytic_energy(params, n) for n in range(8)]
    bound = FINE_BOUNDS[reduce_system(params).coordinate]
    for values in (report.eigenvalues_original, report.eigenvalues_extended):
        assert np.max(np.abs(np.subtract(values, analytic))) <= bound


@pytest.mark.parametrize("s", [0.05, 0.1, 0.3])
def test_small_s_hydrogen_passes(s):
    """Near s = 0 the r^(s+1) endpoint of the coupling form in r cost the
    h^2 Richardson step its order (levels 1.1e-3 off at s = 0.1); in
    y = 2 sqrt(r) the endpoint is y^(2s+3/2) and the levels are right."""
    report = isospectral_compare(HydrogenLike(s, 1.0), levels=4, grid_points=2000)
    assert report.passed
    assert max(report.analytic_errors_original + report.analytic_errors_extended) <= 1e-6


@pytest.mark.parametrize("params", [HartmannAngularII(lambda_a=2.0, s=1e4),
                                    HartmannAngularII(lambda_a=1e4, s=2.0),
                                    HartmannAngularI(lambda_a=9999.0, s=1e4)], ids=repr)
def test_non_finite_residual_raises_naming_the_degree(params):
    """At these s = 1e4 wells the closed-form X1 wavefunctions themselves
    pass the float range in the residual window (the log form keeps only
    their factors from overflowing), and every residual is NaN, which a
    plain max() would read as 0.0.  RuntimeWarnings fail this suite, so the
    raise also shows that no overflow warning escapes first.  `verify`
    refuses these wells earlier, at their Gram mass."""
    members = xop.exceptional.x1_eigenpairs(reduce_system(params).x1_family, 3)
    with pytest.raises(NumericError, match="degree-1 X1 wavefunction is not finite"):
        xop.verify._closed_form_residuals(reduce_system(params), members)


@pytest.mark.parametrize("params", [HartmannAngularI(lambda_a=1.0, s=2000.0),
                                    HartmannAngularI(lambda_a=500.0, s=1000.0),
                                    HartmannAngularI(lambda_a=1.0, s=3000.0)], ids=repr)
def test_large_exponent_gram_passes_without_warnings(params):
    """Jacobi exponents in the thousands: the Gauss-Jacobi rule carries
    (1 - x)^alpha (1 + x)^beta in its weights (total mass from log-gammas),
    and the closed forms take their factor from its log terms, so nothing
    overflows, and verify passes with an orthogonal Gram.  The
    levels, near 4e6 and 1e6, miss the analytic ones by up to 0.9 on 300
    points: far past the absolute tolerance 1e-3, but inside the grid's own
    error estimate, which the analytic gate admits."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = isospectral_compare(params, levels=2, grid_points=300)
        gram = gram_matrix(reduce_system(params).x1_family, 4)
    worst = max(report.analytic_errors_original + report.analytic_errors_extended)
    assert report.spectral_tolerance < worst <= report.extrapolation_error
    assert report.passed
    assert report.gram_max_offdiag <= 1e-12
    assert max_offdiag_ratio(gram) <= 1e-12


def test_too_coarse_grid_for_the_levels_is_named():
    """At 64 points the s = 1e4 well is narrower than the spacing, and the
    h^2 Richardson step reorders the levels."""
    with pytest.raises(NumericError, match="grid of 64 points is too coarse for 4 levels"):
        isospectral_compare(HartmannAngularI(lambda_a=1.0, s=1e4), levels=4, grid_points=64)


@pytest.mark.parametrize("levels", [1, 4])
@pytest.mark.parametrize("params", FIVE_SYSTEMS, ids=lambda p: type(p).__name__)
def test_compare_builds_the_x1_members_once(params, levels, monkeypatch):
    """One x1_eigenpairs call certifies the four members that both the
    closed-form residual and the Gram use; nothing else rebuilds them."""
    calls = []
    build = xop.exceptional.x1_eigenpairs

    def counted(family, n_max):
        calls.append((family, n_max))
        return build(family, n_max)

    for module in (xop.exceptional, xop.systems, xop.verify):
        if hasattr(module, "x1_eigenpairs"):
            monkeypatch.setattr(module, "x1_eigenpairs", counted)
    isospectral_compare(params, levels=levels, grid_points=500)
    assert calls == [(reduce_system(params).x1_family, 4)]


# walls that cut the well short move the original and extended levels
# together, up to 8e-3 off (angular, tolerance 1e-3) resp. 8e-4 (hydrogen,
# tolerance 1e-4), while the two spectra still agree within the tolerance
TRUNCATED = [
    (HartmannAngularI(lambda_a=1.0, s=2.5), (0.01, math.pi)),
    (HydrogenLike(s=0.9, lambda_c=1.9), (0.0, 31.0)),
]


@pytest.mark.parametrize("params, domain", TRUNCATED, ids=lambda v: repr(v))
def test_levels_off_the_analytic_ones_fail(params, domain):
    report = isospectral_compare(params, domain=domain)
    analytic = np.array([analytic_energy(params, n) for n in range(report.level_count)])
    for values, errors in ((report.eigenvalues_original, report.analytic_errors_original),
                           (report.eigenvalues_extended, report.analytic_errors_extended)):
        assert errors == tuple(np.abs(np.subtract(values, analytic)))
        assert max(errors) > 5 * (report.spectral_tolerance + report.extrapolation_error)
    assert max(report.spectral_diffs) <= report.spectral_tolerance
    assert report.max_wavefunction_residual <= report.residual_tolerance
    assert report.gram_max_offdiag <= report.gram_tolerance
    assert not report.passed


@pytest.mark.parametrize("kind, params", [
    ("HartmannAngularII", {"lambda_a": 0.2, "s": 0.3}),
    ("HartmannAngularI", {"lambda_a": 0.25, "s": 0.0}),
])
def test_well_parameter_below_one_half_is_refused(kind, params, tmp_path, capsys):
    """A well parameter a below 1/2, a Jacobi exponent a - 1/2 below 0, is
    refused, naming the reflected parameter 1 - a: there the Dirichlet grid
    solves the Friedrichs extension, the well with a reflected to 1 - a,
    and not the well of the closed forms (HartmannAngularII(0.2, 0.3) came
    out near (1.5 + 2n)^2 instead of the analytic (0.5 + 2n)^2).  The
    library raises ParameterError, and `spectrum` and `verify` exit 2.
    Exponents from 0 up stay accepted."""
    with pytest.raises(ParameterError, match="1 - a"):
        getattr(xop, kind)(**params)
    spec = json.dumps({"kind": kind, "params": params})
    config = tmp_path / "config.json"
    config.write_text(f'{{"systems": [{spec}]}}')
    assert main(["spectrum", "--system", spec]) == 2
    assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.count("1 - a") == 2
    assert not any(tmp_path.glob("report_*"))
    assert HartmannAngularII(lambda_a=0.5, s=0.6).well == (0.5, 0.6)


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
        "spectral_diffs", "analytic_errors_original", "analytic_errors_extended",
        "max_wavefunction_residual", "gram_max_offdiag",
        "tolerances", "extrapolation_error", "passed",
    }
    assert data["system"]["kind"] == "DiracOscillator"
    assert len(data["spectral_diffs"]) == 2
    assert isinstance(data["passed"], bool)


def test_tolerances_must_be_positive():
    with pytest.raises(UsageError):
        Tolerances(spectral_radial=0.0)

"""Each benchmark oracle accepts xop's correct output and rejects a
deliberately wrong one.  Run with the sources on the path:

    PYTHONPATH=src python -m pytest bench -q
"""

import json

import numpy as np
import pytest

import oracles as O
import xop
from tracing import Tracer
from workloads import FIVE_SYSTEMS, read_csv, run_cli, x1_family_of

LAGUERRE = {"kind": "X1Laguerre", "params": {"k": 0.5}}
JACOBI = {"kind": "X1Jacobi", "params": {"a": 1.0, "b": 2.0}}


def members(family, n_max):
    pairs = xop.x1_eigenpairs(xop.family_from_dict(family), n_max)
    return [np.array(p.polynomial.coeffs) for p in pairs]


# --- analytic levels ------------------------------------------------------------------

@pytest.mark.parametrize("system, expected", [
    (FIVE_SYSTEMS[0], [1.5, 3.5, 5.5]),      # HartmannRadial l=0, omega=1
    (FIVE_SYSTEMS[1], [6.25, 12.25, 20.25]),  # HartmannAngularI s=2.5
    (FIVE_SYSTEMS[2], [1.5, 3.5, 5.5]),      # DiracOscillator l=0
    (FIVE_SYSTEMS[3], [1.9, 2.9, 3.9]),      # HydrogenLike coupling, s=0.9
    (FIVE_SYSTEMS[4], [36.0, 64.0, 100.0]),  # HartmannAngularII lambda=2, s=4
])
def test_analytic_levels_closed_forms(system, expected):
    levels = O.analytic_levels(system["kind"], system["params"], 3)
    assert levels == pytest.approx(expected, rel=1e-15)


def test_level_error_rejects_shifted_eigenvalue():
    system = FIVE_SYSTEMS[0]
    report = xop.isospectral_compare(xop.system_from_dict(system), 3, grid_points=400)
    values = np.array(report.eigenvalues_original)
    assert O.level_error(system["kind"], system["params"], values) <= O.SPECTRAL_TOL["r"]
    values[1] += 1e-3
    assert O.level_error(system["kind"], system["params"], values) > O.SPECTRAL_TOL["r"]


# --- X1 residual ----------------------------------------------------------------------

@pytest.mark.parametrize("family", [LAGUERRE, JACOBI])
def test_x1_residual_accepts_xop_members(family):
    for degree, coeffs in enumerate(members(family, 8), start=1):
        resid = O.x1_residual(family["kind"], family["params"], degree, coeffs)
        assert resid <= O.X1_RESIDUAL_TOL


@pytest.mark.parametrize("family", [LAGUERRE, JACOBI])
def test_x1_residual_rejects_shifted_eigenvalue(family):
    coeffs = members(family, 3)[2]
    exact = O.x1_eigenvalue(family["kind"], family["params"], 3)
    resid = O.x1_residual(family["kind"], family["params"], 3, coeffs, eigenvalue=exact + 0.5)
    assert resid > 1e3 * O.X1_RESIDUAL_TOL


@pytest.mark.parametrize("family", [LAGUERRE, JACOBI])
def test_x1_residual_rejects_wrong_bracket_sign(family):
    coeffs = members(family, 3)[2]
    resid = O.x1_residual(family["kind"], family["params"], 3, coeffs, bracket_sign=+1.0)
    assert resid > 1e3 * O.X1_RESIDUAL_TOL


def test_x1_residual_rejects_perturbed_and_non_monic_members():
    coeffs = members(JACOBI, 4)[3].copy()
    coeffs[1] *= 1 + 1e-6
    assert O.x1_residual("X1Jacobi", JACOBI["params"], 4, coeffs) > O.X1_RESIDUAL_TOL
    assert O.x1_residual("X1Jacobi", JACOBI["params"], 4, 2 * members(JACOBI, 4)[3]) == np.inf


def test_pointwise_residual_sees_low_order_coefficient_error():
    coeffs = members(LAGUERRE, 24)[23].copy()
    params = LAGUERRE["params"]
    assert O.x1_residual_pointwise("X1Laguerre", params, 24, coeffs) <= 1e-12
    coeffs[0] *= 1 + 1e-6
    # hidden behind the largest magnitude, seen point by point
    assert O.x1_residual("X1Laguerre", params, 24, coeffs) <= O.X1_RESIDUAL_TOL
    assert O.x1_residual_pointwise("X1Laguerre", params, 24, coeffs) > 1e-9


def test_implied_eigenvalue_matches_analytic_at_low_degree():
    for family in (LAGUERRE, JACOBI):
        coeffs = members(family, 4)[3]
        implied = O.x1_implied_eigenvalue(family["kind"], family["params"], 4, coeffs)
        assert implied == pytest.approx(O.x1_eigenvalue(family["kind"], family["params"], 4),
                                        abs=1e-8)


# --- X1-Laguerre two-term form ----------------------------------------------------------

def test_laguerre_reference_accepts_xop_members():
    for degree, coeffs in enumerate(members(LAGUERRE, 12), start=1):
        assert O.laguerre_reference_error(0.5, degree, coeffs) <= O.LAGUERRE_REFERENCE_TOL


def test_laguerre_reference_rejects_wrong_member():
    coeffs = members(LAGUERRE, 5)[4]
    assert O.laguerre_reference_error(0.6, 5, coeffs) > O.LAGUERRE_REFERENCE_TOL
    perturbed = coeffs.copy()
    perturbed[4] *= 1 + 1e-4
    assert O.laguerre_reference_error(0.5, 5, perturbed) > O.LAGUERRE_REFERENCE_TOL


# --- Gram matrix ------------------------------------------------------------------------

@pytest.mark.parametrize("family", [LAGUERRE, JACOBI])
def test_gram_oracle_accepts_xop_and_rejects_perturbed_entry(family):
    n = 4
    gram = xop.gram_matrix(xop.family_from_dict(family), n)
    coeffs = members(family, n)
    entries = [(i, j) for i in range(n) for j in range(i, n)]
    assert O.gram_entries_error(family["kind"], family["params"], coeffs, gram,
                                entries) <= O.GRAM_TOL
    wrong = gram.copy()
    wrong[1, 2] += 1e-6 * np.sqrt(gram[1, 1] * gram[2, 2])
    assert O.gram_entries_error(family["kind"], family["params"], coeffs, wrong,
                                entries) > O.GRAM_TOL


# --- tables -------------------------------------------------------------------------------

def test_psi_oracle_on_spectrum_output(tmp_path):
    psi_path = str(tmp_path / "psi.csv")
    code, _ = run_cli(["spectrum", "--system", json.dumps(FIVE_SYSTEMS[3]), "--levels", "3",
                       "--grid-points", "400", "--psi-out", psi_path,
                       "--out", str(tmp_path / "spectrum.csv")])
    assert code == 0
    _, grid = read_csv(psi_path)
    x, psi = grid[:, 0], grid[:, 1:]
    assert O.psi_defect(x, psi) <= O.PSI_TOL
    scaled = psi.copy()
    scaled[:, 1] *= 1.001
    assert O.psi_defect(x, scaled) > O.PSI_TOL
    mixed = psi.copy()
    mixed[:, 0] = (psi[:, 0] + 1e-3 * psi[:, 1]) / np.sqrt(1 + 1e-6)
    assert O.psi_defect(x, mixed) > O.PSI_TOL


def test_potential_sum_oracle_on_plot_data(tmp_path):
    path = str(tmp_path / "plot.csv")
    code, _ = run_cli(["plot-data", "--system", json.dumps(FIVE_SYSTEMS[4]), "--range", "0.1",
                       "1.4", "--count", "50", "--variant", "exceptional", "--out", path])
    assert code == 0
    _, rows = read_csv(path)
    assert O.potential_sum_defect(rows[:, 1], rows[:, 2], rows[:, 3]) <= O.POTENTIAL_SUM_TOL
    wrong_ve = rows[:, 2] * (1 + 1e-6)
    assert O.potential_sum_defect(rows[:, 1], wrong_ve, rows[:, 3]) > O.POTENTIAL_SUM_TOL


def test_system_families_match_xop():
    for system in FIVE_SYSTEMS:
        ours = xop.family_from_dict(x1_family_of(system))
        theirs = xop.reduce_system(xop.system_from_dict(system)).x1_family
        assert type(ours) is type(theirs)
        assert vars(ours) == pytest.approx(vars(theirs))


# --- tracing ------------------------------------------------------------------------------

def test_tracer_counts_inside_operations_and_restores_xop():
    original = xop.exceptional.gram_matrix
    tracer = Tracer()
    tracer.install()
    try:
        xop.gram_matrix(xop.family_from_dict(LAGUERRE), 3)  # outside an operation
        with tracer.operation_span("0:gram"):
            xop.gram_matrix(xop.family_from_dict(LAGUERRE), 3)
        metrics = tracer.layer_metrics(1)
    finally:
        tracer.uninstall()
    assert xop.exceptional.gram_matrix is original and xop.gram_matrix is original
    assert metrics["exceptional.x1_eigenpairs_calls"] == (1.0, "count/op")
    assert metrics["exceptional.x1_degrees_built"] == (3.0, "count/op")
    assert metrics["exceptional.gram_ms"][0] > 0
    assert metrics["spectral.eigen_lowest_calls"] == (0.0, "count/op")

"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import time

import numpy as np
import pytest

from xop import (
    DiracOscillator,
    EigenPair,
    HartmannAngularI,
    HartmannAngularII,
    HartmannRadial,
    HydrogenLike,
    Polynomial,
    X1Jacobi,
    X1Laguerre,
    analytic_energy,
    degree0_eigenfunction_exists,
    family_members,
    gram_matrix,
    isospectral_compare,
    max_offdiag_ratio,
    ode_residual,
    reduce_system,
    residual_on_operator,
    wavefunction,
    x1_eigenpairs,
)
from xop.cli import main as cli_main
from xop.verify import solve_variants

X1_LAGUERRE_KS = (0.5, 1.5, 2.5)
X1_JACOBI_ABS = ((1.0, 2.0), (2.0, 1.25), (1.5, -1.5))
RADIAL_SYSTEMS = (
    DiracOscillator(l=0),
    DiracOscillator(l=1),
    HydrogenLike(s=0.9, lambda_c=1.9),
    HydrogenLike(s=1.5, lambda_c=2.5),
    HartmannRadial(l=0, omega=1.0),
)
ANGULAR_SYSTEMS = (
    HartmannAngularI(lambda_a=1.0, s=2.5),
    HartmannAngularII(lambda_a=2.0, s=4.0),
)


def report(number, text):
    print(f"[acceptance] criterion {number}: PASS -- {text}")


def chebyshev(lo, hi, n=50):
    theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)


def test_criterion_1_x1_existence_and_residual():
    start = time.perf_counter()
    families = [X1Laguerre(k) for k in X1_LAGUERRE_KS]
    families += [X1Jacobi(a=a, b=b) for a, b in X1_JACOBI_ABS]
    for family in families:
        pairs = x1_eigenpairs(family, 6)
        assert [p.polynomial.degree for p in pairs] == [1, 2, 3, 4, 5, 6]
        pts = (chebyshev(0.0, 40.0) if isinstance(family, X1Laguerre)
               else chebyshev(-0.99, 0.99))
        for pair in pairs:
            # tolerance scaled by (1 + max term), per the residual invariant
            assert ode_residual(family, pair, pts, scaled=True) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    report(1, f"6 families, degrees 1..6, scaled residual <= 1e-9 ({elapsed:.2f}s)")


def test_criterion_2_codimension_gap():
    families = [X1Laguerre(k) for k in X1_LAGUERRE_KS]
    families += [X1Jacobi(a=a, b=b) for a, b in X1_JACOBI_ABS]
    for family in families:
        assert not degree0_eigenfunction_exists(family)
    report(2, "degree-0 solve infeasible for all six X1 families")


def test_criterion_3_exceptional_orthogonality():
    start = time.perf_counter()
    g_lag = gram_matrix(X1Laguerre(0.5), 6)
    ratio_lag = max_offdiag_ratio(g_lag)
    assert ratio_lag <= 1e-8
    g_jac = gram_matrix(X1Jacobi(a=2.0, b=1.25), 5)
    ratio_jac = max_offdiag_ratio(g_jac)
    assert ratio_jac <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report(3, f"off/diag ratios: X1-Laguerre {ratio_lag:.1e}, X1-Jacobi {ratio_jac:.1e} ({elapsed:.2f}s)")


def test_criterion_4_isospectrality():
    start = time.perf_counter()
    worst_radial = 0.0
    for params in RADIAL_SYSTEMS:
        rep = isospectral_compare(params, levels=4, grid_points=2000)
        worst_radial = max(worst_radial, max(rep.spectral_diffs))
        assert max(rep.spectral_diffs) <= 1e-4, (params, rep.spectral_diffs)
    worst_angular = 0.0
    for params in ANGULAR_SYSTEMS:
        rep = isospectral_compare(params, levels=4, grid_points=2000)
        worst_angular = max(worst_angular, max(rep.spectral_diffs))
        assert max(rep.spectral_diffs) <= 1e-3, (params, rep.spectral_diffs)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"
    report(4, f"max |dE|: radial {worst_radial:.1e} (<=1e-4), angular {worst_angular:.1e} (<=1e-3) ({elapsed:.1f}s)")


def test_criterion_5_analytic_spectrum_cross_check():
    worst = 0.0
    for params in (HartmannRadial(l=0, omega=1.0), HartmannRadial(l=1, omega=2.0),
                   DiracOscillator(l=0), DiracOscillator(l=1)):
        reduced = reduce_system(params)
        result, _, _ = solve_variants(reduced, levels=4, grid_points=2000)
        want = np.array([analytic_energy(params, n) for n in range(4)])
        err = np.max(np.abs(result.eigenvalues - want))
        worst = max(worst, err)
        assert err <= 1e-4, (params, result.eigenvalues, want)
    report(5, f"oscillator spectra match (2n+l+3/2)*omega to {worst:.1e}")


def test_criterion_6_substitute_back_residual():
    """For the hydrogen-like systems the residual is that of the coupling
    form A u = lambda (1/r) u in r, on r in (0.1, 40), its weight 1/r
    written out."""
    worst = 0.0
    for params in RADIAL_SYSTEMS:
        reduced = reduce_system(params)
        samples = np.linspace(*(reduced.residual_window or (0.1, 40.0)), 200)
        for degree in (1, 2, 3):
            potential, energy = reduced.extended, reduced.energy(degree - 1)
            if isinstance(params, HydrogenLike):
                s, coupling = params.s, energy

                def potential(r):
                    return s * (s + 1) / r**2 + 0.25 + reduced.shift(r) - coupling / r

                energy = 0.0
            resid = residual_on_operator(
                potential,
                wavefunction(params, "exceptional", degree),
                energy,
                samples,
            )
            worst = max(worst, resid)
            assert resid <= 1e-8, (params, degree, resid)
    report(6, f"extended wavefunctions at original eigenvalues, residual <= {worst:.1e}")


def test_criterion_7_shift_anchor_identities():
    checks = []
    for l in (0, 1):
        params = HartmannRadial(l=l, omega=1.0)
        r_star = np.sqrt(2 * (l + 0.5) / params.omega)  # xi = m
        checks.append(abs(reduce_system(params).shift(r_star)))
        dirac = DiracOscillator(l=l)
        checks.append(abs(reduce_system(dirac).shift(np.sqrt(2 * (l + 0.5)))))
    for s in (0.9, 1.5):
        reduced = reduce_system(HydrogenLike(s=s, lambda_c=s + 1))
        checks.append(abs(reduced.shift(2 * s + 1)))
        # the y record the grid solves, at y = 2 sqrt(r)
        checks.append(abs(reduced.grid_form()[0].shift(2 * np.sqrt(2 * s + 1))))
    assert max(checks) <= 1e-14
    report(7, f"all shift anchors zero to {max(checks):.1e} (<= 1e-14)")


def test_criterion_8_negative_controls(tmp_path, capsys):
    # perturbed polynomial fails the ODE residual
    from xop import ClassicalLaguerre

    base = family_members(ClassicalLaguerre(0.5), 3)[2]
    coeffs = base.coeffs.copy()
    coeffs[-1] += 1e-3

    resid_poly = ode_residual(
        ClassicalLaguerre(0.5), EigenPair(2.0, Polynomial(coeffs)),
        chebyshev(0.0, 40.0))
    assert resid_poly >= 1e-4

    # classical wavefunction inserted into the extended operator fails
    params = DiracOscillator(l=0)
    reduced = reduce_system(params)
    resid_psi = residual_on_operator(
        reduced.extended,
        wavefunction(params, "original", 0),
        reduced.energy(0),
        np.linspace(0.05, 12.0, 200),
    )
    assert resid_psi >= 1e-2

    # tolerance-tightened verify run exits 1
    config = {
        "systems": [{"kind": "DiracOscillator", "params": {"l": 0}}],
        "levels": 2,
        "tolerances": {"spectral_radial": 1e-12, "spectral_angular": 1e-12,
                       "residual": 1e-8, "gram": 1e-7},
        "grid": {"points": 1000},
        "output": {"format": "json", "path": str(tmp_path / "reports")},
    }
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(config))
    code = cli_main(["verify", "--config", str(path)])
    capsys.readouterr()
    assert code == 1
    report(8, f"perturbed poly {resid_poly:.1e} (>=1e-4), wrong psi {resid_psi:.1e} (>=1e-2), tight verify exit 1")


def test_default_bundled_verify_run(tmp_path, capsys):
    # the one-command reproduction: all four bundled systems pass
    code = cli_main(["verify", "--out", str(tmp_path / "reports")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 4
    import os

    assert len(os.listdir(tmp_path / "reports")) == 4
    report("bundle", "default config: four systems verified, exit 0")

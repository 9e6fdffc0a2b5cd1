"""CLI contract: subcommands, exit codes, output shapes, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xop.cli import main

DIRAC = '{"kind": "DiracOscillator", "params": {"l": 0}}'
LAG_CLASSICAL = '{"kind": "ClassicalLaguerre", "params": {"k": 0.5}}'
JAC_CLASSICAL = '{"kind": "ClassicalJacobi", "params": {"alpha": 0.5, "beta": 1.5}}'
LAG_X1 = '{"kind": "X1Laguerre", "params": {"k": 0.5}}'


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- eval-poly -------------------------------------------------------------------

def test_eval_poly_degree_zero_is_one(capsys):
    code, out, _ = run(
        ["eval-poly", "--family", LAG_CLASSICAL, "--n", "0", "--points", "0,1,2"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    assert [row.split(",")[1] for row in lines[1:]] == ["1", "1", "1"]


def test_eval_poly_x1_degree_zero_exits_2(capsys):
    code, _, err = run(
        ["eval-poly", "--family", LAG_X1, "--n", "0", "--points", "1.0"], capsys
    )
    assert code == 2
    assert "codimension gap" in err


def test_eval_poly_pole_inside_domain_exits_2(capsys):
    bad = '{"kind": "X1Jacobi", "params": {"a": 1.0, "b": 0.5}}'
    code, _, err = run(
        ["eval-poly", "--family", bad, "--n", "1", "--points", "0.0"], capsys
    )
    assert code == 2
    assert "pole inside domain" in err


@pytest.mark.parametrize("extra, message", [
    ([], "--points or --range"),
    (["--range", "0", "1", "--count", "-3"], "--count"),
    (["--range", "0", "1", "--count", "0"], "--count"),
])
def test_eval_poly_bad_points_exit_2(extra, message, capsys):
    code, _, err = run(["eval-poly", "--family", LAG_CLASSICAL, "--n", "1"] + extra, capsys)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("family", [LAG_CLASSICAL, JAC_CLASSICAL, LAG_X1])
def test_eval_poly_negative_degree_exits_2(family, capsys):
    code, out, err = run(["eval-poly", "--family", family, "--n", "-1", "--points", "0.5"],
                         capsys)
    assert code == 2 and out == ""
    assert err == "error: --n must be non-negative, got -1\n"


@pytest.mark.parametrize("argv", [["gram"], ["eval-poly", "--n", "2", "--points", "0.5"]])
def test_x1_jacobi_c_is_not_a_parameter(argv, capsys):
    """c = b + 1/a is derived; a family JSON that gives it is refused like
    any unknown parameter."""
    family = '{"kind": "X1Jacobi", "params": {"a": 2.0, "b": 1.25, "c": 1.75}}'
    code, out, err = run(argv + ["--family", family], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: invalid parameters for X1Jacobi") and err.count("\n") == 1


def test_eval_poly_coeffs_out(tmp_path, capsys):
    path = tmp_path / "coeffs.json"
    code, _, _ = run(
        ["eval-poly", "--family", LAG_X1, "--n", "1", "--points", "1.0",
         "--coeffs-out", str(path)],
        capsys,
    )
    assert code == 0
    coeffs = json.loads(path.read_text())
    assert coeffs == pytest.approx([1.5, 1.0])  # monic x + k + 1


@pytest.mark.parametrize("out", [True, False])
def test_eval_poly_coefficient_overflow_writes_nothing(out, tmp_path, capsys):
    """Legendre P_900 is finite at 0.5, but its largest coefficient, about
    (1 + sqrt 2)^900, overflows: one error line naming the degree and the
    flag, exit 2, and no table, neither --out nor stdout."""
    legendre = '{"kind": "ClassicalJacobi", "params": {"alpha": 0, "beta": 0}}'
    argv = ["eval-poly", "--family", legendre, "--n", "900", "--points", "0.5",
            "--coeffs-out", str(tmp_path / "c.json")]
    if out:
        argv += ["--out", str(tmp_path / "v.csv")]
    code, stdout, err = run(argv, capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: --coeffs-out: the degree-900 coefficients")
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == []


# --- gram -------------------------------------------------------------------------

def test_gram_csv_shape(capsys):
    code, out, _ = run(["gram", "--family", LAG_X1, "--n-max", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,j,value"
    assert len(lines) == 1 + 4
    # off-diagonal entries are orthogonality zeros
    for row in lines[1:]:
        i, j, value = row.split(",")
        if i != j:
            assert abs(float(value)) < 1e-8


@pytest.mark.parametrize("k", [150.0, 1e6])
def test_gram_past_the_float_range_exits_1_with_one_line(k, capsys):
    """Entries past the float range end in one error line and no warning;
    a Gram that fits (k = 150) is written."""
    n_max = "16"
    family = json.dumps({"kind": "ClassicalLaguerre", "params": {"k": k}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["gram", "--family", family, "--n-max", n_max], capsys)
    if k == 150.0:
        assert code == 0 and err == ""
        assert len(out.splitlines()) == 1 + int(n_max) ** 2
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: the Gram matrix of") and err.count("\n") == 1
        assert err.endswith("beyond the float64 range\n")


def test_gram_past_the_float_range_prints_no_warning():
    import subprocess
    import sys

    import xop

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xop.__file__)))
    done = subprocess.run([sys.executable, "-m", "xop", "gram", "--family",
                           '{"kind":"X1Laguerre","params":{"k":200}}', "--n-max", "4"],
                          capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == ("error: the Gram matrix of {'kind': 'X1Laguerre', 'params': "
                           "{'k': 200.0}} at n_max 4 has entries of e^880.953, beyond the "
                           "float64 range\n")


def test_gram_of_a_laguerre_weight_far_past_the_float_range_prints_one_short_line(capsys):
    """The exponent of the refused entries prints in g form, not as ~300 digits."""
    family = {"kind": "ClassicalLaguerre", "params": {"k": 1e300}}
    code, out, err = run(["gram", "--family", json.dumps(family)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: the Gram matrix of") and "e^6.89776e+302" in err
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("family", [
    {"kind": "X1Jacobi", "params": {"a": 1e100, "b": 2.0}},
    {"kind": "X1Jacobi", "params": {"a": 1e300, "b": 2.0}},
    {"kind": "ClassicalJacobi", "params": {"alpha": 1e300, "beta": 0.5}},
])
def test_gram_of_a_jacobi_weight_past_the_float_range_exits_1_with_one_line(family, capsys):
    """A Gauss-Jacobi recurrence or mass past the float range ends in one
    short line naming the weight, with no warning and no traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["gram", "--family", json.dumps(family), "--n-max", "3"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: the ") and "weight (1-x)^" in err
    assert err.count("\n") == 1 and len(err) < 200


def test_x1_jacobi_hidden_exponents_below_minus_one_have_no_gram(capsys):
    """X1Jacobi(-2, 2.3) hides (-2.6, -6.6): eval-poly tabulates it (a
    golden table), and its weight is not integrable, so gram exits 2."""
    family = '{"kind": "X1Jacobi", "params": {"a": -2.0, "b": 2.3}}'
    code, out, err = run(["gram", "--family", family, "--n-max", "4"], capsys)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "must be finite and exceed -1" in err


@pytest.mark.parametrize("family, names_collision", [
    ('{"kind": "X1Jacobi", "params": {"a": 1.0, "b": -3.0}}', True),
    ('{"kind": "X1Laguerre", "params": {"k": 1e300}}', False),
])
def test_undetermined_members_name_the_collision_only_for_x1_jacobi(family, names_collision,
                                                                     capsys):
    """X1-Jacobi degrees d and N + 1 - d collide near 2ab = -N; X1-Laguerre
    has no such collision, so its message does not name one."""
    code, out, err = run(["eval-poly", "--family", family, "--n", "5", "--points", "0.1"],
                         capsys)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert "are not determined to 1e-14 relative" in err
    assert ("near 2ab = -N" in err) == names_collision


# inputs at the edge of the float range that once ended in a traceback or in numpy
# warnings: (argv, exit code, a fragment of the one stderr line, "" for none)
EDGE_INPUTS = [
    # a tiny k rounded n + k - 1 to lgamma(0) at n = 1
    (["gram", "--family", '{"kind":"X1Laguerre","params":{"k":1e-17}}', "--n-max", "1"],
     1, "did not converge"),
    (["gram", "--family", '{"kind":"X1Laguerre","params":{"k":1e-300}}', "--n-max", "1"],
     1, "did not converge"),
    (["gram", "--family", '{"kind":"X1Laguerre","params":{"k":5e-324}}', "--n-max", "1"],
     1, "has entries of e^744.44, beyond the float64 range"),
    # alpha^2 - beta^2 past the float range: Python's float ** raised OverflowError
    (["eval-poly", "--family", '{"kind":"ClassicalJacobi","params":{"alpha":1,"beta":1e300}}',
      "--n", "0", "--range", "0", "1"], 0, ""),
    (["eval-poly", "--family", '{"kind":"ClassicalJacobi","params":{"alpha":1,"beta":1e300}}',
      "--n", "1", "--range", "0", "1"], 0, ""),
    (["eval-poly", "--family", '{"kind":"ClassicalJacobi","params":{"alpha":1,"beta":1e300}}',
      "--n", "2", "--range", "0", "1"], 2, "value is not finite at x = 0"),
    # the rational-ODE check overflowed with warnings before it failed
    (["gram", "--family", '{"kind":"X1Jacobi","params":{"a":1.0000000001,"b":1e300}}',
      "--n-max", "16"], 1, "fail the rational-ODE residual check"),
    # the degree-1 member x - (b + 1/a) ~ -1e300: its Gram entry passes the float range
    (["gram", "--family", '{"kind":"X1Jacobi","params":{"a":1e-300,"b":64}}', "--n-max", "16"],
     1, "did not converge"),
    # the leads of degrees 10 and up pass the float range: 1/0 in the classical
    # leads, and the Gram entries of those rows underflow to 0, diagonal included
    (["gram", "--family", '{"kind":"X1Jacobi","params":{"a":9007199254740992.0,'
      '"b":9007199254740992.0}}', "--n-max", "13"], 1, "below the float64 range"),
    # integer a and b: 2ab past 2^64 made the eigenvalues an object array
    (["gram", "--family", '{"kind":"X1Jacobi","params":{"a":18446744073709551616,"b":2}}',
      "--n-max", "13"], 1, "beyond the float64 range"),
    # the mass of the weight over (x - 1e300)^2 underflows to 0 before its logarithm
    (["gram", "--family", '{"kind":"X1Jacobi","params":{"a":1e-300,"b":1e300}}', "--n-max", "2"],
     1, "has a total mass below the float64 range"),
]


@pytest.mark.parametrize("argv, code, message", EDGE_INPUTS,
                         ids=[" ".join(argv) for argv, _, _ in EDGE_INPUTS])
def test_inputs_at_the_float_range_end_in_an_exit_code(argv, code, message, capsys):
    """Each ends in its exit code with at most one stderr line, and no
    warning and no traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(argv, capsys)
    assert got == code
    if message:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert message in err
    else:
        assert err == "" and all(math.isfinite(float(value))
                                 for line in out.splitlines()[1:] for value in line.split(","))


# --- spectrum ----------------------------------------------------------------------

def test_spectrum_dirac(capsys):
    code, out, _ = run(
        ["spectrum", "--system", DIRAC, "--levels", "3", "--grid-points", "1500"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,E_original,E_extended,abs_diff"
    rows = [line.split(",") for line in lines[1:]]
    for n, want in enumerate((1.5, 3.5, 5.5)):
        assert float(rows[n][1]) == pytest.approx(want, abs=1e-4)
        assert float(rows[n][3]) < 1e-4


def test_spectrum_levels_zero_exits_2(capsys):
    code, _, _ = run(["spectrum", "--system", DIRAC, "--levels", "0"], capsys)
    assert code == 2


def test_spectrum_hydrogen_diffs(capsys):
    system = '{"kind": "HydrogenLike", "params": {"s": 0.9, "lambda_c": 1.9}}'
    code, out, _ = run(
        ["spectrum", "--system", system, "--levels", "2", "--grid-points", "2000"],
        capsys,
    )
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert float(line.split(",")[3]) < 1e-4


def test_spectrum_byte_stable(capsys):
    argv = ["spectrum", "--system", DIRAC, "--levels", "2", "--grid-points", "1000"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_spectrum_json_format(capsys):
    code, out, _ = run(
        ["spectrum", "--system", DIRAC, "--levels", "2", "--grid-points", "1000",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["system"]["kind"] == "DiracOscillator"
    assert len(data["levels"]) == 2


def test_spectrum_json_levels_are_the_solved_values(capsys):
    """Every level of the JSON table parses back to the float that
    `solve_variants` returned, bit for bit."""
    from xop import reduce_system, system_from_json
    from xop.verify import solve_variants

    code, out, _ = run(["spectrum", "--system", DIRAC, "--levels", "4", "--grid-points", "1000",
                        "--format", "json"], capsys)
    assert code == 0
    original, extended, _ = solve_variants(reduce_system(system_from_json(DIRAC)), 4, 1000)
    want = [{"level": n, "E_original": e_o, "E_extended": e_e, "abs_diff": abs(e_e - e_o)}
            for n, (e_o, e_e) in enumerate(zip(original.eigenvalues.tolist(),
                                               extended.eigenvalues.tolist()))]
    levels = json.loads(out)["levels"]
    assert levels == want
    assert all(type(level[key]) is float for level in levels
               for key in ("E_original", "E_extended", "abs_diff"))


# --- plot-data ----------------------------------------------------------------------

def test_plot_data_rows_and_sum_identity(capsys):
    code, out, _ = run(
        ["plot-data", "--system",
         '{"kind": "HartmannRadial", "params": {"l": 0, "omega": 1.0}}',
         "--range", "0.1", "10", "--count", "200"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("x,V_original,V_e,V_extended,psi_0")
    assert len(lines) == 201
    shifts = []
    for row in lines[1:]:
        vals = [float(tok) for tok in row.split(",")]
        # 12-digit CSV rounding; the exact 1e-14 identity is tested in-memory
        assert vals[3] == pytest.approx(vals[1] + vals[2], abs=1e-11 * (1 + abs(vals[3])))
        shifts.append(vals[2])
    # the shift changes sign near xi = m (r = 1 here)
    assert min(shifts) < 0 < max(shifts)


def test_plot_data_range_outside_domain_exits_2(capsys):
    code, _, _ = run(
        ["plot-data", "--system", DIRAC, "--range", "-1", "5"], capsys
    )
    assert code == 2


@pytest.mark.parametrize("extra, message", [
    (["--count", "-3"], "--count"),
    (["--count", "0"], "--count"),
    (["--levels", "-1"], "--levels"),
])
def test_plot_data_bad_counts_exit_2(extra, message, capsys):
    code, _, err = run(["plot-data", "--system", DIRAC, "--range", "0.1", "5"] + extra, capsys)
    assert code == 2
    assert message in err


# --- verify ---------------------------------------------------------------------------

def write_config(tmp_path, **overrides):
    config = {
        "systems": [json.loads(DIRAC)],
        "levels": 2,
        "tolerances": {"spectral_radial": 1e-4, "spectral_angular": 1e-3,
                       "residual": 1e-8, "gram": 1e-7},
        "grid": {"points": 1000},
        "output": {"format": "json", "path": str(tmp_path / "reports")},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_verify_passes_and_writes_report(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out, _ = run(["verify", "--config", str(path)], capsys)
    assert code == 0
    assert "PASS DiracOscillator" in out
    reports = os.listdir(tmp_path / "reports")
    assert reports == ["report_0_DiracOscillator.json"]
    data = json.loads((tmp_path / "reports" / reports[0]).read_text())
    assert data["passed"] is True


def test_verify_summary_shows_the_worst_analytic_error(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out, _ = run(["verify", "--config", str(path)], capsys)
    data = json.loads((tmp_path / "reports" / "report_0_DiracOscillator.json").read_text())
    worst = max(data["analytic_errors_original"] + data["analytic_errors_extended"])
    assert code == 0
    assert f" analytic={worst:.3e} -> " in out.splitlines()[0]


def test_verify_tightened_tolerance_exits_1(tmp_path, capsys):
    path = write_config(
        tmp_path,
        tolerances={"spectral_radial": 1e-12, "spectral_angular": 1e-12,
                    "residual": 1e-8, "gram": 1e-7},
    )
    code, out, _ = run(["verify", "--config", str(path)], capsys)
    assert code == 1
    assert "FAIL" in out


def test_verify_refuses_csv_reports(tmp_path, capsys):
    path = write_config(tmp_path, output={"format": "csv", "path": str(tmp_path / "reports")})
    code, out, err = run(["verify", "--config", str(path)], capsys)
    assert code == 2 and out == ""
    assert "JSON" in err
    assert not (tmp_path / "reports").exists()


def test_verify_fails_levels_off_the_analytic_ones(tmp_path, capsys):
    """A wall 0.01 in from theta = 0 moves both angular spectra up to 8e-3
    off (s + n)^2 together; the analytic gate fails the report."""
    path = write_config(
        tmp_path, levels=4,
        systems=[{"kind": "HartmannAngularI", "params": {"lambda_a": 1.0, "s": 2.5}}],
        grid={"points": 2000, "domain_overrides": {"HartmannAngularI": [0.01, math.pi]}},
    )
    code, out, _ = run(["verify", "--config", str(path)], capsys)
    assert code == 1 and out.startswith("FAIL HartmannAngularI")
    data = json.loads((tmp_path / "reports" / "report_0_HartmannAngularI.json").read_text())
    assert max(data["spectral_diffs"]) <= data["tolerances"]["spectral"]
    allowed = data["tolerances"]["spectral"] + data["extrapolation_error"]
    assert max(data["analytic_errors_original"]) > allowed
    assert data["passed"] is False


def test_verify_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json at all")
    code, _, err = run(["verify", "--config", str(path)], capsys)
    assert code == 2
    assert "error" in err.lower()


def test_verify_missing_config_exits_2(tmp_path, capsys):
    code, _, _ = run(["verify", "--config", str(tmp_path / "nope.json")], capsys)
    assert code == 2


def test_verify_report_files_are_byte_stable(tmp_path, capsys):
    path = write_config(tmp_path)
    run(["verify", "--config", str(path)], capsys)
    first = (tmp_path / "reports" / "report_0_DiracOscillator.json").read_bytes()
    run(["verify", "--config", str(path)], capsys)
    second = (tmp_path / "reports" / "report_0_DiracOscillator.json").read_bytes()
    assert first == second


def test_written_files_get_umask_mode(tmp_path, capsys):
    # a private temp file would come out 0o600; reports are shared like any output
    previous = os.umask(0o022)
    try:
        code, _, _ = run(["verify", "--config", str(write_config(tmp_path))], capsys)
    finally:
        os.umask(previous)
    assert code == 0
    mode = os.stat(tmp_path / "reports" / "report_0_DiracOscillator.json").st_mode
    assert mode & 0o777 == 0o644


def test_psi_out(tmp_path, capsys):
    path = tmp_path / "psi.csv"
    code, _, _ = run(
        ["spectrum", "--system", DIRAC, "--levels", "2", "--grid-points", "1000",
         "--psi-out", str(path)],
        capsys,
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,psi_0,psi_1"
    assert len(lines) == 1001


# the five systems of the benchmark's workloads
BENCH_SYSTEMS = [
    '{"kind": "HartmannRadial", "params": {"l": 0, "omega": 1.0}}',
    '{"kind": "HartmannAngularI", "params": {"lambda_a": 1.0, "s": 2.5}}',
    DIRAC,
    '{"kind": "HydrogenLike", "params": {"s": 0.9, "lambda_c": 1.9}}',
    '{"kind": "HartmannAngularII", "params": {"lambda_a": 2.0, "s": 4.0}}',
]


def _count_bisections(monkeypatch) -> list:
    """(grid points, with eigenfunctions) of each bisection, the stebz solve
    of `eigen_lowest`, wherever it is called from."""
    import scipy.linalg

    calls, solve = [], scipy.linalg.eigh_tridiagonal

    def counted(diag, off, **kwargs):
        calls.append((diag.size, not kwargs["eigvals_only"]))
        return solve(diag, off, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted)
    return calls


def _bisected_psi(system, levels, grid_points):
    """The grid and `eigen_lowest`'s eigenfunctions of the coarse original
    operator that `spectrum` solves."""
    from xop import Grid, eigen_lowest, reduce_system, system_from_json
    from xop.verify import variant_operator

    reduced = reduce_system(system_from_json(system))
    grid = Grid(*reduced.grid_form()[1], grid_points)
    return grid, eigen_lowest(variant_operator(reduced, "original", grid), levels).eigenfunctions


@pytest.mark.parametrize("grid_points, levels", [(2000, 4), (900, 3), (20000, 8)])
@pytest.mark.parametrize("system", BENCH_SYSTEMS, ids=lambda s: json.loads(s)["kind"])
def test_psi_out_writes_the_coarse_polish(system, grid_points, levels, tmp_path, capsys,
                                          monkeypatch):
    """spectrum --psi-out writes the eigenfunctions of the certified coarse
    original polish that the table's values came from: nothing is bisected,
    the table bytes are those without --psi-out, and the columns agree with
    bisection's (stein) eigenfunctions to 1e-9 of their peak (4.3e-10 at
    worst, at (20000, 8)) and are orthonormal to the 12 digits the CSV
    keeps (3e-12 at worst)."""
    import numpy as np

    argv = ["spectrum", "--system", system, "--levels", str(levels),
            "--grid-points", str(grid_points)]
    tables = {fmt: run(argv + ["--format", fmt], capsys)[1] for fmt in ("csv", "json")}
    calls = _count_bisections(monkeypatch)
    path = tmp_path / "psi.csv"
    for fmt, table in tables.items():
        code, out, _ = run(argv + ["--format", fmt, "--psi-out", str(path)], capsys)
        assert code == 0 and out == table
    assert calls == []
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(["x"] + [f"psi_{n}" for n in range(levels)])
    written = np.loadtxt(lines[1:], delimiter=",")
    x, psi = written[:, 0], written[:, 1:]
    grid, bisected = _bisected_psi(system, levels, grid_points)
    assert np.max(np.abs(x - grid.points)) <= 1e-11 * np.max(np.abs(grid.points))
    assert np.all(np.max(np.abs(psi - bisected), axis=0)
                  <= 1e-9 * np.max(np.abs(bisected), axis=0))
    assert np.max(np.abs(psi.T @ psi * grid.spacing - np.eye(levels))) <= 1e-11


@pytest.mark.parametrize("system", [BENCH_SYSTEMS[1], BENCH_SYSTEMS[4]],
                         ids=lambda s: json.loads(s)["kind"])
def test_psi_out_columns_are_orthonormal_on_large_grids(system, tmp_path, capsys, monkeypatch):
    """The polish certifies values only, and its vectors drift apart as the
    grid grows (1.35e-9 under sum f g h in the angular wells at (40000, 8));
    --psi-out orthonormalizes the columns it formats."""
    import numpy as np
    import xop.cli

    formatted, csv_lines = [], xop.cli.csv_lines
    monkeypatch.setattr(xop.cli, "csv_lines",
                        lambda header, columns: formatted.append(columns) or csv_lines(header, columns))
    code, _, _ = run(["spectrum", "--system", system, "--levels", "8", "--grid-points", "40000",
                      "--psi-out", str(tmp_path / "psi.csv")], capsys)
    assert code == 0
    x, *columns = formatted[-1]
    psi = np.array(columns).T
    assert np.max(np.abs(psi.T @ psi * (x[1] - x[0]) - np.eye(8))) <= 1e-12


def test_psi_out_of_a_coarse_fallback_is_bisected(tmp_path, capsys, monkeypatch):
    """Where the coarse original polish fails its certificate, refine_lowest
    falls back to bisection with eigenfunctions, and --psi-out writes
    those, orthonormal already up to rounding: one eigenpair solve, no
    other."""
    import numpy as np
    import xop.spectral
    from xop import reduce_system, system_from_json
    from xop.verify import variant_operator

    grid, bisected = _bisected_psi(DIRAC, 3, 900)
    refused = variant_operator(reduce_system(system_from_json(DIRAC)), "original", grid)
    certified = xop.spectral._certified

    def refuse_coarse_original(op, values, bounds):
        if op.grid == grid and np.array_equal(op.v, refused.v):
            return False
        return certified(op, values, bounds)

    monkeypatch.setattr(xop.spectral, "_certified", refuse_coarse_original)
    calls = _count_bisections(monkeypatch)
    path = tmp_path / "psi.csv"
    code, _, _ = run(["spectrum", "--system", DIRAC, "--levels", "3", "--grid-points", "900",
                      "--psi-out", str(path)], capsys)
    assert code == 0
    assert calls == [(900, True)]
    lines = path.read_text().splitlines()
    assert lines[0] == "x,psi_0,psi_1,psi_2"
    psi = np.loadtxt(lines[1:], delimiter=",")[:, 1:]
    assert np.all(np.max(np.abs(psi - bisected), axis=0)
                  <= 1e-11 * np.max(np.abs(bisected), axis=0))


def test_psi_out_of_hydrogen_is_on_its_uniform_grid_in_y(tmp_path, capsys):
    """Hydrogen's --psi-out holds the uniform grid in y = 2 sqrt(r) that its
    eigenfunctions solve, so the columns are orthonormal under
    sum f g h with h read off the first and last x."""
    import numpy as np

    path = tmp_path / "psi.csv"
    system = '{"kind": "HydrogenLike", "params": {"s": 0.9, "lambda_c": 1.9}}'
    code, _, _ = run(["spectrum", "--system", system, "--levels", "4",
                      "--psi-out", str(path)], capsys)
    assert code == 0
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    x, psi = table[:, 0], table[:, 1:]
    h = (x[-1] - x[0]) / (x.size - 1)
    assert np.max(np.abs(np.diff(x) - h)) <= 1e-9
    assert np.max(np.abs(psi.T @ psi * h - np.eye(4))) <= 1e-9


def test_eval_poly_eigenvalue_collision_exits_1(capsys):
    # 1 - 2ab = 7: degrees d and 7 - d share an eigenvalue
    family = '{"kind": "X1Jacobi", "params": {"a": 1.0, "b": -3.0}}'
    code, out, err = run(["eval-poly", "--family", family, "--n", "5", "--points", "0.1"], capsys)
    assert code == 1 and out == ""
    assert "degrees [4, 5]" in err and "share an eigenvalue" in err


def test_eval_poly_classical_jacobi(capsys):
    fam = '{"kind": "ClassicalJacobi", "params": {"alpha": 0.0, "beta": 0.0}}'
    code, out, _ = run(["eval-poly", "--family", fam, "--n", "1", "--points", "0.5"], capsys)
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[1]) == pytest.approx(0.5)


def test_eval_poly_range_flag(capsys):
    code, out, _ = run(
        ["eval-poly", "--family", LAG_CLASSICAL, "--n", "2", "--range", "0", "4",
         "--count", "5"],
        capsys,
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 6


def test_plot_data_exceptional_variant(capsys):
    code, out, _ = run(
        ["plot-data", "--system", DIRAC, "--range", "0.1", "8", "--count", "50",
         "--variant", "exceptional", "--levels", "2"],
        capsys,
    )
    assert code == 0
    header = out.strip().splitlines()[0]
    assert header.endswith("psi_1,psi_2")  # X1 degrees start at one


def test_plot_data_exceptional_columns_keep_the_pole_factor_sign(capsys):
    """At HartmannAngularII(4, 2) the pole factor -5/2 - z is negative on the
    whole domain.  The closed forms take the log of |c0 + c1 z| and put its
    sign back, so every printed psi entry carries the sign of
    P_n(z) / (c0 + c1 z) (the prefactor is positive)."""
    from xop import HartmannAngularII, reduce_system, x1_polynomial

    code, out, _ = run(
        ["plot-data", "--system", '{"kind":"HartmannAngularII","params":{"lambda_a":4.0,"s":2.0}}',
         "--range", "0.05", "1.5", "--count", "60", "--variant", "exceptional", "--levels", "4"],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    reduced = reduce_system(HartmannAngularII(4.0, 2.0))
    c0, c1 = reduced.pole_offset
    z = np.cos(2 * np.array([float(row[0]) for row in rows]))
    assert np.all(c0 + c1 * z < 0)
    for n in range(1, 5):
        quotient = x1_polynomial(reduced.x1_family, n).polynomial(z) / (c0 + c1 * z)
        printed = np.array([row[3 + n].startswith("-") for row in rows])
        clear = np.abs(quotient) > 1e-6 * np.max(np.abs(quotient))  # off the roots
        assert np.array_equal(printed[clear], (quotient < 0)[clear]), n


# --- no tracebacks ----------------------------------------------------------------------

LAG_X1_RANGE = ["--family", LAG_X1, "--range", "0.1", "5"]
JAC_X1_RANGE = ["--family", '{"kind": "X1Jacobi", "params": {"a": 1.5, "b": 2.5}}',
                "--range", "-0.5", "0.5"]
CLASSICAL_RANGES = (["--family", LAG_CLASSICAL, "--range", "0.1", "5"],
                    ["--family", JAC_CLASSICAL, "--range", "-0.5", "0.5"])
PLOT = ["plot-data", "--system", DIRAC, "--range", "0.1", "5"]
# boundary values of the integer flags, kept small: --levels <= 30, --grid-points <= 300
SWEEP_VALUES = ("-3", "-1", "0", "1", "2", "7", "30")
SWEEP = (
    [PLOT + ["--variant", variant, "--count", v] for variant in ("original", "exceptional")
     for v in SWEEP_VALUES]
    + [PLOT + ["--variant", variant, "--count", "5", "--levels", v]
       for variant in ("original", "exceptional") for v in SWEEP_VALUES]
    + [["eval-poly", "--n", v, "--count", "5"] + family
       for family in (LAG_X1_RANGE, JAC_X1_RANGE, *CLASSICAL_RANGES) for v in SWEEP_VALUES]
    + [["eval-poly", "--n", "2", "--count", v] + family
       for family in (LAG_X1_RANGE, JAC_X1_RANGE) for v in SWEEP_VALUES]
    + [["gram", "--family", LAG_X1, "--n-max", v] for v in SWEEP_VALUES]
    + [["spectrum", "--system", DIRAC, "--levels", levels, "--grid-points", points]
       for levels in SWEEP_VALUES for points in ("-3", "0", "63", "64", "300")]
)
# sizes whose arrays numpy refuses outright (petabytes); a size a machine
# could partly allocate is never tried (20000 classical levels take 6.4 GB)
HUGE = str(10**15)
ABSURD = (
    [["eval-poly", "--n", HUGE, "--count", "1"] + family for family in CLASSICAL_RANGES]
    + [["eval-poly", "--n", "2", "--count", HUGE] + family
       for family in (LAG_X1_RANGE, CLASSICAL_RANGES[0])]
    + [PLOT + ["--count", HUGE], PLOT + ["--levels", "100000000"],
       ["spectrum", "--system", DIRAC, "--grid-points", HUGE]]
)


def _flags(argv):
    return " ".join(arg for arg in argv if not arg.startswith("{"))


@pytest.mark.parametrize("argv", SWEEP + ABSURD, ids=_flags)
def test_integer_flags_never_raise(argv, capsys):
    assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize("argv", ABSURD + [["verify", "--grid-points", HUGE]], ids=_flags)
def test_absurd_sizes_exit_2(argv, tmp_path, capsys):
    if argv[0] == "verify":
        argv = argv + ["--out", str(tmp_path)]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


SPECTRUM = ["spectrum", "--system", DIRAC, "--levels", "2", "--grid-points", "200"]
EVAL_POLY = ["eval-poly", "--family", LAG_X1, "--n", "2", "--points", "1"]
OUTPUT_FLAGS = [
    (["verify", "--levels", "2", "--grid-points", "200"], "--out"),
    (SPECTRUM, "--out"),
    (SPECTRUM, "--psi-out"),
    (EVAL_POLY, "--out"),
    (EVAL_POLY, "--coeffs-out"),
    (["gram", "--family", LAG_X1, "--n-max", "2"], "--out"),
    (PLOT, "--out"),
]


@pytest.mark.parametrize("argv, flag", OUTPUT_FLAGS,
                         ids=[f"{argv[0]} {flag}" for argv, flag in OUTPUT_FLAGS])
def test_unwritable_output_exits_2(argv, flag, tmp_path, capsys):
    """An output path under a regular file (NotADirectoryError) exits 2 with
    one line naming the path, and no traceback."""
    (tmp_path / "file").write_text("")
    blocked = str(tmp_path / "file" / "sub" / "out")
    code, _, err = run(argv + [flag, blocked], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {blocked}") and "Not a directory" in err
    assert err.count("\n") == 1


# non-integer inputs: every bad system value or config entry exits 2 ------------------

SYSTEM_PARAMS = {
    "HartmannRadial": {"l": 0, "omega": 1.0},
    "HartmannAngularI": {"lambda_a": 1.0, "s": 2.5},
    "HartmannAngularII": {"lambda_a": 2.0, "s": 4.0},
    "DiracOscillator": {"l": 0, "omega": 1.0},
    "HydrogenLike": {"s": 0.9, "lambda_c": 1.9, "chi": 1.0},
}
BAD_VALUES = ('"x"', "null", "[1]", "true", "NaN", "Infinity", "1e400")
SUBCOMMANDS = {
    "spectrum": ["--levels", "1", "--grid-points", "64"],
    "plot-data": ["--range", "0.1", "0.2", "--count", "3", "--levels", "1"],
}


def bad_spec(table, kind, key, value):
    fields = ", ".join(f'"{k}": {value if k == key else json.dumps(v)}'
                       for k, v in table[kind].items())
    return f'{{"kind": "{kind}", "params": {{{fields}}}}}'


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("system", [
    bad_spec(SYSTEM_PARAMS, kind, key, value)
    for kind, params in SYSTEM_PARAMS.items() for key in params for value in BAD_VALUES
])
def test_bad_system_values_exit_2(command, system, capsys):
    assert main([command, "--system", system] + SUBCOMMANDS[command]) == 2


FAMILY_PARAMS = {
    "ClassicalLaguerre": {"k": 0.5},
    "ClassicalJacobi": {"alpha": 0.5, "beta": 1.5},
    "X1Laguerre": {"k": 0.5},
    "X1Jacobi": {"a": 2.0, "b": 1.25},
}
FAMILY_SUBCOMMANDS = {"eval-poly": ["--n", "1", "--points", "0.5"], "gram": ["--n-max", "2"]}


@pytest.mark.parametrize("command", FAMILY_SUBCOMMANDS)
@pytest.mark.parametrize("family", [
    bad_spec(FAMILY_PARAMS, kind, key, value)
    for kind, params in FAMILY_PARAMS.items() for key in params for value in BAD_VALUES
])
def test_bad_family_values_exit_2(command, family, capsys):
    """Family parameters are checked like system parameters: a bool, string,
    null, list or non-finite number exits 2 with one error line."""
    code, out, err = run([command, "--family", family] + FAMILY_SUBCOMMANDS[command], capsys)
    assert code == 2 and out == "" and err.count("\n") == 1


# finite but extreme system values: overflow, or levels the fixed grids cannot
# hold; each exits 2 with a message and prints nothing
EXTREME_SYSTEMS = [
    ("HartmannRadial", {"l": 0, "omega": 1e300}),
    ("HartmannRadial", {"l": 0, "omega": 1e-300}),
    ("HartmannRadial", {"l": 1e300, "omega": 1.0}),
    ("HartmannRadial", {"l": 65, "omega": 1.0}),
    ("DiracOscillator", {"l": 1e300}),
    ("HydrogenLike", {"s": 1e200, "lambda_c": 1.9}),
    ("HydrogenLike", {"s": 5.5, "lambda_c": 1.9}),
    ("HartmannAngularI", {"lambda_a": 1.0, "s": 1e300}),
    ("HartmannAngularI", {"lambda_a": 1e-300, "s": 2.5}),
    ("HartmannAngularII", {"lambda_a": 2.0, "s": 1e300}),
    ("HartmannAngularII", {"lambda_a": 2.0, "s": 2.0 + 1e-12}),
]
# the largest accepted values still solve
LIMIT_SYSTEMS = [
    ("HartmannRadial", {"l": 64, "omega": 1e8}),
    ("HartmannRadial", {"l": 0, "omega": 1e-8}),
    ("DiracOscillator", {"l": 64}),
    ("HydrogenLike", {"s": 5.0, "lambda_c": 1.9}),
    ("HartmannAngularI", {"lambda_a": 1.0, "s": 1e4}),
    ("HartmannAngularII", {"lambda_a": 2.0, "s": 1e4}),
]


def system_arg(kind, params):
    return json.dumps({"kind": kind, "params": params})


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("kind, params", EXTREME_SYSTEMS,
                         ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_extreme_system_values_exit_2(command, kind, params, capsys):
    code, out, err = run([command, "--system", system_arg(kind, params)]
                         + SUBCOMMANDS[command], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "must" in err


@pytest.mark.parametrize("kind, params", LIMIT_SYSTEMS,
                         ids=lambda v: v if isinstance(v, str) else json.dumps(v))
def test_limit_system_values_solve(kind, params, capsys):
    code, out, _ = run(["spectrum", "--system", system_arg(kind, params), "--levels", "2",
                        "--grid-points", "300"], capsys)
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
    assert len(rows) == 2 and all(math.isfinite(v) for row in rows for v in row)


# --range and --points at their boundaries: a non-finite point, or points where
# the values overflow, exit 2; every other outcome is a finite table
NON_FINITE = ("nan", "inf", "-inf")
RANGE_SWEEP = [(lo, hi) for lo in ("-1e300", "-0.5", "0.1", "nan", "-inf")
               for hi in ("0.1", "0.5", "1e300", "nan", "inf")]
POINTS_SWEEP = ["nan", "inf", "-inf", "0.5,nan", "1e300", "-1e300", "1e-300", "0.5",
                "1e100,2"]
EVAL_FAMILIES = [LAG_CLASSICAL, '{"kind": "X1Jacobi", "params": {"a": 1.5, "b": 2.5}}']
ANGULAR_I = '{"kind": "HartmannAngularI", "params": {"lambda_a": 1.0, "s": 2.5}}'


# the checks that judge a --range: non-finite ends, values that overflow, and
# (plot-data) ends outside the system's domain
RANGE_MESSAGES = ("range needs finite lo < hi", "is not finite at", "outside system domain")


def check_boundary_outcome(code, out, err, inputs, messages=()):
    assert code in (0, 2)
    if any(tok in NON_FINITE for value in inputs for tok in value.split(",")):
        assert code == 2
    if code == 2:
        # xop's own checks answer, not argparse's usage error: "-1e300" and
        # "-inf" after --range are values, not flags
        assert out == "" and err.startswith("error:") and "usage:" not in err
        assert not messages or any(message in err for message in messages), err
    else:
        values = [float(v) for line in out.strip().splitlines()[1:] for v in line.split(",")]
        assert values and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("family", EVAL_FAMILIES)
@pytest.mark.parametrize("lo, hi", RANGE_SWEEP)
def test_eval_poly_range_boundaries(family, lo, hi, capsys):
    code, out, err = run(["eval-poly", "--family", family, "--n", "3", "--range", lo, hi,
                          "--count", "5"], capsys)
    check_boundary_outcome(code, out, err, (lo, hi), RANGE_MESSAGES)


@pytest.mark.parametrize("family", EVAL_FAMILIES)
@pytest.mark.parametrize("points", POINTS_SWEEP)
def test_eval_poly_points_boundaries(family, points, capsys):
    code, out, err = run(["eval-poly", "--family", family, "--n", "3", f"--points={points}"],
                         capsys)
    check_boundary_outcome(code, out, err, (points,))


@pytest.mark.parametrize("system", [DIRAC, ANGULAR_I])
@pytest.mark.parametrize("lo, hi", RANGE_SWEEP)
def test_plot_data_range_boundaries(system, lo, hi, capsys):
    code, out, err = run(["plot-data", "--system", system, "--range", lo, hi, "--count", "5",
                          "--levels", "2"], capsys)
    check_boundary_outcome(code, out, err, (lo, hi), RANGE_MESSAGES)


@pytest.mark.parametrize("command", ["eval-poly", "plot-data"])
def test_negative_exponent_and_infinite_range_ends_are_values(command, capsys):
    """-1e-3, -1e300 and -inf after --range are numbers for the range checks
    to judge, not unknown flags."""
    head = (["eval-poly", "--family", LAG_CLASSICAL, "--n", "2"] if command == "eval-poly"
            else ["plot-data", "--system", ANGULAR_I, "--levels", "1"])
    code, out, _ = run(head + ["--range", "1e-3", "1", "--count", "3"], capsys)
    assert code == 0 and out.splitlines()[1].startswith("0.001,")
    if command == "eval-poly":
        code, out, _ = run(head + ["--range", "-1e-3", "1", "--count", "3"], capsys)
        assert code == 0 and out.splitlines()[1].startswith("-0.001,")
    code, out, err = run(head + ["--range", "-inf", "1"], capsys)
    assert code == 2 and out == "" and err == "error: range needs finite lo < hi, got -inf 1.0\n"
    code, out, err = run(head + ["--range", "-1e300", "1", "--count", "3"], capsys)
    want = ("error: value is not finite at x = -1e+300" if command == "eval-poly"
            else "error: range (-1e+300, 1.0) outside system domain")
    assert code == 2 and out == "" and err.startswith(want)


def test_non_finite_values_exit_2_with_the_point(capsys):
    code, out, err = run(["eval-poly", "--family", LAG_CLASSICAL, "--n", "3",
                          "--points", "1,1e300"], capsys)
    assert code == 2 and out == ""
    assert "value is not finite at x = 1e+300" in err
    code, out, err = run(["plot-data", "--system", DIRAC, "--range", "0.1", "1e300",
                          "--count", "3", "--levels", "1"], capsys)
    assert code == 2 and out == ""
    assert "not finite at x = 5e+299" in err


def test_python_dash_m_runs_the_cli():
    import subprocess
    import sys

    import xop

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xop.__file__)))
    done = subprocess.run([sys.executable, "-m", "xop", "eval-poly", "--family", LAG_CLASSICAL,
                           "--n", "1", "--points", "0"], capture_output=True, text=True,
                          env=env, check=False)
    assert done.returncode == 0
    assert done.stdout == "x,value\n0,1.5\n"
    done = subprocess.run([sys.executable, "-m", "xop", "eval-poly", "--family", LAG_CLASSICAL,
                           "--n", "1", "--points", "nan"], capture_output=True, text=True,
                          env=env, check=False)
    assert done.returncode == 2 and done.stderr.startswith("error:")


def test_loading_and_evaluating_never_import_scipy_linalg():
    """scipy.linalg is imported at the first solve: a fresh interpreter that
    imports xop, loads the bundled config and runs eval-poly and plot-data
    has not loaded it."""
    import subprocess
    import sys

    import xop

    code = ("import sys, xop, xop.config; from xop.cli import main; "
            "xop.config.load_config(None); "
            f"assert main(['eval-poly', '--family', {LAG_X1!r}, '--n', '3', '--points', '0,1']) == 0; "
            f"assert main(['plot-data', '--system', {DIRAC!r}, '--range', '0.1', '3', "
            "'--count', '5', '--levels', '2']) == 0; "
            "print('scipy.linalg' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xop.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


# --- one parser per process ---------------------------------------------------------

def test_importing_builds_no_parser():
    import subprocess
    import sys

    import xop

    code = ("import xop, xop.cli; "
            "assert xop.cli.build_parser.cache_info().currsize == 0; "
            "xop.cli.main(['gram', '--family', '{\"kind\": \"ClassicalLaguerre\", "
            "\"params\": {\"k\": 0.5}}', '--n-max', '2']); "
            "print(xop.cli.build_parser.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xop.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "1"


def test_later_calls_build_no_parser(monkeypatch, capsys):
    import argparse

    main(["eval-poly", "--family", LAG_CLASSICAL, "--n", "1", "--points", "0"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["gram", "--family", LAG_CLASSICAL, "--n-max", "2"]) == 0
    assert main(["eval-poly", "--family", LAG_X1, "--n", "2", "--points", "1"]) == 0
    assert main(["plot-data", "--system", DIRAC, "--range", "0.1", "3", "--count", "3",
                 "--levels", "1"]) == 0
    capsys.readouterr()
    assert built == []


def test_shared_parser_matches_a_fresh_one(tmp_path):
    """The same calls give the same exit codes, stdout, stderr and files
    whether they share one parser or each builds its own; an argument of one
    call (--levels 3) never leaks into the next (verify falls back to the
    config's levels)."""
    import contextlib
    import io

    from xop.cli import build_parser

    calls = [
        ["spectrum", "--system", DIRAC, "--levels", "3", "--grid-points", "600"],
        ["verify", "--config", str(write_config(tmp_path, grid={"points": 600}))],
        ["spectrum", "--system", DIRAC, "--no-such-flag"],
        ["spectrum", "--system", DIRAC],
    ]

    def run_all(fresh: bool) -> list:
        results = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            report = tmp_path / "reports" / "report_0_DiracOscillator.json"
            files = report.read_bytes() if argv[0] == "verify" else b""
            results.append((code, out.getvalue(), err.getvalue(), files))
        return results

    shared = run_all(fresh=False)
    parser = build_parser()
    assert run_all(fresh=True) == shared
    assert build_parser() is not parser
    codes = [code for code, *_ in shared]
    assert codes == [0, 0, 2, 0]
    assert shared[0][1].count("\n") == 4 and shared[3][1].count("\n") == 5
    assert json.loads(shared[1][3])["level_count"] == 2
    assert shared[2][2].startswith("usage: xop ")
    assert "unrecognized arguments: --no-such-flag" in shared[2][2]


BAD_CONFIGS = [
    {"levels": "x"}, {"levels": 2.7}, {"levels": None}, {"levels": True},
    {"levels": float("nan")},
    {"grid": {"points": "x"}}, {"grid": {"points": 100.5}}, {"grid": "x"},
    {"grid": {"points": 64, "domain_overrides": {"DiracOscillator": "ab"}}},
    {"grid": {"points": 64, "domain_overrides": {"DiracOscillator": [0, "x"]}}},
    {"grid": {"points": 64, "domain_overrides": {"DiracOscillator": [0, float("inf")]}}},
    {"grid": {"points": 64, "domain_overrides": {"HartmanRadial": [0, 5]}}},
    {"grid": {"points": 64, "domain_overrides": [0, 5]}},
    {"systems": 5}, {"output": {"path": 5}},
    {"tolerances": {"residual": True}}, {"tolerances": {"spectral_radial": float("inf")}},
]


@pytest.mark.parametrize("overrides", BAD_CONFIGS, ids=json.dumps)
def test_bad_verify_configs_exit_2(overrides, tmp_path, capsys):
    config = {"systems": [json.loads(DIRAC)], "levels": 1, "grid": {"points": 64},
              "output": {"path": str(tmp_path / "reports")}, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run(["verify", "--config", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert not (tmp_path / "reports").exists()


def test_verify_non_finite_residual_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    """Every accepted system whose closed forms pass the float range is
    refused earlier, at its Gram mass, so the residual's own refusal is
    reached through a record whose prefactor is forced to NaN (its start
    columns are NaN too, and the grid falls back to bisection)."""
    import xop.verify

    reduce = xop.verify.reduce_system
    monkeypatch.setattr(xop.verify, "reduce_system", lambda params: dataclasses.replace(
        reduce(params), prefactor=(math.nan, ())))
    system = {"kind": "HartmannRadial", "params": {"l": 0, "omega": 1.0}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"systems": [system], "levels": 2, "grid": {"points": 300},
                                "output": {"path": str(tmp_path / "reports")}}))
    code, out, err = run(["verify", "--config", str(path)], capsys)
    assert code == 1 and out == ""
    assert err == ("error: system 0 (HartmannRadial): closed-form residual of the "
                   "degree-1 X1 wavefunction is not finite (nan)\n")


def test_verify_reports_the_systems_after_one_that_raises(tmp_path, capsys):
    """A system whose Gram mass overflows gets one error line naming its
    index and kind; the system after it is still verified, reported and
    printed, and the exit code says that one failed."""
    path = write_config(tmp_path, levels=4, grid={"points": 2000}, systems=[
        {"kind": "HartmannAngularII", "params": {"lambda_a": 2.0, "s": 1e4}},
        {"kind": "HartmannRadial", "params": {"l": 0, "omega": 1.0}}])
    code, out, err = run(["verify", "--config", str(path)], capsys)
    assert code == 1
    assert err.startswith("error: system 0 (HartmannAngularII): ") and err.count("\n") == 1
    assert os.listdir(tmp_path / "reports") == ["report_1_HartmannRadial.json"]
    assert out.startswith("PASS HartmannRadial ") and out.count("\n") == 1
    report = json.loads((tmp_path / "reports" / "report_1_HartmannRadial.json").read_text())
    assert report["passed"] is True


def test_verify_usage_error_exits_2_before_any_system(tmp_path, capsys):
    """A level count out of range is a usage error: exit 2, and no system
    is verified, the one that raises included."""
    path = write_config(tmp_path, systems=[
        {"kind": "HartmannAngularII", "params": {"lambda_a": 2.0, "s": 1e4}},
        json.loads(DIRAC)])
    code, out, err = run(["verify", "--config", str(path), "--levels", "9"], capsys)
    assert code == 2 and out == ""
    assert err == "error: levels must lie in 1..8, got 9\n"
    assert not (tmp_path / "reports").exists()


OUT_OF_DOMAIN_OVERRIDES = [
    ({"kind": "HydrogenLike", "params": {"s": 0.9, "lambda_c": 1.9}}, [-1, 80]),
    ({"kind": "HartmannAngularI", "params": {"lambda_a": 1.0, "s": 2.5}}, [-0.5, 3.0]),
    ({"kind": "HartmannRadial", "params": {"l": 0, "omega": 1.0}}, [-5, 20]),
]


@pytest.mark.parametrize("system, bounds", OUT_OF_DOMAIN_OVERRIDES,
                         ids=lambda v: v["kind"] if isinstance(v, dict) else json.dumps(v))
def test_override_outside_the_domain_exits_2(system, bounds, tmp_path, capsys):
    """A grid domain reaching past the system's domain is refused when the
    config loads, before any potential is sampled: exit 2 naming the domain,
    no warning, and no report, not even of the system listed before it."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "systems": [json.loads(DIRAC), system], "levels": 2,
        "grid": {"points": 300, "domain_overrides": {system["kind"]: bounds}},
        "output": {"path": str(tmp_path / "reports")}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["verify", "--config", str(path)], capsys)
    assert code == 2 and out == ""
    assert "outside its domain" in err
    assert not (tmp_path / "reports").exists()


def test_unknown_override_kind_names_the_known_kinds(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"systems": [json.loads(DIRAC)],
                                "grid": {"domain_overrides": {"HartmanRadial": [0, 5]}}}))
    code, _, err = run(["verify", "--config", str(path)], capsys)
    assert code == 2
    assert "HartmanRadial" in err
    assert all(kind in err for kind in SYSTEM_PARAMS)


# --- a seeded sweep of every family and system kind at extreme finite values -------

EXTREMES = (0.0, 1.0, -1.0, 0.5, 1e-300, 5e-324, 1e-17, 1 + 1e-10, 1e154, 1e155, 1e300, 1e8,
            2.0**53, 64.0)
# a JSON parameter may also be an integer, and Python ints do not overflow
INTEGRAL = sorted({int(v) for v in EXTREMES if v.is_integer()})


@st.composite
def command_lines(draw):
    """argv of eval-poly, gram, spectrum (<= 500 points, <= 4 levels) or
    plot-data, every point and range end drawn from EXTREMES, and every
    parameter from EXTREMES or their integers."""
    value = st.sampled_from(EXTREMES)
    parameter = value | st.sampled_from(INTEGRAL)
    command = draw(st.sampled_from(("eval-poly", "gram", "spectrum", "plot-data")))
    table, flag = ((FAMILY_PARAMS, "--family") if command in FAMILY_SUBCOMMANDS
                   else (SYSTEM_PARAMS, "--system"))
    kind = draw(st.sampled_from(sorted(table)))
    spec = json.dumps({"kind": kind, "params": {key: draw(parameter) for key in table[kind]}})
    argv = [command, flag, spec]
    if command == "eval-poly":
        points = draw(st.lists(value, min_size=1, max_size=3))
        argv += ["--n", str(draw(st.integers(0, 32))), "--points=" + ",".join(map(repr, points))]
    elif command == "gram":
        argv += ["--n-max", str(draw(st.integers(1, 16)))]
    elif command == "spectrum":
        argv += ["--levels", str(draw(st.integers(1, 4))),
                 "--grid-points", str(draw(st.integers(64, 500)))]
    else:
        argv += ["--range", repr(draw(value)), repr(draw(value)),
                 "--count", str(draw(st.integers(1, 5))), "--levels", str(draw(st.integers(0, 4))),
                 "--variant", draw(st.sampled_from(("original", "exceptional")))]
    return argv


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(command_lines())
def test_extreme_values_end_in_an_exit_code(argv):
    """Every call returns 0, 1 or 2: no exception escapes and no warning is
    raised, overflow and underflow included."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)

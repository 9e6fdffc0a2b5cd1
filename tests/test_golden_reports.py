"""`xop verify` on the bundled config (4 levels, 2000 points) against the
reports committed in tests/data/golden_reports.

A change that moves any number in them says so, and regenerates them with

    PYTHONPATH=src python -m xop verify --out tests/data/golden_reports
"""

import json
import math
import os
import pathlib

from xop.cli import main
from xop.io_utils import format_json

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_reports"

# differences of O(1-40) eigenvalues: their bits are rounding of the levels
EIGENVALUE_DIFFERENCES = ("spectral_diffs", "analytic_errors_original", "analytic_errors_extended")
# rounding-level ratios, ~1e-15 against tolerances of 1e-8 and 1e-7
ROUNDING_FLOOR = 1e-13
ROUNDING_FIELDS = ("max_wavefunction_residual", "gram_max_offdiag")


def assert_matches(ours, golden, where, abs_tol=0.0):
    """Same keys, lists of the same length, same booleans, strings and
    integers, and floats within 1e-12 relative or `abs_tol`."""
    assert type(ours) is type(golden), where
    if isinstance(golden, dict):
        assert ours.keys() == golden.keys(), where
        for key in golden:
            assert_matches(ours[key], golden[key], f"{where}.{key}", abs_tol)
    elif isinstance(golden, list):
        assert len(ours) == len(golden), where
        for index, (a, b) in enumerate(zip(ours, golden)):
            assert_matches(a, b, f"{where}[{index}]", abs_tol)
    elif isinstance(golden, float):
        assert math.isclose(ours, golden, rel_tol=1e-12, abs_tol=abs_tol), (where, ours, golden)
    else:
        assert ours == golden, where


def assert_report_matches(ours, golden, name):
    """Eigenvalues and everything else within 1e-12 relative; differences of
    eigenvalues within 1e-12 of the largest one; the residual and the Gram
    ratio within an absolute floor of rounding."""
    assert ours.keys() == golden.keys(), name
    scale = max(abs(v) for v in golden["eigenvalues_original"] + golden["eigenvalues_extended"])
    for key in golden:
        abs_tol = (1e-12 * scale if key in EIGENVALUE_DIFFERENCES
                   else ROUNDING_FLOOR if key in ROUNDING_FIELDS else 0.0)
        assert_matches(ours[key], golden[key], f"{name}.{key}", abs_tol)


def test_bundled_reports_match_the_golden_reports(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path)]) == 0
    names = sorted(os.listdir(GOLDEN))
    assert sorted(os.listdir(tmp_path)) == names and len(names) == 4
    for name in names:
        golden = json.loads((GOLDEN / name).read_text())
        ours = json.loads((tmp_path / name).read_text())
        assert_report_matches(ours, golden, name)
        assert ours["passed"] is golden["passed"] is True


def test_golden_reports_are_in_the_writers_form():
    """Each committed report is byte for byte what `format_json` writes of
    its own values: a stale or hand-edited report fails here."""
    names = sorted(os.listdir(GOLDEN))
    assert len(names) == 4
    for name in names:
        text = (GOLDEN / name).read_text()
        assert text == format_json(json.loads(text)) + "\n", name


def test_bundled_report_keeps_integral_parameters_as_floats(tmp_path, capsys):
    """omega = 1.0 of the bundled HartmannRadial system parses back as the
    float 1.0, and its integer l as the int 0."""
    assert main(["verify", "--out", str(tmp_path), "--levels", "1", "--grid-points", "200"]) == 0
    report = json.loads((tmp_path / "report_0_HartmannRadial.json").read_text())
    params = report["system"]["params"]
    assert type(params["omega"]) is float and params["omega"] == 1.0
    assert type(params["l"]) is int and params["l"] == 0

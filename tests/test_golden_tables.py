"""`xop eval-poly` and `xop gram` tables, one family of each kind, against
the tables committed in tests/data/golden_tables.

A change that moves any number in them says so, and regenerates them with

    PYTHONPATH=src python tests/test_golden_tables.py
"""

import json
import pathlib

import numpy as np
import pytest

from xop.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_tables"


def _family(kind, **params):
    return json.dumps({"kind": kind, "params": params})


# name -> argv without the output flags; eval-poly cases also write --coeffs-out
CASES = {
    "eval_classical_laguerre": ["eval-poly", "--family", _family("ClassicalLaguerre", k=0.5),
                                "--n", "7", "--range", "0", "20", "--count", "41"],
    "eval_classical_jacobi": ["eval-poly", "--family",
                              _family("ClassicalJacobi", alpha=1999.5, beta=2000.5),
                              "--n", "6", "--range", "-1", "1", "--count", "41"],
    # the README's example
    "eval_x1_laguerre": ["eval-poly", "--family", _family("X1Laguerre", k=0.5),
                         "--n", "3", "--range", "0", "20", "--count", "100"],
    "eval_x1_jacobi": ["eval-poly", "--family", _family("X1Jacobi", a=2.0, b=1.25),
                       "--n", "5", "--range", "-1", "1", "--count", "41"],
    "gram_classical_laguerre": ["gram", "--family", _family("ClassicalLaguerre", k=0.5),
                                "--n-max", "16"],
    "gram_classical_jacobi": ["gram", "--family", _family("ClassicalJacobi", alpha=0.5, beta=1.5),
                              "--n-max", "16"],
    "gram_x1_laguerre": ["gram", "--family", _family("X1Laguerre", k=0.5), "--n-max", "16"],
    "gram_x1_jacobi": ["gram", "--family", _family("X1Jacobi", a=2.0, b=1.25), "--n-max", "16"],
    # hidden classical exponents (-2.6, -6.6): tabulated, though its Gram is refused
    "eval_x1_jacobi_exponents_below_minus_one": [
        "eval-poly", "--family", _family("X1Jacobi", a=-2.0, b=2.3),
        "--n", "5", "--range", "-1", "1", "--count", "41"],
    # ab < 0: both hidden exponents in (-1, 0)
    "gram_x1_jacobi_negative_ab": ["gram", "--family", _family("X1Jacobi", a=0.125, b=-3.0),
                                   "--n-max", "16"],
    # the pole 1e-5 from +1: the long-double continued-fraction sweep
    "gram_x1_jacobi_pole_near_one": ["gram", "--family", _family("X1Jacobi", a=1.0, b=1.00001),
                                     "--n-max", "16"],
}


def write_case(name: str, directory: pathlib.Path) -> list[str]:
    """Run one case with its outputs in `directory`; the names written."""
    files = [f"{name}.csv"] + ([f"{name}.coeffs.json"] if name.startswith("eval") else [])
    flags = ["--out", str(directory / files[0])]
    if len(files) > 1:
        flags += ["--coeffs-out", str(directory / files[1])]
    assert main(CASES[name] + flags) == 0, name
    return files


def columns(path: pathlib.Path):
    """(header, columns of numbers) of a CSV table or a coefficient array."""
    text = path.read_text()
    if path.suffix == ".json":
        return None, [np.array(json.loads(text), dtype=float)]
    header, *rows = text.splitlines()
    return header, list(np.loadtxt(rows, delimiter=",", ndmin=2).T)


@pytest.mark.parametrize("name", sorted(CASES))
def test_table_matches_the_golden_table(name, tmp_path):
    """Same header and shape; each column within 1e-12 of its largest
    magnitude."""
    for file in write_case(name, tmp_path):
        header, ours = columns(tmp_path / file)
        golden_header, golden = columns(GOLDEN / file)
        assert header == golden_header, file
        assert [c.shape for c in ours] == [c.shape for c in golden], file
        for index, (a, b) in enumerate(zip(ours, golden)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (file, index)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        write_case(case, GOLDEN)

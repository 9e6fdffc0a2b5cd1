"""CSV tables: the columnar csv_lines against a per-value reference formatter;
JSON values that parse back with their types and bits; atomic file
replacement."""

import json
import math
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xop.errors import UsageError
from xop.io_utils import csv_lines, format_json, write_atomic


# --- reference: one value at a time -----------------------------------------------

def reference_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return format(value, ".12g")


def reference_csv(header, columns) -> str:
    rows = zip(*(column.tolist() for column in columns))
    lines = [",".join(header)] + [",".join(reference_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# --- property: any mix of integer and float columns ---------------------------------

EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0,
    5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,  # subnormals, smallest normal
    1e308, -1e308, 1.7976931348623157e308,
    1 / 3, 0.1, 123456789012.5, 1e16, 1e-5, 1e-4,  # rounding and %g exponent switches
]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
INTS = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def tables(draw):
    rows = draw(st.integers(min_value=0, max_value=12))
    kinds = draw(st.lists(st.sampled_from(("int", "float")), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        if kind == "int":
            values = draw(st.lists(INTS, min_size=rows, max_size=rows))
            columns.append(np.array(values, dtype=np.int64))
        else:
            values = draw(st.lists(FLOATS, min_size=rows, max_size=rows))
            columns.append(np.array(values, dtype=np.float64))
    return [f"{kind}_{i}" for i, kind in enumerate(kinds)], columns


@settings(max_examples=200, deadline=None)
@given(tables())
def test_csv_lines_matches_per_value_reference(table):
    header, columns = table
    assert csv_lines(header, columns) == reference_csv(header, columns)


# --- exact bytes ------------------------------------------------------------------

def test_mixed_table_exact_bytes():
    text = csv_lines(
        ["i", "x", "y"],
        [np.array([0, 1, -2, 7]),
         np.array([0.1, -0.0, np.nan, 1 / 3]),
         np.array([1e308, np.inf, -np.inf, 5e-324])],
    )
    assert text == (
        "i,x,y\n"
        "0,0.1,1e+308\n"
        "1,-0,Infinity\n"
        "-2,NaN,-Infinity\n"
        "7,0.333333333333,4.94065645841e-324\n"
    )


def test_no_rows_writes_the_header_only():
    assert csv_lines(["x", "n"], [np.array([]), np.array([], dtype=int)]) == "x,n\n"


@pytest.mark.parametrize("header, columns, error", [
    (["x"], [np.zeros(2), np.zeros(2)], ValueError),  # header and columns differ
    (["x", "y"], [np.zeros(2), np.zeros(3)], ValueError),  # ragged
    (["x"], [np.zeros((2, 2))], ValueError),  # not 1-D
    (["flag"], [np.array([True, False])], TypeError),  # neither integer nor float
])
def test_malformed_columns_raise(header, columns, error):
    with pytest.raises(error):
        csv_lines(header, columns)


# --- atomic writes ------------------------------------------------------------------

# --- JSON ---------------------------------------------------------------------------

def assert_same_value(got, want, where="value"):
    """Same type, and for floats the same bits (NaN by isnan)."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_same_value(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for index, (a, b) in enumerate(zip(got, want)):
            assert_same_value(a, b, f"{where}[{index}]")
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got), where
    elif isinstance(want, float):
        assert struct.pack("<d", got) == struct.pack("<d", want), (where, got, want)
    else:
        assert got == want, where


def test_format_json_gives_back_floats_as_floats_bit_for_bit():
    """Integral floats (1.0, 1e16, -0.0) stay floats; the shortest
    round-trip spellings parse to the same bits; ints and bools keep their
    types; the key order is the insertion order."""
    data = {
        "floats": [0.0, -0.0, 1.0, 1e16, 0.1, 5e-324, math.inf, -math.inf, 1 / 3, 1e-7],
        "nan": math.nan,
        "ints": [0, -3, 2**64],
        "bools": [True, False],
        "nested": {"z": 1.0, "a": {"empty": {}, "none": []}, "text": "DiracOscillator"},
    }
    text = format_json(data)
    assert_same_value(json.loads(text), data)
    assert '"z": 1.0' in text and "-0.0" in text and "1e-07" in text
    assert "NaN" in text and "Infinity" in text and "-Infinity" in text


def test_write_atomic_never_touches_the_umask(tmp_path, monkeypatch):
    def umask(mask):
        raise AssertionError("write_atomic changed the process umask")

    monkeypatch.setattr(os, "umask", umask)
    path = tmp_path / "sub" / "out.txt"
    write_atomic(str(path), "first\n")
    write_atomic(str(path), "second\n")
    assert path.read_text() == "second\n"
    assert os.listdir(tmp_path / "sub") == ["out.txt"]


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # a directory cannot be replaced by a file
    with pytest.raises(UsageError, match="cannot write"):
        write_atomic(str(target), "text\n")
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []

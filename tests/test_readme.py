"""The README's examples: its Python block runs as printed, and its report
JSON shape has the keys that `VerificationReport.to_dict()` writes."""

import json
import re
from pathlib import Path

import pytest

from xop import max_offdiag_ratio

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(language):
    (block,) = re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)
    return block


@pytest.fixture(scope="module")
def library_example():
    """The namespace the README's Python block leaves."""
    namespace = {}
    exec(compile(fenced_block("python"), "README.md", "exec"), namespace)
    return namespace


def test_python_block_runs(library_example):
    assert max_offdiag_ratio(library_example["g"]) < 1e-13
    assert library_example["report"].passed


def test_report_json_shape_has_the_report_keys(library_example):
    # the shape elides values as "...", [...] and {...}
    shape = json.loads(fenced_block("json").replace("[...]", "[]").replace("{...}", "{}"))
    written = library_example["report"].to_dict()
    assert shape.keys() == written.keys()
    for key in ("system", "tolerances"):
        assert shape[key].keys() == written[key].keys()

"""The README's examples: its Python block runs as printed, its report
JSON shape has the keys that `VerificationReport.to_dict()` writes, and
every `xop` command in its shell blocks parses."""

import json
import re
import shlex
from pathlib import Path

import pytest

from xop import max_offdiag_ratio
from xop.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(language, text=README):
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def fenced_block(language):
    (block,) = fenced_blocks(language)
    return block


def xop_commands(text=README):
    """The arguments of each `xop ...` command in the `sh` blocks of
    `text`: continuation lines joined, comments dropped."""
    commands = []
    for block in fenced_blocks("sh", text):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["xop"]:
                commands.append(words[1:])
    return commands


def unparsed(commands):
    """The commands that `xop`'s parser refuses."""
    parser = build_parser()
    refused = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            refused.append(argv)
    return refused


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


def test_shell_commands_parse():
    commands = xop_commands()
    assert commands
    assert unparsed(commands) == []

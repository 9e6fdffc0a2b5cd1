"""Deterministic output formatting: JSON through the standard encoder
(shortest round-trip floats, Python's repr), 12 significant digits in CSV
(readable), atomic file replacement; and the one parser of the
{"kind": ..., "params": {...}} records of family and system JSON.

CSV tables are built from numeric columns: integer columns print as decimal
integers, float columns with 12 significant digits (`%.12g`, the same digits
as `format(v, ".12g")`), and non-finite values as NaN, Infinity and -Infinity
in both formats."""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from .errors import UsageError

__all__ = ["format_json", "csv_lines", "write_atomic"]

_CSV_FLOAT = "%.12g"


def _column_format(column: np.ndarray) -> str:
    if column.dtype.kind in "iu":
        return "%d"
    if column.dtype.kind == "f":
        return _CSV_FLOAT
    raise TypeError(f"CSV columns must be integer or float, got dtype {column.dtype}")


def csv_lines(header: list[str], columns) -> str:
    """CSV text of `header` over equal-length 1-D integer or float `columns`.

    The whole body is formatted by one `%` over the row-major values; float
    columns use 12 significant digits and spell non-finite values NaN,
    Infinity and -Infinity."""
    columns = [np.asarray(column) for column in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    rows = columns[0].size if columns else 0
    if any(column.ndim != 1 or column.size != rows for column in columns):
        raise ValueError("CSV columns must be 1-D and of equal length")
    head = ",".join(header) + "\n"
    if rows == 0:
        return head
    row_format = ",".join(_column_format(column) for column in columns)
    values = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in columns))))
    body = "\n".join([row_format] * rows) % values
    if not all(np.isfinite(c).all() for c in columns if c.dtype.kind == "f"):
        # %g writes nan, inf and -inf; no finite number contains those letters
        body = body.replace("nan", "NaN").replace("inf", "Infinity")
    return head + body + "\n"


def format_json(obj) -> str:
    """`obj` as JSON: two-space indent, keys in insertion order, floats in
    their shortest round-trip form (integral ones keep their `.0`), and
    non-finite floats as NaN, Infinity and -Infinity."""
    return json.dumps(obj, indent=2)


def _finite_number(value) -> bool:
    """True for an int or float (not a bool) with a finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _record_from_dict(data: dict, kinds: dict, what: str):
    """`kinds[data["kind"]](**data["params"])`, `params` (default {}) an
    object of finite numbers; anything else raises UsageError naming `what`."""
    try:
        kind = data["kind"]
        cls = kinds[kind]
        params = data.get("params", {})
    except (KeyError, TypeError) as exc:
        raise UsageError(f"invalid {what} spec: {data!r}") from exc
    if not isinstance(params, dict):
        raise UsageError(f"parameters of {kind} must be a JSON object, got {params!r}")
    for key, value in params.items():
        if not _finite_number(value):
            raise UsageError(
                f"parameter {key!r} of {kind} must be a finite number, got {value!r}"
            )
    try:
        return cls(**params)
    except TypeError as exc:
        raise UsageError(f"invalid parameters for {kind}: {params!r}") from exc


def _record_from_json(text: str, kinds: dict, what: str):
    """`_record_from_dict` of the JSON document `text`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} spec is not valid JSON: {exc}") from exc
    return _record_from_dict(data, kinds, what)


def write_atomic(path: str, text: str) -> None:
    """Replace `path` with `text` in one step; the file gets the mode a plain
    open() would give it (0o666 less the umask, which the kernel applies and
    the process never changes).  A path that cannot be written raises
    UsageError naming it and the reason."""
    try:
        _replace(path, text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _replace(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # a fresh name, and O_EXCL never opens an existing file; the kernel
    # applies the umask to the 0o666 mode
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

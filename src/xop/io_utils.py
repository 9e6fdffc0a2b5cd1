"""Deterministic output formatting: 17 significant digits in JSON (round-trip
safe), 12 in CSV (readable), atomic file replacement.

CSV tables are built from numeric columns: integer columns print as decimal
integers, float columns with 12 significant digits (`%.12g`, the same digits
as `format(v, ".12g")`), and non-finite values as NaN, Infinity and -Infinity
in both formats."""

from __future__ import annotations

import itertools
import os
import tempfile

import numpy as np

from .errors import UsageError

__all__ = ["format_json", "csv_lines", "write_atomic"]

_JSON_DIGITS = 17
_CSV_FLOAT = "%.12g"


def _fmt_float(value: float, digits: int) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "Infinity" if value > 0 else "-Infinity"
    text = f"{value:.{digits}g}"
    return text


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


def format_json(obj, indent: int = 0) -> str:
    """Recursive JSON writer with fixed key order (insertion) and 17-digit floats."""
    pad = "  " * indent
    child = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{child}"{key}": {format_json(val, indent + 1)}' for key, val in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{child}{format_json(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj, _JSON_DIGITS)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _umask() -> int:
    # the umask can only be read by setting it; the placeholder 0o077 keeps
    # any file created meanwhile private rather than world-writable
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def write_atomic(path: str, text: str) -> None:
    """Replace `path` with `text` in one step; the file gets the mode a plain
    open() would give it (0o666 less the umask), not mkstemp's 0o600.  A
    path that cannot be written raises UsageError naming it and the reason."""
    try:
        _replace(path, text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _replace(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

"""Deterministic output formatting: 17 significant digits in JSON (round-trip
safe), 12 in CSV (readable), atomic file replacement."""

from __future__ import annotations

import os
import tempfile

__all__ = ["format_json", "format_csv_value", "csv_lines", "write_atomic"]

_JSON_DIGITS = 17
_CSV_DIGITS = 12


def _fmt_float(value: float, digits: int) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "Infinity" if value > 0 else "-Infinity"
    text = f"{value:.{digits}g}"
    return text


def format_csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value, _CSV_DIGITS)
    return str(value)


def csv_lines(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_csv_value(v) for v in row))
    return "\n".join(lines) + "\n"


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
    open() would give it (0o666 less the umask), not mkstemp's 0o600."""
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

"""Deterministic CSV serialization.

Floats are printed with %.17g so a double-precision value survives a
round-trip through the file exactly; None becomes an empty field and booleans
the lowercase words.  Rows are joined with plain newlines regardless of
platform so identical runs produce byte-identical files.
"""
from __future__ import annotations

import os


def format_cell(value) -> str:
    # floats are nearly every cell; bool is an int subclass, not a float one
    if isinstance(value, float):
        return "%.17g" % value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    raise TypeError(f"cannot format {type(value).__name__} as a CSV cell")


def render_csv(header: list[str], rows: list[tuple]) -> str:
    all_floats = ",".join(["%.17g"] * len(header))  # what format_cell gives floats
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"row width {len(row)} does not match header width {len(header)}"
            )
        if all(isinstance(cell, float) for cell in row):
            lines.append(all_floats % tuple(row))
        else:
            lines.append(",".join(format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    text = render_csv(header, rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def sibling_path(path: str, suffix: str) -> str:
    """foo/bar.csv -> foo/bar-<suffix>.csv (used for secondary outputs)."""
    stem, ext = os.path.splitext(path)
    return f"{stem}-{suffix}{ext or '.csv'}"

"""Deterministic CSV serialization.

Floats are printed with %.17g so a double-precision value survives a
round-trip through the file exactly; None becomes an empty field and booleans
the lowercase words.  Rows are joined with plain newlines regardless of
platform so identical runs produce byte-identical files.  A table of floats
may come as a 2-D float64 array of finite values instead: one % pass renders
it, with the bytes format_cell gives each cell.
"""
from __future__ import annotations

import os

import numpy as np

from .errors import ValidationError


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


def render_csv(header: list[str], rows: list[tuple] | np.ndarray) -> str:
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray):
        if rows.dtype != np.float64 or rows.ndim != 2 or rows.shape[1] != len(header):
            raise ValueError(f"a {rows.dtype} array of shape {rows.shape} is not a"
                             f" float64 table of width {len(header)}")
        finite = np.isfinite(rows).all(axis=0)
        if not finite.all():  # a NaN or inf cell is a fault upstream, not a value
            raise ValidationError(f"column {header[finite.argmin()]!r} holds a non-finite value")
        template = ",".join(["%.17g"] * len(header)) + "\n"  # what format_cell gives floats
        return lines[0] + "\n" + template * len(rows) % tuple(rows.ravel().tolist())
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"row width {len(row)} does not match header width {len(header)}"
            )
        lines.append(",".join(map(format_cell, row)))
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: list[str], rows: list[tuple] | np.ndarray) -> None:
    text = render_csv(header, rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def sibling_path(path: str, suffix: str) -> str:
    """foo/bar.csv -> foo/bar-<suffix>.csv (used for secondary outputs)."""
    stem, ext = os.path.splitext(path)
    return f"{stem}-{suffix}{ext or '.csv'}"

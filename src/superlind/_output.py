"""Number formatting and the table writer shared by every text output.

All files the package writes are `# ` comment lines, a header row and data
rows; every number is written with 12 significant digits so that reruns are
byte-identical and the files stay diff-friendly.
"""
from __future__ import annotations

import sys


def fmt(x) -> str:
    """12-significant-digit number, or `true`/`false` for a bool."""
    if isinstance(x, bool):
        return str(x).lower()
    return format(float(x), ".12g")


def write_table(path, comments, columns, rows) -> None:
    """Write comment lines, a header row and rows of numbers to `path`.

    Each row is a sequence of one number per column, formatted by one
    `%.12g` template per row (the digits `fmt` writes); `path=None` writes
    to standard output.
    """
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    template = ",".join(["%.12g"] * len(columns))
    lines += [template % tuple(row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

"""Number formatting and the table writer shared by every text output.

All files the package writes are `# ` comment lines, a header row and data
rows; every number is one `%.12g` (12 significant digits), formatted a block
of `BLOCK_ROWS` rows per `%` call, so reruns are byte-identical.
"""
from __future__ import annotations

import contextlib
import sys

import numpy as np

BLOCK_ROWS = 4096


def fmt(x) -> str:
    """12-significant-digit number, or `true`/`false` for a bool."""
    if isinstance(x, bool):
        return str(x).lower()
    return format(float(x), ".12g")


def write_blocks(path, comments, columns, blocks) -> None:
    """The one place a table is written: `# ` comment lines, the header row,
    then each formatted text block, to `path` or (`path=None`) standard output."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8")) as fh:
        fh.write("".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n")
        fh.writelines(blocks)


def write_table(path, comments, columns, rows) -> None:
    """Write comment lines, a header row and rows of numbers to `path` (None: stdout).

    `rows` (an ndarray, or an iterable of one float, bool or 64-bit int per
    column) becomes one float array before `path` is opened, so a bad row
    raises first; each block of rows is one `%` call on the `%.12g` template.
    """
    table = rows if isinstance(rows, np.ndarray) else np.asarray(list(rows))
    if table.dtype.kind not in "biuf":
        raise TypeError(f"table rows must hold real numbers, got dtype {table.dtype}")
    width = len(columns)
    if table.shape != (0,) and (table.ndim != 2 or table.shape[1] != width):
        raise ValueError(f"table rows must have {width} numbers each, got shape {table.shape}")
    table = np.asarray(table, dtype=float).reshape(-1, width)
    line = ",".join(["%.12g"] * width) + "\n"
    blocks = ((line * len(b)) % tuple(b.ravel().tolist())
              for b in np.split(table, range(BLOCK_ROWS, len(table), BLOCK_ROWS)))
    write_blocks(path, comments, columns, blocks)

"""The package's one CSV writer: cell format and row layout of every table.

Numbers are written as ``%.12g``, text and integer cells as they are, and
:data:`BLANK` as an empty cell of a numeric column.  Rows are formatted and
written in blocks of :data:`BLOCK_ROWS`, so a long trace costs one ``%``
format of the whole block and one write per block, and its transient
memory stays small.
"""

from __future__ import annotations

import numpy as np

BLOCK_ROWS = 4096


class _Blank:
    def __format__(self, spec: str) -> str:
        return ""


BLANK = _Blank()


def _write_rows(handle, columns) -> None:
    # %.12g cannot format BLANK, so an object column is formatted up front
    columns = [np.array([format(cell, ".12g") for cell in column.tolist()])
               if column.dtype.kind == "O" else column
               for column in map(np.asarray, columns)]
    ncol = len(columns)
    row_fmt = ",".join("%s" if column.dtype.kind in "iuU" else "%.12g"
                       for column in columns) + "\n"
    for k in range(0, len(columns[0]), BLOCK_ROWS):
        rows = min(BLOCK_ROWS, len(columns[0]) - k)
        cells = [None] * (rows * ncol)
        for c, column in enumerate(columns):
            cells[c::ncol] = column[k:k + BLOCK_ROWS].tolist()
        handle.write((row_fmt * rows) % tuple(cells))


def write_table(path, header: str, *groups, preamble=()) -> None:
    """Write each group of equal-length columns as rows under ``header``.

    The groups' rows follow one another; ``preamble`` holds (label, number)
    rows written before the header.
    """
    with open(path, "w", encoding="utf-8") as handle:
        if preamble:
            _write_rows(handle, zip(*preamble))
        handle.write(header + "\n")
        for columns in groups:
            _write_rows(handle, columns)

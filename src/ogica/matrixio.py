"""Bit-exact CSV serialization for real matrices.

Format: one row per channel, cells separated by commas, ``.`` as the
decimal point, no header, LF line endings.  Values are written with 17
significant digits, which is enough for every IEEE-754 double to survive a
write/read round trip unchanged.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from .exceptions import MatrixParseError

# Bytes that ``numpy.loadtxt`` strips from a cell as whitespace and
# ``float`` does not.
_LOADTXT_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _lines(values):
    """The lines of a non-empty 2-D array in the CSV matrix format (which
    has no empty matrix), each ending in LF, made one row at a time."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or not arr.size:
        raise ValueError(f"need a non-empty 2-D array, got shape {arr.shape}")
    # One template per row, applied to Python floats converted row by row
    # (a whole-matrix tolist() would hold every value as an object).
    template = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    return (template % tuple(row.tolist()) for row in arr)


def format_matrix(values) -> str:
    """Render a 2-D array in the CSV matrix format (trailing newline)."""
    return "".join(_lines(values))


def write_matrix(path: str | os.PathLike, values) -> None:
    """Write a matrix to ``path`` in the CSV matrix format, streaming it
    row by row."""
    lines = _lines(values)  # checks the shape before the file is opened
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.writelines(lines)


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    """Read a CSV matrix written by :func:`write_matrix`.

    Raises :class:`MatrixParseError` naming the 1-based row (and column
    where applicable) on ragged rows, non-numeric cells, blank lines or
    an empty file.  A byte outside ASCII is reported as a non-numeric
    cell.

    ``numpy.loadtxt`` reads the file; its result stands when it parses
    every line into a row and the file holds none of the bytes it reads
    as whitespace and ``float`` does not.  Otherwise (an error, blank
    lines, which it skips, or such a byte) :func:`_parse` reads the file
    again and decides.
    """
    try:
        with warnings.catch_warnings():
            # A file with no data warns; the parser refuses it below.
            warnings.simplefilter("ignore", UserWarning)
            out = np.loadtxt(path, delimiter=",", ndmin=2, comments=None,
                             encoding="ascii")
    except ValueError:  # UnicodeDecodeError included
        out = None
    if out is None or not out.size or len(out) != _plain_lines(path):
        out = _parse(path)
    return out


def _plain_lines(path: str | os.PathLike) -> int | None:
    """The number of lines :func:`_parse` sees in the file, each ended by
    LF, CR or CRLF except perhaps the last; ``None`` if the file holds a
    byte that only ``numpy.loadtxt`` reads as whitespace."""
    count, last = 0, b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            if any(byte in chunk for byte in _LOADTXT_SPACE):
                return None
            count += chunk.count(b"\n")
            if b"\r" in chunk:
                count += chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk.startswith(b"\n"):
                count -= 1  # a CRLF split between two chunks
            last = chunk[-1:]
    return count + (last not in (b"", b"\n", b"\r"))


def _parse(path: str | os.PathLike) -> np.ndarray:
    """The hand parser behind :func:`read_matrix`: every line a row of
    ``float`` cells, or :class:`MatrixParseError`.  A byte outside ASCII
    decodes to a lone surrogate, which no number contains, so it is
    reported as a non-numeric cell."""
    with open(path, "r", encoding="ascii", errors="surrogateescape",
              newline="") as fh:
        # A first pass counts the rows, so that each line is parsed
        # straight into its row of the one result matrix.
        n_rows = sum(1 for _ in fh)
        if not n_rows:
            raise MatrixParseError("empty matrix file", row=1)
        fh.seek(0)
        width = None
        for lineno, line in enumerate(fh, start=1):
            cells = line.rstrip("\r\n").split(",")
            if width is None:
                width = len(cells)
                out = np.empty((n_rows, width))
            elif len(cells) != width:
                raise MatrixParseError(
                    f"row {lineno} has {len(cells)} cells, expected {width}",
                    row=lineno)
            try:
                out[lineno - 1] = np.fromiter(map(float, cells), float,
                                              count=width)
            except ValueError:
                _raise_bad_cell(cells, lineno)
                raise
    return out


def _raise_bad_cell(cells: list[str], lineno: int) -> None:
    """Raise the parse error naming the first cell of a row that
    ``float`` rejects."""
    for colno, cell in enumerate(cells, start=1):
        try:
            float(cell)
        except ValueError:
            raise MatrixParseError(
                f"row {lineno}, column {colno}: not a number: {cell!r}",
                row=lineno, column=colno) from None

"""Bit-exact CSV serialization for real matrices.

Format: one row per channel, cells separated by commas, ``.`` as the
decimal point, no header, LF line endings.  Values are written with 17
significant digits, which is enough for every IEEE-754 double to survive a
write/read round trip unchanged.

A write gives exactly the bytes of ``"%.17g" % x`` per cell, formatted
by numpy one block of cells at a time in :mod:`ogica._csvformat`, which
is imported on the first write.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from .exceptions import MatrixParseError, ValidationError

# Bytes that ``numpy.loadtxt`` strips from a cell as whitespace and
# ``float`` does not.
_LOADTXT_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _chunks(values):
    """The CSV text of a non-empty 2-D array (the format has no empty
    matrix) as a generator of byte chunks of whole cells.  The shape is
    checked before the generator is returned."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"need an array of real numbers: {exc}") from None
    if arr.ndim != 2 or not arr.size:
        raise ValidationError(
            f"need a non-empty 2-D array, got shape {arr.shape}")
    # Imported on the first write rather than at start-up, where compiling
    # the kernel more than doubled this module's import time.
    from ._csvformat import format_blocks
    return format_blocks(arr)


def format_matrix(values) -> str:
    """Render a 2-D array in the CSV matrix format (trailing newline)."""
    return b"".join(_chunks(values)).decode("ascii")


def write_matrix(path: str | os.PathLike, values) -> None:
    """Write a matrix to ``path`` in the CSV matrix format, streaming it
    one block of at most a few thousand cells at a time (see
    :mod:`ogica._csvformat`)."""
    chunks = _chunks(values)  # checks the shape before the file is opened
    with open(path, "wb") as fh:
        fh.writelines(chunks)


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
    ``float`` cells, or :class:`MatrixParseError` naming the first bad
    one.  A byte outside ASCII decodes to a lone surrogate, which no
    number contains, so it is reported as a non-numeric cell."""
    rows = []
    with open(path, "r", encoding="ascii", errors="surrogateescape",
              newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            cells = line.rstrip("\r\n").split(",")
            if rows and len(cells) != len(rows[0]):
                raise MatrixParseError(
                    f"row {lineno} has {len(cells)} cells, "
                    f"expected {len(rows[0])}", row=lineno)
            row = np.empty(len(cells))
            for colno, cell in enumerate(cells, start=1):
                try:
                    row[colno - 1] = float(cell)
                except ValueError:
                    raise MatrixParseError(
                        f"row {lineno}, column {colno}: not a number: "
                        f"{cell!r}", row=lineno, column=colno) from None
            rows.append(row)
    if not rows:
        raise MatrixParseError("empty matrix file", row=1)
    return np.vstack(rows)

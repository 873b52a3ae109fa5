"""The block formatter behind :func:`ogica.matrixio.write_matrix`.

It writes exactly the bytes of ``"%.17g" % x`` per cell, for a block of
cells at a time in numpy instead of one Python format per cell.  For
1e-30 <= |x| < 1e17 the decimal exponent and the 17 digits come from a
double-double product, and +-0 is written as ``0`` or ``-0``; every other
cell, and each cell whose rounding that cannot settle, is formatted by
``%.17g`` itself.  The module is imported on the first write, and its
lookup tables (about 170 KB) are built then, so start-up compiles and
builds none of it.
"""

from __future__ import annotations

import functools

import numpy as np

# Cells formatted per numpy pass.  Each cell is laid out in a 48-byte
# slot of six words, NUL where the text has no byte:
#   word 0     sign or ``0.000`` prefix, leading digit, ``.`` or NUL
#   words 1-4  digits 1-16, each followed by a ``.``-or-NUL byte
#   word 5     ``e-XX`` suffix or NUL, separator, NUL
_CHUNK_CELLS = 4096
_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_NULS, _LEADS, _EMPTY = 10000, 20000, 20010  # offsets in the word table


def format_blocks(arr: np.ndarray):
    """Yield the CSV text of a non-empty float64 matrix, one chunk of
    bytes per block of at most ``_CHUNK_CELLS`` cells: whole rows, or
    equal pieces of one long row."""
    n, t = arr.shape
    rows = max(1, _CHUNK_CELLS // t)
    cols = -(-t // -(-t // _CHUNK_CELLS))
    for r in range(0, n, rows):
        for c in range(0, t, cols):
            yield _format_block(arr[r:r + rows, c:c + cols], c + cols >= t)


def _format_block(block: np.ndarray, ends_rows: bool) -> bytes:
    """The ``%.17g`` text of a block's cells, comma-separated, with LF
    after its last column when that ends the rows.

    For 1e-30 <= |x| < 1e17 with decimal exponent ``k``, the product
    ``|x| 10**(16 - k)`` is formed as a double-double (Dekker's product
    against ``10**(16 - k)`` held as a sum of doubles), within about
    1e-14 of exact, and rounded to the 17 digits.  A cell whose rounding
    that cannot settle (within 1e-6 of a tie, or ``k`` off by one), whose
    integer zeros would read as trailing zeros, or that lies outside the
    range (subnormals, inf and NaN included) is formatted by
    ``b"%.17g" % x``.  A zero takes the frame of ``k = 0`` and comes out
    as its sign and the leading digit 0."""
    words, frames, scales, frac_div, int_div = _tables()
    v = block.reshape(-1)
    a = np.abs(v)
    exact = (a >= 1e-30) & (a < 1e17)
    zero = a == 0.0
    with np.errstate(all="ignore"):  # cells outside the range are redone
        # k + 31; outside 0-48 only in cells that are redone, so every
        # lookup by it clips.
        kk = np.floor(np.log10(a)).astype(np.int64)
        kk += 31
        kk[zero] = 31
        power, p_hi, p_lo, p_tail = scales.take(kk, axis=1, mode="clip")
        y = a * power
        a_hi = a * _SPLIT
        a_hi -= a_hi - a
        a_lo = a - a_hi
        err = a_hi * p_hi - y
        err += a_hi * p_lo
        err += a_lo * p_hi
        err += a_lo * p_lo
        err += a * p_tail  # y + err is |x| 10**(16 - k)
        below = np.floor(err)
        digits = y.astype(np.int64) + below.astype(np.int64)
        err -= below
        err -= 0.5  # the product's fraction, less a half
    del a, y, a_hi, a_lo, below, power, p_hi, p_lo, p_tail  # peak memory
    exact &= digits >= 10**16  # else k came out one too high
    digits += err > 0
    exact &= np.abs(err) >= 1e-6
    exact &= (digits < 10**17) & (kk >= 1) & (kk <= 47)  # k one too low
    exact &= digits % int_div.take(kk, mode="clip") != 0
    form = kk * 4 + np.signbit(v)
    form += 2 * (digits % frac_div.take(kk, mode="clip") != 0)  # has a dot
    # The words of each slot: the leading digit, digits 1-4, 5-8, 9-12 and
    # 13-16 (their trailing zeros NUL when only zeros follow), the empty
    # word.
    index = np.empty((v.size, 6), np.intp)
    lead, g1, g2, g3, g4, empty = index.T
    high = digits // 10**8
    digits -= high * 10**8
    np.floor_divide(high, 10**8, out=lead)
    high -= lead * 10**8
    np.floor_divide(high, 10**4, out=g1)
    np.subtract(high, g1 * 10**4, out=g2)
    np.floor_divide(digits, 10**4, out=g3)
    np.subtract(digits, g3 * 10**4, out=g4)
    trailing = g4 == 0
    g3 += _NULS * trailing
    trailing &= g3 == _NULS
    g2 += _NULS * trailing
    trailing &= g2 == _NULS
    g1 += _NULS * trailing
    g4 += _NULS
    lead += _LEADS
    empty[:] = _EMPTY
    del high, digits, trailing  # peak memory
    text = words.take(index, mode="clip")
    del index, lead, g1, g2, g3, g4, empty
    text |= frames.take(form, axis=0, mode="clip")
    if ends_rows:
        width = block.shape[1]
        text[width - 1::width, 5] ^= (ord(",") ^ ord("\n")) << 32
    redo = np.flatnonzero(~(exact | zero))
    if redo.size:
        # Each distinct value (by its bits: -0 is not 0) is formatted once.
        bits = v[redo].view(np.uint64)
        keys = np.sort(bits)
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        cells = np.array([b"%.17g" % x for x in keys.view(float).tolist()],
                         "S24")[np.searchsorted(keys, bits)]
        text[redo, :5] = 0
        text[redo, 5] &= 0xFF << 32  # the separator
        text.view(np.uint8)[redo, :24] = cells.view(np.uint8).reshape(-1, 24)
    return text.tobytes().translate(None, b"\0")


@functools.cache
def _tables():
    """The lookup tables of :func:`_format_block`, built on first use.

    ``words``: four digits at even bytes, plain or (from ``_NULS``) with
    trailing zeros NUL, the leading digit (from ``_LEADS``) and the empty
    word (``_EMPTY``).  ``frames``: the prefix, dot and suffix words of
    each form (``k`` + 31, has a dot, negative).  ``scales``: for each
    ``k`` + 31, ``10**(16 - k)`` as a double, its two halves and the
    rest.  ``frac_div``: ``10**`` the fraction digits after the dot.
    ``int_div``: the power of ten whose multiples lose integer zeros."""
    char = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
    plain = nul = np.uint64(0)
    kept = False  # this digit or a later one is not zero
    for place, digit in enumerate(reversed(np.ix_(char, char, char, char))):
        kept = kept | (digit != ord("0"))
        plain = plain | digit << np.uint64(48 - 16 * place)
        nul = nul | (digit * kept) << np.uint64(48 - 16 * place)
    words = np.concatenate([plain.reshape(-1), nul.reshape(-1),
                            char << np.uint64(48), np.zeros(1, np.uint64)])
    frames = np.zeros((49, 2, 2, 48), np.uint8)  # k from -31 to 17
    frac_div = np.ones(49, np.int64)
    int_div = np.full(49, 10**18, np.int64)
    scales = np.zeros((4, 49))
    for kk in range(49):
        k = kk - 31
        for neg, sign in enumerate((b"", b"-")):
            head = sign + (b"0." + b"0" * (-k - 1) if -4 <= k < 0 else b"")
            frames[kk, :, neg, 6 - len(head):6] = list(head)
        if -30 <= k < -4:
            frames[kk, :, :, 40:44] = list(b"e-%02d" % -k)
        frames[kk, :, :, 44] = ord(",")
        if k < -4 or 0 <= k <= 16:
            p = max(k, 0)  # the dot follows digit p
            frames[kk, 1, :, 7 + 2 * p] = ord(".")
            frac_div[kk] = 10**(16 - p)
            if p:
                int_div[kk] = 10**(17 - p)
        if k <= 16:
            power = 10**(16 - k)
            hi = float(power)
            half = hi * _SPLIT - (hi * _SPLIT - hi)
            scales[:, kk] = hi, half, hi - half, power - int(hi)
    return (words, frames.view(np.uint64).reshape(-1, 6), scales,
            frac_div, int_div)

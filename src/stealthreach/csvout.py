"""The CSV writer behind every tabular output: cloud and heatmap."""

from contextlib import closing
from functools import cache
from types import SimpleNamespace

import numpy as np

from .workers import ordered_map

# Rows formatted per write: one block's temporaries are small next to a whole
# cloud, so they never inflate the peak memory of a large cloud.
BLOCK_ROWS = 4096

# The two formats.  A "%.17g" value takes the numpy path when 1e-280 < |x|
# < 1e280, so that the scaled products below neither overflow nor leave the
# normal range; a "%d" value when |int(x)| < 1e16, at most 16 digits.
G_FMT, D_FMT = "%.17g", "%d"
G_RANGE, D_LIMIT = 1e-280, 1e16
E_MIN, E_MAX = -282, 281  # floor(log10|x|) over G_RANGE, with one to spare
TIE_MARGIN = 1e-9  # far above the ~1e-14 error of the scaled fraction
# A field's slot: its text NUL-padded to 24 bytes, then the separator.
SLOT = 25
GATHER = 512  # fields per template gather: its 8-byte index stays under 128 KB
# A "%.17g" value's 32 source bytes: digits 2-17 at 0-15, the leading digit,
# ".", "0", "-", NUL at 20, the exponent "e+dd" NUL-padded at 24.
G_WORD, NUL = int.from_bytes(b"0.0-", "little"), 20


@cache
def _tables():
    """The lookup tables, built on first use so that importing costs nothing.

    pow10: per decimal exponent e, 10^(16-e) as a double-double (hi, lo),
    with hi's Veltkamp halves.  Python ints divide with correct rounding, so
    hi is the double nearest 10^q and lo the double nearest the rest.
    digits: the four ASCII digits of 0..9999 as one little-endian word, and
    last: the place (1-4) of the last nonzero one, 0 for 0.  exp: the
    exponent's 8 bytes per e.  templates: the source bytes of a "%.17g"
    field, per sign, notation and exponent, and place of the last nonzero
    digit.  keep: per digit count c, the words that keep the last c of 16;
    powers: 10^1..10^15, whose count below an integer is its digit count - 1.
    """
    pow10 = []
    for e in range(E_MIN, E_MAX + 1):
        q = 16 - e
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        hi = num / den
        hnum, hden = hi.as_integer_ratio()
        lo = (num * hden - hnum * den) / (den * hden)
        split = hi * 134217729.0  # 2^27 + 1
        hh = split - (split - hi)
        pow10.append((hi, hh, hi - hh, lo))
    quads = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10
    digits = (quads + ord("0")).astype(np.uint8).view("<u4").ravel()
    last = np.where(quads.any(axis=1), 4 - np.argmax(quads[:, ::-1] > 0, axis=1), 0).astype(np.int8)
    exp = np.frombuffer("".join(f"e{e:+03d}".ljust(8, "\0") for e in range(E_MIN, E_MAX + 1))
                        .encode(), "<u8")
    templates = []
    for neg in (0, 1):
        for mode in range(22):  # exponent -4..16 in fixed notation, then scientific
            for end in range(17):
                fraction = list(range(end))
                if mode == 21:
                    body = [16] + ([17] + fraction if end else []) + [24, 25, 26, 27, 28]
                elif mode >= 4:  # exponent mode - 4 >= 0: mode - 3 digits before the point
                    body = [16] + list(range(mode - 4)) + ([17] + fraction[mode - 4:]
                                                           if end > mode - 4 else [])
                else:  # "0." and 3 - mode zeros before the digits
                    body = [18, 17] + [18] * (3 - mode) + [16] + fraction
                templates.append([19] * neg + body + [NUL] * (SLOT - neg - len(body)))
    keep = np.frombuffer(b"".join(bytes(16 - c) + b"\xff" * c for c in range(17)), "<u8")
    return SimpleNamespace(pow10=np.array(pow10).T.copy(), digits=digits, last=last, exp=exp,
                           templates=np.array(templates, np.uint8), keep=keep.reshape(17, 2),
                           powers=10 ** np.arange(1, 16, dtype=np.int64))


def _digit_quads(values):
    """The four-digit groups of int64 values below 10^16, most significant first."""
    quads = np.empty((4, len(values)), np.int64)
    for j in (3, 2, 1):
        values, quads[j] = np.divmod(values, 10000)
    quads[0] = values
    return quads


def _significand(x):
    """(e, N, proved) of a float64 vector: |x| rounds to N 10^(e-16) at 17 digits.

    N is round(|x| 10^q), q = 16 - e with e = floor(log10|x|).  |x| hi is
    split into an exact sum p + err (Dekker 1971); p is an integer, as it
    exceeds 2^53, so N = p + round(err + |x| lo).  A value is not proved when
    it is out of range, lies within TIE_MARGIN of a rounding tie, or has N
    outside (10^16, 10^17): log10 may be one off near a power of ten, and
    N = 10^16 may be such a value printed one digit short.
    """
    ax = np.abs(x)
    ok = (ax > G_RANGE) & (ax < 1.0 / G_RANGE)
    ax = np.where(ok, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.intp)
    hi, hh, hl, lo = np.take(_tables().pow10, e - E_MIN, axis=1)
    p = ax * hi
    split = ax * 134217729.0
    ah = split - (split - ax)
    al = ax - ah
    frac = ((ah * hh - p) + ah * hl + al * hh) + al * hl + ax * lo
    whole = np.floor(frac)
    frac -= whole
    n = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    return e, n, ok & (np.abs(frac - 0.5) >= TIE_MARGIN) & (n > 10 ** 16) & (n < 10 ** 17)


def _g_fields(x):
    """("%.17g" slots, refused) of a float64 vector (see _significand)."""
    tables = _tables()
    e, n, ok = _significand(x)
    lead, rest = np.divmod(n, 10 ** 16)
    quads = _digit_quads(rest)
    source = np.empty((len(x), 8), np.uint32)
    source[:, :4] = tables.digits[quads].T
    source[:, 4] = G_WORD + lead
    source[:, 5] = 0
    source.view(np.uint64)[:, 3] = tables.exp[e - E_MIN]
    places = tables.last[quads]
    end = places[0]  # the place of the last nonzero digit of the 16, 0 for none
    for j in (1, 2, 3):
        end = np.where(places[j] > 0, places[j] + 4 * j, end)
    keys = ((x < 0) * 22 + np.where((e >= -4) & (e <= 16), e + 4, 21)) * 17 + end
    slots = np.empty((len(x), SLOT), np.uint8)
    offsets = np.arange(len(x))[:, None] * 32
    for lo in range(0, len(x), GATHER):  # a short index keeps the peak memory small
        index = tables.templates[keys[lo:lo + GATHER]] + offsets[lo:lo + GATHER]
        np.take(source.view(np.uint8), index, out=slots[lo:lo + GATHER], mode="clip")
    return slots, ~ok


def _d_fields(x):
    """("%d" slots, refused) of a float64 vector: the digits of int(x),
    leading zeros blanked, after a "-" or a NUL."""
    tables = _tables()
    t = np.trunc(x)
    ok = np.abs(t) < D_LIMIT
    n = np.where(ok, np.abs(t), 0.0).astype(np.int64)
    words = np.zeros((len(x), 4), np.uint64)
    words[:, 0] = (t < 0) * np.uint64(ord("-") << 56)
    words.view(np.uint32)[:, 2:6] = tables.digits[_digit_quads(n)].T
    words[:, 1:3] &= tables.keep[np.searchsorted(tables.powers, n, side="right") + 1]
    return words.view(np.uint8)[:, :SLOT], ~ok


def _fast_block(block, fmts):
    """(text matrix, refused rows) of a float64 block in "%d"/"%.17g" columns.

    The matrix holds each value's field NUL-padded in a SLOT-byte slot that
    ends in its separator, so the text of any run of rows is its nonzero bytes.
    """
    rows, cols = block.shape
    text = np.empty((rows, cols, SLOT), np.uint8)
    refused = np.zeros(rows, bool)
    for j, fmt in enumerate(fmts):  # a column at a time keeps the temporaries small
        text[:, j], bad = (_g_fields if fmt == G_FMT else _d_fields)(block[:, j])
        refused |= bad
    text[:, :, -1] = ord(",")
    text[:, -1, -1] = ord("\n")
    return text.reshape(rows, -1), np.flatnonzero(refused)


def _text(matrix):
    return matrix[matrix != 0].tobytes().decode("ascii")


def write_csv(path, metadata: dict | None, header: list[str], rows, fmt) -> None:
    """Write '# key=value' metadata lines, the header, then one line per row.

    rows is 2-D float64 with one column per header name: an array, or a view
    with .shape whose row slices are arrays, sliced per block and never whole.
    fmt is one format per column, or one for all: "%d" for counters or
    "%.17g" for floats, which round-trips every double; anything else raises
    ValueError.  The bytes are those of np.savetxt with delimiter ","; the
    blocks are spread over the usable CPUs (workers.ordered_map) and written
    in order as they arrive.

    Each block is formatted by numpy (_g_fields, _d_fields).  A row takes the
    % path in place when one of its values is non-finite, is a "%d" value
    with |int(x)| >= 1e16, or is a "%.17g" value that numpy does not prove:
    |x| outside (1e-280, 1e280), within 1e-9 of a rounding tie, or next to a
    power of ten (see _significand).
    """
    fmts = [fmt] * rows.shape[1] if isinstance(fmt, str) else list(fmt)
    if not set(fmts) <= {G_FMT, D_FMT} or np.asarray(rows[:0]).dtype != np.float64:
        raise ValueError(f"write_csv takes float64 rows in {D_FMT!r} or {G_FMT!r} columns, "
                         f"got {fmts}")
    line = ",".join(fmts) + "\n"

    def format_block(lo):
        block = np.asarray(rows[lo:lo + BLOCK_ROWS])
        matrix, refused = _fast_block(block, fmts)
        parts, start = [], 0
        for i in refused:
            parts += [_text(matrix[start:i]), line % tuple(block[i].tolist())]
            start = i + 1
        return "".join(parts) + _text(matrix[start:])

    with open(path, "w") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(header) + "\n")
        with closing(ordered_map(format_block, range(0, rows.shape[0], BLOCK_ROWS))) as blocks:
            fh.writelines(blocks)

"""Small shared helpers: seeds, deterministic reductions, float formatting, CSV.

``write_csv``, the one CSV writer, also takes a column as an ``IndexedColumn``
(distinct values plus each row's index) and formats each distinct value once.
It builds the exact "%.17g" text of float cells with numpy: for |x| in
[1e-4, 1e17), where "%.17g" writes fixed notation, Dekker's exact product
a * 10^(16 - k) = hi + lo gives the correctly rounded 17-digit significand
hi + rint(lo), and 4-digit table lookups give its text.  Other floats (0, tiny,
huge, inf, nan) take "%.17g" one by one.  Each block of rows is one byte matrix."""
from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0x5EED
# rows formatted per write by write_csv; bounds the text held in memory
CSV_BLOCK_ROWS = 4096


def default_seed() -> int:
    """Seed of verify's one generator; the CW_SEED env var overrides it."""
    raw = os.environ.get("CW_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(
            f"CW_SEED must be an integer (decimal or 0x-prefixed hex), got {raw!r}"
        ) from None


def pairwise_sum(values: np.ndarray, start: int = 0, size: int | None = None) -> float:
    """Sum a 1-d array by explicit binary-tree halving.

    The reduction order is fixed by the array layout, so repeated runs on
    identical inputs are bit-identical regardless of how numpy was built.
    With ``start`` and ``size`` it has the bits of a length-``size`` vector of
    +0.0 holding ``values`` from ``start`` on, but adds only the pairs they meet.
    """
    flat = np.ascontiguousarray(values, dtype=float).ravel()
    size = start + flat.size if size is None else size
    while flat.size and size > 1:
        lead, trail = start % 2, (start + flat.size) % 2 * (start + flat.size < size)
        if lead or trail:
            flat, start = np.concatenate([np.zeros(lead), flat, np.zeros(trail)]), start - lead
        if flat.size % 2:  # the last value ends an odd level and is carried up
            flat = np.concatenate([flat[0:-1:2] + flat[1::2], flat[-1:]])
        else:
            flat = flat[0::2] + flat[1::2]
        start, size = start // 2, (size + 1) // 2
    return float(flat[0]) if flat.size else 0.0


def fmt_g(x: float) -> str:
    """The ``%g`` text of x when it reads back as x, else the shortest round trip."""
    text = format(float(x), "g")
    return text if float(text) == x else repr(float(x))


@contextmanager
def open_target(target):
    """Yield a text stream: a new file for a path, stdout for None or "", else target."""
    if isinstance(target, (str, os.PathLike)) and target != "":
        with open(target, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield target or sys.stdout


@dataclass(frozen=True)
class IndexedColumn:
    """A CSV column given as its distinct ``values`` and each row's ``index`` into them."""

    values: np.ndarray
    index: np.ndarray

    @classmethod
    def distinct(cls, x: np.ndarray) -> "IndexedColumn":
        """The float column ``x`` over its distinct bit patterns, so -0.0 and 0.0 stay apart."""
        bits = np.ravel(x).view(np.int64)
        distinct = np.unique(bits)  # return_inverse would hold several more columns
        return cls(distinct.view(float), np.searchsorted(distinct, bits))


_FIXED_RANGE = (1e-4, 1e17)  # the |x| that "%.17g" writes in fixed notation
_POW10 = np.array([float(10**j) for j in range(21)])  # 10^0 ... 10^20, each exact
_GROUP = np.arange(10000, dtype=np.int16)  # small temporaries keep the import's peak RSS
# the four ASCII digits of each 4-digit group, packed so one uint32 gather fetches them
_GROUP_TEXT = ((_GROUP[:, None] // np.array([1000, 100, 10, 1], np.int16)) % 10 + 48).astype(
    np.uint8).view(np.uint32).ravel()
_GROUP_ZEROS = sum((_GROUP % m == 0).astype(np.int8) for m in (10, 100, 1000, 10000))
_FRACTION_LEAD = np.frombuffer(b"0.000", np.uint8)  # "0." and up to three zeros


def _split(a):
    """Veltkamp's split a = hi + lo into halves of 26 bits, whose products are exact."""
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a, k):
    """hi + lo = a * 10^(16 - k) exactly: Dekker's two-product, without an FMA."""
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[16 - k], _POW10_LO[16 - k]
    hi = a * _POW10[16 - k]
    return hi, ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo


def _significands(a):
    """The 17-digit significand d and decimal exponent k of each a in the fixed range.

    With 10^16 <= a * 10^(16 - k) = hi + lo < 10^17, hi is an even integer above
    2^53, so hi + rint(lo) rounds the exact product to the nearest integer, ties to
    even, as "%.17g" does.  log10 can miss k by one next to a power of ten; the
    exact comparisons of (hi, lo) with 10^16 and 10^17 put it right."""
    k = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    hi, lo = _scaled(a, k)
    shift = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
    shift -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    off = np.flatnonzero(shift)
    if off.size:
        k[off] += shift[off]
        hi[off], lo[off] = _scaled(a[off], k[off])
    # d < 10^17: the largest double below each power of ten from 1e-3 to 1e17 lies
    # 16 or more half-units of the 17th digit below it, so none rounds up to it
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), k


def _float_cells(x):
    """The "%.17g" bytes of each float, as the rows of a uint8 matrix, and their lengths.

    Values sharing a decimal exponent and a sign share a fixed-notation layout,
    so after one sort by that key each layout is a few slice assignments; the
    values outside the fixed range sort last and are formatted one by one."""
    a = np.abs(x)
    fixed = (a >= _FIXED_RANGE[0]) & (a < _FIXED_RANGE[1])
    d, k = _significands(np.where(fixed, a, 1.0))
    key = np.where(fixed, 2 * (k + 4) + (x < 0), 42).astype(np.int8)
    order = np.argsort(key, kind="stable")
    d, k, key = d[order], k[order], key[order]
    groups = np.empty((5, x.size), np.int64)  # d as 1 + 4 * 4 digits
    for j in range(4, 0, -1):
        q = d // 10000
        groups[j] = d - 10000 * q
        d = q
    groups[0] = d
    digits = _GROUP_TEXT[groups].T.copy().view(np.uint8)[:, 3:]
    zeros = _GROUP_ZEROS[groups[1:]]
    tail = zeros[0]  # the trailing zeros of d, which "%g" drops
    for j in range(1, 4):
        tail = zeros[j] + (zeros[j] == 4) * tail
    kept = 17 - tail
    lens = (key & 1) + np.where(k >= 0, k + 1 + (kept > k + 1) * (kept - k), 1 - k + kept)
    text = np.empty((x.size, 24), np.uint8)  # "-1.2345678901234567e-308" is 24 bytes
    bounds = np.searchsorted(key, np.arange(43))
    for g in np.flatnonzero(np.diff(bounds)).tolist():
        cell, digit = text[bounds[g]:bounds[g + 1]], digits[bounds[g]:bounds[g + 1]]
        e, s = g // 2 - 4, g % 2
        cell[:, 0] = ord("-")  # overwritten when s = 0
        if e >= 0:
            cell[:, s:s + e + 1] = digit[:, :e + 1]
            cell[:, s + e + 1] = ord(".")
            cell[:, s + e + 2:s + 18] = digit[:, e + 1:]
        else:
            cell[:, s:s + 1 - e] = _FRACTION_LEAD[:1 - e]
            cell[:, s + 1 - e:s + 18 - e] = digit
    rest = bounds[42]
    if rest < x.size:
        cells, lens[rest:] = _str_cells(["%.17g" % v for v in x[order[rest:]].tolist()])
        text[rest:, :cells.shape[1]] = cells
    back = np.empty_like(order)
    back[order] = np.arange(order.size)
    return np.take(text, back, axis=0), lens[back]


def _str_cells(texts):
    """The UTF-8 bytes of each text as the rows of a zero-padded uint8 matrix, and lengths."""
    raw = [t.encode() for t in texts]
    cells = np.array(raw, dtype=bytes)
    lens = np.array([len(b) for b in raw], dtype=np.int64)
    return cells.view(np.uint8).reshape(len(raw), cells.itemsize), lens


def _cells(values):
    """The cell bytes of each value: "%.17g" for a float, else its ``str``."""
    if values.dtype.kind == "f":
        cells, lens = _float_cells(values.astype(float, copy=False))
        return cells[:, :lens.max(initial=1)], lens
    return _str_cells([str(v) for v in values.tolist()])


def _rows(cells) -> str:
    """The rows of the cell matrices, joined by commas and ended by newlines."""
    width = sum(text.shape[1] + 1 for text, _ in cells)
    rows = np.empty((cells[0][1].size, width), np.uint8)
    keep = np.empty(rows.shape, bool)
    at = 0
    for j, (text, lens) in enumerate(cells):
        w = text.shape[1]
        rows[:, at:at + w] = text
        # row n of the table keeps the first n bytes; one row copy per cell
        keep[:, at:at + w] = np.take(np.tri(w + 1, w, -1, dtype=bool), lens, axis=0)
        rows[:, at + w] = ord("\n" if j == len(cells) - 1 else ",")
        keep[:, at + w] = True
        at += w + 1
    return rows[keep].tobytes().decode()


def write_csv(target, header, columns, preamble: str = "") -> None:
    """Write ``preamble``, a header line, then the columns as rows.

    Float cells take 17 significant digits ("%.17g", enough to round-trip
    binary64) and any other cell (str, bool, int) its ``str``.  An
    IndexedColumn formats each distinct value once and every row reuses those
    bytes.  Rows are streamed CSV_BLOCK_ROWS at a time, each block built as one
    byte matrix and written at once; a path target is opened only when the
    first line is written."""
    cols, texts = [], []
    for c in columns:
        indexed = isinstance(c, IndexedColumn)
        cols.append(np.reshape(c.index if indexed else c, -1))  # a view where one exists
        texts.append(_cells(np.ravel(c.values)) if indexed else None)
    with open_target(target) as fh:
        fh.write(preamble + ",".join(header) + "\n")
        for start in range(0, cols[0].size, CSV_BLOCK_ROWS):
            parts = [c[start:start + CSV_BLOCK_ROWS] for c in cols]
            fh.write(_rows([_cells(part) if t is None else (t[0][part], t[1][part])
                            for part, t in zip(parts, texts)]))


def as_complex_array(z) -> tuple[np.ndarray, bool]:
    """Coerce scalars/arrays to a complex ndarray, rejecting NaN/Inf.

    Returns the array and a flag telling whether the input was scalar.
    """
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("complex input must have finite components")
    return arr, arr.ndim == 0

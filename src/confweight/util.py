"""Small shared helpers: seeds, deterministic reductions, float formatting, CSV.

``write_csv``, the one CSV writer, also takes a column as an ``IndexedColumn``
(distinct values plus each row's index) and formats each distinct value once."""
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
    """Seed for all randomized families; the CW_SEED env var overrides it."""
    raw = os.environ.get("CW_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(
            f"CW_SEED must be an integer (decimal or 0x-prefixed hex), got {raw!r}"
        ) from None


def pairwise_sum(values: np.ndarray) -> float:
    """Sum a 1-d array by explicit binary-tree halving.

    The reduction order is fixed by the array layout, so repeated runs on
    identical inputs are bit-identical regardless of how numpy was built.
    """
    flat = np.ascontiguousarray(values, dtype=float).ravel()
    if flat.size == 0:
        return 0.0
    while flat.size > 1:
        if flat.size % 2:
            flat = np.concatenate([flat[0:-1:2] + flat[1::2], flat[-1:]])
        else:
            flat = flat[0::2] + flat[1::2]
    return float(flat[0])


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


def _cell_format(col: np.ndarray) -> str:
    return "%.17g" if col.dtype.kind == "f" else "%s"


def _texts(values) -> np.ndarray:
    """The cell text of each value, formatted once, in an object array to index by row."""
    values = np.ravel(values)
    fmt = _cell_format(values)
    return np.array([fmt % (v,) for v in values.tolist()], dtype=object)


def write_csv(target, header, columns, preamble: str = "") -> None:
    """Write ``preamble``, a header line, then the columns as rows.

    Float cells take 17 significant digits ("%.17g", enough to round-trip
    binary64) and any other cell (str, bool, int) its ``str``.  An
    IndexedColumn formats each distinct value once and every row reuses that
    text.  Rows are streamed CSV_BLOCK_ROWS at a time through one template;
    texts and cells of other kinds meet the floats one block at a time, and
    a path target is opened only when the first line is written."""
    cols, texts = [], []
    for c in columns:
        indexed = isinstance(c, IndexedColumn)
        cols.append(np.reshape(c.index if indexed else c, -1))  # a view where one exists
        texts.append(_texts(c.values) if indexed else None)
    cells = [_cell_format(c) if t is None else "%s" for c, t in zip(cols, texts)]
    row = ",".join(cells) + "\n"
    with open_target(target) as fh:
        fh.write(preamble + ",".join(header) + "\n")
        for start in range(0, cols[0].size, CSV_BLOCK_ROWS):
            parts = [c[start:start + CSV_BLOCK_ROWS] for c in cols]
            # in an object block floats stay Python floats beside texts and other
            # cells; stacked into one numpy dtype they would take numpy's own text
            block = np.empty((parts[0].size, len(parts)), dtype=object)
            for j, (part, t) in enumerate(zip(parts, texts)):
                block[:, j] = part if t is None else t[part]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def as_complex_array(z) -> tuple[np.ndarray, bool]:
    """Coerce scalars/arrays to a complex ndarray, rejecting NaN/Inf.

    Returns the array and a flag telling whether the input was scalar.
    """
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("complex input must have finite components")
    return arr, arr.ndim == 0

"""Small shared helpers: seeds, deterministic reductions, float formatting."""
from __future__ import annotations

import os
import sys
from contextlib import contextmanager

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


def write_csv(target, header, columns, preamble: str = "") -> None:
    """Write ``preamble``, a header line, then the columns as rows.

    Float cells take 17 significant digits ("%.17g", enough to round-trip
    binary64) and any other cell (str, bool, int) its ``str``.  Rows are
    streamed CSV_BLOCK_ROWS at a time through one template; a path target
    is opened only when the first line is written."""
    cols = [np.ravel(c) for c in columns]
    cells = ["%.17g" if c.dtype.kind == "f" else "%s" for c in cols]
    if "%s" in cells:
        # in one object array floats stay Python floats; numpy's own text would differ
        cols = [c.astype(object) for c in cols]
    row = ",".join(cells) + "\n"
    with open_target(target) as fh:
        fh.write(preamble + ",".join(header) + "\n")
        for start in range(0, cols[0].size, CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in cols])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def as_complex_array(z) -> tuple[np.ndarray, bool]:
    """Coerce scalars/arrays to a complex ndarray, rejecting NaN/Inf.

    Returns the array and a flag telling whether the input was scalar.
    """
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("complex input must have finite components")
    return arr, arr.ndim == 0

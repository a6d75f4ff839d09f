"""Improper area integrals on the unit disc with refinement verdicts.

Every integral over one of the model domains is first pulled back to the
disc by the change of variables z = psi(w), so singular behaviour is pinned
to known boundary points (or, for the exterior family, the puncture at the
origin).  A midpoint rule in graded polar cells never touches r = 0, r = 1
or the node lines theta = 0, pi where those singularities sit.

Verdict semantics, judged on the sequence of per-level values v_1..v_L
(cell counts double in both directions per level):

* ``CONVERGED``  the last increment passes |v_L - v_{L-1}| <= tol*max(1,|v_L|);
* ``DIVERGENT``  not converged, and the last three increments are positive
  with each at least 0.9 times its predecessor (sustained growth);
* ``INCONCLUSIVE`` otherwise.

The tolerance therefore doubles as the significance floor for divergence:
growth below tol scale is treated as settled, not as evidence of blow-up.

A grid is its rings (radii ``r``, phases ``phase``, ``cell_areas``), and
``ring_nodes`` forms the nodes of any of its rows.  ``disc_nodes`` alone cuts a
grid into row blocks of 2^15 nodes (one row where a row holds more), each made
when reached; a level is summed by them, so an integrand must be pointwise.
Block and grid sizes are powers of two, so each block is an aligned subtree of
the level's halving tree, and the block sums, summed pairwise, give every level
value the bits of a whole-grid evaluation.  A ladder may not reach a level
above the 2^24-node budget (4096 x 4096 cells).

The ladders of several exponents share their levels (``brennan_scan``): J is
evaluated once per block for every exponent still running, and each keeps its
own ladder's level values, verdict and stop level, bit for bit.

``pull_back`` streams the matched-node checks' h(psi(w)) and J(w, psi) in the
same blocks: real Jacobians (``ConformalMap.jacobian`` and ``inverse_jacobian``)
whose product is one.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .errors import GridTooLarge, IntegrandNotFinite, InvalidExponents
from .maps import ConformalMap
from .util import pairwise_sum

_GROWTH_SLACK = 0.9  # an increment counts as sustained when >= 0.9x its predecessor
_BLOCK_NODES = 1 << 15  # nodes per row block of disc_nodes (bounds a block's temporaries)
NODE_BUDGET = 1 << 24  # largest level a ladder (or CLI grid) may reach: 4096 x 4096
# uniform t-cells map through g(t) = 1 - (1 - t)^3, packing radial cells
# against r = 1 where the pulled-back integrands are singular
_RADIAL_GRADING = 3.0


class Verdict(str, enum.Enum):
    CONVERGED = "Converged"
    DIVERGENT = "Divergent"
    INCONCLUSIVE = "Inconclusive"


def _power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class DiscGridSpec:
    """Base polar quadrature grid (rings built when first read); levels double both counts."""

    n_r: int = 16
    n_theta: int = 16

    def __post_init__(self):
        if not (_power_of_two(self.n_r) and self.n_r >= 8):
            raise ValueError("n_r must be a power of two, at least 8")
        if not (_power_of_two(self.n_theta) and self.n_theta >= 8):
            raise ValueError("n_theta must be a power of two, at least 8")

    def level(self, k: int) -> "DiscGridSpec":
        return replace(self, n_r=self.n_r << k, n_theta=self.n_theta << k)

    @cached_property
    def _edges(self) -> np.ndarray:
        return 1.0 - (1.0 - np.linspace(0.0, 1.0, self.n_r + 1)) ** _RADIAL_GRADING

    @cached_property
    def r(self) -> np.ndarray:
        return 0.5 * (self._edges[:-1] + self._edges[1:])

    @cached_property
    def phase(self) -> np.ndarray:  # e^{i theta} at the angular cell midpoints
        return np.exp(1j * ((np.arange(self.n_theta) + 0.5) * (2.0 * np.pi / self.n_theta)))

    @cached_property
    def cell_areas(self) -> np.ndarray:
        areas = self.r * np.diff(self._edges) * (2.0 * np.pi / self.n_theta)
        return np.broadcast_to(areas[:, None], (self.n_r, self.n_theta))


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    levels_used: int
    verdict: Verdict
    level_values: tuple[float, ...] = field(default_factory=tuple)


def ring_nodes(grid, rows: slice = slice(None)) -> np.ndarray:
    """The nodes r e^{i theta} on ``rows`` of a ``DiscGridSpec`` or a ``PolarGrid``."""
    return grid.r[rows, None] * grid.phase


def disc_nodes(spec) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, nodes) on each block of ``_BLOCK_NODES`` nodes (or one wider row) of a ring grid."""
    step = max(1, _BLOCK_NODES // spec.n_theta)
    for i in range(0, spec.n_r, step):
        rows = slice(i, min(i + step, spec.n_r))
        yield rows, ring_nodes(spec, rows)


def classify(level_values: list[float] | tuple[float, ...], tol: float) -> Verdict:
    """Apply the verdict rules to a sequence of per-level values."""
    v = list(level_values)
    if len(v) >= 2 and abs(v[-1] - v[-2]) <= tol * max(1.0, abs(v[-1])):
        return Verdict.CONVERGED
    d = [b - a for a, b in zip(v, v[1:])]
    if len(d) >= 4:
        last = d[-3:]
        prev = d[-4:-1]
        if all(x > 0.0 for x in last) and all(x >= _GROWTH_SLACK * y for x, y in zip(last, prev)):
            return Verdict.DIVERGENT
    return Verdict.INCONCLUSIVE


def integrate_disc(f: Callable, spec: DiscGridSpec | None = None, tol: float = 1e-6,
                   max_levels: int = 8) -> QuadResult:
    """Integrate f over the unit disc with refinement until tol or max_levels.

    Parameters
    ----------
    f : callable
        Vectorized, pointwise integrand; receives a 2-d array of complex
        nodes (a contiguous block of rows of the level grid, not the whole
        grid) and must return finite float values of the same shape
        (scalars broadcast).
    spec : DiscGridSpec, optional
        Base grid; refinement level k uses n_r*2^k by n_theta*2^k cells.
    tol : float
        Relative increment threshold for the ``CONVERGED`` verdict.
    max_levels : int
        Total refinement levels to attempt (default 8: base 16x16 grids end
        at 2048x2048 cells).  The last level may hold at most 2^24 nodes.

    Returns
    -------
    QuadResult
        Last level value, last increment magnitude, verdict, and the full
        per-level value sequence.

    Raises
    ------
    IntegrandNotFinite
        If the integrand returns NaN/Inf at any interior node; the message
        names the first such node in row-major order.
    GridTooLarge
        If level ``max_levels - 1`` holds more than 2^24 nodes; raised before
        any level is evaluated.
    """
    return _ladders(lambda w, live: (f(w),), 1, spec, tol, max_levels)[0]


def _ladders(f: Callable, count: int, spec: DiscGridSpec | None, tol: float,
             max_levels: int) -> list[QuadResult]:
    """``count`` ladders on shared levels; ``f(block, live)`` gives an array per running one."""
    spec = DiscGridSpec() if spec is None else spec
    if max_levels < 1:
        raise ValueError("max_levels must be at least 1")
    fit = sum((spec.n_r * spec.n_theta << 2 * k) <= NODE_BUDGET for k in range(max_levels))
    if fit < max_levels:
        raise GridTooLarge(f"max_levels={max_levels} from a {spec.n_r}x{spec.n_theta} grid "
                           f"exceeds the node budget of {NODE_BUDGET} (4096x4096) per level; "
                           f"the largest allowed max_levels is {fit}")
    runs, live = [[] for _ in range(count)], list(range(count))
    for k in range(max_levels):
        level, sums = spec.level(k), [[] for _ in live]
        for rows, block in disc_nodes(level):
            for acc, vals in zip(sums, f(block, live)):
                vals = np.broadcast_to(np.asarray(vals, dtype=float), block.shape)
                if not np.all(np.isfinite(vals)):
                    bad = block[~np.isfinite(vals)].ravel()[0]
                    raise IntegrandNotFinite(f"integrand is not finite at interior node {bad}")
                acc.append(pairwise_sum(vals * level.cell_areas[rows]))
        for i, acc in zip(live, sums):
            runs[i].append(pairwise_sum(acc))
        live = [i for i in live if classify(runs[i], tol) is not Verdict.CONVERGED]
        if not live:
            break
    return [_result(v, classify(v, tol)) for v in runs]


def _result(values, verdict: Verdict) -> QuadResult:
    """A ladder's result: its last level value, and its last increment as the error."""
    err = abs(values[-1] - values[-2]) if len(values) >= 2 else 0.0
    return QuadResult(value=values[-1], error_estimate=err, levels_used=len(values),
                      verdict=verdict, level_values=tuple(values))


# ---------------------------------------------------------------------------
# the change of variables z = psi(w) and weighted integrals of the model maps

# fixed grid of the matched-node identity checks: 512 x 512 cells
CHECK_SPEC = DiscGridSpec().level(5)


def pull_back(mapping: ConformalMap, spec: DiscGridSpec = CHECK_SPEC
              ) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """(rows, h(psi(w)), J(w, psi)) on each ``disc_nodes`` block (rows, w) of a grid.

    phi is ``mapping`` and psi its ``inverse``; h = J(., phi) is its ``jacobian`` and
    J(., psi) its ``inverse_jacobian``, with product one.  A block is made when reached.
    """
    return ((rows, mapping.jacobian(mapping.inverse(w)), mapping.inverse_jacobian(w))
            for rows, w in disc_nodes(spec))


def brennan_direct(mapping: ConformalMap, s: float, spec: DiscGridSpec | None = None,
                   tol: float = 1e-6, max_levels: int = 8) -> QuadResult:
    """Integral of |phi'|^s over the map's domain, computed on the disc.

    The change of variables z = psi(w) turns the integrand into
    |psi'(w)|^(2-s), which is evaluated directly; s = 2 reproduces the disc
    area pi exactly at every level.
    """
    return _jacobian_ladders(mapping, [2.0 - float(s)], "s", spec, tol, max_levels)[0]


def brennan_scan(mapping: ConformalMap, ss, tol: float = 1e-6) -> list[QuadResult]:
    """``brennan_direct`` at each s of ``ss``, bit for bit, on shared levels."""
    return _jacobian_ladders(mapping, [2.0 - float(s) for s in ss], "s", None, tol, 8)


def inverse_brennan(mapping: ConformalMap, alpha: float, tol: float = 1e-6,
                    max_levels: int = 8) -> QuadResult:
    """Integral of |psi'|^alpha over the unit disc, psi the map from the disc.

    The integrand is J(w, psi)^(alpha/2), with J = |psi'|^2 the map's real
    Jacobian (``ConformalMap.inverse_jacobian``), so no complex derivative is taken.
    A power that overflows is not warned about; the node it overflows at
    raises IntegrandNotFinite.
    """
    return _jacobian_ladders(mapping, [float(alpha)], "alpha", None, tol, max_levels)[0]


def _jacobian_ladders(mapping: ConformalMap, alphas: list[float], name: str,
                      spec: DiscGridSpec | None, tol: float, max_levels: int) -> list[QuadResult]:
    """The ladders of J(w, psi)^(alpha/2), one per alpha (``name`` in errors)."""
    if not alphas or not all(map(math.isfinite, alphas)):
        raise InvalidExponents(f"{name} must be finite" if alphas else f"no {name} to scan")

    def powers(w, live):
        jac = mapping.inverse_jacobian(w)  # a fresh array: the last running power may overwrite it
        with np.errstate(over="ignore"):
            return [np.power(jac, alphas[i] / 2, out=jac if i == live[-1] else None) for i in live]

    if len(alphas) == 1:  # a lone ladder runs as integrate_disc, so traces count it as one
        return [integrate_disc(lambda w: powers(w, [0])[0], spec, tol, max_levels)]
    return _ladders(powers, len(alphas), spec, tol, max_levels)


def kpq_norm(mapping: ConformalMap, p: float, q: float,
             tol: float = 1e-6, max_levels: int = 8) -> QuadResult:
    """The dilatation norm K_{p,q} = (int |phi'|^{(p-2)q/(p-q)})^{(p-q)/(pq)}.

    Finiteness of this quantity is exactly what bounds composition with the
    map between the gradient Lebesgue classes with exponents p and q.  The
    verdict of the underlying integral is forwarded; level values are
    reported on the K scale.
    """
    if not (math.isfinite(p) and math.isfinite(q)) or not 1.0 <= q < p:
        raise InvalidExponents(f"need 1 <= q < p, got p={p}, q={q}")
    s = (p - 2.0) * q / (p - q)
    res = brennan_direct(mapping, s, tol=tol, max_levels=max_levels)
    ex = (p - q) / (p * q)
    return _result([v**ex for v in res.level_values], res.verdict)

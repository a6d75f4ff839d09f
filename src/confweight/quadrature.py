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

Each level is evaluated in contiguous row blocks of about 2^16 nodes, each
generated only when it is reached, so an integrand must be pointwise: it
receives one block at a time, and the whole grid never exists.  Block and
grid sizes are powers of two, so summing the block sums pairwise follows the
same halving tree as summing the whole level, and every level value is
bit-identical to a whole-grid evaluation.  A ladder may not reach a level
above the 2^24-node budget (4096 x 4096 cells).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from .errors import GridTooLarge, IntegrandNotFinite, InvalidExponents
from .maps import ConformalMap, Direction
from .util import pairwise_sum

_GROWTH_SLACK = 0.9  # an increment counts as sustained when >= 0.9x its predecessor
_BLOCK_NODES = 1 << 16  # nodes per row block of a level (bounds its temporaries)
NODE_BUDGET = 1 << 24  # largest level a ladder (or CLI grid) may reach: 4096 x 4096


class Verdict(str, enum.Enum):
    CONVERGED = "Converged"
    DIVERGENT = "Divergent"
    INCONCLUSIVE = "Inconclusive"


def _power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class DiscGridSpec:
    """Base polar quadrature grid; refinement doubles both counts per level.

    ``radial_grading`` gamma >= 1 maps uniform t-cells through
    g(t) = 1 - (1 - t)^gamma, packing radial cells against r = 1 where the
    pulled-back integrands are singular.
    """

    n_r: int = 16
    n_theta: int = 16
    radial_grading: float = 3.0

    def __post_init__(self):
        if not (_power_of_two(self.n_r) and self.n_r >= 8):
            raise ValueError("n_r must be a power of two, at least 8")
        if not (_power_of_two(self.n_theta) and self.n_theta >= 8):
            raise ValueError("n_theta must be a power of two, at least 8")
        if not (math.isfinite(self.radial_grading) and self.radial_grading >= 1.0):
            raise ValueError("radial_grading must be a finite exponent >= 1")

    def level(self, k: int) -> "DiscGridSpec":
        return replace(self, n_r=self.n_r << k, n_theta=self.n_theta << k)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    levels_used: int
    verdict: Verdict
    level_values: tuple[float, ...] = field(default_factory=tuple)


def disc_nodes(spec: DiscGridSpec, rows: int | None = None
               ) -> tuple[np.ndarray, np.ndarray] | Iterator[tuple[np.ndarray, np.ndarray]]:
    """Quadrature nodes (complex, n_r x n_theta) and area weights (read-only broadcast).

    With ``rows``, an iterator over the same ``(w, areas)`` in consecutive
    blocks of at most ``rows`` rows, each generated only when it is reached.
    """
    t = np.linspace(0.0, 1.0, spec.n_r + 1)
    edges = 1.0 - (1.0 - t) ** spec.radial_grading
    r = 0.5 * (edges[:-1] + edges[1:])
    dr = np.diff(edges)
    dtheta = 2.0 * np.pi / spec.n_theta
    theta = (np.arange(spec.n_theta) + 0.5) * dtheta
    areas = r * dr * dtheta
    phase = np.exp(1j * theta)[None, :]

    def blocks(step):
        for i in range(0, spec.n_r, step):
            w = r[i:i + step, None] * phase
            yield w, np.broadcast_to(areas[i:i + step, None], w.shape)

    return next(blocks(spec.n_r)) if rows is None else blocks(rows)


def _single_level(f: Callable, spec: DiscGridSpec) -> float:
    sums = []
    for block, areas in disc_nodes(spec, max(1, _BLOCK_NODES // spec.n_theta)):
        vals = np.asarray(f(block), dtype=float)
        if vals.shape != block.shape:
            vals = np.broadcast_to(vals, block.shape)
        if not np.all(np.isfinite(vals)):
            bad = block[~np.isfinite(vals)].ravel()[0]
            raise IntegrandNotFinite(f"integrand is not finite at interior node {bad}")
        sums.append(pairwise_sum(vals * areas))
    return sums[0] if len(sums) == 1 else pairwise_sum(np.array(sums))


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
    if spec is None:
        spec = DiscGridSpec()
    if max_levels < 1:
        raise ValueError("max_levels must be at least 1")
    fit = 0  # levels whose grids stay within the node budget
    while fit < max_levels and (spec.n_r * spec.n_theta << 2 * fit) <= NODE_BUDGET:
        fit += 1
    if fit < max_levels:
        raise GridTooLarge(
            f"max_levels={max_levels} from a {spec.n_r}x{spec.n_theta} grid exceeds the node "
            f"budget of {NODE_BUDGET} (4096x4096) per level; the largest allowed max_levels "
            f"is {fit}")
    values: list[float] = []
    for k in range(max_levels):
        values.append(_single_level(f, spec.level(k)))
        if len(values) >= 2 and classify(values, tol) is Verdict.CONVERGED:
            break
    verdict = classify(values, tol) if len(values) >= 2 else Verdict.INCONCLUSIVE
    err = abs(values[-1] - values[-2]) if len(values) >= 2 else 0.0
    return QuadResult(value=values[-1], error_estimate=err, levels_used=len(values),
                      verdict=verdict, level_values=tuple(values))


# ---------------------------------------------------------------------------
# the change of variables z = psi(w) and weighted integrals of the model maps

# fixed grid of the matched-node identity checks: 512 x 512 cells
CHECK_SPEC = DiscGridSpec().level(5)


def pull_back(mapping: ConformalMap, spec: DiscGridSpec | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nodes w, area weights, |phi'(psi(w))| and |psi'(w)| on a disc grid.

    phi is the TO_DISC ``mapping`` and psi its inverse; the pulled-back
    conformal weight is the product (|phi'(psi)| * |psi'|)^2, identically one
    in exact arithmetic.  ``spec`` defaults to CHECK_SPEC.  The magnitudes are
    filled in row blocks, so the maps' complex temporaries stay block-sized.
    """
    if mapping.direction is not Direction.TO_DISC:
        raise ValueError("mapping must send its domain to the disc")
    spec = CHECK_SPEC if spec is None else spec
    w, areas = disc_nodes(spec)
    inv = mapping.invert()
    phi_abs, psi_abs = np.empty(w.shape), np.empty(w.shape)
    rows = max(1, _BLOCK_NODES // spec.n_theta)
    for i in range(0, spec.n_r, rows):
        block = w[i:i + rows]
        phi_abs[i:i + rows] = np.abs(mapping.derivative(inv.eval(block)))
        psi_abs[i:i + rows] = np.abs(inv.derivative(block))
    return w, areas, phi_abs, psi_abs


def brennan_direct(mapping: ConformalMap, s: float, spec: DiscGridSpec | None = None,
                   tol: float = 1e-6, max_levels: int = 8) -> QuadResult:
    """Integral of |phi'|^s over the map's domain, computed on the disc.

    The change of variables z = psi(w) turns the integrand into
    |psi'(w)|^(2-s), which is evaluated directly; s = 2 reproduces the disc
    area pi exactly at every level.
    """
    if not math.isfinite(s):
        raise InvalidExponents("s must be finite")
    return inverse_brennan(mapping, 2.0 - float(s), spec, tol, max_levels)


def inverse_brennan(mapping: ConformalMap, alpha: float, spec: DiscGridSpec | None = None,
                    tol: float = 1e-6, max_levels: int = 8) -> QuadResult:
    """Integral of |psi'|^alpha over the unit disc, psi the map from the disc.

    The integrand is J(w, psi)^(alpha/2), with J = |psi'|^2 the map's real
    Jacobian (``ConformalMap.jacobian``), so no complex derivative is taken.
    A power that overflows is not warned about; the node it overflows at
    raises IntegrandNotFinite.
    """
    if not math.isfinite(alpha):
        raise InvalidExponents("alpha must be finite")
    inv = mapping.invert() if mapping.direction is Direction.TO_DISC else mapping
    e = 0.5 * float(alpha)

    def integrand(w):
        jac = inv.jacobian(w)  # a fresh array, so the power may overwrite it
        with np.errstate(over="ignore"):
            return np.power(jac, e, out=jac)

    return integrate_disc(integrand, spec, tol, max_levels)


def kpq_norm(mapping: ConformalMap, p: float, q: float, spec: DiscGridSpec | None = None,
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
    res = brennan_direct(mapping, s, spec, tol, max_levels)
    ex = (p - q) / (p * q)
    levels = tuple(v**ex for v in res.level_values)
    err = abs(levels[-1] - levels[-2]) if len(levels) >= 2 else 0.0
    return QuadResult(value=levels[-1], error_estimate=err, levels_used=res.levels_used,
                      verdict=res.verdict, level_values=levels)

"""Admissible exponent algebra and Poincare-Sobolev constant estimates.

The algebra side is exact arithmetic on the exponent relations that govern
gradient composition bounds: the conjugation q(p, s) = ps/(p + s - 2) and the
(q, r) ranges determined by an integrability floor alpha0 of the inverse-map
derivative.  The analytic side computes the disc constant K of the inequality
||f||_{L_r} <= K ||grad f||_{L_2} for every r >= 1 by one radial iteration
(inverse iteration at r = 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ExponentOutOfRange, IterationDivergence
from .fields import PolarGrid
from .poisson import solve_radial
from .util import pairwise_sum

# integrability floor used by default: |psi'|^alpha is known integrable on
# the disc down to alpha0 = 2 - 3.752 for every simply connected domain
DEFAULT_ALPHA0 = -1.752
_TOL = 1e-13  # relative change of K at which poincare_constant_disc's iteration stops
_MAX_ITERATIONS = 10_000  # that iteration's safety bound


def q_from_ps(p: float, s: float) -> float:
    """Conjugated exponent q(p, s) = ps/(p + s - 2), for p > 2, 4/3 < s <= 4.

    s = 2 returns q = 2 for every p (the conformal case); the upper endpoint
    s = 4 is admitted so the extremal pair (4, 4) -> 8/3 is expressible.
    """
    if not (math.isfinite(p) and p > 2.0):
        raise ExponentOutOfRange(f"p must exceed 2, got {p}")
    if not (math.isfinite(s) and 4.0 / 3.0 < s <= 4.0):
        raise ExponentOutOfRange(f"s must lie in (4/3, 4], got {s}")
    # (p - 2) + s keeps the denominator exactly p when s = 2, so q == 2.0
    return p * s / ((p - 2.0) + s)


@dataclass(frozen=True)
class ExponentBounds:
    """Admissible ranges below a given p: q in [1, q_max], r in [1, r_max)."""

    p_min: float
    q_max: float
    r_max: float
    conjectural: bool  # True when computed at the unproven floor alpha0 = -2


def exponent_bounds(p: float, alpha0: float) -> ExponentBounds:
    """Bounds q_max = p|a0|/(2+|a0|-p) and r_max = (2p/(2-p))(|a0|/(2+|a0|)).

    Requires -2 <= alpha0 < 0 and p_min(alpha0) < p < 2 where
    p_min = (|a0|+2)/(|a0|+1).  The endpoint alpha0 = -2 is admitted but
    flagged conjectural; there q_max degenerates to exactly 2p/(4-p).
    """
    if not (math.isfinite(alpha0) and -2.0 <= alpha0 < 0.0):
        raise ExponentOutOfRange(f"alpha0 must lie in [-2, 0), got {alpha0}")
    a = abs(alpha0)
    p_min = (a + 2.0) / (a + 1.0)
    if not (math.isfinite(p) and p_min < p < 2.0):
        raise ExponentOutOfRange(f"p must lie in ({p_min!r}, 2) for alpha0={alpha0}, got {p}")
    # the a = 2 values bound both in exact arithmetic (equal only at a = 2); next
    # to a = 2 rounding can put a formula an ulp above its bound, which min undoes
    q_max = min(p * a / (2.0 + a - p), 2.0 * p / (4.0 - p))
    r_max = min((2.0 * p / (2.0 - p)) * (a / (2.0 + a)), p / (2.0 - p))
    return ExponentBounds(p_min=p_min, q_max=q_max, r_max=r_max,
                          conjectural=(alpha0 == -2.0))


@dataclass(frozen=True)
class ConstantEstimate:
    value: float
    tolerance: float
    iterations: int


def poincare_constant_disc(r: float, grid: PolarGrid) -> ConstantEstimate:
    """Disc constant K(r) of ||f||_{L_r} <= K ||grad f||_{L_2} for zero-trace f.

    The extremal is radial (Polya-Szego), so K is found on the rings, of areas A:
    from u = 1 - r^2, each step solves lap v = -g, g = u^(r-1), reads K = ||v||_r /
    sqrt(<v, g>_A), where <v, g>_A is v's gradient energy, and sets u = v / max v,
    until successive K agree to ``_TOL`` relative.  At r = 2 this is inverse
    iteration, K = 1/sqrt(lambda_1).
    """
    if not (math.isfinite(r) and r >= 1.0):
        raise ExponentOutOfRange(f"r must be at least 1, got {r}")
    ring = grid.n_theta * grid.cell_areas[:, 0]
    u, k_prev = 1.0 - grid.r ** 2, math.inf
    for it in range(1, _MAX_ITERATIONS + 1):
        g = u ** (r - 1.0)
        v = solve_radial(-g)
        k = pairwise_sum(v ** r * ring) ** (1.0 / r) / math.sqrt(pairwise_sum(v * g * ring))
        if abs(k - k_prev) <= _TOL * k:
            return ConstantEstimate(value=k, tolerance=_TOL, iterations=it)
        k_prev = k
        u = v / v.max()
    raise IterationDivergence(f"K did not settle to {_TOL} in {_MAX_ITERATIONS} iterations")


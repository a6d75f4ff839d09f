"""Admissible exponent algebra and Poincare-Sobolev constant estimates.

The algebra side is exact arithmetic on the exponent relations that govern
gradient composition bounds: the conjugation q(p, s) = ps/(p + s - 2) and the
(q, r) ranges determined by an integrability floor alpha0 of the inverse-map
derivative.  The analytic side estimates the disc constant K of the
inequality ||f||_{L_r} <= K ||grad f||_{L_2}: exactly (via the first
Laplacian eigenvalue) for r = 2, and otherwise from below by a bump family,
tabulated one bump at a time on a grid of at least 32 nodes per direction.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (EstimateNotUsable, ExponentOutOfRange, GridTooCoarse,
                     IterationDivergence)
from .fields import PolarGrid, TestBump, _bump_tables, make_bump_family
from .poisson import solve_radial
from .util import pairwise_sum

# integrability floor used by default: |psi'|^alpha is known integrable on
# the disc down to alpha0 = 2 - 3.752 for every simply connected domain
DEFAULT_ALPHA0 = -1.752
# relative change of the Rayleigh quotient at which disc_eigenvalue stops
_EIGEN_TOL = 1e-10
_EIGEN_MAX_ITERATIONS = 10_000  # disc_eigenvalue's safety bound on its iterations
_BUMP_MIN_NODES = 32  # bump-route grid floor per direction; 8 x 8 read 3.1 K(3)


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


class EstimateMethod(str, enum.Enum):
    EIGEN_RAYLEIGH = "EigenRayleigh"
    BUMP_FAMILY_MAX = "BumpFamilyMax"


@dataclass(frozen=True)
class ConstantEstimate:
    value: float
    method: EstimateMethod
    tolerance: float
    iterations: int


def disc_eigenvalue(grid: PolarGrid) -> tuple[float, int]:
    """Smallest Dirichlet eigenvalue of -Laplacian on the disc, discretized.

    Inverse power iteration: each step solves lap y = -x with the radial
    solver and renormalizes.  The first eigenfunction is radial, and so is
    every iterate from the constant start, so x lives on the n_r rings; each
    ring weighs n_theta cells, which for a power-of-two n_theta gives the
    same sums as the full grid.  The Rayleigh quotient of the inverse
    operator, mu = <y, x>/<x, x> (area weighted), converges to 1/lambda_1;
    iteration stops when successive quotients agree to ``_EIGEN_TOL`` relative.
    """
    ring = grid.n_theta * grid.cell_areas[:, 0]
    x = np.ones(grid.n_r)
    mu_prev = math.inf
    for it in range(1, _EIGEN_MAX_ITERATIONS + 1):
        y = solve_radial(-x)
        mu = pairwise_sum(y * x * ring) / pairwise_sum(x * x * ring)
        if abs(mu - mu_prev) <= _EIGEN_TOL * abs(mu):
            return 1.0 / mu, it
        mu_prev = mu
        x = y / math.sqrt(pairwise_sum(y * y * ring))
    raise IterationDivergence(f"Rayleigh quotient did not settle to {_EIGEN_TOL} "
                              f"in {_EIGEN_MAX_ITERATIONS} iterations")


def poincare_constant_disc(r: float, grid: PolarGrid,
                           bumps: list[TestBump] | None = None) -> ConstantEstimate:
    """Disc constant of ||f||_{L_r} <= K ||grad f||_{L_2} for zero-trace f.

    r = 2 is solved exactly (to discretization) as K = 1/sqrt(lambda_1) by
    inverse power iteration on the discrete Dirichlet Laplacian.  Other r
    have no elementary sharp constant; the estimate is then the maximum of
    ||b||_r / ||grad b||_2 over a seeded bump family, which bounds K from
    below in exact arithmetic but never claims sharpness.  The midpoint rule
    lifts it above K on coarse grids, so below 32 nodes per direction, where
    bumps of radius >= 0.1 are not resolved, it raises GridTooCoarse.  A
    bump whose sums overflow, or a family in which none gives a nonzero
    finite ratio (sums that underflow), raises EstimateNotUsable.
    """
    if not (math.isfinite(r) and r >= 1.0):
        raise ExponentOutOfRange(f"r must be at least 1, got {r}")
    if r == 2.0:
        lam, its = disc_eigenvalue(grid)
        return ConstantEstimate(value=1.0 / math.sqrt(lam),
                                method=EstimateMethod.EIGEN_RAYLEIGH,
                                tolerance=_EIGEN_TOL, iterations=its)
    if grid.n_r < _BUMP_MIN_NODES or grid.n_theta < _BUMP_MIN_NODES:
        raise GridTooCoarse(f"the bump route needs at least {_BUMP_MIN_NODES} nodes per "
                            f"direction, got {grid.n_r}x{grid.n_theta}")
    if bumps is None:
        bumps = make_bump_family(64)
    best = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in _bump_tables(bumps, grid, r):
            if not (math.isfinite(t.norm) and math.isfinite(t.energy)):
                raise EstimateNotUsable(f"a bump's sums overflow: ||b||_r = {t.norm}, "
                                        f"||grad b||_2^2 = {t.energy}")
            if t.energy != 0.0:
                best = max(best, t.norm / t.energy ** 0.5)
    if not 0.0 < best < math.inf:
        raise EstimateNotUsable(f"no bump gave a nonzero finite ratio (best {best}); "
                                "their sums underflow or miss the grid")
    return ConstantEstimate(value=best, method=EstimateMethod.BUMP_FAMILY_MAX,
                            tolerance=0.0, iterations=len(bumps))

"""Scalar fields on the unit disc: sampled grids, smooth test bumps, norms.

Test functions are closed-form bumps evaluated analytically (value and
gradient), so composing them with a conformal map costs no interpolation
error; the pulled-back checks below then run at pure quadrature accuracy.
A bump is summed on a disc grid only on its support rows, the only rows
``ring_nodes`` forms nodes on, adding only the pairs of the grid's summation
tree they meet: ``_bump_tables`` gives its L_r norms and Dirichlet energies,
``poisson.weak_residual`` its weak-form pairings, and ``_pulled_back_sums`` its
sums against a stream of ``disc_nodes`` blocks.  Solutions are radial ring columns.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import KpqDivergent
from .maps import ConformalMap, _square_modulus
from .quadrature import CHECK_SPEC, DiscGridSpec, Verdict, kpq_norm, pull_back, ring_nodes
from .util import pairwise_sum


@dataclass(frozen=True)
class PolarGrid:
    """Uniform polar grid, nodes r_i e^{i theta_j}, r_i = (i+1/2)/n_r, theta_j = 2*pi*j/n_theta.

    Nodes sit at radial cell midpoints, so neither r=0 nor r=1 is sampled;
    theta wraps periodically.  As for a ``DiscGridSpec``, ``r``, ``phase`` and
    ``cell_areas`` describe it.
    """

    n_r: int
    n_theta: int

    def __post_init__(self):
        if self.n_r < 2 or self.n_theta < 2:
            raise ValueError("grid needs at least 2 nodes in each direction")

    @cached_property
    def r(self) -> np.ndarray:
        return (np.arange(self.n_r) + 0.5) / self.n_r

    @cached_property
    def phase(self) -> np.ndarray:  # e^{i theta_j}: its real and imaginary parts are cos, sin
        return np.exp(1j * (2.0 * np.pi * np.arange(self.n_theta) / self.n_theta))

    @cached_property
    def cell_areas(self) -> np.ndarray:
        dr = 1.0 / self.n_r
        dtheta = 2.0 * np.pi / self.n_theta
        return np.broadcast_to((self.r * dr * dtheta)[:, None],
                               (self.n_r, self.n_theta))


@dataclass(frozen=True)
class TestBump:
    """Smooth bump b(w) = amplitude * exp(1 - 1/(1 - t^2)), t = |w - center|/radius.

    Vanishes with all derivatives at t = 1; the closed support disc must lie
    inside the unit disc.  b(center) = amplitude.
    """

    center: complex
    radius: float
    amplitude: float = 1.0

    def __post_init__(self):
        c = complex(self.center)
        if not cmath.isfinite(c):
            raise ValueError("center must be finite")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError("radius must be positive and finite")
        if abs(c) + self.radius >= 1.0:
            raise ValueError("closed support disc must lie inside the unit disc")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        object.__setattr__(self, "center", c)

    def value(self, w) -> np.ndarray:
        t2 = _square_modulus(np.asarray(w, dtype=complex) - self.center) / self.radius**2
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            body = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - t2))
        return np.where(t2 < 1.0, body, 0.0)

    def gradient(self, w) -> np.ndarray:
        """Cartesian gradient packed as d/dx + i*d/dy."""
        d = np.asarray(w, dtype=complex) - self.center
        t2 = _square_modulus(d) / self.radius**2
        # with s = t^2: db/ds = -b/(1-s)^2 and grad s = 2*d/radius^2
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            b = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - t2))
            slope = np.where(t2 < 1.0, -2.0 * b / (1.0 - t2) ** 2, 0.0)
        return slope * d / self.radius**2


def make_bump_family(count: int, rng: np.random.Generator) -> list[TestBump]:
    """Random bumps drawn from ``rng``, closed supports inside |w| <= 0.9."""
    if count < 1:
        raise ValueError("count must be positive")
    bumps = []
    for _ in range(count):
        radius = rng.uniform(0.1, 0.3)
        rho = rng.uniform(0.0, 0.9 - radius)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.5, 2.0)
        bumps.append(TestBump(center=rho * np.exp(1j * ang), radius=radius,
                              amplitude=amp))
    return bumps


def _support_rows(b: TestBump, radii: np.ndarray) -> slice:
    """Rows whose ring radius meets [|c| - rho, |c| + rho], padded by one row.

    ``radii`` ascend; b and |grad b| are exactly +0.0 on every other row.
    """
    c = abs(b.center)
    lo = int(np.searchsorted(radii, c - b.radius)) - 1
    hi = int(np.searchsorted(radii, c + b.radius, side="right")) + 1
    return slice(max(lo, 0), hi)


def _row_sum(part: np.ndarray, rows: slice, grid: PolarGrid | DiscGridSpec) -> float:
    """The whole-grid pairwise_sum of ``part`` * cell areas on ``rows`` and +0.0 off them."""
    return pairwise_sum(part * grid.cell_areas[rows], rows.start * grid.n_theta,
                        grid.n_r * grid.n_theta)


def _pulled_back_sums(blocks, spec: DiscGridSpec, terms) -> list[float]:
    """The ``_row_sum`` of f(sub, *data) for each (rows, f) of ``terms``, from one block stream.

    ``blocks`` yields (block, *data) on the blocks of ``disc_nodes(spec)``, as ``pull_back``
    does; f gets each data array on the rows of a block that meet ``rows``, and ``sub`` selects
    them in a table from ``rows.start``.  Each block is an aligned subtree of the grid's
    summation tree, so the block sums, summed pairwise, keep the whole-grid bits.
    """
    sums = [[] for _ in terms]
    for block, *data in blocks:
        for acc, (rows, f) in zip(sums, terms):
            lo, hi = max(block.start, rows.start), min(block.stop, rows.stop)
            at = slice(lo - block.start, hi - block.start)
            acc.append(0.0 if lo >= hi else pairwise_sum(
                f(slice(lo - rows.start, hi - rows.start), *(d[at] for d in data))
                * spec.cell_areas[lo:hi], at.start * spec.n_theta, data[0].size))
    return [pairwise_sum(acc) for acc in sums]


@dataclass(frozen=True)
class _BumpTable:
    """One bump on its support rows of a disc grid, with its disc-side sums."""

    rows: slice
    grad2: np.ndarray          # |grad b|^2 on rows
    energy: float              # integral of |grad b|^2 over the disc
    r: float | None            # exponent of the L_r norm, if tabulated
    power: np.ndarray | None   # |b|^r on rows
    norm: float | None         # ||b||_{L_r(D)}


def _bump_tables(bumps: list[TestBump], grid: PolarGrid | DiscGridSpec,
                 r: float | None = None) -> Iterator[_BumpTable]:
    """Each bump's |grad b|^2, and |b|^r when ``r`` is given, on its support rows.

    ``grid``'s ring radii ``r`` ascend down its rows.  Each table, built when
    the caller reaches it, holds the rows ``_support_rows`` picks, on which
    alone ``ring_nodes`` forms nodes, and the disc-side sums.
    """
    for b in bumps:
        rows = _support_rows(b, grid.r)
        w = ring_nodes(grid, rows)
        grad2 = np.abs(b.gradient(w)) ** 2
        power = norm = None
        if r is not None:
            power = np.abs(b.value(w)) ** r
            norm = _row_sum(power, rows, grid) ** (1.0 / r)
        yield _BumpTable(rows, grad2, _row_sum(grad2, rows, grid), r, power, norm)


def _gap(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return abs(lhs - rhs) / rhs


def _pulled_back_checks(mapping: ConformalMap, spec: DiscGridSpec,
                        energies: list[_BumpTable], transfers: list[_BumpTable]
                        ) -> tuple[float, float, float]:
    """Mass, worst isometry gap and worst transfer defect from one pull-back.

    Every sum carries the one density h(psi) J(., psi) from ``pull_back``, formed
    once per block and identically one in exact arithmetic: the mass is its integral.
    The isometry gap compares each of ``energies``' Dirichlet energies with
    the density-weighted one; the transfer defect compares each of
    ``transfers``' L_r norms and energies with the density-weighted ones.
    """
    both = [*energies, *transfers]
    blocks = ((rows, np.multiply(h, jac, out=h)) for rows, h, jac in pull_back(mapping, spec))
    mass, *sums = _pulled_back_sums(blocks, spec, [
        (slice(0, spec.n_r), lambda sub, density: density),
        *((t.rows, lambda sub, density, t=t: t.grad2[sub] * density) for t in both),
        *((t.rows, lambda sub, density, t=t: t.power[sub] * density) for t in transfers)])
    iso = max([0.0] + [_gap(g, t.energy) for g, t in zip(sums, energies)])
    transfer = max([0.0] + [d for t, g, n in zip(transfers, sums[len(energies):], sums[len(both):])
                            for d in (_gap(n ** (1.0 / t.r), t.norm),
                                      _gap(math.sqrt(g), math.sqrt(t.energy)))])
    return mass, iso, transfer


# relative rounding allowance of the composition bound lhs <= K * rhs
_COMPOSITION_SLACK = 1e-6


@dataclass(frozen=True)
class CompositionRecord:
    """One bump's showing in the composition inequality."""

    lhs: float       # ||grad(f o phi)|| in L_q on the domain
    rhs: float       # ||grad f|| in L_p on the disc
    constant: float  # K_{p,q}
    passed: bool


def composition_inequality_check(mapping: ConformalMap, p: float, q: float,
                                 bumps: list[TestBump],
                                 spec: DiscGridSpec = CHECK_SPEC) -> list[CompositionRecord]:
    """Verify ||grad(f o phi)||_q <= K_{p,q} * ||grad f||_p per bump.

    The constant comes from kpq_norm; a non-converged constant integral
    raises KpqDivergent since the bound is then vacuous.  Both norms are
    summed on one node set, CHECK_SPEC by default.  Equality cases
    (p = q = 2) belong to the isometry check of ``verify`` instead.
    """
    if not bumps:
        raise ValueError("need at least one bump")
    kres = kpq_norm(mapping, p, q)
    if kres.verdict is not Verdict.CONVERGED:
        raise KpqDivergent(f"K_({p},{q}) integral verdict {kres.verdict.value} "
                           f"on {mapping.family.value}")
    big_k, tables = kres.value, list(_bump_tables(bumps, spec))
    sums = _pulled_back_sums(pull_back(mapping, spec), spec, [
        (t.rows, lambda sub, h, jac, t=t: (t.grad2[sub] * h) ** (q / 2.0) * jac) for t in tables])
    out = []
    for t, lhs in zip(tables, (s ** (1.0 / q) for s in sums)):
        rhs = _row_sum(t.grad2 ** (p / 2.0), t.rows, spec) ** (1.0 / p)
        out.append(CompositionRecord(lhs=lhs, rhs=rhs, constant=big_k,
                                     passed=lhs <= big_k * rhs * (1.0 + _COMPOSITION_SLACK)))
    return out

"""Dirichlet solver for the degenerate problem  lap u = f*h  on a model domain.

Conformal transfer does all the work: with v = u o psi the problem becomes
lap v = f o psi on the unit disc, because the Jacobian |psi'|^2 cancels the
weight h o psi exactly.  That disc problem is the same for every simply
connected domain, so the solve takes the right-hand side alone: both
right-hand sides are radial on the disc, assembly evaluates f o psi in
closed form at the n_r radii, and it queries neither the weight nor a map
and builds no node grid.  Only ``DiscSolution``, which pushes v forward to
u = v o phi, holds a map.  Unbounded domains (exterior, half plane, strip)
need no extra machinery for the same reason.

Radial data has a radial solution, so the disc solve is one second-order
tridiagonal system for v'' + v'/r = f on the cell-midpoint nodes
r_i = (i+1/2)h, closed across the origin (v at radius -r_0 is
v(r_0, theta+pi) = v(r_0)) and at r = 1 by the ghost v_n = -v_{n-1}, which
vanishes there to second order.  Each row balances the fluxes through two
cell edges, so a solve is two cumulative sums: the fluxes from the origin
outwards, then v from the boundary inwards.  The solution is that ring
column: off-node values interpolate it linearly in r, the weak residual
differences it radially, ``verify`` scores it ring by ring against the exact
solutions, and the pushed-forward CSV export hands the writer the column and
each row's ring index, so each ring's u is formatted once.  A lattice export
hands x and y over as their distinct values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, RhsNotFinite, SolutionNotFinite
from .fields import PolarGrid, TestBump, _row_sum, _support_rows
from .maps import ConformalMap
from .quadrature import ring_nodes
from .util import IndexedColumn, fmt_g, write_csv


@dataclass(frozen=True)
class RhsSpec:
    """Closed-form right-hand side f: ``evaluate`` on the domain, ``on_disc`` pulled back.

    ``const`` is f = value everywhere; ``quartic`` (no value) is the manufactured case
    f(z) = 16|phi(z)|^2 - 8, whose transferred solution is (1 - |w|^2)^2.
    Both are radial on the disc: f o psi is c, and 16|w|^2 - 8 because
    phi o psi is the identity (with an automorphism composed in too).
    """

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("const", "quartic"):
            raise ValueError(f"unknown rhs kind '{self.kind}'")
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ValueError("rhs constant must be finite")
        if self.kind == "quartic" and self.value:
            raise ValueError("the quartic rhs takes no constant")

    @property
    def label(self) -> str:
        return f"const:{fmt_g(self.value)}" if self.kind == "const" else "quartic"

    @classmethod
    def parse(cls, text: str) -> "RhsSpec":
        if text == "quartic":
            return cls("quartic")
        if text.startswith("const:"):
            return cls("const", float(text[len("const:"):]))
        raise ValueError(f"cannot parse rhs '{text}' (use 'const:<c>' or 'quartic')")

    def evaluate(self, z, mapping: ConformalMap) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if self.kind == "const":
            return np.full(z.shape, self.value)
        return 16.0 * np.abs(mapping.eval(z)) ** 2 - 8.0

    def on_disc(self, r) -> np.ndarray:
        """f o psi at disc radius ``r``, as floats of r's shape."""
        r = np.asarray(r, dtype=float)
        if self.kind == "const":
            return np.full(r.shape, self.value)
        return 16.0 * r**2 - 8.0


def solve_radial(f: np.ndarray) -> np.ndarray:
    """Solve v'' + v'/r = f on the nodes r_i = (i+1/2)h, h = 1/n, v(1) = 0, n = len(f).

    Row i times r_i h^2 is the flux balance F_{i+1} - F_i = h^2 r_i f_i, with
    F_j = e_j(v_j - v_{j-1}) on the edges e_j = jh and e_0 = 0: F is a cumulative
    sum, the ghost v_n = -v_{n-1} gives v_{n-1} = -F_n/2, and v_{j-1} = v_j - F_j/e_j.
    """
    n, h = len(f), 1.0 / len(f)
    flux = h * h * np.cumsum((np.arange(n) + 0.5) / n * f)
    steps = np.append(-flux[:-1] / (np.arange(1, n) * h), -0.5 * flux[-1])
    return np.cumsum(steps[::-1])[::-1]


def _ring_column(column, grid: PolarGrid) -> np.ndarray:
    """``column`` as floats, checked to hold one finite value per ring of ``grid``."""
    column = np.asarray(column, dtype=float)
    if column.shape != (grid.n_r,):
        raise ValueError(f"column shape {column.shape} does not match the grid's "
                         f"{grid.n_r} rings")
    if not (math.isfinite(column.min()) and math.isfinite(column.max())):
        raise ValueError("solution column must be finite")
    return column


@dataclass(frozen=True)
class DiscSolution:
    """Transferred solution v on the disc grid plus the map that pushes it forward.

    ``column`` is what ``solve_dirichlet`` returns; ``mapping``, phi with psi
    its ``inverse``, names the domain, and u(z) := v(phi(z)) is the solution of
    that domain's weighted problem.  Radial data has a radial solution, so v is
    its ring ``column``: one finite value per grid radius, shape (n_r,).  Off-node
    evaluation is linear in r on the column with the exact boundary value 0
    at r = 1 appended; below the first ring it takes the first ring's value.
    """

    grid: PolarGrid
    column: np.ndarray
    mapping: ConformalMap

    def __post_init__(self):
        object.__setattr__(self, "column", _ring_column(self.column, self.grid))

    def eval_domain(self, z) -> np.ndarray:
        """u(z) = v(phi(z)) at interior points; 0 where phi(z) rounds onto |w| = 1."""
        w = self.mapping.eval(z)
        out = np.interp(np.abs(w), np.append(self.grid.r, 1.0), np.append(self.column, 0.0))
        return out if np.ndim(w) else float(out)

    def to_csv(self, target, lattice: np.ndarray | None = None,
               preamble: str = "") -> None:
        """Write ``preamble`` and `x,y,u` rows: the grid pushed forward, or a lattice.

        With ``lattice`` (complex points), rows cover exactly the points the
        domain membership predicate accepts; without it, x+iy = psi(w) over
        the grid nodes with the nodal solution values.  Columns that repeat
        (pushed-forward u, lattice x and y) go to the writer as IndexedColumns.
        Every column exists before ``target`` is opened, so a failure leaves a
        path as it was.
        """
        if lattice is None:
            z = self.mapping.inverse(ring_nodes(self.grid))
            rings = np.broadcast_to(np.arange(self.grid.n_r)[:, None], z.shape)
            cols = (z.real, z.imag, IndexedColumn(self.column, rings))
        else:
            pts = np.ravel(np.asarray(lattice, dtype=complex))
            z = pts[self.mapping.contains(pts)]
            u = self.eval_domain(z)  # before the distinct columns, which lowers the peak
            cols = (IndexedColumn.distinct(z.real), IndexedColumn.distinct(z.imag), u)
        write_csv(target, ("x", "y", "u"), cols, preamble)


def solve_dirichlet(rhs: RhsSpec, grid: PolarGrid) -> np.ndarray:
    """Solve the transferred problem lap v = f o psi on the disc; return its ring column.

    f o psi is evaluated once per ring and solved radially; the solution is
    the ring column of n_r values, so the solve allocates O(n_r) bytes
    whatever n_theta is.  Raises RhsNotFinite if f o psi is not finite at
    every node, and SolutionNotFinite if a finite f overflows in the solve.
    """
    f = rhs.on_disc(grid.r)
    if not np.all(np.isfinite(f)):
        bad = complex(grid.r[~np.isfinite(f)][0])  # the node at theta = 0
        raise RhsNotFinite(f"right-hand side is not finite at psi({bad})")
    with np.errstate(over="ignore", invalid="ignore"):
        v = solve_radial(f)
    if not np.all(np.isfinite(v)):
        bad = float(grid.r[~np.isfinite(v)][0])
        raise SolutionNotFinite(f"solution is not finite at radius {bad} "
                                "(the right-hand side overflows the solve)")
    return v


def weak_residual(grid: PolarGrid, column: np.ndarray, rhs: RhsSpec,
                  bumps: list[TestBump]) -> tuple[float, ...]:
    """Defects |<grad v, grad b> + <f o psi, b>| of the weak identity, one per bump.

    ``column`` is v's ring column on ``grid``, and both pairings are disc
    integrals, because the transfer identities reduce them there:
    <grad u, grad b>_Omega = <grad v, grad b>_D and <f, b>_h = <f o psi, b>_D.
    Under the strong form lap u = f*h the two must cancel.  Each bump is
    summed on its support rows, with the bits of the whole-grid sums.
    """
    if not bumps:
        raise ValueError("need at least one test bump")
    if grid.n_r < 16 or grid.n_theta < 16:
        raise GridTooCoarse(f"weak_residual needs at least 16 nodes per direction, "
                            f"got {grid.n_r}x{grid.n_theta}")
    # second-order radial differences of the ring column; across the origin
    # v(-r_0) = v(r_0), and the outer ring takes a one-sided 3-point stencil
    v, h = _ring_column(column, grid), 1.0 / grid.n_r
    dv = np.empty_like(v)
    dv[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    dv[0] = (v[1] - v[0]) / (2.0 * h)
    dv[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    cos, sin = grid.phase.real, grid.phase.imag
    res = []
    for b in bumps:
        rows = _support_rows(b, grid.r)
        w, dr = ring_nodes(grid, rows), dv[rows, None]
        gb = b.gradient(w)
        pair = _row_sum(dr * cos * gb.real + dr * sin * gb.imag, rows, grid)
        load = _row_sum(rhs.on_disc(np.abs(w)) * b.value(w), rows, grid)
        res.append(abs(pair + load))
    return tuple(res)


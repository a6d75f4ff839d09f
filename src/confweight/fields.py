"""Scalar fields on the unit disc: sampled grids, smooth test bumps, norms.

Test functions are closed-form bumps evaluated analytically (value and
gradient), so composing them with a conformal map costs no interpolation
error; the pullback checks below then run at pure quadrature accuracy.
Sampled values on a uniform polar grid are plain arrays at
``PolarGrid.nodes``, which ``lp_norm`` integrates; the solver's solutions
are radial, and ``poisson`` keeps each as its ring column.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidExponents, KpqDivergent
from .maps import ConformalMap
from .quadrature import DiscGridSpec, Verdict, kpq_norm, pull_back
from .util import default_seed, pairwise_sum


@dataclass(frozen=True)
class PolarGrid:
    """Uniform polar grid, nodes r_i = (i+1/2)/n_r, theta_j = 2*pi*j/n_theta.

    Nodes sit at radial cell midpoints, so neither r=0 nor r=1 is sampled;
    theta wraps periodically.
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
    def theta(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta

    @cached_property
    def nodes(self) -> np.ndarray:
        """Complex node positions, shape (n_r, n_theta)."""
        return self.r[:, None] * np.exp(1j * self.theta)[None, :]

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

    def _t2(self, w: np.ndarray) -> np.ndarray:
        d = w - self.center
        return (d.real**2 + d.imag**2) / self.radius**2

    def value(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=complex)
        t2 = self._t2(w)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            body = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - t2))
        return np.where(t2 < 1.0, body, 0.0)

    def gradient(self, w) -> np.ndarray:
        """Cartesian gradient packed as d/dx + i*d/dy."""
        w = np.asarray(w, dtype=complex)
        d = w - self.center
        t2 = self._t2(w)
        # with s = t^2: db/ds = -b/(1-s)^2 and grad s = 2*d/radius^2
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            b = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - t2))
            slope = np.where(t2 < 1.0, -2.0 * b / (1.0 - t2) ** 2, 0.0)
        return slope * d / self.radius**2


def make_bump_family(count: int, rng: np.random.Generator | None = None) -> list[TestBump]:
    """Reproducible random bumps, closed supports inside |w| <= 0.9."""
    if count < 1:
        raise ValueError("count must be positive")
    if rng is None:
        rng = np.random.default_rng(default_seed())
    bumps = []
    for _ in range(count):
        radius = rng.uniform(0.1, 0.3)
        rho = rng.uniform(0.0, 0.9 - radius)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.5, 2.0)
        bumps.append(TestBump(center=rho * np.exp(1j * ang), radius=radius,
                              amplitude=amp))
    return bumps


def lp_norm(grid: PolarGrid, values, p: float) -> float:
    """(integral of |f|^p)^(1/p) over the disc by the grid midpoint rule.

    ``values`` are the finite samples of f at ``grid.nodes``.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise InvalidExponents(f"p must satisfy p >= 1, got {p}")
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_r, grid.n_theta):
        raise ValueError(f"values shape {values.shape} does not match grid "
                         f"{(grid.n_r, grid.n_theta)}")
    # min and max propagate NaN and +-inf without a full-size temporary
    if not (math.isfinite(values.min()) and math.isfinite(values.max())):
        raise ValueError("field values must all be finite")
    cells = np.abs(values) ** p * grid.cell_areas
    return float(pairwise_sum(cells)) ** (1.0 / p)


def isometry_check(mapping: ConformalMap, bumps: list[TestBump],
                   spec: DiscGridSpec | None = None) -> float:
    """Max relative gap between the domain-side and disc Dirichlet energies.

    Both energies are evaluated on the same fixed node set (CHECK_SPEC by
    default), so the reported gap isolates the conformal factor
    |phi'(psi(w))*psi'(w)|^2 from shared quadrature error.
    """
    if not bumps:
        raise ValueError("need at least one bump")
    w, areas, phi_abs, psi_abs = pull_back(mapping, spec)
    factor = (phi_abs * psi_abs) ** 2
    del phi_abs, psi_abs  # the bump loop holds only the product
    worst = 0.0
    for b in bumps:
        g2 = np.abs(b.gradient(w)) ** 2
        e_disc = pairwise_sum(g2 * areas)
        e_omega = pairwise_sum(g2 * factor * areas)
        if e_disc == 0.0:
            dev = 0.0 if e_omega == 0.0 else math.inf
        else:
            dev = abs(e_omega - e_disc) / e_disc
        worst = max(worst, dev)
    return worst


@dataclass(frozen=True)
class CompositionRecord:
    """One bump's showing in the composition inequality."""

    lhs: float       # ||grad(f o phi)|| in L_q on the domain
    rhs: float       # ||grad f|| in L_p on the disc
    constant: float  # K_{p,q}
    passed: bool


def composition_inequality_check(mapping: ConformalMap, p: float, q: float,
                                 bumps: list[TestBump],
                                 spec: DiscGridSpec | None = None,
                                 slack: float = 1e-6) -> list[CompositionRecord]:
    """Verify ||grad(f o phi)||_q <= K_{p,q} * ||grad f||_p per bump.

    The constant comes from kpq_norm; a non-converged constant integral
    raises KpqDivergent since the bound is then vacuous.  Both norms are
    summed on one node set, CHECK_SPEC by default.  Equality cases
    (p = q = 2) belong to isometry_check instead.
    """
    if not bumps:
        raise ValueError("need at least one bump")
    kres = kpq_norm(mapping, p, q)
    if kres.verdict is not Verdict.CONVERGED:
        raise KpqDivergent(f"K_({p},{q}) integral verdict {kres.verdict.value} "
                           f"on {mapping.family.value}")
    big_k = kres.value
    w, areas, phi_prime, psi_abs = pull_back(mapping, spec)
    jac2 = psi_abs**2
    del psi_abs
    out = []
    for b in bumps:
        g = np.abs(b.gradient(w))
        rhs = float(pairwise_sum(g**p * areas)) ** (1.0 / p)
        lhs = float(pairwise_sum((g * phi_prime) ** q * jac2 * areas)) ** (1.0 / q)
        out.append(CompositionRecord(lhs=lhs, rhs=rhs, constant=big_k,
                                     passed=lhs <= big_k * rhs * (1.0 + slack)))
    return out

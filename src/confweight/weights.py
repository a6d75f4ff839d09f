"""Conformal weights h(z) = |phi'(z)|^2 and their diagnostics.

The weight of a TO_DISC map turns Lebesgue measure on Omega into the
pullback of Lebesgue measure on the disc: integrating h over Omega always
yields the disc area pi, whatever the domain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainMismatch, RectangleNotInterior
from .maps import ConformalMap, Direction, MoebiusAutomorphism, sample_interior
from .util import as_complex_array, default_seed, pairwise_sum


@dataclass(frozen=True)
class WeightField:
    """The weight h = |phi'|^2 induced by a TO_DISC conformal map."""

    map: ConformalMap

    def __post_init__(self):
        if self.map.direction is not Direction.TO_DISC:
            raise ValueError("a weight field needs a TO_DISC map")

    @cached_property
    def _inverse(self) -> ConformalMap:
        return self.map.invert()

    def evaluate(self, z):
        arr, scalar = as_complex_array(z)
        h = np.abs(self.map.derivative(arr)) ** 2
        return float(h) if scalar else h

    def disc_density(self, w):
        """h(psi(w)) |psi'(w)|^2, the density of the pulled-back weighted measure.

        Identically 1 in exact arithmetic; evaluated as the honest product of
        the two derivative magnitudes so numerical checks stay meaningful.
        """
        arr, scalar = as_complex_array(w)
        z = self._inverse.eval(arr)
        dens = self.evaluate(z) * np.abs(self._inverse.derivative(arr)) ** 2
        return float(dens) if scalar else dens


def weight_equivalence_check(w1: WeightField, w2: WeightField, samples: int = 400,
                             rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Observed (min, max) of h2/h1 over interior samples of the shared domain.

    When w2's map is w1's map post-composed with an automorphism of parameter
    a, the ratio is |eta'|^2 at the image point, so it must land inside
    ``moebius_ratio_bounds(a)``.
    """
    if w1.map.family is not w2.map.family:
        raise DomainMismatch(
            f"cannot compare weights on '{w1.map.family.value}' and '{w2.map.family.value}'")
    if rng is None:
        rng = np.random.default_rng(default_seed())
    z = sample_interior(w1.map, samples, rng)
    ratio = w2.evaluate(z) / w1.evaluate(z)
    return float(ratio.min()), float(ratio.max())


def moebius_ratio_bounds(a: complex) -> tuple[float, float]:
    """Sharp bounds for the weight ratio induced by an automorphism parameter a."""
    lo, _ = MoebiusAutomorphism(a).derivative_magnitude_bounds()
    return lo**2, (1.0 / lo) ** 2


@dataclass(frozen=True)
class WeightClassReport:
    p: float
    compact_set: str
    in_class: bool
    integral_value: float


def weight_class_check(field: WeightField, p: float, rect: tuple[float, float, float, float],
                       n: int = 64) -> WeightClassReport:
    """Check the local integrability condition for h over a compact rectangle.

    For p > 1 the report integrates h^{1/(1-p)} over the rectangle with an
    n x n midpoint rule; for p = 1 it records the sample maximum of 1/h
    (an essential-sup estimate).  The rectangle must be strictly interior:
    every midpoint sample is required to be inside the domain.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError("the weight classes are defined for finite p >= 1")
    x0, x1, y0, y1 = map(float, rect)
    if not (np.isfinite([x0, x1, y0, y1]).all() and x0 < x1 and y0 < y1):
        raise ValueError("rectangle must be (x0, x1, y0, y1) with x0 < x1, y0 < y1")
    dx = (x1 - x0) / n
    dy = (y1 - y0) / n
    xs = x0 + (np.arange(n) + 0.5) * dx
    ys = y0 + (np.arange(n) + 0.5) * dy
    z = xs[:, None] + 1j * ys[None, :]
    inside = field.map.contains(z)
    if not np.all(inside):
        bad = z[~inside].ravel()[0]
        raise RectangleNotInterior(f"sample {bad} of the rectangle leaves the domain")
    h = field.evaluate(z)
    if p == 1.0:
        value = float((1.0 / h).max())
    else:
        value = pairwise_sum(h ** (1.0 / (1.0 - p)) * dx * dy)
    return WeightClassReport(p=float(p),
                             compact_set=f"[{x0:g},{x1:g}]x[{y0:g},{y1:g}]",
                             in_class=bool(np.isfinite(value)),
                             integral_value=value)

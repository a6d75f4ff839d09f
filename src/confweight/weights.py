"""Conformal weights h(z) = |phi'(z)|^2 and their diagnostics.

The weight of a TO_DISC map turns Lebesgue measure on Omega into the
pullback of Lebesgue measure on the disc: integrating h over Omega always
yields the disc area pi, whatever the domain.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatch
from .maps import ConformalMap, Direction, MoebiusAutomorphism, sample_interior
from .util import as_complex_array, default_seed


@dataclass(frozen=True)
class WeightField:
    """The weight h = |phi'|^2 induced by a TO_DISC conformal map."""

    map: ConformalMap

    def __post_init__(self):
        if self.map.direction is not Direction.TO_DISC:
            raise ValueError("a weight field needs a TO_DISC map")

    def evaluate(self, z):
        arr, scalar = as_complex_array(z)
        h = np.abs(self.map.derivative(arr)) ** 2
        return float(h) if scalar else h


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

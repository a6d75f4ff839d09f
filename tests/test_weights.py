"""The conformal weight h(z) = J(z, phi), the Jacobian of a map to the disc."""
import math

import numpy as np
import pytest

from confweight import (ConformalMap, DiscGridSpec, DomainFamily, MoebiusAutomorphism,
                        pairwise_sum, sample_interior)


def weight(name):
    return ConformalMap.to_disc(name).jacobian


def test_known_point_values():
    assert weight("exterior")(2.0 + 0.0j) == pytest.approx(0.0625, abs=1e-15)
    assert weight("halfplane")(1j) == pytest.approx(0.25, abs=1e-15)
    assert weight("strip")(0.0 + 0.0j) == pytest.approx(1.0, abs=1e-15)
    assert weight("disc")(0.3 + 0.4j) == 1.0
    # cardioid weight is 1/|z| away from the cusp
    assert weight("cardioid")(0.0625 + 0.0j) == pytest.approx(16.0, rel=1e-12)
    assert weight("slitplane")(0.0 + 0.0j) == pytest.approx(1.0, rel=1e-12)


def test_exterior_closed_form(rng):
    m = ConformalMap.to_disc("exterior")
    z = sample_interior(m, 200, rng=rng)
    expected = 1.0 / np.abs(z) ** 4
    assert np.abs(m.jacobian(z) - expected).max() < 1e-12


def test_halfplane_closed_form(rng):
    m = ConformalMap.to_disc("halfplane")
    z = sample_interior(m, 200, rng=rng)
    expected = 4.0 / np.abs(z + 1j) ** 4
    assert np.abs(m.jacobian(z) - expected).max() < 1e-12


@pytest.mark.parametrize("z", [0.5 + 0.0j, 0.3 + 10.0j, -0.7 + 0.2j])
def test_strip_real_closed_form(z):
    # h = |sec z|^4 and |cos z|^2 = (cos 2x + cosh 2y)/2
    expected = 4.0 / (math.cos(2.0 * z.real) + math.cosh(2.0 * z.imag)) ** 2
    assert weight("strip")(z) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_positivity(to_disc, rng):
    z = sample_interior(to_disc, 10_000, rng=rng)
    assert np.all(to_disc.jacobian(z) > 0.0)


def test_disc_density_is_unity(to_disc, rng, derivative):
    # the pulled-back weight h(psi(w)) |psi'(w)|^2, pointwise off any grid, with
    # psi' in closed form
    r = 0.05 + 0.9 * rng.uniform(size=300)
    w = r * np.exp(2j * np.pi * rng.uniform(size=300))
    density = to_disc.jacobian(to_disc.inverse(w)) * np.abs(derivative(to_disc, w, True)) ** 2
    assert np.abs(density - 1.0).max() < 1e-12


def test_mass_identity(to_disc, pulled_back):
    spec = DiscGridSpec(n_r=256, n_theta=256)
    phi_abs, psi_abs = pulled_back(to_disc, spec)
    total = pairwise_sum(phi_abs**2 * psi_abs**2 * spec.cell_areas)
    assert abs(total - math.pi) / math.pi < 1e-4


def _ratio_range(a, rotation, samples, rng):
    base = ConformalMap.to_disc("halfplane")
    tilted = ConformalMap(DomainFamily.HALFPLANE, MoebiusAutomorphism(a=a, rotation=rotation))
    z = sample_interior(base, samples, rng=rng)
    ratio = tilted.jacobian(z) / base.jacobian(z)
    return ratio.min(), ratio.max()


def test_equivalence_rotation_only(rng):
    lo, hi = _ratio_range(0.0, 1.2, 300, rng)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a", [0.0, 0.5, 0.9])
def test_equivalence_within_moebius_bounds(a, rng):
    # the ratio is |eta'|^2 at the image point, so it lies in [m^2, 1/m^2]
    lo, hi = _ratio_range(a, 0.3, 500, rng)
    m = MoebiusAutomorphism(a).derivative_magnitude_bounds()[0]
    assert m**2 - 1e-12 <= lo <= hi <= (1.0 / m) ** 2 + 1e-12


import math

import numpy as np
import pytest

from confweight import (ConformalMap, DiscGridSpec, DomainFamily,
                        DomainMismatch, MoebiusAutomorphism, WeightField,
                        compose_with_automorphism, moebius_ratio_bounds,
                        pairwise_sum, pull_back, sample_interior,
                        weight_equivalence_check)


def field(name):
    return WeightField(ConformalMap.to_disc(name))


def test_requires_to_disc_direction():
    with pytest.raises(ValueError):
        WeightField(ConformalMap.from_disc(DomainFamily.HALFPLANE))


def test_known_point_values():
    assert field("exterior").evaluate(2.0 + 0.0j) == pytest.approx(0.0625, abs=1e-15)
    assert field("halfplane").evaluate(1j) == pytest.approx(0.25, abs=1e-15)
    assert field("strip").evaluate(0.0 + 0.0j) == pytest.approx(1.0, abs=1e-15)
    assert field("disc").evaluate(0.3 + 0.4j) == 1.0
    # cardioid weight is 1/|z| away from the cusp
    assert field("cardioid").evaluate(0.0625 + 0.0j) == pytest.approx(16.0, rel=1e-12)
    assert field("slitplane").evaluate(0.0 + 0.0j) == pytest.approx(1.0, rel=1e-12)


def test_exterior_closed_form(rng):
    f = field("exterior")
    z = sample_interior(f.map, 200, rng=rng)
    expected = 1.0 / np.abs(z) ** 4
    assert np.abs(f.evaluate(z) - expected).max() < 1e-12


def test_halfplane_closed_form(rng):
    f = field("halfplane")
    z = sample_interior(f.map, 200, rng=rng)
    expected = 4.0 / np.abs(z + 1j) ** 4
    assert np.abs(f.evaluate(z) - expected).max() < 1e-12


@pytest.mark.parametrize("z", [0.5 + 0.0j, 0.3 + 10.0j, -0.7 + 0.2j])
def test_strip_real_closed_form(z):
    # h = |sec z|^4 and |cos z|^2 = (cos 2x + cosh 2y)/2
    expected = 4.0 / (math.cos(2.0 * z.real) + math.cosh(2.0 * z.imag)) ** 2
    assert field("strip").evaluate(z) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_positivity(to_disc, rng):
    f = WeightField(to_disc)
    z = sample_interior(to_disc, 10_000, rng=rng)
    assert np.all(f.evaluate(z) > 0.0)


def test_disc_density_is_unity(to_disc, rng):
    # the pulled-back weight h(psi(w)) |psi'(w)|^2, pointwise off any grid
    f, inv = WeightField(to_disc), to_disc.invert()
    r = 0.05 + 0.9 * rng.uniform(size=300)
    w = r * np.exp(2j * np.pi * rng.uniform(size=300))
    density = f.evaluate(inv.eval(w)) * np.abs(inv.derivative(w)) ** 2
    assert np.abs(density - 1.0).max() < 1e-12


def test_mass_identity(to_disc):
    spec = DiscGridSpec(n_r=256, n_theta=256)
    _, areas, phi_abs, psi_abs = pull_back(to_disc, spec)
    total = pairwise_sum(phi_abs**2 * psi_abs**2 * areas)
    assert abs(total - math.pi) / math.pi < 1e-4


def test_equivalence_rotation_only(rng):
    base = field("halfplane")
    eta = MoebiusAutomorphism(a=0.0, rotation=1.2)
    other = WeightField(compose_with_automorphism(base.map, eta))
    lo, hi = weight_equivalence_check(base, other, samples=300, rng=rng)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a", [0.5, 0.9])
def test_equivalence_within_moebius_bounds(a, rng):
    base = field("halfplane")
    eta = MoebiusAutomorphism(a=a, rotation=0.3)
    other = WeightField(compose_with_automorphism(base.map, eta))
    lo, hi = weight_equivalence_check(base, other, samples=500, rng=rng)
    blo, bhi = moebius_ratio_bounds(a)
    assert blo - 1e-12 <= lo <= hi <= bhi + 1e-12


def test_moebius_ratio_bound_values():
    assert moebius_ratio_bounds(0.0) == (1.0, 1.0)
    lo, hi = moebius_ratio_bounds(0.5)
    assert lo == pytest.approx(1.0 / 9.0)
    assert hi == pytest.approx(9.0)
    lo, hi = moebius_ratio_bounds(0.9)
    assert lo == pytest.approx(1.0 / 361.0)
    assert hi == pytest.approx(361.0)


@pytest.mark.parametrize("a", [complex("nan"), complex("inf"), float("nan")])
def test_moebius_ratio_bounds_rejects_non_finite(a):
    with pytest.raises(ValueError, match="must be finite"):
        moebius_ratio_bounds(a)


def test_equivalence_family_mismatch(rng):
    with pytest.raises(DomainMismatch):
        weight_equivalence_check(field("halfplane"), field("strip"), rng=rng)

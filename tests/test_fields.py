import math
import warnings

import numpy as np
import pytest

from confweight import (ConformalMap, DiscGridSpec, DomainFamily,
                        InvalidExponents, KpqDivergent, PolarGrid, TestBump,
                        composition_inequality_check, lp_norm,
                        make_bump_family)


def test_polar_grid_node_layout():
    g = PolarGrid(8, 16)
    assert g.r[0] == pytest.approx(0.5 / 8)
    assert g.r[-1] == pytest.approx(7.5 / 8)
    assert g.theta[0] == 0.0
    assert g.theta[1] == pytest.approx(2 * math.pi / 16)
    assert g.nodes.shape == (8, 16)
    assert np.all(np.abs(g.nodes) < 1.0)


def test_polar_grid_cell_areas_cover_disc():
    g = PolarGrid(64, 64)
    assert float(g.cell_areas.sum()) == pytest.approx(math.pi, rel=1e-12)


def test_bump_shape_and_support():
    b = TestBump(center=0.2 + 0.1j, radius=0.3, amplitude=1.5)
    assert b.value(0.2 + 0.1j) == pytest.approx(1.5)
    assert b.value(0.2 + 0.1j + 0.31) == 0.0
    assert b.value(0.2 + 0.1j + 0.3) == 0.0  # support is the open disc
    inside = b.value(0.2 + 0.1j + 0.15)
    assert 0.0 < inside < 1.5


def test_bump_value_is_quiet_just_outside_the_support():
    # exp(1 - 1/(1 - t^2)) = exp(709.5) is finite here, amplitude times it is not
    b = TestBump(0j, 0.5, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert b.value([0.5 * math.sqrt(1.0 + 1.0 / 708.5)])[0] == 0.0


def test_bump_requires_support_inside_disc():
    with pytest.raises(ValueError):
        TestBump(center=0.8 + 0.0j, radius=0.3)
    with pytest.raises(ValueError):
        TestBump(center=0.0j, radius=-0.1)
    for center in (complex("nan"), float("nan"), complex(0.1, float("nan"))):
        with pytest.raises(ValueError, match="center must be finite"):
            TestBump(center=center, radius=0.2)


def test_bump_gradient_matches_finite_differences():
    b = TestBump(center=-0.1 + 0.25j, radius=0.4, amplitude=0.8)
    h = 1e-7
    pts = np.array([-0.1 + 0.25j, 0.05 + 0.3j, -0.3 + 0.1j, 0.1 + 0.45j])
    gx = (b.value(pts + h) - b.value(pts - h)) / (2 * h)
    gy = (b.value(pts + 1j * h) - b.value(pts - 1j * h)) / (2 * h)
    g = b.gradient(pts)
    assert np.abs(g.real - gx).max() < 1e-6
    assert np.abs(g.imag - gy).max() < 1e-6
    # gradient vanishes outside the support
    assert np.all(b.gradient(np.array([0.9 + 0.0j])) == 0.0)


def test_make_bump_family_deterministic():
    a = make_bump_family(6, rng=np.random.default_rng(11))
    b = make_bump_family(6, rng=np.random.default_rng(11))
    assert [(x.center, x.radius, x.amplitude) for x in a] == \
           [(x.center, x.radius, x.amplitude) for x in b]
    for bump in a:
        assert abs(bump.center) + bump.radius <= 0.9 + 1e-12


def test_lp_norm_examples():
    g = PolarGrid(128, 128)
    ones = np.ones((128, 128))
    assert lp_norm(g, ones, 2.0) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert lp_norm(g, g.nodes.real, 2.0) == pytest.approx(math.sqrt(math.pi / 4.0),
                                                          rel=1e-4)


def test_lp_norm_rejects_bad_exponent():
    g = PolarGrid(16, 16)
    with pytest.raises(InvalidExponents):
        lp_norm(g, np.ones((16, 16)), 0.5)


def test_lp_norm_rejects_bad_values():
    g = PolarGrid(4, 4)
    for shape in ((4, 5), (5, 4), (4,), (16,), (4, 4, 1)):
        with pytest.raises(ValueError, match="does not match grid"):
            lp_norm(g, np.zeros(shape), 2.0)
    vals = np.zeros((4, 4))
    vals[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        lp_norm(g, vals, 2.0)
    for bad in (np.nan, np.inf, -np.inf):
        column = np.array([0.0, 1.0, bad, -2.0])
        with pytest.raises(ValueError, match="finite"):
            lp_norm(g, np.broadcast_to(column[:, None], (4, 4)), 1.0)


def test_lp_norm_homogeneity():
    g = PolarGrid(64, 64)
    b = TestBump(center=0.1 - 0.2j, radius=0.35)
    f = b.value(g.nodes)
    for p in (1.0, 2.0, 3.0):
        assert lp_norm(g, -4.2 * f, p) == pytest.approx(4.2 * lp_norm(g, f, p), rel=1e-13)


def test_isometry_check_families(bumps, family_checks):
    disc = ConformalMap.to_disc(DomainFamily.DISC)
    assert family_checks(disc, energies=bumps)[1] <= 1e-12
    for name in ("halfplane", "cardioid"):
        m = ConformalMap.to_disc(name)
        assert family_checks(m, energies=bumps)[1] <= 1e-6


def test_composition_check_needs_bumps():
    with pytest.raises(ValueError, match="at least one bump"):
        composition_inequality_check(ConformalMap.to_disc(DomainFamily.CARDIOID),
                                     2.0, 1.5, [])


def test_composition_inequality_cardioid(bumps):
    m = ConformalMap.to_disc(DomainFamily.CARDIOID)
    recs = composition_inequality_check(m, 2.0, 1.5, bumps)
    assert all(r.passed for r in recs)
    assert all(r.constant == recs[0].constant for r in recs)


def test_composition_zero_amplitude_passes():
    m = ConformalMap.to_disc(DomainFamily.CARDIOID)
    rec, = composition_inequality_check(m, 2.0, 1.5,
                                        [TestBump(0.0j, 0.3, amplitude=0.0)])
    assert rec.passed and rec.lhs == 0.0 and rec.rhs == 0.0


def test_composition_divergent_constant_raises(bumps):
    m = ConformalMap.to_disc(DomainFamily.EXTERIOR)
    with pytest.raises(KpqDivergent):
        composition_inequality_check(m, 2.0, 1.0, bumps)


def test_composition_validates_exponents(bumps):
    m = ConformalMap.to_disc(DomainFamily.CARDIOID)
    with pytest.raises(InvalidExponents):
        composition_inequality_check(m, 2.0, 2.0, bumps)


def test_isometry_matched_spec_override(bumps, family_checks):
    m = ConformalMap.to_disc(DomainFamily.HALFPLANE)
    coarse = family_checks(m, energies=bumps[:1], spec=DiscGridSpec(n_r=64, n_theta=64))[1]
    assert coarse <= 1e-6

import math
import warnings

import numpy as np
import pytest

from confweight import (ConformalMap, DiscGridSpec, DomainFamily,
                        InvalidExponents, KpqDivergent, PolarGrid, TestBump,
                        composition_inequality_check, make_bump_family, pairwise_sum,
                        ring_nodes)
from confweight.fields import _bump_tables, _row_sum

from conftest import polar_theta


def test_polar_grid_node_layout():
    g = PolarGrid(8, 16)
    assert g.r[0] == pytest.approx(0.5 / 8)
    assert g.r[-1] == pytest.approx(7.5 / 8)
    assert g.phase[0] == 1.0
    assert g.phase[1] == pytest.approx(np.exp(2j * math.pi / 16))
    assert ring_nodes(g).shape == (8, 16)
    assert np.all(np.abs(ring_nodes(g)) < 1.0)


def test_polar_phase_parts_are_cos_and_sin_of_theta_bit_for_bit():
    # weak_residual reads phase.real and phase.imag as cos and sin of theta
    for n_theta in range(2, 4097):
        g = PolarGrid(2, n_theta)
        theta = polar_theta(g)
        for part, want in ((g.phase.real, np.cos(theta)), (g.phase.imag, np.sin(theta))):
            assert np.array_equal(part.view(np.int64), want.view(np.int64)), n_theta


@pytest.mark.parametrize("n_r,n_theta", [(16, 16), (100, 48), (256, 256)])
def test_ring_nodes_of_a_polar_grid_have_the_whole_grid_bits(n_r, n_theta):
    g = PolarGrid(n_r, n_theta)
    # the deleted PolarGrid.nodes: every node in one product
    whole = g.r[:, None] * np.exp(1j * polar_theta(g))[None, :]
    assert np.array_equal(ring_nodes(g), whole)
    assert np.array_equal(ring_nodes(g, slice(3, 9)), whole[3:9])


@pytest.mark.parametrize("rows", [slice(0, 100), slice(0, 1), slice(37, 61), slice(99, 100),
                                  slice(1, 98), slice(64, 100)])
def test_row_sum_has_the_bits_of_the_zero_padded_grid(rows):
    # 100 x 48: neither count is a power of two, so the tree carries odd ends
    g = PolarGrid(100, 48)
    rng = np.random.default_rng(rows.start * 100 + rows.stop)
    part = rng.standard_normal((rows.stop - rows.start, 48))
    part[rng.random(part.shape) < 0.2] = -0.0
    whole = np.zeros((100, 48))
    whole[rows] = part * g.cell_areas[rows]
    assert _row_sum(part, rows, g).hex() == pairwise_sum(whole).hex()


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


def test_bump_table_sums_match_a_radial_integral():
    # b centred at 0 is radial: with s = |w|^2/rho^2 its p-th power integrates
    # to pi rho^2 int_0^1 e^{p(1 - 1/(1-s))} ds, and its Dirichlet energy to
    # 4 pi int_0^1 s e^{2(1 - 1/(1-s))} / (1-s)^4 ds (Gauss-Legendre, 200 points)
    g, rho = PolarGrid(128, 128), 0.5
    s, wts = np.polynomial.legendre.leggauss(200)
    s, wts = (s + 1.0) / 2.0, wts / 2.0
    energy = 4.0 * math.pi * np.sum(wts * s * np.exp(2.0 * (1.0 - 1.0 / (1.0 - s)))
                                    / (1.0 - s) ** 4)
    for p in (1.0, 2.0, 3.0):
        (t,) = _bump_tables([TestBump(0j, rho)], g, p)
        norm = (math.pi * rho**2 * np.sum(wts * np.exp(p * (1.0 - 1.0 / (1.0 - s))))) ** (1 / p)
        assert t.norm == pytest.approx(norm, rel=1e-4)
        assert t.energy == pytest.approx(energy, rel=1e-7)


def test_bump_table_norms_are_homogeneous():
    g = PolarGrid(64, 64)
    b = TestBump(center=0.1 - 0.2j, radius=0.35)
    pair = [b, TestBump(b.center, b.radius, -4.2 * b.amplitude)]
    for p in (1.0, 2.0, 3.0):
        base, scaled = _bump_tables(pair, g, p)
        assert scaled.norm == pytest.approx(4.2 * base.norm, rel=1e-13)
        assert scaled.energy == pytest.approx(4.2 ** 2 * base.energy, rel=1e-13)


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

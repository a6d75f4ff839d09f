import numpy as np
import pytest

from confweight import (BranchCutViolation, ConformalMap, Direction,
                        DomainFamily, MoebiusAutomorphism, PointOutsideDomain,
                        boundary_image_check, boundary_samples,
                        compose_with_automorphism, round_trip_check,
                        sample_interior)


def test_family_names():
    assert [f.value for f in DomainFamily] == [
        "disc", "exterior", "halfplane", "strip", "cardioid", "slitplane"]


def test_disc_is_identity():
    m = ConformalMap.to_disc(DomainFamily.DISC)
    w = np.array([0.1 + 0.2j, -0.5j, 0.7])
    assert np.array_equal(m.eval(w), w)
    assert np.array_equal(m.derivative(w), np.ones_like(w))


def test_exterior_point_values():
    m = ConformalMap.to_disc(DomainFamily.EXTERIOR)
    assert m.eval(2.0 + 0.0j) == pytest.approx(0.5)
    assert m.derivative(2.0 + 0.0j) == pytest.approx(-0.25)


def test_halfplane_point_values():
    m = ConformalMap.to_disc(DomainFamily.HALFPLANE)
    assert m.eval(1j) == pytest.approx(0.0)
    assert m.derivative(1j) == pytest.approx(-0.5j)


def test_strip_is_tangent():
    m = ConformalMap.to_disc(DomainFamily.STRIP)
    z = 0.3 + 0.2j
    assert m.eval(z) == pytest.approx(np.tan(z))
    assert m.invert().eval(np.tan(z)) == pytest.approx(z)


def test_cardioid_cusp_excluded():
    m = ConformalMap.to_disc(DomainFamily.CARDIOID)
    with pytest.raises(PointOutsideDomain):
        m.eval(0.0 + 0.0j)


def test_slitplane_branch_cut():
    m = ConformalMap.to_disc(DomainFamily.SLITPLANE)
    with pytest.raises(BranchCutViolation):
        m.eval(-1.0 + 0.0j)
    # points immediately above/below the cut are fine
    for z in (-1.0 + 1e-6j, -1.0 - 1e-6j):
        assert abs(m.eval(z)) < 1.0


def test_a_mixed_bad_array_names_its_first_rejected_point():
    m = ConformalMap.to_disc(DomainFamily.CARDIOID)
    with pytest.raises(PointOutsideDomain, match=r"^\(3\+0j\) is not an interior") as info:
        m.eval(np.array([0.1 + 0.1j, 3.0, -0.1]))
    assert not isinstance(info.value, BranchCutViolation)
    with pytest.raises(BranchCutViolation, match=r"^\(-0\.1\+0j\) lies on the excluded ray"):
        m.derivative(np.array([0.1 + 0.1j, -0.1, 3.0]))


def test_exterior_disc_side_punctured():
    inv = ConformalMap.from_disc(DomainFamily.EXTERIOR)
    with pytest.raises(PointOutsideDomain):
        inv.eval(0.0 + 0.0j)


def test_eval_rejects_exterior_of_disc(to_disc):
    inv = to_disc.invert()
    with pytest.raises(PointOutsideDomain):
        inv.eval(1.5 + 0.0j)


def test_contains_examples():
    cm = ConformalMap.to_disc
    assert cm("halfplane").contains(2.0 + 0.5j)
    assert not cm("halfplane").contains(2.0 - 0.5j)
    assert cm("exterior").contains(3.0 + 0.0j)
    assert not cm("exterior").contains(0.5 + 0.0j)
    assert cm("strip").contains(0.7j)
    assert not cm("strip").contains(1.0 + 0.0j)
    assert cm("cardioid").contains(0.25 + 0.0j)
    assert not cm("cardioid").contains(-0.6 + 0.0j)
    assert cm("slitplane").contains(-1.0 + 0.5j)
    assert not cm("slitplane").contains(-1.0 + 0.0j)


def test_round_trip_all_families(to_disc, rng):
    err = round_trip_check(to_disc, n=400, rng=rng, rmin=0.1, rmax=0.9)
    assert err <= 1e-12


def test_derivative_matches_finite_differences(to_disc, rng):
    h = 3e-6
    r = 0.1 + 0.7 * rng.uniform(size=100)
    w = r * np.exp(2j * np.pi * rng.uniform(size=100))
    z = to_disc.invert().eval(w)
    for mapping, pts in ((to_disc, z), (to_disc.invert(), w)):
        num = (mapping.eval(pts + h) - mapping.eval(pts - h)) / (2 * h)
        rel = np.abs(num - mapping.derivative(pts)) / np.abs(mapping.derivative(pts))
        assert rel.max() < 1e-7


def test_derivative_of_inverse_is_reciprocal(to_disc, rng):
    w = 0.5 * np.exp(2j * np.pi * rng.uniform(size=50))
    z = to_disc.invert().eval(w)
    prod = to_disc.derivative(z) * to_disc.invert().derivative(w)
    assert np.abs(prod - 1.0).max() < 1e-12


def test_boundary_image_near_unit_circle(to_disc):
    assert boundary_image_check(to_disc, n=64) < 1e-2


def test_boundary_samples_on_boundary():
    pts, normals = boundary_samples(DomainFamily.DISC, 32)
    assert np.abs(np.abs(pts) - 1.0).max() < 1e-14
    assert np.abs(np.abs(normals) - 1.0).max() < 1e-12
    pts, _ = boundary_samples(DomainFamily.CARDIOID, 64)
    r, th = np.abs(pts), np.angle(pts)
    assert np.abs(r - 0.5 * (1.0 + np.cos(th))).max() < 1e-12


def test_sample_interior_contained(to_disc, rng):
    pts = sample_interior(to_disc, 500, rng=rng)
    assert pts.shape == (500,)
    assert np.all(to_disc.contains(pts))


def test_invert_flips_direction(to_disc):
    assert to_disc.direction is Direction.TO_DISC
    inv = to_disc.invert()
    assert inv.direction is Direction.FROM_DISC
    assert inv.invert().direction is Direction.TO_DISC


def test_automorphism_identity_and_inverse(rng):
    ident = MoebiusAutomorphism(a=0.0, rotation=0.0)
    w = 0.8 * np.exp(2j * np.pi * rng.uniform(size=64))
    assert np.abs(ident(w) - w).max() == 0.0
    eta = MoebiusAutomorphism(a=0.3 - 0.4j, rotation=2.0)
    assert np.abs(eta.inverse()(eta(w)) - w).max() < 1e-13
    assert np.abs(eta(eta.inverse()(w)) - w).max() < 1e-13


def test_automorphism_rejects_bad_parameter():
    with pytest.raises(ValueError):
        MoebiusAutomorphism(a=1.0, rotation=0.0)


def test_automorphism_derivative_and_bounds(rng):
    eta = MoebiusAutomorphism(a=0.5, rotation=0.7)
    w = 0.999 * np.exp(2j * np.pi * rng.uniform(size=256))
    h = 1e-7
    num = (eta(w + h) - eta(w - h)) / (2 * h)
    assert np.abs(num - eta.derivative(w)).max() < 1e-6
    lo, hi = eta.derivative_magnitude_bounds()
    assert lo == pytest.approx((1 - 0.5) / (1 + 0.5))
    assert hi == pytest.approx((1 + 0.5) / (1 - 0.5))
    mags = np.abs(eta.derivative(w))
    assert mags.min() >= lo - 1e-12 and mags.max() <= hi + 1e-12


def test_automorphism_composition(rng):
    eta1 = MoebiusAutomorphism(a=0.4 + 0.2j, rotation=1.1)
    eta2 = MoebiusAutomorphism(a=-0.3j, rotation=-0.7)
    comp = eta1.compose(eta2)
    w = 0.9 * np.exp(2j * np.pi * rng.uniform(size=128))
    assert np.abs(comp(w) - eta1(eta2(w))).max() < 1e-13


def _automorphism_properties(rmin=0.0):
    """Hypothesis strategies: automorphisms with |a| < 0.95, points with |w| <= 0.9."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    angle = st.floats(-np.pi, np.pi)

    def polar(radius):
        return st.builds(lambda r, t: r * np.exp(1j * t), radius, angle)

    automorphisms = st.builds(MoebiusAutomorphism, polar(st.floats(0.0, 0.95, exclude_max=True)),
                              angle)
    settings = hypothesis.settings(max_examples=200, deadline=None, database=None)
    return hypothesis.given, settings, automorphisms, polar(st.floats(rmin, 0.9))


def test_automorphism_composition_property():
    given, settings, automorphisms, points = _automorphism_properties()

    @settings
    @given(automorphisms, automorphisms, points)
    def check(outer, inner, w):
        assert abs(outer.compose(inner)(w) - outer(inner(w))) <= 1e-12

    check()


def test_automorphism_inverse_round_trip_property():
    given, settings, automorphisms, points = _automorphism_properties()

    @settings
    @given(automorphisms, points)
    def check(eta, w):
        assert abs(eta.inverse()(eta(w)) - w) <= 1e-13
        assert abs(eta(eta.inverse()(w)) - w) <= 1e-13

    check()


def test_map_round_trip_and_jacobian_properties():
    # phi(psi(w)) = w and phi'(psi(w)) psi'(w) = 1 for every family, bare and
    # post-composed with an automorphism
    given, settings, automorphisms, points = _automorphism_properties(rmin=0.01)
    st = pytest.importorskip("hypothesis.strategies")

    @settings
    @given(st.sampled_from(list(DomainFamily)), st.none() | automorphisms, points)
    def check(family, eta, w):
        phi = ConformalMap.to_disc(family)
        if eta is not None:
            phi = compose_with_automorphism(phi, eta)
        psi = phi.invert()
        z = psi.eval(w)
        assert abs(phi.eval(z) - w) <= 1e-12
        assert abs(phi.derivative(z) * psi.derivative(w) - 1.0) <= 1e-12

    check()


def test_jacobian_is_the_squared_derivative_magnitude_property():
    # the real kernels against |psi'|^2 from the complex derivative, for every
    # family, bare and post-composed with an automorphism
    given, settings, automorphisms, points = _automorphism_properties(rmin=0.01)
    st = pytest.importorskip("hypothesis.strategies")

    @settings
    @given(st.sampled_from(list(DomainFamily)), st.none() | automorphisms, points)
    def check(family, eta, w):
        phi = ConformalMap.to_disc(family)
        if eta is not None:
            phi = compose_with_automorphism(phi, eta)
        psi = phi.invert()
        want = abs(psi.derivative(w)) ** 2
        assert abs(psi.jacobian(w) - want) <= 1e-13 * want

    check()


def test_jacobian_rejects_what_derivative_rejects(to_disc):
    psi = to_disc.invert()
    for w in (1.0, 0.6 + 0.8j, 2j, np.array([0.1, 1.5])):
        with pytest.raises(PointOutsideDomain):
            psi.derivative(w)
        with pytest.raises(PointOutsideDomain):
            psi.jacobian(w)
    for w in (complex(np.nan, 0.0), np.array([0.1, np.inf])):
        with pytest.raises(ValueError):
            psi.jacobian(w)
    with pytest.raises(ValueError, match="FROM_DISC"):
        to_disc.jacobian(0.1)


def test_jacobian_rejects_the_exterior_puncture():
    psi = ConformalMap.from_disc(DomainFamily.EXTERIOR)
    with pytest.raises(PointOutsideDomain):
        psi.jacobian(0.0)
    with pytest.raises(PointOutsideDomain):
        psi.jacobian(np.array([0.5, 0.0]))


def test_jacobian_keeps_shape_and_scalars(to_disc):
    psi = to_disc.invert()
    w = np.array([[0.1 + 0.2j, -0.3j], [0.5, -0.4 + 0.1j]])
    jac = psi.jacobian(w)
    assert jac.shape == w.shape and jac.dtype == float
    assert isinstance(psi.jacobian(0.3 + 0.1j), float)


def test_compose_with_automorphism_still_uniformizes(rng):
    base = ConformalMap.to_disc(DomainFamily.HALFPLANE)
    eta = MoebiusAutomorphism(a=0.5, rotation=0.3)
    tilted = compose_with_automorphism(base, eta)
    z = sample_interior(base, 200, rng=rng)
    img = tilted.eval(z)
    assert np.all(np.abs(img) < 1.0)
    assert np.abs(tilted.eval(z) - eta(base.eval(z))).max() < 1e-14
    err = round_trip_check(tilted, n=200, rng=rng, rmin=0.1, rmax=0.9)
    assert err <= 1e-12


def test_compose_requires_to_disc():
    inv = ConformalMap.from_disc(DomainFamily.HALFPLANE)
    with pytest.raises(ValueError):
        compose_with_automorphism(inv, MoebiusAutomorphism(a=0.1, rotation=0.0))


def test_scalar_in_scalar_out(to_disc):
    w = to_disc.invert().eval(0.3 + 0.1j)
    assert isinstance(w, complex)
    assert isinstance(to_disc.derivative(w), complex)

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import inverse_accepts

from confweight import (BranchCutViolation, ConformalMap,
                        DomainFamily, MoebiusAutomorphism, PointOutsideDomain,
                        boundary_image_check, boundary_samples, round_trip_check,
                        sample_interior)


def test_family_names():
    assert [f.value for f in DomainFamily] == [
        "disc", "exterior", "halfplane", "strip", "cardioid", "slitplane"]


def test_disc_is_identity():
    m = ConformalMap.to_disc(DomainFamily.DISC)
    w = np.array([0.1 + 0.2j, -0.5j, 0.7])
    assert np.array_equal(m.eval(w), w)
    assert np.array_equal(m.jacobian(w), np.ones(3))


def test_exterior_point_values():
    m = ConformalMap.to_disc(DomainFamily.EXTERIOR)
    assert m.eval(2.0 + 0.0j) == pytest.approx(0.5)
    assert m.jacobian(2.0 + 0.0j) == pytest.approx(0.0625)  # |-1/z^2|^2


def test_halfplane_point_values():
    m = ConformalMap.to_disc(DomainFamily.HALFPLANE)
    assert m.eval(1j) == pytest.approx(0.0)
    assert m.jacobian(1j) == pytest.approx(0.25)  # |2i/(z + i)^2|^2


def test_strip_is_tangent():
    m = ConformalMap.to_disc(DomainFamily.STRIP)
    z = 0.3 + 0.2j
    assert m.eval(z) == pytest.approx(np.tan(z))
    assert m.inverse(np.tan(z)) == pytest.approx(z)


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
        m.jacobian(np.array([0.1 + 0.1j, -0.1, 3.0]))


def test_exterior_disc_side_punctured():
    with pytest.raises(PointOutsideDomain):
        ConformalMap.to_disc(DomainFamily.EXTERIOR).inverse(0.0 + 0.0j)


def test_eval_rejects_exterior_of_disc(to_disc):
    with pytest.raises(PointOutsideDomain):
        to_disc.inverse(1.5 + 0.0j)


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
    err = round_trip_check(to_disc, n=400, rng=rng)
    assert err <= 1e-12


def test_derivative_matches_finite_differences(to_disc, rng, derivative):
    # the closed-form phi' and psi' against differences of eval, and J = |f'|^2
    h = 3e-6
    r = 0.1 + 0.7 * rng.uniform(size=100)
    w = r * np.exp(2j * np.pi * rng.uniform(size=100))
    z = to_disc.inverse(w)
    for f, jacobian, pts, inverse in ((to_disc.eval, to_disc.jacobian, z, False),
                                      (to_disc.inverse, to_disc.inverse_jacobian, w, True)):
        num = (f(pts + h) - f(pts - h)) / (2 * h)
        exact = derivative(to_disc, pts, inverse)
        assert (np.abs(num - exact) / np.abs(exact)).max() < 1e-7
        assert (np.abs(jacobian(pts) / np.abs(exact) ** 2 - 1.0)).max() < 1e-13


def test_boundary_image_near_unit_circle(to_disc):
    assert boundary_image_check(to_disc) < 1e-2


def test_boundary_image_check_matches_a_loop_over_the_samples(to_disc):
    # per sample, the deviation at the smallest offset whose point lies inside
    gamma, normal = boundary_samples(to_disc.family, 64)
    worst = 0.0
    for g, n in zip(gamma, normal):
        inside = [g + eps * n for eps in (1e-6, 1e-5, 1e-4, 1e-3) if to_disc.contains(g + eps * n)]
        if inside:
            worst = max(worst, abs(abs(to_disc.eval(inside[0])) - 1.0))
    assert abs(boundary_image_check(to_disc) - worst) <= 1e-15


def test_boundary_image_check_refuses_a_map_with_no_sample_inside(monkeypatch):
    mapping = ConformalMap.to_disc(DomainFamily.DISC)
    monkeypatch.setattr(ConformalMap, "contains", lambda self, z: np.zeros(np.shape(z), bool))
    with pytest.raises(PointOutsideDomain, match="no offset boundary sample"):
        boundary_image_check(mapping)


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


@pytest.mark.parametrize("sampler", [sample_interior, round_trip_check])
def test_samplers_draw_only_from_the_callers_generator(monkeypatch, sampler):
    # no generator of their own and no seed read: 2n uniform draws from the caller's
    m = ConformalMap.to_disc(DomainFamily.HALFPLANE)
    with pytest.raises(TypeError):
        sampler(m, 5)
    monkeypatch.setenv("CW_SEED", "banana")
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    sampler(m, 5, rng)
    twin.uniform(size=10)
    assert rng.bit_generator.state == twin.bit_generator.state


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


@pytest.mark.parametrize("a", [complex("nan"), complex("inf"), float("nan")])
def test_automorphism_rejects_non_finite_parameters(a):
    with pytest.raises(ValueError, match="must be finite"):
        MoebiusAutomorphism(a)
    with pytest.raises(ValueError, match="must be finite"):
        MoebiusAutomorphism(0.5, rotation=a.real)


def test_automorphism_derivative_and_bounds(rng, derivative):
    # |eta'| from differences of eta and from the closed form is sqrt(J(w, eta))
    eta = MoebiusAutomorphism(a=0.5, rotation=0.7)
    w = 0.999 * np.exp(2j * np.pi * rng.uniform(size=256))
    h = 1e-7
    num = (eta(w + h) - eta(w - h)) / (2 * h)
    mags = np.sqrt(eta.jacobian(w))
    assert np.abs(np.abs(num) - mags).max() < 1e-6
    lo, hi = eta.derivative_magnitude_bounds()
    assert lo == pytest.approx((1 - 0.5) / (1 + 0.5))
    assert hi == pytest.approx((1 + 0.5) / (1 - 0.5))
    assert mags.min() >= lo - 1e-12 and mags.max() <= hi + 1e-12
    disc = ConformalMap(DomainFamily.DISC, eta)
    np.testing.assert_allclose(eta.jacobian(w), np.abs(derivative(disc, w)) ** 2,
                               rtol=1e-14, atol=0)
    assert isinstance(eta.jacobian(0.5j), float)


def test_automorphism_composition(rng):
    eta1 = MoebiusAutomorphism(a=0.4 + 0.2j, rotation=1.1)
    eta2 = MoebiusAutomorphism(a=-0.3j, rotation=-0.7)
    comp = eta1.compose(eta2)
    w = 0.9 * np.exp(2j * np.pi * rng.uniform(size=128))
    assert np.abs(comp(w) - eta1(eta2(w))).max() < 1e-13
    assert not hasattr(MoebiusAutomorphism, "derivative")


def test_composed_rotation_matches_the_coefficient_ratio_to_40_digits():
    # e^{i theta} of self o inner is the ratio e^{i t}(u + a conj(b))/(1 + conj(a) b u) of
    # its diagonal Moebius coefficients, with a, t of self, b of inner, u = e^{i inner.rotation}
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(22)
    a, b = (0.95 * np.sqrt(rng.uniform(size=3000)) * np.exp(2j * np.pi * rng.uniform(size=3000))
            for _ in range(2))
    t, s = rng.uniform(-np.pi, np.pi, size=(2, 3000))
    worst = 0.0
    with mpmath.workdps(40):
        for ak, bk, tk, sk in zip(a.tolist(), b.tolist(), t.tolist(), s.tolist()):
            theta = MoebiusAutomorphism(ak, tk).compose(MoebiusAutomorphism(bk, sk)).rotation
            assert -np.pi < theta <= np.pi
            ma, mb, u = mpmath.mpc(ak), mpmath.mpc(bk), mpmath.expj(sk)
            want = mpmath.expj(tk) * (u + ma * mpmath.conj(mb)) / (1 + mpmath.conj(ma) * mb * u)
            worst = max(worst, float(abs(mpmath.expj(theta) - want / abs(want))))
    assert worst <= 2e-15
    # -pi and pi are one rotation; compose reports pi
    assert MoebiusAutomorphism(0j, -np.pi).compose(MoebiusAutomorphism()).rotation == np.pi


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
    # phi(psi(w)) = w and h(psi(w)) J(w, psi) = 1 for every family, bare and
    # post-composed with an automorphism
    given, settings, automorphisms, points = _automorphism_properties(rmin=0.01)
    st = pytest.importorskip("hypothesis.strategies")

    @settings
    @given(st.sampled_from(list(DomainFamily)), st.none() | automorphisms, points)
    def check(family, eta, w):
        phi = ConformalMap(family, eta)
        z = phi.inverse(w)
        assert abs(phi.eval(z) - w) <= 1e-12
        assert abs(phi.jacobian(z) * phi.inverse_jacobian(w) - 1.0) <= 1e-12

    check()


def test_jacobian_is_the_squared_derivative_magnitude_property(derivative):
    # the real kernels against |f'|^2 from the closed-form complex derivative,
    # in both directions, for every family, bare and post-composed with an automorphism
    given, settings, automorphisms, points = _automorphism_properties(rmin=0.01)
    st = pytest.importorskip("hypothesis.strategies")

    @settings
    @given(st.sampled_from(list(DomainFamily)), st.none() | automorphisms, points)
    def check(family, eta, w):
        phi = ConformalMap(family, eta)
        z = phi.inverse(w)
        for jacobian, pt, inverse in ((phi.inverse_jacobian, w, True), (phi.jacobian, z, False)):
            want = abs(derivative(phi, pt, inverse)) ** 2
            assert abs(jacobian(pt) - want) <= 1e-13 * want

    check()


def test_jacobian_rejects_what_derivative_rejects(to_disc):
    # psi's Jacobian, its one derivative, rejects what psi rejects
    for w in (1.0, 0.6 + 0.8j, 2j, np.array([0.1, 1.5])):
        with pytest.raises(PointOutsideDomain):
            to_disc.inverse(w)
        with pytest.raises(PointOutsideDomain):
            to_disc.inverse_jacobian(w)
    for w in (complex(np.nan, 0.0), np.array([0.1, np.inf])):
        with pytest.raises(ValueError):
            to_disc.inverse_jacobian(w)


_TILT = MoebiusAutomorphism(0.3 - 0.2j, 0.7)


@pytest.mark.parametrize("eta", [None, _TILT], ids=["bare", "tilted"])
def test_weight_rejects_what_derivative_rejects(eta):
    # the weight h, the map's one derivative, rejects what its evaluation rejects
    cases = [("disc", 1.5, PointOutsideDomain),
             ("exterior", np.array([2.0, 0.5j]), PointOutsideDomain),
             ("halfplane", -1j, PointOutsideDomain),
             ("strip", np.array([0.1, 1.0 + 1j]), PointOutsideDomain),
             ("cardioid", -0.1, BranchCutViolation),
             ("cardioid", np.array([0.1, 0.0]), BranchCutViolation),
             ("slitplane", -1.0, BranchCutViolation),
             ("slitplane", np.array([0.1j, -0.25]), BranchCutViolation),
             ("halfplane", complex(np.nan, 1.0), ValueError),
             ("strip", np.array([0.1, np.nan]), ValueError)]
    for family, z, error in cases:
        phi = ConformalMap(DomainFamily(family), eta)
        with pytest.raises(error):
            phi.eval(z)
        with pytest.raises(error):
            phi.jacobian(z)


def test_jacobian_rejects_the_exterior_puncture():
    phi = ConformalMap.to_disc(DomainFamily.EXTERIOR)
    with pytest.raises(PointOutsideDomain):
        phi.inverse_jacobian(0.0)
    with pytest.raises(PointOutsideDomain):
        phi.inverse_jacobian(np.array([0.5, 0.0]))


def test_exterior_psi_is_inf_not_nan_beyond_the_floats():
    # |1/w| and |w|^-4 leave the floats near the puncture; numpy's complex
    # division gave inf + nan*i there, and 1/(x^2 + y^2)^2 divided by zero
    phi = ConformalMap.to_disc(DomainFamily.EXTERIOR)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert phi.inverse(5e-324) == complex(np.inf, 0.0)
        assert phi.inverse(-1e-309j) == complex(0.0, np.inf)
        assert phi.inverse(1e-200) == 1e200
        z = phi.inverse(np.array([1e-309 * (1 + 1j), 0.5, 5e-324j]))
        assert not np.any(np.isnan(z.real) | np.isnan(z.imag))
        assert z[1] == 2.0 and np.isinf(z[0].real) and np.isinf(z[0].imag)
        assert phi.inverse_jacobian(1e-200) == np.inf
        jac = phi.inverse_jacobian(np.array([5e-324, 1e-78, 0.5]))
        assert list(jac) == [np.inf, np.inf, 16.0]


@pytest.mark.parametrize("family, z", [("exterior", 0.1 + 2e154j),
                                       ("halfplane", 0.1 + 2e154j),
                                       ("slitplane", 1e300 + 1e300j)])
def test_far_field_weight_underflows_to_zero_without_a_warning(family, z):
    # a part of h's denominator overflows to inf, so h = 0, its correctly rounded value
    phi = ConformalMap.to_disc(family)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert phi.jacobian(z) == 0.0
        assert list(phi.jacobian(np.array([z, 2j]))) == [0.0, phi.jacobian(2j)]


# exact |w| = 0.99999999999999981..., which np.abs rounds to 1; and exact
# |w|^2 = 1 + 5.1e-17, which np.abs rounds below 1
_JUST_INSIDE = -0.002902420506091759 + 0.9999957879687321j
_JUST_OUTSIDE = 0.8460001975820851 + 0.5331825819464407j
# each family's psi, through ``inverse``, and the disc family's phi all take disc points
_DISC_INPUTS = [(ConformalMap.to_disc(f), True) for f in DomainFamily] + [
    (ConformalMap.to_disc(DomainFamily.DISC), False)]
_DISC_INPUT_IDS = [f"from_disc-{f.value}" for f in DomainFamily] + ["to_disc-disc"]


def _exact_square_modulus(w):
    return Fraction(w.real) ** 2 + Fraction(w.imag) ** 2


def _accepts(mapping, inverse, w):
    return inverse_accepts(mapping, w) if inverse else mapping.contains(w)


@pytest.mark.parametrize("mapping, inverse", _DISC_INPUTS, ids=_DISC_INPUT_IDS)
def test_disc_membership_next_to_the_circle(mapping, inverse):
    assert _exact_square_modulus(_JUST_INSIDE) < 1 <= _exact_square_modulus(_JUST_OUTSIDE)
    evaluators = (mapping.inverse, mapping.inverse_jacobian) if inverse else (mapping.eval,)
    pair = np.array([_JUST_INSIDE, _JUST_OUTSIDE])
    assert _accepts(mapping, inverse, _JUST_INSIDE)
    assert list(_accepts(mapping, inverse, pair)) == [True, False]
    for f in evaluators:
        assert np.isfinite(f(_JUST_INSIDE))
        with pytest.raises(PointOutsideDomain):
            f(_JUST_OUTSIDE)
        with pytest.raises(PointOutsideDomain):
            f(pair)


def test_disc_membership_next_to_the_circle_property():
    # never a point with exact x^2 + y^2 >= 1; always one with x^2 + y^2 <= 1 - 2^-51
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=1000, deadline=None, database=None)
    @hypothesis.given(st.floats(-1.0, 1.0), st.integers(-8, 8), st.booleans(), st.booleans())
    def check(x, ulps, lower, swap):
        y = math.sqrt(1.0 - x * x)
        y = (y + ulps * math.ulp(y)) * (-1.0 if lower else 1.0)
        w = complex(y, x) if swap else complex(x, y)
        exact = _exact_square_modulus(w)
        for mapping, inverse in _DISC_INPUTS:
            if exact >= 1:
                assert not _accepts(mapping, inverse, w)
            elif exact <= 1 - Fraction(1, 2**51):
                assert _accepts(mapping, inverse, w)

    check()


# exact |z|^2 = 1 - 5.2e-17, which np.abs rounds above 1
_EXTERIOR_JUST_INSIDE = -0.9422738091218872 + 0.33484334940824084j
_EXTERIOR = ConformalMap.to_disc(DomainFamily.EXTERIOR)


def test_exterior_membership_next_to_the_circle():
    assert _exact_square_modulus(_EXTERIOR_JUST_INSIDE) < 1 < np.abs(_EXTERIOR_JUST_INSIDE)
    assert not _EXTERIOR.contains(_EXTERIOR_JUST_INSIDE)
    with pytest.raises(PointOutsideDomain):
        _EXTERIOR.eval(_EXTERIOR_JUST_INSIDE)
    # the far field's squares overflow to inf, which is still outside the circle
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(_EXTERIOR.contains(np.array([_EXTERIOR_JUST_INSIDE, 2j, 1e300 + 1e300j,
                                                 -1e200 + 0j]))) == [False, True, True, True]


def test_exterior_membership_next_to_the_circle_property():
    # never a point with exact x^2 + y^2 <= 1; always one with x^2 + y^2 >= 1 + 2^-51
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=1000, deadline=None, database=None)
    @hypothesis.given(st.floats(-1.0, 1.0), st.integers(-8, 8), st.booleans(), st.booleans())
    def check(x, ulps, lower, swap):
        y = math.sqrt(1.0 - x * x)
        y = (y + ulps * math.ulp(y)) * (-1.0 if lower else 1.0)
        z = complex(y, x) if swap else complex(x, y)
        exact = _exact_square_modulus(z)
        if exact <= 1:
            assert not _EXTERIOR.contains(z)
        elif exact >= 1 + Fraction(1, 2**51):
            assert _EXTERIOR.contains(z)

    check()


def test_disc_and_exterior_split_the_plane_at_the_rounded_circle():
    # one unit-circle test: each point is in exactly one of the disc and the
    # exterior, unless its rounded x*x + y*y is 1, and every family's ``inverse``
    # takes exactly the disc family's members
    rng = np.random.default_rng(3)
    scale = 1.0 + rng.integers(-6, 7, 20_000) * 2.0**-53
    z = scale * np.exp(2j * np.pi * rng.uniform(size=20_000))
    disc = ConformalMap.to_disc(DomainFamily.DISC).contains(z)
    exterior = _EXTERIOR.contains(z)
    on_circle = np.square(z.real) + np.square(z.imag) == 1.0
    assert disc.any() and exterior.any() and on_circle.any()
    assert not np.any(disc & exterior)
    assert np.array_equal(disc | exterior, ~on_circle)
    for family in DomainFamily:
        assert np.array_equal(inverse_accepts(ConformalMap.to_disc(family), z), disc)


# the exterior family's psi = 1/u is singular at u = eta^{-1}(w) = 0, i.e. at w = eta(0)
_ETA = MoebiusAutomorphism(0.3 - 0.4j, 0.7)
_EXTERIOR_TILTED = ConformalMap(DomainFamily.EXTERIOR, _ETA)


# the disc side's eval and jacobian: ``inverse`` and ``inverse_jacobian``
@pytest.mark.parametrize("method", ["inverse", "inverse_jacobian"], ids=["eval", "jacobian"])
def test_composed_exterior_puncture_sits_at_eta_of_zero(method):
    phi, f = _EXTERIOR_TILTED, getattr(_EXTERIOR_TILTED, method)
    puncture = _ETA(0.0)
    assert inverse_accepts(phi, 0.0) and np.all(inverse_accepts(phi, np.array([0.0, 0.5])))
    assert np.isfinite(f(0.0))
    assert np.all(np.isfinite(f(np.array([0.0, 0.5]))))
    # 1/conj(a') is where eta^{-1} divides by zero, outside the disc
    pole = 1.0 / np.conj(_ETA.inverse().a)
    assert not inverse_accepts(phi, puncture)
    assert not np.any(inverse_accepts(phi, np.array([puncture, 1.5, pole])))
    with pytest.raises(PointOutsideDomain):
        f(puncture)
    with pytest.raises(PointOutsideDomain):
        f(np.array([0.5, puncture]))


def test_jacobian_keeps_shape_and_scalars(to_disc):
    w = np.array([[0.1 + 0.2j, -0.3j], [0.5, -0.4 + 0.1j]])
    jac = to_disc.inverse_jacobian(w)
    assert jac.shape == w.shape and jac.dtype == float
    assert isinstance(to_disc.inverse_jacobian(0.3 + 0.1j), float)


def test_a_map_with_an_automorphism_still_uniformizes(rng):
    base = ConformalMap.to_disc(DomainFamily.HALFPLANE)
    eta = MoebiusAutomorphism(a=0.5, rotation=0.3)
    tilted = ConformalMap(DomainFamily.HALFPLANE, eta)
    z = sample_interior(base, 200, rng=rng)
    img = tilted.eval(z)
    assert np.all(np.abs(img) < 1.0)
    assert np.abs(tilted.eval(z) - eta(base.eval(z))).max() < 1e-14
    err = round_trip_check(tilted, n=200, rng=rng)
    assert err <= 1e-12


def test_scalar_in_scalar_out(to_disc):
    w = to_disc.inverse(0.3 + 0.1j)
    assert isinstance(w, complex)
    assert isinstance(to_disc.jacobian(w), float)

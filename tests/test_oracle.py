"""Map Jacobians and weights against an independent 50-digit oracle."""
import math
import warnings

import numpy as np
import pytest
from conftest import inverse_accepts

from confweight import (ConformalMap, DomainFamily, MoebiusAutomorphism, boundary_samples,
                        sample_interior)

mp = pytest.importorskip("mpmath")
mp.mp.dps = 50

STRIP = ConformalMap.to_disc(DomainFamily.STRIP)


def _rel(got, exact) -> float:
    return float(abs(mp.mpc(complex(got)) - exact) / abs(exact))


@pytest.mark.parametrize("z", [0.3 + 10j, 0.3 + 15j, 0.3 + 19j, 60j, -60j,
                               0.1 + 0.2j, -0.7 + 30j])
def test_strip_weight_far_from_the_real_axis(z):
    # phi = tan, phi' = sec^2; 1 + tan^2 cancels once |tan z| is close to i
    sec2 = 1 / mp.cos(mp.mpc(z.real, z.imag)) ** 2
    assert _rel(STRIP.jacobian(z), abs(sec2) ** 2) <= 1e-14


@pytest.mark.parametrize("w", [0.999j, -0.999j, 0.9999999j, 0.5 + 0.5j, 0.99999 + 1e-3j])
def test_strip_inverse_derivative_near_plus_minus_i(w):
    exact = 1 / (1 + mp.mpc(w.real, w.imag) ** 2)
    assert _rel(STRIP.inverse_jacobian(w), abs(exact) ** 2) <= 1e-14


# psi' of each family from the disc, as 50-digit mpmath functions of w
_PSI_PRIME = {
    DomainFamily.DISC: lambda w: mp.mpf(1),
    DomainFamily.EXTERIOR: lambda w: -1 / w**2,
    DomainFamily.HALFPLANE: lambda w: 2j / (1 - w) ** 2,
    DomainFamily.STRIP: lambda w: 1 / (1 + w**2),
    DomainFamily.CARDIOID: lambda w: (1 + w) / 2,
    DomainFamily.SLITPLANE: lambda w: (1 + w) / (1 - w) ** 3,
}
# the boundary points where each family's Jacobian blows up or vanishes
_SINGULAR = {
    DomainFamily.EXTERIOR: (0j,),
    DomainFamily.HALFPLANE: (1 + 0j,),
    DomainFamily.STRIP: (1j, -1j),
    DomainFamily.CARDIOID: (-1 + 0j,),
    DomainFamily.SLITPLANE: (1 + 0j,),
}
_INTERIOR = (0.0, 0.3 - 0.2j, -0.5 + 0.6j, 0.85j, -0.9, 0.7 + 0.1j)


def _approach(point: complex) -> list[complex]:
    """Points at distance 1e-3, 1e-6 and 1e-9 from ``point``, on its axis and 60 degrees off."""
    inward = -point / abs(point) if point else 1.0
    return [point + d * inward * turn for d in (1e-3, 1e-6, 1e-9)
            for turn in (1.0, complex(0.5, 0.75 ** 0.5))]


def _exact_jacobian(family, w: complex, eta=None):
    u = mp.mpc(w.real, w.imag)
    scale = mp.mpf(1)
    if eta is not None:
        inv = eta.inverse()
        a = mp.mpc(inv.a.real, inv.a.imag)
        den = 1 - mp.conj(a) * u
        scale = ((1 - abs(a) ** 2) / abs(den) ** 2) ** 2
        u = mp.expj(inv.rotation) * (u - a) / den
    return abs(_PSI_PRIME[family](u)) ** 2 * scale


@pytest.mark.parametrize("family", list(DomainFamily), ids=lambda f: f.value)
def test_jacobian_against_the_oracle_inside_and_near_each_singular_point(family):
    phi = ConformalMap.to_disc(family)
    points = list(_INTERIOR) + [w for p in _SINGULAR.get(family, ()) for w in _approach(p)]
    for w in points:
        if not inverse_accepts(phi, w):
            continue  # w = 0 is the exterior family's puncture
        exact = _exact_jacobian(family, w)
        assert float(abs(mp.mpf(phi.inverse_jacobian(w)) - exact) / exact) <= 1e-14, w


@pytest.mark.parametrize("family", list(DomainFamily), ids=lambda f: f.value)
def test_jacobian_through_a_composed_automorphism_against_the_oracle(family):
    # interior points only: near a singular point, rounding eta^{-1}(w) alone
    # moves J by (distance)^-1 ulps, on the complex derivative's path as well
    eta = MoebiusAutomorphism(a=0.3 - 0.4j, rotation=0.7)
    phi = ConformalMap(family, eta)
    for w in _INTERIOR:  # the exterior family's puncture is eta(0), not one of these
        exact = _exact_jacobian(family, w, eta)
        assert float(abs(mp.mpf(phi.inverse_jacobian(w)) - exact) / exact) <= 1e-14, w


# phi and phi' of each family, as 50-digit mpmath functions of z
_PHI = {
    DomainFamily.DISC: lambda z: z,
    DomainFamily.EXTERIOR: lambda z: 1 / z,
    DomainFamily.HALFPLANE: lambda z: (z - 1j) / (z + 1j),
    DomainFamily.STRIP: mp.tan,
    DomainFamily.CARDIOID: lambda z: 2 * mp.sqrt(z) - 1,
    DomainFamily.SLITPLANE: lambda z: 2 * z / (1 + 2 * z + mp.sqrt(1 + 4 * z)),
}
_PHI_PRIME = {
    DomainFamily.DISC: lambda z: mp.mpf(1),
    DomainFamily.EXTERIOR: lambda z: -1 / z**2,
    DomainFamily.HALFPLANE: lambda z: 2j / (z + 1j) ** 2,
    DomainFamily.STRIP: lambda z: 1 / mp.cos(z) ** 2,
    DomainFamily.CARDIOID: lambda z: 1 / mp.sqrt(z),
    DomainFamily.SLITPLANE: lambda z: 2 / (mp.sqrt(1 + 4 * z) * (1 + 2 * z + mp.sqrt(1 + 4 * z))),
}
_SMALLEST_NORMAL = np.finfo(float).tiny


def _exact_weight(family, z: complex, eta=None):
    u = mp.mpc(z.real, z.imag)
    h = abs(_PHI_PRIME[family](u)) ** 2
    if eta is not None:
        a = mp.mpc(eta.a.real, eta.a.imag)
        h *= ((1 - abs(a) ** 2) / abs(1 - mp.conj(a) * _PHI[family](u)) ** 2) ** 2
    return h


def _weight_points(family, rng) -> np.ndarray:
    """Interior samples, boundary samples moved inward by 1e-14 ... 1e-2, and far points."""
    to_disc = ConformalMap.to_disc(family)
    gamma, normal = boundary_samples(family, 32)
    near = (gamma[:, None] + np.logspace(-14, -2, 7)[None, :] * normal[:, None]).ravel()
    radius = 10.0 ** rng.uniform(0.0, 12.0, 128)
    far = radius * np.exp(2j * np.pi * rng.uniform(size=128))
    # inside the strip and above or beside the slit as well: |Im z| up to 1e12
    tall = rng.uniform(-0.78, 0.78, 64) + 1j * np.sign(rng.uniform(-1, 1, 64)) * radius[:64]
    pts = np.concatenate([sample_interior(to_disc, 32, rng), near, far, tall])
    return pts[to_disc.contains(pts)]


@pytest.mark.parametrize("eta", [None, MoebiusAutomorphism(a=0.3 - 0.4j, rotation=0.7)],
                         ids=["bare", "tilted"])
@pytest.mark.parametrize("family", list(DomainFamily), ids=lambda f: f.value)
def test_weight_against_the_oracle_near_the_boundary_and_far_out(family, eta):
    # h = J(z, phi) from the real kernels, |z| up to 1e12 and 1e-14 from the boundary
    phi = ConformalMap(family, eta)
    pts = _weight_points(family, np.random.default_rng(7))
    assert len(pts) >= 150
    h = phi.jacobian(pts)
    worst = 0.0
    for z, got in zip(pts, h):
        exact = _exact_weight(family, complex(z), eta)
        if exact < _SMALLEST_NORMAL:
            assert got < 2 * _SMALLEST_NORMAL, z  # h underflows, as it must
            continue
        worst = max(worst, float(abs(mp.mpf(got) - exact) / exact))
    assert worst <= 1e-14


# psi of each family, as an mpmath function of w
_PSI = {
    DomainFamily.DISC: lambda w: w,
    DomainFamily.EXTERIOR: lambda w: 1 / w,
    DomainFamily.HALFPLANE: lambda w: 1j * (1 + w) / (1 - w),
    DomainFamily.STRIP: mp.atan,
    DomainFamily.CARDIOID: lambda w: (1 + w) ** 2 / 4,
    DomainFamily.SLITPLANE: lambda w: w / (1 - w) ** 2,
}
_LARGEST = mp.mpf(np.finfo(float).max)


def _rounds_to(got: float, exact, scale) -> bool:
    """``got`` is ``exact`` to 4e-15 of ``scale``, or inf where ``exact`` leaves the floats."""
    if math.isinf(got):
        return abs(exact) >= _LARGEST * (1 - 4e-15) and (got > 0) == (exact > 0)
    return abs(got - exact) <= 4e-15 * scale  # False for a NaN


@pytest.mark.parametrize("family", list(DomainFamily), ids=lambda f: f.value)
def test_from_disc_on_the_whole_disc_property(family):
    # |w| from 2^-1074 to 1 - 2^-53, on the axes and off them, warnings as
    # errors: psi(w) and J(w, psi) are the exact values rounded, and inf (never
    # NaN) only where those leave the floats, as at the exterior's puncture
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    phi = ConformalMap.to_disc(family)
    radius = (st.floats(2.0**-1074, 1.0 - 2.0**-53)
              | st.floats(-1074.0, 0.0).map(lambda e: min(2.0**e, 1.0 - 2.0**-53))
              | st.integers(1, 53).map(lambda k: 1.0 - 2.0**-k))
    direction = (st.sampled_from([1.0, -1.0, 1j, -1j])
                 | st.floats(-math.pi, math.pi).map(lambda t: complex(math.cos(t), math.sin(t))))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(radius, direction)
    def check(r, u):
        w = complex(r * u)
        hypothesis.assume(inverse_accepts(phi, w))  # w = 0 is the exterior's puncture
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, jac = phi.inverse(w), phi.inverse_jacobian(w)
        with mp.workprec(1200):  # atan(w) ~ w cancels to below 2^-1074
            exact = _PSI[family](mp.mpc(w.real, w.imag))
            size = abs(exact)
            for got, part in ((z.real, exact.real), (z.imag, exact.imag)):
                assert _rounds_to(got, part, size if size <= _LARGEST else abs(part)), (w, z)
            exact_jac = abs(_PSI_PRIME[family](mp.mpc(w.real, w.imag))) ** 2
            assert _rounds_to(jac, exact_jac, exact_jac), (w, jac)

    check()

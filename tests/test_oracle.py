"""Map derivatives and weights against an independent 50-digit oracle."""
import numpy as np
import pytest

from confweight import (ConformalMap, DomainFamily, MoebiusAutomorphism,
                        compose_with_automorphism)

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
    assert _rel(STRIP.derivative(z), sec2) <= 1e-14
    assert _rel(STRIP.jacobian(z), abs(sec2) ** 2) <= 1e-14


@pytest.mark.parametrize("w", [0.999j, -0.999j, 0.9999999j, 0.5 + 0.5j, 0.99999 + 1e-3j])
def test_strip_inverse_derivative_near_plus_minus_i(w):
    exact = 1 / (1 + mp.mpc(w.real, w.imag) ** 2)
    assert _rel(STRIP.invert().derivative(w), exact) <= 1e-14


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
    psi = ConformalMap.from_disc(family)
    points = list(_INTERIOR) + [w for p in _SINGULAR.get(family, ()) for w in _approach(p)]
    for w in points:
        if not psi.contains(w):
            continue  # w = 0 is the exterior family's puncture
        exact = _exact_jacobian(family, w)
        assert float(abs(mp.mpf(psi.jacobian(w)) - exact) / exact) <= 1e-14, w


@pytest.mark.parametrize("family", list(DomainFamily), ids=lambda f: f.value)
def test_jacobian_through_a_composed_automorphism_against_the_oracle(family):
    # interior points only: near a singular point, rounding eta^{-1}(w) alone
    # moves J by (distance)^-1 ulps, on the complex derivative's path as well
    eta = MoebiusAutomorphism(a=0.3 - 0.4j, rotation=0.7)
    psi = compose_with_automorphism(ConformalMap.to_disc(family), eta).invert()
    for w in _INTERIOR:  # the exterior family's puncture is eta(0), not one of these
        exact = _exact_jacobian(family, w, eta)
        assert float(abs(mp.mpf(psi.jacobian(w)) - exact) / exact) <= 1e-14, w

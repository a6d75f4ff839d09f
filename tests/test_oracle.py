"""Map derivatives and weights against an independent 50-digit oracle."""
import numpy as np
import pytest

from confweight import ConformalMap, DomainFamily, WeightField

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
    assert _rel(WeightField(STRIP).evaluate(z), abs(sec2) ** 2) <= 1e-14


@pytest.mark.parametrize("w", [0.999j, -0.999j, 0.9999999j, 0.5 + 0.5j, 0.99999 + 1e-3j])
def test_strip_inverse_derivative_near_plus_minus_i(w):
    exact = 1 / (1 + mp.mpc(w.real, w.imag) ** 2)
    assert _rel(STRIP.invert().derivative(w), exact) <= 1e-14

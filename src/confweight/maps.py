"""Closed-form conformal maps between six planar domains and the unit disc.

Each family fixes a domain Omega and an analytic bijection phi: Omega -> D.
A ``ConformalMap`` is phi, its ``eval``; the inverse psi = phi^{-1} from the
disc is its ``inverse``:

========== ============================== ========================= =====================
family     Omega                          phi(z), ``eval``          psi(w), ``inverse``
========== ============================== ========================= =====================
disc       |z| < 1                        z                         w
exterior   |z| > 1                        1/z                       1/w
halfplane  Im z > 0                       (z - i)/(z + i)           i(1 + w)/(1 - w)
strip      |Re z| < pi/4                  tan z                     arctan w
cardioid   r < (1 + cos t)/2 (polar)      2 sqrt(z) - 1             (1 + w)^2 / 4
slitplane  C minus (-inf, -1/4]           2z/(1 + 2z + sqrt(1+4z))  w/(1 - w)^2
========== ============================== ========================= =====================

Both have a real Jacobian, closed-form in the real and imaginary parts x, y
of the argument: phi's is the conformal weight h(z) = J(z, phi) = |phi'(z)|^2,
the map's ``jacobian``, and psi's is its ``inverse_jacobian`` J(w, psi) = |psi'(w)|^2:

========== ================================= ===========================================
family     h(z), ``jacobian``                J(w, psi), ``inverse_jacobian``
========== ================================= ===========================================
disc       1                                 1
exterior   1/(x^2 + y^2)^2                   1/(x^2 + y^2)^2
halfplane  4/(x^2 + (1 + y)^2)^2             4/((1 - x)^2 + y^2)^2
strip      16 e^2/(2e cos 2x + 1 + e^2)^2    1/((x^2 + (1 - y)^2)(x^2 + (1 + y)^2))
cardioid   1/hypot(x, y)                     ((1 + x)^2 + y^2)/4
slitplane  16/(|s|^2 |1 + s|^4)              ((1 + x)^2 + y^2)/((1 - x)^2 + y^2)^3
========== ================================= ===========================================

with e = e^{-2|y|} <= 1, which cannot overflow, and s = sqrt(1 + 4z), the
slit plane's one complex square root.  Each singular factor of J(w, psi) is a
sum of squares of (1 +- x) or (1 +- y), which are computed exactly near the
singular point, so no factor cancels.  Each h(z) divides by a sum of positive
terms (cos 2x > 0 in the strip, Re s > 0 off the slit), so none cancels
either; h is not taken as 1/J(phi(z), psi), which cancels in the far field.

Square roots are principal; the cardioid and slit-plane formulas therefore
exclude the rays (-inf, 0] and (-inf, -1/4], which coincide with (part of)
the domain boundary, so no interior point ever touches a cut.

Maps may carry a disc automorphism eta(w) = e^{i t}(w - a)/(1 - conj(a) w)
composed on the disc side: ``eval`` is eta(phi(z)) and ``inverse``
psi(eta^{-1}(w)).  Only eta's real Jacobian enters a weight, as
J(z, eta o phi) = J(phi(z), eta) h(z), so no map takes a complex derivative.
All evaluators accept scalars or numpy arrays; where a part of z reaches
2^1021, phi takes an equal form that cannot overflow.  The samplers draw
area-uniform disc points (``_annulus``) from the caller's generator alone.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BranchCutViolation, PointOutsideDomain
from .util import as_complex_array


class DomainFamily(str, enum.Enum):
    DISC = "disc"
    EXTERIOR = "exterior"
    HALFPLANE = "halfplane"
    STRIP = "strip"
    CARDIOID = "cardioid"
    SLITPLANE = "slitplane"


@dataclass(frozen=True)
class MoebiusAutomorphism:
    """Disc automorphism eta(w) = e^{i rotation} (w - a) / (1 - conj(a) w)."""

    a: complex = 0j
    rotation: float = 0.0

    def __post_init__(self):
        a = complex(self.a)
        if not (cmath.isfinite(a) and math.isfinite(self.rotation)):
            raise ValueError("automorphism parameters must be finite")
        if abs(a) >= 1.0:
            raise ValueError("automorphism parameter must satisfy |a| < 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rotation", float(self.rotation))

    def __call__(self, w):
        arr, scalar = as_complex_array(w)
        out = np.exp(1j * self.rotation) * (arr - self.a) / (1.0 - np.conj(self.a) * arr)
        return complex(out) if scalar else out

    def jacobian(self, w):
        """The real Jacobian |eta'(w)|^2 = ((1 - |a|^2) / |1 - conj(a) w|^2)^2."""
        arr, scalar = as_complex_array(w)
        out = ((1.0 - abs(self.a) ** 2) / np.abs(1.0 - np.conj(self.a) * arr) ** 2) ** 2
        return float(out) if scalar else out

    def inverse(self) -> "MoebiusAutomorphism":
        # eta^{-1}(u) = e^{-i t}(u - a') / (1 - conj(a') u) with a' = -a e^{i t}
        return MoebiusAutomorphism(a=-self.a * cmath.exp(1j * self.rotation), rotation=-self.rotation)

    def compose(self, inner: "MoebiusAutomorphism") -> "MoebiusAutomorphism":
        """Return the automorphism self o inner in standard form.

        Its zero is inner's preimage of self.a; its rotation, in (-pi, pi], is
        the phase of the ratio of the diagonal Moebius coefficients of self o inner.
        """
        u = cmath.exp(1j * inner.rotation)
        ratio = (u + self.a * inner.a.conjugate()) / (1.0 + self.a.conjugate() * inner.a * u)
        theta = cmath.phase(cmath.exp(1j * self.rotation) * ratio)  # -pi is also pi
        return MoebiusAutomorphism(inner.inverse()(self.a), theta if theta > -math.pi else math.pi)

    def derivative_magnitude_bounds(self) -> tuple[float, float]:
        """Exact range of |eta'| on the disc: [(1-|a|)/(1+|a|), (1+|a|)/(1-|a|)]."""
        m = abs(self.a)
        return (1.0 - m) / (1.0 + m), (1.0 + m) / (1.0 - m)


# ---------------------------------------------------------------------------
# family formula bundles

_QUARTER_PI = math.pi / 4.0


def _cardioid_radius(theta):
    return 0.5 * (1.0 + np.cos(theta))


@dataclass(frozen=True)
class _FamilyOps:
    contains: Callable
    on_cut: Callable | None
    to_disc: Callable
    from_disc: Callable
    weight: Callable  # h(z) = |phi'(z)|^2 from x = Re z, y = Im z, in closed form
    jacobian: Callable  # |psi'(w)|^2 from x = Re w, y = Im w, in real arithmetic
    boundary: Callable
    punctured: bool = False  # psi is singular at w = 0, which phi never reaches


def _circle_samples(n):
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    return np.exp(1j * theta)


def _line_spread(n):
    # quasi-uniform cover of the real line through a tangent substitution
    u = (np.arange(n) + 0.5) / n
    return np.tan(np.pi * (u - 0.5))


def _disc_boundary(n):
    g = _circle_samples(n)
    return g, -g


def _exterior_boundary(n):
    g = _circle_samples(n)
    return g, g  # interior of the family is |z| > 1, so inward = outward radial


def _halfplane_boundary(n):
    t = _line_spread(n)
    return t.astype(complex), np.full(n, 1j)


def _strip_boundary(n):
    k = n // 2
    y1 = _line_spread(k)
    y2 = _line_spread(n - k)
    pts = np.concatenate([-_QUARTER_PI + 1j * y1, _QUARTER_PI + 1j * y2])
    nrm = np.concatenate([np.full(k, 1.0 + 0j), np.full(n - k, -1.0 + 0j)])
    return pts, nrm


def _cardioid_boundary(n):
    theta = -np.pi + 2.0 * np.pi * (np.arange(n) + 0.5) / n
    r = _cardioid_radius(theta)
    g = r * np.exp(1j * theta)
    dg = (-0.5 * np.sin(theta) + 1j * r) * np.exp(1j * theta)
    tangent = dg / np.abs(dg)
    return g, 1j * tangent  # boundary is positively oriented, interior on the left


def _slitplane_boundary(n):
    # both faces of the slit (-inf, -1/4], spread toward -inf
    k = n // 2
    u1 = (np.arange(k) + 0.5) / k
    u2 = (np.arange(n - k) + 0.5) / (n - k)
    x1 = -0.25 - np.tan(0.5 * np.pi * u1) ** 2
    x2 = -0.25 - np.tan(0.5 * np.pi * u2) ** 2
    pts = np.concatenate([x1, x2]).astype(complex)
    nrm = np.concatenate([np.full(k, 1j), np.full(n - k, -1j)])
    return pts, nrm


_SCALE = 2.0**-512  # exact; a far z scaled by it divides with no overflow or subnormal step


def _far_form(near, far):
    """A TO_DISC formula: ``near``, and the same map as ``far`` where a part of z
    reaches 2^1021, beyond which numpy's complex division and 4z can overflow."""
    def to_disc(z):
        big = (np.abs(z.real) >= 2.0**1021) | (np.abs(z.imag) >= 2.0**1021)
        if not big.any():
            return near(z)
        return np.where(big, far(np.where(big, z, 1.0)), near(np.where(big, 1.0, z)))
    return to_disc


def _quiet_overflow(f):
    """f with no warning where a value or a part of one leaves the floats: the
    exterior's puncture gives inf, and a far-field weight underflows to 0."""
    def quiet(*args):
        with np.errstate(divide="ignore", over="ignore"):
            return f(*args)
    return quiet


@_quiet_overflow
def _square_modulus(z):
    """x*x + y*y elementwise, the one unit-circle test: ``< 1`` is the open disc and
    ``> 1`` the exterior (a square that overflows is inf, so in the exterior).

    Unlike np.abs(z) < 1, ``< 1`` never accepts a point with exact x^2 + y^2 >= 1:
    with x*x the larger square, the sum rounds below 1 only if the rounded squares
    lose 2^-54 and a spacing of y*y, over half a spacing each.  It also keeps more
    of the interior points next to the circle, some of which np.abs rounds to
    |z| = 1.  Unlike np.abs(z) > 1, ``> 1`` never accepts a point with exact
    x^2 + y^2 <= 1: the sum rounds above 1 only if the rounded squares gain over
    2^-53, and they gain at most 2^-54 + 2^-55.
    """
    return np.square(z.real) + np.square(z.imag)


def _strip_weight(x, y):
    # |sec z|^4 with |cos z|^2 = (2e cos 2x + 1 + e^2)/(4e), e = e^{-2|y|}
    e = np.exp(-2.0 * np.abs(y))
    return 16.0 * e * e / (2.0 * e * np.cos(2.0 * x) + 1.0 + e * e) ** 2


def _slit_weight(x, y):
    # phi' = 4/(s (1 + s)^2), since 1 + 2z + s = (1 + s)^2 / 2
    s = np.sqrt(1.0 + 4.0 * (x + 1j * y))
    t = (1.0 + s.real) ** 2 + s.imag * s.imag
    return 16.0 / ((s.real * s.real + s.imag * s.imag) * t * t)


def _slit_jacobian(x, y):
    # d * d * d, not d ** 3: with ** 3 a ladder block's allocations let glibc
    # trim the heap after every block, for about 5x the page faults
    d = (1.0 - x) ** 2 + y * y
    return ((1.0 + x) ** 2 + y * y) / (d * d * d)


_FAMILY_OPS: dict[DomainFamily, _FamilyOps] = {
    DomainFamily.DISC: _FamilyOps(
        contains=lambda z: _square_modulus(z) < 1.0,
        on_cut=None,
        to_disc=lambda z: z,
        from_disc=lambda w: w,
        weight=lambda x, y: np.ones_like(x),
        jacobian=lambda x, y: np.ones_like(x),
        boundary=_disc_boundary,
    ),
    DomainFamily.EXTERIOR: _FamilyOps(
        contains=lambda z: _square_modulus(z) > 1.0,
        on_cut=None,
        to_disc=_far_form(lambda z: 1.0 / z, lambda z: _SCALE / (_SCALE * z)),
        # 1/w to the bit (2^1000 w is exact), but inf, never NaN, beyond the floats
        from_disc=_quiet_overflow(lambda w: 2.0**1000 / (2.0**1000 * w)),
        weight=_quiet_overflow(lambda x, y: 1.0 / (x * x + y * y) ** 2),
        jacobian=_quiet_overflow(lambda x, y: 1.0 / (x * x + y * y) ** 2),
        # 1/z maps the exterior onto the punctured disc; w = 0 has no preimage
        punctured=True,
        boundary=_exterior_boundary,
    ),
    DomainFamily.HALFPLANE: _FamilyOps(
        contains=lambda z: z.imag > 0.0,
        on_cut=None,
        to_disc=_far_form(lambda z: (z - 1j) / (z + 1j),
                          lambda z: (_SCALE * z - _SCALE * 1j) / (_SCALE * z + _SCALE * 1j)),
        from_disc=lambda w: 1j * (1.0 + w) / (1.0 - w),
        weight=_quiet_overflow(lambda x, y: 4.0 / (x * x + (1.0 + y) ** 2) ** 2),
        jacobian=lambda x, y: 4.0 / ((1.0 - x) ** 2 + y * y) ** 2,
        boundary=_halfplane_boundary,
    ),
    DomainFamily.STRIP: _FamilyOps(
        contains=lambda z: np.abs(z.real) < _QUARTER_PI,
        on_cut=None,
        to_disc=np.tan,
        from_disc=np.arctan,
        weight=_strip_weight,
        jacobian=lambda x, y: 1.0 / ((x * x + (1.0 - y) ** 2) * (x * x + (1.0 + y) ** 2)),
        boundary=_strip_boundary,
    ),
    DomainFamily.CARDIOID: _FamilyOps(
        # the cusp z = 0 sits on the boundary; theta = pi never occurs inside
        contains=lambda z: (z != 0) & (np.abs(z) < _cardioid_radius(np.angle(z))),
        on_cut=lambda z: (z.imag == 0.0) & (z.real <= 0.0),
        to_disc=lambda z: 2.0 * np.sqrt(z) - 1.0,
        from_disc=lambda w: 0.25 * (1.0 + w) ** 2,
        weight=lambda x, y: 1.0 / np.hypot(x, y),
        jacobian=lambda x, y: 0.25 * ((1.0 + x) ** 2 + y * y),
        boundary=_cardioid_boundary,
    ),
    DomainFamily.SLITPLANE: _FamilyOps(
        contains=lambda z: ~((z.imag == 0.0) & (z.real <= -0.25)),
        on_cut=lambda z: (z.imag == 0.0) & (z.real <= -0.25),
        # rationalized inverse of the Koebe map w/(1-w)^2, stable near z = 0; far
        # out (s - 1)/(s + 1) with s = 2 sqrt(z + 1/4), halved to (s/2 - 1/2)/(s/2 + 1/2)
        to_disc=_far_form(lambda z: 2.0 * z / (1.0 + 2.0 * z + np.sqrt(1.0 + 4.0 * z)),
                          lambda z: (np.sqrt(z + 0.25) - 0.5) / (np.sqrt(z + 0.25) + 0.5)),
        from_disc=lambda w: w / (1.0 - w) ** 2,
        weight=_quiet_overflow(_slit_weight),
        jacobian=_slit_jacobian,
        boundary=_slitplane_boundary,
    ),
}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConformalMap:
    """A family's map phi: Omega -> D, optionally rotated/recentred on the disc.

    ``automorphism`` eta acts on the disc side: ``eval`` is eta(phi(z)) and
    ``inverse`` psi(eta^{-1}(w)), its exact inverse on the open disc.
    """

    family: DomainFamily
    automorphism: MoebiusAutomorphism | None = None

    @classmethod
    def to_disc(cls, family: DomainFamily | str) -> "ConformalMap":
        return cls(DomainFamily(family))

    @property
    def _ops(self) -> _FamilyOps:
        return _FAMILY_OPS[self.family]

    def _check_input(self, arr: np.ndarray) -> None:
        inside = self._ops.contains(arr)
        if np.all(inside):
            return
        z = arr[~inside].ravel()[0] if arr.ndim else complex(arr)
        on_cut = self._ops.on_cut
        if on_cut is not None and on_cut(z):
            raise BranchCutViolation(f"{z} lies on the excluded ray of '{self.family.value}'")
        raise PointOutsideDomain(f"{z} is not an interior point of '{self.family.value}'")

    def _disc_side(self, w) -> tuple[np.ndarray, np.ndarray, bool]:
        """(w, eta^{-1}(w), scalar flag) at points of the open disc; PointOutsideDomain at
        any other w, and at a punctured family's puncture eta(0), where eta^{-1}(w) = 0."""
        arr, scalar = as_complex_array(w)
        eta, inside, inner = self.automorphism, _square_modulus(arr) < 1.0, arr
        if eta is not None:  # eta^{-1}'s denominator vanishes only outside the disc
            inner = eta.inverse()(np.where(inside, arr, 0.0))
        if self._ops.punctured:
            inside &= inner != 0
        if not np.all(inside):
            bad = arr[~inside].ravel()[0] if arr.ndim else complex(arr)
            raise PointOutsideDomain(f"{bad} is not an interior point of 'unit disc'")
        return arr, inner, scalar

    def contains(self, z) -> bool | np.ndarray:
        """Membership of Omega, the map's domain (no exception); a cut family's excludes its cut."""
        arr, scalar = as_complex_array(z)
        inside = self._ops.contains(arr)
        return bool(inside) if scalar else inside

    def eval(self, z):
        """phi(z), then eta if composed, at interior points of Omega (scalar or array)."""
        arr, scalar = as_complex_array(z)
        self._check_input(arr)
        out = self._ops.to_disc(arr)
        if self.automorphism is not None:
            out = self.automorphism(out)
        return complex(out) if scalar else out

    def jacobian(self, z):
        """The weight h(z) = J(z, phi) = |phi'(z)|^2, times J(phi(z), eta) if composed, at
        interior points of Omega: a float for a scalar and a new float array otherwise."""
        arr, scalar = as_complex_array(z)
        self._check_input(arr)
        out = self._ops.weight(arr.real, arr.imag)
        if self.automorphism is not None:
            out = out * self.automorphism.jacobian(self._ops.to_disc(arr))
        return float(out) if scalar else out

    def inverse(self, w):
        """psi(w) = phi^{-1}(w), through eta^{-1} if composed, at points of the open disc."""
        _, inner, scalar = self._disc_side(w)
        out = self._ops.from_disc(inner)
        return complex(out) if scalar else out

    def inverse_jacobian(self, w):
        """J(w, psi) = |psi'(w)|^2, times J(w, eta^{-1}) if composed, at points of the open
        disc: a float for a scalar and a new float array otherwise."""
        arr, inner, scalar = self._disc_side(w)
        out = self._ops.jacobian(inner.real, inner.imag)
        if self.automorphism is not None:
            out = out * self.automorphism.inverse().jacobian(arr)
        return float(out) if scalar else out


# ---------------------------------------------------------------------------
# diagnostics


def boundary_samples(family: DomainFamily | str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n boundary points of the family domain with unit inward normals."""
    if n < 1:
        raise ValueError("need at least one boundary sample")
    return _FAMILY_OPS[DomainFamily(family)].boundary(n)


def boundary_image_check(mapping: ConformalMap) -> float:
    """Largest deviation of near-boundary images from the unit circle.

    Each of 64 boundary samples is entered along the inward normal at the
    offsets 1e-6, 1e-5, 1e-4 and 1e-3; the sample's deviation
    ``| |phi(z)| - 1 |`` is taken at the smallest offset whose point lies
    inside (the approach limit).  A correct map drives every deviation to
    zero; a map onto the wrong region does not.
    """
    gamma, normal = boundary_samples(mapping.family, 64)
    z = gamma[:, None] + np.array([1e-6, 1e-5, 1e-4, 1e-3]) * normal[:, None]
    inside = mapping.contains(z)
    hit = inside.any(axis=1)
    if not hit.any():
        raise PointOutsideDomain("no offset boundary sample landed inside the domain")
    first = z[hit, inside[hit].argmax(axis=1)]
    return float(np.max(np.abs(np.abs(mapping.eval(first)) - 1.0)))


def _annulus(rng: np.random.Generator, n: int, rmin: float, rmax: float) -> np.ndarray:
    """n points area-uniform on rmin <= |w| <= rmax, from 2n draws of ``rng``."""
    r = np.sqrt(rng.uniform(rmin**2, rmax**2, size=n))
    return r * np.exp(2j * np.pi * rng.uniform(size=n))


def sample_interior(mapping: ConformalMap, n: int, rng: np.random.Generator,
                    rmax: float = 0.98) -> np.ndarray:
    """psi(w) at n disc samples w, 1e-6 <= |w| <= rmax, clear of the exterior's puncture."""
    return mapping.inverse(_annulus(rng, n, 1e-6, rmax))


def round_trip_check(mapping: ConformalMap, n: int, rng: np.random.Generator) -> float:
    """Max |psi(phi(z)) - z| and |phi(psi(w)) - w| over n samples w, 0.1 <= |w| <= 0.9,
    pushed to the domain side."""
    w = _annulus(rng, n, 0.1, 0.9)
    z = mapping.inverse(w)
    phi_z = mapping.eval(z)
    err_w = np.abs(phi_z - w)
    err_z = np.abs(mapping.inverse(phi_z) - z)
    return float(max(err_w.max(), err_z.max()))

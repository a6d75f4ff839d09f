"""Closed-form conformal maps between six planar domains and the unit disc.

Each family fixes a domain Omega and an analytic bijection phi: Omega -> D
(direction ``TO_DISC``) together with its inverse psi = phi^{-1}
(direction ``FROM_DISC``) and both derivatives:

========== ============================== ========================= =====================
family     Omega                          phi(z)                    psi(w)
========== ============================== ========================= =====================
disc       |z| < 1                        z                         w
exterior   |z| > 1                        1/z                       1/w
halfplane  Im z > 0                       (z - i)/(z + i)           i(1 + w)/(1 - w)
strip      |Re z| < pi/4                  tan z                     arctan w
cardioid   r < (1 + cos t)/2 (polar)      2 sqrt(z) - 1             (1 + w)^2 / 4
slitplane  C minus (-inf, -1/4]           2z/(1 + 2z + sqrt(1+4z))  w/(1 - w)^2
========== ============================== ========================= =====================

A FROM_DISC map also has its real Jacobian J(w, psi) = |psi'(w)|^2, the
conformal weight read from the disc side, in closed form in x = Re w and
y = Im w:

========== ===========================================
family     J(w, psi)
========== ===========================================
disc       1
exterior   1/(x^2 + y^2)^2
halfplane  4/((1 - x)^2 + y^2)^2
strip      1/((x^2 + (1 - y)^2)(x^2 + (1 + y)^2))
cardioid   ((1 + x)^2 + y^2)/4
slitplane  ((1 + x)^2 + y^2)/((1 - x)^2 + y^2)^3
========== ===========================================

Each singular factor is a sum of squares of (1 +- x) or (1 +- y), which are
computed exactly near the singular point, so no factor cancels.

Square roots are principal; the cardioid and slit-plane formulas therefore
exclude the rays (-inf, 0] and (-inf, -1/4], which coincide with (part of)
the domain boundary, so no interior point ever touches a cut.

Maps may carry a disc automorphism eta(w) = e^{i t}(w - a)/(1 - conj(a) w)
composed on the disc side: TO_DISC evaluates eta(phi(z)), FROM_DISC evaluates
psi(eta^{-1}(w)).  All evaluators accept scalars or numpy arrays.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import BranchCutViolation, PointOutsideDomain
from .util import as_complex_array, default_seed


class DomainFamily(str, enum.Enum):
    DISC = "disc"
    EXTERIOR = "exterior"
    HALFPLANE = "halfplane"
    STRIP = "strip"
    CARDIOID = "cardioid"
    SLITPLANE = "slitplane"


class Direction(str, enum.Enum):
    TO_DISC = "to_disc"
    FROM_DISC = "from_disc"


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

    def derivative(self, w):
        arr, scalar = as_complex_array(w)
        out = np.exp(1j * self.rotation) * (1.0 - abs(self.a) ** 2) / (1.0 - np.conj(self.a) * arr) ** 2
        return complex(out) if scalar else out

    def inverse(self) -> "MoebiusAutomorphism":
        # eta^{-1}(u) = e^{-i t}(u - a') / (1 - conj(a') u) with a' = -a e^{i t}
        return MoebiusAutomorphism(a=-self.a * cmath.exp(1j * self.rotation), rotation=-self.rotation)

    def compose(self, inner: "MoebiusAutomorphism") -> "MoebiusAutomorphism":
        """Return the automorphism self o inner in standard form."""
        # zero of the composite: the preimage of self's zero under inner
        a_c = inner.inverse()(self.a)
        # match derivatives at the composite zero to recover the rotation
        d = self.derivative(inner(a_c)) * inner.derivative(a_c)
        phase = d * (1.0 - abs(a_c) ** 2)
        return MoebiusAutomorphism(a=a_c, rotation=float(np.angle(phase)))

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
    to_disc_prime: Callable
    from_disc: Callable
    from_disc_prime: Callable
    jacobian: Callable  # |psi'(w)|^2 from x = Re w, y = Im w, in real arithmetic
    disc_contains: Callable
    boundary: Callable


def _unit_disc_contains(w):
    return np.abs(w) < 1.0


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


def _slit_sqrt(z):
    return np.sqrt(1.0 + 4.0 * z)


def _slit_jacobian(x, y):
    # d * d * d, not d ** 3: with ** 3 a ladder block's allocations let glibc
    # trim the heap after every block, for about 5x the page faults
    d = (1.0 - x) ** 2 + y * y
    return ((1.0 + x) ** 2 + y * y) / (d * d * d)


_FAMILY_OPS: dict[DomainFamily, _FamilyOps] = {
    DomainFamily.DISC: _FamilyOps(
        contains=lambda z: np.abs(z) < 1.0,
        on_cut=None,
        to_disc=lambda z: z,
        to_disc_prime=lambda z: np.ones_like(z),
        from_disc=lambda w: w,
        from_disc_prime=lambda w: np.ones_like(w),
        jacobian=lambda x, y: np.ones_like(x),
        disc_contains=_unit_disc_contains,
        boundary=_disc_boundary,
    ),
    DomainFamily.EXTERIOR: _FamilyOps(
        contains=lambda z: np.abs(z) > 1.0,
        on_cut=None,
        to_disc=lambda z: 1.0 / z,
        to_disc_prime=lambda z: -1.0 / z**2,
        from_disc=lambda w: 1.0 / w,
        from_disc_prime=lambda w: -1.0 / w**2,
        jacobian=lambda x, y: 1.0 / (x * x + y * y) ** 2,
        # 1/z maps the exterior onto the punctured disc; w = 0 has no preimage
        disc_contains=lambda w: (np.abs(w) < 1.0) & (w != 0),
        boundary=_exterior_boundary,
    ),
    DomainFamily.HALFPLANE: _FamilyOps(
        contains=lambda z: z.imag > 0.0,
        on_cut=None,
        to_disc=lambda z: (z - 1j) / (z + 1j),
        to_disc_prime=lambda z: 2j / (z + 1j) ** 2,
        from_disc=lambda w: 1j * (1.0 + w) / (1.0 - w),
        from_disc_prime=lambda w: 2j / (1.0 - w) ** 2,
        jacobian=lambda x, y: 4.0 / ((1.0 - x) ** 2 + y * y) ** 2,
        disc_contains=_unit_disc_contains,
        boundary=_halfplane_boundary,
    ),
    DomainFamily.STRIP: _FamilyOps(
        contains=lambda z: np.abs(z.real) < _QUARTER_PI,
        on_cut=None,
        to_disc=np.tan,
        # sec^2 z, not 1 + tan^2 z: the latter cancels as |Im z| grows
        to_disc_prime=lambda z: 1.0 / np.cos(z) ** 2,
        from_disc=np.arctan,
        from_disc_prime=lambda w: 1.0 / ((1.0 - 1j * w) * (1.0 + 1j * w)),
        jacobian=lambda x, y: 1.0 / ((x * x + (1.0 - y) ** 2) * (x * x + (1.0 + y) ** 2)),
        disc_contains=_unit_disc_contains,
        boundary=_strip_boundary,
    ),
    DomainFamily.CARDIOID: _FamilyOps(
        # the cusp z = 0 sits on the boundary; theta = pi never occurs inside
        contains=lambda z: (z != 0) & (np.abs(z) < _cardioid_radius(np.angle(z))),
        on_cut=lambda z: (z.imag == 0.0) & (z.real <= 0.0),
        to_disc=lambda z: 2.0 * np.sqrt(z) - 1.0,
        to_disc_prime=lambda z: 1.0 / np.sqrt(z),
        from_disc=lambda w: 0.25 * (1.0 + w) ** 2,
        from_disc_prime=lambda w: 0.5 * (1.0 + w),
        jacobian=lambda x, y: 0.25 * ((1.0 + x) ** 2 + y * y),
        disc_contains=_unit_disc_contains,
        boundary=_cardioid_boundary,
    ),
    DomainFamily.SLITPLANE: _FamilyOps(
        contains=lambda z: ~((z.imag == 0.0) & (z.real <= -0.25)),
        on_cut=lambda z: (z.imag == 0.0) & (z.real <= -0.25),
        # rationalized inverse of the Koebe map w/(1-w)^2; stable near z = 0
        to_disc=lambda z: 2.0 * z / (1.0 + 2.0 * z + _slit_sqrt(z)),
        to_disc_prime=lambda z: 2.0 / (_slit_sqrt(z) * (1.0 + 2.0 * z + _slit_sqrt(z))),
        from_disc=lambda w: w / (1.0 - w) ** 2,
        from_disc_prime=lambda w: (1.0 + w) / (1.0 - w) ** 3,
        jacobian=_slit_jacobian,
        disc_contains=_unit_disc_contains,
        boundary=_slitplane_boundary,
    ),
}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConformalMap:
    """A family map in one direction, optionally rotated/recentred on the disc.

    ``automorphism`` always acts on the disc side: a TO_DISC map evaluates
    eta(phi(z)); the matching FROM_DISC map evaluates psi(eta^{-1}(w)), so
    ``invert`` is an exact inverse in both directions.
    """

    family: DomainFamily
    direction: Direction = Direction.TO_DISC
    automorphism: MoebiusAutomorphism | None = None

    @classmethod
    def to_disc(cls, family: DomainFamily | str) -> "ConformalMap":
        return cls(DomainFamily(family), Direction.TO_DISC)

    @classmethod
    def from_disc(cls, family: DomainFamily | str) -> "ConformalMap":
        return cls(DomainFamily(family), Direction.FROM_DISC)

    @property
    def _ops(self) -> _FamilyOps:
        return _FAMILY_OPS[self.family]

    def _inside(self, arr: np.ndarray) -> np.ndarray:
        """Membership of the map's input domain; a cut family's excludes its cut."""
        if self.direction is Direction.TO_DISC:
            return self._ops.contains(arr)
        return self._ops.disc_contains(arr)

    def _check_input(self, arr: np.ndarray) -> None:
        inside = self._inside(arr)
        if np.all(inside):
            return
        z = arr[~inside].ravel()[0] if arr.ndim else complex(arr)
        if self.direction is Direction.FROM_DISC:
            raise PointOutsideDomain(f"{z} is not an interior point of 'unit disc'")
        on_cut = self._ops.on_cut
        if on_cut is not None and on_cut(z):
            raise BranchCutViolation(f"{z} lies on the excluded ray of '{self.family.value}'")
        raise PointOutsideDomain(f"{z} is not an interior point of '{self.family.value}'")

    def contains(self, z) -> bool | np.ndarray:
        """Membership test for the map's input domain (no exception)."""
        arr, scalar = as_complex_array(z)
        inside = self._inside(arr)
        return bool(inside) if scalar else inside

    def eval(self, z):
        """Evaluate the map at interior points (scalar or array)."""
        arr, scalar = as_complex_array(z)
        self._check_input(arr)
        ops = self._ops
        if self.direction is Direction.TO_DISC:
            out = ops.to_disc(arr)
            if self.automorphism is not None:
                out = self.automorphism(out)
        else:
            inner = self.automorphism.inverse()(arr) if self.automorphism is not None else arr
            out = ops.from_disc(inner)
        return complex(out) if scalar else out

    def derivative(self, z):
        """Complex derivative at interior points (chain rule through eta)."""
        arr, scalar = as_complex_array(z)
        self._check_input(arr)
        ops = self._ops
        if self.direction is Direction.TO_DISC:
            out = ops.to_disc_prime(arr)
            if self.automorphism is not None:
                out = out * self.automorphism.derivative(ops.to_disc(arr))
        else:
            if self.automorphism is not None:
                eta_inv = self.automorphism.inverse()
                inner = eta_inv(arr)
                out = ops.from_disc_prime(inner) * eta_inv.derivative(arr)
            else:
                out = ops.from_disc_prime(arr)
        return complex(out) if scalar else out

    def jacobian(self, w):
        """The real Jacobian J(w, psi) = |psi'(w)|^2 of a FROM_DISC map.

        Evaluated in real arithmetic from the family's closed form, with no
        complex derivative; through eta^{-1}(w) = e^{i t'}(w - a')/(1 - conj(a') w)
        it gains the factor ((1 - |a'|^2) / |1 - conj(a') w|^2)^2.  Returns a
        float for a scalar and a new float array otherwise.
        """
        if self.direction is not Direction.FROM_DISC:
            raise ValueError("jacobian expects a FROM_DISC map")
        arr, scalar = as_complex_array(w)
        self._check_input(arr)
        kernel = self._ops.jacobian
        if self.automorphism is None:
            out = kernel(arr.real, arr.imag)
        else:
            eta_inv = self.automorphism.inverse()
            inner = eta_inv(arr)
            scale = (1.0 - abs(eta_inv.a) ** 2) / np.abs(1.0 - np.conj(eta_inv.a) * arr) ** 2
            out = kernel(inner.real, inner.imag) * scale**2
        return float(out) if scalar else out

    def invert(self) -> "ConformalMap":
        """The inverse map (direction flipped, same disc automorphism)."""
        other = Direction.FROM_DISC if self.direction is Direction.TO_DISC else Direction.TO_DISC
        return replace(self, direction=other)


def compose_with_automorphism(mapping: ConformalMap, eta: MoebiusAutomorphism) -> ConformalMap:
    """Post-compose a TO_DISC map with a disc automorphism."""
    if mapping.direction is not Direction.TO_DISC:
        raise ValueError("only TO_DISC maps can be post-composed with a disc automorphism")
    combined = eta if mapping.automorphism is None else eta.compose(mapping.automorphism)
    return replace(mapping, automorphism=combined)


# ---------------------------------------------------------------------------
# diagnostics


def boundary_samples(family: DomainFamily | str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n boundary points of the family domain with unit inward normals."""
    if n < 1:
        raise ValueError("need at least one boundary sample")
    return _FAMILY_OPS[DomainFamily(family)].boundary(n)


def boundary_image_check(mapping: ConformalMap, n: int = 64,
                         offsets: tuple[float, ...] = (1e-3, 1e-4, 1e-5, 1e-6)) -> float:
    """Largest deviation of near-boundary images from the unit circle.

    For each boundary sample the domain is entered along the inward normal at
    the given offsets; the sample's deviation ``| |phi(z)| - 1 |`` is taken at
    the deepest offset that stays interior (the approach limit).  A correct
    map drives every deviation to zero; a map onto the wrong region does not.
    """
    if mapping.direction is not Direction.TO_DISC:
        raise ValueError("boundary_image_check expects a TO_DISC map")
    gamma, normal = boundary_samples(mapping.family, n)
    worst = 0.0
    seen = False
    for k in range(len(gamma)):
        for eps in sorted(offsets):
            z = gamma[k] + eps * normal[k]
            if mapping.contains(z):
                worst = max(worst, abs(abs(mapping.eval(z)) - 1.0))
                seen = True
                break
    if not seen:
        raise PointOutsideDomain("no offset boundary sample landed inside the domain")
    return worst


def sample_interior(mapping: ConformalMap, n: int, rng: np.random.Generator | None = None,
                    rmax: float = 0.98) -> np.ndarray:
    """Interior points of the family domain, drawn by pulling disc samples back."""
    if rng is None:
        rng = np.random.default_rng(default_seed())
    fam = mapping.family
    r = rmax * np.sqrt(rng.uniform(size=n))
    r = np.maximum(r, 1e-6)  # keep clear of the removable puncture for 'exterior'
    w = r * np.exp(2j * np.pi * rng.uniform(size=n))
    return ConformalMap.from_disc(fam).eval(w)


def round_trip_check(mapping: ConformalMap, n: int = 1000,
                     rng: np.random.Generator | None = None,
                     rmin: float = 1e-6, rmax: float = 0.98) -> float:
    """Max |psi(phi(z)) - z| and |phi(psi(w)) - w| over seeded interior samples.

    Samples are drawn area-uniformly in the disc annulus rmin <= |w| <= rmax
    and pushed to the domain side.  For unbounded families, small rmin means
    huge |z|, where float64 can only resolve |z|*eps absolutely; callers
    wanting a tight absolute bound should raise rmin.
    """
    if rng is None:
        rng = np.random.default_rng(default_seed())
    to_disc = mapping if mapping.direction is Direction.TO_DISC else mapping.invert()
    from_disc = to_disc.invert()
    r = rmax * np.sqrt(rng.uniform(size=n))
    r = np.maximum(r, rmin)
    w = r * np.exp(2j * np.pi * rng.uniform(size=n))
    z = from_disc.eval(w)
    err_w = np.abs(to_disc.eval(z) - w)
    z2 = from_disc.eval(to_disc.eval(z))
    err_z = np.abs(z2 - z)
    return float(max(err_w.max(), err_z.max()))

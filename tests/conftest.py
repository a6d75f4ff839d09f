import numpy as np
import pytest

from confweight import (CHECK_SPEC, ConformalMap, DomainFamily, PointOutsideDomain,
                        default_seed, make_bump_family, pull_back)
from confweight.fields import _bump_tables, _pulled_back_checks

ALL_FAMILIES = tuple(DomainFamily)

# phi' and psi' of each family in closed form: the tests' reference derivatives
PHI_PRIME = {
    DomainFamily.DISC: lambda z: np.ones_like(z),
    DomainFamily.EXTERIOR: lambda z: -1.0 / z**2,
    DomainFamily.HALFPLANE: lambda z: 2j / (z + 1j) ** 2,
    DomainFamily.STRIP: lambda z: 1.0 / np.cos(z) ** 2,
    DomainFamily.CARDIOID: lambda z: 1.0 / np.sqrt(z),
    DomainFamily.SLITPLANE: lambda z: 2.0 / (np.sqrt(1.0 + 4.0 * z)
                                             * (1.0 + 2.0 * z + np.sqrt(1.0 + 4.0 * z))),
}
PSI_PRIME = {
    DomainFamily.DISC: lambda w: np.ones_like(w),
    DomainFamily.EXTERIOR: lambda w: -1.0 / w**2,
    DomainFamily.HALFPLANE: lambda w: 2j / (1.0 - w) ** 2,
    DomainFamily.STRIP: lambda w: 1.0 / ((1.0 - 1j * w) * (1.0 + 1j * w)),
    DomainFamily.CARDIOID: lambda w: 0.5 * (1.0 + w),
    DomainFamily.SLITPLANE: lambda w: (1.0 + w) / (1.0 - w) ** 3,
}


def _eta_prime(eta, w):
    """eta'(w) = e^{it}(1 - |a|^2)/(1 - conj(a) w)^2 for eta(w) = e^{it}(w - a)/(1 - conj(a) w)."""
    return np.exp(1j * eta.rotation) * (1.0 - abs(eta.a) ** 2) / (1.0 - np.conj(eta.a) * w) ** 2


def _derivative(mapping, z, inverse=False):
    """phi'(z) of ``mapping``, or with ``inverse`` its psi'(z), chain rule through eta."""
    z = np.asarray(z, dtype=complex)
    eta = mapping.automorphism
    if not inverse:
        out = PHI_PRIME[mapping.family](z)
        if eta is not None:
            out = out * _eta_prime(eta, ConformalMap.to_disc(mapping.family).eval(z))
    elif eta is None:
        out = PSI_PRIME[mapping.family](z)
    else:
        eta_inv = eta.inverse()
        out = PSI_PRIME[mapping.family](eta_inv(z)) * _eta_prime(eta_inv, z)
    return out


def inverse_accepts(mapping, w):
    """Elementwise, whether ``mapping.inverse`` takes w without PointOutsideDomain: the
    open disc, less a punctured family's puncture."""
    def one(point):
        try:
            mapping.inverse(point)
        except PointOutsideDomain:
            return False
        return True
    return one(w) if np.ndim(w) == 0 else np.array([one(p) for p in np.ravel(w)])


def polar_theta(grid):
    """theta_j = 2*pi*j/n_theta of a ``PolarGrid``: the angles its ``phase`` is e^{i theta} of."""
    return 2.0 * np.pi * np.arange(grid.n_theta) / grid.n_theta


def _whole_disc_grid(spec):
    """The deleted whole-grid mode of ``disc_nodes``: (nodes, areas), every node in one product."""
    t = np.linspace(0.0, 1.0, spec.n_r + 1)
    edges = 1.0 - (1.0 - t) ** 3.0
    r = 0.5 * (edges[:-1] + edges[1:])
    dr = np.diff(edges)
    dtheta = 2.0 * np.pi / spec.n_theta
    theta = (np.arange(spec.n_theta) + 0.5) * dtheta
    areas = r * dr * dtheta
    w = r[:, None] * np.exp(1j * theta)[None, :]
    return w, np.broadcast_to(areas[:, None], w.shape)


@pytest.fixture
def whole_grid():
    """The reference nodes and areas of a ``DiscGridSpec``, formed on the whole grid at once."""
    return _whole_disc_grid


def _whole_pull_back(mapping, spec=CHECK_SPEC):
    """``pull_back``'s row blocks joined into whole-grid (h, jac), after checking they tile it."""
    rows, h, jac = zip(*pull_back(mapping, spec))
    assert np.array_equal(np.concatenate([np.arange(spec.n_r)[s] for s in rows]),
                          np.arange(spec.n_r))
    return np.concatenate(h), np.concatenate(jac)


@pytest.fixture
def pulled_back():
    """h(psi(w)) and J(w, psi) on the whole grid, shape (n_r, n_theta), from ``pull_back``."""
    return _whole_pull_back


@pytest.fixture
def derivative():
    """The complex derivative of a map (or with ``inverse=True`` of its inverse) in closed form."""
    return _derivative


@pytest.fixture
def rng():
    return np.random.default_rng(default_seed())


@pytest.fixture
def bumps(rng):
    return make_bump_family(5, rng=rng)


@pytest.fixture(params=[f.value for f in DomainFamily])
def family(request):
    return DomainFamily(request.param)


@pytest.fixture
def to_disc(family):
    return ConformalMap.to_disc(family)


@pytest.fixture
def family_checks():
    """verify's pass over one map: (mass, worst isometry gap, worst transfer defect).

    The isometry gap is taken over ``energies``, the transfer defect over
    ``transfers`` at r = 3, both tabulated on the support rows of ``spec``.
    """
    def run(mapping, energies=(), transfers=(), spec=CHECK_SPEC):
        fields = list(_bump_tables(energies, spec))
        transfer = list(_bump_tables(transfers, spec, 3.0))
        return _pulled_back_checks(mapping, spec, fields, transfer)
    return run

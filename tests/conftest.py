import numpy as np
import pytest

from confweight import (CHECK_SPEC, ConformalMap, DomainFamily, default_seed, disc_nodes,
                        make_bump_family)
from confweight.fields import _bump_tables, _pulled_back_checks

ALL_FAMILIES = tuple(DomainFamily)


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
    ``transfers`` at r = 3, both tabulated on the nodes of ``spec``.
    """
    def run(mapping, energies=(), transfers=(), spec=CHECK_SPEC):
        w, areas = disc_nodes(spec)
        fields = list(_bump_tables(energies, w, areas))
        transfer = list(_bump_tables(transfers, w, areas, 3.0))
        del w, areas  # as in verify, the pull-back builds its own nodes
        return _pulled_back_checks(mapping, spec, fields, transfer)
    return run

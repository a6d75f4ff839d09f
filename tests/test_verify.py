import hashlib
import json

import numpy as np
import pytest

from confweight import poisson, verify
from confweight.util import DEFAULT_SEED
from confweight.verify import _check_maps

# 3626764237 put a slit-plane evaluation point close enough to the branch point
# z = -1/4 that a plain central difference missed the 1e-7 tolerance
SEEDS = [3626764237, *range(1, 17)]


@pytest.mark.parametrize("seed", SEEDS)
def test_map_checks_pass_at_seed(seed):
    checks = []
    _check_maps(lambda name, passed, **detail: checks.append((name, passed, detail)),
                np.random.default_rng(seed))
    assert [name for name, passed, _ in checks if not passed] == []
    fd = [detail["max_rel"] for name, _, detail in checks if ".derivative_fd." in name]
    assert len(fd) == 12
    assert max(fd) <= 1e-7


def test_poisson_checks_solve_each_disc_grid_once(monkeypatch):
    # every family's transferred problem is the same disc problem
    counts = {"solve_dirichlet": 0, "weak_residual": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        wrapped = counted(getattr(poisson, name))
        for module in (verify, poisson):
            monkeypatch.setattr(module, name, wrapped)
    checks = []
    verify._check_poisson(
        lambda name, passed, **detail: checks.append(
            {"name": name, "passed": bool(passed), "detail": detail}),
        np.random.default_rng(DEFAULT_SEED))
    # 3 grids + 4 convergence levels + 2 re-solves + negation + weight spy
    assert counts == {"solve_dirichlet": 11, "weak_residual": 3}
    # digest taken when every family solved and tested its own three grids
    digest = hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest()
    assert digest == "27ea7f98bea0d9c7016393d01cf62a3515f3851ce338a75d599435014132f8a7"

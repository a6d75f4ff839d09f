import numpy as np
import pytest

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

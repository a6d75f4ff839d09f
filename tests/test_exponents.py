import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from confweight import (DEFAULT_SEED, ConformalMap, ConstantEstimate, DomainFamily,
                        ExponentOutOfRange, IterationDivergence, PolarGrid, TestBump,
                        exponent_bounds, make_bump_family, pairwise_sum,
                        poincare_constant_disc, q_from_ps)
from confweight import exponents
from confweight.cli import main
from confweight.fields import _bump_tables

from conftest import polar_theta

J01 = 2.404825557695773
# sharp K(r): sqrt(pi/8) at r = 1 (the torsion function), 1/j01 at r = 2, and
# K(3) from Richardson extrapolation of the radial iteration on 1024 and 2048 rings
SHARP_K = {1.0: math.sqrt(math.pi / 8.0), 2.0: 1.0 / J01, 3.0: 0.3878267822}


def test_q_from_ps_point_values():
    assert q_from_ps(3.0, 3.0) == 2.25
    assert abs(q_from_ps(4.0, 4.0) - 8.0 / 3.0) < 1e-15
    assert q_from_ps(2.5, 1.5) == pytest.approx(2.5 * 1.5 / 2.0)


def test_q_from_ps_conformal_case_is_exact():
    for p in np.linspace(2.001, 40.0, 50):
        assert q_from_ps(float(p), 2.0) == 2.0


def test_q_from_ps_domain():
    with pytest.raises(ExponentOutOfRange):
        q_from_ps(2.0, 3.0)
    with pytest.raises(ExponentOutOfRange):
        q_from_ps(3.0, 4.0 / 3.0)
    with pytest.raises(ExponentOutOfRange):
        q_from_ps(3.0, 4.2)
    q_from_ps(3.0, 4.0)  # endpoint admitted


def test_exponent_bounds_reference_point():
    # recomputed by hand: A = 1.752, p = 1.9
    a = 1.752
    b = exponent_bounds(1.9, -a)
    assert b.p_min == pytest.approx((a + 2.0) / (a + 1.0), rel=1e-15)
    assert b.q_max == pytest.approx(1.9 * a / (2.0 + a - 1.9), rel=1e-15)
    assert b.r_max == pytest.approx((2.0 * 1.9 / 0.1) * (a / (2.0 + a)), rel=1e-13)
    assert not b.conjectural


def test_exponent_bounds_chain():
    for a0 in (-1.9, -1.3, -0.7, -0.2):
        p_min = (abs(a0) + 2.0) / (abs(a0) + 1.0)
        for p in np.linspace(p_min + 0.01, 1.99, 7):
            b = exponent_bounds(float(p), a0)
            assert 1.0 <= b.q_max < 2.0 * p / (4.0 - p) < p < 2.0
            assert b.r_max < p / (2.0 - p)


def test_exponent_bounds_q_floor():
    # q_max -> 1 as p -> p_min
    a0 = -1.5
    p_min = (1.5 + 2.0) / (1.5 + 1.0)
    b = exponent_bounds(p_min + 1e-9, a0)
    assert b.q_max == pytest.approx(1.0, abs=1e-8)


def test_exponent_bounds_conjectural_endpoint():
    b = exponent_bounds(1.5, -2.0)
    assert b.conjectural
    assert b.q_max == 2.0 * 1.5 / (4.0 - 1.5)


# alpha0 a few ulps above -2, where rounding put q_max an ulp above 2p/(4 - p)
_NEAR_ENDPOINT = ("1.8557677645816182", "-1.9999999999999993")


def test_exponent_bounds_near_the_endpoint_through_the_cli(capsys):
    p, alpha0 = map(float, _NEAR_ENDPOINT)
    code = main(["exponents", "--p", _NEAR_ENDPOINT[0], "--alpha0", _NEAR_ENDPOINT[1]])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["q_max"] == 2.0 * p / (4.0 - p) == 1.7309391528847353
    assert doc["r_max"] <= p / (2.0 - p)
    assert p * abs(alpha0) / (2.0 + abs(alpha0) - p) > doc["q_max"]  # the raw formula


def test_exponent_bounds_near_the_endpoint_property():
    # never above the alpha0 = -2 bounds, and within 4 ulps of the exact values
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(st.one_of(st.floats(-2.0, -2.0 + 1e-9),
                                st.integers(0, 64).map(lambda k: -2.0 + k * 2.0**-52)),
                      st.floats(0.0, 1.0))
    def check(alpha0, t):
        a = abs(alpha0)
        p_min = (a + 2.0) / (a + 1.0)
        p = p_min + t * (2.0 - p_min)
        hypothesis.assume(p_min < p < 2.0)
        b = exponent_bounds(p, alpha0)
        assert b.q_max <= 2.0 * p / (4.0 - p) and b.r_max <= p / (2.0 - p)
        exact_a, exact_p = Fraction(a), Fraction(p)
        q = exact_p * exact_a / (2 + exact_a - exact_p)
        r = 2 * exact_p / (2 - exact_p) * exact_a / (2 + exact_a)
        assert abs(Fraction(b.q_max) - q) <= 4 * Fraction(math.ulp(float(q)))
        assert abs(Fraction(b.r_max) - r) <= 4 * Fraction(math.ulp(float(r)))
        if alpha0 == -2.0:
            assert b.q_max == 2.0 * p / (4.0 - p) and b.r_max == p / (2.0 - p)

    check()


def test_exponent_bounds_domain():
    with pytest.raises(ExponentOutOfRange):
        exponent_bounds(1.5, 0.0)
    with pytest.raises(ExponentOutOfRange):
        exponent_bounds(1.5, -2.5)
    with pytest.raises(ExponentOutOfRange):
        exponent_bounds(2.0, -1.0)     # p must stay below 2
    with pytest.raises(ExponentOutOfRange):
        exponent_bounds(1.05, -0.5)    # below p_min


# the two disc_eigenvalue tests read lambda_1 = K(2)^-2, which the radial
# iteration finds at r = 2 as disc_eigenvalue's inverse iteration did
def test_disc_eigenvalue_close_to_bessel():
    est = poincare_constant_disc(2.0, PolarGrid(64, 64))
    assert abs(est.value ** -2 - J01**2) / J01**2 < 1e-3
    assert est.iterations == 9


def test_disc_eigenvalue_refines_toward_target():
    lam64 = poincare_constant_disc(2.0, PolarGrid(64, 64)).value ** -2
    lam128 = poincare_constant_disc(2.0, PolarGrid(128, 128)).value ** -2
    target = J01**2
    assert abs(lam128 - target) < abs(lam64 - target)


def test_poincare_constant_r2():
    est = poincare_constant_disc(2.0, PolarGrid(128, 128))
    assert isinstance(est, ConstantEstimate)
    assert abs(est.value - 1.0 / J01) * J01 < 1e-4
    assert est.iterations == 9 and est.tolerance == 1e-13


def _sharp_ladder(r):
    return [poincare_constant_disc(r, PolarGrid(n, n)).value for n in (256, 512, 1024)]


@pytest.mark.parametrize("r", sorted(SHARP_K))
def test_radial_iteration_converges_to_the_sharp_constant_at_order_2(r):
    k256, k512, k1024 = _sharp_ladder(r)
    assert math.log2((k256 - k512) / (k512 - k1024)) == pytest.approx(2.0, abs=0.05)
    assert abs(k1024 - SHARP_K[r]) < 1e-6
    # Richardson: 2.9e-13, 4.4e-14 and 1.8e-11 off, the last from SHARP_K[3]'s 10 digits
    assert abs((4.0 * k1024 - k512) / 3.0 - SHARP_K[r]) < 1e-10


def test_the_torsion_function_is_the_extremal_at_r_1():
    # from u = 1 - r^2, g = u^0 = 1: the first solve is already the torsion
    # function, so the second step repeats its K to the bit
    assert poincare_constant_disc(1.0, PolarGrid(64, 64)).iterations == 2


def _witness(r, grid, bumps):
    # the largest ||b||_r / ||grad b||_2 of the bumps' tables; a flat bump has no ratio
    return max(t.norm / t.energy ** 0.5 for t in _bump_tables(bumps, grid, r) if t.energy)


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("r", [1.0, 1.5, 3.0, 6.0])
def test_the_bump_witness_stays_below_the_sharp_constant(r, n):
    # narrowest at r = 6 on 32^2: 0.257 against 0.410
    bumps = make_bump_family(64, rng=np.random.default_rng(DEFAULT_SEED))
    grid = PolarGrid(n, n)
    assert 0.0 < _witness(r, grid, bumps) < poincare_constant_disc(r, grid).value


def test_poincare_constant_bump_route(rng):
    bumps = make_bump_family(16, rng=rng)
    grid = PolarGrid(64, 64)
    base = _witness(1.0, grid, bumps)
    assert base > 0.0
    # the witness can only grow with more candidates
    assert _witness(1.0, grid, bumps + make_bump_family(8, rng=rng)) >= base


def _whole_grid_bound(r, grid, bumps):
    # reference: the L_p norms of each bump summed on every node of the grid
    def norm(v, p):
        return pairwise_sum(np.abs(v) ** p * grid.cell_areas) ** (1.0 / p)

    nodes = grid.r[:, None] * np.exp(1j * polar_theta(grid))[None, :]  # the whole grid at once
    best = 0.0
    for b in bumps:
        denom = norm(b.gradient(nodes), 2.0)
        if denom != 0.0:
            best = max(best, norm(b.value(nodes), r) / denom)
    return best


@pytest.mark.parametrize("n", [32, 64, 128, 256])
@pytest.mark.parametrize("r", [1.0, 1.5, 3.0, 6.0])
def test_bump_route_has_the_bits_of_whole_grid_norms(n, r):
    grid = PolarGrid(n, n)
    for seed in (0, 1, 2):
        bumps = make_bump_family(8, rng=np.random.default_rng(seed))
        assert _witness(r, grid, bumps).hex() == _whole_grid_bound(r, grid, bumps).hex()


def test_bump_route_skips_a_flat_bump():
    bumps = [TestBump(0.2j, 0.3, 0.0), TestBump(-0.1, 0.4)]
    grid = PolarGrid(64, 32)
    witness = _witness(3.0, grid, bumps)
    assert witness.hex() == _whole_grid_bound(3.0, grid, bumps).hex()
    assert witness > 0.0


def test_bump_route_keeps_the_usable_ratios_beside_an_underflowing_bump():
    grid = PolarGrid(64, 64)
    one = _witness(3.0, grid, [TestBump(0j, 0.5)])
    assert one == pytest.approx(0.2201054136936772, rel=1e-15)
    # both of the tiny bump's sums underflow to exact zeros, not NaN
    tiny = next(_bump_tables([TestBump(0j, 0.5, 1e-200)], grid, 3.0))
    assert tiny.norm == 0.0 and tiny.energy == 0.0
    assert _witness(3.0, grid, [TestBump(0j, 0.5, 1e-200), TestBump(0j, 0.5)]) == one


def test_bump_route_builds_one_table_at_a_time():
    # 64 bumps at 256^2: 3.1 MiB one table at a time, each table's nodes formed
    # on its support rows only (3.6 MiB when the table read the 1 MiB node array
    # of the whole grid), 4.6 MiB with whole-grid norms, 26.2 MiB with every
    # table held
    grid = PolarGrid(256, 256)
    bumps = make_bump_family(64, rng=np.random.default_rng(0))
    tracemalloc.start()
    try:
        _witness(3.0, grid, bumps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize("n_r, n_theta", [(8, 8), (16, 16), (31, 256), (256, 31)])
def test_the_radial_iteration_needs_no_grid_floor(n_r, n_theta):
    # the bump route refused these grids; K is found on the rings alone
    assert abs(poincare_constant_disc(3.0, PolarGrid(n_r, n_theta)).value - SHARP_K[3.0]) < 2e-3


def test_poincare_constant_domain():
    with pytest.raises(ExponentOutOfRange):
        poincare_constant_disc(0.5, PolarGrid(32, 32))


def test_eigen_iteration_budget_enforced(monkeypatch):
    monkeypatch.setattr(exponents, "_TOL", 1e-30)
    monkeypatch.setattr(exponents, "_MAX_ITERATIONS", 3)
    with pytest.raises(IterationDivergence, match="in 3 iterations"):
        poincare_constant_disc(2.0, PolarGrid(64, 64))


def test_weighted_constant_check_families(bumps, family_checks):
    disc_dev = family_checks(ConformalMap.to_disc(DomainFamily.DISC), transfers=bumps)[2]
    assert disc_dev <= 1e-12
    for name in ("halfplane", "slitplane"):
        dev = family_checks(ConformalMap.to_disc(name), transfers=bumps)[2]
        assert dev <= 1e-6

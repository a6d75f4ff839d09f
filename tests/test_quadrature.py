import math
import re
import tracemalloc

import numpy as np
import pytest

from confweight import (ConformalMap, ConfweightError, DiscGridSpec, DomainFamily,
                        GridTooLarge, IntegrandNotFinite, InvalidExponents, MoebiusAutomorphism,
                        Verdict, brennan_direct, brennan_scan, classify,
                        PolarGrid, compose_with_automorphism, disc_nodes, integrate_disc,
                        inverse_brennan, kpq_norm, pairwise_sum, quadrature, ring_nodes)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        DiscGridSpec(n_r=12, n_theta=16)  # not a power of two
    with pytest.raises(ValueError):
        DiscGridSpec(n_r=4, n_theta=16)   # too small


def test_grid_spec_levels():
    spec = DiscGridSpec(n_r=16, n_theta=16)
    lvl3 = spec.level(2)
    assert (lvl3.n_r, lvl3.n_theta) == (64, 64)


def test_disc_nodes_partition_unity(monkeypatch):
    spec = DiscGridSpec(n_r=32, n_theta=64)
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", 8 * spec.n_theta)
    rows, nodes = zip(*disc_nodes(spec))
    w = np.concatenate(nodes)
    areas = np.concatenate([spec.cell_areas[s] for s in rows])
    assert len(rows) == 4
    assert w.shape == areas.shape == (32, 64)
    assert np.all(np.abs(w) < 1.0)
    assert pairwise_sum(areas) == pytest.approx(math.pi, rel=1e-14)


@pytest.mark.parametrize("n_r,n_theta", [(16, 16), (2048, 8), (64, 2048)])
def test_disc_node_weights_equal_the_outer_product(n_r, n_theta, whole_grid):
    spec = DiscGridSpec(n_r=n_r, n_theta=n_theta)
    edges = 1.0 - (1.0 - np.linspace(0.0, 1.0, n_r + 1)) ** 3.0
    r, dr = 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)
    outer = (r * dr)[:, None] * np.full(n_theta, 2.0 * np.pi / n_theta)[None, :]
    weights = spec.cell_areas
    assert weights.shape == (n_r, n_theta) and not weights.flags.writeable
    assert np.array_equal(weights, outer)
    assert np.array_equal(weights, whole_grid(spec)[1])
    assert np.array_equal(spec.r, r)


def test_integrate_constant_exact():
    res = integrate_disc(lambda w: 1.0)
    assert res.verdict is Verdict.CONVERGED
    assert res.value == pytest.approx(math.pi, rel=1e-14)


def test_integrate_radial_square():
    res = integrate_disc(lambda w: np.abs(w) ** 2, tol=1e-5)
    assert res.verdict is Verdict.CONVERGED
    assert res.value == pytest.approx(math.pi / 2.0, rel=1e-5)


def test_integrate_log_singularity_diverges():
    res = integrate_disc(lambda w: 1.0 / (1.0 - np.abs(w)))
    assert res.verdict is Verdict.DIVERGENT
    assert res.levels_used == 8


def test_integrand_not_finite():
    def bad(w):
        out = np.ones(w.shape)
        out[w.real > 0.5] = np.nan
        return out
    with pytest.raises(IntegrandNotFinite):
        integrate_disc(bad)


@pytest.mark.parametrize("rows", [1, 3, 16, 64])
def test_node_blocks_tile_the_whole_grid_bit_for_bit(rows, whole_grid, monkeypatch):
    for n_r, n_theta in [(32, 64), (16, 16), (2048, 8), (64, 2048)]:
        spec = DiscGridSpec(n_r=n_r, n_theta=n_theta)
        monkeypatch.setattr(quadrature, "_BLOCK_NODES", rows * n_theta)
        w, areas = whole_grid(spec)
        assert np.array_equal(ring_nodes(spec), w)
        assert np.array_equal(spec.cell_areas, areas)
        blocks = list(disc_nodes(spec))
        assert len(blocks) == -(-spec.n_r // rows)
        assert all(b.shape == spec.cell_areas[s].shape == (min(rows, spec.n_r), spec.n_theta)
                   for s, b in blocks[:-1])
        assert np.array_equal(np.concatenate([b for _, b in blocks]), w)
        assert np.array_equal(np.concatenate([spec.cell_areas[s] for s, _ in blocks]), areas)


@pytest.mark.parametrize("grid, count", [(PolarGrid(100, 48), 1), (PolarGrid(256, 256), 2),
                                         (DiscGridSpec(8, 1 << 17), 8)],
                         ids=["polar-100x48", "polar-256x256", "8x131072"])
def test_disc_nodes_tile_the_rows_in_blocks_of_the_block_size(grid, count):
    # the wide grid's rows each hold more than a block, so each is a block of its own
    blocks = list(disc_nodes(grid))
    assert len(blocks) == count
    assert [s.start for s, _ in blocks] == [0] + [s.stop for s, _ in blocks[:-1]]
    assert blocks[-1][0].stop == grid.n_r
    assert all(w.size <= max(quadrature._BLOCK_NODES, grid.n_theta) for _, w in blocks)
    assert all(np.array_equal(w, ring_nodes(grid, s)) for s, w in blocks)


def _whole_grid_levels(f, spec, levels, whole_grid):
    """Level values from one whole-grid evaluation per level (no row blocks)."""
    values = []
    for k in range(levels):
        w, weights = whole_grid(spec.level(k))
        vals = np.broadcast_to(np.asarray(f(w), dtype=float), w.shape)
        values.append(pairwise_sum(vals * weights))
    return values


_SLIT = ConformalMap.to_disc(DomainFamily.SLITPLANE)


@pytest.mark.parametrize("f", [lambda w: _SLIT.inverse_jacobian(w) ** -1.05,
                               lambda w: np.abs(w) ** 2,
                               lambda w: 1.0],
                         ids=["slitplane", "radial", "scalar"])
@pytest.mark.parametrize("spec, levels", [(DiscGridSpec(256, 256), 3),   # 1, 4, 16 blocks
                                          (DiscGridSpec(64, 2048), 1),   # 2 blocks
                                          (DiscGridSpec(8, 1 << 17), 1)],  # row wider than a block
                         ids=["256-ladder", "64x2048", "8x131072"])
def test_row_blocks_match_the_whole_grid_bit_for_bit(f, spec, levels, whole_grid):
    res = integrate_disc(f, spec, tol=1e-300, max_levels=levels)
    assert list(res.level_values) == _whole_grid_levels(f, spec, res.levels_used, whole_grid)


def test_integrand_not_finite_names_the_first_node_in_a_later_block():
    spec = DiscGridSpec(512, 512)  # four blocks of 128 rows
    w = ring_nodes(spec)
    r_cut = 0.5 * (abs(w[299, 0]) + abs(w[300, 0]))

    def bad(z):
        out = np.ones(z.shape)
        out[(np.abs(z) > r_cut) & (z.imag < 0.0)] = np.nan
        return out
    with pytest.raises(IntegrandNotFinite, match=re.escape(str(w[300, 256]))):
        integrate_disc(bad, spec, max_levels=1)


def test_ladder_over_the_node_budget_fails_before_evaluating():
    def never(w):
        raise AssertionError("no level may be evaluated")
    with pytest.raises(GridTooLarge, match=r"16777216 .*largest allowed max_levels is 9$"):
        integrate_disc(never, max_levels=10)
    with pytest.raises(GridTooLarge, match="is 0$"):
        integrate_disc(never, DiscGridSpec(8192, 8192), max_levels=1)


def test_a_spec_and_its_budget_check_allocate_no_rings():
    # r, phase and cell_areas are built when first read: a 4096^2 spec that
    # fails its budget check never holds them (128 KiB and more at 4096^2)
    tracemalloc.start()
    try:
        spec = DiscGridSpec(n_r=4096, n_theta=4096)
        with pytest.raises(GridTooLarge):
            integrate_disc(lambda w: 1.0, spec, max_levels=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10
    assert not {"r", "phase", "cell_areas"} & set(vars(spec))


def test_ring_nodes_of_any_rows_are_those_rows_of_the_whole_grid():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    grids = st.one_of(
        st.builds(DiscGridSpec, st.sampled_from([8, 16, 64]), st.sampled_from([8, 32])),
        st.builds(PolarGrid, st.integers(2, 70), st.integers(2, 40)))

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(grids, st.data())
    def check(grid, data):
        rows = data.draw(st.slices(grid.n_r))
        assert np.array_equal(ring_nodes(grid, rows), ring_nodes(grid)[rows])

    check()


def test_slitplane_level_and_ladder_peaks_do_not_grow_with_the_grid():
    # nodes are generated per row block, so neither the 64 MiB node array of a
    # 2048^2 level nor anything else of whole-level size is ever held; the
    # integrand is the real Jacobian raised in place, with no complex
    # derivative temporaries (4.6 MiB peak on that path)
    slit = ConformalMap.to_disc(DomainFamily.SLITPLANE)
    for spec, levels in ((DiscGridSpec(2048, 2048), 1), (DiscGridSpec(), 8)):
        tracemalloc.start()
        try:
            res = brennan_direct(slit, 4.1, spec, max_levels=levels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.levels_used == levels
        assert peak <= 3.5 * 2**20


_ETA = MoebiusAutomorphism(a=0.3 - 0.4j, rotation=0.7)
_MAPS = [(f, eta) for f in DomainFamily for eta in (None, _ETA)]
_MAP_IDS = [f"{f.value}-{'bare' if eta is None else 'eta'}" for f, eta in _MAPS]


def _map(family, eta):
    phi = ConformalMap.to_disc(family)
    return phi if eta is None else compose_with_automorphism(phi, eta)


@pytest.mark.parametrize("family,eta", _MAPS, ids=_MAP_IDS)
def test_ladders_match_the_complex_derivative_integrand(family, eta, derivative):
    # the integrand before the real Jacobian: |psi'|^(2 - s) from the closed-form derivative
    phi = _map(family, eta)
    for s in (1.2, 3.0, 4.1):
        got = brennan_direct(phi, s, max_levels=6)
        old = integrate_disc(lambda w: np.abs(derivative(phi, w, True)) ** (2.0 - s), max_levels=6)
        assert (got.verdict, got.levels_used) == (old.verdict, old.levels_used)
        np.testing.assert_allclose(got.level_values, old.level_values, rtol=1e-14, atol=0)


@pytest.mark.parametrize("family,eta", _MAPS, ids=_MAP_IDS)
def test_s2_is_exactly_pi_at_every_level(family, eta):
    # J^0 is one at every node, so each level sums the areas alone
    phi = _map(family, eta)
    for k in range(6):
        level = brennan_direct(phi, 2.0, DiscGridSpec().level(k), max_levels=1)
        assert level.value.hex() == math.pi.hex()


def test_classify_converged_checked_first():
    # a sequence can satisfy both patterns; Converged wins
    assert classify([1.0, 1.0], tol=1e-6) is Verdict.CONVERGED
    assert classify([1.0, 2.0, 3.0, 4.0, 5.0, 5.0], tol=1e-6) is Verdict.CONVERGED


def test_classify_divergent_needs_sustained_growth():
    vals = [1.0, 2.0, 4.0, 8.0, 16.0]
    assert classify(vals, tol=1e-9) is Verdict.DIVERGENT
    assert classify(vals[:4], tol=1e-9) is Verdict.INCONCLUSIVE  # only 3 increments
    shrinking = [1.0, 2.0, 2.5, 2.6, 2.61]
    assert classify(shrinking, tol=1e-9) is Verdict.INCONCLUSIVE


def test_classify_single_level_inconclusive():
    assert classify([3.0], tol=1e-6) is Verdict.INCONCLUSIVE


def test_quad_result_records_levels():
    res = integrate_disc(lambda w: np.abs(w), tol=1e-12, max_levels=4)
    assert res.levels_used == len(res.level_values) == 4
    assert res.error_estimate == abs(res.level_values[-1] - res.level_values[-2])


def test_brennan_s2_is_disc_area(to_disc):
    res = brennan_direct(to_disc, 2.0)
    assert res.verdict is Verdict.CONVERGED
    assert res.value == pytest.approx(math.pi, rel=1e-4)


def test_brennan_interior_exponent_converges():
    slit = ConformalMap.to_disc(DomainFamily.SLITPLANE)
    res = brennan_direct(slit, 3.0, tol=0.1)
    assert res.verdict is Verdict.CONVERGED


def test_brennan_endpoint_diverges():
    slit = ConformalMap.to_disc(DomainFamily.SLITPLANE)
    res = brennan_direct(slit, 4.1, tol=0.1)
    assert res.verdict is Verdict.DIVERGENT
    increments = np.diff(res.level_values)
    assert np.all(increments > 0)


def test_inverse_brennan_matches_direct():
    slit = ConformalMap.to_disc(DomainFamily.SLITPLANE)
    direct = brennan_direct(slit, 3.0, tol=0.1)
    inverse = inverse_brennan(slit, -1.0, tol=0.1)  # alpha = 2 - s
    assert direct.level_values == inverse.level_values


def _cardioid_inverse_brennan_exact(alpha: float) -> float:
    # psi' = (1+w)/2, so Gauss's 2F1(a, b; 2; 1) gives the integral over the disc
    return 2.0 ** -alpha * math.pi * math.gamma(2 + alpha) / math.gamma(2 + alpha / 2) ** 2


@pytest.mark.parametrize("alpha,verdict,levels", [
    (1.0, Verdict.CONVERGED, 7),
    (2.0, Verdict.CONVERGED, 8),
    (-0.5, Verdict.INCONCLUSIVE, 8),
])
def test_inverse_brennan_on_the_cardioid_is_within_its_error_estimate(alpha, verdict, levels):
    card = ConformalMap.to_disc(DomainFamily.CARDIOID)
    res = inverse_brennan(card, alpha, tol=1e-6, max_levels=8)
    assert (res.verdict, res.levels_used) == (verdict, levels)
    assert abs(res.value - _cardioid_inverse_brennan_exact(alpha)) <= res.error_estimate


def test_inverse_brennan_on_the_cardioid_at_alpha_minus_one_is_the_extrapolation_baseline():
    # the cusp's increments halve per level, so 8 plain levels stay 4.25e-3 off;
    # an extrapolated ladder has this to beat
    card = ConformalMap.to_disc(DomainFamily.CARDIOID)
    res = inverse_brennan(card, -1.0, tol=1e-6, max_levels=8)
    assert _cardioid_inverse_brennan_exact(-1.0) == pytest.approx(8.0, rel=1e-15)
    assert (res.verdict, res.levels_used) == (Verdict.INCONCLUSIVE, 8)
    assert abs(res.value - 8.0) == pytest.approx(4.25e-3, rel=1e-3)  # 5.3e-4 relative


def test_deterministic_reduction():
    slit = ConformalMap.to_disc(DomainFamily.SLITPLANE)
    a = brennan_direct(slit, 3.5, tol=0.1)
    b = brennan_direct(slit, 3.5, tol=0.1)
    assert a.level_values == b.level_values


def test_kpq_validates_exponents():
    card = ConformalMap.to_disc(DomainFamily.CARDIOID)
    with pytest.raises(InvalidExponents):
        kpq_norm(card, 2.0, 2.0)
    with pytest.raises(InvalidExponents):
        kpq_norm(card, 2.0, 0.5)


def test_kpq_cardioid_area_route():
    card = ConformalMap.to_disc(DomainFamily.CARDIOID)
    res = kpq_norm(card, 2.0, 1.0)
    assert res.verdict is Verdict.CONVERGED
    assert res.value == pytest.approx(math.sqrt(3.0 * math.pi / 8.0), rel=1e-4)


def test_kpq_exterior_diverges():
    ext = ConformalMap.to_disc(DomainFamily.EXTERIOR)
    res = kpq_norm(ext, 2.0, 1.0)
    assert res.verdict is Verdict.DIVERGENT


def _outcome(ladder):
    """Each result's level values, verdict, level count and error estimate, or the
    type and message of the error the ladder raised."""
    try:
        res = ladder()
    except ConfweightError as exc:
        return type(exc), str(exc)
    results = res if isinstance(res, list) else [res]
    return [(r.level_values, r.verdict, r.levels_used, r.error_estimate) for r in results]


_SCAN = (1.3, 1.5, 2.0, 3.0, 3.9, 4.1)


@pytest.mark.parametrize("family", list(DomainFamily), ids=lambda f: f.value)
def test_scan_is_each_solo_ladder_bit_for_bit(family):
    # the exponents stop at different levels (the slit plane's at 2, 3 and 8)
    phi = ConformalMap.to_disc(family)
    stops = set()
    for tol in (0.1, 1e-6) if family is DomainFamily.SLITPLANE else (0.1,):
        scan = _outcome(lambda: brennan_scan(phi, _SCAN, tol=tol))
        solo = [_outcome(lambda: brennan_direct(phi, s, tol=tol)) for s in _SCAN]
        if isinstance(scan, tuple):  # an error: some exponent's own ladder raises it
            assert scan in solo
        else:
            assert scan == [row for rows in solo for row in rows]
            stops |= {levels_used for _, _, levels_used, _ in scan}
    if family is DomainFamily.SLITPLANE:
        assert stops == {2, 3, 8}


def test_scan_raises_what_a_solo_ladder_raises():
    card = ConformalMap.to_disc(DomainFamily.CARDIOID)
    solo = _outcome(lambda: brennan_direct(card, 402.0))
    assert solo[0] is IntegrandNotFinite
    assert _outcome(lambda: brennan_scan(card, (3.0, 402.0))) == solo


def test_scan_checks_the_node_budget_before_any_level(monkeypatch):
    # the default ladder's last level holds 2^22 nodes
    nodes = []
    original_jacobian = ConformalMap.jacobian
    monkeypatch.setattr(ConformalMap, "jacobian",
                        lambda self, z: nodes.append(np.size(z)) or original_jacobian(self, z))
    monkeypatch.setattr(quadrature, "NODE_BUDGET", 1 << 21)
    slit = ConformalMap.to_disc(DomainFamily.SLITPLANE)
    with pytest.raises(GridTooLarge, match="largest allowed max_levels is 7"):
        brennan_scan(slit, (2.0, 3.0))
    assert nodes == []


@pytest.mark.parametrize("ss", [(), [], (2.0, math.nan), (math.inf,), (3.0, -math.inf)])
def test_scan_rejects_no_or_non_finite_exponents(ss):
    slit = ConformalMap.to_disc(DomainFamily.SLITPLANE)
    with pytest.raises(InvalidExponents):
        brennan_scan(slit, ss)


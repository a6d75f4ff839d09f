import math
import re
import tracemalloc

import numpy as np
import pytest

from confweight import (ConformalMap, DiscGridSpec, DomainFamily, GridTooLarge,
                        IntegrandNotFinite, InvalidExponents, MoebiusAutomorphism, Verdict,
                        brennan_direct, classify, compose_with_automorphism, disc_nodes,
                        integrate_disc, inverse_brennan, kpq_norm, pairwise_sum)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        DiscGridSpec(n_r=12, n_theta=16)  # not a power of two
    with pytest.raises(ValueError):
        DiscGridSpec(n_r=4, n_theta=16)   # too small
    with pytest.raises(ValueError):
        DiscGridSpec(n_r=16, n_theta=16, radial_grading=0.5)


def test_grid_spec_levels():
    spec = DiscGridSpec(n_r=16, n_theta=16)
    lvl3 = spec.level(2)
    assert (lvl3.n_r, lvl3.n_theta) == (64, 64)
    assert lvl3.radial_grading == spec.radial_grading


def test_disc_nodes_partition_unity():
    w, areas = disc_nodes(DiscGridSpec(n_r=32, n_theta=64))
    assert w.shape == areas.shape == (32, 64)
    assert np.all(np.abs(w) < 1.0)
    assert pairwise_sum(areas) == pytest.approx(math.pi, rel=1e-14)


@pytest.mark.parametrize("n_r,n_theta", [(16, 16), (2048, 8)])
def test_disc_node_weights_equal_the_outer_product(n_r, n_theta):
    spec = DiscGridSpec(n_r=n_r, n_theta=n_theta)
    edges = 1.0 - (1.0 - np.linspace(0.0, 1.0, n_r + 1)) ** spec.radial_grading
    r, dr = 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)
    outer = (r * dr)[:, None] * np.full(n_theta, 2.0 * np.pi / n_theta)[None, :]
    _, weights = disc_nodes(spec)
    assert weights.shape == (n_r, n_theta) and not weights.flags.writeable
    assert np.array_equal(weights, outer)


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
def test_node_blocks_tile_the_whole_grid_bit_for_bit(rows):
    spec = DiscGridSpec(n_r=32, n_theta=64)
    w, areas = disc_nodes(spec)
    blocks = list(disc_nodes(spec, rows))
    assert len(blocks) == -(-spec.n_r // rows)
    assert all(b.shape == a.shape == (min(rows, spec.n_r), spec.n_theta)
               for b, a in blocks[:-1])
    assert np.array_equal(np.concatenate([b for b, _ in blocks]), w)
    assert np.array_equal(np.concatenate([a for _, a in blocks]), areas)


def _whole_grid_levels(f, spec, levels):
    """Level values from one whole-grid evaluation per level (no row blocks)."""
    values = []
    for k in range(levels):
        w, weights = disc_nodes(spec.level(k))
        vals = np.broadcast_to(np.asarray(f(w), dtype=float), w.shape)
        values.append(pairwise_sum(vals * weights))
    return values


_SLIT_PSI = ConformalMap.to_disc(DomainFamily.SLITPLANE).invert()


@pytest.mark.parametrize("f", [lambda w: np.abs(_SLIT_PSI.derivative(w)) ** -2.1,
                               lambda w: np.abs(w) ** 2,
                               lambda w: 1.0],
                         ids=["slitplane", "radial", "scalar"])
@pytest.mark.parametrize("spec, levels", [(DiscGridSpec(256, 256), 3),   # 1, 4, 16 blocks
                                          (DiscGridSpec(64, 2048), 1),   # 2 blocks
                                          (DiscGridSpec(8, 1 << 17), 1)],  # row wider than a block
                         ids=["256-ladder", "64x2048", "8x131072"])
def test_row_blocks_match_the_whole_grid_bit_for_bit(f, spec, levels):
    res = integrate_disc(f, spec, tol=1e-300, max_levels=levels)
    assert list(res.level_values) == _whole_grid_levels(f, spec, res.levels_used)


def test_integrand_not_finite_names_the_first_node_in_a_later_block():
    spec = DiscGridSpec(512, 512)  # four blocks of 128 rows
    w, _ = disc_nodes(spec)
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
def test_ladders_match_the_complex_derivative_integrand(family, eta):
    # the integrand before the real Jacobian: |psi'|^(2 - s) from the complex derivative
    phi = _map(family, eta)
    psi = phi.invert()
    for s in (1.2, 3.0, 4.1):
        got = brennan_direct(phi, s, max_levels=6)
        old = integrate_disc(lambda w: np.abs(psi.derivative(w)) ** (2.0 - s), max_levels=6)
        assert (got.verdict, got.levels_used) == (old.verdict, old.levels_used)
        np.testing.assert_allclose(got.level_values, old.level_values, rtol=1e-14, atol=0)


@pytest.mark.parametrize("family,eta", _MAPS, ids=_MAP_IDS)
def test_s2_is_exactly_pi_at_every_level(family, eta):
    # J^0 is one at every node, so each level sums the areas alone
    phi = _map(family, eta)
    for k in range(6):
        level = brennan_direct(phi, 2.0, DiscGridSpec().level(k), max_levels=1)
        assert level.value.hex() == math.pi.hex()


def test_ladders_never_take_the_complex_derivative(monkeypatch):
    def refuse(self, z):
        raise AssertionError("a ladder evaluated the complex derivative")
    monkeypatch.setattr(ConformalMap, "derivative", refuse)
    slit = compose_with_automorphism(ConformalMap.to_disc(DomainFamily.SLITPLANE), _ETA)
    assert brennan_direct(slit, 3.0, tol=0.1).verdict is Verdict.CONVERGED
    assert inverse_brennan(slit.invert(), -1.0, tol=0.1).levels_used >= 2
    card = ConformalMap.to_disc(DomainFamily.CARDIOID)
    assert kpq_norm(card, 2.0, 1.0).verdict is Verdict.CONVERGED


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


def test_direction_agnostic():
    # the integrals only need psi, so both map directions are accepted
    to_disc = ConformalMap.to_disc(DomainFamily.STRIP)
    a = brennan_direct(to_disc, 3.0, tol=0.1)
    b = brennan_direct(to_disc.invert(), 3.0, tol=0.1)
    assert a.level_values == b.level_values

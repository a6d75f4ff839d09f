"""The change of variables z = psi(w) behind every matched-node identity check."""
import tracemalloc
from collections import deque

import numpy as np
import pytest

from confweight import (CHECK_SPEC, ConformalMap, DiscGridSpec, DomainFamily,
                        MoebiusAutomorphism,
                        composition_inequality_check, make_bump_family, pairwise_sum,
                        pull_back)
from confweight.fields import TestBump as Bump
from confweight import fields
from confweight.fields import _bump_tables, _pulled_back_checks, _pulled_back_sums, _row_sum

# float.hex of the checks on a 64 x 64 grid with make_bump_family(3, seed 5),
# taken before the checks shared pull_back: isometry, transfer defect at
# r = 3, composition (p, q) and its (lhs, rhs) per bump, and the mass sum.
# The cardioid isometry gap was 0 when its energies carried the factor
# (|phi'(psi)| |psi'|)^2; the density h(psi) J(., psi) moved it by 2^-53, and
# h from the real kernel moved it back.  The strip's gaps and last composition
# lhs moved by rounding with that kernel (old values in CHANGES.md).
_PINS = {
    "strip": ("0x1.f5fd48fdce182p-53", "0x1.faf8513b39974p-53", (3.0, 2.0),
              [("0x1.2993a115ee367p+1", "0x1.a062e0b5a1eefp+1"),
               ("0x1.6e2e65054bfb9p+0", "0x1.555a7046c318dp+1"),
               ("0x1.028a3ab6ede1ep+1", "0x1.e82098ad712bdp+1")],
              "0x1.921fb54442d18p+1"),
    "cardioid": ("0x0.0p+0", "0x1.8160e12eef4fep-53", (2.0, 1.5),
                 [("0x1.10703abb2b6efp+0", "0x1.2993a115ee367p+1"),
                  ("0x1.21db82153b0cbp-1", "0x1.6e2e65054bfb9p+0"),
                  ("0x1.a7ae4ca1ce86cp-1", "0x1.028a3ab6ede1fp+1")],
                 "0x1.921fb54442d18p+1"),
    "slitplane": ("0x1.7aec8b3fd860bp-52", "0x1.b876f1d041448p-53", (3.0, 2.0),
                  [("0x1.2993a115ee368p+1", "0x1.a062e0b5a1eefp+1"),
                   ("0x1.6e2e65054bfb9p+0", "0x1.555a7046c318dp+1"),
                   ("0x1.028a3ab6ede1fp+1", "0x1.e82098ad712bdp+1")],
                  "0x1.921fb54442d17p+1"),
}


def test_check_spec_is_the_512_grid():
    assert (CHECK_SPEC.n_r, CHECK_SPEC.n_theta) == (512, 512)
    assert CHECK_SPEC == DiscGridSpec().level(5)


def test_pull_back_defaults_to_check_spec(whole_grid, pulled_back):
    m = ConformalMap.to_disc(DomainFamily.HALFPLANE)
    h, jac = pulled_back(m)
    assert h.shape == jac.shape == (512, 512)
    assert np.array_equal(jac, m.inverse_jacobian(whole_grid(CHECK_SPEC)[0]))


@pytest.mark.parametrize("name", sorted(_PINS))
def test_pulled_back_checks_keep_their_bits(name, family_checks, pulled_back):
    iso, transfer, (p, q), comp, mass = _PINS[name]
    spec = DiscGridSpec(n_r=64, n_theta=64)
    bumps = make_bump_family(3, rng=np.random.default_rng(5))
    m = ConformalMap.to_disc(name)
    sums = family_checks(m, energies=bumps, transfers=bumps, spec=spec)
    assert [s.hex() for s in sums] == [mass, iso, transfer]
    recs = composition_inequality_check(m, p, q, bumps, spec)
    assert [(r.lhs.hex(), r.rhs.hex()) for r in recs] == comp
    # the pulled-back weight h(psi) J(., psi) sums to its pinned mass
    h, jac = pulled_back(m, spec)
    assert float(pairwise_sum(h * jac * spec.cell_areas)).hex() == mass


@pytest.mark.parametrize("group, bound_mib", [
    ("energies", 7.5),
    ("transfers", 7.5),
], ids=["isometry", "weighted_constant"])
def test_bump_loops_do_not_hold_the_derivative_arrays(group, bound_mib, family_checks):
    # at CHECK_SPEC one Jacobian array is 2 MiB.  The tables and the streamed
    # pull-back peak at 5.6 / 5.7 MiB; pulling h and jac back into whole-grid
    # arrays, and summing each table through a zero-filled whole-grid array,
    # read 9.8 / 11.0 MiB
    m = ConformalMap.to_disc(DomainFamily.STRIP)
    bumps = make_bump_family(3, rng=np.random.default_rng(5))
    tracemalloc.start()
    try:
        family_checks(m, **{group: bumps})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


@pytest.mark.parametrize("spec", [CHECK_SPEC, DiscGridSpec(n_r=64, n_theta=2048)],
                         ids=["512x512", "64x2048"])
@pytest.mark.parametrize("eta", [None, MoebiusAutomorphism(0.3 - 0.2j, rotation=0.7)],
                         ids=["plain", "eta"])
def test_blocked_pull_back_has_the_bits_of_a_whole_grid_evaluation(to_disc, eta, spec,
                                                                    whole_grid, pulled_back):
    m = ConformalMap(to_disc.family, eta)
    h, jac = pulled_back(m, spec)
    w = whole_grid(spec)[0]
    assert np.array_equal(h, m.jacobian(m.inverse(w)))
    assert np.array_equal(jac, m.inverse_jacobian(w))


def test_slit_plane_pull_back_keeps_its_temporaries_block_sized():
    # one complex 512^2 temporary is 4 MiB: evaluating the derivatives on the
    # whole grid peaked at 24.0 MiB, and row blocks of 2^16 nodes written into
    # whole-grid h and jac at 8.5 MiB; streamed blocks of 2^15 nodes peak at
    # 2.8 MiB.  The blocks are consumed, since a generator does its work then
    m = ConformalMap.to_disc(DomainFamily.SLITPLANE)
    deque(pull_back(m, DiscGridSpec()), maxlen=0)
    tracemalloc.start()
    try:
        deque(pull_back(m), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_family_checks_hold_one_block_beyond_their_tables(to_disc):
    # traced from when the tables exist: a block's map temporaries peak at
    # 1.8-2.8 MiB over them; whole-grid h and jac and a zero-filled whole-grid
    # array per sum read 7.6-8.5 MiB
    bumps = make_bump_family(3, rng=np.random.default_rng(5))
    energies = list(_bump_tables(bumps, CHECK_SPEC))
    transfers = list(_bump_tables(bumps, CHECK_SPEC, 3.0))
    tracemalloc.start()
    try:
        _pulled_back_checks(to_disc, CHECK_SPEC, energies, transfers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_family_checks_keep_the_bits_of_a_density_per_term(to_disc, monkeypatch):
    # each term once formed its own h * jac; the density formed once per block
    # gives every one of the ten sums the same bits
    bumps = make_bump_family(3, rng=np.random.default_rng(5))
    energies = list(_bump_tables(bumps, CHECK_SPEC))
    transfers = list(_bump_tables(bumps, CHECK_SPEC, 3.0))
    per_term = _pulled_back_sums(pull_back(to_disc), CHECK_SPEC, [
        (slice(0, CHECK_SPEC.n_r), lambda sub, h, jac: h * jac),
        *((t.rows, lambda sub, h, jac, t=t: t.grad2[sub] * (h * jac))
          for t in [*energies, *transfers]),
        *((t.rows, lambda sub, h, jac, t=t: t.power[sub] * (h * jac)) for t in transfers)])
    seen = []
    monkeypatch.setattr(fields, "_pulled_back_sums",
                        lambda *args: seen.append(_pulled_back_sums(*args)) or seen[-1])
    mass, _, _ = _pulled_back_checks(to_disc, CHECK_SPEC, energies, transfers)
    assert len(seen) == 1 and len(per_term) == 10
    assert [x.hex() for x in seen[0]] == [x.hex() for x in per_term]
    assert mass.hex() == per_term[0].hex()


_GRIDS = [CHECK_SPEC, DiscGridSpec(n_r=64, n_theta=2048)]


def _assert_support_rows_keep_the_bits(spec, bumps, whole_grid, pulled_back):
    # each restricted table against the same product formed on every row
    w, areas = whole_grid(spec)
    h, jac = pulled_back(ConformalMap.to_disc(DomainFamily.STRIP), spec)
    density = h * jac
    for b, t in zip(bumps, _bump_tables(bumps, spec, 3.0)):
        grad2 = np.abs(b.gradient(w)) ** 2
        power = np.abs(b.value(w)) ** 3.0
        off = np.ones(spec.n_r, dtype=bool)
        off[t.rows] = False
        for whole, part in ((grad2, t.grad2), (power, t.power)):
            assert np.array_equal(whole[t.rows], part)
            # exactly +0.0 off the support rows, so the zero rows change no sum
            assert not whole[off].any() and not np.signbit(whole[off]).any()
            assert (_row_sum(part * density[t.rows], t.rows, spec).hex()
                    == pairwise_sum(whole * density * areas).hex())
        assert t.energy.hex() == pairwise_sum(grad2 * areas).hex()
        assert t.norm.hex() == (float(pairwise_sum(power * areas)) ** (1.0 / 3.0)).hex()


@pytest.mark.parametrize("spec", _GRIDS, ids=["512x512", "64x2048"])
@pytest.mark.parametrize("bump", [
    Bump(0.05 - 0.03j, 0.2, 1.3),        # |c| < rho: the support holds the origin
    Bump(0.6 * np.exp(2.2j), 0.3, 0.7),  # |c| + rho = 0.9, the family's outer limit
], ids=["origin", "outer"])
def test_support_row_tables_have_the_bits_of_whole_grid_products(spec, bump, whole_grid,
                                                                 pulled_back):
    w, areas = whole_grid(spec)
    (table,) = _bump_tables([bump], spec)
    assert table.rows.stop - table.rows.start < spec.n_r  # the support leaves rows out
    _assert_support_rows_keep_the_bits(spec, [bump], whole_grid, pulled_back)
    # the composition check sums the same support-row table
    m = ConformalMap.to_disc(DomainFamily.CARDIOID)
    h, jac = m.jacobian(m.inverse(w)), m.inverse_jacobian(w)
    grad2 = np.abs(bump.gradient(w)) ** 2
    rhs = float(pairwise_sum(grad2 * areas)) ** 0.5
    lhs = float(pairwise_sum((grad2 * h) ** 0.75 * jac * areas)) ** (1.0 / 1.5)
    (rec,) = composition_inequality_check(m, 2.0, 1.5, [bump], spec)
    assert (rec.lhs.hex(), rec.rhs.hex()) == (lhs.hex(), rhs.hex())


def test_support_row_tables_keep_the_bits_of_seeded_families(whole_grid, pulled_back):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=12, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(_GRIDS), st.integers(0, 2**32 - 1))
    def check(spec, seed):
        bumps = make_bump_family(3, rng=np.random.default_rng(seed))
        _assert_support_rows_keep_the_bits(spec, bumps, whole_grid, pulled_back)

    check()

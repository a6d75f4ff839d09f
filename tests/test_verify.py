import hashlib
import json
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from confweight import exponents, fields, maps, poisson, quadrature, verify
from confweight.util import DEFAULT_SEED
from confweight.verify import _check_maps

_FAMILIES = ("disc", "exterior", "halfplane", "strip", "cardioid", "slitplane")


def _each(*templates):
    return [t.format(fam) for fam in _FAMILIES for t in templates]


# the default-seed report's check names, in report order
VERIFY_CHECK_NAMES = [
    *_each("maps.round_trip.{}", "maps.derivative_fd.{}.to_disc",
           "maps.derivative_fd.{}.from_disc", "maps.conformal_identity.{}",
           "maps.boundary_image.{}"),
    "maps.automorphism.preserves_disc", "maps.automorphism.derivative_bounds",
    "maps.automorphism.inverse_round_trip", "maps.automorphism.composition",
    *_each("weights.positivity.{}", "weights.continuity.{}", "weights.mass_identity.{}"),
    "weights.equivalence.a=0", "weights.equivalence.a=0.5", "weights.equivalence.a=0.9",
    *_each("quadrature.brennan_s2.{}"),
    "quadrature.koebe_interior_converges", "quadrature.koebe_outside_diverges",
    "quadrature.deterministic_reduction", "quadrature.log_divergence",
    *_each("fields.isometry.{}"),
    "fields.composition_inequality.cardioid", "fields.norm_homogeneity",
    "exponents.admissible_chain", "exponents.endpoint_equality",
    "exponents.conjugation_formula",
    *_each("transfer.norm_identities.{}"),
    "transfer.eigen_refinement", "transfer.disc_constant", "transfer.disc_constant_r1",
    "transfer.bump_bound_monotone",
    *_each("poisson.exact_const.{}", "poisson.weak_residual.{}"),
    "poisson.manufactured_orders.strip", "poisson.deterministic_resolve",
    "poisson.linearity_negation", "poisson.weight_free_assembly",
    "maps.quoted_cardioid_map_fails_boundary_oracle",
]


def test_verify_keeps_its_check_names(monkeypatch):
    monkeypatch.delenv("CW_SEED", raising=False)
    report = verify.run_verify()
    assert report["seed"] == DEFAULT_SEED and report["passed"] is True
    assert len(VERIFY_CHECK_NAMES) == 103
    assert [c["name"] for c in report["checks"]] == VERIFY_CHECK_NAMES


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


@pytest.mark.parametrize("kernel, label", [("weight", "to_disc"), ("jacobian", "from_disc")])
@pytest.mark.parametrize("family", _FAMILIES)
def test_derivative_fd_catches_a_wrong_jacobian(monkeypatch, family, kernel, label):
    # one family's kernel off by 1e-6 must fail that family's check in that direction
    ops = maps._FAMILY_OPS[maps.DomainFamily(family)]
    right = getattr(ops, kernel)
    monkeypatch.setitem(maps._FAMILY_OPS, maps.DomainFamily(family),
                        replace(ops, **{kernel: lambda x, y: right(x, y) * (1.0 + 1e-6)}))
    checks = []
    _check_maps(lambda name, passed, **detail: checks.append((name, passed)),
                np.random.default_rng(DEFAULT_SEED))
    failed = [name for name, passed in checks if not passed and ".derivative_fd." in name]
    assert failed == [f"maps.derivative_fd.{family}.{label}"]


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
    # 3 grids + 4 convergence levels + 1 re-solve of the 64^2 grid + negation + weight spy
    assert counts == {"solve_dirichlet": 10, "weak_residual": 3}
    # digest re-taken when the flux solve replaced the Thomas sweeps: the errors
    # and orders moved by rounding (listed in CHANGES.md)
    digest = hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest()
    assert digest == "bd3ad3d3ed4f1d4f84d47fe7653180ba452eeb380e5c81ee9e67256e2cbc63aa"


def test_manufactured_orders_catch_a_wrong_quartic_rhs(monkeypatch):
    # a solver that converges to the wrong answer must fail the check, which
    # self-convergence against the finest solve cannot see
    right = poisson.RhsSpec.on_disc

    def off(self, r):
        return right(self, r) * (1.0 + 1e-3 if self.kind == "quartic" else 1.0)

    monkeypatch.setattr(poisson.RhsSpec, "on_disc", off)
    checks = []
    verify._check_poisson(lambda name, passed, **detail: checks.append((name, passed)),
                          np.random.default_rng(DEFAULT_SEED))
    assert [name for name, passed in checks if not passed] == [
        "poisson.manufactured_orders.strip"]


def _scale_k(monkeypatch, at_r, factor):
    """Make verify's K(at_r) ``factor`` times the computed one, on every grid."""
    right = verify.poincare_constant_disc

    def scaled(r, grid):
        est = right(r, grid)
        return replace(est, value=est.value * factor) if r == at_r else est

    monkeypatch.setattr(verify, "poincare_constant_disc", scaled)


def _failed_transfer_checks():
    rng = np.random.default_rng(DEFAULT_SEED)
    checks = []
    verify._check_transfer(lambda name, passed, **detail: checks.append((name, passed)),
                           rng, fields.make_bump_family(3, rng=rng),
                           {fam: (0.0, 0.0, 0.0) for fam in verify._FAMILIES})
    return [name for name, passed in checks if not passed]


def test_disc_constant_catches_a_k2_half_a_percent_high(monkeypatch):
    # at the old tolerance of 1e-2 this K(2) passed; it reads 9.6e-6 when right
    _scale_k(monkeypatch, 2.0, 1.005)
    assert _failed_transfer_checks() == ["transfer.disc_constant"]


def test_disc_constant_r1_catches_a_k1_half_a_percent_high(monkeypatch):
    # K(1) = sqrt(pi/8) reads 3.05e-5 relative on 128^2 when right
    _scale_k(monkeypatch, 1.0, 1.005)
    assert _failed_transfer_checks() == ["transfer.disc_constant_r1"]


def test_bump_bound_monotone_catches_a_k1_twenty_times_low(monkeypatch):
    # the bump maximum once stood in for K(1), 14 times below it; the report's
    # witnesses (0.0358 on 64^2) must stay below K(1)
    _scale_k(monkeypatch, 1.0, 0.05)
    monkeypatch.delenv("CW_SEED", raising=False)
    assert verify.run_verify()["failed"] == ["transfer.disc_constant_r1",
                                             "transfer.bump_bound_monotone"]


def test_weight_checks_and_quoted_report_keep_their_bits():
    # the weight digest re-taken when the samples came from one annulus sampler:
    # the sampled positivity, continuity and equivalence details moved (listed in CHANGES.md)
    checks = []
    verify._check_weights(
        lambda name, passed, **detail: checks.append(
            {"name": name, "passed": bool(passed), "detail": detail}),
        np.random.default_rng(DEFAULT_SEED))
    digest = hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest()
    assert digest == "9a1c5f2ae71415d35f7391dad5c0c312eeecc75ce82256cabc675f8b6045e7b0"
    report = json.dumps(verify.quoted_formula_report(), sort_keys=True).encode()
    assert (hashlib.sha256(report).hexdigest()
            == "83ba08a7df40de23064ef84f246597f593f3bd84efc5d0f339864cb6cde82a31")


def test_verify_pulls_each_family_back_once_and_tabulates_each_bump_once(monkeypatch):
    pulls = []
    original_pull_back = quadrature.pull_back

    def counted_pull_back(mapping, spec=quadrature.CHECK_SPEC):
        pulls.append(mapping.family.value)
        return original_pull_back(mapping, spec)

    for module in (quadrature, fields, exponents, verify):
        if hasattr(module, "pull_back"):
            monkeypatch.setattr(module, "pull_back", counted_pull_back)

    # bump evaluations on the check grid, outside the composition check
    calls = Counter()
    inside = []
    original_composition = verify.composition_inequality_check

    def composition(*args, **kwargs):
        inside.append(True)
        try:
            return original_composition(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(verify, "composition_inequality_check", composition)
    for method in ("gradient", "value"):
        def spy(self, w, _method=method, _original=getattr(fields.TestBump, method)):
            if not inside and np.shape(w)[-1] == quadrature.CHECK_SPEC.n_theta:
                calls[_method, self] += 1
            return _original(self, w)
        monkeypatch.setattr(fields.TestBump, method, spy)

    monkeypatch.delenv("CW_SEED", raising=False)
    assert verify.run_verify()["passed"] is True
    # six families, then the cardioid composition check
    assert pulls == [*_FAMILIES, "cardioid"]
    gradients = {b for m, b in calls if m == "gradient"}
    values = {b for m, b in calls if m == "value"}
    # three fields bumps and three transfer bumps, each evaluated once per group
    assert len(gradients) == 6 and len(values) == 3 and values < gradients
    assert set(calls.values()) == {1}


def test_verify_peaks_below_the_parent_under_tracemalloc(monkeypatch):
    # a cold run peaked at 26.9 MiB when every check pulled back and evaluated its
    # bumps on the whole grid, at 14.1 MiB with one pull-back per family and
    # support-row bump tables but whole-grid node arrays, and at 11.1 MiB forming
    # nodes only on the rows a sum reads but pulling back into whole-grid arrays.
    # Streaming the pull-back in blocks of 2^15 nodes, it peaks at 5.5 MiB.
    # Caching the nine tables whole would add 18 MiB
    monkeypatch.delenv("CW_SEED", raising=False)
    tracemalloc.start()
    try:
        verify.run_verify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20


def test_koebe_ladders_share_one_jacobian_per_block(monkeypatch):
    # the eight slit-plane ladders run as one scan, so J is evaluated once per
    # block of each level the scan reaches: 16,818,176 nodes when each ladder
    # evaluated its own J
    nodes = [0]
    original_jacobian = maps.ConformalMap.inverse_jacobian

    def counted_jacobian(self, w):
        nodes[0] += np.size(w)
        return original_jacobian(self, w)

    direct = []
    original_direct = verify.brennan_direct

    def counted_direct(mapping, s, *args, **kwargs):
        direct.append((mapping.family.value, s))
        return original_direct(mapping, s, *args, **kwargs)

    monkeypatch.setattr(maps.ConformalMap, "inverse_jacobian", counted_jacobian)
    monkeypatch.setattr(verify, "brennan_direct", counted_direct)
    checks = []
    verify._check_quadrature(lambda name, passed, **detail: checks.append((name, passed)))
    assert nodes[0] == 5_601_280
    # the deterministic-reduction check runs the s = 3 ladder once alone, against the scan's
    assert [s for family, s in direct if family == "slitplane"] == [2.0, 3.0]
    assert all(passed for _, passed in checks)


def test_deterministic_reduction_catches_a_scan_one_ulp_off(monkeypatch):
    # the scan's s = 3 ladder on shared levels must keep the bits of that ladder alone
    right = verify.brennan_scan

    def nudged(mapping, ss, tol):
        results = right(mapping, ss, tol=tol)
        i = ss.index(3.0)
        results[i] = replace(results[i], level_values=tuple(
            np.nextafter(v, np.inf) for v in results[i].level_values))
        return results

    monkeypatch.setattr(verify, "brennan_scan", nudged)
    checks = []
    verify._check_quadrature(lambda name, passed, **detail: checks.append((name, passed)))
    assert [name for name, passed in checks if not passed] == [
        "quadrature.deterministic_reduction"]


@pytest.mark.parametrize("family, region", [
    ("halfplane", lambda x, y: x * x + y * y > 400.0),  # beyond |z| = 20
    ("cardioid", lambda x, y: x * x + y * y < 1e-4),  # within |z| < 0.01 of the cusp
], ids=["halfplane-far", "cardioid-cusp"])
def test_mass_identity_catches_a_weight_high_in_one_region(monkeypatch, family, region):
    # h 1e-3 high there moves the mass by 4.6e-6 (half plane) or 1.9e-5 (cardioid),
    # which the old tolerance of 1e-4 passed; the right weight reads 0.0
    key = maps.DomainFamily(family)
    ops = maps._FAMILY_OPS[key]
    high = lambda x, y: ops.weight(x, y) * np.where(region(x, y), 1.0 + 1e-3, 1.0)
    monkeypatch.setitem(maps._FAMILY_OPS, key, replace(ops, weight=high))
    checks = []
    verify._check_weights(lambda name, passed, **detail: checks.append((name, passed, detail)),
                          np.random.default_rng(DEFAULT_SEED))
    assert [name for name, passed, _ in checks if not passed] == [
        f"weights.mass_identity.{family}"]
    rel = {name: detail["rel_error"] for name, _, detail in checks if ".mass_identity." in name}
    assert 1e-12 < rel.pop(f"weights.mass_identity.{family}") <= 1e-4
    assert set(rel.values()) == {0.0}

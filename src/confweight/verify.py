"""Cross-module invariant suite with a deterministic, serializable report.

run_verify() exercises the documented invariants of every module: map round
trips, finite-difference tests of each map's Jacobian, the conformal identity,
boundary images, automorphism bounds, weight positivity and the mass
identity, refinement classification of the slit-plane integrals, energy
isometry, composition inequalities, exponent arithmetic, the transfer
identities, the eigenvalue route to the disc constant, and the Dirichlet
solver's exact solutions, linearity and weight-free assembly.  The mass,
isometry, composition and transfer checks sum on the 512x512 check grid
CHECK_SPEC.  The mass, isometry and transfer checks share one pull-back per
family (_family_pass), and each of their bumps is evaluated once per group,
on the grid rows its support meets.  The sums keep the bits of whole-grid
evaluation.

The report is a plain dict of JSON-ready values.  All randomness flows from
one seeded generator consumed in a fixed order, and every reduction is
deterministic, so identical environments produce identical reports byte for
byte.  The report also records two quoted closed forms (strip weight,
cardioid map/weight pair) that circulate for these domains but fail
independent verification; reproducing that mismatch is part of the suite.
"""
from __future__ import annotations

import math

import numpy as np

from .exponents import exponent_bounds, poincare_constant_disc, q_from_ps
from .fields import (PolarGrid, TestBump, _bump_tables, _pulled_back_checks,
                     composition_inequality_check, make_bump_family)
from .maps import (ConformalMap, DomainFamily, MoebiusAutomorphism,
                   boundary_image_check, boundary_samples,
                   compose_with_automorphism, round_trip_check, sample_interior)
from .poisson import RhsSpec, solve_dirichlet, weak_residual
from .quadrature import (CHECK_SPEC, Verdict, brennan_direct, brennan_scan, disc_nodes,
                         integrate_disc)
from .util import default_seed

# first positive zero of the Bessel function J0; lambda_1(disc) = j01^2
J0_FIRST_ZERO = 2.404825557695773

_FAMILIES = tuple(DomainFamily)


def _annulus(rng: np.random.Generator, n: int, rmin: float, rmax: float) -> np.ndarray:
    r = np.sqrt(rng.uniform(rmin**2, rmax**2, size=n))
    return r * np.exp(2j * np.pi * rng.uniform(size=n))


def _differences(f, pts):
    """Richardson central differences f_x, then f_y, of the map f at pts."""
    for step in (3e-6, 3e-6j):
        d_h, d_half = ((f(pts + h) - f(pts - h)) / (2.0 * abs(h))
                       for h in (step, 0.5 * step))
        yield (4.0 * d_half - d_h) / 3.0  # cancels the O(h^2) error


def _check_maps(add, rng):
    for fam in _FAMILIES:
        to_disc = ConformalMap.to_disc(fam)
        rt = round_trip_check(to_disc, n=400, rng=rng)
        add(f"maps.round_trip.{fam.value}", rt <= 1e-12, max_error=float(rt))

        w = _annulus(rng, 200, 0.1, 0.8)
        z = to_disc.inverse(w)
        found = {}
        sides = ((to_disc.eval, to_disc.jacobian, z, "to_disc"),
                 (to_disc.inverse, to_disc.inverse_jacobian, w, "from_disc"))
        for f, jacobian, pts, label in sides:
            f_x, f_y = _differences(f, pts)
            jac = jacobian(pts)
            found[label] = f_x, f_y, jac
            # an analytic f has f_y = i f_x (Cauchy-Riemann) and |f_x|^2 = J
            cr = float(np.max(np.abs(f_y - 1j * f_x) / np.abs(f_x)))
            rel = float(np.max(np.abs(np.abs(f_x) - np.sqrt(jac)) / np.sqrt(jac)))
            add(f"maps.derivative_fd.{fam.value}.{label}", max(cr, rel) <= 1e-7,
                max_rel=rel, cauchy_riemann=cr)

        # h must equal the determinant of the real 2x2 Jacobian
        f_x, f_y, hval = found["to_disc"]
        det = f_x.real * f_y.imag - f_y.real * f_x.imag
        rel = float(np.max(np.abs(det - hval) / hval))
        add(f"maps.conformal_identity.{fam.value}", rel <= 1e-6, max_rel=rel)

        dev = float(boundary_image_check(to_disc))
        add(f"maps.boundary_image.{fam.value}", dev < 1e-2, deviation=dev)


def _check_automorphisms(add, rng):
    eta = MoebiusAutomorphism(a=0.4 + 0.2j, rotation=1.1)
    w = _annulus(rng, 1000, 0.0, 0.999)
    img = eta(w)
    add("maps.automorphism.preserves_disc", bool(np.all(np.abs(img) < 1.0)),
        max_image_modulus=float(np.max(np.abs(img))))
    lo, hi = eta.derivative_magnitude_bounds()
    mag = np.sqrt(eta.jacobian(w))  # |eta'|, as the weight path sees it
    add("maps.automorphism.derivative_bounds",
        bool(np.all((mag >= lo - 1e-12) & (mag <= hi + 1e-12))),
        observed_min=float(mag.min()), observed_max=float(mag.max()),
        bound_min=float(lo), bound_max=float(hi))
    back_err = float(np.max(np.abs(eta.inverse()(img) - w)))
    add("maps.automorphism.inverse_round_trip", back_err <= 1e-12, max_error=back_err)
    inner = MoebiusAutomorphism(a=-0.3j, rotation=-0.7)
    comp_err = float(np.max(np.abs(eta.compose(inner)(w) - eta(inner(w)))))
    add("maps.automorphism.composition", comp_err <= 1e-12, max_error=comp_err)


def _family_pass(rng):
    """Draw the fields and transfer bumps, then pull each family back once.

    Each bump's tables are built once, on its support rows of the check
    grid, before the family loop; one pull-back per family then gives
    its mass, isometry gap and transfer defect.  Returns both bump lists
    and those three sums per family.
    """
    fields_bumps = make_bump_family(3, rng=rng)
    transfer_bumps = make_bump_family(3, rng=rng)
    energies = list(_bump_tables(fields_bumps, CHECK_SPEC))
    transfers = list(_bump_tables(transfer_bumps, CHECK_SPEC, 3.0))
    sums = {fam: _pulled_back_checks(ConformalMap.to_disc(fam), CHECK_SPEC,
                                     energies, transfers) for fam in _FAMILIES}
    return fields_bumps, transfer_bumps, sums


def _check_weights(add, rng):
    """Weight positivity, continuity, mass and equivalence; returns _family_pass's result.

    The mass identity is summed by the family pass, whose bumps are drawn
    after this group's points, so the group reports once the pass has run.
    """
    sampled = []
    for fam in _FAMILIES:
        to_disc = ConformalMap.to_disc(fam)
        vals = to_disc.jacobian(sample_interior(to_disc, 10_000, rng=rng))
        probe = sample_interior(to_disc, 200, rng=rng, rmax=0.9)
        step = 1e-8 * (1.0 + np.abs(probe))
        base = to_disc.jacobian(probe)
        rel_step = float(np.max(np.abs(to_disc.jacobian(probe + step) - base) / base))
        sampled.append((bool(np.all(vals > 0.0)), float(np.min(vals)), rel_step))

    base_map = ConformalMap.to_disc(DomainFamily.HALFPLANE)
    ratios = []
    for a in (0.0, 0.5, 0.9):
        eta = MoebiusAutomorphism(a=a, rotation=0.3)
        tilted = compose_with_automorphism(base_map, eta)
        # the ratio is |eta'|^2 at the image point, so it lies in [m^2, 1/m^2]
        m = eta.derivative_magnitude_bounds()[0]
        z = sample_interior(base_map, 500, rng)
        ratio = tilted.jacobian(z) / base_map.jacobian(z)
        ratios.append((a, m**2, (1.0 / m) ** 2, float(ratio.min()), float(ratio.max())))

    fields_bumps, transfer_bumps, sums = _family_pass(rng)
    for fam, (positive, min_value, rel_step) in zip(_FAMILIES, sampled):
        add(f"weights.positivity.{fam.value}", positive, min_value=min_value)
        add(f"weights.continuity.{fam.value}", rel_step <= 1e-3, max_rel_step=rel_step)
        # the pulled-back weight h(psi(w)) J(w, psi), identically one
        total = sums[fam][0]
        rel_mass = abs(total - math.pi) / math.pi
        add(f"weights.mass_identity.{fam.value}", rel_mass <= 1e-4,
            integral=total, rel_error=float(rel_mass))
    for a, lo, hi, rmin, rmax in ratios:
        ok = (lo - 1e-12 <= rmin) and (rmax <= hi + 1e-12)
        add(f"weights.equivalence.a={a:g}", ok, ratio_min=rmin, ratio_max=rmax,
            bound_low=float(lo), bound_high=float(hi))
    return fields_bumps, transfer_bumps, sums


def _check_quadrature(add):
    for fam in _FAMILIES:
        res = brennan_direct(ConformalMap.to_disc(fam), 2.0)
        rel = abs(res.value - math.pi) / math.pi
        add(f"quadrature.brennan_s2.{fam.value}",
            res.verdict is Verdict.CONVERGED and rel <= 1e-4,
            value=float(res.value), rel_error=float(rel), verdict=res.verdict.value)

    slit = ConformalMap.to_disc(DomainFamily.SLITPLANE)
    scan = (1.5, 2.0, 2.5, 3.0, 3.5, 3.9, 1.3, 4.1)  # six inside 4/3 < s < 4, two outside
    got = [(f"{s:g}", r.verdict.value) for s, r in zip(scan, brennan_scan(slit, scan, tol=0.1))]
    ladder, outside = dict(got[:6]), dict(got[6:])
    add("quadrature.koebe_interior_converges",
        all(v == Verdict.CONVERGED.value for v in ladder.values()), verdicts=ladder)
    add("quadrature.koebe_outside_diverges",
        all(v == Verdict.DIVERGENT.value for v in outside.values()), verdicts=outside)

    first = brennan_direct(slit, 3.0, tol=0.1)
    second = brennan_direct(slit, 3.0, tol=0.1)
    add("quadrature.deterministic_reduction",
        first.level_values == second.level_values, levels=first.levels_used)

    log_case = integrate_disc(lambda w: 1.0 / (1.0 - np.abs(w)))
    add("quadrature.log_divergence", log_case.verdict is Verdict.DIVERGENT,
        verdict=log_case.verdict.value)


def _check_fields(add, bumps, sums):
    for fam in _FAMILIES:
        dev = sums[fam][1]
        tol = 1e-12 if fam is DomainFamily.DISC else 1e-6
        add(f"fields.isometry.{fam.value}", dev <= tol, deviation=float(dev))

    probes = bumps + [TestBump(0.1 + 0.1j, 0.2, 0.0)]
    recs = composition_inequality_check(ConformalMap.to_disc(DomainFamily.CARDIOID),
                                        2.0, 1.5, probes)
    tightest = max((r.lhs / (r.constant * r.rhs) if r.rhs else 0.0) for r in recs)
    add("fields.composition_inequality.cardioid", all(r.passed for r in recs),
        constant=float(recs[0].constant), tightest_ratio=float(tightest))

    # the bump tables' L_p norms, which the transfer check and constant use
    grid, b = PolarGrid(64, 64), bumps[0]
    pair = [b, TestBump(b.center, b.radius, -2.7 * b.amplitude)]
    rel = 0.0
    for p in (1.0, 2.0, 3.5):
        base, scaled = _bump_tables(pair, grid, p)
        want = 2.7 * base.norm
        rel = max(rel, abs(scaled.norm - want) / want)
    add("fields.norm_homogeneity", rel <= 1e-13, max_rel=float(rel))


def _check_exponents(add):
    chain_ok = True
    for a0 in np.linspace(-1.95, -0.05, 20).tolist():
        p_min = (abs(a0) + 2.0) / (abs(a0) + 1.0)
        for p in np.linspace(p_min + 1e-3, 2.0 - 1e-3, 20).tolist():
            b = exponent_bounds(p, a0)
            mid = 2.0 * p / (4.0 - p)
            chain_ok = chain_ok and (1.0 <= b.q_max < mid < p < 2.0)
            chain_ok = chain_ok and (b.r_max < p / (2.0 - p))
    add("exponents.admissible_chain", chain_ok, grid="20x20")

    eq = exponent_bounds(1.5, -2.0)
    add("exponents.endpoint_equality",
        eq.q_max == 2.0 * 1.5 / (4.0 - 1.5) and eq.conjectural,
        q_max=float(eq.q_max))

    conformal_line = all(q_from_ps(float(p), 2.0) == 2.0
                         for p in np.linspace(2.1, 8.0, 20))
    samples_ok = (q_from_ps(3.0, 3.0) == 2.25
                  and abs(q_from_ps(4.0, 4.0) - 8.0 / 3.0) < 1e-15)
    add("exponents.conjugation_formula", conformal_line and samples_ok,
        q_33=float(q_from_ps(3.0, 3.0)), q_44=float(q_from_ps(4.0, 4.0)))


def _check_transfer(add, rng, bumps, sums):
    for fam in _FAMILIES:
        dev = sums[fam][2]
        tol = 1e-12 if fam is DomainFamily.DISC else 1e-6
        add(f"transfer.norm_identities.{fam.value}", dev <= tol, deviation=float(dev))

    est = poincare_constant_disc(2.0, PolarGrid(128, 128))
    lam64, lam128 = poincare_constant_disc(2.0, PolarGrid(64, 64)).value ** -2, est.value ** -2
    target = J0_FIRST_ZERO**2
    add("transfer.eigen_refinement", abs(target - lam128) < abs(target - lam64),
        lambda_64=float(lam64), lambda_128=float(lam128), target=float(target))

    rel = abs(est.value - 1.0 / J0_FIRST_ZERO) * J0_FIRST_ZERO
    add("transfer.disc_constant", rel <= 1e-4, value=float(est.value),
        rel_error=float(rel), iterations=est.iterations)

    # at r = 1 the extremal is the torsion function, K(1)^2 = pi/8
    k1 = poincare_constant_disc(1.0, PolarGrid(128, 128)).value
    rel = abs(k1 - math.sqrt(math.pi / 8.0)) / math.sqrt(math.pi / 8.0)
    add("transfer.disc_constant_r1", rel <= 1e-4, value=float(k1), rel_error=float(rel))

    # each bump's ||b||_1 / ||grad b||_2 is a witness below K(1), on the same grid
    grid = PolarGrid(64, 64)
    base, extended = (max(t.norm / t.energy ** 0.5 for t in _bump_tables(b, grid, 1.0))
                      for b in (bumps, bumps + make_bump_family(2, rng=rng)))
    k = poincare_constant_disc(1.0, grid).value
    add("transfer.bump_bound_monotone", 0.0 < base <= extended < k,
        base=float(base), extended=float(extended), k=float(k))


def _check_poisson(add, rng):
    bumps = make_bump_family(3, rng=rng)
    # lap v = -4 on the disc is every family's transferred problem: solve and
    # test each grid once; per family only the exact u = 1 - |phi(psi(w))|^2
    # goes through that family's round trip
    rhs = RhsSpec("const", -4.0)
    grids = [PolarGrid(n, n) for n in (64, 128, 256)]
    columns = [solve_dirichlet(rhs, grid) for grid in grids]
    residuals = [max(weak_residual(grid, column, rhs, bumps))
                 for grid, column in zip(grids, columns)]
    res_orders = [math.log2(a / b) for a, b in zip(residuals, residuals[1:])]
    for fam in _FAMILIES:
        mapping = ConformalMap.to_disc(fam)
        errors = []
        for grid, column in zip(grids, columns):  # max is exact, so block by block
            errors.append(max(float(np.max(np.abs(column[rows, None] - (1.0 - np.abs(
                mapping.eval(mapping.inverse(w))) ** 2)))) for rows, w in disc_nodes(grid)))
        err_orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        add(f"poisson.exact_const.{fam.value}",
            min(err_orders) >= 1.9 and errors[-1] <= 1e-3,
            errors=errors, orders=[float(o) for o in err_orders])
        add(f"poisson.weak_residual.{fam.value}", min(res_orders) >= 1.9,
            orders=[float(o) for o in res_orders])

    # the quartic rhs has the exact transferred solution (1 - |w|^2)^2
    errors = []
    for grid in (PolarGrid(n, n) for n in (32, 64, 128, 256)):
        column = solve_dirichlet(RhsSpec("quartic"), grid)
        errors.append(float(np.max(np.abs(column - (1.0 - grid.r ** 2) ** 2))))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    add("poisson.manufactured_orders.strip", min(orders) >= 1.9, orders=orders)

    grid = PolarGrid(64, 64)
    v1 = solve_dirichlet(rhs, grid)
    v2 = solve_dirichlet(rhs, grid)
    add("poisson.deterministic_resolve", bool(np.array_equal(v1, v2)))
    neg = solve_dirichlet(RhsSpec("const", 4.0), grid)
    add("poisson.linearity_negation", bool(np.array_equal(neg, -v1)))

    # assembly must pull back f only; the weight is never consulted
    calls = {"count": 0}
    orig_method = ConformalMap.jacobian

    def spy_method(self, z):
        calls["count"] += 1
        return orig_method(self, z)

    ConformalMap.jacobian = spy_method
    try:
        solve_dirichlet(RhsSpec("quartic"), PolarGrid(64, 64))
    finally:
        ConformalMap.jacobian = orig_method
    add("poisson.weight_free_assembly", calls["count"] == 0,
        weight_queries=calls["count"])


def quoted_formula_report() -> list[dict]:
    """Mismatch records for two quoted closed forms that fail verification.

    Strip: the quoted weight 1/((x^2+y^2)^2 + x^2 - y^2 + 1) disagrees with
    the analytic Jacobian |1 + tan^2 z|^2 of the shipped map.  Cardioid: the
    quoted map sqrt(z) - 1 is inconsistent with its own quoted weight
    1/(2 sqrt|z|) (its true Jacobian is 1/(4|z|)), and its boundary image is
    not the unit circle; the shipped map is the corrected 2 sqrt(z) - 1.
    """
    z = 0.5 + 0.0j
    computed = ConformalMap.to_disc(DomainFamily.STRIP).jacobian(z)
    quoted = 1.0 / ((z.real**2 + z.imag**2) ** 2 + z.real**2 - z.imag**2 + 1.0)
    strip_entry = {
        "family": "strip",
        "at": [z.real, z.imag],
        "computed": computed,
        "quoted": float(quoted),
        "mismatch": bool(abs(computed - quoted) > 1e-6),
        "note": "quoted closed form disagrees with |d/dz tan z|^2 "
                "= 4/(cos 2x + cosh 2y)^2 (they coincide only at z = 0)",
    }

    zc = 0.0625 + 0.0j
    quoted_map_jacobian = 0.25 / abs(zc)  # |d/dz (sqrt(z) - 1)|^2
    quoted_weight = 1.0 / (2.0 * math.sqrt(abs(zc)))
    shipped = ConformalMap.to_disc(DomainFamily.CARDIOID).jacobian(zc)
    cardioid_entry = {
        "family": "cardioid",
        "at": [zc.real, zc.imag],
        "computed": quoted_map_jacobian,
        "quoted": float(quoted_weight),
        "shipped": shipped,
        "mismatch": bool(abs(quoted_map_jacobian - quoted_weight) > 1e-6),
        "note": "quoted map sqrt(z)-1 has Jacobian 1/(4|z|), not the quoted "
                "1/(2 sqrt|z|); shipped corrected map 2*sqrt(z)-1 has weight 1/|z|",
    }
    return [strip_entry, cardioid_entry]


def _check_quoted_cardioid(add):
    pts, nrm = boundary_samples(DomainFamily.CARDIOID, 64)
    z = pts + 1e-3 * nrm
    image = np.sqrt(z) - 1.0
    dev = np.abs(np.abs(image) - 1.0)
    shipped_dev = float(boundary_image_check(ConformalMap.to_disc(DomainFamily.CARDIOID)))
    add("maps.quoted_cardioid_map_fails_boundary_oracle",
        float(np.max(dev)) > 0.1 and shipped_dev < 1e-2,
        quoted_max_deviation=float(np.max(dev)),
        quoted_mean_deviation=float(np.mean(dev)),
        shipped_deviation=shipped_dev)


def run_verify() -> dict:
    """Run every module invariant; return a JSON-ready deterministic report."""
    seed = default_seed()
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    def add(name: str, passed, **detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    _check_maps(add, rng)
    _check_automorphisms(add, rng)
    fields_bumps, transfer_bumps, sums = _check_weights(add, rng)
    _check_quadrature(add)
    _check_fields(add, fields_bumps, sums)
    _check_exponents(add)
    _check_transfer(add, rng, transfer_bumps, sums)
    _check_poisson(add, rng)
    _check_quoted_cardioid(add)

    mismatches = quoted_formula_report()
    failed = [c["name"] for c in checks if not c["passed"]]
    return {
        "seed": int(seed),
        "checks": checks,
        "mismatch_reports": mismatches,
        "failed": failed,
        "passed": not failed and all(m["mismatch"] for m in mismatches),
    }

"""Acceptance gate: nine numbered criteria, one test (and one line) each.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
criterion.  Tolerances and runtime budgets are pinned here and intentionally
not imported from the package.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from confweight import (ConformalMap, DiscGridSpec, DomainFamily, Verdict,
                        brennan_direct, composition_inequality_check,
                        default_seed, exponent_bounds,
                        kpq_norm, make_bump_family, pairwise_sum,
                        poincare_constant_disc, q_from_ps,
                        quoted_formula_report, ring_nodes, run_verify, sample_interior)
from confweight.fields import PolarGrid

ALL = tuple(DomainFamily)


def _announce(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_weight_formulas():
    start = time.perf_counter()
    rng = np.random.default_rng(default_seed())

    ext = ConformalMap.to_disc(DomainFamily.EXTERIOR)
    z = sample_interior(ext, 100, rng=rng)
    ext_dev = float(np.max(np.abs(ext.jacobian(z) - 1.0 / np.abs(z) ** 4)))

    hp = ConformalMap.to_disc(DomainFamily.HALFPLANE)
    z = sample_interior(hp, 100, rng=rng)
    hp_dev = float(np.max(np.abs(
        hp.jacobian(z) - 4.0 / (z.real**2 + (z.imag + 1.0) ** 2) ** 2)))

    strip_rep, card_rep = quoted_formula_report()
    strip_ok = (strip_rep["mismatch"]
                and abs(strip_rep["computed"] - 1.68596308) < 1e-6
                and abs(strip_rep["quoted"] - 0.7619047619047619) < 1e-12)
    card_ok = (card_rep["mismatch"]
               and card_rep["computed"] == 4.0 and card_rep["quoted"] == 2.0)
    elapsed = time.perf_counter() - start

    ok = ext_dev <= 1e-12 and hp_dev <= 1e-12 and strip_ok and card_ok and elapsed < 1.0
    _announce(1, ok, f"closed-form dev ext={ext_dev:.2e} hp={hp_dev:.2e}, "
                     f"both quoted mismatches reproduced, {elapsed:.2f}s")


def test_criterion_2_mass_identity(pulled_back):
    start = time.perf_counter()
    level6 = DiscGridSpec(n_r=16, n_theta=16).level(5)  # 512 x 512
    worst = 0.0
    for fam in ALL:
        h, jac = pulled_back(ConformalMap.to_disc(fam), level6)
        total = pairwise_sum(h * jac * level6.cell_areas)
        worst = max(worst, abs(total - math.pi) / math.pi)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    _announce(2, ok, f"max relative mass error {worst:.2e} over six families, "
                     f"{elapsed:.1f}s")


def test_criterion_3_energy_isometry(family_checks):
    rng = np.random.default_rng(default_seed())
    bumps = make_bump_family(5, rng=rng)
    worst = 0.0
    for name in ("halfplane", "strip", "cardioid", "slitplane"):
        worst = max(worst, family_checks(ConformalMap.to_disc(name), energies=bumps)[1])
    ok = worst <= 1e-6
    _announce(3, ok, f"max energy deviation {worst:.2e} over 4 families x 5 bumps")


def test_criterion_4_brennan_range_slitplane():
    slit = ConformalMap.to_disc(DomainFamily.SLITPLANE)
    verdicts = {s: brennan_direct(slit, s, tol=0.1).verdict for s in
                (1.3, 1.5, 2.0, 3.0, 3.9, 4.1)}
    ok = (all(verdicts[s] is Verdict.CONVERGED for s in (1.5, 2.0, 3.0, 3.9))
          and all(verdicts[s] is Verdict.DIVERGENT for s in (1.3, 4.1)))
    _announce(4, ok, "verdicts " + ", ".join(
        f"s={s:g}:{v.value}" for s, v in sorted(verdicts.items())))


def test_criterion_5_kpq_constant_and_composition():
    card = ConformalMap.to_disc(DomainFamily.CARDIOID)
    res = kpq_norm(card, 2.0, 1.0)
    target = math.sqrt(3.0 * math.pi / 8.0)
    rel = abs(res.value - target) / target
    rng = np.random.default_rng(default_seed())
    recs = composition_inequality_check(card, 2.0, 1.5,
                                        make_bump_family(20, rng=rng))
    ok = (res.verdict is Verdict.CONVERGED and rel <= 1e-4
          and all(r.passed for r in recs))
    _announce(5, ok, f"K(2,1)={res.value:.6f} rel err {rel:.2e}; "
                     f"{sum(r.passed for r in recs)}/20 composition checks pass")


def _bessel_j0(x: float) -> float:
    # power series sum_k (-1)^k (x/2)^(2k) / (k!)^2; fine for 0 <= x <= 4
    q = (0.5 * x) ** 2
    term, total = 1.0, 1.0
    for k in range(1, 60):
        term *= -q / (k * k)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def _bessel_j0_first_zero() -> float:
    lo, hi = 2.0, 3.0
    flo = _bessel_j0(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = _bessel_j0(mid)
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_6_poincare_constant_and_transfer(family_checks):
    j01 = _bessel_j0_first_zero()
    assert abs(_bessel_j0(j01)) < 1e-14  # oracle self-check

    est = poincare_constant_disc(2.0, PolarGrid(128, 128))
    rel = abs(est.value - 1.0 / j01) * j01

    rng = np.random.default_rng(default_seed())
    bumps = make_bump_family(5, rng=rng)
    worst = max(family_checks(ConformalMap.to_disc(fam), transfers=bumps)[2]
                for fam in ALL)
    ok = rel <= 0.01 and worst <= 1e-6
    _announce(6, ok, f"K estimate {est.value:.6f} vs 1/j01 {1.0 / j01:.6f} "
                     f"(rel {rel:.2e}); transfer identity dev {worst:.2e}")


def test_criterion_7_exponent_algebra():
    start = time.perf_counter()
    chain_ok = True
    for a0 in np.linspace(-1.95, -0.05, 20):
        a0 = float(a0)
        p_min = (abs(a0) + 2.0) / (abs(a0) + 1.0)
        for p in np.linspace(p_min + 1e-3, 2.0 - 1e-3, 20):
            p = float(p)
            b = exponent_bounds(p, a0)
            mid = 2.0 * p / (4.0 - p)
            chain_ok &= 1.0 <= b.q_max < mid < p < 2.0
            chain_ok &= b.r_max < p / (2.0 - p)
    endpoint_ok = all(
        exponent_bounds(float(p), -2.0).q_max == 2.0 * float(p) / (4.0 - float(p))
        for p in np.linspace(1.4, 1.95, 12))
    conformal_ok = all(q_from_ps(float(p), 2.0) == 2.0
                       for p in np.linspace(2.05, 10.0, 40))
    elapsed = time.perf_counter() - start
    ok = chain_ok and endpoint_ok and conformal_ok and elapsed < 1.0
    _announce(7, ok, f"20x20 chain, exact endpoint equality, q(p,2)=2; "
                     f"{elapsed:.2f}s")


def test_criterion_8_dirichlet_solver():
    from confweight import RhsSpec, solve_dirichlet, weak_residual
    start = time.perf_counter()
    rng = np.random.default_rng(default_seed())
    bumps = make_bump_family(3, rng=rng)
    rhs = RhsSpec("const", -4.0)
    worst_err, worst_order, worst_res_order = 0.0, math.inf, math.inf
    for fam in ALL:
        mapping = ConformalMap.to_disc(fam)
        errs, res = [], []
        for n in (128, 256):
            grid = PolarGrid(n, n)
            column = solve_dirichlet(rhs, grid)
            # u = 1 - |phi(z)|^2 scored at z = psi(w), the full round trip
            exact = 1.0 - np.abs(mapping.eval(mapping.inverse(ring_nodes(grid)))) ** 2
            errs.append(float(np.max(np.abs(column[:, None] - exact))))
            res.append(max(weak_residual(grid, column, rhs, bumps)))
        worst_err = max(worst_err, errs[-1])
        worst_order = min(worst_order, math.log2(errs[0] / errs[1]))
        worst_res_order = min(worst_res_order, math.log2(res[0] / res[1]))
    elapsed = time.perf_counter() - start
    ok = (worst_err <= 1e-3 and worst_order >= 1.9 and worst_res_order >= 1.9
          and elapsed < 60.0)
    _announce(8, ok, f"max 256^2 error {worst_err:.2e}, min order "
                     f"{worst_order:.2f}, min residual order {worst_res_order:.2f}, "
                     f"{elapsed:.1f}s")


def test_criterion_9_verify_determinism(tmp_path):
    in_process = [json.dumps(run_verify(), sort_keys=True) for _ in range(2)]
    assert in_process[0] == in_process[1]
    report = json.loads(in_process[0])
    assert report["passed"] is True

    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "confweight.cli", "verify"],
                              capture_output=True)
        assert proc.returncode == 0
        runs.append(proc.stdout)
    ok = runs[0] == runs[1] and len(runs[0]) > 0
    _announce(9, ok, f"two verify runs, {len(runs[0])} bytes each, byte-identical")

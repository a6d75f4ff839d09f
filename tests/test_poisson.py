import io
import math
import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from confweight import (ConformalMap, DiscSolution, DomainFamily, GridTooCoarse,
                        MoebiusAutomorphism, PointOutsideDomain, PolarGrid,
                        RhsNotFinite, RhsSpec, SolutionNotFinite, boundary_samples,
                        TestBump, make_bump_family, pairwise_sum, poincare_constant_disc,
                        ring_nodes, solve_dirichlet, weak_residual)
from confweight.fields import _support_rows
from confweight.poisson import solve_radial
from confweight.util import CSV_BLOCK_ROWS, DEFAULT_SEED

from conftest import polar_theta

_ETA = MoebiusAutomorphism(0.3 - 0.2j, rotation=0.7)
_CONST, _QUARTIC = RhsSpec("const", -4.0), RhsSpec("quartic")
_RHS = pytest.mark.parametrize("rhs", [_CONST, _QUARTIC], ids=["const", "quartic"])


def _v(solution):
    """v(w) on the open unit disc: eval_domain of the solution's disc-family copy."""
    return replace(solution, mapping=ConformalMap.to_disc(DomainFamily.DISC)).eval_domain


def _solve(rhs, grid, family=DomainFamily.HALFPLANE):
    """``rhs`` solved on ``grid`` and pushed forward to ``family``'s domain."""
    return DiscSolution(grid, solve_dirichlet(rhs, grid), ConformalMap.to_disc(family))


def test_rhs_spec_parse_and_label():
    spec = RhsSpec.parse("const:-4")
    assert spec.kind == "const" and spec.value == -4.0
    assert spec.label == "const:-4"
    assert RhsSpec.parse("quartic").label == "quartic"
    with pytest.raises(ValueError):
        RhsSpec.parse("cubic")
    with pytest.raises(ValueError):
        RhsSpec("const", math.inf)


def test_quartic_rhs_takes_no_constant():
    with pytest.raises(ValueError, match="no constant"):
        RhsSpec("quartic", 7.0)
    assert RhsSpec("quartic", 0) == _QUARTIC


def test_rhs_spec_stores_its_constant_as_a_float():
    spec = RhsSpec("const", 3)
    assert type(spec.value) is float and spec.label == "const:3"
    assert spec.on_disc(np.array([0.1, 0.5])).dtype == float
    assert spec.evaluate(np.array([0.5j]), ConformalMap.to_disc(DomainFamily.DISC)).dtype == float
    assert spec == RhsSpec("const", 3.0)


def test_rhs_evaluate():
    m = ConformalMap.to_disc(DomainFamily.DISC)
    z = np.array([0.0j, 0.5 + 0.0j])
    assert np.array_equal(RhsSpec("const", 3.0).evaluate(z, m), [3.0, 3.0])
    quart = _QUARTIC.evaluate(z, m)
    assert quart == pytest.approx([-8.0, 16.0 * 0.25 - 8.0])


def test_rhs_on_disc_is_weightless_pullback():
    w = np.array([0.0j, 0.3 + 0.2j])
    # a constant f transfers to the same constant: no weight factor appears
    assert np.array_equal(_CONST.on_disc(np.abs(w)), [-4.0, -4.0])


@_RHS
def test_solve_accepts_any_angle_count(rhs, bumps):
    odd = _solve(rhs, PolarGrid(64, 48), DomainFamily.CARDIOID)
    even = _solve(rhs, PolarGrid(64, 64), DomainFamily.CARDIOID)
    assert odd.column.shape == (64,)
    assert np.array_equal(odd.column, even.column)
    w = np.array([0.0j, 0.3 + 0.4j, -0.2j, 0.999 + 0.0j])
    assert np.array_equal(_v(odd)(w), _v(even)(w))
    # the weak residual runs there and still falls at second order
    coarse = max(weak_residual(odd.grid, odd.column, rhs, bumps))
    fine_grid = PolarGrid(128, 96)
    fine = max(weak_residual(fine_grid, solve_dirichlet(rhs, fine_grid), rhs, bumps))
    assert math.log2(coarse / fine) >= 1.9


def test_exact_constant_solution_converges():
    errs = []
    for n in (64, 128):
        grid = PolarGrid(n, n)
        exact = 1.0 - grid.r ** 2
        errs.append(float(np.max(np.abs(solve_dirichlet(_CONST, grid) - exact))))
    assert errs[0] < 1e-4 and errs[1] < 2.5e-5
    assert math.log2(errs[0] / errs[1]) >= 1.9


def test_quartic_manufactured_solution():
    grid = PolarGrid(128, 128)
    exact = (1.0 - grid.r ** 2) ** 2
    assert float(np.max(np.abs(solve_dirichlet(_QUARTIC, grid) - exact))) < 1e-4


def test_convergence_study_quartic():
    # scored against the exact solution (1 - r^2)^2 on each of 32^2..256^2
    errs = []
    for n in (32, 64, 128, 256):
        grid = PolarGrid(n, n)
        exact = (1.0 - grid.r ** 2) ** 2
        errs.append(float(np.max(np.abs(solve_dirichlet(_QUARTIC, grid) - exact))))
    assert min(math.log2(a / b) for a, b in zip(errs, errs[1:])) >= 1.9


def test_solution_evaluation():
    sol = _solve(_CONST, PolarGrid(64, 64))
    node = ring_nodes(sol.grid)[10, 3]
    assert _v(sol)(node) == sol.column[10]
    assert isinstance(_v(sol)(node), float)
    # center value through the diameter rule
    assert _v(sol)(0.0j) == pytest.approx(1.0, abs=1e-3)
    # near-boundary wedge decays linearly to the exact zero trace
    assert _v(sol)(0.999 + 0.0j) == pytest.approx(1.0 - 0.999**2, rel=2e-2)
    with pytest.raises(PointOutsideDomain):
        _v(sol)(1.0 + 0.0j)


@pytest.mark.parametrize("w", [complex("nan"), [0.1, float("nan")], complex("inf"),
                               [0.2j, complex(0.0, float("-inf"))]])
def test_eval_disc_rejects_non_finite_points(w, recwarn):
    sol = _solve(_CONST, PolarGrid(16, 16))
    with pytest.raises(ValueError, match="finite"):
        _v(sol)(w)
    assert len(recwarn) == 0


def test_solution_field_must_be_a_ring_column(bumps):
    grid, disc = PolarGrid(16, 16), ConformalMap.to_disc(DomainFamily.DISC)
    column = 1.0 - grid.r**2
    solution = DiscSolution(grid, list(column), disc)
    assert solution.column.dtype == float and np.array_equal(solution.column, column)
    assert _v(solution)(-0.5 + 0.0j) == _v(solution)(0.5 + 0.0j)
    # one value per ring: a filled (n_r, n_theta) field is not a solution
    for values in (np.zeros(15), np.zeros(17), _broadcast(column, grid),
                   np.array(_broadcast(column, grid)), column[None, :]):
        with pytest.raises(ValueError, match="does not match the grid's 16 rings"):
            DiscSolution(grid, values, disc)
        with pytest.raises(ValueError, match="does not match the grid's 16 rings"):
            weak_residual(grid, values, _CONST, bumps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solution_column_must_be_finite(bad):
    grid = PolarGrid(4, 4)
    with pytest.raises(ValueError, match="must be finite"):
        DiscSolution(grid, np.array([0.0, 1.0, bad, -2.0]),
                     ConformalMap.to_disc(DomainFamily.DISC))


def test_eval_domain_matches_disc():
    sol = _solve(_CONST, PolarGrid(64, 64))
    w = 0.4 + 0.1j
    z = sol.mapping.inverse(w)
    assert sol.eval_domain(z) == pytest.approx(_v(sol)(w), abs=1e-12)


def test_to_csv_pushforward():
    sol = _solve(_CONST, PolarGrid(16, 16))
    buf = io.StringIO()
    sol.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "x,y,u"
    assert len(lines) == 1 + 16 * 16
    x, y, u = (float(s) for s in lines[1].split(","))
    assert y > 0.0  # pushforward lands in the upper half-plane


def test_to_csv_lattice_respects_membership():
    sol = _solve(_CONST, PolarGrid(32, 32))
    xs = np.linspace(-1.0, 1.0, 5)
    ys = np.linspace(-1.0, 1.0, 5)   # half of these are below the boundary
    lattice = (xs[None, :] + 1j * ys[:, None]).ravel()
    buf = io.StringIO()
    sol.to_csv(buf, lattice=lattice)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "x,y,u"
    assert len(lines) == 1 + 10  # only the strictly-upper rows survive
    for line in lines[1:]:
        assert float(line.split(",")[1]) > 0.0


def test_weak_residual_refinement(bumps):
    r64, r128 = (weak_residual(g, solve_dirichlet(_CONST, g), _CONST, bumps)
                 for g in (PolarGrid(64, 64), PolarGrid(128, 128)))
    assert len(r64) == len(bumps)
    assert math.log2(max(r64) / max(r128)) >= 1.9


def test_weak_residual_needs_bumps():
    grid = PolarGrid(64, 64)
    with pytest.raises(ValueError):
        weak_residual(grid, solve_dirichlet(_CONST, grid), _CONST, [])


def test_solver_determinism_and_linearity():
    grid = PolarGrid(64, 64)
    v1 = solve_dirichlet(RhsSpec("const", -4.0), grid)
    v2 = solve_dirichlet(RhsSpec("const", -4.0), grid)
    assert np.array_equal(v1, v2)
    neg = solve_dirichlet(RhsSpec("const", 4.0), grid)
    assert np.array_equal(neg, -v1)


class _PoisonedRhs:
    label = "poisoned"
    kind = "custom"

    def evaluate(self, z, mapping):
        return np.full(np.asarray(z).shape, np.nan)

    def on_disc(self, r):
        return np.full(np.shape(r), np.nan)


def test_rhs_must_be_finite():
    with pytest.raises(RhsNotFinite):
        solve_dirichlet(_PoisonedRhs(), PolarGrid(16, 16))


# --- the radial solve against the exact solve and the FFT solver ------------

def _exact_solve(f):
    """The original tridiagonal rows solved in rational arithmetic, rounded once.

    Row i is lo_i v_{i-1} + diag_i v_i + hi_i v_{i+1} = f_i with
    lo_i, hi_i = 1/h^2 -+ 1/(2 h r_i) and diag_i = -2/h^2, the across-origin
    closure diag_0 += lo_0 and the Dirichlet ghost diag_{n-1} -= hi_{n-1};
    Thomas elimination on Fractions solves it exactly.
    """
    n = len(f)
    h = Fraction(1, n)
    r = [(i + Fraction(1, 2)) * h for i in range(n)]
    lo = [1 / h**2 - 1 / (2 * h * ri) for ri in r]
    hi = [1 / h**2 + 1 / (2 * h * ri) for ri in r]
    diag = [-2 / h**2] * n
    diag[0] += lo[0]
    diag[-1] -= hi[-1]
    cp, dp = [Fraction(0)] * n, [Fraction(0)] * n
    for i in range(n):
        den = diag[i] - lo[i] * cp[i - 1] if i else diag[0]
        cp[i] = hi[i] / den
        dp[i] = (Fraction(f[i]) - (lo[i] * dp[i - 1] if i else 0)) / den
    for i in range(n - 2, -1, -1):
        dp[i] -= cp[i] * dp[i + 1]
    return np.array([float(v) for v in dp])


def _reference_solve(f_grid, grid):
    """The original 2-D solve: rfft in theta, Thomas sweeps per mode, irfft."""
    n_theta, h, r = grid.n_theta, 1.0 / grid.n_r, grid.r
    fhat = np.fft.rfft(np.asarray(f_grid, dtype=float), axis=1).T.copy()
    modes = np.arange(fhat.shape[0])
    lo = 1.0 / h**2 - 1.0 / (2.0 * h * r)
    hi = 1.0 / h**2 + 1.0 / (2.0 * h * r)
    diag = -2.0 / h**2 - modes[:, None] ** 2 / r[None, :] ** 2
    diag[:, 0] += np.where(modes % 2 == 0, 1.0, -1.0) * lo[0]
    diag[:, -1] -= hi[-1]
    batch, n = fhat.shape
    cp = np.empty((batch, n - 1))
    dp = np.empty((batch, n), dtype=fhat.dtype)
    den = diag[:, 0].copy()
    cp[:, 0] = hi[0] / den
    dp[:, 0] = fhat[:, 0] / den
    for i in range(1, n):
        den = diag[:, i] - lo[i] * cp[:, i - 1]
        if i < n - 1:
            cp[:, i] = hi[i] / den
        dp[:, i] = (fhat[:, i] - lo[i] * dp[:, i - 1]) / den
    for i in range(n - 2, -1, -1):
        dp[:, i] -= cp[:, i] * dp[:, i + 1]
    return np.fft.irfft(dp.T, n=n_theta, axis=1)


def _broadcast(column, grid):
    return np.broadcast_to(column[:, None], (grid.n_r, grid.n_theta))


def _relative_error(values, reference):
    return float(np.max(np.abs(values - reference)) / np.max(np.abs(reference)))


# relative to max|v|.  The flux solve reads at most 1.3e-15 against the exact
# solve at n_r <= 128; the FFT reference's Thomas sweeps lose digits as n_r grows,
# to 5.1e-14 from the exact solve at 128 rings and 2.5e-13 from the flux solve at 256
_EXACT_BOUND, _FFT_BOUND = 1e-14, 1e-12
_SCALES = 10.0 ** np.arange(-5, 6)
_SHAPES = pytest.mark.parametrize("n_r,n_theta", [(128, 128), (64, 256), (256, 64), (2, 8)])


@pytest.mark.parametrize("n", [2, 3, 16, 97, 128])
def test_radial_solve_is_the_exact_discrete_solution_to_rounding(n):
    rng = np.random.default_rng(n)
    r = (np.arange(n) + 0.5) / n
    worst_reference = 0.0
    for scale in _SCALES:
        for f in (scale * rng.standard_normal(n), np.full(n, scale), scale * (16 * r**2 - 8)):
            exact = _exact_solve(f)
            assert _relative_error(solve_radial(f), exact) <= _EXACT_BOUND
            grid = PolarGrid(n, 8)
            reference = _reference_solve(_broadcast(f, grid), grid)[:, 0]
            worst_reference = max(worst_reference, _relative_error(reference, exact))
    # the bound tells the solves apart: the Thomas sweeps miss it at 128 rings
    assert n < 128 or worst_reference > _EXACT_BOUND


@_SHAPES
def test_radial_solve_matches_the_fft_reference(n_r, n_theta):
    grid = PolarGrid(n_r, n_theta)
    rng = np.random.default_rng(n_r * n_theta)
    for scale in _SCALES:
        f = scale * rng.standard_normal(n_r)
        reference = _reference_solve(_broadcast(f, grid), grid)
        v = solve_radial(f)
        assert _relative_error(_broadcast(v, grid), reference) <= _FFT_BOUND
        assert n_r > 128 or _relative_error(v, _exact_solve(f)) <= _EXACT_BOUND


@_RHS
@_SHAPES
def test_solve_dirichlet_matches_the_fft_reference(n_r, n_theta, rhs):
    grid = PolarGrid(n_r, n_theta)
    f = rhs.on_disc(grid.r)
    reference = _reference_solve(_broadcast(f, grid), grid)
    v = solve_dirichlet(rhs, grid)
    assert _relative_error(_broadcast(v, grid), reference) <= _FFT_BOUND
    assert n_r > 128 or _relative_error(v, _exact_solve(f)) <= _EXACT_BOUND


def test_disc_eigenvalue_matches_the_original_solver_bit_for_bit():
    # named for the Thomas solve it matched bit for bit; lambda_1 is now K(2)^-2 from
    # the radial iteration, which takes the 9 iterations that inverse iteration on the
    # FFT reference takes, and lands within 5e-13 of its lambda
    for grid in (PolarGrid(128, 128), PolarGrid(64, 256)):
        areas = grid.cell_areas
        x = np.ones((grid.n_r, grid.n_theta))
        mu_prev = math.inf
        for it in range(1, 100):
            y = _reference_solve(-x, grid)
            mu = pairwise_sum(y * x * areas) / pairwise_sum(x * x * areas)
            if abs(mu - mu_prev) <= 1e-10 * abs(mu):
                break
            mu_prev = mu
            x = y / math.sqrt(pairwise_sum(y * y * areas))
        est = poincare_constant_disc(2.0, grid)
        assert est.iterations == it == 9
        assert est.value ** -2 == pytest.approx(1.0 / mu, rel=1e-12, abs=0.0)


# --- closed-form assembly on the disc ----------------------------------------

_PLAIN = {f.value: ConformalMap.to_disc(f) for f in DomainFamily}
_MAPPINGS = {**_PLAIN, **{name + "+eta": ConformalMap(m.family, _ETA)
                          for name, m in _PLAIN.items()}}


def _maps(names):
    return pytest.mark.parametrize("mapping", [_MAPPINGS[n] for n in names], ids=names)


@_RHS
@_maps([*_PLAIN, "cardioid+eta"])
def test_assembly_evaluates_no_map_and_no_node_grid(mapping, rhs, monkeypatch):
    # solving, and wrapping the column with any domain's map, consults no map
    calls = []
    for name in ("eval", "jacobian"):
        orig = getattr(ConformalMap, name)

        def spy(self, z, _orig=orig, _name=name):
            calls.append(_name)
            return _orig(self, z)

        monkeypatch.setattr(ConformalMap, name, spy)
    grid = PolarGrid(64, 64)
    DiscSolution(grid, solve_dirichlet(rhs, grid), mapping)
    assert calls == []
    assert "phase" not in grid.__dict__  # no node of the grid was formed


def test_cold_quartic_solve_at_1024_squared_stays_small():
    tracemalloc.start()
    try:
        solve_dirichlet(_QUARTIC, PolarGrid(1024, 1024))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the field is the broadcast ring column: O(n_r) bytes, no 8 MiB grid
    assert peak < 2**20


@_maps(list(_MAPPINGS))
def test_closed_form_rhs_agrees_with_the_round_trip(mapping):
    w = ring_nodes(PolarGrid(1024, 1024))
    rhs = _QUARTIC
    closed = rhs.on_disc(np.abs(w))
    round_trip = rhs.evaluate(mapping.inverse(w), mapping)
    assert float(np.max(np.abs(closed - round_trip))) < 1e-11


@_maps(["disc", "strip", "disc+eta", "strip+eta"])
def test_const_solve_is_bit_identical_to_the_pullback_assembly(mapping):
    # named for the Thomas solve it matched bit for bit; the closed-form assembly
    # now agrees with the FFT solve of the pulled-back field to that solve's bound
    grid = PolarGrid(128, 64)
    pulled = _CONST.evaluate(mapping.inverse(ring_nodes(grid)), mapping)
    reference = _reference_solve(pulled, grid)
    values = _broadcast(solve_dirichlet(_CONST, grid), grid)
    assert _relative_error(values, reference) <= _FFT_BOUND


def test_rhs_not_finite_names_the_first_bad_node():
    with pytest.raises(RhsNotFinite, match=r"not finite at psi\(\(0\.03125\+0j\)\)"):
        solve_dirichlet(_PoisonedRhs(), PolarGrid(16, 16))


def test_overflowing_solve_names_the_first_bad_radius(recwarn):
    with pytest.raises(SolutionNotFinite, match=r"not finite at radius 0\.03125 "):
        solve_dirichlet(RhsSpec("const", 5e307), PolarGrid(16, 16))
    assert len(recwarn) == 0


# --- the ring column against the 2-D rules it replaced -----------------------

def _whole_grid_nodes(grid):
    """The deleted ``PolarGrid.nodes``: the whole grid's nodes in one product."""
    return grid.r[:, None] * np.exp(1j * polar_theta(grid))[None, :]


def _polar_gradient(values, grid):
    """The deleted 2-D gradient: central differences in r and theta, the first
    ring differenced across the origin through the node at theta + pi."""
    h, dtheta = 1.0 / grid.n_r, 2.0 * np.pi / grid.n_theta
    fr = np.empty_like(values)
    fr[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    fr[0] = (values[1] - np.roll(values[0], -(grid.n_theta // 2))) / (2.0 * h)
    fr[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    ft = (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2.0 * dtheta)
    theta = polar_theta(grid)
    cos, sin = np.cos(theta)[None, :], np.sin(theta)[None, :]
    inv_r = (1.0 / grid.r)[:, None]
    return fr * cos - ft * sin * inv_r, fr * sin + ft * cos * inv_r


def _bilinear_eval(solution, w):
    """The deleted 2-D evaluation: bilinear in (r, theta), linear along the
    diameter below the first ring, and a wedge down to 0 above the last."""
    g = solution.grid
    v = _broadcast(solution.column, g)
    rr, h, dth = np.abs(w), 1.0 / g.n_r, 2.0 * np.pi / g.n_theta
    jf = np.mod(np.angle(w), 2.0 * np.pi) / dth
    j0 = np.floor(jf).astype(int) % g.n_theta
    tj = jf - np.floor(jf)
    j1 = (j0 + 1) % g.n_theta

    def ring(i, jlo, jhi, frac):
        return v[i, jlo] * (1.0 - frac) + v[i, jhi] * frac

    p = rr / h - 0.5
    i0 = np.floor(p).astype(int)
    ti = p - np.floor(p)
    out = np.empty(rr.shape)
    inner, outer = i0 < 0, i0 >= g.n_r - 1
    mid = ~(inner | outer)
    im = i0[mid]
    vlo = ring(im, j0[mid], j1[mid], tj[mid])
    vhi = ring(im + 1, j0[mid], j1[mid], tj[mid])
    out[mid] = vlo * (1.0 - ti[mid]) + vhi * ti[mid]
    half = g.n_theta // 2
    a = ring(0, j0[inner], j1[inner], tj[inner])
    b = ring(0, (j0[inner] + half) % g.n_theta, (j1[inner] + half) % g.n_theta, tj[inner])
    r0 = 0.5 * h
    out[inner] = ((rr[inner] + r0) * a + (r0 - rr[inner]) * b) / (2.0 * r0)
    vn = ring(g.n_r - 1, j0[outer], j1[outer], tj[outer])
    out[outer] = vn * (1.0 - rr[outer]) / (0.5 * h)
    return out


@_RHS
@pytest.mark.parametrize("n_r,n_theta", [(16, 16), (64, 64), (128, 64)])
def test_weak_residual_matches_the_polar_gradient_bit_for_bit(n_r, n_theta, rhs, bumps):
    grid = PolarGrid(n_r, n_theta)
    column = solve_dirichlet(rhs, grid)
    gx, gy = _polar_gradient(_broadcast(column, grid), grid)
    nodes, areas = _whole_grid_nodes(grid), grid.cell_areas
    ftilde = rhs.on_disc(np.abs(nodes))
    reference = []
    for b in bumps:
        gb = b.gradient(nodes)
        pair = pairwise_sum((gx * gb.real + gy * gb.imag) * areas)
        reference.append(abs(pair + pairwise_sum(ftilde * b.value(nodes) * areas)))
    residuals = weak_residual(grid, column, rhs, bumps)
    assert [r.hex() for r in residuals] == [float(r).hex() for r in reference]


def _whole_grid_weak_residual(grid, column, rhs, bumps):
    """The reference: weak_residual's formula with every bump evaluated on the whole grid."""
    v, h = column, 1.0 / grid.n_r
    dv = np.empty_like(v)
    dv[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    dv[0] = (v[1] - v[0]) / (2.0 * h)
    dv[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    theta = polar_theta(grid)
    gx, gy = dv[:, None] * np.cos(theta), dv[:, None] * np.sin(theta)
    areas, nodes = grid.cell_areas, _whole_grid_nodes(grid)
    ftilde = rhs.on_disc(np.abs(nodes))
    out = []
    for b in bumps:
        gb = b.gradient(nodes)
        pair = pairwise_sum((gx * gb.real + gy * gb.imag) * areas)
        out.append(abs(pair + pairwise_sum(ftilde * b.value(nodes) * areas)))
    return out


@_RHS
@pytest.mark.parametrize("n_r,n_theta", [(16, 16), (64, 64), (100, 100), (256, 256),
                                         (100, 48)])
@pytest.mark.parametrize("seed", [0, 11, 39])
def test_weak_residual_on_support_rows_has_the_whole_grid_bits(seed, n_r, n_theta, rhs):
    grid = PolarGrid(n_r, n_theta)
    column = solve_dirichlet(rhs, grid)
    bumps = make_bump_family(3, rng=np.random.default_rng(seed))
    residuals = weak_residual(grid, column, rhs, bumps)
    reference = _whole_grid_weak_residual(grid, column, rhs, bumps)
    assert [r.hex() for r in residuals] == [r.hex() for r in reference]


def test_weak_residual_evaluates_each_bump_on_its_support_rows_only(monkeypatch, bumps):
    grid = PolarGrid(128, 64)
    seen = []
    for method in ("value", "gradient"):
        def spy(self, w, _orig=getattr(TestBump, method), _name=method):
            seen.append((self, _name, w))
            return _orig(self, w)
        monkeypatch.setattr(TestBump, method, spy)
    weak_residual(grid, solve_dirichlet(_CONST, grid), _CONST, bumps)
    assert len(seen) == 2 * len(bumps)
    for b, name, w in seen:
        rows = _support_rows(b, grid.r)
        assert rows.stop - rows.start < grid.n_r, name
        assert np.array_equal(w, _whole_grid_nodes(grid)[rows]), name


def test_weak_residual_at_1024_squared_forms_nodes_on_support_rows_only():
    # three default-seed bumps: 27.1 MiB, against 38.1 MiB when the call built
    # the grid's whole 16 MiB node array and cut each bump's rows from it
    grid = PolarGrid(1024, 1024)
    column = solve_dirichlet(_CONST, grid)
    bumps = make_bump_family(3, rng=np.random.default_rng(DEFAULT_SEED))
    tracemalloc.start()
    try:
        weak_residual(grid, column, _CONST, bumps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("n_r,n_theta", [(8, 32), (32, 8)])
def test_weak_residual_requires_fine_grid(n_r, n_theta, bumps):
    grid = PolarGrid(n_r, n_theta)
    column = solve_dirichlet(_CONST, grid)
    with pytest.raises(GridTooCoarse, match=f"got {n_r}x{n_theta}"):
        weak_residual(grid, column, _CONST, bumps)


def test_eval_disc_matches_the_bilinear_rule_to_rounding():
    solution = _solution("cardioid", 256, 256)
    rng = np.random.default_rng(20)
    g = solution.grid
    disc = np.sqrt(rng.uniform(0.0, 1.0, 10**5)) * np.exp(2j * np.pi * rng.uniform(size=10**5))
    centre = rng.uniform(0.0, g.r[0], 100) * np.exp(2j * np.pi * rng.uniform(size=100))
    wedge = rng.uniform(g.r[-1], 1.0, 100) * np.exp(2j * np.pi * rng.uniform(size=100))
    w = np.concatenate([[0.0j], disc, centre, ring_nodes(g).ravel(), wedge])
    w = w[np.abs(w) < 1.0]
    assert np.max(np.abs(_v(solution)(w) - _bilinear_eval(solution, w))) <= 4.5e-16


def test_pinned_lattice_cells_move_by_rounding_only():
    # the lattice of tests/test_cli.py::test_solve_csv_bytes_are_pinned
    solution = _solution("halfplane", 16, 16)
    xs, ys = np.linspace(-2.0, 2.0, 9), np.linspace(0.01, 4.0, 9)
    z = (xs[None, :] + 1j * ys[:, None]).ravel()
    z = z[solution.mapping.contains(z)]
    old = _bilinear_eval(solution, solution.mapping.eval(z))
    assert z.size == 81
    assert np.max(np.abs(solution.eval_domain(z) - old)) <= 2.2e-16


def _csv(solution, lattice=None) -> str:
    buf = io.StringIO()
    solution.to_csv(buf, lattice=lattice)
    return buf.getvalue()


def _plain_csv(z, u) -> str:
    """The x,y,u table built cell by cell with format(v, ".17g"), without the writer."""
    rows = zip(np.ravel(z).real.tolist(), np.ravel(z).imag.tolist(), np.ravel(u).tolist())
    return "x,y,u\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n"
                                for row in rows)


def _lattice(window, n):
    """The points of ``solve --export lattice``: the same expression, so the same bits."""
    xmin, xmax, ymin, ymax = window
    xs, ys = np.linspace(xmin, xmax, n), np.linspace(ymin, ymax, n)
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def _solution(family, n_r=32, n_theta=32):
    return _solve(_QUARTIC, PolarGrid(n_r, n_theta), DomainFamily(family))


@pytest.mark.parametrize("family", ["strip", "cardioid", "halfplane"])
@pytest.mark.parametrize("n_r, n_theta", [(128, 64), (64, 130), (97, 100)])
def test_pushforward_csv_is_the_text_of_plain_columns(family, n_r, n_theta):
    # each ring's u is formatted once; the rows must read as if every cell were
    solution = _solution(family, n_r, n_theta)
    z = solution.mapping.inverse(ring_nodes(solution.grid))
    assert z.size >= 2 * CSV_BLOCK_ROWS
    assert _csv(solution) == _plain_csv(z, np.repeat(solution.column, n_theta))


# strip and disc keep rows with y <= 0; the half plane drops them
_LATTICE_FAMILIES = ("strip", "disc", "halfplane")


@pytest.mark.parametrize("family", _LATTICE_FAMILIES)
@pytest.mark.parametrize("window, n", [((-1.0, 1.0, -1.0, 1.0), 91),
                                       ((-0.0, 0.9, -0.9, 0.5), 95),
                                       ((0.0, -0.0, -0.0, 0.6), 7)])
def test_lattice_csv_is_the_text_of_plain_columns(family, window, n):
    solution = _solution(family)
    lattice = _lattice(window, n)
    z = lattice[solution.mapping.contains(lattice)]
    assert z.size > 0 and (family != "halfplane" or z.imag.min() > 0.0)
    assert _csv(solution, lattice) == _plain_csv(z, solution.eval_domain(z))


def test_lattice_csv_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    solutions = {family: _solution(family) for family in _LATTICE_FAMILIES}
    end = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-1.5, 1.5))

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(_LATTICE_FAMILIES), st.tuples(end, end, end, end),
                      st.integers(1, 40))
    def check(family, window, n):
        solution = solutions[family]
        lattice = _lattice(window, n)
        z = lattice[solution.mapping.contains(lattice)]
        u = solution.eval_domain(z)
        assert _csv(solution, lattice) == _plain_csv(z, u)

    check()


@pytest.mark.parametrize("family", list(DomainFamily), ids=lambda f: f.value)
def test_eval_domain_succeeds_wherever_contains_accepts(family):
    # near the boundary phi may round an accepted point onto |w| = 1, where u
    # is the boundary value 0; far out |z| reaches the largest float
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    solution = _solution(family, 16, 16)
    gamma, normal = boundary_samples(family, 64)
    near = st.builds(lambda k, d: gamma[k] + d * normal[k], st.integers(0, 63),
                     st.floats(0.0, 0.1))
    far = st.builds(lambda r, t: r * np.exp(1j * t), st.floats(1.0, np.finfo(float).max),
                    st.floats(-np.pi, np.pi))

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(near | far)
    def check(z):
        hypothesis.assume(solution.mapping.contains(z))
        u = solution.eval_domain(z)
        assert math.isfinite(u)
        if np.abs(solution.mapping.eval(z)) >= 1.0:
            assert u == 0.0

    check()


@pytest.mark.parametrize("family, lattice", [
    ("strip", None), ("halfplane", _lattice((-2.0, 2.0, 0.01, 4.0), 512))])
def test_to_csv_at_512_squared_holds_no_whole_column_of_objects(family, lattice):
    # 10.8 MiB for the strip and 13.0 MiB for the lattice; a float column cast whole to
    # objects adds 8 MiB, and np.unique's return_inverse on both lattice axes 7 MiB
    solution = _solution(family, 512, 512)
    tracemalloc.start()
    try:
        solution.to_csv(os.devnull, lattice=lattice)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20

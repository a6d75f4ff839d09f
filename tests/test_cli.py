import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import confweight
from confweight import ConfweightError, ConformalMap, DomainFamily, integrate_disc
from confweight.cli import build_parser, main
from confweight.poisson import _radial_factor


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_weight_halfplane_example(capsys):
    code, out, _ = run(capsys, "weight", "--domain", "halfplane", "--at", "0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == 0.25
    assert doc["config"]["command"] == "weight"
    assert doc["config"]["domain"] == "halfplane"


def test_weight_csv_output(capsys):
    code, out, _ = run(capsys, "weight", "--domain", "exterior", "--at", "2,0",
                       "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    config_lines = [l for l in lines if l.startswith("#")]
    assert any("domain=exterior" in l for l in config_lines)
    header = lines[len(config_lines)]
    values = lines[len(config_lines) + 1]
    assert header.split(",")[0] == "h"
    assert float(values.split(",")[0]) == 0.0625


def test_brennan_divergent_exit(capsys):
    code, out, _ = run(capsys, "brennan", "--domain", "slitplane",
                       "--s", "4.1", "--levels", "8")
    assert code == 1
    assert json.loads(out)["verdict"] == "Divergent"


def test_levels_over_the_node_budget_exit_1(capsys):
    code, out, err = run(capsys, "brennan", "--domain", "slitplane",
                         "--s", "4.1", "--levels", "10")
    assert (code, out) == (1, "")
    assert "16777216" in err and "largest allowed max_levels is 9" in err


SOLVE = ("solve", "--domain", "disc", "--f", "const:-4")
LATTICE = ("--export", "lattice")


@pytest.mark.parametrize("argv,flags,nodes", [
    (SOLVE + ("--nr", "65536", "--ntheta", "65536"), "--nr x --ntheta", 65536**2),
    (SOLVE + ("--nr", "4096", "--ntheta", "8192"), "--nr x --ntheta", 4096 * 8192),
    (("constant", "--nr", "65536", "--ntheta", "65536"), "--nr x --ntheta", 65536**2),
    (("constant", "--r", "1.5", "--nr", "8192", "--ntheta", "4096"), "--nr x --ntheta",
     8192 * 4096),
    (SOLVE + LATTICE + ("--lattice-n", "8192"), "--lattice-n squared", 8192**2),
    (SOLVE + LATTICE + ("--lattice-n", "4097"), "--lattice-n squared", 4097**2),
])
def test_grid_over_the_node_budget_exits_1_before_allocating(capsys, monkeypatch, argv,
                                                             flags, nodes):
    def allocates(*args, **kwargs):
        raise AssertionError("a grid over the node budget reached the solver")

    monkeypatch.setattr("confweight.cli.solve_dirichlet", allocates)
    monkeypatch.setattr("confweight.cli.poincare_constant_disc", allocates)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"{flags} asks for {nodes} nodes" in err and "16777216" in err


@pytest.mark.parametrize("argv", [
    SOLVE + ("--nr", "4096", "--ntheta", "4096"),
    ("constant", "--nr", "8192", "--ntheta", "2048"),
    SOLVE + LATTICE + ("--lattice-n", "4096"),
    SOLVE + ("--lattice-n", "8192"),  # the lattice is not built for a push-forward
])
def test_grid_at_the_node_budget_reaches_the_solver(capsys, monkeypatch, argv):
    def reached(*args, **kwargs):
        raise ConfweightError("reached the solver")

    monkeypatch.setattr("confweight.cli.solve_dirichlet", reached)
    monkeypatch.setattr("confweight.cli.poincare_constant_disc", reached)
    code, _, err = run(capsys, *argv)
    assert code == 1 and err == "error: reached the solver\n"


def test_brennan_converged_exit(capsys):
    code, out, _ = run(capsys, "brennan", "--domain", "slitplane",
                       "--s", "3.0", "--tol", "0.1")
    assert code == 0
    assert json.loads(out)["verdict"] == "Converged"


def test_inverse_brennan_alpha(capsys):
    code, out, _ = run(capsys, "inverse-brennan", "--domain", "slitplane",
                       "--alpha", "-1.0", "--tol", "0.1")
    assert code == 0
    direct = json.loads(out)
    code, out, _ = run(capsys, "brennan", "--domain", "slitplane",
                       "--s", "3.0", "--tol", "0.1")
    assert direct["level_values"] == json.loads(out)["level_values"]


def test_inverse_brennan_uses_alpha_as_given(capsys):
    # 2 - (2 - alpha) is -1.7000000000000002, so a detour through s moves the bits
    code, out, _ = run(capsys, "inverse-brennan", "--domain", "strip", "--alpha", "-1.7",
                       "--tol", "0.01", "--levels", "4")
    assert code == 0
    inv = ConformalMap.to_disc(DomainFamily.STRIP).invert()
    want = integrate_disc(lambda w: np.abs(inv.derivative(w)) ** -1.7, tol=0.01, max_levels=4)
    assert json.loads(out)["level_values"] == list(want.level_values)


def test_kpq_cardioid(capsys):
    code, out, _ = run(capsys, "kpq", "--domain", "cardioid", "--p", "2", "--q", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Converged"
    assert abs(doc["value"] - math.sqrt(3 * math.pi / 8)) / doc["value"] < 1e-4


def test_exponents_bounds_and_q(capsys):
    code, out, _ = run(capsys, "exponents", "--p", "1.9", "--alpha0", "-1.752")
    assert code == 0
    doc = json.loads(out)
    assert doc["p_min"] == pytest.approx(3.752 / 2.752, rel=1e-15)
    assert not doc["conjectural"]
    code, out, _ = run(capsys, "exponents", "--p", "3", "--s", "3")
    assert code == 0
    assert json.loads(out)["q"] == 2.25


def test_exponents_infeasible_exit(capsys):
    code, out, err = run(capsys, "exponents", "--p", "1.9", "--s", "3")
    assert code == 1
    assert "error" in err
    assert out == ""


def test_usage_error_exit(capsys):
    assert run(capsys, "weight", "--domain", "nowhere", "--at", "0,0")[0] == 2
    assert run(capsys, "weight", "--domain", "disc")[0] == 2       # missing --at
    assert run(capsys, "weight", "--domain", "disc", "--at", "xy")[0] == 2
    assert run(capsys, "nosuchcommand")[0] == 2


def test_constant_eigen_route(capsys):
    code, out, _ = run(capsys, "constant", "--r", "2", "--nr", "128",
                       "--ntheta", "128")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "EigenRayleigh"
    assert abs(doc["value"] - 0.41583) < 0.01 * 0.41583 + 1e-5


def test_constant_bump_route_seeded(capsys, monkeypatch):
    code, out, _ = run(capsys, "constant", "--r", "1.5", "--nr", "64",
                       "--ntheta", "64", "--bumps", "8")
    assert code == 0
    base = json.loads(out)
    assert base["method"] == "BumpFamilyMax"
    # same seed, same bumps, same value
    code, out, _ = run(capsys, "constant", "--r", "1.5", "--nr", "64",
                       "--ntheta", "64", "--bumps", "8")
    assert json.loads(out)["value"] == base["value"]
    monkeypatch.setenv("CW_SEED", "99")
    code, out, _ = run(capsys, "constant", "--r", "1.5", "--nr", "64",
                       "--ntheta", "64", "--bumps", "8")
    assert json.loads(out)["value"] != base["value"]


def test_solve_csv_against_exact(capsys):
    code, out, _ = run(capsys, "solve", "--domain", "strip", "--f", "const:-4",
                       "--nr", "64", "--ntheta", "64")
    assert code == 0
    lines = out.strip().splitlines()
    data = [l for l in lines if not l.startswith("#") and not l.startswith("x,")]
    assert len(data) == 64 * 64
    mapping = ConformalMap.to_disc(DomainFamily.STRIP)
    worst = 0.0
    for line in data[::37]:
        x, y, u = (float(s) for s in line.split(","))
        exact = 1.0 - abs(mapping.eval(complex(x, y))) ** 2
        worst = max(worst, abs(u - exact))
    assert worst <= 1e-3


def test_solve_lattice_inside_domain(capsys):
    code, out, _ = run(capsys, "solve", "--domain", "halfplane", "--f", "quartic",
                       "--nr", "32", "--ntheta", "32", "--export", "lattice",
                       "--window=-2,2,-2,2", "--lattice-n", "9")
    assert code == 0
    data = [l for l in out.strip().splitlines()
            if not l.startswith("#") and not l.startswith("x,")]
    assert 0 < len(data) < 81
    for line in data:
        assert float(line.split(",")[1]) > 0.0


def test_solve_json_summary(capsys):
    code, out, _ = run(capsys, "solve", "--domain", "disc", "--f", "const:-4",
                       "--nr", "32", "--ntheta", "32", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["u_max"] == pytest.approx(1.0, abs=1e-3)
    assert doc["config"]["rhs"] == "const:-4"


def test_config_echo_reads_back_exactly(capsys):
    # two inputs that %g prints alike give different weights, so each echo
    # must name its own input
    weights = []
    for at in ("0.123456789,0", "0.123457,0"):
        _, out, _ = run(capsys, "weight", "--domain", "strip", "--at", at)
        doc = json.loads(out)
        assert doc["config"]["at"] == at
        weights.append(doc["h"])
    assert weights[0] != weights[1]
    code, out, _ = run(capsys, "solve", "--domain", "disc", "--f", "const:1.23456789",
                       "--window=-0.123456789,2,0.01,3", "--nr", "16", "--ntheta", "16",
                       "--output", "json")
    assert code == 0
    config = json.loads(out)["config"]
    assert config["rhs"] == "const:1.23456789"
    assert config["window"] == "-0.123456789,2,0.01,3"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "weight.json"
    code, out, _ = run(capsys, "weight", "--domain", "halfplane", "--at", "0,1",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["h"] == 0.25


def test_byte_identical_reruns(capsys):
    args = ("brennan", "--domain", "slitplane", "--s", "3.9", "--tol", "0.1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_parser_lists_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("weight", "brennan", "inverse-brennan", "kpq", "exponents",
                "constant", "solve", "verify"):
        assert cmd in text


def test_out_path_missing_directory_exit(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "weight.json"
    code, out, err = run(capsys, "weight", "--domain", "halfplane", "--at", "0,1",
                         "--out", str(target))
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_invalid_grid_sizes_exit_cleanly(capsys):
    code, _, err = run(capsys, "solve", "--domain", "disc", "--f", "const:-4",
                       "--nr", "0", "--ntheta", "32")
    assert code == 1 and err.startswith("error:")
    # any angle count is a grid: the radial solve never pairs theta with theta + pi
    code, out, err = run(capsys, "solve", "--domain", "disc", "--f", "const:-4",
                         "--nr", "32", "--ntheta", "31")
    assert code == 0 and err == ""
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert rows[0] == "x,y,u" and len(rows) == 1 + 32 * 31


def test_bad_cw_seed_exit(capsys, monkeypatch):
    monkeypatch.setenv("CW_SEED", "banana")
    code, _, err = run(capsys, "constant", "--r", "1.5", "--bumps", "2")
    assert code == 1
    assert "CW_SEED" in err


@pytest.mark.parametrize("command", [("brennan", "--s", "3.0"),
                                     ("inverse-brennan", "--alpha", "-1.0"),
                                     ("kpq", "--p", "2", "--q", "1")])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-0.001"])
def test_tol_must_be_finite_and_positive(capsys, command, tol):
    code, out, err = run(capsys, command[0], "--domain", "disc", *command[1:],
                         f"--tol={tol}", "--levels", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--tol" in err


def test_overflowing_ladder_prints_only_the_error_line():
    # J^(alpha/2) overflows above J = 1; numpy must not warn on stderr first
    src = os.path.dirname(os.path.dirname(confweight.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "confweight.cli", "inverse-brennan", "--domain",
                           "strip", "--alpha", "1e308"], capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert re.fullmatch(r"error: integrand is not finite at interior node \(\S+j\)\n",
                        proc.stderr), proc.stderr


def test_non_finite_json_value_exits_1(capsys, tmp_path):
    # q(p, s) overflows for a huge p; the report must not carry NaN/Infinity
    code, out, err = run(capsys, "exponents", "--p", "1e308", "--s", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    target = tmp_path / "q.json"
    code, _, _ = run(capsys, "exponents", "--p", "1e308", "--s", "3", "--out", str(target))
    assert code == 1
    assert not target.exists()


@pytest.mark.parametrize("export", [(), ("--export", "lattice", "--window=-2,2,0.01,4",
                                         "--lattice-n", "33")])
def test_solve_csv_stdout_and_out_are_identical(capsys, tmp_path, export):
    argv = ("solve", "--domain", "halfplane", "--f", "quartic", "--nr", "32",
            "--ntheta", "32", *export)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "u.csv"
    code, printed, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0 and printed == ""
    assert target.read_bytes() == out.encode("ascii")
    body = out.split("x,y,u\n", 1)[1]
    assert body.count("\n") == (33 * 33 if export else 32 * 32)


@pytest.mark.parametrize("window", ["-inf,inf,0,1", "-1e308,1e308,0,1"])
def test_failed_solve_csv_leaves_out_untouched(capsys, tmp_path, window):
    # the window's lattice is not finite, so the export fails after the solve
    argv = ("solve", "--domain", "halfplane", "--f", "quartic", "--nr", "16",
            "--ntheta", "16", "--export", "lattice", f"--window={window}",
            "--lattice-n", "4", "--out", str(tmp_path / "u.csv"))
    with np.errstate(all="ignore"):
        assert run(capsys, *argv)[0] == 1
        assert not (tmp_path / "u.csv").exists()
        (tmp_path / "u.csv").write_text("kept\n")
        code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:")
    assert (tmp_path / "u.csv").read_text() == "kept\n"


@pytest.mark.parametrize("window", ["-inf,inf,0,1", "-1e308,1e308,0,1"])
def test_failed_solve_csv_leaves_stdout_empty(capsys, window):
    argv = ("solve", "--domain", "halfplane", "--f", "quartic", "--nr", "16",
            "--ntheta", "16", "--export", "lattice", f"--window={window}",
            "--lattice-n", "4")
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv,digest", [
    (("--domain", "strip", "--f", "const:-4"),
     "ce7973ebb43d1f90974cf06ae6a115686f7a6991bb1e1b65a0b8b19262eb3ac2"),
    (("--domain", "halfplane", "--f", "quartic", "--export", "lattice",
      "--window=-2,2,0.01,4", "--lattice-n", "9"),
     "193e512db93936485196ae65beb7c573edfca727cb2e41b3024df1d5ba0438f2"),
])
def test_solve_csv_bytes_are_pinned(capsys, argv, digest):
    # streaming must not move a byte: these digests were taken from the buffered writer,
    # the lattice one again when eval_disc became linear on the ring column (15 of its
    # 81 u cells moved, by at most 1.1e-16: test_pinned_lattice_cells_move_by_rounding_only)
    code, out, _ = run(capsys, "solve", *argv, "--nr", "16", "--ntheta", "16")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("--domain", "cardioid", "--f", "quartic"),
     "73bbbbafbf2ad9bebb887c9c15d85fad056ea338b46e38f3428101501693b4ca"),
    (("--domain", "disc", "--f", "const:0"),  # every u is -0.0
     "0bb19df3d00efa1134b55c286549954f771065663a3d571a374de2407417e5ac"),
])
def test_solve_json_bytes_are_pinned(capsys, argv, digest):
    # digests taken when the extremes came from the whole (n_r, n_theta) field
    code, out, _ = run(capsys, "solve", *argv, "--nr", "16", "--ntheta", "16",
                       "--output", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_solve_json_builds_no_grid():
    # the extremes of a radial solution are those of its column: 8 KiB at 1024^2,
    # where the broadcast field is 8 MiB
    _radial_factor.cache_clear()
    tracemalloc.start()
    try:
        code = main(["solve", "--domain", "cardioid", "--f", "quartic", "--nr", "1024",
                     "--ntheta", "1024", "--output", "json", "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**20


@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize("rhs", ["const:1.7e308", "const:5e307", "const:-1.7e308"])
def test_solve_overflow_exits_1_without_a_warning(capsys, recwarn, output, rhs):
    code, out, err = run(capsys, "solve", "--domain", "disc", f"--f={rhs}",
                         "--output", output)
    assert (code, out) == (1, "")
    assert err == ("error: solution is not finite at radius 0.00390625 "
                   "(the right-hand side overflows the solve)\n")
    assert len(recwarn) == 0


def test_solve_csv_streams_rows_to_out(tmp_path):
    # 65536 rows are 4 MB of text; only the columns and one row block stay in memory
    _radial_factor.cache_clear()
    tracemalloc.start()
    try:
        code = main(["solve", "--domain", "strip", "--f", "const:-4", "--nr", "256",
                     "--ntheta", "256", "--out", str(tmp_path / "u.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and (tmp_path / "u.csv").stat().st_size > 4_000_000
    assert peak < 6.5 * 2**20

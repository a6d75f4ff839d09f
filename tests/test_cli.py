import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import confweight
from confweight import (ConfweightError, ConformalMap, ConstantEstimate, DomainFamily,
                        ExponentBounds, QuadResult, cli, integrate_disc)
from confweight.cli import build_parser, main


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


def test_weight_at_a_negative_real_part_needs_the_equals_form(capsys):
    # argparse reads "-0.1,0.2" after a space as an option, so --at has no value
    code, out, err = run(capsys, "weight", "--domain", "strip", "--at", "-0.1,0.2")
    assert (code, out) == (2, "") and "argument --at: expected one argument" in err
    code, out, _ = run(capsys, "weight", "--domain", "strip", "--at=-0.1,0.2")
    assert code == 0
    assert json.loads(out)["h"] == 0.9415544726104612


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


@pytest.mark.parametrize("n", ["0", "-5"])
def test_empty_lattice_exits_1_before_the_solve_and_the_out_file(capsys, monkeypatch,
                                                                  tmp_path, n):
    def solves(*args, **kwargs):
        raise AssertionError("an empty lattice reached the solver")

    monkeypatch.setattr("confweight.cli.solve_dirichlet", solves)
    target = tmp_path / "u.csv"
    code, out, err = run(capsys, *SOLVE, *LATTICE, "--lattice-n", n, "--out", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: --lattice-n must be at least 1, got {n}\n"
    assert not target.exists()
    target.write_text("kept\n")
    assert run(capsys, *SOLVE, *LATTICE, "--lattice-n", n, "--out", str(target))[0] == 1
    assert target.read_text() == "kept\n"


def test_one_point_lattice_is_written(capsys):
    code, out, _ = run(capsys, *SOLVE, *LATTICE, "--window=-0.5,0.5,-0.5,0.5",
                       "--lattice-n", "1", "--nr", "16", "--ntheta", "16")
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert code == 0 and rows[0] == "x,y,u" and len(rows) == 2
    assert [float(c) for c in rows[1].split(",")[:2]] == [-0.5, -0.5]


def test_a_lattice_that_misses_the_domain_writes_the_header_alone(capsys):
    # every point of the window lies below the half plane, so no row is kept
    code, out, err = run(capsys, "solve", "--domain", "halfplane", "--f", "quartic",
                         "--nr", "16", "--ntheta", "16", "--export", "lattice",
                         "--window=-1,1,-2,-1", "--lattice-n", "4")
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert all(line.startswith("#") for line in lines[:-1]) and lines[-1] == "x,y,u"


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
    phi = ConformalMap.to_disc(DomainFamily.STRIP)
    want = integrate_disc(lambda w: phi.inverse_jacobian(w) ** (-1.7 / 2.0), tol=0.01,
                          max_levels=4)
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
    assert abs(doc["value"] - 0.41583) < 0.01 * 0.41583 + 1e-5
    assert doc["iterations"] == 9


@pytest.mark.parametrize("n", ["8", "16"])
def test_constant_has_no_grid_floor(capsys, n):
    # the bump route exited 1 below 32 nodes per direction; K is found on the rings
    # alone and reads 0.3891 at 8 rings and 0.3882 at 16, against the sharp K(3) = 0.3878
    code, out, err = run(capsys, "constant", "--r", "3", "--nr", n, "--ntheta", n)
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == pytest.approx(0.389, abs=1e-3)


def test_constant_takes_no_bumps(capsys):
    code, out, err = run(capsys, "constant", "--r", "3", "--bumps", "4")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --bumps 4" in err


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


def test_every_command_carries_a_registered_handler():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    handlers = {name: f for name, f in vars(cli).items() if name.startswith("_cmd_")}
    runs = {name: p.get_default("run") for name, p in sub.choices.items()}
    assert set(runs) == {"weight", "brennan", "inverse-brennan", "kpq", "exponents",
                         "constant", "solve", "verify"}
    # equal sets: each run is a handler (not None), and no handler is left out
    assert set(runs.values()) == set(handlers.values())


# one cheap run of each command; verify's suite is stubbed, as its config echo
# does not depend on the report
_EVERY_COMMAND = [
    ("weight", "--domain", "disc", "--at", "0.1,0.2"),
    ("brennan", "--domain", "disc", "--s", "1", "--levels", "2"),
    ("inverse-brennan", "--domain", "disc", "--alpha", "1", "--levels", "2"),
    ("kpq", "--domain", "cardioid", "--p", "2", "--q", "1", "--levels", "2"),
    ("exponents", "--p", "1.8"),
    ("constant", "--nr", "16", "--ntheta", "16"),
    ("solve", "--domain", "disc", "--f", "const:1", "--nr", "8", "--ntheta", "8"),
    ("verify",),
]


@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=lambda argv: argv[0])
def test_no_command_echoes_its_handler(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "run_verify", lambda: {
        "passed": True, "checks": [{"name": "stub", "passed": True}], "mismatch_reports": []})
    for output in ("json", "csv"):
        _, out, err = run(capsys, *argv, "--output", output)
        assert err == ""
        if output == "json":
            config = json.loads(out)["config"]
        else:
            config = dict(line[2:].split("=", 1) for line in out.splitlines()
                          if line.startswith("# "))
        assert config["command"] == argv[0] and "run" not in config


def _fields(result_type) -> set:
    return {f.name for f in dataclasses.fields(result_type)}


def test_constant_reports_k_alone():
    assert _fields(ConstantEstimate) == {"iterations", "tolerance", "value"}


@pytest.mark.parametrize("argv,result_type", [
    (("brennan", "--domain", "exterior", "--s", "3", "--levels", "3"), QuadResult),
    (("inverse-brennan", "--domain", "strip", "--alpha=-0.5", "--levels", "3"), QuadResult),
    (("kpq", "--domain", "cardioid", "--p", "2", "--q", "1", "--levels", "3"), QuadResult),
    (("constant", "--r", "2", "--nr", "32", "--ntheta", "32"), ConstantEstimate),
    (("constant", "--r", "3", "--nr", "32", "--ntheta", "32"), ConstantEstimate),
    (("exponents", "--p", "1.8"), ExponentBounds),
], ids=["brennan", "inverse-brennan", "kpq", "constant-r2", "constant-r3", "exponents"])
def test_a_scalar_report_is_its_result_dataclass(capsys, argv, result_type):
    _, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    assert set(doc) == _fields(result_type) | {"config"}
    _, out, _ = run(capsys, *argv, "--output", "csv")
    header, row = [line for line in out.splitlines() if not line.startswith("#")]
    cells = dict(zip(header.split(","), row.split(",")))
    assert set(cells) == _fields(result_type)
    if result_type is QuadResult:
        assert isinstance(doc["level_values"], list) and len(doc["level_values"]) == 3
        assert list(map(float, cells["level_values"].split(" "))) == doc["level_values"]


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
    code, _, err = run(capsys, "verify")
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


def test_lattice_points_a_rounding_off_the_boundary_get_the_boundary_value(capsys):
    # contains accepts y = 1e-40, which phi rounds onto |w| = 1; u there is 0
    code, out, err = run(capsys, "solve", "--domain", "halfplane", "--f", "quartic",
                         "--nr", "16", "--ntheta", "16", "--export", "lattice",
                         "--window=-1,1,0,1e-40", "--lattice-n", "2")
    assert (code, err) == (0, "")
    assert out.split("x,y,u\n", 1)[1] == ("-1,9.9999999999999993e-41,0\n"
                                           "1,9.9999999999999993e-41,0\n")


@pytest.mark.parametrize("domain, window", [
    ("halfplane", "-1e308,-1e307,1e307,1e308"), ("slitplane", "1e307,1e308,1e307,1e308"),
    ("exterior", "1e307,1e308,1e307,1e308")])
def test_lattice_points_in_the_far_field_are_evaluated(capsys, domain, window):
    # (z - i)/(z + i), 1/z and the slit plane's 4z overflowed out here; phi now takes
    # the half plane and slit plane onto |w| = 1, where u is 0, and the exterior to w = 0
    code, out, err = run(capsys, "solve", "--domain", domain, "--f", "quartic",
                         "--nr", "16", "--ntheta", "16", "--export", "lattice",
                         f"--window={window}", "--lattice-n", "2")
    assert (code, err) == (0, "")
    u = [row.rsplit(",", 1)[1] for row in out.split("x,y,u\n", 1)[1].splitlines()]
    if domain == "exterior":
        assert len(u) == 4 and len(set(u)) == 1  # v at the centre ring
    else:
        assert u == ["0"] * 4


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


@pytest.mark.parametrize("window", ["-inf,inf,0,1", "-1e308,1e308,0,1"])
def test_a_window_without_a_finite_size_is_rejected_before_the_lattice(capsys, window):
    argv = ("solve", "--domain", "halfplane", "--f", "quartic", "--nr", "16",
            "--ntheta", "16", "--export", "lattice", f"--window={window}",
            "--lattice-n", "4")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: --window must have a finite width and height\n"


@pytest.mark.parametrize("argv,digest", [
    (("--domain", "strip", "--f", "const:-4"),
     "344465753084e7fc1064e904e55eaa9f9ad7b14d1e5b991097966ac823a5b8d0"),
    (("--domain", "halfplane", "--f", "quartic", "--export", "lattice",
      "--window=-2,2,0.01,4", "--lattice-n", "9"),
     "c80bdaec994a5fde36c4b38753206b425cd93415b9a490fa11085090a09fcb9c"),
])
def test_solve_csv_bytes_are_pinned(capsys, argv, digest):
    # streaming must not move a byte: these digests were taken from the buffered writer,
    # the lattice one again when eval_disc became linear on the ring column (15 of its
    # 81 u cells moved, by at most 1.1e-16: test_pinned_lattice_cells_move_by_rounding_only),
    # and both when the flux solve replaced the Thomas sweeps (listed in CHANGES.md)
    code, out, _ = run(capsys, "solve", *argv, "--nr", "16", "--ntheta", "16")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("argv,rows,digest", [
    # 12288 rows: three whole blocks and a part, with rings of 96 rows split across blocks
    (("--domain", "strip", "--f", "const:-4", "--nr", "128", "--ntheta", "96"), 12288,
     "0009869e3a29065129123fa450314844d43568d279f1898b0d29b40faa4127bd"),
    (("--domain", "disc", "--f", "quartic", "--nr", "32", "--ntheta", "32", "--export",
      "lattice", "--window=-1,1,-1,1", "--lattice-n", "113"), 9841,
     "116d2a56978acc1bd54731e45acfa49ce780d20f78f1ddb75158dcbc450db2ed"),
])
def test_solve_csv_bytes_are_pinned_across_row_blocks(capsys, argv, rows, digest):
    # digests taken from the writer that formatted every cell, and re-taken with the
    # flux solve (listed in CHANGES.md); more than two blocks of rows, where each 16^2
    # table above fits in one
    code, out, _ = run(capsys, "solve", *argv)
    assert code == 0
    assert out.split("x,y,u\n", 1)[1].count("\n") == rows
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("argv,exit_code,digest", [
    # verify's two and the constant ones re-taken when the bump lower bound went: the
    # --bumps echo and lower_bound key left, two transfer checks moved (listed in CHANGES.md)
    (("verify",), 0, "1e06ecdada8fc9646eec66b74617d8cf551333b914fae516a3000d41d511e8fd"),
    # re-taken when h came from the real kernel: 0x1.c5894d10d4987p-5 -> ...86p-5
    (("weight", "--domain", "exterior", "--at", "2,0.5"), 0,
     "c930adaab16ed1c98c7dfb0b164ef54237e63a1c488102833d54591fb4abc0fe"),
    (("brennan", "--domain", "slitplane", "--s", "3.0", "--tol", "0.1"), 0,
     "9d40d56f8f84bdc5acf031cd3f4db2046a48bdd2bb6ac3e5fb9ccea11a640263"),
    (("inverse-brennan", "--domain", "strip", "--alpha", "-1.7", "--tol", "0.01",
      "--levels", "4"), 0, "7c48bc0a65c3aafe404471871ac29fceee04c9e0d5d4a70f3d1d467b1993872d"),
    (("kpq", "--domain", "cardioid", "--p", "2", "--q", "1"), 0,
     "c4b7bde0fba2840ac7751b00c580f00a8919d70907a6e409dc3c3ffec2273bb9"),
    (("exponents", "--p", "1.9", "--alpha0", "-1.752"), 0,
     "865e2d3101360238b9be010cf64a520a29d412caa3462c3d319efc87eb44b900"),
    (("exponents", "--p", "3", "--s", "3"), 0,
     "4270cf308643ca1e8b898614c1cb8db1afc35710fec389c2f3c7da5a0c8f2ec8"),
    (("constant", "--r", "2", "--nr", "64", "--ntheta", "64"), 0,
     "a7e7f483cf44613a2a1faf5b8aa7787bc0f9077d34ca1e1deda8d8e1e912bbe6"),
    (("constant", "--r", "3", "--nr", "64", "--ntheta", "64"), 0,
     "78d48f6d395fd89eabc7be8b282a58f38f8ee417829021b5e5ca721587974b7b"),
    # the default-seed verify report itself
    (("verify", "--output", "json"), 0,
     "b5a902f55f96f83f9df01b8824b9ec11e1a0e9f5e3df4753bba0dac9cf2722d9"),
])
def test_verify_and_scalar_csv_bytes_are_pinned(capsys, argv, exit_code, digest):
    # digests taken when these tables had a per-cell writer of their own; one writer
    # for every table must not move a byte (the 64^2 constant one re-taken with the
    # flux solve, listed in CHANGES.md); an --output in argv overrides csv
    code, out, _ = run(capsys, argv[0], "--output", "csv", *argv[1:])
    assert code == exit_code
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", [
    (("--domain", "cardioid", "--f", "quartic"),
     "6252a57d6569ce3a9532180937f1e20d8dfa84927423d8db3f98a5a16b24419e"),
    (("--domain", "disc", "--f", "const:0"),  # every u is -0.0
     "0bb19df3d00efa1134b55c286549954f771065663a3d571a374de2407417e5ac"),
])
def test_solve_json_bytes_are_pinned(capsys, argv, digest):
    # digests taken when the extremes came from the whole (n_r, n_theta) field; the
    # cardioid one re-taken with the flux solve (listed in CHANGES.md)
    code, out, _ = run(capsys, "solve", *argv, "--nr", "16", "--ntheta", "16",
                       "--output", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_solve_json_builds_no_grid():
    # the extremes of a radial solution are those of its column: 8 KiB at 1024^2,
    # where the broadcast field is 8 MiB
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
    # 65536 rows are about 4 MB of text; only the columns and one row block stay in memory
    tracemalloc.start()
    try:
        code = main(["solve", "--domain", "strip", "--f", "const:-4", "--nr", "256",
                     "--ntheta", "256", "--out", str(tmp_path / "u.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "u.csv").read_text()
    assert code == 0 and text[text.index("x,y,u\n"):].count("\n") == 1 + 256 * 256
    assert peak < 6.5 * 2**20


@pytest.mark.parametrize("output", ["json", "csv"])
@pytest.mark.parametrize("domain,at,refused", [
    # h overflows at the cardioid's cusp
    ("cardioid", "1e-320,0", "inf"),
    # h underflows; 0.0 is h correctly rounded
    ("strip", "0.1,1e308", None),
    ("exterior", "1e308,1e308", None),
    ("exterior", "1e200,0", None),
    ("strip", "0,400", None),
    ("halfplane", "1e200,1", None),
    ("slitplane", "1e300,0", None),
])
def test_weight_in_the_far_field_is_zero_or_refused(capsys, recwarn, tmp_path, output,
                                                    domain, at, refused):
    argv = ("weight", "--domain", domain, "--at", at, "--output", output)
    code, out, err = run(capsys, *argv)
    if refused is None:
        assert (code, err) == (0, "")
        if output == "json":
            assert json.loads(out)["h"] == 0.0
        else:
            assert out.splitlines()[-2:] == ["h", "0"]
    else:
        assert (code, out, err) == (1, "", f"error: h is not finite: {refused}\n")
        target = tmp_path / "h.out"
        target.write_text("kept")
        assert run(capsys, *argv, "--out", str(target))[0] == 1
        assert target.read_text() == "kept"
    assert len(recwarn) == 0

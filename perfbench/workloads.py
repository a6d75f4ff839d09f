"""The benchmark's workloads: confweight CLI commands and their oracles.

Each workload is a fixed sequence of ``confweight`` commands with fixed input
sizes.  The benchmark seed reaches the program only through generated
arguments (the two slit-plane exponents of ``ladder``).  Every command writes
its result with ``--out``, so the harness can hash the bytes and check them
against a closed form kept here, independent of the package under test.

Every command runs at the program's default ``CW_SEED``, the one a user gets
from ``confweight verify``: at the parent commit of this benchmark, 5 of 16
other ``CW_SEED`` values make the ``maps.derivative_fd.slitplane.to_disc``
check of ``verify`` fail (see README.md).
"""
from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# first positive zero of J0, so the disc Poincare constant for r = 2 is 1/j01
J0_FIRST_ZERO = 2.404825557695773
DIVERGENT_EXIT = 1
LADDER_LEVELS = 8
STRIP_N = 1024
LATTICE_N = 512
# absolute tolerances on u, set from the O(h^2) error of the radial stencil
# and of bilinear interpolation at these grid sizes
STRIP_TOL = 1e-5
LATTICE_TOL = 1e-4

_VERIFY_CHECKS = frozenset(json.loads(
    (Path(__file__).with_name("verify_checks.json")).read_text()))

Check = Callable[[bytes], "str | None"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``check`` returns None or why the output is wrong."""

    key: str
    args: tuple[str, ...]
    exit_code: int
    check: Check

    def argv(self, out_dir: Path) -> list[str]:
        return [*self.args, "--out", str(out_dir / self.key)]


def _json(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))


def _check_verify(data: bytes) -> str | None:
    doc = _json(data)
    if doc.get("passed") is not True:
        return f"verify reports failed checks {doc.get('failed')}"
    missing = _VERIFY_CHECKS - {c["name"] for c in doc["checks"]}
    if missing:
        return f"verify lost checks {sorted(missing)}"
    return None


def _check_divergent(data: bytes) -> str | None:
    doc = _json(data)
    if doc["verdict"] != "Divergent" or doc["levels_used"] != LADDER_LEVELS:
        return (f"expected Divergent after {LADDER_LEVELS} levels, got "
                f"{doc['verdict']} after {doc['levels_used']}")
    return None


def _check_within_estimate(exact: float) -> Check:
    def check(data: bytes) -> str | None:
        doc = _json(data)
        gap = abs(doc["value"] - exact)
        if doc["verdict"] != "Converged" or not gap <= doc["error_estimate"]:
            return (f"{doc['verdict']} value {doc['value']!r} is {gap!r} from "
                    f"{exact!r}, beyond its error estimate {doc['error_estimate']!r}")
        return None
    return check


def _check_disc_constant(data: bytes) -> str | None:
    value = _json(data)["value"]
    rel = abs(value * J0_FIRST_ZERO - 1.0)
    if not rel <= 0.01:
        return f"constant {value!r} is {rel:.3g} from 1/j01"
    return None


def _check_quartic_range(data: bytes) -> str | None:
    doc = _json(data)
    if not 0.0 <= doc["u_min"] <= doc["u_max"] <= 1.0:
        return f"quartic solution range [{doc['u_min']!r}, {doc['u_max']!r}] leaves [0, 1]"
    return None


def _csv_rows(data: bytes) -> np.ndarray:
    """The x,y,u table below the ``#`` config lines and the header."""
    header = data.find(b"\nx,y,u\n")
    if header < 0:
        raise ValueError("no x,y,u header")
    body = data[header + len(b"\nx,y,u\n"):].decode("ascii").splitlines()
    return np.loadtxt(body, delimiter=",", ndmin=2)


def _check_table(rows: int, exact: Callable, tol: float) -> Check:
    def check(data: bytes) -> str | None:
        table = _csv_rows(data)
        if table.shape != (rows, 3):
            return f"expected {rows} rows of x,y,u, got shape {table.shape}"
        z = table[:, 0] + 1j * table[:, 1]
        err = float(np.max(np.abs(table[:, 2] - exact(z))))
        if not err <= tol:
            return f"u is {err!r} from the closed form (tolerance {tol})"
        return None
    return check


def _strip_exact(z: np.ndarray) -> np.ndarray:
    # -lap u = 4 h on the strip: u = 1 - |phi|^2 with phi = tan
    return 1.0 - np.abs(np.tan(z)) ** 2


def _halfplane_quartic_exact(z: np.ndarray) -> np.ndarray:
    return (1.0 - np.abs((z - 1j) / (z + 1j)) ** 2) ** 2


def _verify(rng: random.Random) -> list[Command]:
    return [Command("verify.json", ("verify",), 0, _check_verify)]


def _ladder(rng: random.Random) -> list[Command]:
    # both slit-plane exponents lie outside (4/3, 4), so the integral diverges
    s_high = rng.uniform(4.1, 4.4)
    s_low = rng.uniform(1.1, 1.3)
    return [
        Command("slit_high.json", ("brennan", "--domain", "slitplane", "--s", repr(s_high)),
                DIVERGENT_EXIT, _check_divergent),
        Command("slit_low.json", ("brennan", "--domain", "slitplane", "--s", repr(s_low)),
                DIVERGENT_EXIT, _check_divergent),
        # integral of |z|^-6 over |z| > 1
        Command("exterior.json", ("brennan", "--domain", "exterior", "--s", "3"),
                0, _check_within_estimate(math.pi / 2.0)),
        # K_{2,1} is the square root of the cardioid's area 3 pi / 8
        Command("kpq.json", ("kpq", "--domain", "cardioid", "--p", "2", "--q", "1"),
                0, _check_within_estimate(math.sqrt(3.0 * math.pi / 8.0))),
    ]


def _spectral(rng: random.Random) -> list[Command]:
    return [
        Command("constant.json", ("constant", "--r", "2", "--nr", "1024", "--ntheta", "1024"),
                0, _check_disc_constant),
        Command("quartic.json", ("solve", "--domain", "cardioid", "--f", "quartic",
                                 "--nr", "2048", "--ntheta", "2048", "--output", "json"),
                0, _check_quartic_range),
    ]


def _export(rng: random.Random) -> list[Command]:
    n, m = str(STRIP_N), str(LATTICE_N)
    return [
        Command("strip.csv", ("solve", "--domain", "strip", "--f", "const:-4",
                              "--nr", n, "--ntheta", n),
                0, _check_table(STRIP_N * STRIP_N, _strip_exact, STRIP_TOL)),
        # every lattice point has y >= 0.01, so all of them are rows
        Command("lattice.csv", ("solve", "--domain", "halfplane", "--f", "quartic",
                                "--nr", m, "--ntheta", m, "--export", "lattice",
                                "--window=-2,2,0.01,4", "--lattice-n", m),
                0, _check_table(LATTICE_N * LATTICE_N, _halfplane_quartic_exact,
                                LATTICE_TOL)),
    ]


WORKLOADS = {
    "verify": _verify,
    "ladder": _ladder,
    "spectral": _spectral,
    "export": _export,
}


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's commands; the same seed always gives the same arguments."""
    return WORKLOADS[workload](random.Random(seed))


def main(argv: list[str]) -> int:
    """``python perfbench/workloads.py WORKLOAD SEED KEY PATH``

    Prints, as JSON, the oracle's verdict on one command's output: ``""``
    when it is right, else why it is not.
    """
    workload, seed, key, path = argv
    cmd = next(c for c in commands(workload, int(seed)) if c.key == key)
    print(json.dumps(cmd.check(Path(path).read_bytes()) or ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

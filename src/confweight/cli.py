"""Command-line front end.

One subcommand per module entry point, each declared once: its subparser
carries its handler (``set_defaults(run=...)``), which ``main`` calls.

    weight           evaluate the conformal weight h at a point
    brennan          refinement study of the integral of |psi'|^(2-s)
    inverse-brennan  same study parameterized by alpha = 2 - s
    kpq              dilatation integral K_{p,q} for composition bounds
    exponents        admissible exponent arithmetic (bounds or q from (p,s))
    constant         sharp Poincare constant K(r) of the unit disc
    solve            Dirichlet problem -Delta u = f h via disc transfer
    verify           full cross-module invariant suite

Output is one JSON object (floats as shortest round-trip decimals, keys
sorted) or a CSV table from ``util.write_csv``, the one CSV writer (float
cells with 17 significant digits, other cells as ``str``, config echoed on
`#` lines).  Every run echoes its fully resolved configuration, and a
scalar report's other keys are its result dataclass's fields (``asdict``).
A non-finite number is refused in both formats.  Exit codes: 0 for success
/ Converged, 1 for Divergent, Inconclusive or infeasible inputs, 2 for
usage errors.  Complex values are written as "re,im".
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .errors import ConfweightError, GridTooLarge
from .exponents import (DEFAULT_ALPHA0, exponent_bounds, poincare_constant_disc,
                        q_from_ps)
from .fields import PolarGrid
from .maps import ConformalMap, DomainFamily
from .poisson import DiscSolution, RhsSpec, solve_dirichlet
from .quadrature import NODE_BUDGET, Verdict, brennan_direct, inverse_brennan, kpq_norm
from .util import fmt_g, open_target, write_csv
from .verify import run_verify

_FAMILY_NAMES = tuple(f.value for f in DomainFamily)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex value {text!r}: {exc}") from None


def _parse_window(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected 'xmin,xmax,ymin,ymax', got {text!r}")
    xmin, xmax, ymin, ymax = (float(p) for p in parts)
    if not (xmin < xmax and ymin < ymax):
        raise argparse.ArgumentTypeError("window must satisfy xmin < xmax and ymin < ymax")
    return xmin, xmax, ymin, ymax


def _parse_rhs(text: str) -> RhsSpec:
    try:
        return RhsSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="confweight",
                                     description="conformal weight toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, domain=True):
        p.set_defaults(run=run)
        if domain:
            p.add_argument("--domain", required=True, choices=_FAMILY_NAMES)
        p.add_argument("--output", choices=("json", "csv"), default=None)
        p.add_argument("--out", dest="out_path", default=None, metavar="PATH")

    p = sub.add_parser("weight", help="evaluate h(z) = |phi'(z)|^2")
    common(p, _cmd_weight)
    p.add_argument("--at", required=True, type=_parse_complex, metavar="RE,IM",
                   help="a value that starts with '-' needs '=': --at=-0.1,0.2")

    for name, xflag in (("brennan", "--s"), ("inverse-brennan", "--alpha")):
        p = sub.add_parser(name, help="refinement study of a weight-power integral")
        common(p, _cmd_ladder)
        p.add_argument(xflag, dest="exponent", required=True, type=float)
        p.add_argument("--levels", type=int, default=8)
        p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("kpq", help="dilatation integral K_{p,q}")
    common(p, _cmd_ladder)
    p.add_argument("--p", required=True, type=float)
    p.add_argument("--q", required=True, type=float)
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("exponents", help="admissible exponent arithmetic")
    common(p, _cmd_exponents, domain=False)
    p.add_argument("--p", required=True, type=float)
    p.add_argument("--s", type=float, default=None,
                   help="report q(p,s); omit to report bounds from --alpha0")
    p.add_argument("--alpha0", type=float, default=DEFAULT_ALPHA0)

    p = sub.add_parser("constant", help="Poincare constant of the unit disc")
    common(p, _cmd_constant, domain=False)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--nr", type=int, default=128)
    p.add_argument("--ntheta", type=int, default=128)

    p = sub.add_parser("solve", help="Dirichlet solve by conformal transfer")
    common(p, _cmd_solve)
    p.add_argument("--f", dest="rhs", required=True, type=_parse_rhs,
                   metavar="const:C|quartic")
    p.add_argument("--nr", type=int, default=128)
    p.add_argument("--ntheta", type=int, default=128)
    p.add_argument("--export", choices=("pushforward", "lattice"),
                   default="pushforward")
    p.add_argument("--window", type=_parse_window, default=(-1.0, 1.0, -1.0, 1.0),
                   metavar="XMIN,XMAX,YMIN,YMAX",
                   help="lattice bounding box; a negative XMIN needs '=': --window=-2,2,0.01,4")
    p.add_argument("--lattice-n", type=int, default=64,
                   help="lattice points per axis")

    p = sub.add_parser("verify", help="run the full invariant suite")
    common(p, _cmd_verify, domain=False)
    return parser


def _emit_json(config: dict, payload: dict, out_path) -> None:
    doc = dict(payload)
    doc["config"] = config
    text = json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"
    with open_target(out_path) as fh:
        fh.write(text)


def _csv_preamble(config: dict) -> str:
    """The `# key=value` lines that echo the configuration above a CSV header."""
    return "".join(f"# {key}={config[key]}\n" for key in sorted(config))


def _config_echo(args) -> dict:
    cfg = {}
    for key, val in sorted(vars(args).items()):
        if key in ("output", "out_path", "run") or val is None:
            continue
        if isinstance(val, complex):
            val = f"{fmt_g(val.real)},{fmt_g(val.imag)}"
        elif isinstance(val, RhsSpec):
            val = val.label
        elif isinstance(val, tuple):
            val = ",".join(fmt_g(v) for v in val)
        cfg[key] = val
    return cfg


def _check_budget(flags: str, nodes: int) -> None:
    # called before the grid or lattice is allocated
    if nodes > NODE_BUDGET:
        raise GridTooLarge(f"{flags} asks for {nodes} nodes, over the node budget of "
                           f"{NODE_BUDGET} (4096x4096)")


def _scalar_output(args, config: dict, payload: dict) -> None:
    # checked before --out opens, so neither format writes a partial report
    for key, val in payload.items():
        for v in val if isinstance(val, list) else [val]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{key} is not finite: {v}")
    if (args.output or "json") == "json":
        _emit_json(config, payload, args.out_path)
    else:
        keys = sorted(payload)
        cells = [" ".join(map(str, v)) if isinstance(v, list) else v
                 for v in (payload[k] for k in keys)]
        write_csv(args.out_path, keys, [[c] for c in cells], _csv_preamble(config))


def _cmd_weight(args) -> int:
    # at extreme points h underflows to 0 (correctly rounded) or overflows,
    # which _scalar_output refuses; neither is worth a RuntimeWarning
    with np.errstate(over="ignore"):
        h = ConformalMap.to_disc(DomainFamily(args.domain)).jacobian(args.at)
    _scalar_output(args, _config_echo(args), {"h": h})
    return 0


def _cmd_ladder(args) -> int:
    """brennan, inverse-brennan and kpq: one refinement ladder, exit 0 if it converges."""
    mapping = ConformalMap.to_disc(DomainFamily(args.domain))
    if args.command == "kpq":
        res = kpq_norm(mapping, args.p, args.q, tol=args.tol, max_levels=args.levels)
    elif args.command == "brennan":
        res = brennan_direct(mapping, args.exponent, tol=args.tol, max_levels=args.levels)
    else:
        res = inverse_brennan(mapping, args.exponent, tol=args.tol, max_levels=args.levels)
    # a list, so _scalar_output checks each level and the CSV joins them in one cell
    _scalar_output(args, _config_echo(args), asdict(res) | {
        "verdict": res.verdict.value, "level_values": list(res.level_values)})
    return 0 if res.verdict is Verdict.CONVERGED else 1


def _cmd_exponents(args) -> int:
    if args.s is not None:
        payload = {"q": q_from_ps(args.p, args.s)}
    else:
        payload = asdict(exponent_bounds(args.p, args.alpha0))
    _scalar_output(args, _config_echo(args), payload)
    return 0


def _cmd_constant(args) -> int:
    grid = PolarGrid(args.nr, args.ntheta)
    _check_budget("--nr x --ntheta", grid.n_r * grid.n_theta)
    _scalar_output(args, _config_echo(args), asdict(poincare_constant_disc(args.r, grid)))
    return 0


def _cmd_solve(args) -> int:
    grid = PolarGrid(args.nr, args.ntheta)
    _check_budget("--nr x --ntheta", grid.n_r * grid.n_theta)
    if args.export == "lattice":
        if args.lattice_n < 1:
            raise ValueError(f"--lattice-n must be at least 1, got {args.lattice_n}")
        _check_budget("--lattice-n squared", args.lattice_n ** 2)
        xmin, xmax, ymin, ymax = args.window
        if not (math.isfinite(xmax - xmin) and math.isfinite(ymax - ymin)):
            raise ValueError("--window must have a finite width and height")
    config = _config_echo(args)
    column = solve_dirichlet(args.rhs, grid)
    if args.output == "json":
        _scalar_output(args, config, {"u_min": float(column.min()), "u_max": float(column.max()),
                                      "n_r": args.nr, "n_theta": args.ntheta})
        return 0
    lattice = None
    if args.export == "lattice":
        xs = np.linspace(xmin, xmax, args.lattice_n)
        ys = np.linspace(ymin, ymax, args.lattice_n)
        lattice = (xs[None, :] + 1j * ys[:, None]).ravel()
    # to_csv computes every column before it opens --out, so a failed
    # export leaves the file (or stdout) as it was
    solution = DiscSolution(grid, column, ConformalMap.to_disc(DomainFamily(args.domain)))
    solution.to_csv(args.out_path, lattice=lattice, preamble=_csv_preamble(config))
    return 0


def _cmd_verify(args) -> int:
    report = run_verify()
    if (args.output or "json") == "json":
        _emit_json(_config_echo(args), report, args.out_path)
    else:
        rows = [(c["name"], "pass" if c["passed"] else "FAIL") for c in report["checks"]]
        rows += [(f"mismatch.{m['family']}", "pass" if m["mismatch"] else "FAIL")
                 for m in report["mismatch_reports"]]
        write_csv(args.out_path, ["check", "status"], list(zip(*rows)),
                  _csv_preamble(_config_echo(args)))
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        if "tol" in vars(args) and not 0.0 < args.tol < math.inf:
            raise ValueError(f"--tol must be finite and > 0, got {args.tol!r}")
        return args.run(args)
    except BrokenPipeError:
        return 0
    except (ConfweightError, ValueError, OSError) as exc:
        # ValueError covers grid/seed/--tol validation and non-finite results,
        # OSError a bad --out path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: `poly` prints exact polynomial coefficients, `spectrum`
tabulates bound-state energies, `figure` writes reproducible curve data
files, and `verify` runs the verification suites.  All outputs are
deterministic: identical inputs give byte-identical files (floats are
rendered with repr, the shortest round-trip form).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__, checks
from .eckart import EckartParams, eckart_potential, eckart_spectrum
from .numerics import interior_grid
from .susy import superpotential_from_gst
from .trm import TrmParams, trm_polynomial, trm_potential, trm_solution, trm_spectrum, trm_wavefunction

FIGURES = ("I", "II", "III", "IV")


def rational(text: str) -> Fraction:
    """Parse 'p/q', decimal, or integer strings exactly."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational number, got {text!r}")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a positive finite number")
    return value


def fmt(value) -> str:
    """Exact fractions as p/q; floats in shortest round-trip form."""
    if isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _out_path(args, default_name: str) -> str:
    if args.output:
        return args.output
    return os.path.join(os.environ.get("ROSENMORSE_OUT_DIR", "."), default_name)


def _write_table(path, meta, columns, rows, fmt_kind):
    if fmt_kind == "json":
        payload = {
            "meta": {k: fmt(v) for k, v in meta.items()},
            "columns": list(columns),
            "rows": [[fmt(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# {k}={fmt(v)}" for k, v in meta.items()]
        lines.append(",".join(columns))
        lines.extend(",".join(fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as handle:
            handle.write(text)
        print(f"wrote {path}")


def _meta(command, **extra):
    base = {"tool": f"rosenmorse {__version__}", "command": command}
    base.update(extra)
    return base


def cmd_poly(args) -> int:
    poly = trm_polynomial(TrmParams(args.a, args.b), args.n)
    rows = [(k, poly.coeff(k)) for k in range(poly.degree + 1)]
    if args.format == "text":
        print(f"C_{args.n}(x) at a={args.a}, b={args.b} (unnormalized):")
        for k, c in rows:
            print(f"  x^{k}: {fmt(c)}")
        return 0
    meta = _meta("poly", a=args.a, b=args.b, n=args.n)
    path = _out_path(args, f"poly_n{args.n}.{args.format}")
    _write_table(path, meta, ("power", "coefficient"), rows, args.format)
    return 0


def cmd_spectrum(args) -> int:
    if args.system == "trm":
        levels = trm_spectrum(TrmParams(args.a, args.b), args.n_max)
    else:
        levels = eckart_spectrum(EckartParams(args.a, args.b))
    rows = [(l.n, l.epsilon, float(l.epsilon)) for l in levels]
    if args.format == "text":
        print(f"{args.system} spectrum at a={args.a}, b={args.b}:")
        for n, eps, eps_f in rows:
            print(f"  n={n}: epsilon = {fmt(eps)} = {fmt(eps_f)}")
        return 0
    meta = _meta("spectrum", system=args.system, a=args.a, b=args.b)
    path = _out_path(args, f"spectrum_{args.system}.{args.format}")
    _write_table(path, meta, ("n", "epsilon", "epsilon_float"), rows, args.format)
    return 0


def _figure_paths(args, which):
    """Curve and level-line paths; '-' sends both tables to stdout, curve first."""
    base = _out_path(args, f"figure_{which.lower()}.{args.format}")
    if base == "-":
        return base, base
    stem, ext = os.path.splitext(base)
    return base, f"{stem}_levels{ext}"


def cmd_figure(args) -> int:
    which = args.which.upper()
    fmt_kind = args.format
    z = interior_grid(args.grid_n, (0.0, args.zmax if which == "I" else math.pi))
    if which in ("I", "II"):
        if which == "I":
            params, potential, last = EckartParams(args.a, args.b), eckart_potential, {"zmax": args.zmax}
        else:
            params, potential, last = TrmParams(args.a, args.b), trm_potential, {"n_levels": args.n_levels}
        rows = list(zip(z, potential(params, z)))
        curve_path, levels_path = _figure_paths(args, which)
        meta = _meta("figure", figure=which, a=args.a, b=args.b, grid_n=args.grid_n, **last)
        _write_table(curve_path, meta, ("z", "v"), rows, fmt_kind)
        levels = eckart_spectrum(params) if which == "I" else trm_spectrum(params, args.n_levels)
        level_rows = [(l.n, float(l.epsilon)) for l in levels]
        _write_table(levels_path, meta, ("n", "epsilon"), level_rows, fmt_kind)
        return 0
    if which == "III":
        params = TrmParams(args.a, args.b)
        s1 = trm_solution(params, 1, normalize=False)
        s2 = trm_solution(params, 2, normalize=False)
        rows = list(zip(z, trm_wavefunction(s1, z), trm_wavefunction(s2, z)))
        path, _ = _figure_paths(args, which)
        meta = _meta("figure", figure="III", a=args.a, b=args.b, grid_n=args.grid_n)
        _write_table(path, meta, ("z", "r1", "r2"), rows, fmt_kind)
        return 0
    # figure IV: superpotential curve in the cotangent-positive orientation,
    # i.e. the ground-state log-derivative (a+1) cot z - b/(a+1), which is the
    # mirror image of superpotential_from_gst
    params = TrmParams(args.a, args.b)
    u = superpotential_from_gst(params)
    rows = list(zip(z, -u(z)))
    path, _ = _figure_paths(args, which)
    meta = _meta("figure", figure="IV", a=args.a, b=args.b, grid_n=args.grid_n)
    _write_table(path, meta, ("z", "u"), rows, fmt_kind)
    return 0


# verify option -> (parser type, help); a suite takes the options named by its parameters
VERIFY_OPTIONS = {
    "a": (rational, "potential parameter a"),
    "b": (rational, "potential parameter b"),
    "grid": (positive_int, "FDM grid: the coarse and fine runs use grid//2 and 2(grid//2)+1 points"),
}


def _suite_options(suite):
    return inspect.signature(suite).parameters


def cmd_verify(args) -> int:
    """Run one suite with the options given; its signature holds the defaults of the rest."""
    suite = checks.SUITES[args.suite]
    given = {opt: getattr(args, opt) for opt in VERIFY_OPTIONS if getattr(args, opt) is not None}
    takes = _suite_options(suite)
    for opt in given:
        if opt not in takes:
            raise ValueError(f"verify {args.suite} takes no --{opt}")
    results = suite(**given)
    ok = True
    for r in results:
        ok = ok and r.passed
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    print(f"verify {args.suite}: {'all checks passed' if ok else 'FAILURES present'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosenmorse",
        description="Exact trigonometric Rosen-Morse bound states with numerical verification.",
    )
    parser.add_argument("--version", action="version", version=f"rosenmorse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="exact polynomial coefficients of level n")
    p.add_argument("--a", type=rational, required=True)
    p.add_argument("--b", type=rational, required=True)
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("-o", "--output", default=None, help="output path ('-' for stdout)")
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("spectrum", help="bound-state energy table")
    p.add_argument("--system", choices=("trm", "eckart"), default="trm")
    p.add_argument("--a", type=rational, required=True)
    p.add_argument("--b", type=rational, required=True)
    p.add_argument("--n-max", type=positive_int, default=8, help="levels for the trm system")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("figure", help="emit figure data files (curves and level lines)")
    p.add_argument("which", choices=FIGURES + tuple(f.lower() for f in FIGURES))
    p.add_argument("--a", type=rational, required=True)
    p.add_argument("--b", type=rational, required=True)
    p.add_argument("--grid-n", type=positive_int, default=800)
    p.add_argument("--n-levels", type=positive_int, default=5)
    p.add_argument("--zmax", type=positive_float, default=6.0, help="right edge for the half-line system")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(checks.SUITES))
    for opt, (kind, text) in VERIFY_OPTIONS.items():
        takers = [name for name, suite in sorted(checks.SUITES.items()) if opt in _suite_options(suite)]
        p.add_argument(f"--{opt}", type=kind, help=f"{text}; only for {', '.join(takers)}")
    p.set_defaults(func=cmd_verify)

    return parser


def _join_negative_rationals(argv):
    """Rewrite '--a -1/2' as '--a=-1/2', and so for --b: argparse reads '-1/2' as an option."""
    out = []
    for token in argv:
        if out and out[-1] in ("--a", "--b") and re.match(r"-\.?\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_rationals(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())

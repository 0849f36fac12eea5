"""Command-line entry point.

Subcommands: run, list-operators, validate-atom, psi, version.
Exit codes: 0 success, 2 config/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .atoms import AtomSpec, make_atom, validate_atom
from .config import ExperimentConfig, parse_alpha_list, parse_number
from .errors import ConfigError, NumericalError
from .experiments import run_experiment
from .grid import Ball, GridSpec
from .moments import HardyIndex, psi
from .operators import builtin_operators


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hardylab",
        description="Desk-scale experiments on local Hardy spaces: atoms, "
                    "maximal functions, moment decay, operator cancellation.")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment described by a config file")
    run.add_argument("config", help="config file (key = value with [sections])")
    run.add_argument("--out-dir", help="output directory (overrides the config's out_dir)")
    run.add_argument("--quiet", action="store_true", help="suppress progress output")

    sub.add_parser("list-operators", help="print the builtin operator catalog")

    va = sub.add_parser("validate-atom", help="generate an atom and validate it")
    va.add_argument("--p", required=True, help="integrability index in (0, 1]")
    va.add_argument("--s", default="2", help="size exponent (>= 1 or inf)")
    va.add_argument("--r", default="0.25", help="ball radius")
    va.add_argument("--space", default="local", choices=("local", "global"))
    va.add_argument("--seed", type=int, default=0)
    va.add_argument("--dim", type=int, default=1, choices=(1, 2))
    va.add_argument("--grid-m", type=int, default=2048, help="points per axis of the atom's grid")
    va.add_argument("--L", default="4", help="half-width of the atom's grid")
    va.add_argument("--tol", default="1e-8")

    ps = sub.add_parser("psi", help="evaluate the moment decay modulus")
    ps.add_argument("p")
    ps.add_argument("alpha", help="multi-index: '0' or '(1,0)'")
    ps.add_argument("t")

    sub.add_parser("version", help="print the package version")
    return ap


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(args.config, out_dir=args.out_dir, quiet=args.quiet)
    run_experiment(cfg)
    return 0


def _cmd_list_operators(args) -> int:
    for name, entry in builtin_operators().items():
        claims = " ".join(f"{k}={v!r}" for k, v in entry.claimed)
        defaults = " ".join(f"{k}={v!r}" for k, v in entry.defaults)
        flags = " [pathological]" if entry.pathological else ""
        print(f"{name:18s} {entry.kind:10s} {entry.description}{flags}")
        if defaults:
            print(f"{'':18s} defaults: {defaults}")
        if claims:
            print(f"{'':18s} claimed:  {claims}")
    return 0


def _cmd_validate_atom(args) -> int:
    idx = HardyIndex(parse_number(args.p), args.dim)
    s = parse_number(args.s)
    ball = Ball((0.0,) * args.dim, parse_number(args.r))
    spec_a = AtomSpec(idx, s, ball, args.space)
    a = make_atom(spec_a, args.seed, GridSpec(args.dim, parse_number(args.L), args.grid_m))
    report = validate_atom(a, spec_a, parse_number(args.tol))
    sys.stdout.write(report.to_text())
    return 0 if report.passed else 3


def _cmd_psi(args) -> int:
    alphas = parse_alpha_list(args.alpha)
    if len(alphas) != 1:
        raise ConfigError("psi expects exactly one multi-index")
    alpha = alphas[0]
    idx = HardyIndex(parse_number(args.p), len(alpha))
    try:
        value = psi(idx, alpha, parse_number(args.t))
    except ValueError as e:
        raise ConfigError(str(e)) from None
    print(f"{value:.9g}")
    return 0


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-operators":
            return _cmd_list_operators(args)
        if args.command == "validate-atom":
            return _cmd_validate_atom(args)
        if args.command == "psi":
            return _cmd_psi(args)
        if args.command == "version":
            print(__version__)
            return 0
    except (ValueError, OSError) as e:  # ConfigError is a ValueError
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

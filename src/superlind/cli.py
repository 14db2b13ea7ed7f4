"""Command line interface.

Subcommands:
  sweep <config>     transition-probability sweep, CSV output
  fig1 <config>      Bloch paths of the basis choices and the true evolution
  spectrum           tabulate an ohmic rate function

`--set section.key=value` overrides any config entry. Exit codes: 0 ok,
2 usage, 3 config validation, 4 parameter domain, 5 degeneracy, 6 grid,
7 integration/state integrity, 1 anything else.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from ._output import fmt, write_table
from .config import apply_overrides, fig1_job, read_config, sweep_job
from .errors import SuperlindError
from .experiments import run_fig1, run_sweep_curves, write_sweep_csv
from .model import ohmic_spectrum


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superlind",
        description="Secular Lindblad dynamics for slowly driven quantum systems.",
    )
    parser.add_argument("--version", action="version", version=f"superlind {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a transition-probability sweep")
    sweep.add_argument("config", help="sweep config file")
    sweep.add_argument("--output", help="override output.path")
    sweep.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config entry (repeatable)",
    )

    fig1 = sub.add_parser("fig1", help="emit the three Bloch-path CSV files")
    fig1.add_argument("config", help="fig1 config file")
    fig1.add_argument("--set", dest="overrides", action="append", default=[],
                      metavar="SECTION.KEY=VALUE")

    spectrum = sub.add_parser("spectrum", help="tabulate an ohmic rate function")
    spectrum.add_argument("--gamma0", type=float, required=True)
    spectrum.add_argument("--wc", type=float, default=5.0, help="cutoff frequency")
    spectrum.add_argument("--T", type=float, default=0.0, help="temperature")
    spectrum.add_argument("--wmin", type=float, default=-5.0)
    spectrum.add_argument("--wmax", type=float, default=5.0)
    spectrum.add_argument("--n", type=int, default=201)
    spectrum.add_argument("--symmetric-cutoff", action="store_true")
    spectrum.add_argument("--output", help="write CSV here instead of stdout")
    return parser


def _check_output_dir(path) -> None:
    """Raise FileNotFoundError, before any solve, if ``path``'s directory is missing."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"output directory {folder!r} does not exist")


def _cmd_sweep(args) -> int:
    data = apply_overrides(read_config(args.config), args.overrides)
    job = sweep_job(data)
    output = args.output or job.output
    _check_output_dir(output)
    records = run_sweep_curves(job.base, job.gamma_values)
    write_sweep_csv(output, records, job.base)
    print(f"wrote {len(records)} records to {output}")
    return 0


def _cmd_fig1(args) -> int:
    data = apply_overrides(read_config(args.config), args.overrides)
    job = fig1_job(data)
    _check_output_dir(job.prefix)
    result = run_fig1(
        job.delta, job.v, job.order, window_factor=job.window_factor,
        out_prefix=job.prefix,
    )
    print("wrote " + ", ".join(result.paths))
    return 0


def _cmd_spectrum(args) -> int:
    spec = ohmic_spectrum(
        args.gamma0, args.wc, args.T, symmetric_cutoff=args.symmetric_cutoff
    )
    omegas = np.linspace(args.wmin, args.wmax, args.n)
    rates = spec.gamma(omegas)
    comments = [
        "superlind ohmic spectrum",
        f"gamma0 = {fmt(args.gamma0)}",
        f"cutoff = {fmt(args.wc)}",
        f"temperature = {fmt(args.T)}",
        f"symmetric_cutoff = {fmt(args.symmetric_cutoff)}",
    ]
    rows = zip(omegas, np.atleast_1d(rates))
    write_table(args.output or None, comments, ["omega", "gamma"], rows)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "spectrum":
        if args.n < 1:
            parser.error(f"spectrum: --n must be >= 1, got {args.n}")
        if not -math.inf < args.wmin <= args.wmax < math.inf:  # NaN fails too
            parser.error(f"spectrum: need finite --wmin <= --wmax, got {args.wmin}, {args.wmax}")
    handlers = {
        "sweep": _cmd_sweep,
        "fig1": _cmd_fig1,
        "spectrum": _cmd_spectrum,
    }
    try:
        return handlers[args.command](args)
    except SuperlindError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

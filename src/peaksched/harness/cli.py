"""Command-line interface.

Subcommands:

* ``run``     one algorithm on one trace, printed cost breakdown
* ``compare`` the full algorithm table on one trace (CSV + stdout)
* ``sweep``   one experiment axis: lambda, peak, ramp, or capacity
* ``synth``   write synthetic price/demand CSVs
* ``verify``  the theorem verification suite (non-zero exit on failure)

Configuration comes from an optional flat ``key = value`` file given with
``--config``; command-line flags override file values.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from datetime import datetime, timedelta

from ..errors import PeakSchedError, ValidationError
from .experiment import (
    ExperimentConfig,
    SWEEP_AXES,
    config_from_sources,
    make_out_dir,
    parse_config_text,
    parse_text,
    run_experiment,
    run_sweep,
    sweep_errors,
    synth_config_trace,
)
from .traces import read_text, write_text, write_trace_csv
from .verify import (
    default_beta_grid,
    default_lambda_grid,
    default_sigma_grid,
    verify_theorems,
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One text flag per ``ExperimentConfig`` field; the config converters parse them."""
    parser.add_argument("--config", help="flat key = value configuration file")
    for f in fields(ExperimentConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), help=f.metadata.get("help"))


def _config_from_args(args: argparse.Namespace, **extra) -> ExperimentConfig:
    file_values = {}
    if args.config:
        file_values = parse_config_text(read_text(args.config))
    overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    overrides.update(extra)
    return config_from_sources(file_values, overrides)


def _report_errors(errors: dict[str, str]) -> bool:
    """Print per-cell errors on stderr; True when there were any."""
    for key, message in errors.items():
        print(f"error [{key}]: {message}", file=sys.stderr)
    return bool(errors)


def _cmd_run(args: argparse.Namespace) -> int:
    # a singular flag stands for its plural one; left unset, it leaves the
    # plural flag or the file value alone
    extra = {}
    for plural, flag, value in (
        ("algorithms", "--algorithm", args.algorithm),
        ("lambdas", "--lambda", args.lam),
        ("predictors", "--predictor", args.predictor),
    ):
        if value is None:
            continue
        if getattr(args, plural) is not None:
            raise ValidationError(f"{flag} and --{plural} both given; pass one of them")
        extra[plural] = (value,)
    config = _config_from_args(args, **extra)
    result = run_experiment(config, write=args.out_dir is not None)
    if _report_errors(result.manifest["errors"]):
        return 1
    for row in result.rows:
        print(
            f"{row['algorithm']} lambda={row['lambda']} predictor={row['predictor']}: "
            f"total={row['total_cost']:.6f} opt={row['opt_cost']:.6f} "
            f"ratio={row['empirical_cr']:.6f} saving={row['cost_reduction']:.4%}"
        )
    if result.report_path:
        print(f"report: {result.report_path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run_experiment(config, write=True)
    header = f"{'algorithm':<18}{'lambda':>8}{'predictor':>12}{'ratio':>10}{'saving':>10}"
    print(header)
    for row in result.rows:
        lam = "" if row["lambda"] is None else f"{row['lambda']:.2f}"
        print(
            f"{row['algorithm']:<18}{lam:>8}{row['predictor']:>12}"
            f"{row['empirical_cr']:>10.4f}{row['cost_reduction']:>10.4f}"
        )
    failed = _report_errors(result.manifest["errors"])
    print(f"report: {result.report_path}")
    return 1 if failed else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    values = None if args.values is None else parse_text(args.values, float, "--values", many=True)
    result = run_sweep(config, axis=args.axis, values=values, write=True)
    failed = _report_errors(sweep_errors(result.manifest))
    print(f"{len(result.rows)} rows -> {result.report_path}")
    return 1 if failed else 0


def _check_start(start: str, slots: int) -> None:
    """``synth --start`` must parse and stamp ``slots`` hours within year 9999."""
    try:
        datetime.fromisoformat(start) + timedelta(hours=slots - 1)
    except ValueError as exc:
        raise ValidationError(f"--start: bad timestamp {start!r}: {exc}") from None
    except OverflowError:
        raise ValidationError(f"--start: {slots} hourly stamps from {start!r} run past year 9999") from None


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    trace = synth_config_trace(config)
    _check_start(args.start, len(trace))
    out_dir = make_out_dir(config.out_dir)
    price_file = out_dir / "prices.csv"
    demand_file = out_dir / "demands.csv"
    write_trace_csv(trace, price_file, demand_file, start=args.start)
    print(f"{len(trace)} slots -> {price_file}, {demand_file}")
    return 0


def _subsample(grid: tuple[float, ...], resolution: int) -> tuple[float, ...]:
    if resolution >= len(grid):
        return grid
    idx = [round(i * (len(grid) - 1) / (resolution - 1)) for i in range(resolution)]
    return tuple(grid[i] for i in idx)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.grid_resolution < 5:
        print("error: --grid-resolution must be at least 5", file=sys.stderr)
        return 2
    if args.full:
        lambdas, betas, sigmas = None, None, None
    else:
        n = args.grid_resolution
        lambdas = _subsample(default_lambda_grid(), n)
        betas = _subsample(default_beta_grid(), n)
        sigmas = _subsample(default_sigma_grid(), max(n, 10))
    report = verify_theorems(
        lambdas=lambdas, betas=betas, sigmas=sigmas, empirical_slots=args.slots
    )
    print(report.format())
    if args.out_dir:
        out_dir = make_out_dir(args.out_dir)
        write_text(out_dir / "verification.txt", report.format() + "\n")
    return 0 if report.passed else 1


def _run_flags(parser: argparse.ArgumentParser) -> None:
    _add_config_flags(parser)
    parser.add_argument("--algorithm", required=True)
    parser.add_argument("--lambda", dest="lam", type=float)
    parser.add_argument("--predictor")


def _sweep_flags(parser: argparse.ArgumentParser) -> None:
    _add_config_flags(parser)
    parser.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES))
    parser.add_argument("--values", help="comma-separated axis values")


def _synth_flags(parser: argparse.ArgumentParser) -> None:
    _add_config_flags(parser)
    parser.add_argument("--start", default="2018-04-01T00:00", help="first hourly timestamp")


def _verify_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-resolution", type=int, default=9, help="points per parameter axis (>= 5)")
    parser.add_argument("--full", action="store_true", help="use the full acceptance-scale grids")
    parser.add_argument("--slots", type=int, default=4000, help="slots in constructed worst-case instances")
    parser.add_argument("--out-dir")


# name -> (help, the function adding its flags, the function running it)
_COMMANDS = {
    "run": ("run one algorithm on one trace", _run_flags, _cmd_run),
    "compare": ("compare the configured algorithm table", _add_config_flags, _cmd_compare),
    "sweep": ("sweep one experiment axis", _sweep_flags, _cmd_sweep),
    "synth": ("write synthetic trace CSVs", _synth_flags, _cmd_synth),
    "verify": ("run the theorem verification suite", _verify_flags, _cmd_verify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``peaksched`` parser.  Every subcommand is registered, so usage and
    error text name all five.  Where ``command`` names one of them, only
    its flags are added (each flag builds a help formatter, so this halves
    the set-up); otherwise every subcommand's flags are."""
    parser = argparse.ArgumentParser(
        prog="peaksched",
        description="Peak-aware generation scheduling: algorithms, experiments, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_flags, run) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=text)
        if command not in _COMMANDS or command == name:
            add_flags(subparser)
        subparser.set_defaults(func=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the subcommand is argv's first token: the top level takes no option but -h
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PeakSchedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

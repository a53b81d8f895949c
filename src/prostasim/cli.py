"""Command-line interface.

Exit codes: 0 success, 1 configuration or usage problem, 2 runtime
failure (I/O, simulation error).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import __version__, calibrate as calibrate_mod
from .config import (
    FORMATS,
    ConfigError,
    StudyConfig,
    default_config,
    load_config,
    to_yaml,
)
from .study import check_writable, report_files, report_from_records, run_study, write_report, write_summary, write_text

# the file calibrate writes under the output directory
FITTED_YAML = "fitted_config.yaml"

# CLI mode values are short; the config schema spells them out
MODE_ALIASES = {"closed": "closed_loop", "open": "open_loop", "both": "both"}

DEFAULT_CONFIG_HEADER = (
    "prostasim study configuration (defaults)\n"
    "every key is shown; unknown keys are rejected at load time\n"
    "mode: closed_loop | open_loop | both"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prostasim",
        description="Simulated robotic needle-insertion study harness.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", metavar="PATH", help="YAML study configuration")
        p.add_argument("--seed", type=int, metavar="N", help="override the master seed")
        p.add_argument(
            "--mode", choices=tuple(MODE_ALIASES), help="insertion mode override"
        )
        p.add_argument("--out", metavar="DIR", help="output directory override")
        p.add_argument("--format", choices=FORMATS, help="summary format override")

    sim = sub.add_parser("simulate", help="run the study and write records + summary")
    common(sim)
    sim.add_argument(
        "--emit-default-config",
        action="store_true",
        help="print the default configuration as YAML and exit",
    )

    rep = sub.add_parser("report", help="recompute the summary from recorded CSVs")
    common(rep)

    cal = sub.add_parser(
        "calibrate", help="grid-search motion/noise parameters against target medians"
    )
    common(cal)
    cal.add_argument(
        "--replicates", type=int, default=4, metavar="N",
        help="seed replicates per candidate during the search (default 4)",
    )
    cal.add_argument(
        "--grid-points", type=int, default=3, metavar="N",
        help="grid points per parameter axis (default 3)",
    )
    return parser


def _resolve_config(args: argparse.Namespace) -> StudyConfig:
    cfg = load_config(args.config) if args.config is not None else default_config()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.mode:
        cfg.mode = MODE_ALIASES[args.mode]
    if args.out is not None:
        cfg.output.dir = args.out
    if args.format:
        cfg.output.format = args.format
    cfg.validate()
    return cfg


def _print_headline(summary: dict):
    for mode_key, block in summary.get("totals", {}).items():
        err = block["error_mm"]["median"]
        corr = block["depth_correction_mm"]["median"]
        print(
            f"{mode_key}: n={block['n']} median error {err:.2f} mm, "
            f"median depth correction {corr:.2f} mm"
        )


@contextlib.contextmanager
def _out_dir(out_dir: str):
    """Create the output directory before a run, so that one that cannot be
    written fails at once rather than after the whole run.  If the run
    raises, whatever it raises, the directories made here are removed
    again: a failed run leaves no directory it made on the disk."""
    made, path = [], os.path.abspath(out_dir)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise RuntimeError(f"cannot write under {out_dir}: {e}") from e
    try:
        yield
    except BaseException:
        for path in made:  # deepest first; one the run wrote into stays
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.emit_default_config:
        sys.stdout.write(to_yaml(default_config(), DEFAULT_CONFIG_HEADER))
        return 0
    cfg = _resolve_config(args)
    with _out_dir(cfg.output.dir):
        # the report is written after the run: a file that cannot be fails before it
        for name in report_files(cfg.mode, cfg.output.format):
            check_writable(cfg.output.dir, name)
        report = run_study(cfg)
    written = write_report(report, cfg.output.dir, cfg.output.format)
    _print_headline(report.summary)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    report = report_from_records(cfg, cfg.output.dir)
    path = write_summary(report.summary, cfg.output.dir, cfg.output.format)
    _print_headline(report.summary)
    print(f"wrote {path}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if args.replicates < 1 or args.grid_points < 1:
        raise ConfigError("calibrate: --replicates and --grid-points must be >= 1")
    with _out_dir(cfg.output.dir):
        # the YAML is written after the search: one that cannot be fails before it
        check_writable(cfg.output.dir, FITTED_YAML)
        result = calibrate_mod.calibrate(cfg, replicates=args.replicates, grid_points=args.grid_points)
    text = calibrate_mod.fitted_config_yaml(cfg, result, args.replicates, args.grid_points)
    path = write_text(cfg.output.dir, FITTED_YAML, text)
    sys.stdout.write(text)
    print(f"wrote {path}", file=sys.stderr)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "report": _cmd_report,
    "calibrate": _cmd_calibrate,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad usage and 0 on --help/--version;
        # fold usage problems into the config-error code
        code = e.code if isinstance(e.code, int) else 1
        return 0 if code == 0 else 1
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

"""Command-line front end: single runs, parameter sweeps, chart scripts."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .controllers import ControllerKind
from .engine import SimConfig, run_simulation
from .harness import SweepSpec, emit_csv, emit_plot_script, run_sweep


def _number(text: str) -> int | float:
    """An option's value as an int when the text is one, else as a float, so
    that SimConfig, SweepSpec or run_sweep rather than the parser rejects a
    non-integer count."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctosim",
        description="Cooperative target observation on random planar graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each option's dest is its field's name and an option left out is left
    # out of the namespace, so SimConfig, SweepSpec and run_sweep keep the
    # one copy of every default.
    sim = sub.add_parser("simulate", help="run one simulation and print its coverage index",
                         argument_default=argparse.SUPPRESS)
    sim.add_argument("--algorithm", dest="controller", choices=[k.value for k in ControllerKind],
                     help="destination controller")
    sim.add_argument("--sr", type=float, help="sensor range")
    sim.add_argument("--rv", type=float, help="target speed per step")
    sim.add_argument("--ur", type=float, help="controller update rate in (0, 1]")
    sim.add_argument("--steps", type=_number, help="simulation length in steps")
    sim.add_argument("--observers", dest="n_observers", metavar="OBSERVERS", type=_number,
                     help="number of observers")
    sim.add_argument("--targets", dest="n_targets", metavar="TARGETS", type=_number,
                     help="number of targets")
    sim.add_argument("--vertices", dest="n_vertices", metavar="VERTICES", type=_number,
                     help="graph vertex count")
    sim.add_argument("--horizon", type=_number, help="prediction horizon in steps (hc-hp only)")
    sim.add_argument("--seed", type=_number, help="base random seed")

    sweep = sub.add_parser("sweep", help="run a one-parameter sweep and write CSVs",
                           argument_default=argparse.SUPPRESS)
    sweep.add_argument("--vary", dest="varied", choices=["sr", "rv", "ur"], required=True,
                       help="parameter swept over its standard values")
    sweep.add_argument("--runs", dest="runs_per_cell", metavar="RUNS", type=_number,
                       help="runs per cell")
    sweep.add_argument("--base-seed", type=_number, help="seed of the first run in every cell")
    sweep.add_argument("--jobs", type=_number, help="worker processes")
    sweep.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")

    plot = sub.add_parser("plot", help="write a chart script for a sweep summary CSV")
    plot.add_argument("--summary", type=Path, required=True, help="summary CSV path")

    return parser


def _cmd_simulate(options: dict) -> int:
    if "controller" in options:
        options["controller"] = ControllerKind.parse(options["controller"])
    result = run_simulation(SimConfig(**options))
    print(f"rho={result.rho:.6f} seed={result.config.seed} wall_time_s={result.wall_time:.3f}")
    return 0


def _cmd_sweep(options: dict) -> int:
    out_dir = options.pop("out_dir")
    jobs = {"jobs": options.pop("jobs")} if "jobs" in options else {}
    result = run_sweep(SweepSpec(**options), **jobs)
    runs_path, summary_path = emit_csv(result, out_dir)
    print(runs_path)
    print(summary_path)
    return 0


def _cmd_plot(options: dict) -> int:
    print(emit_plot_script(options["summary"]))
    return 0


def main(argv: list[str] | None = None) -> int:
    options = vars(_build_parser().parse_args(argv))
    handlers = {"simulate": _cmd_simulate, "sweep": _cmd_sweep, "plot": _cmd_plot}
    try:
        return handlers[options.pop("command")](options)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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

    sim = sub.add_parser("simulate", help="run one simulation and print its coverage index")
    sim.add_argument("--algorithm", choices=[k.value for k in ControllerKind],
                     default=ControllerKind.HC_H.value, help="destination controller")
    sim.add_argument("--sr", type=float, default=15.0, help="sensor range")
    sim.add_argument("--rv", type=float, default=0.5, help="target speed per step")
    sim.add_argument("--ur", type=float, default=0.25, help="controller update rate in (0, 1]")
    sim.add_argument("--steps", type=_number, default=1500, help="simulation length in steps")
    sim.add_argument("--observers", type=_number, default=12, help="number of observers")
    sim.add_argument("--targets", type=_number, default=24, help="number of targets")
    sim.add_argument("--vertices", type=_number, default=40, help="graph vertex count")
    sim.add_argument("--horizon", type=_number, default=10,
                     help="prediction horizon in steps (hc-hp only)")
    sim.add_argument("--seed", type=_number, default=0, help="base random seed")

    sweep = sub.add_parser("sweep", help="run a one-parameter sweep and write CSVs")
    sweep.add_argument("--vary", choices=["sr", "rv", "ur"], required=True,
                       help="parameter swept over its standard values")
    sweep.add_argument("--runs", type=_number, default=20, help="runs per cell")
    sweep.add_argument("--base-seed", type=_number, default=0,
                       help="seed of the first run in every cell")
    sweep.add_argument("--jobs", type=_number, default=1, help="worker processes")
    sweep.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")

    plot = sub.add_parser("plot", help="write a chart script for a sweep summary CSV")
    plot.add_argument("--summary", type=Path, required=True, help="summary CSV path")

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = SimConfig(
        steps=args.steps,
        n_observers=args.observers,
        n_targets=args.targets,
        n_vertices=args.vertices,
        sr=args.sr,
        rv=args.rv,
        ur=args.ur,
        controller=ControllerKind.parse(args.algorithm),
        horizon=args.horizon,
        seed=args.seed,
    )
    result = run_simulation(cfg)
    print(f"rho={result.rho:.6f} seed={result.seed} wall_time_s={result.wall_time:.3f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(varied=args.vary, runs_per_cell=args.runs, base_seed=args.base_seed)
    result = run_sweep(spec, jobs=args.jobs)
    runs_path, summary_path = emit_csv(result, args.out_dir)
    print(runs_path)
    print(summary_path)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    print(emit_plot_script(args.summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "sweep": _cmd_sweep, "plot": _cmd_plot}
    try:
        return handlers[args.command](args)
    except Exception as exc:  # single-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

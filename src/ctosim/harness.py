"""Benchmark harness: parameter sweeps, summaries, CSV output and charts.

A sweep varies exactly one benchmark parameter (sensor range ``sr``,
target speed ``rv`` or update rate ``ur``) over its standard values,
holding the other two at their medians, and repeats each cell over
consecutive seeds, shared across controllers so that per-seed comparisons
are paired. A run is a pure function of its SimConfig, so run_configs makes
each distinct config once. A result stores only runs; summaries derive from them.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
from collections.abc import Iterable
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import mean, stdev

from . import _rules
from .controllers import ControllerKind
from .engine import RunResult, SimConfig, run_simulation

SR_VALUES = (5.0, 10.0, 15.0, 20.0, 25.0)
RV_VALUES = (0.1, 0.25, 0.5, 0.75, 0.9)
UR_VALUES = (1.0, 0.5, 0.25, 0.1, 0.05)

_VALUE_SETS = {"sr": SR_VALUES, "rv": RV_VALUES, "ur": UR_VALUES}

# Worker processes per sweep. The pool starts all of its workers at the
# first submit, each a full interpreter with numpy loaded, so an unchecked
# jobs value would start that many processes at once.
MAX_JOBS = 64

# Runs per sweep cell. A sweep builds every run's SimConfig (about 230
# bytes) before the first run starts, so an unchecked count would fill
# memory before doing any work; at this cap a full sweep holds 200 000.
MAX_RUNS_PER_CELL = 10_000

ALL_CONTROLLERS = tuple(ControllerKind)


class HarnessError(RuntimeError):
    """A sweep could not be completed."""


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep description.

    ``varied`` names the swept parameter; ``values`` defaults to that
    parameter's standard set. ``base`` supplies every non-swept setting
    (its defaults are the benchmark medians) but the seed and the
    controller, which must keep SimConfig's defaults. Each cell runs
    ``runs_per_cell`` times with seeds base_seed, base_seed + 1, ...
    """

    varied: str
    values: tuple[float, ...] = ()
    controllers: tuple[ControllerKind, ...] = ALL_CONTROLLERS
    runs_per_cell: int = 20
    base_seed: int = 0
    base: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self):
        if self.varied not in _VALUE_SETS:
            raise ValueError(f"varied must be one of sr, rv, ur; got {self.varied!r}")
        allowed = _VALUE_SETS[self.varied]
        if not self.values:
            object.__setattr__(self, "values", allowed)
        for v in self.values:
            # SimConfig's number rule up front: True == 1.0 is a standard value
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or v not in allowed:
                raise ValueError(f"{self.varied}={v} is not a standard sweep value {allowed}")
        if not self.controllers:
            raise ValueError("at least one controller is required")
        if not all(isinstance(kind, ControllerKind) for kind in self.controllers):
            raise ValueError(f"controllers must be ControllerKind members, got {self.controllers!r}")
        for name in ("values", "controllers"):
            items = getattr(self, name)
            if len(set(items)) != len(items):
                raise ValueError(f"{name} must not repeat, got {items!r}")
        if not isinstance(self.base, SimConfig):
            raise ValueError(f"base must be a SimConfig, got {self.base!r}")
        if self.base.seed != SimConfig.seed:
            raise ValueError(f"set seeds with base_seed, not base.seed (got {self.base.seed})")
        if self.base.controller != SimConfig.controller:
            raise ValueError(f"set controllers, not base.controller (got {self.base.controller})")
        _rules.integer("runs_per_cell", self.runs_per_cell, 1, MAX_RUNS_PER_CELL)
        _rules.integer("base_seed", self.base_seed, 0)

    @functools.cached_property
    def configs(self) -> tuple[SimConfig, ...]:
        """Every run's config in run order: controller-major, then value, then seed."""
        return tuple(replace(self.base, controller=ctrl, seed=self.base_seed + i, **{self.varied: value})
                     for ctrl in self.controllers for value in self.values for i in range(self.runs_per_cell))


@dataclass(frozen=True)
class RunRecord:
    """One completed run inside a sweep; its config holds the controller and the swept value."""

    result: RunResult


@dataclass(frozen=True)
class CellSummary:
    """One (controller, value) cell: sample mean and sample sd of the coverage index over its runs."""

    controller: ControllerKind
    value: float
    m: float
    sd: float
    runs: int


@dataclass(frozen=True)
class SweepResult:
    """A sweep's runs in run order, from which each cell's summary is derived.
    ValueError without records, for a record that is not a RunRecord, or
    for a varied other than sr, rv or ur."""

    varied: str
    records: tuple[RunRecord, ...]

    def __post_init__(self):
        if not self.records:
            raise ValueError("sweep produced no records; nothing to write")
        for i, rec in enumerate(self.records):
            if not isinstance(rec, RunRecord):
                raise ValueError(f"records[{i}] must be a RunRecord, got {type(rec).__name__}")
        if self.varied not in _VALUE_SETS:  # it names the output files
            raise ValueError(f"varied must be one of sr, rv, ur; got {self.varied!r}")

    @functools.cached_property
    def summaries(self) -> tuple[CellSummary, ...]:
        """One summary per (controller, value) cell, in the order of its first run."""
        cells: dict[tuple[ControllerKind, float], list[float]] = {}
        for run in (rec.result for rec in self.records):
            cells.setdefault((run.config.controller, getattr(run.config, self.varied)), []).append(run.rho)
        return tuple(CellSummary(*cell, mean(rhos), stdev(rhos) if len(rhos) > 1 else 0.0, len(rhos))
                     for cell, rhos in cells.items())


def run_configs(configs: Iterable[SimConfig], jobs: int = 1) -> dict[SimConfig, RunResult]:
    """Run each distinct config once, in first-seen order, and map it to its result.

    With jobs > 1 the runs go to worker processes, never more than there are
    distinct configs, with identical results; the process pool is imported
    only then. Raises ValueError, before any run, unless jobs is an integer
    from 1 to MAX_JOBS, and HarnessError naming the first failing config.
    """
    _rules.integer("jobs", jobs, 1, MAX_JOBS)
    distinct = list(dict.fromkeys(configs))
    workers = min(jobs, len(distinct))
    if workers > 1:  # the pool loads multiprocessing (about 1.5 MB); serial work never does
        from concurrent.futures import ProcessPoolExecutor
    runs = {}
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        outcomes = (pool.map if pool else map)(run_simulation, distinct)
        for cfg in distinct:
            try:
                runs[cfg] = next(outcomes)
            except Exception as exc:
                raise HarnessError(f"run failed: {cfg!r}: {exc}") from exc
    return runs


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Run a sweep's configs with run_configs and record them in ``spec.configs`` order."""
    runs = run_configs(spec.configs, jobs)
    return SweepResult(spec.varied, tuple(RunRecord(runs[cfg]) for cfg in spec.configs))


def _fmt_value(v: float) -> str:
    """The shortest text that reads back as the same float, without a trailing ".0"."""
    return repr(float(v)).removesuffix(".0")


def _write_table(path: Path, header: list[str], rows) -> None:
    """One CSV file: UTF-8, LF line endings, the header row, then the rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_csv(result: SweepResult, out_dir: Path | str) -> tuple[Path, Path]:
    """Write per-run and summary CSVs for a sweep; returns their paths.

    Files are UTF-8 with LF line endings; the settings are written as the
    shortest text that reads back as the same float, and floating-point
    statistics carry six digits after the decimal point.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs_path = out / f"{result.varied}_runs.csv"
    summary_path = out / f"{result.varied}_summary.csv"
    _write_table(
        runs_path,
        ["controller", "varied_param", "value", "sr", "rv", "ur", "seed", "rho"],
        (
            [run.config.controller.value, result.varied, _fmt_value(getattr(run.config, result.varied)),
             _fmt_value(run.config.sr), _fmt_value(run.config.rv), _fmt_value(run.config.ur),
             run.config.seed, f"{run.rho:.6f}"]
            for run in (rec.result for rec in result.records)
        ),
    )
    _write_table(
        summary_path,
        ["controller", "varied_param", "value", "m", "sd", "runs"],
        (
            [cell.controller.value, result.varied, _fmt_value(cell.value),
             f"{cell.m:.6f}", f"{cell.sd:.6f}", cell.runs]
            for cell in result.summaries
        ),
    )
    return runs_path, summary_path


def plot_summary(summary_csv: Path | str) -> list[Path]:
    """Chart a summary CSV: one ``rho_vs_<param>.png`` beside it per swept
    parameter, with one error-bar series per controller (mean coverage
    index against the value, sorted by value, bars of one sample standard
    deviation); returns the paths in the CSV's order.

    matplotlib is imported here only, so the rest of the harness runs
    without it. Raises FileNotFoundError for a missing CSV, ValueError for
    one without a summary's columns or rows, or with a row whose
    varied_param is not sr, rv or ur, whose value or m is not a finite
    number or whose sd is not a finite number >= 0, all before the
    import, and ImportError without matplotlib.
    """
    summary = Path(summary_csv)
    by_param: dict[str, dict[str, list[tuple[float, float, float]]]] = {}
    with open(summary, encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [name for name in ("controller", "varied_param", "value", "m", "sd")
                   if name not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{summary} is not a sweep summary: missing columns {', '.join(map(repr, missing))}")
        for row in reader:
            where, param = f"{summary} is not a sweep summary: line {reader.line_num}", row["varied_param"]
            if param not in _VALUE_SETS:  # it names the output file
                raise ValueError(f"{where}: column 'varied_param' is {param!r}, not one of {list(_VALUE_SETS)}")
            for name, rule in (("value", "a finite number"), ("m", "a finite number"), ("sd", "a finite number >= 0")):
                try:  # a short row leaves the column None
                    number = float(row[name])
                except (TypeError, ValueError):
                    number = math.nan
                if not (math.isfinite(number) and (name != "sd" or number >= 0)):
                    raise ValueError(f"{where}: column {name!r} is {row[name]!r}, not {rule}")
                row[name] = number
            by_param.setdefault(param, {}).setdefault(row["controller"], []).append((row["value"], row["m"], row["sd"]))
    if not by_param:
        raise ValueError(f"{summary} is not a sweep summary: it has no rows")

    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    paths = []
    for param, series in by_param.items():
        fig, ax = plt.subplots(figsize=(7, 4.5))
        for controller, rows in series.items():
            xs, ms, sds = zip(*sorted(rows))
            ax.errorbar(xs, ms, yerr=sds, marker="o", capsize=3, label=controller)
        ax.set_xlabel(param)
        ax.set_ylabel("mean coverage index")
        ax.set_ylim(0.0, 1.0)
        ax.grid(True, alpha=0.3)
        ax.legend()
        fig.tight_layout()
        out = summary.parent / f"rho_vs_{param}.png"
        fig.savefig(out, dpi=150)
        plt.close(fig)
        paths.append(out)
    return paths

"""The benchmark's three workloads, and how their inputs follow from --seed.

A workload is a round of units, run one after another (a closed loop: the
next unit starts when the last one returns). A unit is one
``run_simulation`` call, or for the sweep workload one ``run_sweep`` plus
``emit_csv``. Every round of a benchmark run repeats the same units, so
each round gives the same per-run rho and the same number of operations.

Seed ``n`` gives the ``k`` simulation seeds ``n*k .. n*k + k - 1``, where
``k`` is the workload's ``seeds_per_round``: neighbouring benchmark seeds
never share a simulation seed, and the inputs (graphs, target walks,
observer placements) all follow from those seeds through ``SimConfig``.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import checks
from tracing import CSV, SWEEP


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    controller: str
    seeds_per_round: int
    overrides: dict = field(default_factory=dict)
    #: Swept parameter when a unit is one ``run_sweep``; None for single runs.
    sweep: str | None = None
    #: The slice of the swept parameter's standard values that is run.
    sweep_values: tuple = ()

    def seeds(self, seed: int) -> range:
        k = self.seeds_per_round
        return range(seed * k, seed * k + k)

    def base(self, ck, seed: int):
        """The first run's configuration; also the warm-up's, shortened."""
        kind = ck.controllers.ControllerKind.parse(self.controller)
        return ck.engine.SimConfig(controller=kind, seed=self.seeds(seed)[0], **self.overrides)

    def units(self, ck, seed: int, out_dir: Path) -> list["Unit"]:
        if self.sweep is None:
            base = self.base(ck, seed)
            return [Unit(1, _single_run(ck, replace(base, seed=s))) for s in self.seeds(seed)]
        spec = ck.harness.SweepSpec(
            varied=self.sweep,
            values=self.sweep_values,
            runs_per_cell=self.seeds_per_round,
            base_seed=self.seeds(seed)[0],
            base=ck.engine.SimConfig(**self.overrides),
        )
        runs = len(spec.values) * len(spec.controllers) * spec.runs_per_cell
        return [Unit(runs, _sweep(ck, spec, out_dir))]


@dataclass(frozen=True)
class Unit:
    """``fn(span, paused)`` returns the unit's run results and the errors
    of the checks made inside it."""

    runs: int
    fn: object


def _single_run(ck, cfg):
    def unit(span, paused):
        # Looked up at call time, so the traced pass sees its wrapper.
        return [ck.engine.run_simulation(cfg)], []

    return unit


def _sweep(ck, spec, out_dir: Path):
    n_cells = len(spec.values) * len(spec.controllers)

    def unit(span, paused):
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            with span(SWEEP):
                result = ck.harness.run_sweep(spec, jobs=1)
            with span(CSV):
                runs_csv, summary_csv = ck.harness.emit_csv(result, tmp)
            with paused():
                errors = checks.check_sweep_csv(runs_csv, summary_csv, n_cells, spec.runs_per_cell)
        return [rec.result for rec in result.records], errors

    return unit


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hc-hp-every-step",
            why="hc-hp with the controller on every step: candidate scoring and target prediction dominate",
            controller="hc-hp",
            seeds_per_round=6,
            overrides={"ur": 1.0, "steps": 500},
        ),
        Workload(
            name="kmeans-sparse-fast",
            why="rare k-means updates and fast targets: world stepping, sensing and the engine loop dominate",
            controller="kmeans",
            seeds_per_round=8,
            overrides={"ur": 0.05, "rv": 0.9},
        ),
        Workload(
            name="sr-sweep-slice",
            why="run_sweep over sr 5, 15 and 25 with all four controllers and CSV output: the harness and many graph builds",
            controller="hc-h",
            seeds_per_round=4,
            overrides={"steps": 250},
            sweep="sr",
            sweep_values=(5.0, 15.0, 25.0),
        ),
    )
}

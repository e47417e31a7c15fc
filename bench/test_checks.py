"""Tests of the benchmark's own checks: each passes on the program's real
output and fails on a deliberately wrong copy of it.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
import time

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ctosim  # noqa: E402

import checks  # noqa: E402
from timing import Interleaver  # noqa: E402
from tracing import RUN, RUN_LAYERS, Tracer  # noqa: E402

FAR = (1.0e6, 1.0e6)


class _KeepingTracer(Tracer):
    """Keeps each run's captures after checking them."""

    def __init__(self):
        super().__init__(time.perf_counter, nullcontext)
        self.kept = []

    def _check_run(self, cfg, result, run):
        super()._check_run(cfg, result, run)
        self.kept.append((cfg, result, run))


def traced_run(**overrides):
    tracer = _KeepingTracer()
    tracer.install(ctosim)
    try:
        cfg = ctosim.SimConfig(steps=60, **overrides)
        ctosim.engine.run_simulation(cfg)
    finally:
        tracer.uninstall()
    return tracer


@pytest.fixture(scope="module")
def hc_hp():
    return traced_run(controller=ctosim.ControllerKind.HC_HP, ur=1.0, seed=3)


@pytest.fixture(scope="module")
def run(hc_hp):
    return hc_hp.kept[0]


def test_tracer_passes_a_real_run_and_restores_the_package(hc_hp):
    assert list(hc_hp.run_errors.values()) == [[]]
    assert ctosim.engine.step_target is ctosim.world.step_target
    assert ctosim.harness.run_simulation is ctosim.engine.run_simulation


def test_layer_split_accounts_for_the_run_time(hc_hp):
    layers = hc_hp.layer_metrics(0.0)
    names, dur, _ = hc_hp._spans()
    run_total = float(dur[names == hc_hp.names.index(RUN)].sum())
    assert sum(layers[k] for k in RUN_LAYERS) == pytest.approx(run_total, rel=1e-9)
    assert layers["world.predict_calls"] == 60 * 24
    assert layers["controllers.calls"] == 60
    assert layers["controllers.improved"] + layers["controllers.spread"] + layers["controllers.kept"] == 60


def test_sense_counts_the_closed_disc():
    assert checks.sense([(0.0, 0.0)], [(3.0, 4.0), (3.0, 4.1)], 5.0) == (1, 0)
    assert checks.sense([(0.0, 0.0), FAR], [(3.0, 4.0)], 5.0) == (1, 1)
    assert checks.sense([FAR, (0.0, 0.0)], [(3.0, 4.0), (0.0, 5.1)], 5.0) == (1, 1)


def test_rho_recount_fails_on_a_miscounted_step(run):
    cfg, result, cap = run
    assert checks.check_rho(cap.sensed, cfg.n_targets, cfg.steps, result.rho)[0] == []
    step = next(i for i, (obs, tgt, sr) in enumerate(cap.sensed) if checks.sense(obs, tgt, sr)[0])
    sensed = list(cap.sensed)
    obs, tgt, sr = sensed[step]
    sensed[step] = ([FAR] * len(obs), tgt, sr)
    assert checks.check_rho(sensed, cfg.n_targets, cfg.steps, result.rho)[0]
    assert checks.check_rho(cap.sensed[1:], cfg.n_targets, cfg.steps, result.rho)[0]


def test_on_edge_check_fails_on_a_moved_target_point(run):
    _, _, cap = run
    assert checks.check_on_edges(cap.graph, cap.placed) == []
    state, (x, y) = cap.placed[7]
    moved = list(cap.placed)
    moved[7] = (state, (x + 1e-3, y))
    assert checks.check_on_edges(cap.graph, moved)


def test_observer_check_fails_on_a_jump(run):
    _, _, cap = run
    errors, gap_sum = checks.check_observer_moves(cap.moves)
    assert errors == [] and gap_sum > 0.0
    before, after = cap.moves[0]
    jumped = replace(after, position=ctosim.Point(before.position.x + 1.5, before.position.y))
    assert checks.check_observer_moves([(before, jumped)])[0]


def test_hill_climb_check_fails_on_a_worse_choice(run):
    _, _, cap = run
    for _, current, chosen, eval_points, sr, _ in cap.calls:
        outcome, before, after = checks.classify_call(current, chosen, eval_points, sr)
        assert checks.check_hill_climb(before, after) == []
    _, current, _, eval_points, sr, _ = next(
        c for c in cap.calls if checks.sense(c[1], c[3], c[4])[0] > 0
    )
    outcome, before, after = checks.classify_call(current, [FAR] * len(current), eval_points, sr)
    assert outcome == "spread"
    assert checks.check_hill_climb(before, after)


def test_trace_check_fails_on_a_changed_trace():
    cfgs = [ctosim.SimConfig(controller=k, steps=30, seed=5) for k in ctosim.ControllerKind]
    traces = {c.controller.value: ctosim.run_simulation(c, record_targets=True).target_trace for c in cfgs}
    assert checks.check_same_traces(traces) == []
    step = list(traces["hc"][10])
    step[0] = ctosim.Point(step[0].x, step[0].y + 1e-9)
    traces["hc"] = traces["hc"][:10] + (tuple(step),) + traces["hc"][11:]
    assert checks.check_same_traces(traces)


def test_full_range_check():
    cfg = ctosim.SimConfig(steps=30, sr=(150.0**2 * 2) ** 0.5)
    assert checks.check_full_range(ctosim.run_simulation(cfg).rho) == []
    assert checks.check_full_range(1.0 - 1e-12)


@pytest.fixture(scope="module")
def sweep_csvs(tmp_path_factory):
    spec = ctosim.SweepSpec(varied="sr", values=(5.0, 25.0), runs_per_cell=2,
                            base=ctosim.SimConfig(steps=40))
    out = tmp_path_factory.mktemp("sweep")
    return ctosim.emit_csv(ctosim.run_sweep(spec), out), 2 * 4


def test_sweep_csv_check_fails_on_a_swapped_mean(sweep_csvs, tmp_path):
    (runs_csv, summary_csv), n_cells = sweep_csvs
    assert checks.check_sweep_csv(runs_csv, summary_csv, n_cells, 2) == []
    lines = summary_csv.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    pair = next((i, j) for i in range(len(rows)) for j in range(i)
                if abs(float(rows[i][3]) - float(rows[j][3])) > 1e-3)
    rows[pair[0]][3], rows[pair[1]][3] = rows[pair[1]][3], rows[pair[0]][3]
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    assert checks.check_sweep_csv(runs_csv, swapped, n_cells, 2)


def test_sweep_csv_check_fails_on_a_wrong_row_count(sweep_csvs, tmp_path):
    (runs_csv, summary_csv), n_cells = sweep_csvs
    short = tmp_path / "short.csv"
    short.write_text("\n".join(runs_csv.read_text().splitlines()[:-1]) + "\n")
    assert checks.check_sweep_csv(short, summary_csv, n_cells, 2)
    assert checks.check_sweep_csv(runs_csv, summary_csv, n_cells + 1, 2)
    lines = runs_csv.read_text().splitlines()
    stray = tmp_path / "stray.csv"
    stray.write_text("\n".join(lines + ["nobody" + lines[-1][lines[-1].index(","):]]) + "\n")
    assert checks.check_sweep_csv(stray, summary_csv, n_cells, 2)


def test_interleaver_keeps_reference_time_off_the_work_clock():
    with Interleaver(0.02) as il:
        first = len(il.chunks)
        start = time.perf_counter()
        _, work, ref = il.measure(lambda: sum(i * i for i in range(3_000_000)))
        wall = time.perf_counter() - start
        during = il.chunks[first:]
        paused_from = il.clock()
        with il.paused():
            time.sleep(0.05)
        paused_for = il.clock() - paused_from
    # A chunk can land just outside the measured call but inside the test's
    # own bookkeeping, so one chunk's worth of slack is allowed.
    assert len(during) >= 3
    assert min(during) <= ref <= max(during)
    assert abs(wall - work - sum(during)) <= max(during) + 0.005
    assert abs(paused_for) < 0.01

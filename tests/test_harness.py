"""Sweep harness tests: ordering, pairing, CSV shape, reproducibility."""

from __future__ import annotations

import concurrent.futures
import csv
import dataclasses
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import ctosim.harness as harness
import ctosim.world as world
from ctosim.controllers import ControllerKind
from ctosim.engine import SimConfig, run_simulation
from ctosim.harness import (
    ALL_CONTROLLERS,
    RV_VALUES,
    SR_VALUES,
    UR_VALUES,
    HarnessError,
    SweepSpec,
    emit_csv,
    plot_summary,
    run_configs,
    run_sweep,
)

def boom(cfg):
    """A run that always fails; module level so that it pickles to workers."""
    raise RuntimeError("synthetic failure")


SMALL_BASE = SimConfig(steps=120, n_vertices=12, n_observers=4, n_targets=6)


def small_spec(**overrides) -> SweepSpec:
    kwargs = dict(
        varied="sr",
        values=(5.0, 25.0),
        controllers=(ControllerKind.HC,),
        runs_per_cell=3,
        base_seed=0,
        base=SMALL_BASE,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSweepSpec:
    def test_standard_value_sets(self):
        assert SR_VALUES == (5.0, 10.0, 15.0, 20.0, 25.0)
        assert RV_VALUES == (0.1, 0.25, 0.5, 0.75, 0.9)
        assert UR_VALUES == (1.0, 0.5, 0.25, 0.1, 0.05)

    def test_values_default_to_the_standard_set(self):
        assert SweepSpec(varied="rv").values == RV_VALUES
        assert SweepSpec(varied="ur").values == UR_VALUES

    def test_defaults(self):
        spec = SweepSpec(varied="sr")
        assert spec.controllers == ALL_CONTROLLERS
        assert spec.runs_per_cell == 20
        assert spec.base_seed == 0
        assert spec.base == SimConfig()

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="varied"):
            SweepSpec(varied="speed")

    def test_rejects_nonstandard_value(self):
        with pytest.raises(ValueError, match="not a standard sweep value"):
            SweepSpec(varied="sr", values=(7.5,))

    @pytest.mark.parametrize("values", [(True,), (0.5, True), (Decimal("0.5"),)])
    def test_rejects_values_that_are_not_config_numbers(self, values):
        # True == 1.0 and Decimal("0.5") == 0.5 matched standard values, and
        # run_sweep then failed on SimConfig's bare ValueError
        with pytest.raises(ValueError, match="not a standard sweep value"):
            SweepSpec(varied="ur", values=values)

    def test_rejects_empty_controllers(self):
        with pytest.raises(ValueError, match="controller"):
            SweepSpec(varied="sr", controllers=())

    @pytest.mark.parametrize("controllers", [("kmeans",), "hc", (ControllerKind.HC, "hc-h")])
    def test_rejects_controllers_that_are_not_kinds(self, controllers):
        # a label would run the whole sweep as hc-hp, then break emit_csv
        with pytest.raises(ValueError, match="ControllerKind"):
            SweepSpec(varied="sr", controllers=controllers)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"values": (5.0, 5.0)}, "values must not repeat"),
            ({"values": (5.0, 25.0, 5)}, "values must not repeat"),
            ({"controllers": (ControllerKind.HC, ControllerKind.HC)}, "controllers must not repeat"),
            ({"base": "x"}, "base must be a SimConfig"),
            ({"base": None}, "base must be a SimConfig"),
        ],
    )
    def test_rejects_repeats_and_a_base_that_is_not_a_config(self, overrides, message):
        # a repeated value or controller ran its cells twice and wrote two
        # identical summary rows; base="x" failed only inside run_sweep,
        # with a bare TypeError from dataclasses.replace
        with pytest.raises(ValueError, match=message):
            SweepSpec(varied="sr", **overrides)

    @pytest.mark.parametrize(
        "base, message",
        [(SimConfig(seed=7), "base_seed"), (SimConfig(controller=ControllerKind.KMEANS), "controllers")],
    )
    def test_rejects_a_base_seed_or_controller_the_sweep_would_override(self, base, message):
        # run_sweep sets each run's seed and controller, so base=SimConfig(seed=7)
        # ran seeds 0, 1, ... without a word
        with pytest.raises(ValueError, match=message):
            SweepSpec(varied="sr", base=base)

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError, match="runs_per_cell"):
            SweepSpec(varied="sr", runs_per_cell=0)

    def test_rejects_runs_above_the_cap(self):
        # run_sweep builds every config before the first run, so the cap is
        # checked when the spec is built; the cap itself is accepted
        cap = harness.MAX_RUNS_PER_CELL
        assert SweepSpec(varied="sr", runs_per_cell=cap).runs_per_cell == cap
        for runs in (cap + 1, 10**9):
            with pytest.raises(ValueError, match=f"runs_per_cell must be at most {cap}, got {runs}"):
                SweepSpec(varied="sr", runs_per_cell=runs)

    def test_rejects_negative_base_seed(self):
        with pytest.raises(ValueError, match="base_seed"):
            SweepSpec(varied="sr", base_seed=-1)

    @pytest.mark.parametrize("name", ["runs_per_cell", "base_seed"])
    @pytest.mark.parametrize("value", [True, 2.0, 2.5, float("inf"), "2"])
    def test_rejects_non_integer_counts(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SweepSpec(varied="sr", **{name: value})


@pytest.fixture(scope="module")
def two_controller_result():
    return run_sweep(small_spec(controllers=(ControllerKind.KMEANS, ControllerKind.HC)))


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    result = run_sweep(small_spec())
    out = tmp_path_factory.mktemp("csv")
    runs_path, summary_path = emit_csv(result, out)
    return result, runs_path, summary_path


@pytest.fixture(scope="module")
def summary_csv(tmp_path_factory):
    """A real summary CSV of two controllers, its values written in descending order."""
    spec = small_spec(
        values=(25.0, 5.0), controllers=(ControllerKind.KMEANS, ControllerKind.HC), runs_per_cell=2
    )
    _, summary_path = emit_csv(run_sweep(spec), tmp_path_factory.mktemp("plots"))
    return summary_path


class TestRunSweep:
    def test_record_layout(self, two_controller_result):
        result = two_controller_result
        # cells are ordered controller-major, then value, then seed
        assert len(result.records) == 2 * 2 * 3
        keys = [(r.result.config.controller, r.result.config.sr, r.result.config.seed) for r in result.records]
        expected = [
            (ctrl, value, seed)
            for ctrl in (ControllerKind.KMEANS, ControllerKind.HC)
            for value in (5.0, 25.0)
            for seed in (0, 1, 2)
        ]
        assert keys == expected

    def test_varied_parameter_is_applied(self, two_controller_result):
        result = two_controller_result
        for rec in result.records:
            assert rec.result.config.rv == SMALL_BASE.rv  # non-swept stays at base

    def test_summaries_match_records(self, two_controller_result):
        result = two_controller_result
        import statistics

        for cell in result.summaries:
            rhos = [
                r.result.rho
                for r in result.records
                if r.result.config.controller is cell.controller and r.result.config.sr == cell.value
            ]
            assert cell.runs == 3
            assert cell.m == statistics.mean(rhos)
            assert cell.sd == statistics.stdev(rhos)

    def test_summaries_are_derived_from_the_records_held(self, two_controller_result):
        # the last cell, (hc, 25), one run short: its summary covers the two runs left
        full = two_controller_result
        *kept, last = harness.SweepResult("sr", full.records[:-1]).summaries
        assert kept == list(full.summaries[:-1])
        a, b = (rec.result.rho for rec in full.records[-3:-1])
        assert a != b
        assert (last.controller, last.value, last.runs) == (ControllerKind.HC, 25.0, 2)
        assert last.m == pytest.approx((a + b) / 2, rel=1e-15)
        assert last.sd == pytest.approx(abs(a - b) / math.sqrt(2), rel=1e-12)

    def test_seeds_are_paired_across_controllers(self, two_controller_result):
        result = two_controller_result
        configs = [r.result.config for r in result.records]
        kmeans_seeds = [cfg.seed for cfg in configs if cfg.controller is ControllerKind.KMEANS]
        hc_seeds = [cfg.seed for cfg in configs if cfg.controller is ControllerKind.HC]
        assert kmeans_seeds == hc_seeds

    def test_single_run_cell_has_zero_sd(self):
        out = run_sweep(small_spec(values=(15.0,), runs_per_cell=1))
        assert out.summaries[0].sd == 0.0
        assert out.summaries[0].runs == 1

    def test_deterministic(self, two_controller_result):
        result = two_controller_result
        again = run_sweep(small_spec(controllers=(ControllerKind.KMEANS, ControllerKind.HC)))
        assert again.summaries == result.summaries
        assert [r.result.rho for r in again.records] == [r.result.rho for r in result.records]

    def test_parallel_equals_serial(self):
        spec = small_spec(values=(15.0,), runs_per_cell=2)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert [r.result.rho for r in serial.records] == [r.result.rho for r in parallel.records]
        assert serial.summaries == parallel.summaries

    def test_parallel_equals_serial_with_a_cold_or_warm_graph_memo(self):
        # Workers start from a copy of this process's memo or an empty one;
        # either way each run sees its seed's one graph.
        spec = small_spec(controllers=(ControllerKind.KMEANS, ControllerKind.HC), runs_per_cell=2)
        world._build_graph.cache_clear()
        cold_parallel = run_sweep(spec, jobs=2)
        serial = run_sweep(spec, jobs=1)
        warm_parallel = run_sweep(spec, jobs=2)
        for other in (cold_parallel, warm_parallel):
            assert [r.result.rho for r in other.records] == [r.result.rho for r in serial.records]
            assert other.summaries == serial.summaries

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_rejects_jobs_below_one(self, monkeypatch, jobs):
        monkeypatch.setattr(harness, "run_simulation", boom)
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_sweep(small_spec(), jobs=jobs)

    @pytest.mark.parametrize("jobs", [True, 2.0, 2.5, float("nan"), "2"])
    def test_rejects_non_integer_jobs(self, monkeypatch, jobs):
        monkeypatch.setattr(harness, "run_simulation", boom)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda **kw: pytest.fail("a pool started"))
        with pytest.raises(ValueError, match="jobs must be an integer"):
            run_sweep(small_spec(), jobs=jobs)

    def test_rejects_jobs_above_the_cap(self, monkeypatch):
        # the pool would start every worker at its first submit, so the cap
        # is checked before a pool exists; the stub makes sure none does
        monkeypatch.setattr(harness, "run_simulation", boom)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda **kw: pytest.fail("a pool started"))
        with pytest.raises(ValueError, match=f"jobs must be at most {harness.MAX_JOBS}"):
            run_sweep(small_spec(), jobs=harness.MAX_JOBS + 1)

    def test_workers_never_outnumber_runs(self, monkeypatch):
        # the runs counted are the distinct configs: a repeat starts no worker
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        assert len(run_sweep(small_spec(runs_per_cell=1), jobs=harness.MAX_JOBS).records) == 2
        assert started == [2]
        a, b = small_spec(runs_per_cell=1).configs
        assert list(run_configs([a, b, a, b, a], jobs=harness.MAX_JOBS)) == [a, b]
        assert started == [2, 2]
        # a single distinct run needs no pool at all, however often it is listed
        run_sweep(small_spec(values=(5.0,), runs_per_cell=1), jobs=harness.MAX_JOBS)
        run_configs([a, a, a], jobs=harness.MAX_JOBS)
        assert started == [2, 2]

    def test_serial_work_never_loads_the_process_pool(self):
        # A fresh interpreter: this one has loaded the pool for other tests.
        script = (
            "import sys\n"
            "import ctosim\n"
            "from ctosim import ControllerKind, SimConfig, SweepSpec, run_simulation, run_sweep\n"
            "run_simulation(SimConfig(steps=5))\n"
            "spec = SweepSpec(varied='sr', values=(5.0,), controllers=(ControllerKind.HC,),\n"
            "                 runs_per_cell=1, base=SimConfig(steps=5))\n"
            "assert len(run_sweep(spec, jobs=1).records) == 1\n"
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))\n"
        )
        src = Path(harness.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failures_name_the_cell(self, monkeypatch, jobs):
        # the whole config of the first run, every setting needed to rerun it
        monkeypatch.setattr(harness, "run_simulation", boom)
        first = ("SimConfig(steps=120, n_observers=4, n_targets=6, n_vertices=12, sr=5.0, rv=0.5, ur=0.25, "
                 "controller=<ControllerKind.HC: 'hc'>, horizon=10, seed=0)")
        with pytest.raises(HarnessError, match=f"^run failed: {re.escape(first)}: synthetic failure$"):
            run_sweep(small_spec(), jobs=jobs)


class TestRunConfigs:
    def test_each_distinct_config_runs_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_simulation", lambda cfg: calls.append(cfg) or len(calls))
        a, b, c = small_spec(runs_per_cell=3, values=(5.0,)).configs
        assert run_configs([a, b, a, c, b, a]) == {a: 1, b: 2, c: 3}
        assert calls == [a, b, c]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_keep_first_seen_order(self, jobs):
        configs = small_spec(runs_per_cell=2).configs
        listed = [configs[3], configs[0], configs[3], configs[2], configs[0]]
        runs = run_configs(listed, jobs=jobs)
        assert list(runs) == [configs[3], configs[0], configs[2]]
        assert all(run.config == cfg for cfg, run in runs.items())

    def test_parallel_equals_serial(self):
        configs = small_spec(controllers=(ControllerKind.KMEANS, ControllerKind.HC_HP), runs_per_cell=2).configs
        serial, parallel = (run_configs(configs, jobs=jobs) for jobs in (1, 2))
        assert list(parallel) == list(serial) == list(configs)
        assert [run.rho.hex() for run in parallel.values()] == [run.rho.hex() for run in serial.values()]

    @pytest.mark.parametrize("jobs", [0, True, 2.5, "2", harness.MAX_JOBS + 1])
    def test_jobs_rules_apply_before_any_pool(self, monkeypatch, jobs):
        monkeypatch.setattr(harness, "run_simulation", boom)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda **kw: pytest.fail("a pool started"))
        with pytest.raises(ValueError, match="^jobs must be "):
            run_configs(small_spec().configs, jobs=jobs)


class TestEmitCsv:
    def test_paths_and_names(self, emitted):
        _, runs_path, summary_path = emitted
        assert runs_path.name == "sr_runs.csv"
        assert summary_path.name == "sr_summary.csv"
        assert runs_path.is_file() and summary_path.is_file()

    def test_runs_header_and_rows(self, emitted):
        result, runs_path, _ = emitted
        with open(runs_path, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "controller", "varied_param", "value", "sr", "rv", "ur", "seed", "rho", "wall_time_s",
        ]
        assert len(rows) == 1 + len(result.records)
        first = rows[1]
        assert first[0] == "hc"
        assert first[1] == "sr"
        assert first[2] == "5"  # compact, no trailing zeros
        assert first[5] == "0.25"
        assert first[6] == "0"
        float(first[7])  # rho parses
        assert len(first[7].split(".")[1]) == 6

    def test_settings_read_back_exactly(self, tmp_path):
        # :g kept six digits, writing 12.3457 and 0.333333
        base = dataclasses.replace(SMALL_BASE, sr=12.3456789, ur=1 / 3)
        spec = small_spec(varied="rv", values=(0.1,), runs_per_cell=1, base=base)
        runs_path, _ = emit_csv(run_sweep(spec), tmp_path)
        with open(runs_path, encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["sr"], row["rv"], row["ur"]) == ("12.3456789", "0.1", "0.3333333333333333")
        again = dataclasses.replace(
            base,
            sr=float(row["sr"]),
            rv=float(row["rv"]),
            ur=float(row["ur"]),
            seed=int(row["seed"]),
            controller=ControllerKind.parse(row["controller"]),
        )
        assert f"{run_simulation(again).rho:.6f}" == row["rho"]

    def test_summary_rows(self, emitted):
        result, _, summary_path = emitted
        with open(summary_path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(result.summaries)
        for row, cell in zip(rows, result.summaries):
            assert row["controller"] == cell.controller.value
            assert float(row["m"]) == pytest.approx(cell.m, abs=1e-6)
            assert int(row["runs"]) == cell.runs

    def test_lf_line_endings(self, emitted):
        _, runs_path, summary_path = emitted
        for p in (runs_path, summary_path):
            data = p.read_bytes()
            assert b"\r" not in data
            assert data.endswith(b"\n")

    def test_reemission_is_byte_identical_outside_wall_time(self, emitted, tmp_path):
        result, runs_path, summary_path = emitted
        again = run_sweep(small_spec())
        runs2, summary2 = emit_csv(again, tmp_path)
        assert summary2.read_bytes() == summary_path.read_bytes()
        strip = lambda p: [
            row[:8] for row in csv.reader(p.read_text(encoding="utf-8").splitlines())
        ]  # drop wall_time_s, the one timing-dependent column
        assert strip(runs2) == strip(runs_path)

    def test_format_is_pinned(self, emitted):
        # small_spec()'s exact files: a format change in the shared table
        # writer fails here, not only in the benchmark's CSV check;
        # wall_time_s varies, so only its six decimals are checked
        _, runs_path, summary_path = emitted
        assert summary_path.read_bytes() == (
            b"controller,varied_param,value,m,sd,runs\n"
            b"hc,sr,5,0.124537,0.145670,3\n"
            b"hc,sr,25,0.798611,0.041131,3\n"
        )
        *lines, end = runs_path.read_bytes().split(b"\n")
        assert end == b""
        assert [line.rsplit(b",", 1)[0] for line in lines] == [
            b"controller,varied_param,value,sr,rv,ur,seed,rho",
            b"hc,sr,5,5,0.5,0.25,0,0.088889",
            b"hc,sr,5,5,0.5,0.25,1,0.284722",
            b"hc,sr,5,5,0.5,0.25,2,0.000000",
            b"hc,sr,25,25,0.5,0.25,0,0.837500",
            b"hc,sr,25,25,0.5,0.25,1,0.755556",
            b"hc,sr,25,25,0.5,0.25,2,0.802778",
        ]
        assert lines[0].endswith(b",wall_time_s")
        assert all(re.fullmatch(rb"\d+\.\d{6}", line.rsplit(b",", 1)[1]) for line in lines[1:])

    def test_empty_result_rejected(self, tmp_path):
        # the result itself refuses to exist, so emit_csv never sees one
        with pytest.raises(ValueError, match="no records"):
            harness.SweepResult(varied="sr", records=())
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("varied", ["../escaped", "rho", ""])
    def test_unknown_varied_rejected_before_anything_is_written(self, emitted, tmp_path, varied):
        # "../escaped" wrote a header-only escaped_runs.csv beside out_dir, then raised AttributeError;
        # the result itself now refuses such a varied, so emit_csv never sees one
        result, _, _ = emitted
        with pytest.raises(ValueError, match=re.escape(f"varied must be one of sr, rv, ur; got {varied!r}")):
            harness.SweepResult(varied=varied, records=result.records)
        assert list(tmp_path.rglob("*")) == []


def read_series(summary_csv: Path) -> dict[str, list[tuple[float, float, float]]]:
    """Each controller's (value, m, sd) rows of a summary CSV, sorted by value."""
    series: dict[str, list[tuple[float, float, float]]] = {}
    with open(summary_csv, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            series.setdefault(row["controller"], []).append(
                (float(row["value"]), float(row["m"]), float(row["sd"]))
            )
    return {controller: sorted(rows) for controller, rows in series.items()}


def calls(recorder, name: str) -> list[tuple[tuple, dict]]:
    """The (args, kwargs) of each call of one method on a fake_matplotlib recorder."""
    return [(args, kwargs) for called, args, kwargs in recorder.calls if called == name]


class TestPlotSummary:
    HEADER, ROW = "controller,varied_param,value,m,sd,runs\n", "hc,sr,25,0.5,0.1,2\n"

    def test_one_series_per_controller_sorted_with_sd_bars(self, summary_csv, fake_matplotlib):
        paths = plot_summary(summary_csv)
        assert paths == [summary_csv.parent / "rho_vs_sr.png"]
        assert fake_matplotlib.backend == "Agg"
        (fig, ax), = fake_matplotlib.figures
        assert fig.kwargs == {"figsize": (7, 4.5)}
        expected = read_series(summary_csv)
        bars = calls(ax, "errorbar")
        assert [kwargs["label"] for _, kwargs in bars] == ["kmeans", "hc"]
        for (xs, ms), kwargs in bars:
            rows = expected[kwargs["label"]]
            assert list(xs) == [5.0, 25.0]
            assert list(ms) == [m for _, m, _ in rows]
            assert list(kwargs["yerr"]) == [sd for _, _, sd in rows]
            assert (kwargs["marker"], kwargs["capsize"]) == ("o", 3)
        assert [call for call in ax.calls if call[0] != "errorbar"] == [
            ("set_xlabel", ("sr",), {}),
            ("set_ylabel", ("mean coverage index",), {}),
            ("set_ylim", (0.0, 1.0), {}),
            ("grid", (True,), {"alpha": 0.3}),
            ("legend", (), {}),
        ]
        assert fig.calls == [
            ("tight_layout", (), {}),
            ("savefig", (paths[0],), {"dpi": 150}),
            ("close", (), {}),
        ]

    def test_one_figure_per_parameter(self, summary_csv, tmp_path, fake_matplotlib):
        both = tmp_path / "both_summary.csv"
        both.write_text(summary_csv.read_text() + "hc,ur,1,0.5,0.1,2\nhc,ur,0.5,0.4,0.1,2\n")
        paths = plot_summary(both)
        assert paths == [tmp_path / "rho_vs_sr.png", tmp_path / "rho_vs_ur.png"]
        figures = fake_matplotlib.figures
        assert [calls(ax, "set_xlabel") for _, ax in figures] == [[(("sr",), {})], [(("ur",), {})]]
        assert [calls(fig, "savefig") for fig, _ in figures] == [[((p,), {"dpi": 150})] for p in paths]
        ur_bars = calls(figures[1][1], "errorbar")
        assert [(list(xs), list(ms), kwargs["label"]) for (xs, ms), kwargs in ur_bars] == [
            ([0.5, 1.0], [0.4, 0.5], "hc")
        ]

    def test_missing_matplotlib_is_an_import_error(self, summary_csv, monkeypatch):
        monkeypatch.setitem(sys.modules, "matplotlib", None)  # makes its import fail
        with pytest.raises(ImportError, match="matplotlib"):
            plot_summary(summary_csv)
        assert not list(summary_csv.parent.glob("*.png"))

    def test_missing_csv_rejected(self, tmp_path, fake_matplotlib):
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            plot_summary(tmp_path / "nope.csv")
        assert fake_matplotlib.figures == []

    def test_runs_csv_rejected_before_the_import(self, summary_csv, fake_matplotlib):
        runs = summary_csv.parent / "sr_runs.csv"  # emit_csv wrote it beside the summary
        with pytest.raises(ValueError, match=re.escape(f"{runs} is not a sweep summary: missing columns 'm', 'sd'")):
            plot_summary(runs)
        assert (fake_matplotlib.backend, fake_matplotlib.figures) == (None, [])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2\n", "missing columns 'controller', 'varied_param', 'value', 'm', 'sd'"),
            ("", "missing columns 'controller', 'varied_param', 'value', 'm', 'sd'"),
            (HEADER, "it has no rows"),
            (HEADER + ROW + "hc,sr,5,abc,0.1,2\n", "line 3: column 'm' is 'abc', not a number"),
            (HEADER + ROW + "hc,sr,x5,0.5,0.1,2\n", "line 3: column 'value' is 'x5', not a number"),
            (HEADER + ROW + "hc,sr,5,0.5,,2\n" + ROW, "line 3: column 'sd' is '', not a number"),
            (HEADER + ROW + "hc,sr,5\n", "line 3: column 'm' is None, not a number"),
            (HEADER + ROW + "hc,../../escape,5,0.5,0.1,2\n", "line 3: column 'varied_param' is '../../escape'"),
            (HEADER + "hc,,5,0.5,0.1,2\n", "line 2: column 'varied_param' is '', not one of ['sr', 'rv', 'ur']"),
        ],
        ids=["foreign", "empty", "header-only", "bad-m", "bad-value", "bad-sd", "short-row", "escape", "no-param"],
    )
    def test_other_csv_rejected_before_the_import(self, tmp_path, fake_matplotlib, text, message):
        path = tmp_path / "sr_summary.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path} is not a sweep summary: {message}")):
            plot_summary(path)
        assert (fake_matplotlib.backend, fake_matplotlib.figures) == (None, [])

    def test_draws_a_real_chart(self, summary_csv):
        pytest.importorskip("matplotlib")
        (png,) = plot_summary(summary_csv)
        assert png == summary_csv.parent / "rho_vs_sr.png"
        assert png.stat().st_size > 1000


def test_a_single_run_never_loads_the_harness():
    # A fresh interpreter: this one has loaded the harness for the tests above.
    script = (
        "import sys\n"
        "import ctosim\n"
        "import ctosim.cli\n"
        "ctosim.run_simulation(ctosim.SimConfig(steps=5))\n"
        "assert ctosim.cli.main(['simulate', '--steps', '5']) == 0\n"
        "heavy = ('ctosim.harness', 'csv', 'statistics', 'decimal', 'fractions')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "assert all(getattr(ctosim, name) is not None for name in ctosim.__all__)\n"
        "assert ctosim.harness is sys.modules['ctosim.harness']\n"
        "assert ctosim.run_sweep is ctosim.harness.run_sweep\n"
        "names = {}\n"
        "exec('from ctosim import *', names)\n"
        "print(sorted(set(ctosim.__all__) - set(names)))\n"
    )
    src = Path(harness.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("rho=")  # the simulate command's own line
    assert lines[1:] == ["[]", "[]"]

"""Command-line interface tests: wiring, output shape, error behavior."""

from __future__ import annotations

import concurrent.futures
import importlib.metadata
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ctosim.cli as cli
import ctosim.harness as harness
from ctosim.engine import SimConfig
from ctosim.harness import SweepSpec


def run_main(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err



def _stop():
    raise RuntimeError("stopped")

SIM_ARGS = [
    "simulate",
    "--steps", "100",
    "--observers", "3",
    "--targets", "5",
    "--vertices", "10",
    "--seed", "7",
]


class TestSimulate:
    def test_prints_one_result_line(self, capsys):
        code, out, err = run_main(SIM_ARGS, capsys)
        assert code == 0
        assert err == ""
        assert re.fullmatch(r"rho=0\.\d{6} seed=7 wall_time_s=\d+\.\d{3}\n", out)

    def test_reproducible_up_to_wall_time(self, capsys):
        _, out1, _ = run_main(SIM_ARGS, capsys)
        _, out2, _ = run_main(SIM_ARGS, capsys)
        assert out1.split("wall_time_s=")[0] == out2.split("wall_time_s=")[0]

    def test_each_algorithm_is_accepted(self, capsys):
        for algo in ("kmeans", "hc", "hc-h", "hc-hp"):
            code, out, _ = run_main(SIM_ARGS + ["--algorithm", algo], capsys)
            assert code == 0
            assert out.startswith("rho=")

    def test_invalid_parameter_is_one_error_line(self, capsys):
        code, out, err = run_main(["simulate", "--ur", "3.0"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_infinite_speed_is_one_error_line(self, capsys):
        # rv=inf used to walk forever inside the first target step
        code, out, err = run_main(["simulate", "--rv", "inf"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: rv must be a finite number")
        assert err.count("\n") == 1

    def test_speed_beyond_the_arena_diagonal_is_one_error_line(self, capsys):
        # rv=1e12 used to walk about 1e11 vertex crossings inside the first step
        code, out, err = run_main(["simulate", "--rv", "1e12", "--steps", "1"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: rv must be a finite number in (0, ")
        assert err.count("\n") == 1

    def test_too_many_vertices_is_one_error_line(self, capsys):
        # triangulation is O(n^4) work, so the vertex count is capped up front
        code, out, err = run_main(["simulate", "--vertices", "101"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: n_vertices must be at most 100, got 101")
        assert err.count("\n") == 1

    def test_no_options_build_the_default_config(self, capsys, monkeypatch):
        # the defaults live in SimConfig alone; the parser restates none
        configs = []
        monkeypatch.setattr(cli, "run_simulation", lambda cfg: configs.append(cfg) or _stop())
        assert run_main(["simulate"], capsys) == (1, "", "error: stopped\n")
        assert configs == [SimConfig()]

    def test_unknown_algorithm_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--algorithm", "dqn"])


def _text(values):
    return values.map(str)


def _numbers(integers):
    """Any number as text: the given integers, and finite, non-finite,
    negative, huge and non-integer floats."""
    return st.one_of(
        _text(integers),
        _text(st.floats(allow_nan=True, allow_infinity=True)),
        st.sampled_from(["0", "-1", "2.5", "1e3", "1e300", "1e400", "nan", "inf", "-inf"]),
    )


# Each simulate option with values it accepts. Accepted counts stay small
# (at most 5 steps and 20 observers or targets), so that every run is
# short. Wild values add the integers outside 1..1000 (outside 1..5 for
# steps), and every float.
SIMULATE_OPTIONS = {
    "steps": _text(st.integers(1, 5)),
    "observers": _text(st.integers(1, 20)),
    "targets": _text(st.integers(1, 20)),
    "vertices": _text(st.integers(3, 40)),
    "horizon": _text(st.integers(0, 10**30)),
    "seed": _text(st.integers(0, 2**128)),
    "sr": _text(st.floats(1e-3, 1e300)),
    "rv": _text(st.floats(1e-3, 200.0)),
    "ur": _text(st.floats(1e-3, 1.0)),
}
WILD = _numbers(st.integers(max_value=0) | st.integers(min_value=1001))
WILD_STEPS = _numbers(st.integers(max_value=0))


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_simulate_exits_cleanly_on_any_numeric_arguments(data, capsys):
    # Up to two options take any number, finite or not, negative, huge or
    # non-integer; the rest take accepted values. Steps are always set and
    # never above 5, so an accepted draw runs in this process in moments.
    wild = data.draw(st.sets(st.sampled_from(sorted(SIMULATE_OPTIONS)), max_size=2), "wild")
    algorithm = data.draw(st.sampled_from(["kmeans", "hc", "hc-h", "hc-hp"]))
    args = ["simulate", f"--algorithm={algorithm}"]
    for name, accepted in SIMULATE_OPTIONS.items():
        if name in wild:
            args.append(f"--{name}={data.draw(WILD_STEPS if name == 'steps' else WILD, name)}")
        elif name == "steps" or data.draw(st.booleans()):
            args.append(f"--{name}={data.draw(accepted, name)}")
    code, out, err = run_main(args, capsys)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        assert re.fullmatch(r"rho=\d\.\d{6} seed=\d+ wall_time_s=\d+\.\d{3}\n", out)
    else:
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestSweep:
    def test_wires_arguments_through(self, tmp_path, capsys, monkeypatch):
        captured = {}
        real_run_sweep = harness.run_sweep

        def spy(spec: SweepSpec, jobs: int = 1):
            captured["spec"] = spec
            captured["jobs"] = jobs
            import dataclasses

            small = dataclasses.replace(
                spec,
                values=(5.0,),
                controllers=spec.controllers[:1],
                runs_per_cell=1,
                base=dataclasses.replace(
                    spec.base, steps=60, n_vertices=10, n_observers=3, n_targets=4
                ),
            )
            return real_run_sweep(small)

        monkeypatch.setattr(harness, "run_sweep", spy)
        code, out, err = run_main(
            ["sweep", "--vary", "sr", "--runs", "4", "--base-seed", "9",
             "--jobs", "2", "--out-dir", str(tmp_path)],
            capsys,
        )
        assert code == 0, err
        assert captured["spec"].varied == "sr"
        assert captured["spec"].runs_per_cell == 4
        assert captured["spec"].base_seed == 9
        assert captured["jobs"] == 2
        lines = out.strip().splitlines()
        assert lines == [str(tmp_path / "sr_runs.csv"), str(tmp_path / "sr_summary.csv")]
        assert (tmp_path / "sr_runs.csv").is_file()
        assert (tmp_path / "sr_summary.csv").is_file()

    def test_only_vary_builds_the_default_spec(self, capsys, monkeypatch):
        # the defaults live in SweepSpec and run_sweep alone, so jobs is
        # passed only when it is given
        calls = []
        monkeypatch.setattr(harness, "run_sweep", lambda spec, **kw: calls.append((spec, kw)) or _stop())
        assert run_main(["sweep", "--vary", "sr"], capsys) == (1, "", "error: stopped\n")
        assert calls == [(SweepSpec(varied="sr"), {})]

    def test_jobs_below_one_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "run_simulation", lambda cfg: pytest.fail("a run started"))
        code, out, err = run_main(["sweep", "--vary", "sr", "--jobs", "-1", "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: jobs must be >= 1, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--runs", "2.5", "runs_per_cell must be an integer, got 2.5"),
            ("--runs", "nan", "runs_per_cell must be an integer, got nan"),
            ("--runs", "0", "runs_per_cell must be >= 1, got 0"),
            ("--base-seed", "2.5", "base_seed must be an integer, got 2.5"),
            ("--base-seed", "1e400", "base_seed must be an integer, got inf"),
            ("--base-seed", "-1", "base_seed must be >= 0, got -1"),
            ("--jobs", "2.5", "jobs must be an integer, got 2.5"),
            ("--jobs", "inf", "jobs must be an integer, got inf"),
            ("--jobs", "100000", f"jobs must be at most {harness.MAX_JOBS}, got 100000"),
            ("--runs", "1000000000", f"runs_per_cell must be at most {harness.MAX_RUNS_PER_CELL}, got 1000000000"),
        ],
    )
    def test_bad_count_is_one_error_line(self, tmp_path, capsys, monkeypatch, option, value, message):
        # no run and no worker pool may start: every value here is rejected
        # while the sweep is being set up
        monkeypatch.setattr(harness, "run_simulation", lambda cfg: pytest.fail("a run started"))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda **kw: pytest.fail("a pool started"))
        code, out, err = run_main(["sweep", "--vary", "sr", option, value, "--out-dir", str(tmp_path)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_vary_is_required(self):
        with pytest.raises(SystemExit):
            cli.main(["sweep"])


class TestPlot:
    SUMMARY = "controller,varied_param,value,m,sd,runs\nhc,ur,1,0.5,0.01,2\nhc,rv,0.5,0.4,0.02,2\n"

    def test_prints_one_png_path_per_parameter(self, tmp_path, capsys, fake_matplotlib):
        csv_path = tmp_path / "ur_summary.csv"
        csv_path.write_text(self.SUMMARY)
        code, out, err = run_main(["plot", "--summary", str(csv_path)], capsys)
        assert (code, err) == (0, "")
        assert out == f"{tmp_path / 'rho_vs_ur.png'}\n{tmp_path / 'rho_vs_rv.png'}\n"
        assert len(fake_matplotlib.figures) == 2

    def test_missing_matplotlib_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        csv_path = tmp_path / "ur_summary.csv"
        csv_path.write_text(self.SUMMARY)
        monkeypatch.setitem(sys.modules, "matplotlib", None)  # makes its import fail
        code, out, err = run_main(["plot", "--summary", str(csv_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "matplotlib" in err

    def test_missing_csv_is_one_error_line(self, tmp_path, capsys):
        code, out, err = run_main(["plot", "--summary", str(tmp_path / "nope.csv")], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / "nope.csv") in err


def test_missing_subcommand_exits_via_parser():
    with pytest.raises(SystemExit):
        cli.main([])


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ctosim"] + SIM_ARGS,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rho=")


@pytest.mark.skipif(
    not importlib.metadata.entry_points(group="console_scripts", name="ctosim"),
    reason="the ctosim distribution is not installed, so there is no 'ctosim' "
    "console script; install it with `pip install -e .`",
)
def test_console_script_runs():
    proc = subprocess.run(
        ["ctosim"] + SIM_ARGS, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rho=")

"""Command-line interface tests: wiring, output shape, error behavior."""

from __future__ import annotations

import importlib.metadata
import re
import subprocess
import sys

import pytest

import ctosim.cli as cli
from ctosim.harness import SweepSpec


def run_main(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert err.startswith("error: target speed must be in (0, ")
        assert err.count("\n") == 1

    def test_unknown_algorithm_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--algorithm", "dqn"])


class TestSweep:
    def test_wires_arguments_through(self, tmp_path, capsys, monkeypatch):
        captured = {}
        real_run_sweep = cli.run_sweep

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

        monkeypatch.setattr(cli, "run_sweep", spy)
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

    def test_vary_is_required(self):
        with pytest.raises(SystemExit):
            cli.main(["sweep"])


class TestPlot:
    def test_emits_script_next_to_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "ur_summary.csv"
        csv_path.write_text("controller,varied_param,value,m,sd,runs\nhc,ur,1,0.5,0.01,2\n")
        code, out, err = run_main(["plot", "--summary", str(csv_path)], capsys)
        assert code == 0
        assert out.strip() == str(tmp_path / "ur_summary_plot.py")

    def test_missing_csv_is_one_error_line(self, tmp_path, capsys):
        code, out, err = run_main(["plot", "--summary", str(tmp_path / "nope.csv")], capsys)
        assert code == 1
        assert err.startswith("error: ")


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

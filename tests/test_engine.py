"""Simulation-loop tests: scheduling, seeding, determinism, accounting."""

from __future__ import annotations

import dataclasses
import fractions
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctosim.controllers as controllers
import ctosim.engine as engine
from ctosim.controllers import ControllerKind
from ctosim.engine import (
    SimConfig,
    run_simulation,
    update_period,
)
from ctosim.geometry import Point
from ctosim.world import ARENA, MAX_SPEED

from oracles import reference_run

# a deliberately small world so each run takes milliseconds
SMALL = dict(steps=150, n_vertices=12, n_observers=4, n_targets=6)


class TestSimConfigValidation:
    def test_defaults_are_the_benchmark_setup(self):
        cfg = SimConfig()
        assert (cfg.width, cfg.height) == (150.0, 150.0)
        assert cfg.steps == 1500
        assert (cfg.n_observers, cfg.n_targets, cfg.n_vertices) == (12, 24, 40)
        assert (cfg.sr, cfg.rv, cfg.ur) == (15.0, 0.5, 0.25)
        assert cfg.controller is ControllerKind.HC_H
        assert cfg.horizon == 10
        # the arena's size, the candidate count and the perturbation are
        # constants of the model, not settings
        assert [f.name for f in dataclasses.fields(SimConfig)] == [
            "steps", "n_observers", "n_targets", "n_vertices", "sr", "rv", "ur", "controller", "horizon", "seed"
        ]
        assert ARENA == (SimConfig.width, SimConfig.height)
        assert [f.name for f in dataclasses.fields(controllers.ControlInput)] == [
            "observer_points", "current_destinations", "target_eval_points", "sr", "rng"
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sr=-15.0),
            dict(steps=0),
            dict(n_observers=0),
            dict(n_targets=0),
            dict(n_vertices=2),
            dict(sr=0.0),
            dict(rv=0.0),
            dict(ur=0.0),
            dict(ur=1.5),
            dict(rv=-0.5),
            dict(horizon=-1),
            dict(rv=math.inf),
            dict(sr=math.nan),
            dict(rv=math.nan),
            dict(sr=-math.inf),
            dict(ur=math.nan),
            dict(ur=math.inf),
            dict(ur=-0.25),
            dict(sr=True),
            dict(sr="15"),
            dict(steps=True),
            dict(steps=10.0),
            dict(n_targets=False),
            dict(n_vertices=40.0),
            dict(horizon=None),
            dict(seed=1.0),
            dict(seed=-1),
            dict(rv=1e12),
            dict(n_vertices=101),
            dict(n_observers=1001),
            dict(n_targets=1001),
            dict(controller="kmeans"),
            dict(controller=None),
            # both passed here, then raised OverflowError in the run
            dict(ur=5e-324),
            dict(controller=ControllerKind.HC_HP, horizon=10**400),
            # each raised OverflowError from math.isfinite
            dict(sr=10**400),
            dict(rv=10**400),
            dict(ur=10**400),
            # raised ZeroDivisionError: 1.0 / ur rounds the rate to 0.0
            dict(ur=fractions.Fraction(1, 10**400)),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_dispatch_rejects_an_unknown_controller(self):
        # a config that got past the check must fail, not run as hc-hp
        cfg = SimConfig(steps=5, seed=0)
        object.__setattr__(cfg, "controller", "kmeans")
        with pytest.raises(ValueError, match="unknown controller 'kmeans'"):
            run_simulation(cfg)

    def test_accepts_integer_lengths_and_numpy_integers(self):
        cfg = SimConfig(sr=15, steps=np.int64(10), seed=np.int64(3))
        assert run_simulation(cfg).rho == run_simulation(SimConfig(steps=10, seed=3)).rho


class TestUpdateSchedule:
    def test_period_values(self):
        assert update_period(1.0) == 1
        assert update_period(0.5) == 2
        assert update_period(0.25) == 4
        assert update_period(0.1) == 10
        assert update_period(0.05) == 20

    @staticmethod
    def _controller_times(monkeypatch, ur, steps):
        """The steps t at which run_simulation invokes the controller.

        The engine senses once per step after motion, so the number of
        sensing calls so far is the t of the step the controller starts.
        """
        sensed, hits = [], []

        def count_sense(*args):
            sensed.append(None)
            return observe(*args)

        def record_call(*args, **kwargs):
            hits.append(len(sensed))
            return control(*args, **kwargs)

        observe, control = engine.observation_matrix, engine.hc_h_control
        with monkeypatch.context() as patch:
            patch.setattr(engine, "observation_matrix", count_sense)
            patch.setattr(engine, "hc_h_control", record_call)
            run_simulation(SimConfig(**dict(SMALL, steps=steps), ur=ur, controller=ControllerKind.HC_H))
        return hits

    def test_should_update_pattern(self, monkeypatch):
        hits = self._controller_times(monkeypatch, 0.25, 12)
        assert hits == [0, 4, 8]
        every = self._controller_times(monkeypatch, 1.0, 5)
        assert all(t in every for t in range(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            update_period(0.0)


class TestRunSimulation:
    def test_identical_runs_are_identical(self):
        cfg = SimConfig(seed=5, **SMALL)
        a = run_simulation(cfg, record_counts=True)
        b = run_simulation(cfg, record_counts=True)
        assert a.rho == b.rho
        assert a.observed_counts == b.observed_counts

    def test_time_accounting(self):
        cfg = SimConfig(seed=2, **SMALL)
        r = run_simulation(cfg, record_counts=True)
        assert len(r.observed_counts) == cfg.steps
        assert r.rho == sum(r.observed_counts) / cfg.steps / cfg.n_targets
        # the time average of the per-step fractions observed
        fractions_seen = [c / cfg.n_targets for c in r.observed_counts]
        assert math.isclose(r.rho, float(np.mean(fractions_seen)), rel_tol=1e-12)
        # plain Python numbers, not numpy scalars, however the engine counts
        assert type(r.rho) is float
        assert all(type(c) is int for c in r.observed_counts)
        assert 0.0 <= r.rho <= 1.0
        assert r.config.seed == 2
        assert r.config is cfg
        assert r.wall_time > 0.0

    def test_observers_start_at_rest(self, monkeypatch):
        # one point per observer, its position and destination one object, so
        # step_observer's at-rest rule holds from step 0
        inputs = []

        def record_call(inp, *args):
            inputs.append(inp)
            return control(inp, *args)

        control = engine.hc_control
        monkeypatch.setattr(engine, "hc_control", record_call)
        run_simulation(SimConfig(seed=2, controller=ControllerKind.HC, **SMALL))
        first = inputs[0]
        assert all(p is d for p, d in zip(first.observer_points, first.current_destinations, strict=True))

    def test_counts_not_kept_unless_asked(self):
        r = run_simulation(SimConfig(seed=2, **SMALL))
        assert r.observed_counts is None
        assert r.target_trace is None

    def test_target_motion_shared_across_controllers(self):
        # same seed, different controller: the world must be identical, so
        # paired comparisons isolate the controller itself
        traces = []
        for kind in (ControllerKind.KMEANS, ControllerKind.HC, ControllerKind.HC_HP):
            cfg = SimConfig(seed=9, controller=kind, **SMALL)
            traces.append(run_simulation(cfg, record_targets=True).target_trace)
        assert traces[0] == traces[1] == traces[2]

    def test_target_trace_holds_points(self):
        # positions are plain pairs inside the loop; the recorded trace is
        # public and holds Points
        trace = run_simulation(SimConfig(seed=2, **SMALL), record_targets=True).target_trace
        assert len(trace) == SMALL["steps"]
        assert all(len(step) == SMALL["n_targets"] for step in trace)
        assert all(isinstance(p, Point) for step in trace for p in step)

    def test_horizon_is_inert_for_non_predictive_controllers(self):
        base = SimConfig(seed=4, controller=ControllerKind.HC_H, **SMALL)
        other = dataclasses.replace(base, horizon=0)
        assert run_simulation(base).rho == run_simulation(other).rho

    def test_full_coverage_when_sensor_spans_the_arena(self):
        cfg = SimConfig(seed=1, sr=150.0 * math.sqrt(2.0), **SMALL)
        assert run_simulation(cfg).rho == 1.0

    def test_every_controller_runs(self):
        for kind in ControllerKind:
            cfg = SimConfig(seed=3, controller=kind, **SMALL)
            r = run_simulation(cfg)
            assert 0.0 <= r.rho <= 1.0

    def test_rarer_updates_cannot_help_much(self):
        # a light sanity check at small scale: updating every step should do
        # at least roughly as well as updating every 20 steps
        seeds = range(4)
        fast = np.mean(
            [run_simulation(SimConfig(seed=s, ur=1.0, **SMALL)).rho for s in seeds]
        )
        slow = np.mean(
            [run_simulation(SimConfig(seed=s, ur=0.05, **SMALL)).rho for s in seeds]
        )
        assert fast >= slow - 0.02


# rho.hex() per controller for seeds 0-3 at steps=300, other settings default.
# The values were taken before the coverage and spread kernels were merged;
# any change to them is a change of behaviour and must be explained.
GOLDEN_RHO = {
    "kmeans": ("0x1.881b4e81b4e81p-1", "0x1.8666666666667p-1", "0x1.8b05b05b05b05p-1", "0x1.6eb851eb851ecp-1"),
    "hc": ("0x1.4ca8641fdb975p-1", "0x1.5555555555555p-1", "0x1.5147ae147ae15p-1", "0x1.4da740da740dbp-1"),
    "hc-h": ("0x1.51907f6e5d4c4p-1", "0x1.4a3d70a3d70a4p-1", "0x1.4a987654320ffp-1", "0x1.5320fedcba987p-1"),
    "hc-hp": ("0x1.60eca8641fdb9p-1", "0x1.6f0123456789bp-1", "0x1.5eeeeeeeeeeefp-1", "0x1.56af37c048d15p-1"),
}


@pytest.mark.parametrize("kind", list(ControllerKind), ids=lambda k: k.value)
def test_rho_is_bitwise_pinned(kind):
    got = tuple(
        run_simulation(SimConfig(controller=kind, steps=300, seed=s)).rho.hex() for s in range(4)
    )
    assert got == GOLDEN_RHO[kind.value]


# rho.hex() for the hill climbers updating on every step (ur=1.0), seeds 0-3
# at steps=300, other settings default. Every call scores candidates there,
# so these pin the climbers' per-call path, the spread tie-break included,
# where GOLDEN_RHO's ur=0.25 calls it on a quarter of the steps.
GOLDEN_RHO_EVERY_STEP = {
    "hc": ("0x1.5e6f8091a2b3cp-1", "0x1.5e81b4e81b4e8p-1", "0x1.7cccccccccccdp-1", "0x1.77654320fedccp-1"),
    "hc-h": ("0x1.7468acf13579cp-1", "0x1.6c16c16c16c17p-1", "0x1.6f37c048d159fp-1", "0x1.4a8641fdb9753p-1"),
    "hc-hp": ("0x1.8e4b17e4b17e5p-1", "0x1.8b851eb851eb8p-1", "0x1.8bf258bf258bfp-1", "0x1.6db97530eca87p-1"),
}


@pytest.mark.parametrize("label", sorted(GOLDEN_RHO_EVERY_STEP))
def test_rho_is_bitwise_pinned_when_updating_every_step(label):
    kind = ControllerKind.parse(label)
    got = tuple(
        run_simulation(SimConfig(controller=kind, ur=1.0, steps=300, seed=s)).rho.hex()
        for s in range(4)
    )
    assert got == GOLDEN_RHO_EVERY_STEP[label]


# rho.hex() for fast targets, seeds 0-3 at steps=300, other settings default.
# At rv=0.9 with rare updates (ur=0.05) the world step is most of the run; at
# rv=60 a target crosses several vertices in one step and hc-hp's prediction
# is held at the vertex ahead. Taken before the world step was reworked.
FAST_SETTINGS = {"rv=0.9 ur=0.05": dict(rv=0.9, ur=0.05), "rv=60": dict(rv=60.0)}
GOLDEN_RHO_FAST = {
    ("kmeans", "rv=0.9 ur=0.05"): ("0x1.289abcdf01235p-1", "0x1.28091a2b3c4d6p-1", "0x1.3444444444444p-1", "0x1.21b4e81b4e81bp-1"),
    ("kmeans", "rv=60"): ("0x1.edf0123456789p-2", "0x1.e369d0369d037p-2", "0x1.062fc962fc963p-1", "0x1.fb2a1907f6e5dp-2"),
    ("hc-hp", "rv=0.9 ur=0.05"): ("0x1.cda740da740dbp-2", "0x1.df92c5f92c5f9p-2", "0x1.e5b05b05b05b0p-2", "0x1.cacf13579be03p-2"),
    ("hc-hp", "rv=60"): ("0x1.9e93e93e93e94p-2", "0x1.7edcba9876543p-2", "0x1.c1d950c83fb73p-2", "0x1.a8641fdb97531p-2"),
}


@pytest.mark.parametrize("label, setting", sorted(GOLDEN_RHO_FAST))
def test_rho_is_bitwise_pinned_for_fast_targets(label, setting):
    kind = ControllerKind.parse(label)
    got = tuple(
        run_simulation(SimConfig(controller=kind, steps=300, seed=s, **FAST_SETTINGS[setting])).rho.hex()
        for s in range(4)
    )
    assert got == GOLDEN_RHO_FAST[(label, setting)]


# 120 examples take 2–4 s on a 2-core Xeon VM.
@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    controller=st.sampled_from(list(ControllerKind)),
    n_vertices=st.integers(min_value=3, max_value=40),
    n_observers=st.integers(min_value=1, max_value=30),
    n_targets=st.integers(min_value=1, max_value=30),
    sr=st.floats(min_value=0.5, max_value=220.0),
    rv=st.one_of(st.floats(min_value=0.01, max_value=2.0), st.floats(min_value=2.0, max_value=MAX_SPEED)),
    ur=st.floats(min_value=0.01, max_value=1.0),
    horizon=st.integers(min_value=0, max_value=30),
    steps=st.integers(min_value=1, max_value=200),
)
def test_run_equals_the_reference_engine(**fields):
    # the scalar world steps, the loop counter and the engine's order (control,
    # targets, observers, sensing after motion) give the same rho bit for bit
    cfg = SimConfig(**fields)
    assert run_simulation(cfg).rho.hex() == reference_run(cfg).hex()


def test_world_calls_go_through_the_engine_module_names(monkeypatch):
    # Profilers and the benchmark's tracer wrap these module attributes; a
    # call that bypasses them (a name bound elsewhere at import time) would
    # silently hide its time and arguments. The tracer also reads a hill
    # climber's candidate count from its second positional argument.
    base = SimConfig(steps=40, seed=6, n_observers=5, n_targets=7)
    expected = {kind: run_simulation(dataclasses.replace(base, controller=kind)).rho for kind in ControllerKind}
    world = ("step_target", "target_point", "step_observer", "observation_matrix")
    control = {kind: kind.value.replace("-", "_") + "_control" for kind in ControllerKind}
    calls = {name: [] for name in world + tuple(control.values())}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(engine, name, recording(name, getattr(engine, name)))
    for kind in ControllerKind:
        for log in calls.values():
            log.clear()
        cfg = dataclasses.replace(base, controller=kind)
        rho = run_simulation(cfg).rho
        assert {name: len(log) for name, log in calls.items()} == dict.fromkeys(calls, 0) | {
            "step_target": cfg.steps * cfg.n_targets,
            "target_point": (cfg.steps + 1) * cfg.n_targets,
            "step_observer": cfg.steps * cfg.n_observers,
            "observation_matrix": cfg.steps,
            control[kind]: math.ceil(cfg.steps / update_period(cfg.ur)),
        }
        if kind is not ControllerKind.KMEANS:
            assert {args[1] for args in calls[control[kind]]} == {controllers.N_CANDIDATES}
        assert rho.hex() == expected[kind].hex()


def test_engine_imports_only_plain_ctosim_functions():
    # The benchmark's tracer wraps only the ctosim functions the engine
    # imports for which inspect.isfunction holds; a decorated one (an
    # lru_cache, say) would run untraced and leave its captures empty.
    imported = {
        name: obj
        for name, obj in vars(engine).items()
        if callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", "").startswith("ctosim.")
        and obj.__module__ != "ctosim.engine"
    }
    assert {"generate_random_graph", "step_target", "hc_hp_control"} <= set(imported)
    assert [name for name, obj in imported.items() if not inspect.isfunction(obj)] == []
    # The tracer's layers split the run time over these functions alone, so
    # any other helper (an input rule, say) is called through its module.
    layered = {
        "generate_random_graph", "random_target_state", "step_target", "target_point",
        "step_observer", "observation_matrix",
        "kmeans_control", "hc_control", "hc_h_control", "hc_hp_control",
    }
    assert set(imported) <= layered, (
        f"the engine imports {sorted(set(imported) - layered)} by name: the benchmark's"
        " tracer wraps it, no layer claims its time, and the traced pass crashes"
    )

"""The traced pass: spans around the program's layer calls, and the captures
that the output checks read.

``Tracer.install`` replaces, for the length of one pass, every ``ctosim``
function that ``ctosim.engine`` imports, plus
``ctosim.world.delaunay_triangulate``, ``ctosim.controllers.predict_target``
and ``ctosim.harness.run_simulation`` (and ``ctosim.engine.run_simulation``,
which the single-run workloads call). Each wrapper records a span (name,
start, end, parent) in flat arrays and, for a few names, keeps its
arguments and result for the checks. Spans are timed on the interleaver's
work clock, so reference chunks and paused checks never land in them.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import checks

CONTROLLER_NAMES = ("kmeans_control", "hc_control", "hc_h_control", "hc_hp_control")
HILL_CLIMBERS = CONTROLLER_NAMES[1:]
RUN = "engine.run_simulation"
SWEEP = "harness.run_sweep"
CSV = "harness.emit_csv"
#: Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "geometry.triangulate_s": "s",
    "geometry.triangulations": "count",
    "world.graph_s": "s",
    "world.target_steps": "count",
    "world.target_step_s": "s",
    "world.crossings": "count",
    "world.interp_s": "s",
    "world.observer_steps": "count",
    "world.observer_step_s": "s",
    "world.observer_gap_mean": "length",
    "world.predict_calls": "count",
    "world.predict_s": "s",
    "metrics.sense_calls": "count",
    "metrics.sense_s": "s",
    "metrics.blind_ratio": "1",
    "controllers.calls": "count",
    "controllers.time_s": "s",
    "controllers.candidates": "count",
    "controllers.improved": "count",
    "controllers.spread": "count",
    "controllers.kept": "count",
    "controllers.adopt_ratio": "1",
    "engine.steps": "count",
    "engine.self_s": "s",
    "harness.self_s": "s",
    "harness.csv_s": "s",
    "trace.overhead_ref": "ref",
}
#: The layers whose times add up to the traced run time.
RUN_LAYERS = ("world.graph_s", "world.target_step_s", "world.interp_s", "world.observer_step_s",
              "metrics.sense_s", "controllers.time_s", "engine.self_s")
#: Steps of each traced run whose target positions are kept for the
#: cross-controller comparison.
TRACE_PREFIX = 100


def run_key(cfg) -> tuple:
    """Identity of a run inside a workload round."""
    return (cfg.controller.value, cfg.sr, cfg.rv, cfg.ur, cfg.steps, cfg.seed)


class _RunCapture:
    """What one traced run left behind for the checks."""

    def __init__(self):
        self.graph = None
        self.sensed = []
        self.placed = []
        self.moves = []
        self.calls = []
        self.predicted = []
        self.crossings = 0


class Tracer:
    """Span recorder and capture store for one traced pass."""

    def __init__(self, clock, paused):
        self.clock = clock
        self.paused = paused
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._run: _RunCapture | None = None
        # Results per traced run, filled as each run ends.
        self.run_errors: dict[tuple, list[str]] = {}
        self.prefixes: dict[tuple, tuple] = {}
        self.counts = Counter()
        self.gap_sum = 0.0

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        """A span around benchmark-side code, such as one call into the harness."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        try:
            yield
        finally:
            self.end[idx] = self.clock()
            self._stack.pop()

    def _wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        # The bookkeeping of span() inlined: this runs on every wrapped call,
        # and a context manager would double the tracer's per-call cost.
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return wrapper

    def _patch(self, module, attr: str, name: str, hook=None) -> None:
        fn = getattr(module, attr)
        self._patched.append((module, attr, fn))
        setattr(module, attr, self._wrap(name, fn, hook))

    # -- installation ------------------------------------------------------

    def install(self, ck) -> None:
        """Wrap the layer boundaries of the ``ctosim`` package ``ck``."""
        hooks = {
            "generate_random_graph": self._on_graph,
            "observation_matrix": self._on_sense,
            "target_point": self._on_place,
            "step_target": self._on_target_step,
            "step_observer": self._on_observer_step,
        }
        hooks.update((attr, self._controller_hook(attr)) for attr in CONTROLLER_NAMES)
        for attr, obj in sorted(vars(ck.engine).items()):
            module = getattr(obj, "__module__", "") if inspect.isfunction(obj) else ""
            if module.startswith("ctosim.") and module != "ctosim.engine":
                self._patch(ck.engine, attr, f"{module.split('.')[-1]}.{attr}", hooks.get(attr))
        self._patch(ck.world, "delaunay_triangulate", "geometry.delaunay_triangulate")
        self._patch(ck.controllers, "predict_target", "world.predict_target", self._on_predict)
        run = self._wrap(RUN, ck.engine.run_simulation, self._on_run_end)
        traced_run = self._run_boundary(run)
        for module in (ck.engine, ck.harness):
            self._patched.append((module, "run_simulation", getattr(module, "run_simulation")))
            setattr(module, "run_simulation", traced_run)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- captures ----------------------------------------------------------

    def _run_boundary(self, run):
        def traced_run(cfg, *args, **kwargs):
            self._run = _RunCapture()
            try:
                return run(cfg, *args, **kwargs)
            finally:
                self._run = None

        return traced_run

    def _on_graph(self, args, kwargs, out):
        self._run.graph = out

    def _on_sense(self, args, kwargs, out):
        self._run.sensed.append((args[0], args[1], args[2]))

    def _on_place(self, args, kwargs, out):
        self._run.placed.append((args[1], out))

    def _on_target_step(self, args, kwargs, out):
        before = args[1]
        if out.edge != before.edge or out.toward != before.toward:
            self._run.crossings += 1

    def _on_observer_step(self, args, kwargs, out):
        self._run.moves.append((args[0], out))

    def _on_predict(self, args, kwargs, out):
        self._run.predicted.append(out)

    def _controller_hook(self, attr: str):
        def hook(args, kwargs, out):
            run = self._run
            inp = args[0]
            if attr == "hc_hp_control":
                eval_points, run.predicted = tuple(run.predicted), []
            else:
                eval_points = inp.target_eval_points
            candidates = 0 if attr == "kmeans_control" else args[1]
            run.calls.append((attr, inp.current_destinations, out, eval_points, inp.sr, candidates))

        return hook

    def _on_run_end(self, args, kwargs, result):
        """Check the run that just ended, on a paused work clock."""
        with self.paused():
            self._check_run(args[0], result, self._run)

    def _check_run(self, cfg, result, run: _RunCapture) -> None:
        counts = self.counts
        errors, blind = checks.check_rho(run.sensed, cfg.n_targets, cfg.steps, result.rho)
        errors += checks.check_on_edges(run.graph, run.placed)
        move_errors, gap_sum = checks.check_observer_moves(run.moves)
        errors += move_errors
        for attr, current, chosen, eval_points, sr, candidates in run.calls:
            outcome, before, after = checks.classify_call(current, chosen, eval_points, sr)
            counts[outcome] += 1
            counts["candidates"] += candidates
            if attr in HILL_CLIMBERS:
                errors += checks.check_hill_climb(before, after)
        counts["crossings"] += run.crossings
        counts["observer_steps"] += len(run.moves)
        counts["blind"] += blind
        counts["observer_sense_steps"] += len(run.sensed) * cfg.n_observers
        counts["steps"] += len(run.sensed)
        self.gap_sum += gap_sum
        key = run_key(cfg)
        self.run_errors[key] = errors
        self.prefixes[key] = tuple(tuple(targets) for _, targets, _ in run.sensed[:TRACE_PREFIX])

    # -- results -----------------------------------------------------------

    def _spans(self):
        name = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, dur, dur - child

    def layer_metrics(self, overhead_ref: float) -> dict[str, float]:
        """Per-layer totals over the traced pass."""
        name, dur, self_time = self._spans()
        if len(dur) and float(self_time.min()) < -1e-6:
            raise RuntimeError("a span's children outlast it: the trace is inconsistent")
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        for i, n in enumerate(self.names):
            mask = name == i
            total[n] = float(dur[mask].sum())
            own[n] = float(self_time[mask].sum())
            calls[n] = int(mask.sum())
        controllers = [f"controllers.{a}" for a in CONTROLLER_NAMES]
        c = self.counts
        ctrl_calls = sum(calls[n] for n in controllers)
        adopted = c["improved"] + c["spread"]
        out = {
            "geometry.triangulate_s": total["geometry.delaunay_triangulate"],
            "geometry.triangulations": calls["geometry.delaunay_triangulate"],
            "world.graph_s": total["world.generate_random_graph"] + total["world.random_target_state"],
            "world.target_steps": calls["world.step_target"],
            "world.target_step_s": total["world.step_target"],
            "world.crossings": c["crossings"],
            "world.interp_s": total["world.target_point"],
            "world.observer_steps": calls["world.step_observer"],
            "world.observer_step_s": total["world.step_observer"],
            "world.observer_gap_mean": self.gap_sum / c["observer_steps"] if c["observer_steps"] else 0.0,
            "world.predict_calls": calls["world.predict_target"],
            "world.predict_s": total["world.predict_target"],
            "metrics.sense_calls": sum(calls[n] for n in _SENSE),
            "metrics.sense_s": sum(total[n] for n in _SENSE),
            "metrics.blind_ratio": c["blind"] / c["observer_sense_steps"] if c["observer_sense_steps"] else 0.0,
            "controllers.calls": ctrl_calls,
            "controllers.time_s": sum(total[n] for n in controllers),
            "controllers.candidates": c["candidates"],
            "controllers.improved": c["improved"],
            "controllers.spread": c["spread"],
            "controllers.kept": c["kept"],
            "controllers.adopt_ratio": adopted / ctrl_calls if ctrl_calls else 0.0,
            "engine.steps": c["steps"],
            "engine.self_s": own[RUN],
            "harness.self_s": own[SWEEP],
            "harness.csv_s": total[CSV],
            "trace.overhead_ref": overhead_ref,
        }
        accounted = sum(out[k] for k in RUN_LAYERS)
        if abs(accounted - total[RUN]) > 1e-6 * max(total[RUN], 1.0):
            raise RuntimeError(
                f"layer split covers {accounted:.6f} s of {total[RUN]:.6f} s traced run time;"
                f" some child span is not attributed to a layer"
            )
        return out

    def write(self, path: Path) -> None:
        """Write every span to an ``.npz``: the name table, and per span its
        name index, parent span index (-1 at top level), start and end."""
        np.savez(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


_SENSE = ("metrics.observation_matrix", "metrics.accumulate", "metrics.finalize_rho")

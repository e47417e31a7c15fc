"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Criteria 1-6 are property checks that run in seconds. Criteria 7-10 share a
benchmark grid (three sweeps x four controllers x five values x twenty seeds,
full-size worlds) that takes minutes. It is built once per session by one
run_configs call on up to four worker processes, which runs each distinct
config once: 1040 runs for 1200 records, since the sweeps share their median
cell. Criterion 9 is a soft value check: a miss is
reported with the per-seed breakdown but never fails the build.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from scipy import stats

from ctosim.controllers import (
    ControlInput,
    ControllerKind,
    hc_control,
    hc_h_control,
    hc_hp_control,
)
from ctosim.engine import SimConfig, run_simulation
from ctosim.geometry import Point, delaunay_triangulate, triangulation_edges
from ctosim.harness import RunRecord, SweepResult, SweepSpec, emit_csv, run_configs, run_sweep
from ctosim.metrics import mean_pairwise_observer_distance, observation_matrix
from ctosim.world import (
    TargetState,
    generate_random_graph,
    predict_target,
    random_target_state,
    step_target,
    target_point,
)
from oracles import delaunay_violations, observed_count_loops, segments_cross


# ---------------------------------------------------------------------------
# shared benchmark grid (criteria 7-10)


@pytest.fixture(scope="session")
def grid():
    """Per-run records, with the summaries derived from them, for all three standard sweeps.

    Each sweep holds the other two parameters at their medians, so all three
    hold the median cell (sr 15, rv 0.5, ur 0.25). One run_configs call runs
    each distinct config of the three once, 1040 of 1200, and each sweep looks
    its records up in its own run order, as run_sweep does.
    """
    specs = [SweepSpec(varied=varied) for varied in ("sr", "rv", "ur")]
    runs = run_configs([cfg for spec in specs for cfg in spec.configs], jobs=min(4, os.cpu_count() or 1))
    return {spec.varied: SweepResult(spec.varied, tuple(RunRecord(runs[cfg]) for cfg in spec.configs))
            for spec in specs}


def _cell_mean(sweep, controller: ControllerKind, value: float) -> float:
    for cell in sweep.summaries:
        if cell.controller is controller and cell.value == value:
            return cell.m
    raise KeyError((controller, value))


def _cell_rhos(sweep, controller: ControllerKind, value: float) -> list[tuple[int, float]]:
    return [
        (r.result.config.seed, r.result.rho)
        for r in sweep.records
        if r.result.config.controller is controller and getattr(r.result.config, sweep.varied) == value
    ]


# ---------------------------------------------------------------------------
# criterion 1: triangulation against brute force


def test_criterion_01_delaunay_oracle(criterion):
    rng = np.random.default_rng(0)
    violations = 0
    sets = 200
    for _ in range(sets):
        n = int(rng.integers(3, 51))
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0.0, 150.0, size=(n, 2))]
        try:
            tris = delaunay_triangulate(pts)
        except Exception:
            violations += 1
            continue
        raw = [(p.x, p.y) for p in pts]
        if delaunay_violations(raw, tris):
            violations += 1
            continue
        segs = [(raw[u], raw[v]) for u, v in triangulation_edges(tris)]
        crossing = any(
            segments_cross(*segs[i], *segs[j])
            for i in range(len(segs))
            for j in range(i + 1, len(segs))
        )
        violations += crossing
    status = "PASS" if violations == 0 else "FAIL"
    criterion(1, "empty circumcircles and planarity on 200 random sets", status,
              (f"{violations} violating sets out of {sets}",))
    assert violations == 0


# ---------------------------------------------------------------------------
# criterion 2: coverage fraction equals the direct double loop


def coverage(observers, targets, sr) -> float:
    """Fraction of targets seen by at least one observer."""
    return int(observation_matrix(observers, targets, sr).any(axis=0).sum()) / len(targets)


def test_criterion_02_coverage_oracle(criterion):
    rng = np.random.default_rng(1)
    mismatches = 0
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        obs = rng.uniform(0.0, 150.0, size=(n, 2))
        tgt = rng.uniform(0.0, 150.0, size=(m, 2))
        sr = float(rng.uniform(1.0, 40.0))
        got = coverage([Point(*p) for p in obs], [Point(*p) for p in tgt], sr)
        want = observed_count_loops(obs.tolist(), tgt.tolist(), sr) / m
        mismatches += got != want
    status = "PASS" if mismatches == 0 else "FAIL"
    criterion(2, "coverage fraction exact on 1000 small instances", status,
              (f"{mismatches} mismatches out of {trials}",))
    assert mismatches == 0


# ---------------------------------------------------------------------------
# criterion 3: target kinematics


def test_criterion_03_kinematics(criterion):
    graph = generate_random_graph(40, 2)
    rng = np.random.default_rng(3)

    bad_state = 0
    bad_displacement = 0
    steps_total = 10_000
    for _ in range(100):
        speed = float(rng.uniform(0.05, 1.0))
        s = random_target_state(graph, speed, rng)
        for _ in range(100):
            before = target_point(graph, s)
            s = step_target(graph, s, rng)
            u, v, length = graph.edges[s.edge][:3]
            if not (0.0 <= s.offset <= length and s.toward in (u, v)):
                bad_state += 1
            if math.dist(before, target_point(graph, s)) > speed + 1e-9:
                bad_displacement += 1

    # uniformity of the edge choice at one vertex, forced arrivals
    hub = max(range(len(graph.vertices)), key=lambda v: len(graph.adjacency[v]))
    incident = list(graph.adjacency[hub])
    k = len(incident)
    arrival = incident[0]
    length = graph.edges[arrival][2]
    crossings = 10_000
    counts = dict.fromkeys(incident, 0)
    for _ in range(crossings):
        s = TargetState(arrival, hub, length - 0.25, 0.5)
        counts[step_target(graph, s, rng).edge] += 1
    expected = crossings / k
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    crit = float(stats.chi2.ppf(0.99, k - 1))

    ok = bad_state == 0 and bad_displacement == 0 and chi2 < crit
    criterion(3, "on-edge invariants, displacement bound, uniform branching",
              "PASS" if ok else "FAIL",
              (f"{steps_total} steps: {bad_state} invariant breaks, "
               f"{bad_displacement} displacement breaks; "
               f"chi2={chi2:.2f} < {crit:.2f} at k={k}",))
    assert bad_state == 0
    assert bad_displacement == 0
    assert chi2 < crit


# ---------------------------------------------------------------------------
# criteria 4 and 5: controller guarantees


def _controller_instances(n_instances: int, seed0: int):
    """Random control problems; graphs are reused to keep setup cheap."""
    graphs = [generate_random_graph(12, g) for g in range(4)]
    rng = np.random.default_rng(seed0)
    for i in range(n_instances):
        g = graphs[i % len(graphs)]
        n = int(rng.integers(2, 13))
        m = int(rng.integers(1, 25))
        states = tuple(
            random_target_state(g, float(rng.uniform(0.1, 0.9)), rng) for _ in range(m)
        )
        dests = rng.uniform(0.0, 150.0, size=(n, 2))
        positions = rng.uniform(0.0, 150.0, size=(n, 2))
        sr = float(rng.uniform(2.0, 30.0))
        yield i, g, states, dests, positions, sr


def _mk_inp(dests, positions, pts, sr, seed):
    return ControlInput(
        observer_points=tuple(Point(*p) for p in positions),
        current_destinations=tuple(Point(*p) for p in dests),
        target_eval_points=tuple(pts),
        sr=sr,
        rng=np.random.default_rng(seed),
    )


def score(dests, targets, sr) -> tuple[float, float]:
    """A destination vector's (coverage, spread), scored as if observers
    already stood there; tuples compare lexicographically."""
    return coverage(dests, targets, sr), mean_pairwise_observer_distance(dests)


def test_criterion_04_hill_climb_never_worse(criterion):
    per_controller = 500
    worse = {"hc": 0, "hc-h": 0, "hc-hp": 0}
    for i, g, states, dests, positions, sr in _controller_instances(per_controller, 10):
        cur_pts = [target_point(g, s) for s in states]
        horizon = (0, 3, 10)[i % 3]
        pred_pts = [predict_target(g, s, horizon) for s in states]

        out = hc_control(_mk_inp(dests, positions, cur_pts, sr, 7_000 + i), 100)
        if (
            score(out, cur_pts, sr)
            < score([Point(*p) for p in dests], cur_pts, sr)
        ):
            worse["hc"] += 1

        out = hc_h_control(_mk_inp(dests, positions, cur_pts, sr, 8_000 + i), 100)
        if (
            score(out, cur_pts, sr)
            < score([Point(*p) for p in dests], cur_pts, sr)
        ):
            worse["hc-h"] += 1

        out = hc_hp_control(
            _mk_inp(dests, positions, cur_pts, sr, 9_000 + i), 100, horizon, g, states
        )
        if (
            score(out, pred_pts, sr)
            < score([Point(*p) for p in dests], pred_pts, sr)
        ):
            worse["hc-hp"] += 1

    total_worse = sum(worse.values())
    criterion(4, "hill-climb score never lexicographically drops",
              "PASS" if total_worse == 0 else "FAIL",
              (f"500 invocations per controller; regressions: {worse}",))
    assert total_worse == 0


def test_criterion_05_horizon_zero_reduction(criterion):
    differing = 0
    pairs = 100
    for i, g, states, dests, positions, sr in _controller_instances(pairs, 20):
        cur_pts = [target_point(g, s) for s in states]
        a = hc_hp_control(_mk_inp(dests, positions, cur_pts, sr, 30_000 + i), 100, 0, g, states)
        b = hc_h_control(_mk_inp(dests, positions, cur_pts, sr, 30_000 + i), 100)
        differing += a != b
    criterion(5, "horizon 0 reproduces the plain dispersion climber bitwise",
              "PASS" if differing == 0 else "FAIL",
              (f"{differing} of {pairs} paired invocations differed",))
    assert differing == 0


# ---------------------------------------------------------------------------
# criterion 6: determinism end to end


def test_criterion_06_determinism(criterion, tmp_path):
    cfg = SimConfig(seed=0)
    a = run_simulation(cfg, record_counts=True)
    b = run_simulation(cfg, record_counts=True)
    counts_equal = a.observed_counts == b.observed_counts

    spec = SweepSpec(
        varied="sr",
        values=(15.0,),
        controllers=(ControllerKind.HC_H,),
        runs_per_cell=2,
    )
    runs1, summary1 = emit_csv(run_sweep(spec), tmp_path / "rep1")
    runs2, summary2 = emit_csv(run_sweep(spec), tmp_path / "rep2")
    summary_identical = summary1.read_bytes() == summary2.read_bytes()

    # per-run files carry a wall_time_s column by design; it is the one field
    # that may differ between repetitions, so it is masked before comparing
    def stable_rows(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        return [",".join(line.split(",")[:8]) for line in lines]

    runs_identical = stable_rows(runs1) == stable_rows(runs2)

    ok = counts_equal and summary_identical and runs_identical
    criterion(6, "identical reruns: per-step counts and sweep CSV bytes",
              "PASS" if ok else "FAIL",
              (f"per-step counts equal: {counts_equal}; "
               f"summary bytes equal: {summary_identical}; "
               f"run rows equal outside wall_time_s: {runs_identical}",))
    assert counts_equal
    assert summary_identical
    assert runs_identical


# ---------------------------------------------------------------------------
# criteria 7-10: benchmark grid reproduction


_GRID_CONTROLLERS = (
    ControllerKind.KMEANS,
    ControllerKind.HC,
    ControllerKind.HC_H,
    ControllerKind.HC_HP,
)


TREND_ALPHA = 0.01


def trend_check(label, chain, direction):
    """Paired trend check along one sweep chain.

    ``chain`` is ``[(value, rhos), ...]`` in sweep order, where ``rhos[i]`` of
    every cell comes from the same seed, so differences are paired per seed.
    ``direction`` is "up" or "down", the way mean rho should move.

    An adjacent pair fails only when its mean paired difference goes the wrong
    way and a one-sided paired t-test finds that significant at ``TREND_ALPHA``:
    a 20-seed mean difference smaller than its own noise says nothing about the
    trend. The endpoints must move the right way at the same level, so a chain
    that is flat end to end fails too.

    Returns ``(failures, notes)``: one line per failure, and one line per
    adjacent pair that goes the wrong way without being significant.
    """
    wrong_way = "less" if direction == "up" else "greater"
    right_way = "greater" if direction == "up" else "less"
    failures, notes = [], []
    for (v1, a), (v2, b) in zip(chain, chain[1:]):
        diff = float(np.mean(np.subtract(b, a)))
        if (diff < 0) if direction == "up" else (diff > 0):
            p = float(stats.ttest_rel(b, a, alternative=wrong_way).pvalue)
            line = (f"{label}: m({v2:g})-m({v1:g}) = {diff:+.4f} paired, "
                    f"one-sided p={p:.3g}")
            if p < TREND_ALPHA:
                failures.append(line + f" < {TREND_ALPHA:g}: wrong way")
            else:
                notes.append(line + f" >= {TREND_ALPHA:g}: within noise")
    (v1, a), (v2, b) = chain[0], chain[-1]
    diff = float(np.mean(np.subtract(b, a)))
    p = float(stats.ttest_rel(b, a, alternative=right_way).pvalue)
    if not p < TREND_ALPHA:
        failures.append(
            f"{label}: endpoints m({v2:g})-m({v1:g}) = {diff:+.4f} paired, "
            f"one-sided p={p:.3g}: no significant move {direction} at {TREND_ALPHA:g}"
        )
    return failures, notes


@pytest.mark.grid
def test_criterion_07_trends(criterion, grid):
    failures, notes = [], []

    def check_chain(sweep, controller, values, direction):
        cells = [sorted(_cell_rhos(sweep, controller, v)) for v in values]
        seeds = [s for s, _ in cells[0]]
        assert all([s for s, _ in c] == seeds for c in cells), "cells are not seed-paired"
        chain = [(v, [r for _, r in c]) for v, c in zip(values, cells)]
        f, n = trend_check(f"{controller.value} {sweep.varied}", chain, direction)
        failures.extend(f)
        notes.extend(n)

    for ctrl in _GRID_CONTROLLERS:
        check_chain(grid["sr"], ctrl, (5.0, 10.0, 15.0, 20.0, 25.0), "up")
        rv_values = (0.1, 0.25, 0.5, 0.75, 0.9)
        if ctrl is ControllerKind.HC_HP:
            rv_values = rv_values[:-1]  # flagged cell excluded from the trend
        check_chain(grid["rv"], ctrl, rv_values, "down")
        check_chain(grid["ur"], ctrl, (0.05, 0.1, 0.25, 0.5, 1.0), "up")

    summary = (f"adjacent pairs: no wrong-way move at one-sided paired p < {TREND_ALPHA:g}; "
               f"endpoints: every chain moves the right way at p < {TREND_ALPHA:g}")
    criterion(7, "mean rho moves the right way along every sweep (paired, 20 seeds)",
              "PASS" if not failures else "FAIL",
              tuple(failures or [summary]) + tuple(notes))
    assert not failures, failures


def _standardised(seed, n=20):
    """n fixed values with sample mean exactly 0 and sample sd exactly 1."""
    z = np.random.default_rng(seed).standard_normal(n)
    return (z - z.mean()) / z.std(ddof=1)


@pytest.mark.parametrize("direction", ["up", "down"])
def test_trend_check_fails_a_consistent_inversion(direction):
    sign = 1.0 if direction == "up" else -1.0
    base = 0.7 + 0.05 * _standardised(0)
    inverted = base - sign * (0.02 + 0.005 * _standardised(1))  # t about -18
    end = base + sign * (0.1 + 0.005 * _standardised(2))
    failures, _ = trend_check("synthetic", [(1, base), (2, inverted), (3, end)], direction)
    assert len(failures) == 1
    assert "m(2)-m(1)" in failures[0] and "wrong way" in failures[0]


@pytest.mark.parametrize("direction", ["up", "down"])
def test_trend_check_passes_a_noise_level_inversion(direction):
    # a wrong-way shift within noise, like kmeans rv 0.1 -> 0.25: 0.012 with
    # a paired standard error of 0.011, one-sided p about 0.15
    sign = 1.0 if direction == "up" else -1.0
    base = 0.7 + 0.05 * _standardised(0)
    inverted = base - sign * (0.012 + 0.05 * _standardised(1))
    end = base + sign * (0.1 + 0.005 * _standardised(2))
    failures, notes = trend_check("synthetic", [(1, base), (2, inverted), (3, end)], direction)
    assert failures == []
    assert len(notes) == 1 and "m(2)-m(1)" in notes[0]


def test_trend_check_fails_a_flat_chain():
    base = 0.7 + 0.05 * _standardised(0)
    chain = [(v, base + 0.01 * _standardised(v)) for v in (1, 2, 3, 4)]
    failures, _ = trend_check("synthetic", chain, "up")
    assert len(failures) == 1
    assert "endpoints" in failures[0]


@pytest.mark.grid
def test_criterion_08_controller_ordering(criterion, grid):
    holds = 0
    details = []
    for varied in ("sr", "rv", "ur"):
        sweep = grid[varied]
        for value in {"sr": (5.0, 10.0, 15.0, 20.0, 25.0),
                      "rv": (0.1, 0.25, 0.5, 0.75, 0.9),
                      "ur": (1.0, 0.5, 0.25, 0.1, 0.05)}[varied]:
            m_km = _cell_mean(sweep, ControllerKind.KMEANS, value)
            m_hc = _cell_mean(sweep, ControllerKind.HC, value)
            m_h = _cell_mean(sweep, ControllerKind.HC_H, value)
            if m_h >= m_hc >= m_km:
                holds += 1
            else:
                details.append(
                    f"{varied}={value:g}: hc-h={m_h:.3f} hc={m_hc:.3f} kmeans={m_km:.3f}"
                )
    status = "PASS" if holds >= 13 else "FAIL"
    criterion(8, "hc-h >= hc >= kmeans in at least 13 of 15 cells", status,
              (f"chain holds in {holds}/15 cells",) + tuple(details))
    assert holds >= 13, f"ordering holds in only {holds}/15 cells"


@pytest.mark.grid
def test_criterion_09_soft_value_check(criterion, grid):
    """Soft targets: reported, never failing."""
    checks = (
        ("hc-h at the median cell", grid["sr"], ControllerKind.HC_H, 15.0, 0.88),
        ("hc-hp at the slowest updates", grid["ur"], ControllerKind.HC_HP, 0.05, 0.65),
    )
    details = []
    all_in = True
    for name, sweep, ctrl, value, target in checks:
        m = _cell_mean(sweep, ctrl, value)
        inside = abs(m - target) <= 0.08
        all_in &= inside
        verdict = "within" if inside else "OUTSIDE"
        details.append(f"{name}: mean rho {m:.3f} {verdict} {target:.2f} +/- 0.08")
        if not inside:
            seeds = ", ".join(f"{s}:{r:.3f}" for s, r in _cell_rhos(sweep, ctrl, value))
            details.append(f"  per-seed rho: {seeds}")
    criterion(9, "reference-value proximity (soft, non-failing)",
              "PASS" if all_in else "SOFT-MISS", tuple(details))
    # deliberately no assert: a miss is informative, not fatal


@pytest.mark.grid
def test_criterion_10_prediction_benefit(criterion, grid):
    details = []
    ok = True
    for value in (0.75, 0.9):
        m_hp = _cell_mean(grid["rv"], ControllerKind.HC_HP, value)
        m_h = _cell_mean(grid["rv"], ControllerKind.HC_H, value)
        diffs = [
            hp - h
            for (_, hp), (_, h) in zip(
                _cell_rhos(grid["rv"], ControllerKind.HC_HP, value),
                _cell_rhos(grid["rv"], ControllerKind.HC_H, value),
            )
        ]
        ok &= m_hp >= m_h
        details.append(
            f"rv={value:g}: hc-hp={m_hp:.3f} vs hc-h={m_h:.3f} "
            f"(paired mean gain {np.mean(diffs):+.3f})"
        )
    criterion(10, "prediction pays off at high target speeds", "PASS" if ok else "FAIL",
              tuple(details))
    assert ok, details

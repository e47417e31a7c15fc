"""Output checks, computed apart from the program.

Every function takes plain data captured from a run (points as ``(x, y)``
pairs, graphs and states through their public fields) and returns a list
of error strings, empty when the check passes. None of them calls into
``ctosim``: the counts are brute-force loops over the positions the
program produced, so a fault in the program's own kernels shows here.
"""

from __future__ import annotations

import csv
import math
import statistics
from collections import defaultdict
from pathlib import Path

#: An observer's unit step, allowed rounding when its length is recomputed.
STEP_TOL = 1e-9
#: Distance from a target position to its edge's segment, relative to the arena.
EDGE_TOL = 1e-9
#: A recomputed cell mean from six-digit per-run values against the six-digit
#: summary value: two roundings of at most 5e-7 each.
CSV_MEAN_TOL = 1.0000001e-6


def sense(observers, targets, sr: float) -> tuple[int, int]:
    """Brute-force sensing of one step: the number of targets seen by at
    least one observer, and the number of observers that see no target."""
    r2 = sr * sr
    seen = [False] * len(targets)
    blind = 0
    for ox, oy in observers:
        sees = False
        for j, (tx, ty) in enumerate(targets):
            dx = ox - tx
            dy = oy - ty
            if dx * dx + dy * dy <= r2:
                seen[j] = True
                sees = True
        if not sees:
            blind += 1
    return sum(seen), blind


def check_rho(sensed, n_targets: int, steps: int, rho: float) -> tuple[list[str], int]:
    """Recount every step's observed targets; their mean over steps and
    targets must equal the run's rho bitwise. ``sensed`` holds one
    ``(observers, targets, sr)`` triple per step. Also returns the number
    of blind observer-steps."""
    errors = []
    if len(sensed) != steps:
        errors.append(f"sensed {len(sensed)} steps, config has {steps}")
    total = 0
    blind = 0
    for observers, targets, sr in sensed:
        if len(targets) != n_targets:
            errors.append(f"a step sensed {len(targets)} targets, config has {n_targets}")
            break
        seen, dark = sense(observers, targets, sr)
        total += seen
        blind += dark
    if not errors:
        recount = total / len(sensed) / n_targets
        if recount != rho:
            errors.append(f"recounted rho {recount!r} != reported {rho!r}")
    return errors, blind


def check_on_edges(graph, placed) -> list[str]:
    """Each ``(state, point)`` pair: the point lies on the segment of the
    state's edge in ``graph``."""
    verts = graph.vertices
    edges = graph.edges
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    tol = EDGE_TOL * max(max(map(abs, xs)), max(map(abs, ys)), 1.0)
    errors = []
    for state, (px, py) in placed:
        if not 0 <= state.edge < len(edges):
            errors.append(f"target on missing edge {state.edge}")
            continue
        e = edges[state.edge]
        ax, ay = verts[e[0]]
        bx, by = verts[e[1]]
        ex = bx - ax
        ey = by - ay
        length = math.hypot(ex, ey)
        off_line = abs(ex * (py - ay) - ey * (px - ax)) / length
        along = (ex * (px - ax) + ey * (py - ay)) / length
        if off_line > tol or along < -tol or along > length + tol:
            errors.append(
                f"target at ({px!r}, {py!r}) is {off_line:.3g} off edge {state.edge}"
                f" at {along:.6g} of {length:.6g}"
            )
            if len(errors) >= 5:
                break
    return errors


def check_observer_moves(moves) -> tuple[list[str], float]:
    """Each ``(before, after)`` observer-state pair moves at most one unit.
    Also returns the summed distance from observers to their destinations,
    taken before each step."""
    errors = []
    gap_sum = 0.0
    for before, after in moves:
        (x0, y0), (x1, y1), (dx, dy) = before.position, after.position, before.destination
        gap_sum += math.hypot(dx - x0, dy - y0)
        step = math.hypot(x1 - x0, y1 - y0)
        if step > 1.0 + STEP_TOL:
            errors.append(f"observer moved {step!r} > 1 in one step")
            if len(errors) >= 5:
                break
    return errors, gap_sum


def classify_call(current, chosen, eval_points, sr: float) -> tuple[str, int, int]:
    """Outcome of one controller call, from its inputs and its output:
    ``kept`` (destinations unchanged), ``improved`` (brute-force coverage
    strictly higher) or ``spread`` (adopted without a coverage gain).
    Also returns the coverage of the current and the chosen destinations
    (both 0 when kept, where they are equal)."""
    if list(map(tuple, chosen)) == list(map(tuple, current)):
        return "kept", 0, 0
    before = sense(current, eval_points, sr)[0]
    after = sense(chosen, eval_points, sr)[0]
    return ("improved" if after > before else "spread"), before, after


def check_hill_climb(before: int, after: int) -> list[str]:
    """A hill-climbing call never returns destinations covering fewer
    targets than the current ones."""
    if after < before:
        return [f"hill climb lowered coverage from {before} to {after}"]
    return []


def check_same_traces(traces: dict) -> list[str]:
    """``traces`` maps a label to a target trace; all traces must match."""
    items = list(traces.items())
    errors = []
    for label, trace in items[1:]:
        if trace != items[0][1]:
            errors.append(f"target trace of {label} differs from {items[0][0]}")
    return errors


def check_full_range(rho: float) -> list[str]:
    """A run whose sensor range covers the arena diagonal sees every target."""
    return [] if rho == 1.0 else [f"rho {rho!r} != 1 with sr >= the arena diagonal"]


def check_sweep_csv(runs_csv: Path, summary_csv: Path, n_cells: int, runs_per_cell: int) -> list[str]:
    """Re-read a sweep's CSVs: row counts, and each summary mean against the
    mean recomputed from that cell's per-run rows."""
    with open(runs_csv, encoding="utf-8", newline="") as fh:
        runs = list(csv.DictReader(fh))
    with open(summary_csv, encoding="utf-8", newline="") as fh:
        cells = list(csv.DictReader(fh))
    errors = []
    if len(runs) != n_cells * runs_per_cell:
        errors.append(f"runs CSV has {len(runs)} rows, expected {n_cells * runs_per_cell}")
    if len(cells) != n_cells:
        errors.append(f"summary CSV has {len(cells)} rows, expected {n_cells}")
    by_cell = defaultdict(list)
    for row in runs:
        by_cell[(row["controller"], row["varied_param"], row["value"])].append(float(row["rho"]))
    for cell in cells:
        key = (cell["controller"], cell["varied_param"], cell["value"])
        rhos = by_cell.get(key, [])
        if len(rhos) != runs_per_cell or int(cell["runs"]) != runs_per_cell:
            errors.append(f"cell {key} has {len(rhos)} run rows, summary says {cell['runs']}")
            continue
        mean = statistics.mean(rhos)
        if abs(mean - float(cell["m"])) > CSV_MEAN_TOL:
            errors.append(f"cell {key}: summary mean {cell['m']} != recomputed {mean:.7f}")
    return errors

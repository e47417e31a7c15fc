"""ctosim benchmark: one workload, timed against the reference loop, then traced and checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
The run has three parts:

1. Set-up, done ``SETUPS`` times: import ``ctosim`` afresh and make one short
   warm-up run. ``setup_s`` is the median, each sample charged the one-time
   numpy import.
2. The timed pass: whole rounds of the workload's units until ``S``
   seconds have passed, with reference chunks interleaved (see timing.py).
   ``run_ref`` sums, over the units of a round, the median over rounds of
   work seconds divided by the reference chunk seen during the unit.
3. The traced pass: one more round with every layer boundary wrapped
   (see tracing.py); each run's outputs are checked as it ends. Then the
   checks across runs: every timed rho equals the traced one bitwise,
   target traces agree across controllers, and sr at the arena diagonal
   gives rho = 1.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (simulation runs), and the end-to-end metrics (``--trace 0``)
or the per-layer ones (``--trace 1``). Results and spans are also written
to ``bench/out/``.
"""

import time

T0 = time.perf_counter()

import numpy  # noqa: E402  (its import is part of set-up, timed from T0)

T_NUMPY = time.perf_counter() - T0

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from timing import Interleaver  # noqa: E402
from tracing import LAYER_UNITS, RUN_LAYERS, TRACE_PREFIX, Tracer, run_key  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: Set-ups per run; setup_s is their median.
SETUPS = 5
#: Steps of the warm-up run made by each set-up.
WARMUP_STEPS = 100
#: Wall seconds of work between two reference chunks.
PERIOD = 0.1


def _null_span(name):
    return nullcontext()


def import_ctosim():
    """Import ``ctosim`` afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "ctosim" or m.startswith("ctosim.")]:
        del sys.modules[name]
    ck = importlib.import_module("ctosim")
    if not Path(ck.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ctosim was imported from {ck.__file__}, not from {src}")
    return ck


def set_up(workload, seed: int):
    """Set up SETUPS times; return the last package and the median time."""
    samples = []
    for k in range(SETUPS):
        start = T0 if k == 0 else time.perf_counter() - T_NUMPY
        ck = import_ctosim()
        ck.engine.run_simulation(replace(workload.base(ck, seed), steps=WARMUP_STEPS))
        samples.append(time.perf_counter() - start)
    return ck, statistics.median(samples), samples


def run_round(units, il, span, rounds_rhos, pairs):
    """Run every unit once. Appends the round's per-run rho (keyed by run)
    and each unit's (work seconds, reference chunk seconds). Returns the
    number of runs attempted and the number that failed."""
    rhos = {}
    attempted = failed = 0
    for i, unit in enumerate(units):
        attempted += unit.runs
        try:
            (results, errors), work, ref = il.measure(lambda: unit.fn(span, il.paused))
        except Exception as exc:  # a failing unit fails all its runs; the benchmark goes on
            print(f"error: unit {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += unit.runs
            continue
        pairs[i].append((work, ref))
        if errors:
            print(f"error: unit {i}: {errors[:3]}", file=sys.stderr)
            failed += unit.runs
        for r in results:
            rhos[run_key(r.config)] = r.rho
    rounds_rhos.append(rhos)
    return attempted, failed


def cross_run_checks(ck, workload, seed, traced, tracer):
    """Checks across runs. Returns the keys of failed runs and the errors
    that concern no single run."""
    bad = set()
    # Target traces depend only on the seed: compare every traced run of a
    # seed with the others and with a short run of another controller.
    by_seed = {}
    for key in traced:
        by_seed.setdefault(key[-1], []).append(key)
    kinds = list(ck.controllers.ControllerKind)
    base = workload.base(ck, seed)
    for s, keys in by_seed.items():
        traces = {k: tracer.prefixes.get(k) for k in keys}
        used = {k[0] for k in keys}
        other = next((kind for kind in kinds if kind.value not in used), None)
        if other is not None:
            companion = replace(base, controller=other, seed=s, steps=TRACE_PREFIX)
            traces[(other.value, s)] = ck.engine.run_simulation(companion, record_targets=True).target_trace
        errors = checks.check_same_traces(traces)
        if errors:
            print(f"error: seed {s}: {errors[:3]}", file=sys.stderr)
            bad.update(keys)
    full = replace(base, sr=math.hypot(base.width, base.height), steps=TRACE_PREFIX)
    global_errors = checks.check_full_range(ck.engine.run_simulation(full).rho)
    return bad, global_errors


def digest(rhos: dict) -> str:
    lines = "".join(f"{k}:{v.hex()}\n" for k, v in sorted(rhos.items()))
    return hashlib.sha256(lines.encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]

    try:
        ck, setup_s, setup_samples = set_up(workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import ctosim from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    units = workload.units(ck, args.seed, OUT)

    timed_rhos: list[dict] = []
    pairs = [[] for _ in units]
    traced_pairs = [[] for _ in units]
    traced_rhos: list[dict] = []
    attempted = failed = 0
    with Interleaver(PERIOD) as il:
        start = time.perf_counter()
        while True:
            a, f = run_round(units, il, _null_span, timed_rhos, pairs)
            attempted += a
            failed += f
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        tracer = Tracer(il.clock, il.paused)
        tracer.install(ck)
        try:
            a, f = run_round(units, il, tracer.span, traced_rhos, traced_pairs)
        finally:
            tracer.uninstall()
        attempted += a
        failed += f

    traced = traced_rhos[0]
    bad, global_errors = cross_run_checks(ck, workload, args.seed, traced, tracer)
    for key in traced:
        errors = tracer.run_errors.get(key)
        if errors is None or errors:
            print(f"error: run {key}: {errors}", file=sys.stderr)
            bad.add(key)
    failed += len(bad)
    for rhos in timed_rhos:
        for key, rho in rhos.items():
            if key not in traced or rho.hex() != traced[key].hex():
                print(f"error: run {key}: timed rho {rho!r} != traced {traced.get(key)!r}", file=sys.stderr)
                failed += 1
    for e in global_errors:
        print(f"error: {e}", file=sys.stderr)

    def normalised(unit_pairs):
        return sum(statistics.median(w / r for w, r in p) for p in unit_pairs if p)

    run_ref = normalised(pairs)
    run_s = sum(statistics.median(w for w, _ in p) for p in pairs if p)
    traced_ref = normalised(traced_pairs)
    rho_list = [traced[k] for k in sorted(traced)]
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "run_ref": {"value": run_ref, "unit": "ref"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "rho_mean": {"value": statistics.mean(rho_list) if rho_list else 0.0, "unit": "1"},
    }
    layers = tracer.layer_metrics(traced_ref - run_ref)
    per_layer = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}

    rho_digest = digest(traced)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": len(timed_rhos),
        "setup_samples_s": setup_samples,
        "run_s": run_s,
        "traced_run_s": sum(w for p in traced_pairs for w, _ in p),
        "unit_ratios": [[w / r for w, r in p] for p in pairs],
        "reference_chunks": len(il.chunks),
        "check_s": il.paused_s,
        "reference_chunk_median_s": statistics.median(il.chunks),
        "rho_digest": rho_digest,
        "rho_per_run": {repr(k): v for k, v in sorted(traced.items())},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
    }
    (OUT / f"result-{workload.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    tracer.write(OUT / f"trace-{workload.name}.npz")

    run_total = sum(layers[k] for k in RUN_LAYERS)
    print(f"workload {workload.name} seed {args.seed}: {len(timed_rhos)} timed rounds of "
          f"{len(rho_list)} runs, run_ref {run_ref:.3f}, traced {traced_ref:.3f}, "
          f"run_s {run_s:.4f} (absolute, not a metric), "
          f"reference chunk {record['reference_chunk_median_s'] * 1e3:.2f} ms")
    print("traced split: " + ", ".join(f"{k} {layers[k] / run_total:.1%}" for k in RUN_LAYERS))
    print(f"wall {time.perf_counter() - T0:.1f} s; rho_digest {rho_digest} over {len(rho_list)} runs; attempted {attempted}, failed {failed}")
    result = {
        "correct": failed == 0 and not global_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer if args.trace else end_to_end,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

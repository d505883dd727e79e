"""One benchmark run inside a fresh interpreter.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S --trace 0|1 --run-dir DIR

run.py starts it with the checkout's ``src`` on PYTHONPATH. It drives the
workload as a closed loop (one client, the next item starts when the last
one ends) and prints one JSON object on stdout.

Untraced: items run until their summed raw time reaches ``--seconds``;
the clock is read only at round boundaries, so every run holds whole
rounds. Reported times are host-adjusted (hostspeed.py); raw ones are in
the detail.

Traced: the first round of items is fixed and run repeatedly, each time
once plainly and once with spans (alternating which goes first), until the
passes add up to ``--seconds``. Per-layer times are medians over those
repetitions; counts must repeat exactly, or the run is not correct.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
import tracing
import workloads
from qbraitenberg import brain, circuit
from qbraitenberg.circuit import GateKind

MIN_TRACED_REPEATS = 3


def attempt(wl, item, clock: hostspeed.Clock, tracer: tracing.Tracer | None = None):
    """Run one item, then check it untimed.

    Returns (raw seconds, host-adjusted seconds, failed units).
    """
    output = None
    start = perf_counter()
    try:
        if tracer is None:
            output = wl.run(item)
        else:
            with tracer.installed():
                output = wl.run(item)
    except Exception:
        traceback.print_exc()
    elapsed = perf_counter() - start
    adjusted = clock.adjust(elapsed)
    if output is None:
        return elapsed, adjusted, wl.size(item)
    try:
        failed = wl.check(item, output)
        if tracer is not None:
            wl.layer_counts(output, tracer.counts)
    except Exception:
        traceback.print_exc()
        failed = wl.size(item)
    if failed:
        print(f"{wl.name}: {failed} of {wl.size(item)} {wl.unit} failed their check", file=sys.stderr)
    return elapsed, adjusted, failed


def percentile_ms(times: list[float], q: float) -> float:
    return float(np.percentile(times, q)) * 1e3


def timed_run(wl, seed: int, seconds: float) -> dict:
    items = wl.items(seed)
    clock = hostspeed.Clock()
    raw: list[float] = []
    times: list[float] = []
    rates: list[float] = []  # units per adjusted second, one per round
    failed = units = 0
    while sum(raw) < seconds:
        round_s = 0.0
        round_units = 0
        for item in itertools.islice(items, wl.round):
            elapsed, adjusted, bad = attempt(wl, item, clock)
            raw.append(elapsed)
            times.append(adjusted)
            round_s += adjusted
            round_units += wl.size(item)
            failed += bad
        rates.append(round_units / round_s)
        units += round_units
    return {
        "attempted": units,
        "failed": failed,
        "counts_repeat": True,
        "metrics": {
            "throughput_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        },
        "extra": {
            "latency_ms_p50": percentile_ms(times, 50),
            "latency_ms_p90": percentile_ms(times, 90),
            "latency_ms_p99": percentile_ms(times, 99),
            "error_rate": failed / units,
            "items": len(times),
            "rounds": len(rates),
            "units": units,
            "mean_throughput_per_s": units / sum(times),
            "raw_throughput_per_s": units / sum(raw),
            "raw_latency_ms_p50": percentile_ms(raw, 50),
            "raw_wall_s": sum(raw),
            "host_speed": sum(raw) / sum(times),
        },
    }


def robot_counts(counts) -> None:
    lowered = circuit.lower(brain.build_robot_circuit())
    kinds = [op.kind for op in lowered.ops]
    counts["circuit.robot_lowered.ops"] = len(kinds)
    counts["circuit.robot_lowered.t_count"] = kinds.count(GateKind.T) + kinds.count(GateKind.TDG)
    counts["circuit.robot_lowered.cx_count"] = kinds.count(GateKind.CX)


def traced_run(wl, seed: int, seconds: float, spans_path: Path) -> dict:
    items = list(itertools.islice(wl.items(seed), wl.round))
    attempted = failed = 0

    clock = hostspeed.Clock()

    def one_pass(traced: bool):
        """Raw and adjusted wall time of one pass, and the tracer with its spans."""
        nonlocal attempted, failed
        tracer = tracing.Tracer() if traced else None
        raw = adjusted = 0.0
        for run_id, item in enumerate(items):
            if tracer is not None:
                tracer.run_id = run_id
            elapsed, scaled, bad = attempt(wl, item, clock, tracer)
            raw += elapsed
            adjusted += scaled
            attempted += wl.size(item)
            failed += bad
        if tracer is not None:
            tracer.speed = adjusted / raw
        return raw, adjusted, tracer

    one_pass(traced=False)  # fills the package's own caches before anything is compared
    repeats: list[dict] = []
    spent = 0.0
    while spent < seconds or len(repeats) < MIN_TRACED_REPEATS:
        if len(repeats) % 2:
            traced_raw, traced_wall, tracer = one_pass(traced=True)
            plain_raw, plain_wall, _ = one_pass(traced=False)
        else:
            plain_raw, plain_wall, _ = one_pass(traced=False)
            traced_raw, traced_wall, tracer = one_pass(traced=True)
        robot_counts(tracer.counts)
        layer = tracer.layer_metrics()
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead_ratio"] = traced_wall / plain_wall
        if not repeats:
            tracer.dump(spans_path)
        repeats.append(layer)
        spent += plain_raw + traced_raw

    changed = [m for m in tracing.COUNT_METRICS if any(r[m] != repeats[0][m] for r in repeats)]
    if changed:
        print(f"{wl.name}: counts changed between repeats: {changed}", file=sys.stderr)
    metrics = {
        name: {"value": repeats[0][name] if name in tracing.COUNT_METRICS
               else statistics.median(r[name] for r in repeats), "unit": unit}
        for name, unit in tracing.LAYER_METRICS.items()
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "counts_repeat": not changed,
        "metrics": metrics,
        "extra": {
            "repeats": len(repeats),
            "items": len(items),
            "units": sum(wl.size(item) for item in items),
            "shares": {layer: tracing.self_share({k: v["value"] for k, v in metrics.items()}, layer)
                       for layer in tracing.LAYER_SPANS},
            "spans_file": spans_path.name,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--run-dir", required=True, type=Path)
    args = parser.parse_args(argv)

    args.run_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.run_dir)
    if args.trace:
        spans_path = args.run_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        result = traced_run(wl, args.seed, args.seconds, spans_path)
    else:
        result = timed_run(wl, args.seed, args.seconds)
    result["extra"].update({
        "numpy": np.__version__,
        "episodes_per_item": getattr(wl, "episodes", None),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

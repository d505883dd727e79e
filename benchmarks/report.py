"""Run every workload many times and print every metric with its spread.

    python3 benchmarks/report.py [--runs 10] [--sets 2] [--seconds 15] [--out FILE]
    python3 benchmarks/report.py --show benchmarks/results/baseline.json

Each set runs every workload ``--runs`` times, each run with its own seed
and in fresh processes (run.py), interleaving the workloads. For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the sample count and the
spread (quartile distance over median); each workload is one row. With two
sets it also checks that the second set's median is no worse than the
first's by more than the metric's bound in BENCHMARK.json. One traced run
per workload then gives the per-layer breakdown and each layer's share of
the traced wall time. ``--out`` writes all of it, with provenance, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
EXTRA_METRICS = ("latency_ms_p50", "latency_ms_p90", "latency_ms_p99", "error_rate", "raw_throughput_per_s", "host_speed")


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def fmt(x: float) -> str:
    return f"{x:.4g}"


def run_set(index: int, runs: int, seconds: float, names: list[str]) -> dict:
    """Untraced runs of every workload; the metric summaries per workload."""
    samples: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    failed = {w: 0 for w in names}
    attempted = {w: 0 for w in names}
    seeds = {w: [] for w in names}
    for k in range(runs):
        for workload in names:
            seed = 1000 * (index + 1) + k
            detail, result = bench.run_once(workload, seed, seconds, 0)
            print(f"  set {index + 1} run {k + 1}/{runs} {workload} seed={seed} "
                  f"correct={result['correct']} "
                  + " ".join(f"{m}={fmt(v['value'])}" for m, v in result["metrics"].items()),
                  file=sys.stderr)
            for metric, value in result["metrics"].items():
                samples[workload].setdefault(metric, []).append(value["value"])
            for metric in EXTRA_METRICS:
                samples[workload].setdefault(metric, []).append(detail["extra"][metric])
            failed[workload] += result["failed"]
            attempted[workload] += result["attempted"]
            seeds[workload].append({"seed": seed, "items": detail["extra"]["items"],
                                    "units": detail["extra"]["units"]})
    return {w: {"metrics": {m: summarize(v) for m, v in samples[w].items()},
                "attempted": attempted[w], "failed": failed[w], "runs": seeds[w]}
            for w in names}


def print_set(index: int, summary: dict) -> None:
    metrics = [m["name"] for m in SPEC["end_to_end"]] + list(EXTRA_METRICS)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    units.update(latency_ms_p50="ms", latency_ms_p90="ms", latency_ms_p99="ms", error_rate="fraction",
                 raw_throughput_per_s="1/s", host_speed="ratio")
    print(f"\nset {index + 1}: median [q1, q3] spread, n runs per workload")
    print("workload".ljust(16) + "".join(f"{m} ({units[m]})".ljust(38) for m in metrics))
    for workload, data in summary.items():
        cells = []
        for m in metrics:
            s = data["metrics"][m]
            cells.append(f"{fmt(s['median'])} [{fmt(s['q1'])}, {fmt(s['q3'])}] "
                         f"{s['spread']:.1%} n={s['n']}".ljust(38))
        print(workload.ljust(16) + "".join(cells))


def compare(first: dict, second: dict) -> dict:
    """Second-set median against the first, per end-to-end metric and bound."""
    out: dict[str, dict] = {}
    for workload in first:
        out[workload] = {}
        for spec in SPEC["end_to_end"]:
            m = spec["name"]
            a, b = first[workload]["metrics"][m]["median"], second[workload]["metrics"][m]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            spreads = [s[workload]["metrics"][m]["spread"] for s in (first, second)]
            ok = worse <= spec["bound"] and (m == "setup_s" or max(spreads) <= spec["bound"])
            out[workload][m] = {"worse": worse, "bound": spec["bound"], "spreads": spreads, "ok": ok}
    return out


def print_compare(out: dict) -> None:
    print("\nset 2 against set 1 (worse = share by which the median moved the wrong way)")
    for workload, metrics in out.items():
        for m, c in metrics.items():
            print(f"  {workload:16s} {m:18s} worse={c['worse']:+.2%} bound={c['bound']:.0%} "
                  f"spreads={c['spreads'][0]:.1%},{c['spreads'][1]:.1%} {'ok' if c['ok'] else 'NOT OK'}")


def traced(names: list[str], seconds: float) -> dict:
    """One traced run per workload, and whether each stresses its layer."""
    out = {}
    for workload in names:
        detail, result = bench.run_once(workload, 1, seconds, 1)
        out[workload] = {"correct": result["correct"], "counts_repeat": detail["counts_repeat"],
                         "repeats": detail["extra"]["repeats"], "shares": detail["extra"]["shares"],
                         "metrics": {m: v["value"] for m, v in result["metrics"].items()}}
    share = {w: out[w]["shares"] for w in names}
    checks = {
        "game_lowered: qsim + brain self time is most of the wall":
            share["game_lowered"]["qsim"] + share["game_lowered"]["brain"] > 0.5,
        "game_trace: qsim.apply_gate.calls == 0": out["game_trace"]["metrics"]["qsim.apply_gate.calls"] == 0,
        "compile_wide: qsim.apply_gate.calls == 0": out["compile_wide"]["metrics"]["qsim.apply_gate.calls"] == 0,
        "compile_wide: circuit self time is most of the wall": share["compile_wide"]["circuit"] > 0.5,
        "verify_unitary: qsim self time is most of the wall": share["verify_unitary"]["qsim"] > 0.5,
    } if set(names) == set(bench.WORKLOADS) else {}
    return {"workloads": out, "layer_checks": checks}


def print_traced(results: dict) -> None:
    out = results["workloads"]
    names = list(out)
    print("\nper-layer breakdown, traced run of seed 1 (times: median over repeats of one round)")
    print("metric".ljust(36) + "".join(w.rjust(16) for w in names))
    for spec in SPEC["per_layer"]:
        print(spec["name"].ljust(36) + "".join(fmt(out[w]["metrics"][spec["name"]]).rjust(16) for w in names))
    print("\nself-time share of the traced wall time")
    for layer in out[names[0]]["shares"]:
        print(f"  {layer:8s}" + "".join(f"{out[w]['shares'][layer]:.1%}".rjust(16) for w in names))
    for text, ok in results["layer_checks"].items():
        print(f"  {'ok' if ok else 'NOT OK'}  {text}")


def print_results(results: dict) -> None:
    print("provenance: " + json.dumps(results["provenance"]))
    for index, summary in enumerate(results["sets"]):
        print_set(index, summary)
    if len(results["sets"]) == 2:
        print_compare(compare(*results["sets"]))
    if "traced" in results:
        print_traced(results["traced"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=list(bench.WORKLOADS), choices=bench.WORKLOADS)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", type=Path, help="write the results as JSON")
    parser.add_argument("--show", type=Path, help="print results saved with --out; run nothing")
    args = parser.parse_args(argv)
    if args.show:
        print_results(json.loads(args.show.read_text()))
        return 0

    provenance = bench.run_once(args.workloads[0], 0, 0.01, 0)[0]["provenance"]
    sets = [run_set(index, args.runs, args.seconds, args.workloads) for index in range(args.sets)]
    results = {"provenance": provenance, "seconds": args.seconds, "runs_per_set": args.runs,
               "sets": sets}
    if args.sets == 2:
        results["set2_vs_set1"] = compare(*sets)
    if not args.no_trace:
        results["traced"] = traced(args.workloads, args.seconds)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    print_results(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())

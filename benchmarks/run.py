"""Benchmark entry point: one run of one workload.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package in ``src/`` of that
checkout and writes scratch files under ``.bench_run/``. It runs the
workload in a fresh interpreter (worker.py), so ``peak_rss_mb`` belongs to
this run alone, and times ``import qbraitenberg`` in SETUP_PROBES fresh
interpreters before it and as many after it; ``setup_s`` is the median.
Setup times are raw: unlike item times (see hostspeed.py), scaling them by
the host-speed reference made them no steadier.

The last two lines of stdout are a detail object (provenance, extra
metrics) and the result: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Exits non-zero without a result when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("game_lowered", "game_trace", "verify_unitary", "compile_wide")
SETUP_PROBES = 5  # before the workload, and again after it
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150

# Prints the monotonic clock (system-wide on Linux) once the import returns,
# and where the package came from.
_PROBE = "import time, qbraitenberg; print(time.monotonic()); print(qbraitenberg.__file__)"


class RunError(RuntimeError):
    """The run could not be made; no result is printed."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One client, no threads: keep numpy's BLAS off the second core.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def setup_seconds(probes: int) -> list[float]:
    """Fresh-interpreter start until ``import qbraitenberg`` returns, per probe."""
    samples = []
    for _ in range(probes):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", _PROBE], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RunError(f"import qbraitenberg failed:\n{proc.stderr}")
        stamp, origin = proc.stdout.split()
        if not Path(origin).resolve().is_relative_to(SRC):
            raise RunError(f"qbraitenberg was imported from {origin}, not from {SRC}")
        samples.append(float(stamp) - start)
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmarks" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", str(RUN_DIR)]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run: (detail, result). Raises RunError when no result can be made."""
    if not (SRC / "qbraitenberg" / "__init__.py").is_file():
        raise RunError(f"no package source at {SRC / 'qbraitenberg'}")
    setup = setup_seconds(SETUP_PROBES)
    worker = run_worker(workload, seed, seconds, trace)
    setup += setup_seconds(SETUP_PROBES)
    metrics = worker["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    result = {
        "correct": worker["failed"] == 0 and worker["counts_repeat"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": bool(trace),
        "counts_repeat": worker["counts_repeat"],
        "setup_s_samples": setup,
        "extra": worker["extra"],
        "provenance": {
            "python": platform.python_version(),
            "numpy": worker["extra"]["numpy"],
            "cpu": _cpu_model(),
            "nproc": os.cpu_count(),
            "git_sha": _git_sha(),
        },
    }
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload once.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        detail, result = run_once(args.workload, args.seed, args.seconds, args.trace)
    except (RunError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

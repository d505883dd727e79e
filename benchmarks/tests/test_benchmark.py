"""The benchmark's own tests: its oracles tell right from wrong, its counts repeat.

    python3 -m pytest benchmarks/tests
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qbraitenberg import brain, circuit, game, qsim  # noqa: E402
from qbraitenberg.brain import MotorOutput, SensorInput  # noqa: E402


def _always_forward(kind: str = "quantum") -> dict:
    return {SensorInput(a, b): MotorOutput(1, 1, 0) for a in (0, 1) for b in (0, 1)}


@pytest.mark.parametrize("brain_name, traced", [("quantum-lowered", False), ("classical", True)])
def test_game_oracle_catches_always_forward_table(tmp_path, monkeypatch, brain_name, traced):
    wl = workloads.GameWorkload("game", brain_name, 20, tmp_path / "t.jsonl" if traced else None)
    base = next(wl.items(7))
    assert wl.check(base, wl.run(base)) == 0

    monkeypatch.setattr(game, "control_table", _always_forward)
    output = wl.run(base)
    assert wl.lines_ok(base, output)  # the blind table wins every episode ...
    assert wl.check(base, output) == wl.episodes  # ... and is still caught
    if traced:  # the JSONL oracle alone catches it too
        assert wl.trace_failures([wl.road_length] * wl.episodes) > 0


def test_permutation_oracle_catches_a_dropped_op():
    wl = workloads.VerifyUnitary()
    for source in itertools.islice(wl.items(3), wl.round):
        lowered = circuit.lower(source)
        assert wl.check(source, (lowered, qsim.circuit_unitary(lowered))) == 0
        for k in range(len(lowered.ops)):
            damaged = circuit.Circuit(source.n_qubits, lowered.ops[:k] + lowered.ops[k + 1:])
            assert wl.check(source, (damaged, qsim.circuit_unitary(damaged))) == 1, k


@pytest.mark.parametrize("bad_line", [
    "ccx q[0],q[1],q[2];",
    "rz(pi/4) q[0];",
    "cx q[0], q[1];",
    "u1(0.5) q[3];",
])
def test_qasm_oracle_catches_one_non_qelib1_line(bad_line):
    wl = workloads.CompileWide()
    item = next(wl.items(5))
    lowered, text = wl.run(item)
    assert wl.check(item, (lowered, text)) == 0
    lines = text.splitlines(keepends=True)
    lines[len(lines) // 2] = bad_line + "\n"
    assert wl.check(item, (lowered, "".join(lines))) == 1


def test_qasm_oracle_accepts_the_robot_circuit():
    text = circuit.export_qasm(circuit.lower(brain.build_robot_circuit()), (2, 3, 4))
    assert workloads.qasm_errors(text, 5, (2, 3, 4), 85) == []


def _traced_counts(workload: str) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmarks" / "worker.py"), "--workload", workload,
           "--seed", "11", "--seconds", "0.1", "--trace", "1", "--run-dir", str(bench.RUN_DIR)]
    proc = subprocess.run(cmd, env=bench._env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=bench.WORKER_TIMEOUT_S, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["counts_repeat"] and result["failed"] == 0
    return {m: result["metrics"][m]["value"] for m in tracing.COUNT_METRICS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly_across_runs(workload):
    first = _traced_counts(workload)
    assert first == _traced_counts(workload)
    robot = [first[f"circuit.robot_lowered.{k}"] for k in ("ops", "t_count", "cx_count")]
    assert robot == [85, 35, 32]


def test_benchmark_json_names_what_a_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(bench.WORKLOADS)
    _, result = bench.run_once("verify_unitary", 1, 0.01, 0)
    assert result["correct"]
    assert {name: v["unit"] for name, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "game_lowered",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

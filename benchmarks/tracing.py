"""In-memory spans around calls into each layer of qbraitenberg.

Each patch point wraps a function at the module attribute its caller looks
up (for example ``qsim.apply_gate`` as ``run_circuit`` resolves it), so no
file of the package changes. A span is ``(name, start, end, parent, run_id)``;
self time is a span's duration minus the durations of its direct children.
Wrappers are installed only around a traced item and removed before its
output is checked, so oracle calls are never counted.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from qbraitenberg import brain, circuit, cli, game, qsim

#: Per-layer metrics, in BENCHMARK.json order. Units are fixed here.
LAYER_METRICS: dict[str, str] = {
    "qsim.apply_gate.calls": "count",
    "qsim.apply_gate.self_s": "s",
    "qsim.apply_gate.us_per_call": "us",
    "qsim.run_circuit.calls": "count",
    "qsim.run_circuit.self_s": "s",
    "qsim.circuit_unitary.calls": "count",
    "qsim.circuit_unitary.self_s": "s",
    "qsim.outcome_distribution.self_s": "s",
    "qsim.amp_bytes_computed": "B",
    "circuit.lower.calls": "count",
    "circuit.lower.self_s": "s",
    "circuit.lower.ops_in": "count",
    "circuit.lower.ops_out": "count",
    "circuit.export_qasm.calls": "count",
    "circuit.export_qasm.self_s": "s",
    "circuit.export_qasm.bytes": "B",
    "circuit.robot_lowered.ops": "count",
    "circuit.robot_lowered.t_count": "count",
    "circuit.robot_lowered.cx_count": "count",
    "brain.control_table.calls": "count",
    "brain.control_table.self_s": "s",
    "brain.control_table.useful_ratio": "ratio",
    "brain.measure_distribution.calls": "count",
    "brain.measure_distribution.self_s": "s",
    "game.run_episode.calls": "count",
    "game.run_episode.self_s": "s",
    "game.step.calls": "count",
    "game.step.self_s": "s",
    "game.step.us_per_call": "us",
    "game.trace_json_line.calls": "count",
    "game.trace_json_line.self_s": "s",
    "game.trace_json_line.bytes": "B",
    "cli.main.self_s": "s",
    "cli.stdout.bytes": "B",
    "cli.trace_out.bytes": "B",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
}

#: Metrics that must repeat exactly whenever the same items are traced again.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS.items() if unit in ("count", "B"))

#: Span names whose self time belongs to each layer.
LAYER_SPANS = {
    "qsim": ("qsim.apply_gate", "qsim.run_circuit", "qsim.circuit_unitary", "qsim.outcome_distribution"),
    "circuit": ("circuit.lower", "circuit.export_qasm"),
    "brain": ("brain.control_table", "brain.measure_distribution"),
    "game": ("game.run_episode", "game.step", "game.trace_json_line"),
    "cli": ("cli.main",),
}


def _count_amps(tracer: "Tracer", args: tuple, result) -> None:
    # Each apply_gate reads and writes 2^n complex128 amplitudes (computed, not measured).
    tracer.counts["qsim.amp_bytes_computed"] += 2 ** args[0].n_qubits * 16 * 2


def _count_kind(tracer: "Tracer", args: tuple, result) -> None:
    tracer.kinds.add(args[0] if args else "quantum")


def _count_lower(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["circuit.lower.ops_in"] += len(args[0].ops)
    tracer.counts["circuit.lower.ops_out"] += len(result.ops)


def _count_len(metric: str):
    def count(tracer: "Tracer", args: tuple, result) -> None:
        tracer.counts[metric] += len(result)

    return count


#: (module, attribute, span name, counter). The attribute is the one the
#: caller named in the comment looks up at call time.
PATCH_POINTS = (
    (qsim, "apply_gate", "qsim.apply_gate", _count_amps),  # run_circuit
    (qsim, "run_circuit", "qsim.run_circuit", None),  # circuit_unitary
    (brain, "run_circuit", "qsim.run_circuit", None),  # measure_distribution
    (qsim, "circuit_unitary", "qsim.circuit_unitary", None),  # the benchmark
    (brain, "outcome_distribution", "qsim.outcome_distribution", None),  # measure_distribution
    (brain, "measure_distribution", "brain.measure_distribution", None),  # drive
    (game, "control_table", "brain.control_table", _count_kind),  # run_episode
    (game, "step", "game.step", None),  # run_episode
    (cli, "run_episode", "game.run_episode", None),  # game-run
    (cli, "trace_json_line", "game.trace_json_line", _count_len("game.trace_json_line.bytes")),  # game-run
    (circuit, "lower", "circuit.lower", _count_lower),  # the benchmark
    (brain, "lower", "circuit.lower", _count_lower),  # the robot-circuit cache
    (circuit, "export_qasm", "circuit.export_qasm", _count_len("circuit.export_qasm.bytes")),  # the benchmark
    (cli, "main", "cli.main", None),  # the benchmark
)


class Tracer:
    """Spans and counters for one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.kinds: set[str] = set()
        self.run_id = 0
        #: Host-speed factor (see hostspeed.py) applied to every reported time.
        self.speed = 1.0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every patch point for the duration of the block."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in PATCH_POINTS]
        try:
            for (module, attr, name, count), (_, _, fn) in zip(PATCH_POINTS, originals):
                setattr(module, attr, self._wrap(name, fn, count))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Calls, host-adjusted self time and counters per span name, as LAYER_METRICS names."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        self_time = list(durations)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                self_time[parent] -= durations[i]
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, _, _, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += self_time[i] * self.speed

        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls[span]
            elif field == "self_s":
                out[metric] = self_s[span]
            elif field == "us_per_call":
                out[metric] = self_s[span] / calls[span] * 1e6 if calls[span] else 0.0
            elif not metric.startswith("trace."):
                out[metric] = self.counts[metric]
        tables = calls["brain.control_table"]
        out["brain.control_table.useful_ratio"] = len(self.kinds) / tables if tables else 0.0
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


def self_share(metrics: dict[str, float], layer: str) -> float:
    """A layer's self time as a share of the traced wall time."""
    total = sum(metrics[f"{span}.self_s"] for span in LAYER_SPANS[layer])
    return total / metrics["trace.wall_s"] if metrics["trace.wall_s"] else 0.0

"""The four benchmark workloads: seeded inputs, the timed call, and oracles.

A workload yields items from a seed. ``run`` is the timed call into the
package's public entry points; ``check`` compares its output against an
oracle held here, untimed, and returns how many of the item's units
(episodes or circuits) failed. Every call goes through a module attribute
(``cli.main``, ``circuit.lower``, ...) so tracing.py can wrap it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from pathlib import Path

import numpy as np

from qbraitenberg import circuit, cli, game, qsim
from qbraitenberg.circuit import ARITY, Circuit, CircuitOp, ControlSpec, GateKind

#: The paper's control law: (s1, s2) -> (m1, m2, m3).
PAPER_TABLE = {
    (0, 0): (1, 1, 0),
    (0, 1): (0, 1, 0),
    (1, 0): (1, 0, 0),
    (1, 1): (0, 0, 1),
}

#: One qelib1 statement, as acceptance criterion C7 states the grammar.
QASM_STATEMENT = re.compile(
    r"^(?:(?:x|h|s|sdg|t|tdg) q\[\d+\];"
    r"|cx q\[\d+\],q\[\d+\];"
    r"|measure q\[\d+\] -> c\[\d+\];)$"
)

_EPISODE_LINE = re.compile(r"^episode=(\d+) seed=(\d+) status=(\w+) ticks=(\d+)$")


# ---------------------------------------------------------------- oracles


def table_errors(table) -> list[str]:
    """Differences between a control table and the paper's four rows."""
    got = {(s.s1, s.s2): m.bits for s, m in table.items()}
    return [f"table row {row}: got {got.get(row)}, expected {bits}"
            for row, bits in PAPER_TABLE.items() if got.get(row) != bits] + (
        ["table has extra rows"] if len(got) != len(PAPER_TABLE) else [])


def permutation_oracle(c: Circuit) -> np.ndarray:
    """Unitary of a reversible X/CX/CCX/CCXX circuit, built from bit logic.

    q0 is the most significant bit; an op flips its targets when every
    control reads its required value.
    """
    n = c.n_qubits
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    for src in range(dim):
        bits = src
        for op in c.ops:
            if op.kind not in (GateKind.X, GateKind.CX, GateKind.CCX, GateKind.CCXX):
                raise ValueError(f"{op.kind.value} is not a reversible classical gate")
            if all((bits >> (n - 1 - ctl.qubit)) & 1 == ctl.value for ctl in op.controls):
                for q in op.targets:
                    bits ^= 1 << (n - 1 - q)
        mat[bits, src] = 1.0
    return mat


def qasm_errors(text: str, n_qubits: int, measured: tuple[int, ...], n_gates: int) -> list[str]:
    """Problems with an OpenQASM 2.0 text against the C7 qelib1 grammar."""
    errors = []
    if not text.endswith("\n"):
        errors.append("text does not end with a newline")
    lines = text.splitlines()
    header = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n_qubits}];"]
    if measured:
        header.append(f"creg c[{len(measured)}];")
    if lines[: len(header)] != header:
        errors.append(f"header {lines[:len(header)]} != {header}")
    body = lines[len(header):]
    if len(body) != n_gates + len(measured):
        errors.append(f"{len(body)} statements, expected {n_gates} gates + {len(measured)} measures")
    for number, line in enumerate(body, start=len(header) + 1):
        if not QASM_STATEMENT.match(line):
            errors.append(f"line {number} is not a qelib1 statement: {line!r}")
        elif any(int(q) >= n_qubits for q in re.findall(r"q\[(\d+)\]", line)):
            errors.append(f"line {number} names a qubit outside q[{n_qubits}]: {line!r}")
    expected_measures = [f"measure q[{q}] -> c[{i}];" for i, q in enumerate(measured)]
    if body[n_gates:] != expected_measures:
        errors.append("measure statements do not follow the measured list")
    return errors


def random_op(rng: random.Random, kind: GateKind, n_qubits: int) -> CircuitOp:
    """One op of the given kind on random distinct wires, random control polarities."""
    n_ctrl, n_tgt = ARITY[kind]
    wires = rng.sample(range(n_qubits), n_ctrl + n_tgt)
    controls = tuple(ControlSpec(q, rng.randrange(2)) for q in wires[:n_ctrl])
    return CircuitOp(kind, controls, tuple(wires[n_ctrl:]))


def _call_main(argv: list[str]) -> tuple[int, str]:
    """cli.main with stdout captured; a SystemExit becomes its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


# ---------------------------------------------------------------- workloads


class GameWorkload:
    """One item is one ``game-run`` call of ``episodes`` seeded episodes.

    The call's users see only its total time, so the item, not the episode,
    is the unit of latency; throughput counts episodes.
    """

    unit = "episodes"
    round = 1

    def __init__(self, name: str, brain: str, episodes: int, trace_path: Path | None):
        self.name = name
        self.brain = brain
        self.episodes = episodes
        self.trace_path = trace_path
        self.road_length = game.GameConfig().road_length

    def items(self, seed: int):
        rng = random.Random(seed)
        while True:
            yield rng.randrange(2**32)  # base seed; episode i uses base + i

    def size(self, item: int) -> int:
        return self.episodes

    def argv(self, base: int, brain: str) -> list[str]:
        argv = ["game-run", "--brain", brain, "--episodes", str(self.episodes), "--seed", str(base)]
        if self.trace_path is not None:
            argv += ["--trace-out", str(self.trace_path)]
        return argv

    def run(self, base: int) -> tuple[int, str]:
        return _call_main(self.argv(base, self.brain))

    def layer_counts(self, output: tuple[int, str], counts) -> None:
        counts["cli.stdout.bytes"] += len(output[1].encode())
        if self.trace_path is not None:
            counts["cli.trace_out.bytes"] += os.path.getsize(self.trace_path)

    def lines_ok(self, base: int, output: tuple[int, str]) -> bool:
        """Exit code 0, and every episode line reads won in exactly road_length ticks."""
        code, stdout = output
        lines = stdout.splitlines()
        n, road = self.episodes, self.road_length
        if code != 0 or len(lines) != n + 1:
            return False
        expected = [(str(i), str(base + i), "won", str(road)) for i in range(n)]
        got = [m.groups() if (m := _EPISODE_LINE.match(line)) else None for line in lines[:n]]
        summary = f"episodes={n} wins={n} collisions=0 timeouts=0 mean_ticks={road:.3f}"
        return got == expected and lines[n] == summary

    def check(self, base: int, output: tuple[int, str]) -> int:
        # The table is read the way run_episode reads it, through game.control_table.
        if table_errors(game.control_table(self.brain.replace("-", "_"))):
            return self.episodes
        if not self.lines_ok(base, output):
            return self.episodes
        if self.trace_path is None:
            reference = _call_main(self.argv(base, "classical"))[1].splitlines()
            lines = output[1].splitlines()
            return sum(a != b for a, b in zip(reference, lines[: self.episodes]))
        return self.trace_failures([self.road_length] * self.episodes)

    def trace_failures(self, ticks: list[int]) -> int:
        """Episodes whose JSONL lines fail to parse or disagree with the paper table."""
        failed = 0
        with open(self.trace_path, encoding="utf-8") as fh:
            for count in ticks:
                ok = True
                for tick in range(count):
                    line = fh.readline()
                    try:
                        rec = json.loads(line)
                        ok &= rec["tick"] == tick
                        ok &= (rec["m1"], rec["m2"], rec["m3"]) == PAPER_TABLE[(rec["s1"], rec["s2"])]
                    except (ValueError, KeyError, TypeError):
                        ok = False
                failed += not ok
            if fh.readline():
                return len(ticks)  # more lines than the episodes' ticks
        return failed


class VerifyUnitary:
    """Random reversible circuits on 3-6 qubits; ``lower`` then ``circuit_unitary``.

    Each circuit holds one X, CX, CCX and CCXX (a CCX on 3 qubits, where a
    CCXX does not fit) in random order, wires and polarities, so the cost
    of a round varies little with the seed. Widths repeat as
    WIDTHS per round; the median circuit is then a 5-qubit one.
    """

    name = "verify_unitary"
    unit = "circuits"
    WIDTHS = (3, 4, 5, 6, 6)
    KINDS = (GateKind.X, GateKind.CX, GateKind.CCX, GateKind.CCXX)
    round = len(WIDTHS)

    def items(self, seed: int):
        rng = random.Random(seed)
        seen: set[Circuit] = set()
        while True:
            for n in self.WIDTHS:
                item = self.random_circuit(rng, n)
                while item in seen:  # no item repeats
                    item = self.random_circuit(rng, n)
                seen.add(item)
                yield item

    def random_circuit(self, rng: random.Random, n: int) -> Circuit:
        kinds = [k if sum(ARITY[k]) <= n else GateKind.CCX for k in self.KINDS]
        rng.shuffle(kinds)
        return Circuit(n, tuple(random_op(rng, k, n) for k in kinds))

    def size(self, item: Circuit) -> int:
        return 1

    def run(self, item: Circuit):
        lowered = circuit.lower(item)
        return lowered, qsim.circuit_unitary(lowered)

    def layer_counts(self, output, counts) -> None:
        pass

    def check(self, item: Circuit, output) -> int:
        _, unitary = output
        expected = permutation_oracle(item)
        return int(unitary.entries.shape != expected.shape
                   or np.abs(unitary.entries - expected).max() > 1e-9)


class CompileWide:
    """Wide random circuits over all nine gate kinds; ``lower`` then ``export_qasm``.

    Each circuit holds OPS_PER_KIND ops of every kind in random order, wires
    and polarities, and measures MEASURED random qubits.
    """

    name = "compile_wide"
    unit = "circuits"
    WIDTHS = (32, 56, 80, 104, 128)
    OPS_PER_KIND = 120
    MEASURED = 8
    round = len(WIDTHS)

    def items(self, seed: int):
        rng = random.Random(seed)
        while True:
            for n in self.WIDTHS:
                kinds = [k for k in GateKind for _ in range(self.OPS_PER_KIND)]
                rng.shuffle(kinds)
                ops = tuple(random_op(rng, k, n) for k in kinds)
                yield Circuit(n, ops), tuple(rng.sample(range(n), self.MEASURED))

    def size(self, item) -> int:
        return 1

    def run(self, item):
        source, measured = item
        lowered = circuit.lower(source)
        return lowered, circuit.export_qasm(lowered, measured)

    def layer_counts(self, output, counts) -> None:
        pass

    def check(self, item, output) -> int:
        (source, measured), (lowered, text) = item, output
        errors = qasm_errors(text, source.n_qubits, measured, len(lowered.ops))
        return int(bool(errors) or circuit.lower(lowered).ops != lowered.ops)


def make(name: str, run_dir: Path):
    """The workload called ``name``; files it writes go under ``run_dir``."""
    if name == "game_lowered":
        return GameWorkload(name, "quantum-lowered", 20, None)
    if name == "game_trace":
        return GameWorkload(name, "classical", 200, run_dir / "game_trace.jsonl")
    if name == "verify_unitary":
        return VerifyUnitary()
    if name == "compile_wide":
        return CompileWide()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("game_lowered", "game_trace", "verify_unitary", "compile_wide")

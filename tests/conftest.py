"""Shared test helpers: independent oracles and a seeded circuit generator.

The matrix oracles here are built straight from bit logic (flip the target
bits iff every control reads its required value), never through the
simulator, so unitary comparisons check two independent routes. The game
oracles play the rules as README states them, never through ``game.step``.
"""

from __future__ import annotations

import json

import numpy as np

from qbraitenberg.brain import MotorOutput, SensorInput
from qbraitenberg.circuit import ARITY, Circuit, CircuitOp, ControlSpec, GateKind
from qbraitenberg.game import EpisodeStatus, Obstacle, RobotPose, TickTrace

MASK64 = (1 << 64) - 1


class NamedInt(int):
    """An int subclass that prints as a name: a writer that accepted it would emit ``q[w]``."""

    def __str__(self) -> str:
        return "w"


def permutation_matrix(n_qubits: int, index_map) -> np.ndarray:
    """Unitary permutation matrix from an explicit basis-index map."""
    dim = 2**n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for src in range(dim):
        mat[index_map(src), src] = 1.0
    return mat


def toffoli_8() -> np.ndarray:
    """8x8 Toffoli: flip q2 iff q0 and q1 (q0 is the most significant bit)."""
    return permutation_matrix(3, lambda i: i ^ 0b001 if (i & 0b110) == 0b110 else i)


def ccxx_16() -> np.ndarray:
    """16x16 two-control-two-target flip: flip q2, q3 iff q0 and q1."""
    return permutation_matrix(4, lambda i: i ^ 0b0011 if (i & 0b1100) == 0b1100 else i)


def cnot_4() -> np.ndarray:
    """4x4 CNOT with q0 as control, q1 as target."""
    return permutation_matrix(2, lambda i: i ^ 0b01 if i & 0b10 else i)


def marginal_by_enumeration(amps: np.ndarray, n_qubits: int, measured) -> dict[str, float]:
    """Brute-force marginal distribution: walk every basis index."""
    out: dict[str, float] = {}
    for idx, amp in enumerate(amps):
        bits = format(idx, f"0{n_qubits}b")
        key = "".join(bits[q] for q in measured)
        out[key] = out.get(key, 0.0) + abs(amp) ** 2
    return out


def depth_by_peeling(circuit: Circuit) -> int:
    """Circuit depth by peeling front layers until no op is left.

    Each round takes every op whose wires no earlier waiting op and no op
    taken this round uses.
    """
    waiting, layers = list(circuit.ops), 0
    while waiting:
        blocked: set[int] = set()
        rest = []
        for op in waiting:
            if not blocked.isdisjoint(op.qubits):
                rest.append(op)
            blocked.update(op.qubits)
        waiting, layers = rest, layers + 1
    return layers


def random_ops(rng: np.random.Generator, n: int, count: int, kinds=tuple(GateKind)) -> tuple[CircuitOp, ...]:
    """``count`` random ops on ``n`` qubits over the kinds that fit, with random control polarities."""
    usable = [k for k in kinds if sum(ARITY[k]) <= n]
    ops = []
    for _ in range(count):
        kind = usable[int(rng.integers(len(usable)))]
        n_ctrl, n_tgt = ARITY[kind]
        wires = [int(q) for q in rng.choice(n, size=n_ctrl + n_tgt, replace=False)]
        controls = tuple(ControlSpec(q, int(rng.integers(2))) for q in wires[:n_ctrl])
        ops.append(CircuitOp(kind, controls, tuple(wires[n_ctrl:])))
    return tuple(ops)


def random_circuit(rng: np.random.Generator, max_qubits: int = 4, max_ops: int = 8,
                   kinds=tuple(GateKind)) -> Circuit:
    """Random circuit over the given kinds, with random control polarities."""
    n = int(rng.integers(1, max_qubits + 1))
    return Circuit(n, random_ops(rng, n, int(rng.integers(0, max_ops + 1)), kinds))


def random_state(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """Haar-ish random normalized amplitude vector."""
    amps = rng.normal(size=2**n_qubits) + 1j * rng.normal(size=2**n_qubits)
    return amps / np.linalg.norm(amps)


def reference_splitmix64(seed):
    """Scalar splitmix64 as published: one state step and one mix per output."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def reference_trace_json_line(record, row):
    """The dict-plus-``json.dumps`` serializer that ``trace_json_line`` replaced, kept as its oracle.

    ``row`` is the robot's row after the step, which the caller counts itself.
    """
    payload = {
        "tick": record.tick,
        "row": row,
        "left_lane": record.after.left_lane,
        "altitude": record.after.altitude,
        "s1": record.sensors.s1,
        "s2": record.sensors.s2,
        "m1": record.motors.m1,
        "m2": record.motors.m2,
        "m3": record.motors.m3,
        "obstacles": [{"track": o.track, "row": o.row_at(record.tick + 1), "dir": o.direction} for o in record.obstacles],
        "status": record.status.value,
    }
    return json.dumps(payload, separators=(",", ":"))


#: The four behaviours a brain row can take, by letter: forward, left turn, right turn, take-off.
BEHAVIOURS = {"F": MotorOutput(1, 1, 0), "L": MotorOutput(0, 1, 0), "R": MotorOutput(1, 0, 0), "T": MotorOutput(0, 0, 1)}


def brain(letters):
    """Four rows in ``SENSOR_INPUTS`` order, one behaviour letter each: the paper's is ``"FLRT"``."""
    return tuple(BEHAVIOURS[c] for c in letters)


def reference_episode(config, start_lane, rows):
    """The game as README states its rules, played literally: (status, ticks, collision tick, trace lines).

    Written from the rules, not from ``step``: the robot keeps its own row,
    each obstacle is a mutable ``[track, row, dir]`` moved one row per tick,
    and each coin is drawn from the scalar splitmix64.
    """
    draws = reference_splitmix64(config.seed)
    row, lane, altitude = 0, start_lane, 0
    obstacles, status, collision_tick, lines = [], "running", None, []
    tick = 0
    while status == "running":
        # Sense: a track lights when one of its obstacles is 1..detection_window rows ahead.
        ahead = range(row + 1, row + config.detection_window + 1)
        s1 = int(any(track == 1 and r in ahead for track, r, _ in obstacles))
        s2 = int(any(track == 2 and r in ahead for track, r, _ in obstacles))
        motors = rows[2 * s1 + s2]
        # Act: the propeller lifts the robot in its lane; otherwise it lands, and one wheel alone veers.
        ahead_before = {id(o): o[1] - row for o in obstacles}
        altitude = motors.m3
        if motors.m1 and not motors.m2 and lane < 3:
            lane += 1  # left wheel alone: one lane right
        if motors.m2 and not motors.m1 and lane > 1:
            lane -= 1  # right wheel alone: one lane left
        row += 1
        # Every obstacle moves one row along its direction.
        for o in obstacles:
            o[1] += o[2]
        # A grounded robot hits an obstacle in one of its two lanes that shares its row,
        # or that was ahead of it before the tick and is behind it after.
        for o in obstacles:
            obstacle_lane = 1 if o[0] == 1 else 4
            offset = o[1] - row
            if altitude == 0 and obstacle_lane in (lane, lane + 1) and (offset == 0 or ahead_before[id(o)] > 0 > offset):
                status, collision_tick = "collided", tick
                break
        # Obstacles more than two rows behind the robot leave the road.
        obstacles = [o for o in obstacles if o[1] >= row - 2]
        # Spawn, track 1 then track 2: a coin below spawn_prob, then room within min_gap, then a direction coin.
        spawn_row = row + config.spawn_horizon
        for track in (1, 2):
            if (next(draws) >> 11) * 2.0**-53 >= config.spawn_prob:
                continue
            if any(t == track and abs(r - spawn_row) <= config.min_gap for t, r, _ in obstacles):
                continue
            direction = -1 if (next(draws) >> 11) * 2.0**-53 < 0.5 else 1
            obstacles.append([track, spawn_row, direction])
        if status == "running" and row >= config.road_length:
            status = "won"
        if status == "running" and tick + 1 >= config.max_ticks:
            status = "timed_out"
        # The record of ``tick`` holds each obstacle's row after the move, which is ``row_at(tick + 1)``.
        snapshot = tuple(Obstacle(track, r - d * (tick + 1), d) for track, r, d in obstacles)
        record = TickTrace(tick, RobotPose(lane, altitude), SensorInput(s1, s2), motors, snapshot,
                           EpisodeStatus(status))
        lines.append(reference_trace_json_line(record, row))
        tick += 1
    return status, tick, collision_tick, lines


def first_trace_difference(lines, expected):
    """Where trace lines first differ from the expected ones, key by key in key order; ``None`` if equal.

    For example ``line 37 (tick 12): "left_lane" got 1, expected 2``; lines
    count from 1. A trace that matches up to the shorter one's end reports
    the two lengths.
    """
    for number, (line, expected_line) in enumerate(zip(lines, expected), 1):
        if line == expected_line:
            continue
        got, want = json.loads(line), json.loads(expected_line)
        where = f"line {number} (tick {want['tick']})"
        for key in want:
            if key not in got:
                return f'{where}: "{key}" missing, expected {json.dumps(want[key])}'
            if got[key] != want[key]:
                return f'{where}: "{key}" got {json.dumps(got[key])}, expected {json.dumps(want[key])}'
        return f"{where}: got {line!r}, expected {expected_line!r}"
    if len(lines) != len(expected):
        return f"{len(lines)} lines, expected {len(expected)}"
    return None


def pin_failure(runs):
    """The message for a failed trace pin: the first run whose lines differ from the reference game's.

    ``runs`` yields ``(name, lines, expected)``; it is read only up to that run.
    """
    for name, lines, expected in runs:
        difference = first_trace_difference(lines, expected)
        if difference is not None:
            return f"{name}: {difference}"
    return "every run matches the reference game, so the written rules and the pinned digest disagree"

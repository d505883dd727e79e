"""Shared test helpers: independent oracles and a seeded circuit generator.

The matrix oracles here are built straight from bit logic (flip the target
bits iff every control reads its required value), never through the
simulator, so unitary comparisons check two independent routes.
"""

from __future__ import annotations

import numpy as np

from qbraitenberg.circuit import ARITY, Circuit, CircuitOp, ControlSpec, GateKind


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

"""Exact statevector simulation for small registers (double precision).

Bit-order convention, used by every module in this package: the ket string
"q0 q1 ... q(n-1)" is read left to right with q0 as the most significant bit
of the basis index, so ``new_basis_state(5, "00110")`` puts the amplitude at
index 0b00110 = 6. All operations are pure: they return fresh values and
never mutate their inputs; ``run_circuit`` copies the amplitudes once, then
applies each op in place by its structure (``_apply_op``), not as a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, CircuitOp, GateKind, UnsupportedGateError, require_int, require_qubits

#: Tolerance for unitarity and normalization checks; double precision only
#: ever has to absorb rounding here.
ATOL = 1e-9

#: circuit_unitary guard: 2^6 x 2^6 is the largest matrix worth materializing.
MAX_UNITARY_QUBITS = 6

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
#: Diagonal gates, by the phase they put on |1>.
_PHASES = {
    GateKind.S: 1j,
    GateKind.SDG: -1j,
    GateKind.T: np.exp(1j * np.pi / 4),
    GateKind.TDG: np.exp(-1j * np.pi / 4),
}
#: Kinds that flip every target where they fire.
_FLIPS = frozenset({GateKind.X, GateKind.CX, GateKind.CCX, GateKind.CCXX})


@dataclass(frozen=True, eq=False)
class StateVector:
    """2^n complex amplitudes over the computational basis."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        require_int("n_qubits", self.n_qubits, 1)
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if amps.shape != (2**self.n_qubits,):
            raise ValueError(f"expected {2**self.n_qubits} amplitudes, got {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True, eq=False)
class GateMatrix:
    """A k-qubit unitary; construction validates U†U = I within ATOL."""

    k: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        require_int("k", self.k, 1)
        entries = np.asarray(self.entries, dtype=complex)
        dim = 2**self.k
        if entries.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("gate entries must be finite")
        defect = np.abs(entries.conj().T @ entries - np.eye(dim)).max()
        if defect > ATOL:
            raise ValueError(f"matrix is not unitary (U†U deviates from I by {defect:.3e})")
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Born-rule probabilities over an ordered list of measured qubits.

    Bitstring keys follow the measured order: the leftmost character is the
    first listed qubit. Every outcome appears, including zeros.
    """

    probs: dict[str, float]

    def __post_init__(self) -> None:
        if any(p < -1e-12 for p in self.probs.values()):
            raise ValueError("probabilities must be nonnegative")
        total = sum(self.probs.values())
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")


def new_basis_state(n_qubits: int, bits: str) -> StateVector:
    """Computational basis state |bits>, q0 being the leftmost character."""
    require_int("n_qubits", n_qubits, 1)
    if len(bits) != n_qubits:
        raise ValueError(f"bit string {bits!r} does not match n_qubits={n_qubits}")
    if any(ch not in "01" for ch in bits):
        raise ValueError(f"bit string must contain only 0/1, got {bits!r}")
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(n_qubits, amps)


def apply_gate(state: StateVector, gate: GateMatrix, targets: tuple[int, ...] | list[int]) -> StateVector:
    """Apply a k-qubit gate to the listed qubits (identity elsewhere).

    targets[0] is the most significant qubit of the gate's own index space.
    """
    n = state.n_qubits
    targets = require_qubits("target qubit", targets, n)
    if gate.k != len(targets):
        raise ValueError(f"gate acts on {gate.k} qubits but {len(targets)} targets given")

    k = gate.k
    psi = np.moveaxis(state.amps.reshape((2,) * n), targets, range(k))
    out = (gate.entries @ psi.reshape(2**k, -1)).reshape((2,) * n)
    return _checked(state, np.moveaxis(out, range(k), targets))


def _checked(state: StateVector, out: np.ndarray) -> StateVector:
    """Wrap amplitudes computed from ``state``; raise if the norm drifted."""
    drift = abs(np.linalg.norm(out) - state.norm())
    if drift > ATOL:
        raise RuntimeError(f"statevector norm drifted by {drift:.3e} (tolerance {ATOL:g})")
    return StateVector(state.n_qubits, out)


def _apply_op(psi: np.ndarray, op: CircuitOp) -> None:
    """Apply one IR op in place to amplitudes shaped (2,)*n.

    Control axes are sliced (not indexed) at their ControlSpec value, so only
    the firing slice is touched, anticontrols need no X conjugation and axis
    numbers stay qubit numbers. X-type targets flip, a phase gate scales the
    |1> half of its axis and H is a 2x2 contraction on its axis.
    """
    index = [slice(None)] * psi.ndim
    for c in op.controls:
        index[c.qubit] = slice(c.value, c.value + 1)
    part = psi[tuple(index)]
    t = op.targets[0]
    if op.kind in _FLIPS:
        part[...] = np.flip(part, op.targets)
    elif op.kind in _PHASES:
        np.moveaxis(part, t, 0)[1] *= _PHASES[op.kind]
    elif op.kind is GateKind.H:
        part[...] = np.moveaxis(np.tensordot(_H, part, axes=(1, t)), 0, t)
    else:
        raise UnsupportedGateError(f"unknown gate kind {op.kind!r}")


def run_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    """Left-to-right fold of the ops over one copy of the amplitudes; one norm check."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError(
            f"circuit has {circuit.n_qubits} qubits but state has {state.n_qubits}"
        )
    psi = state.amps.reshape((2,) * state.n_qubits).copy()
    for op in circuit.ops:
        _apply_op(psi, op)
    return _checked(state, psi)


def outcome_distribution(state: StateVector, measured: tuple[int, ...] | list[int]) -> OutcomeDistribution:
    """Marginal Born-rule distribution over the listed qubits.

    Unmeasured qubits are summed out; bitstring keys follow the given order.
    """
    n = state.n_qubits
    measured = require_qubits("measured qubit", measured, n)
    if not measured:
        raise ValueError("measured qubit list must not be empty")

    p = np.abs(state.amps.reshape((2,) * n)) ** 2
    marg = np.einsum(p, range(n), measured).reshape(-1)
    k = len(measured)
    return OutcomeDistribution({format(i, f"0{k}b"): float(marg[i]) for i in range(2**k)})


def circuit_unitary(circuit: Circuit) -> GateMatrix:
    """Full circuit unitary, built by running every basis state as a column.

    Intended as a verification oracle for synthesis passes; capped at
    MAX_UNITARY_QUBITS qubits.
    """
    n = circuit.n_qubits
    if n > MAX_UNITARY_QUBITS:
        raise ValueError(f"circuit_unitary supports at most {MAX_UNITARY_QUBITS} qubits, got {n}")
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        mat[:, j] = run_circuit(circuit, new_basis_state(n, format(j, f"0{n}b"))).amps
    return GateMatrix(n, mat)


def equal_up_to_global_phase(a: GateMatrix | np.ndarray, b: GateMatrix | np.ndarray, atol: float = ATOL) -> bool:
    """Elementwise matrix equality after removing a global phase.

    The phase reference is the first entry of largest magnitude in ``a``;
    both matrices are rotated so that entry is real and positive, then
    compared entry by entry.
    """
    ma = np.asarray(a.entries if isinstance(a, GateMatrix) else a, dtype=complex)
    mb = np.asarray(b.entries if isinstance(b, GateMatrix) else b, dtype=complex)
    if ma.shape != mb.shape:
        return False
    ref = int(np.argmax(np.abs(ma)))
    za, zb = ma.ravel()[ref], mb.ravel()[ref]
    if abs(za) <= atol or abs(zb) <= atol:
        return False
    na = ma / (za / abs(za))
    nb = mb / (zb / abs(zb))
    return bool(np.abs(na - nb).max() <= atol)

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NamedInt, marginal_by_enumeration, permutation_matrix, random_circuit, random_state
from qbraitenberg import qsim
from qbraitenberg.brain import build_robot_circuit
from qbraitenberg.circuit import Circuit, CircuitOp, GateKind, ccx, ccxx, cx, export_qasm, h, x
from qbraitenberg.qsim import (
    GateMatrix,
    OutcomeDistribution,
    StateVector,
    apply_gate,
    circuit_unitary,
    equal_up_to_global_phase,
    new_basis_state,
    outcome_distribution,
    run_circuit,
)

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
TEXTBOOK_1Q = {
    GateKind.X: X_MATRIX,
    GateKind.H: H_MATRIX,
    GateKind.S: np.diag([1, 1j]),
    GateKind.SDG: np.diag([1, -1j]),
    GateKind.T: np.diag([1, np.exp(1j * np.pi / 4)]),
    GateKind.TDG: np.diag([1, np.exp(-1j * np.pi / 4)]),
}
SRC = Path(__file__).resolve().parents[1] / "src"


def flip_permutation(circuit: Circuit) -> np.ndarray:
    """Unitary of an X-type circuit from bit logic: each op flips its target
    bits iff every control bit reads its ControlSpec value."""
    n = circuit.n_qubits

    def bit(q: int) -> int:
        return 1 << (n - 1 - q)

    def index_map(i: int) -> int:
        for op in circuit.ops:
            if all(bool(i & bit(c.qubit)) == bool(c.value) for c in op.controls):
                for q in op.targets:
                    i ^= bit(q)
        return i

    return permutation_matrix(n, index_map)


class TestNewBasisState:
    def test_all_zeros(self):
        state = new_basis_state(5, "00000")
        assert state.amps[0] == 1.0
        assert np.count_nonzero(state.amps) == 1

    def test_ket_00110_lands_on_index_6(self):
        # q0 is the MSB, so "00110" (q2=q3=1) is index 0b00110 = 6
        state = new_basis_state(5, "00110")
        assert state.amps[6] == 1.0
        assert np.count_nonzero(state.amps) == 1

    def test_single_qubit_one(self):
        state = new_basis_state(1, "1")
        assert np.array_equal(state.amps, [0.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            new_basis_state(3, "01")

    def test_non_bit_characters(self):
        with pytest.raises(ValueError):
            new_basis_state(2, "2x")

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            new_basis_state(0, "")


class TestIntRule:
    @pytest.mark.parametrize(
        "value,shown",
        [(True, "True"), (1.0, "1.0"), (np.int64(2), "np.int64(2)"), (NamedInt(2), "2 (NamedInt)")],
        ids=["True", "1.0", "np.int64", "NamedInt"],
    )
    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda v: StateVector(v, np.eye(1, 2 ** int(v))), "n_qubits"),
            (lambda v: GateMatrix(v, np.eye(2 ** int(v))), "k"),
            (lambda v: new_basis_state(v, "0" * int(v)), "n_qubits"),
            (lambda v: outcome_distribution(new_basis_state(3, "000"), [v]), "measured qubit"),
            (lambda v: apply_gate(new_basis_state(3, "000"), GateMatrix(1, np.eye(2)), (v,)), "target qubit"),
        ],
        ids=["StateVector", "GateMatrix", "new_basis_state", "outcome_distribution", "apply_gate"],
    )
    def test_non_int_width_or_qubit_rejected_naming_field(self, build, field, value, shown):
        # each input is sized to pass every other check, so only the int rule can reject it
        with pytest.raises(ValueError, match=rf"^{field} must be an int >= [01], got {re.escape(shown)}$"):
            build(value)

    @pytest.mark.parametrize(
        "wires,message",
        [((0, 0), "s must be distinct, got (0, 0)"), ((0, 3), "s (0, 3) out of range for n_qubits=3")],
        ids=["repeated", "out_of_range"],
    )
    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda w: outcome_distribution(new_basis_state(3, "000"), w), "measured qubit"),
            (lambda w: export_qasm(Circuit(3, ()), w), "measured qubit"),
            (lambda w: apply_gate(new_basis_state(3, "000"), GateMatrix(2, np.eye(4)), w), "target qubit"),
        ],
        ids=["outcome_distribution", "export_qasm", "apply_gate"],
    )
    def test_one_wire_list_rule(self, build, field, wires, message):
        with pytest.raises(ValueError, match=rf"^{field}{re.escape(message)}$"):
            build(wires)


class TestApplyGate:
    def test_hadamard_on_zero(self):
        out = apply_gate(new_basis_state(1, "0"), GateMatrix(1, H_MATRIX), (0,))
        assert np.allclose(out.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_x_on_q3(self):
        out = apply_gate(new_basis_state(5, "00000"), GateMatrix(1, X_MATRIX), (3,))
        assert out.amps[int("00010", 2)] == 1.0

    def test_cnot_copies_q2_to_q0(self):
        # ancilla-copy step: |00100> -> |10100>
        state = new_basis_state(5, "00100")
        out = run_circuit(Circuit(5, (cx(2, 0),)), state)
        assert out.amps[int("10100", 2)] == 1.0

    def test_repeated_target_rejected(self):
        gate = GateMatrix(2, np.eye(4))
        with pytest.raises(ValueError, match="distinct"):
            apply_gate(new_basis_state(2, "00"), gate, (0, 0))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            apply_gate(new_basis_state(2, "00"), GateMatrix(1, X_MATRIX), (2,))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="targets"):
            apply_gate(new_basis_state(2, "00"), GateMatrix(1, X_MATRIX), (0, 1))

    def test_non_unitary_matrix_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            GateMatrix(1, np.array([[1, 0], [1, 1]], dtype=complex))


NAN = float("nan")


@pytest.mark.parametrize("build, message", [
    (lambda: StateVector(1, [1, 0, 0]), "expected 2 amplitudes, got (3,)"),
    (lambda: StateVector(1, [NAN, 0]), "amplitudes must be finite"),
    (lambda: GateMatrix(1, np.eye(4)), "expected a 2x2 matrix, got (4, 4)"),
    (lambda: GateMatrix(1, np.array([[NAN, 0], [0, 1]], dtype=complex)), "gate entries must be finite"),
    (lambda: OutcomeDistribution({"0": -0.5, "1": 1.5}), "probabilities must be nonnegative"),
    (lambda: OutcomeDistribution({"0": 0.5}), "probabilities sum to 0.5, expected 1"),
    # a NaN compares False both ways, so it would pass the sign and sum checks unnoticed
    (lambda: OutcomeDistribution({"0": NAN, "1": 1.0}), "probabilities must be finite"),
    (lambda: OutcomeDistribution({"0": NAN}), "probabilities must be finite"),
    (lambda: OutcomeDistribution({"0": 0.5, "1": NAN}), "probabilities must be finite"),
], ids=["amps-shape", "amps-nan", "matrix-shape", "matrix-nan", "probs-negative", "probs-sum",
        "probs-nan-first", "probs-nan-only", "probs-nan-last"])
def test_value_check_names_its_fault(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


class TestRunCircuit:
    def test_robot_flight_input(self):
        out = run_circuit(build_robot_circuit(), new_basis_state(5, "00110"))
        assert abs(out.amps[int("11001", 2)]) == pytest.approx(1.0, abs=1e-9)

    def test_robot_left_turn_input(self):
        out = run_circuit(build_robot_circuit(), new_basis_state(5, "00010"))
        assert abs(out.amps[int("01010", 2)]) == pytest.approx(1.0, abs=1e-9)

    def test_empty_circuit_is_identity(self):
        state = new_basis_state(3, "101")
        out = run_circuit(Circuit(3), state)
        assert np.array_equal(out.amps, state.amps)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            run_circuit(Circuit(3), new_basis_state(2, "00"))


class TestOutcomeDistribution:
    def test_delta_on_measured_subset(self):
        dist = outcome_distribution(new_basis_state(5, "00110"), (2, 3, 4))
        assert dist.probs["110"] == pytest.approx(1.0)
        assert sum(dist.probs.values()) == pytest.approx(1.0)

    def test_flight_outcome(self):
        dist = outcome_distribution(new_basis_state(5, "11001"), (2, 3, 4))
        assert dist.probs["001"] == pytest.approx(1.0)

    def test_uniform_superposition(self):
        state = StateVector(1, np.array([1, 1]) / np.sqrt(2))
        dist = outcome_distribution(state, (0,))
        assert dist.probs == {"0": pytest.approx(0.5), "1": pytest.approx(0.5)}

    def test_bitstring_follows_measured_order(self):
        # measuring (3, 2) should read q3 first
        dist = outcome_distribution(new_basis_state(4, "0010"), (3, 2))
        assert dist.probs["01"] == pytest.approx(1.0)

    def test_includes_zero_probability_outcomes(self):
        dist = outcome_distribution(new_basis_state(2, "00"), (0, 1))
        assert set(dist.probs) == {"00", "01", "10", "11"}

    def test_invalid_indices(self):
        state = new_basis_state(2, "00")
        with pytest.raises(ValueError):
            outcome_distribution(state, (0, 2))
        with pytest.raises(ValueError):
            outcome_distribution(state, (1, 1))
        with pytest.raises(ValueError):
            outcome_distribution(state, ())

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        state = StateVector(n, random_state(rng, n))
        k = int(rng.integers(1, n + 1))
        measured = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
        dist = outcome_distribution(state, measured)
        oracle = marginal_by_enumeration(state.amps, n, measured)
        for key, p in dist.probs.items():
            assert p == pytest.approx(oracle.get(key, 0.0), abs=1e-12)


class TestValuesOwnReadOnlyData:
    """Each check runs once, at construction, so no write may reach a value's data after it."""

    @pytest.mark.parametrize(
        "data,key",
        [
            (lambda: run_circuit(Circuit(1, (h(0),)), new_basis_state(1, "0")).amps, slice(None)),
            (lambda: circuit_unitary(Circuit(1, (h(0),))).entries, (0, 0)),
            (lambda: outcome_distribution(new_basis_state(1, "0"), (0,)).probs, "0"),
        ],
        ids=["amps", "entries", "probs"],
    )
    def test_writes_raise(self, data, key):
        with pytest.raises((ValueError, TypeError)):
            data()[key] = 0

    def test_inputs_are_copied(self):
        amps, entries, probs = np.array([1, 0], dtype=complex), np.eye(2, dtype=complex), {"0": 1.0, "1": 0.0}
        state, gate, dist = StateVector(1, amps), GateMatrix(1, entries), OutcomeDistribution(probs)
        amps[0], entries[0, 0], probs["0"] = 5, 9, 7.0
        assert state.norm() == 1.0 and np.array_equal(state.amps, [1, 0])
        assert np.array_equal(gate.entries, np.eye(2))
        assert dist.probs == {"0": 1.0, "1": 0.0}


class TestCircuitUnitary:
    def test_empty_circuit_is_identity(self):
        assert np.array_equal(circuit_unitary(Circuit(1)).entries, np.eye(2))

    def test_single_x(self):
        mat = circuit_unitary(Circuit(1, (x(0),))).entries
        assert np.array_equal(mat, X_MATRIX)

    def test_qubit_guard(self):
        with pytest.raises(ValueError, match="at most"):
            circuit_unitary(Circuit(7))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_x_type_circuits_match_bit_logic(self, seed):
        rng = np.random.default_rng(seed)
        kinds = (GateKind.X, GateKind.CX, GateKind.CCX, GateKind.CCXX)
        circuit = random_circuit(rng, max_qubits=5, max_ops=10, kinds=kinds)
        got = circuit_unitary(circuit).entries
        assert np.abs(got - flip_permutation(circuit)).max() <= 1e-12

    @pytest.mark.parametrize("wire", [0, 1, 2])
    @pytest.mark.parametrize("kind", list(TEXTBOOK_1Q))
    def test_one_qubit_gate_matches_kron_of_textbook_matrix(self, kind, wire):
        factors = [np.eye(2)] * 3
        factors[wire] = TEXTBOOK_1Q[kind]
        expected = np.kron(np.kron(factors[0], factors[1]), factors[2])
        got = circuit_unitary(Circuit(3, (CircuitOp(kind, (), (wire,)),))).entries
        assert np.abs(got - expected).max() <= 1e-12


class TestEqualUpToGlobalPhase:
    def test_phase_rotated_matrix_matches(self):
        mat = circuit_unitary(Circuit(2, (h(0), cx(0, 1)))).entries
        assert equal_up_to_global_phase(mat, np.exp(0.37j) * mat)

    def test_different_matrices_do_not_match(self):
        assert not equal_up_to_global_phase(np.eye(2), X_MATRIX)

    def test_shape_mismatch(self):
        assert not equal_up_to_global_phase(np.eye(2), np.eye(4))


class TestInvariants:
    def test_norm_check_survives_optimize_flag(self):
        # a non-unitary H must be caught under python -O, which strips asserts
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from qbraitenberg import qsim
            from qbraitenberg.circuit import Circuit, h
            if not sys.flags.optimize:
                sys.exit("expected to run under python -O")
            qsim._H = np.array([[1, 1], [1, 1]], dtype=complex)
            qsim.run_circuit(Circuit(1, (h(0),)), qsim.new_basis_state(1, "0"))
        """)
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert proc.returncode != 0
        assert "RuntimeError: statevector norm drifted by 4.142e-01" in proc.stderr

    def test_norm_drift_raises(self, monkeypatch):
        # the same non-unitary H in process, so the check's line runs under the suite
        monkeypatch.setattr(qsim, "_H", np.array([[1, 1], [1, 1]], dtype=complex))
        with pytest.raises(RuntimeError, match=r"^statevector norm drifted by 4\.142e-01 \(tolerance 1e-09\)$"):
            run_circuit(Circuit(1, (h(0),)), new_basis_state(1, "0"))

    def test_kernels_partition_gate_kinds(self):
        # _apply_op flips, phases, or else applies H: a new kind with no kernel must fail here
        flips, phases, hadamard = set(qsim._FLIPS), set(qsim._PHASES), {GateKind.H}
        assert not (flips & phases or flips & hadamard or phases & hadamard)
        assert flips | phases | hadamard == set(GateKind)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_norm_preserved_by_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng)
        state = StateVector(circuit.n_qubits, random_state(rng, circuit.n_qubits))
        out = run_circuit(circuit, state)
        assert abs(out.norm() - 1.0) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_x_type_circuits_preserve_basis_states(self, seed):
        rng = np.random.default_rng(seed)
        kinds = (GateKind.X, GateKind.CX, GateKind.CCX, GateKind.CCXX)
        circuit = random_circuit(rng, kinds=kinds)
        bits = format(int(rng.integers(2**circuit.n_qubits)), f"0{circuit.n_qubits}b")
        out = run_circuit(circuit, new_basis_state(circuit.n_qubits, bits))
        mags = np.abs(out.amps)
        assert np.count_nonzero(mags > 1e-9) == 1
        assert mags.max() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_run_circuit_is_linear_on_3_qubits(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, max_qubits=3)
        circuit = Circuit(3, circuit.ops) if circuit.n_qubits < 3 else circuit
        a, b = new_basis_state(3, "010"), new_basis_state(3, "110")
        alpha, beta = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
        combo = StateVector(3, alpha * a.amps + beta * b.amps)
        lhs = run_circuit(circuit, combo).amps
        rhs = alpha * run_circuit(circuit, a).amps + beta * run_circuit(circuit, b).amps
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_full_measurement_of_basis_state_is_delta(self):
        dist = outcome_distribution(new_basis_state(4, "1011"), (0, 1, 2, 3))
        assert dist.probs["1011"] == pytest.approx(1.0)
        assert all(p == 0.0 for key, p in dist.probs.items() if key != "1011")

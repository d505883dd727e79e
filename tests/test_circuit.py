import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NamedInt, ccxx_16, cnot_4, depth_by_peeling, random_circuit, random_ops, toffoli_8
from qbraitenberg.brain import build_robot_circuit
from qbraitenberg.circuit import (
    LOWERED_KINDS,
    Circuit,
    CircuitOp,
    ControlSpec,
    GateKind,
    UnsupportedGateError,
    _cancel_facing_x,
    ccx,
    ccx_decompose,
    ccxx,
    ccxx_decompose,
    cx,
    depth,
    export_qasm,
    h,
    lower,
    polarity_lower,
    t,
    x,
)
from qbraitenberg.qsim import circuit_unitary, equal_up_to_global_phase, new_basis_state, run_circuit


class TestIrValidation:
    def test_wrong_control_count(self):
        with pytest.raises(ValueError, match="controls"):
            CircuitOp(GateKind.CCX, (ControlSpec(0),), (1,))

    def test_wrong_target_count(self):
        with pytest.raises(ValueError, match="targets"):
            CircuitOp(GateKind.CCXX, (ControlSpec(0), ControlSpec(1)), (2,))

    def test_control_target_overlap(self):
        with pytest.raises(ValueError, match="distinct"):
            cx(1, 1)

    def test_bad_polarity_value(self):
        with pytest.raises(ValueError, match="^control value must be one of 0, 1, got 2$"):
            ControlSpec(0, 2)

    def test_circuit_rejects_out_of_range_ops(self):
        with pytest.raises(ValueError, match="n_qubits"):
            Circuit(2, (x(2),))

    def test_qubits_property_lists_controls_first(self):
        assert ccxx(0, 1, 2, 3).qubits == (0, 1, 2, 3)

    @pytest.mark.parametrize(
        "build,field,value",
        [
            (lambda: x(1.0), "target qubit", "1.0"),
            (lambda: cx(True, 2), "control qubit", "True"),
            (lambda: cx(NamedInt(0), 2), "control qubit", "0 (NamedInt)"),
            (lambda: CircuitOp(GateKind.H, (), (np.int64(0),)), "target qubit", "np.int64(0)"),
            (lambda: Circuit(2.5, ()), "n_qubits", "2.5"),
            (lambda: Circuit(True, ()), "n_qubits", "True"),
            (lambda: Circuit(NamedInt(2), ()), "n_qubits", "2 (NamedInt)"),
            (lambda: export_qasm(Circuit(2, ()), (1.0,)), "measured qubit", "1.0"),
            (lambda: export_qasm(Circuit(2, ()), (False,)), "measured qubit", "False"),
            (lambda: export_qasm(Circuit(2, ()), (NamedInt(1),)), "measured qubit", "1 (NamedInt)"),
        ],
    )
    def test_non_int_wires_rejected_naming_field_and_value(self, build, field, value):
        # without the check these export as "x q[1.0];", "cx q[True],q[2];" and "measure q[1.0] -> c[0];"
        with pytest.raises(ValueError, match=f"^{field} must be an int >= [01], got {re.escape(value)}$"):
            build()

    @pytest.mark.parametrize(
        "value,shown", [(1.0, "1.0"), (True, "True"), (NamedInt(1), "1 (NamedInt)")], ids=["1.0", "True", "NamedInt"]
    )
    def test_non_int_control_value_rejected(self, value, shown):
        # without the check cx(0, 1, value=1.0) is accepted and run_circuit fails on a float slice index
        with pytest.raises(ValueError, match=f"^control value must be an int, got {re.escape(shown)}$"):
            cx(0, 1, value=value)

    def test_unknown_gate_kind_is_unsupported_gate_error(self):
        with pytest.raises(UnsupportedGateError, match="^unknown gate kind 'x'$"):
            CircuitOp("x", (), (0,))

    def test_non_op_in_circuit_names_index_and_value(self):
        with pytest.raises(ValueError, match=r"^ops\[1\] must be a CircuitOp, got 'x'$"):
            Circuit(2, (x(0), "x"))


class TestStoredQubits:
    """``qubits`` is stored at construction but is not part of the op's value."""

    def test_repr_unchanged(self):
        assert repr(ccxx(0, 1, 2, 3)) == (
            "CircuitOp(kind=<GateKind.CCXX: 'ccxx'>, controls=(ControlSpec(qubit=0, value=1), "
            "ControlSpec(qubit=1, value=1)), targets=(2, 3))"
        )

    def test_equality_and_hash_ignore_qubits(self):
        a, b = cx(0, 1), cx(0, 1)
        object.__setattr__(b, "qubits", (7,))
        assert a == b and hash(a) == hash(b)

    def test_replace_recomputes_qubits(self):
        op = dataclasses.replace(ccx(0, 1, 2), targets=[3])
        assert op.targets == (3,) and op.qubits == (0, 1, 3)
        with pytest.raises(ValueError, match="distinct"):
            dataclasses.replace(ccx(0, 1, 2), targets=(1,))

    @pytest.mark.parametrize("name", ["kind", "controls", "targets", "qubits"])
    def test_fields_are_frozen(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cx(0, 1), name, ())


class TestCcxxDecompose:
    def test_splits_into_two_ccx_sharing_controls(self):
        out = ccxx_decompose(ccxx(0, 1, 2, 3))
        assert [op.kind for op in out] == [GateKind.CCX, GateKind.CCX]
        assert out[0].controls == out[1].controls == (ControlSpec(0), ControlSpec(1))
        assert (out[0].targets, out[1].targets) == ((2,), (3,))

    def test_preserves_negative_polarities(self):
        out = ccxx_decompose(ccxx(0, 1, 2, 3, values=(0, 1)))
        assert all(op.controls == (ControlSpec(0, 0), ControlSpec(1, 1)) for op in out)

    def test_pair_flips_both_targets_when_controls_set(self):
        pair = Circuit(4, tuple(ccxx_decompose(ccxx(0, 1, 2, 3))))
        out = run_circuit(pair, new_basis_state(4, "1111"))
        assert out.amps[int("1100", 2)] == 1.0

    def test_pair_matches_ccxx_unitary_exactly(self):
        pair = circuit_unitary(Circuit(4, tuple(ccxx_decompose(ccxx(0, 1, 2, 3)))))
        whole = circuit_unitary(Circuit(4, (ccxx(0, 1, 2, 3),)))
        assert np.abs(pair.entries - whole.entries).max() <= 1e-12
        assert np.abs(whole.entries - ccxx_16()).max() <= 1e-12

    def test_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="ccxx"):
            ccxx_decompose(ccx(0, 1, 2))


class TestPolarityLower:
    def test_anticontrolled_ccx_conjugation(self):
        out = polarity_lower(ccx(2, 3, 4, values=(0, 0)))
        assert out == [x(2), x(3), ccx(2, 3, 4), x(2), x(3)]

    def test_all_positive_passes_through(self):
        op = ccx(0, 1, 2)
        assert polarity_lower(op) == [op]

    def test_uncontrolled_passes_through(self):
        assert polarity_lower(h(0)) == [h(0)]

    def test_anticontrolled_ccxx_fires_on_zeros(self):
        # on |00000> the anticontrols match, so both targets flip
        lowered = Circuit(5, tuple(polarity_lower(ccxx(0, 1, 2, 3, values=(0, 0)))))
        out = run_circuit(lowered, new_basis_state(5, "00000"))
        assert out.amps[int("00110", 2)] == 1.0

    def test_unitary_preserved(self):
        op = ccxx(0, 1, 2, 3, values=(0, 1))
        before = circuit_unitary(Circuit(4, (op,)))
        after = circuit_unitary(Circuit(4, tuple(polarity_lower(op))))
        assert np.abs(before.entries - after.entries).max() <= 1e-12

    def test_double_application_keeps_unitary(self):
        op = ccx(0, 1, 2)
        once = polarity_lower(op)
        twice = [lowered for step_op in once for lowered in polarity_lower(step_op)]
        before = circuit_unitary(Circuit(3, (op,)))
        after = circuit_unitary(Circuit(3, tuple(twice)))
        assert np.abs(before.entries - after.entries).max() <= 1e-12


class TestCcxDecompose:
    def test_fifteen_ops_over_clifford_t(self):
        out = ccx_decompose(ccx(0, 1, 2))
        assert len(out) == 15
        assert {op.kind for op in out} <= {GateKind.H, GateKind.T, GateKind.TDG, GateKind.CX}

    def test_matches_toffoli_matrix_exactly(self):
        net = circuit_unitary(Circuit(3, tuple(ccx_decompose(ccx(0, 1, 2)))))
        assert np.abs(net.entries - toffoli_8()).max() <= 1e-12

    def test_fires_on_11(self):
        net = Circuit(3, tuple(ccx_decompose(ccx(0, 1, 2))))
        out = run_circuit(net, new_basis_state(3, "110"))
        assert abs(out.amps[int("111", 2)]) == pytest.approx(1.0, abs=1e-12)

    def test_idle_on_10(self):
        net = Circuit(3, tuple(ccx_decompose(ccx(0, 1, 2))))
        out = run_circuit(net, new_basis_state(3, "100"))
        assert abs(out.amps[int("100", 2)]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_controls(self):
        with pytest.raises(ValueError, match="positive"):
            ccx_decompose(ccx(0, 1, 2, values=(0, 1)))

    def test_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="ccx"):
            ccx_decompose(cx(0, 1))

    def test_respects_wire_roles(self):
        # same network on permuted wires still equals the permuted Toffoli
        net = circuit_unitary(Circuit(3, tuple(ccx_decompose(ccx(2, 0, 1)))))
        expected = np.zeros((8, 8), dtype=complex)
        for i in range(8):
            # controls q2 (bit0) and q0 (bit2), target q1 (bit1)
            j = i ^ 0b010 if (i & 0b101) == 0b101 else i
            expected[j, i] = 1.0
        assert np.abs(net.entries - expected).max() <= 1e-12


def _cancel_facing_x_by_scan(ops: list[CircuitOp]) -> list[CircuitOp]:
    """Reference: the backward-scan cancellation, quadratic in the worst case."""
    out: list[CircuitOp] = []
    for op in ops:
        if op.kind is GateKind.X:
            q = op.targets[0]
            j = len(out) - 1
            while j >= 0 and q not in out[j].qubits:
                j -= 1
            if j >= 0 and out[j].kind is GateKind.X:
                del out[j]
                continue
        out.append(op)
    return out


@st.composite
def x_heavy_ops(draw):
    """Mostly X ops (some in runs on one wire) among H, CX and CCX ops, on 1-128 wires.

    Wires are drawn from a prefix of random width, so narrow draws meet often.
    """
    n = draw(st.integers(1, 128))
    wire = st.integers(0, draw(st.integers(1, n)) - 1)
    ops: list[CircuitOp] = []
    for roll, q, a, b in draw(st.lists(st.tuples(st.integers(0, 9), wire, wire, wire), max_size=80)):
        if roll == 5:
            ops.extend([x(q)] * (2 + a % 3))
        elif roll == 6 and q != a:
            ops.append(cx(q, a))  # the control on q blocks an X pair on q
        elif roll == 7 and q != a:
            ops.append(cx(a, q))
        elif roll == 8 and len({q, a, b}) == 3:
            ops.append(ccx(a, b, q))
        elif roll == 9:
            ops.append(h(q))
        else:
            ops.append(x(q))
    return ops


class TestCancelFacingX:
    @pytest.mark.parametrize(
        "ops,expected",
        [
            ([x(0), x(0), x(0)], [x(0)]),
            ([x(0), x(0), x(0), x(0)], []),
            ([x(0), cx(0, 1), x(0)], [x(0), cx(0, 1), x(0)]),
            ([x(1), cx(0, 1), x(1)], [x(1), cx(0, 1), x(1)]),
            ([x(0), x(1), cx(1, 2), x(0), x(1)], [x(1), cx(1, 2), x(1)]),
            ([x(0), x(1), x(1), x(0)], []),
        ],
    )
    def test_examples(self, ops, expected):
        assert _cancel_facing_x(ops) == expected == _cancel_facing_x_by_scan(ops)

    @settings(max_examples=200, deadline=None)
    @given(ops=x_heavy_ops())
    def test_matches_backward_scan(self, ops):
        assert _cancel_facing_x(list(ops)) == _cancel_facing_x_by_scan(list(ops))


class TestDepth:
    def test_examples(self):
        assert depth(Circuit(3)) == 0
        assert depth(Circuit(3, (x(0), x(1), x(2)))) == 1
        assert depth(Circuit(3, (x(0), cx(0, 1), x(2), ccx(0, 1, 2)))) == 3

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_layer_peeling(self, seed):
        circuit = random_circuit(np.random.default_rng(seed), max_qubits=6, max_ops=30)
        assert depth(circuit) == depth_by_peeling(circuit)
        lowered = lower(circuit)
        assert depth(lowered) == depth_by_peeling(lowered)


class TestLower:
    def test_robot_circuit_lowers_to_basis_gates(self):
        lowered = lower(build_robot_circuit())
        assert all(op.kind in LOWERED_KINDS for op in lowered.ops)
        assert all(c.value == 1 for op in lowered.ops for c in op.controls)

    def test_idempotent(self):
        lowered = lower(build_robot_circuit())
        assert lower(lowered) == lowered

    def test_robot_unitary_preserved(self):
        robot = build_robot_circuit()
        assert equal_up_to_global_phase(circuit_unitary(robot), circuit_unitary(lower(robot)))

    def test_x_conjugation_pairs_cancel_between_mirrored_ops(self):
        # the anticontrolled CCXX expands into two conjugated CCX ops; the
        # four facing X gates between them cancel, leaving only the outer pairs
        circuit = Circuit(5, (ccxx(0, 1, 2, 3), ccxx(0, 1, 2, 3, values=(0, 0))))
        lowered = lower(circuit)
        x_count = sum(op.kind is GateKind.X for op in lowered.ops)
        assert x_count == 4  # 8 before cleanup
        assert equal_up_to_global_phase(circuit_unitary(circuit), circuit_unitary(lowered))

    def test_cancellation_blocked_by_intervening_op(self):
        circuit = Circuit(2, (x(0), cx(0, 1), x(0)))
        lowered = lower(circuit)
        assert sum(op.kind is GateKind.X for op in lowered.ops) == 2

    def test_adjacent_x_pair_cancels(self):
        lowered = lower(Circuit(1, (x(0), x(0))))
        assert lowered.ops == ()

    def test_interleaved_x_pairs_cancel_across_wires(self):
        lowered = lower(Circuit(2, (x(0), x(1), x(0), x(1))))
        assert lowered.ops == ()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_lowering_preserves_unitary_on_random_circuits(self, seed):
        circuit = random_circuit(np.random.default_rng(seed))
        assert equal_up_to_global_phase(circuit_unitary(circuit), circuit_unitary(lower(circuit)))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_lowering_is_idempotent_on_random_circuits(self, seed):
        lowered = lower(random_circuit(np.random.default_rng(seed)))
        assert lower(lowered) == lowered

    @pytest.mark.parametrize(
        "n,measured,digest,ops,t_count,cx_count",
        [
            (32, (13, 18, 14, 25, 9, 12, 20, 29),
             "fe99614fb9b89a1494ae193be0fb365ecc371547b2be3dffb978771487010b9b", 2846, 1166, 971),
            (128, (7, 28, 63, 100, 15, 74, 96, 24),
             "e515067e3f53de3c1b899e9360e01db3edc8ac3793a84249ea07edce5e80f55d", 2676, 1097, 912),
        ],
    )
    def test_wide_circuit_output_pinned(self, n, measured, digest, ops, t_count, cx_count):
        # 450 random ops of all nine kinds; the expected values were taken
        # from the backward-scan implementation of the X-pair peephole
        rng = np.random.default_rng(n)
        source = Circuit(n, random_ops(rng, n, 450))
        assert tuple(int(q) for q in rng.choice(n, size=8, replace=False)) == measured
        lowered = lower(source)
        kinds = [op.kind for op in lowered.ops]
        assert hashlib.sha256(export_qasm(lowered, measured).encode()).hexdigest() == digest
        assert len(kinds) == ops
        assert kinds.count(GateKind.T) + kinds.count(GateKind.TDG) == t_count
        assert kinds.count(GateKind.CX) == cx_count


class TestExportQasm:
    def test_minimal_circuit_with_measurement(self):
        text = export_qasm(Circuit(1), measured=[0])
        assert text == (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[1];\n"
            "creg c[1];\n"
            "measure q[0] -> c[0];\n"
        )

    def test_single_x_statement(self):
        text = export_qasm(Circuit(2, (x(0),)), measured=[])
        assert text.count("x q[0];") == 1

    def test_statement_per_op_and_measure_order(self):
        text = export_qasm(Circuit(3, (h(0), cx(0, 2), t(1))), measured=[2, 0])
        lines = text.splitlines()
        assert lines[4:] == ["h q[0];", "cx q[0],q[2];", "t q[1];",
                             "measure q[2] -> c[0];", "measure q[0] -> c[1];"]

    def test_deterministic_bytes(self):
        circuit = lower(build_robot_circuit())
        assert export_qasm(circuit, [2, 3, 4]) == export_qasm(circuit, [2, 3, 4])

    def test_rejects_non_lowered_gates(self):
        with pytest.raises(UnsupportedGateError, match="lower"):
            export_qasm(Circuit(3, (ccx(0, 1, 2),)), measured=[2])

    def test_rejects_anticontrolled_cx(self):
        with pytest.raises(UnsupportedGateError, match="anticontrolled"):
            export_qasm(Circuit(2, (cx(0, 1, value=0),)), measured=[])

    def test_rejects_bad_measured_list(self):
        with pytest.raises(ValueError, match="distinct"):
            export_qasm(Circuit(2), measured=[0, 0])
        with pytest.raises(ValueError, match="range"):
            export_qasm(Circuit(2), measured=[2])

import re

import numpy as np
import pytest

from qbraitenberg import brain as brain_module
from qbraitenberg.brain import (
    BEHAVIOR_LABELS,
    BRAIN_KINDS,
    MEASURED,
    MotorOutput,
    NondeterministicOutcomeError,
    SensorInput,
    behavior_label,
    build_robot_circuit,
    classical_drive,
    control_table,
    drive,
    measure_distribution,
)
from qbraitenberg.circuit import Circuit, ControlSpec, GateKind, h
from qbraitenberg.qsim import new_basis_state, run_circuit

ALL_INPUTS = [SensorInput(a, b) for a in (0, 1) for b in (0, 1)]

TRUTH_ROWS = {
    (0, 0): (1, 1, 0),
    (0, 1): (0, 1, 0),
    (1, 0): (1, 0, 0),
    (1, 1): (0, 0, 1),
}


class TestCircuitConstruction:
    def test_exact_op_order(self):
        ops = build_robot_circuit().ops
        assert [op.kind for op in ops] == [
            GateKind.CX, GateKind.CX, GateKind.CCXX, GateKind.CCXX, GateKind.CCX,
        ]
        assert ops[0].controls == (ControlSpec(2),) and ops[0].targets == (0,)
        assert ops[1].controls == (ControlSpec(3),) and ops[1].targets == (1,)
        assert ops[2].controls == (ControlSpec(0), ControlSpec(1))
        assert ops[2].targets == (2, 3)
        assert ops[3].controls == (ControlSpec(0, 0), ControlSpec(1, 0))
        assert ops[3].targets == (2, 3)
        assert ops[4].controls == (ControlSpec(2, 0), ControlSpec(3, 0))
        assert ops[4].targets == (4,)

    def test_layout(self):
        assert MEASURED == (2, 3, 4)

    @pytest.mark.parametrize(
        "bits_in,bits_out",
        [("00000", "00110"), ("00010", "01010"), ("00100", "10100"), ("00110", "11001")],
    )
    def test_full_state_evolution(self, bits_in, bits_out):
        out = run_circuit(build_robot_circuit(), new_basis_state(5, bits_in))
        idx = int(bits_out, 2)
        assert abs(out.amps[idx]) == pytest.approx(1.0, abs=1e-9)
        assert np.count_nonzero(np.abs(out.amps) > 1e-9) == 1


class TestDrive:
    @pytest.mark.parametrize("lowered", [False, True])
    @pytest.mark.parametrize("sensors,expected", list(TRUTH_ROWS.items()))
    def test_truth_table(self, sensors, expected, lowered):
        assert drive(SensorInput(*sensors), lowered=lowered).bits == expected

    @pytest.mark.parametrize("lowered", [False, True])
    def test_outcomes_are_deltas(self, lowered):
        for sensors in ALL_INPUTS:
            dist = measure_distribution(sensors, lowered=lowered)
            assert max(dist.probs.values()) >= 1.0 - 1e-9

    def test_matches_classical_oracle_exhaustively(self):
        for sensors in ALL_INPUTS:
            expected = classical_drive(sensors)
            assert drive(sensors) == expected
            assert drive(sensors, lowered=True) == expected

    def test_nondeterministic_circuit_raises(self, monkeypatch):
        monkeypatch.setattr(brain_module, "_circuit", lambda lowered: Circuit(5, (h(2),)))
        with pytest.raises(NondeterministicOutcomeError, match="delta"):
            drive(SensorInput(0, 0))


class TestClassicalDrive:
    @pytest.mark.parametrize("sensors,expected", list(TRUTH_ROWS.items()))
    def test_rows(self, sensors, expected):
        assert classical_drive(SensorInput(*sensors)).bits == expected

    def test_table_algebra(self):
        # m1 = s1 xor not(s1 xor s2), m2 = s2 xor not(s1 xor s2), m3 = nor(m1, m2)
        for sensors in ALL_INPUTS:
            keep = 1 - (sensors.s1 ^ sensors.s2)
            m1 = sensors.s1 ^ keep
            m2 = sensors.s2 ^ keep
            m3 = 1 - (m1 | m2)
            assert classical_drive(sensors).bits == (m1, m2, m3)


class TestControlTable:
    def test_all_kinds_agree(self):
        tables = {kind: control_table(kind) for kind in BRAIN_KINDS}
        assert tables["quantum"] == tables["quantum_lowered"] == tables["classical"]

    @pytest.mark.parametrize("kind", BRAIN_KINDS)
    def test_table_is_read_only(self, kind):
        with pytest.raises(TypeError):
            control_table(kind)[SensorInput(0, 0)] = MotorOutput(0, 0, 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown brain kind"):
            control_table("analog")


class TestValueTypes:
    def test_sensor_bits_validated(self):
        with pytest.raises(ValueError):
            SensorInput(2, 0)

    def test_motor_bits_validated(self):
        with pytest.raises(ValueError):
            MotorOutput(0, 2, 0)

    @pytest.mark.parametrize(
        "args,field,value",
        [((True, 0), "s1", "True"), ((0, False), "s2", "False"), ((1.0, 0), "s1", "1.0"), ((0, np.int64(1)), "s2", "np.int64(1)")],
    )
    def test_sensor_bits_must_be_ints(self, args, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an int, got {re.escape(value)}$"):
            SensorInput(*args)

    @pytest.mark.parametrize(
        "args,field,value",
        [((True, 1, 0), "m1", "True"), ((1, 1, False), "m3", "False"), ((1, 1.0, 0), "m2", "1.0")],
    )
    def test_motor_bits_must_be_ints(self, args, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an int, got {re.escape(value)}$"):
            MotorOutput(*args)

    def test_flight_excludes_wheels(self):
        with pytest.raises(ValueError, match="flight"):
            MotorOutput(1, 0, 1)

    def test_behavior_labels(self):
        assert behavior_label(MotorOutput(1, 1, 0)) == "Moves forward"
        assert behavior_label(MotorOutput(0, 1, 0)) == "Takes a left turn"
        assert behavior_label(MotorOutput(1, 0, 0)) == "Takes a right turn"
        assert behavior_label(MotorOutput(0, 0, 1)) == "Takes off from the ground"
        assert len(BEHAVIOR_LABELS) == 4

    def test_unknown_behavior(self):
        with pytest.raises(ValueError, match="behavior"):
            behavior_label(MotorOutput(0, 0, 0))

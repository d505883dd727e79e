"""Quantum control for a two-sensor, three-motor vehicle, plus its classical twin.

The five-qubit circuit copies the sensor bits onto two ancilla wires, flips
the wheel qubits through a controlled/anticontrolled pair of two-target
Toffolis, and raises the flight qubit with an anticontrolled Toffoli when
both sensors fire. Measuring q2, q3, q4 yields the motor command (left
wheel, right wheel, propeller). On sensor basis states the outcome
distribution is a delta; ``drive`` enforces that, so any synthesis or
simulator regression surfaces as a hard error at this boundary.

Sensor encoding: bit 1 means light falls on the sensor. Motor encoding:
bit 1 means the motor runs. The ancillas are deliberately left entangled
with the inputs; nothing downstream measures them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Callable, Mapping

from .circuit import Circuit, ccx, ccxx, cx, lower, require_int
from .qsim import OutcomeDistribution, new_basis_state, outcome_distribution, run_circuit

#: A measured outcome must carry at least this much probability to count as
#: deterministic.
DELTA_ATOL = 1e-9


class NondeterministicOutcomeError(RuntimeError):
    """The measured distribution was not a delta; the control circuit is broken."""


@dataclass(frozen=True, slots=True)
class SensorInput:
    """The two light-sensor bits (s1 = left side, s2 = right side)."""

    s1: int
    s2: int

    def __post_init__(self) -> None:
        require_int("s1", self.s1, among=(0, 1))
        require_int("s2", self.s2, among=(0, 1))


#: The four sensor inputs in brain-row order: ``(s1, s2)`` is row ``2*s1 + s2``.
SENSOR_INPUTS = tuple(SensorInput(a, b) for a in (0, 1) for b in (0, 1))


@dataclass(frozen=True, slots=True)
class MotorOutput:
    """The three motor bits: left wheel, right wheel, propeller."""

    m1: int
    m2: int
    m3: int

    def __post_init__(self) -> None:
        require_int("m1", self.m1, among=(0, 1))
        require_int("m2", self.m2, among=(0, 1))
        require_int("m3", self.m3, among=(0, 1))
        if self.m3 == 1 and (self.m1 or self.m2):
            raise ValueError("flight motor excludes wheel motors")

    @property
    def bits(self) -> tuple[int, int, int]:
        return (self.m1, self.m2, self.m3)


#: The measured wires: left wheel q2, right wheel q3, flight q4.
MEASURED = (2, 3, 4)

#: The paper's four rows: (s1, s2) -> (motor bits m1 m2 m3, behavior).
_PAPER_ROWS: dict[tuple[int, int], tuple[tuple[int, int, int], str]] = {
    (0, 0): ((1, 1, 0), "Moves forward"),
    (0, 1): ((0, 1, 0), "Takes a left turn"),
    (1, 0): ((1, 0, 0), "Takes a right turn"),
    (1, 1): ((0, 0, 1), "Takes off from the ground"),
}

BEHAVIOR_LABELS: dict[tuple[int, int, int], str] = dict(_PAPER_ROWS.values())


def build_robot_circuit() -> Circuit:
    """The five-qubit control circuit.

    Two CNOTs copy the sensor qubits onto the ancillas, a positively
    controlled two-target Toffoli and its anticontrolled partner rewrite the
    wheel qubits, and an anticontrolled Toffoli on the wheel qubits raises
    the flight qubit exactly when both wheels end up off.
    """
    ops = (
        cx(2, 0),
        cx(3, 1),
        ccxx(0, 1, 2, 3),
        ccxx(0, 1, 2, 3, values=(0, 0)),
        ccx(2, 3, 4, values=(0, 0)),
    )
    return Circuit(5, ops)


def measure_distribution(sensors: SensorInput, lowered: bool = False) -> OutcomeDistribution:
    """Motor-qubit outcome distribution for one sensor input; builds the circuit on every call."""
    circuit = lower(build_robot_circuit()) if lowered else build_robot_circuit()
    state = new_basis_state(5, f"00{sensors.s1}{sensors.s2}0")
    return outcome_distribution(run_circuit(circuit, state), MEASURED)


def drive(sensors: SensorInput, lowered: bool = False) -> MotorOutput:
    """Run the control circuit on |0 0 s1 s2 0> and read the motor bits.

    Raises NondeterministicOutcomeError if the measured distribution is not a
    delta (probability >= 1 - DELTA_ATOL on a single outcome).
    """
    dist = measure_distribution(sensors, lowered)
    outcome, p = max(dist.probs.items(), key=lambda item: item[1])
    if p < 1.0 - DELTA_ATOL:
        raise NondeterministicOutcomeError(
            f"input ({sensors.s1}, {sensors.s2}) gave best outcome {outcome!r} "
            f"with probability {p}, expected a delta"
        )
    return MotorOutput(int(outcome[0]), int(outcome[1]), int(outcome[2]))


def classical_drive(sensors: SensorInput) -> MotorOutput:
    """Direct table lookup of the vehicle behavior; oracle for the circuit."""
    return MotorOutput(*_PAPER_ROWS[(sensors.s1, sensors.s2)][0])


_BRAINS: dict[str, Callable[[SensorInput], MotorOutput]] = {
    "quantum": drive,
    "quantum_lowered": partial(drive, lowered=True),
    "classical": classical_drive,
}

BRAIN_KINDS = tuple(_BRAINS)


@lru_cache(maxsize=None)
def control_table(kind: str = "quantum") -> Mapping[SensorInput, MotorOutput]:
    """Tabulate the chosen brain over all four sensor inputs, once per process per kind.

    The quantum kinds run the circuit once per input, determinism check
    included, so a broken synthesis pass fails on first use; callers share the table read-only.
    """
    try:
        law = _BRAINS[kind]
    except KeyError:
        raise ValueError(f"unknown brain kind {kind!r}; expected one of {BRAIN_KINDS}") from None
    return MappingProxyType({sensors: law(sensors) for sensors in SENSOR_INPUTS})


def behavior_label(motors: MotorOutput) -> str:
    """Human-readable behavior for one of the four table rows."""
    try:
        return BEHAVIOR_LABELS[motors.bits]
    except KeyError:
        raise ValueError(f"motor output {motors.bits} is not a known behavior") from None

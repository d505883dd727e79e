"""Quantum-brain Braitenberg vehicle.

Exact statevector simulation of the five-qubit control circuit, synthesis
passes down to the Clifford+T basis with OpenQASM 2.0 export, and a seeded,
fully deterministic obstacle-lane game. The vehicle wins every episode of
the 1000-seed default-config sweep (acceptance criterion C5); that is a
sampled check, not a proof.
"""

from .brain import (
    BEHAVIOR_LABELS,
    BRAIN_KINDS,
    MEASURED,
    SENSOR_INPUTS,
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
from .circuit import (
    ARITY,
    LOWERED_KINDS,
    Circuit,
    CircuitOp,
    ControlSpec,
    GateKind,
    UnsupportedGateError,
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
    tdg,
    x,
)
from .game import (
    EpisodeResult,
    EpisodeStatus,
    GameConfig,
    GameState,
    Obstacle,
    RobotPose,
    SplitMix64,
    TickTrace,
    act,
    new_game,
    run_episode,
    sense,
    spawn_obstacles,
    step,
    trace_json_line,
)
from .qsim import (
    ATOL,
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

__version__ = "0.1.0"

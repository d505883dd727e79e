import dataclasses

import numpy as np
import pytest

from qbraitenberg import brain, circuit, game, qsim

# Every frozen dataclass the four modules define, found by scanning them, so a new value type is covered.
FROZEN = [
    cls
    for module in (brain, circuit, game, qsim)
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == module.__name__
    and dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
]

SAMPLES = {
    brain.SensorInput: brain.SensorInput(0, 1),
    brain.MotorOutput: brain.MotorOutput(1, 1, 0),
    circuit.ControlSpec: circuit.ControlSpec(0),
    circuit.CircuitOp: circuit.cx(0, 1),
    circuit.Circuit: circuit.Circuit(2, (circuit.cx(0, 1),)),
    game.GameConfig: game.GameConfig(),
    game.RobotPose: game.RobotPose(),
    game.Obstacle: game.Obstacle(1, 0, 1),
    game.EpisodeResult: game.EpisodeResult(game.EpisodeStatus.WON, 1, ()),
    qsim.StateVector: qsim.new_basis_state(1, "0"),
    qsim.GateMatrix: qsim.GateMatrix(1, np.eye(2)),
    qsim.OutcomeDistribution: qsim.OutcomeDistribution({"0": 1.0, "1": 0.0}),
}


@pytest.mark.parametrize("cls", FROZEN, ids=[c.__name__ for c in FROZEN])
def test_value_types_reject_every_assignment(cls):
    # FrozenInstanceError subclasses AttributeError; a name that is not a field must raise it too
    value = SAMPLES[cls]  # a KeyError here: give the new value type a sample
    for name in [f.name for f in dataclasses.fields(cls)] + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)

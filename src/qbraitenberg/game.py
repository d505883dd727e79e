"""Seeded four-lane obstacle game driven by the vehicle's control circuit.

Lanes are numbered 1..4 left to right; obstacles ride the two terminal
tracks only (track 1 = lane 1, track 2 = lane 4). The robot is two lanes
wide, advances one row per tick, and shifts, holds, or takes off according
to its motor command. Obstacles move one row per tick up or down the road;
their direction is fixed at spawn time. Because the robot also advances one
row per tick, an oncoming obstacle closes two rows per tick and one moving
away holds a constant offset, which is why the detection window must reach
at least two rows ahead. An obstacle's row is an affine function of the
tick, so each one is built once, at spawn, and its row is derived from the
tick (``Obstacle.row_at``) rather than stored and moved.

All randomness comes from one splitmix64 stream per episode with a fixed
draw order, so a (seed, config) pair determines the run down to the trace
bytes, whichever brain computes the motor commands. splitmix64 is
counter-based (its k-th output is a fixed mix of ``seed + k * gamma``), so the
stream is drawn in blocks by one vectorised pass: the same values, in the same
order and the same count, as drawing them one at a time. The robot's row is
the tick, so its six frozen poses are validated once, at import, and shared.

Every tick builds one ``TickTrace``. It is a tuple subclass because a frozen
dataclass pays one ``object.__setattr__`` per field on every construction;
it keeps the tick check, stays immutable and compares by value (so it also
equals a plain tuple of the same six values). The hot path compares
``EpisodeStatus`` members through module constants, because each
``EpisodeStatus.X`` lookup goes through the Enum metaclass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from numbers import Real
from typing import Mapping, NamedTuple

import numpy as np

from .brain import SENSOR_INPUTS, MotorOutput, SensorInput, control_table
from .circuit import require_int

#: The obstacle track a robot's two lanes cover, by left lane (track 1 is lane 1, track 2 lane 4; 0 for none).
_EXPOSED_TRACK = {1: 1, 2: 0, 3: 2}

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

#: Draws per vectorised block: a default 100-tick episode draws about 205.
_BLOCK = 256
#: The k-th draw of a block mixes ``base + k * gamma``; uint64 arrays wrap silently.
_BLOCK_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)


class EpisodeStatus(Enum):
    RUNNING = "running"
    WON = "won"
    COLLIDED = "collided"
    TIMED_OUT = "timed_out"


# Bound by name, so reordering the members cannot swap them.
_RUNNING = EpisodeStatus.RUNNING
_WON = EpisodeStatus.WON
_COLLIDED = EpisodeStatus.COLLIDED
_TIMED_OUT = EpisodeStatus.TIMED_OUT


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output mix on a uint64 array; every operand is a uint64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """splitmix64 generator: tiny, portable, reproducible across platforms.

    Outputs are computed ``_BLOCK`` at a time, as doubles built from each
    output's top 53 bits; ``_unread`` holds the block's unread doubles in
    reverse, so ``random`` pops them from its end in stream order.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64  # the counter before the next block
        self._unread: list[float] = []

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits; the conversion is exact."""
        if not self._unread:
            z = _mix(np.uint64(self._state) + _BLOCK_STEPS)
            self._unread = ((z >> np.uint64(11)).astype(np.float64) * 2.0**-53).tolist()[::-1]
            self._state = (self._state + _BLOCK * _GAMMA) & _MASK64
        return self._unread.pop()


@dataclass(frozen=True)
class GameConfig:
    """Tunable game parameters; the defaults are the reference setup.

    max_ticks of None resolves to 4 * road_length. detection_window must be
    at least 2 because oncoming obstacles close two rows per tick; anything
    shorter would let them arrive unsensed.
    """

    road_length: int = 100
    detection_window: int = 3
    spawn_horizon: int = 10
    spawn_prob: float = 0.15
    min_gap: int = 2
    max_ticks: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        require_int("road_length", self.road_length, 1)
        require_int("detection_window", self.detection_window, 2)
        require_int("spawn_horizon", self.spawn_horizon)
        if isinstance(self.spawn_prob, bool) or not isinstance(self.spawn_prob, Real):
            raise ValueError(f"spawn_prob must be a real number, got {self.spawn_prob!r}")
        require_int("min_gap", self.min_gap, 0)
        if self.max_ticks is None:
            object.__setattr__(self, "max_ticks", 4 * self.road_length)
        require_int("max_ticks", self.max_ticks, 1)
        require_int("seed", self.seed)
        if self.spawn_horizon <= self.detection_window:
            raise ValueError(
                f"spawn_horizon ({self.spawn_horizon}) must exceed "
                f"detection_window ({self.detection_window})"
            )
        if not 0.0 <= self.spawn_prob <= 1.0:
            raise ValueError(f"spawn_prob must be in [0, 1], got {self.spawn_prob}")

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "GameConfig":
        """Build a config from a JSON-style mapping; absent fields take defaults."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config fields: {unknown}")
        return cls(**dict(data))


@dataclass(frozen=True)
class RobotPose:
    """Robot position: left lane of the two occupied, and altitude; its row is ``state.tick``."""

    left_lane: int = 2
    altitude: int = 0

    def __post_init__(self) -> None:
        require_int("left_lane", self.left_lane, among=(1, 2, 3))
        require_int("altitude", self.altitude, among=(0, 1))


#: Every pose, by ``(left_lane, altitude)``; ``act`` shares these instead of building one per tick.
_POSES = {(lane, alt): RobotPose(lane, alt) for lane in (1, 2, 3) for alt in (0, 1)}


@dataclass(frozen=True)
class Obstacle:
    """One obstacle on a terminal track; direction is rows per tick, fixed at spawn.

    The obstacle is built once, at spawn, and never moved: ``row0`` is the row
    it would hold at tick 0, its spawn row extrapolated back along
    ``direction``, and ``row_at(tick)`` gives its row at any tick. An obstacle
    built by hand for a fresh game (tick 0) therefore sits at ``row0``.
    """

    track: int
    row0: int
    direction: int

    def __post_init__(self) -> None:
        require_int("track", self.track, among=(1, 2))
        require_int("row0", self.row0)
        require_int("direction", self.direction, among=(-1, 1))

    def row_at(self, tick: int) -> int:
        """The obstacle's row while ``state.tick == tick``, i.e. before step ``tick`` runs.

        The snapshot in the trace record of tick ``k`` is taken after the move,
        so its rows are ``row_at(k + 1)``. The game's hot paths inline this sum,
        and its offset from the robot, whose row is the tick, as ``row0 + (direction - 1) * tick``.
        """
        return self.row0 + self.direction * tick


class _TickFields(NamedTuple):
    tick: int
    after: RobotPose
    sensors: SensorInput
    motors: MotorOutput
    obstacles: tuple[Obstacle, ...]
    status: EpisodeStatus


class TickTrace(_TickFields):
    """Everything one executed tick did, for logging and replay comparison.

    A tuple subclass, built in one ``tuple.__new__`` call, because a frozen
    dataclass costs six ``object.__setattr__`` calls per tick. Fields are
    read-only, records compare and hash by value (a plain tuple of the same
    six values compares equal), and ``_make``/``_replace`` run the tick check.
    """

    __slots__ = ()

    def __new__(cls, tick: int, after: RobotPose, sensors: SensorInput, motors: MotorOutput,
                obstacles: tuple[Obstacle, ...], status: EpisodeStatus) -> "TickTrace":
        if not (type(tick) is int and tick >= 0):
            require_int("tick", tick, 0)
        return tuple.__new__(cls, (tick, after, sensors, motors, obstacles, status))

    @classmethod
    def _make(cls, iterable) -> "TickTrace":
        return cls(*iterable)


@dataclass
class GameState:
    """Mutable episode state; owned by exactly one caller at a time.

    ``tick`` counts the steps taken so far and is the robot's row; a collision ends
    the episode, on tick ``tick - 1``, its last record's. Each live obstacle's row is
    ``row_at(tick)``; obstacles are immutable and shared with every ``TickTrace`` that holds them.
    """

    config: GameConfig
    robot: RobotPose
    obstacles: list[Obstacle]
    rng: SplitMix64
    tick: int = 0
    status: EpisodeStatus = _RUNNING
    trace: list[TickTrace] = field(default_factory=list)


@dataclass(frozen=True)
class EpisodeResult:
    status: EpisodeStatus
    ticks_elapsed: int
    trace: tuple[TickTrace, ...]

    def __post_init__(self) -> None:
        require_int("ticks_elapsed", self.ticks_elapsed, 0)


def new_game(config: GameConfig) -> GameState:
    """Fresh episode: tick 0 (so row 0), robot grounded on the middle lanes, empty road."""
    return GameState(config, RobotPose(), [], SplitMix64(config.seed))


def sense(state: GameState) -> int:
    """OR of each track's presence within the forward detection window, as the row index ``2*s1 + s2``."""
    t = state.tick
    lo = t + 1
    hi = t + state.config.detection_window
    hit = [0, 0]
    for o in state.obstacles:
        if lo <= o.row0 + o.direction * t <= hi:
            hit[o.track - 1] = 1
    return 2 * hit[0] + hit[1]


def act(state: GameState, motors: MotorOutput) -> None:
    """Move to left lane ``left_lane + m1 - m2`` (kept when that leaves 1..3) at altitude
    ``m3``; ``step`` advances the tick, which is the row. ``MotorOutput`` allows no
    wheel in flight, so a flight keeps the lane, and any tick with ``m3 == 0`` lands."""
    pose = state.robot
    lane = pose.left_lane + motors.m1 - motors.m2
    if not 1 <= lane <= 3:
        lane = pose.left_lane
    state.robot = _POSES[lane, motors.m3]


def spawn_obstacles(state: GameState) -> None:
    """Spawn pass, track 1 then track 2, spawn coin before direction coin.

    A passing spawn coin inserts an obstacle at the spawn horizon unless an
    existing same-track obstacle lies within min_gap rows of that spot; the
    direction coin is drawn only when the insertion actually happens. Rows
    are those at ``state.tick``; this is the only place obstacles are built.
    """
    cfg = state.config
    t = state.tick
    spawn_row = t + cfg.spawn_horizon
    for track in (1, 2):
        if state.rng.random() >= cfg.spawn_prob:
            continue
        if any(o.track == track and abs(o.row0 + o.direction * t - spawn_row) <= cfg.min_gap
               for o in state.obstacles):
            continue
        direction = -1 if state.rng.random() < 0.5 else 1
        state.obstacles.append(Obstacle(track, spawn_row - direction * t, direction))


def step(state: GameState, rows: tuple[MotorOutput, ...]) -> GameState:
    """Advance one tick in fixed order: sense, drive, act, move obstacles,
    resolve collisions, despawn/spawn, then check finish line and tick budget.

    The brain ``rows`` is four ``MotorOutput``s in ``SENSOR_INPUTS`` order; the
    motors are ``rows[sense(state)]``. Obstacles move by advancing ``state.tick``:
    none is rebuilt, and the spawn pass places new ones at the advanced tick.
    A grounded robot in left lane 1 (3) hits a track-1 (track-2) obstacle that
    ends the move on its row, or an oncoming one that ends it one row behind.
    Then obstacles more than two rows behind the robot leave the road.
    """
    if state.status is not _RUNNING:
        raise RuntimeError(f"cannot step a {state.status.value} episode")
    if len(rows) != 4:
        raise ValueError(f"rows must be 4 MotorOutputs in SENSOR_INPUTS order, got {len(rows)}")
    cfg = state.config

    tick = state.tick
    i = sense(state)
    motors = rows[i]
    act(state, motors)
    robot = state.robot
    t = state.tick = tick + 1

    # Swept: closing two rows per tick, an oncoming obstacle one row behind passed the robot.
    track = 0 if robot.altitude else _EXPOSED_TRACK[robot.left_lane]
    if track:
        for o in state.obstacles:
            if o.track == track:
                offset = o.row0 + (o.direction - 1) * t
                if offset == 0 or (offset == -1 and o.direction == -1):
                    state.status = _COLLIDED
                    break

    behind = t - 2
    state.obstacles = [o for o in state.obstacles if o.row0 + o.direction * t >= behind]
    spawn_obstacles(state)

    if state.status is _RUNNING and t >= cfg.road_length:
        state.status = _WON
    if state.status is _RUNNING and t >= cfg.max_ticks:
        state.status = _TIMED_OUT

    state.trace.append(TickTrace(tick, robot, SENSOR_INPUTS[i], motors, tuple(state.obstacles), state.status))
    return state


def run_episode(config: GameConfig, brain_kind: str = "quantum") -> EpisodeResult:
    """Run one seeded episode to completion under the chosen brain.

    The control law is tabulated once per process per brain kind, so per-tick
    cost is game logic; a determinism failure in a quantum brain surfaces
    before the first tick of the first episode.
    """
    table = control_table(brain_kind)
    rows = tuple([table[s] for s in SENSOR_INPUTS])
    state = new_game(config)
    while state.status is _RUNNING:
        step(state, rows)
    return EpisodeResult(state.status, state.tick, tuple(state.trace))


def trace_json_line(record: TickTrace) -> str:
    """Serialize one tick as a JSONL line; key order is part of the format.

    Pose fields are the post-step values (``"row"`` is ``tick + 1``); the obstacle list is the post-move,
    post-spawn snapshot, so each obstacle's ``"row"`` is ``row_at(tick + 1)``.
    The line is formatted directly: every numeric field is an int (each value
    type rejects anything else) and every status value is a plain lowercase
    word, so this is the compact ``json.dumps`` of those fields.
    """
    after, s, m = record.after, record.sensors, record.motors
    t = record.tick + 1
    obstacles = ",".join(
        [f'{{"track":{o.track},"row":{o.row0 + o.direction * t},"dir":{o.direction}}}' for o in record.obstacles]
    )
    return (
        f'{{"tick":{record.tick},"row":{t},"left_lane":{after.left_lane},"altitude":{after.altitude},'
        f'"s1":{s.s1},"s2":{s.s2},"m1":{m.m1},"m2":{m.m2},"m3":{m.m3},'
        f'"obstacles":[{obstacles}],"status":"{record.status._value_}"}}'
    )

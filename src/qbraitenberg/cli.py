"""Command-line front end: circuit runs, QASM export, single drives, game episodes."""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import nullcontext, suppress
from dataclasses import replace

from .brain import (
    BRAIN_KINDS,
    MEASURED,
    NondeterministicOutcomeError,
    SensorInput,
    behavior_label,
    build_robot_circuit,
    control_table,
    measure_distribution,
)
from .circuit import GateKind, depth, export_qasm, lower
from .game import EpisodeStatus, GameConfig, run_episode, trace_json_line


#: Brain kinds as the CLI spells them, hyphenated, to the library's names.
_BRAIN_NAMES = {kind.replace("_", "-"): kind for kind in BRAIN_KINDS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbraitenberg",
        description="Quantum-brain vehicle: circuit simulation, QASM export, and the obstacle-lane game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("circuit-run", help="print the measured outcome distribution for a sensor input")
    run.add_argument("--input", required=True, choices=("00", "01", "10", "11"), help="sensor bits s1s2")
    run.add_argument("--lowered", action="store_true", help="run the Clifford+T form of the circuit")
    run.set_defaults(handler=_cmd_circuit_run)

    stats = sub.add_parser("circuit-stats", help="print gate counts, T-count, CX count and depth of the control circuit")
    stats.add_argument("--lowered", action="store_true", help="count the Clifford+T form of the circuit")
    stats.set_defaults(handler=_cmd_circuit_stats)

    export = sub.add_parser("circuit-export", help="write the lowered control circuit as OpenQASM 2.0")
    export.add_argument("--out", help="output path (stdout when omitted)")
    export.set_defaults(handler=_cmd_circuit_export)

    drv = sub.add_parser("drive", help="drive one sensor input and print the motor command")
    drv.add_argument("--s1", required=True, choices=("0", "1"), help="left sensor bit")
    drv.add_argument("--s2", required=True, choices=("0", "1"), help="right sensor bit")
    drv.add_argument("--brain", choices=sorted(_BRAIN_NAMES), default="quantum")
    drv.set_defaults(handler=_cmd_drive)

    game = sub.add_parser("game-run", help="run seeded game episodes")
    game.add_argument("--seed", type=int, default=None,
                      help="base seed; episode i uses seed + i (default: the config seed)")
    game.add_argument("--episodes", type=int, default=1)
    game.add_argument("--config", help="JSON file of game settings; absent fields take defaults")
    game.add_argument("--brain", choices=sorted(_BRAIN_NAMES), default="quantum")
    game.add_argument("--trace-out", help="write per-tick JSONL traces for all episodes")
    game.set_defaults(handler=_cmd_game_run)
    return parser


def _cmd_circuit_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    sensors = SensorInput(int(args.input[0]), int(args.input[1]))
    dist = measure_distribution(sensors, lowered=args.lowered)
    for outcome in sorted(dist.probs):
        print(f"{outcome} {dist.probs[outcome]:.6f}")
    return 0


def _cmd_circuit_stats(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    circuit = lower(build_robot_circuit()) if args.lowered else build_robot_circuit()
    kinds = Counter(op.kind for op in circuit.ops)
    t_count = kinds[GateKind.T] + kinds[GateKind.TDG]
    print(f"ops={len(circuit.ops)} t_count={t_count} cx_count={kinds[GateKind.CX]} depth={depth(circuit)}")
    print(" ".join(f"{kind.value}={kinds[kind]}" for kind in GateKind))
    return 0


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc}", file=sys.stderr)
    return 1


def _cmd_circuit_export(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    text = export_qasm(lower(build_robot_circuit()), MEASURED)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    return 0


def _cmd_drive(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    motors = control_table(_BRAIN_NAMES[args.brain])[SensorInput(int(args.s1), int(args.s2))]
    print(f"{motors.m1} {motors.m2} {motors.m3} {behavior_label(motors)}")
    return 0


def _cmd_game_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.episodes < 1:
        parser.error(f"--episodes must be >= 1, got {args.episodes}")
    data: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            parser.error(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            parser.error(f"malformed config: {exc}")
        if not isinstance(data, dict):
            parser.error("config must be a JSON object")
    try:
        config = GameConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        parser.error(f"invalid config: {exc}")

    base_seed = args.seed if args.seed is not None else config.seed
    kind = _BRAIN_NAMES[args.brain]
    statuses: Counter = Counter()
    ticks = 0
    path = args.trace_out
    try:
        fh = open(path, "w", encoding="utf-8", newline="") if path else None
    except OSError as exc:
        return _cannot_write(path, exc)
    with fh if fh is not None else nullcontext():
        for i in range(args.episodes):
            result = run_episode(replace(config, seed=base_seed + i), kind)
            print(f"episode={i} seed={base_seed + i} status={result.status.value} ticks={result.ticks_elapsed}")
            statuses[result.status] += 1
            ticks += result.ticks_elapsed
            if fh is not None:
                # The flush puts every trace write error here and leaves the closing exit nothing to write.
                try:
                    fh.writelines(trace_json_line(record) + "\n" for record in result.trace)
                    fh.flush()
                except OSError as exc:
                    with suppress(OSError):  # the unwritten rest would fail again
                        fh.close()
                    return _cannot_write(path, exc)

    print(
        f"episodes={args.episodes} wins={statuses[EpisodeStatus.WON]} "
        f"collisions={statuses[EpisodeStatus.COLLIDED]} "
        f"timeouts={statuses[EpisodeStatus.TIMED_OUT]} mean_ticks={ticks / args.episodes:.3f}"
    )
    return 1 if statuses[EpisodeStatus.COLLIDED] else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except NondeterministicOutcomeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

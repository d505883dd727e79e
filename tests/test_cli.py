import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import brain as brain_rows
from conftest import depth_by_peeling, pin_failure, reference_episode
from qbraitenberg import brain, cli
from qbraitenberg.brain import build_robot_circuit, control_table
from qbraitenberg.circuit import Circuit, h, lower
from qbraitenberg.cli import main
from qbraitenberg.game import EpisodeResult, EpisodeStatus, GameConfig, run_episode, trace_json_line

GOLDEN = Path(__file__).parent / "golden" / "robot_lowered.qasm"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCircuitRun:
    @pytest.mark.parametrize(
        "bits,winner",
        [("00", "110"), ("01", "010"), ("10", "100"), ("11", "001")],
    )
    def test_delta_outcome_per_input(self, capsys, bits, winner):
        code, out, _ = run_cli(capsys, "circuit-run", "--input", bits)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        for line in lines:
            outcome, prob = line.split()
            assert prob == ("1.000000" if outcome == winner else "0.000000")

    def test_lowered_flag_gives_same_output(self, capsys):
        code, out, _ = run_cli(capsys, "circuit-run", "--input", "00")
        code2, out2, _ = run_cli(capsys, "circuit-run", "--input", "00", "--lowered")
        assert code == code2 == 0
        assert out == out2

    def test_malformed_input_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["circuit-run", "--input", "2x"])
        assert excinfo.value.code != 0

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["circuit-halt"])
        assert excinfo.value.code != 0


class TestCircuitExport:
    def test_matches_golden_file(self, capsys, tmp_path):
        out_path = tmp_path / "robot.qasm"
        code, _, _ = run_cli(capsys, "circuit-export", "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == GOLDEN.read_bytes()

    def test_stdout_matches_golden_file(self, capsys):
        code, out, _ = run_cli(capsys, "circuit-export")
        assert code == 0
        assert out.encode() == GOLDEN.read_bytes()

    def test_repeated_invocations_are_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        run_cli(capsys, "circuit-export", "--out", str(a))
        run_cli(capsys, "circuit-export", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_fails_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "circuit-export", "--out", "/no/such/dir/robot.qasm")
        assert code == 1
        assert "cannot write" in err


class TestCircuitStats:
    def test_lowered_robot(self, capsys):
        code, out, _ = run_cli(capsys, "circuit-stats", "--lowered")
        assert code == 0
        assert out.splitlines() == [
            "ops=85 t_count=35 cx_count=32 depth=54",
            "x=8 h=10 s=0 sdg=0 t=20 tdg=15 cx=32 ccx=0 ccxx=0",
        ]

    def test_raw_robot(self, capsys):
        code, out, _ = run_cli(capsys, "circuit-stats")
        assert code == 0
        assert out.splitlines() == [
            "ops=5 t_count=0 cx_count=2 depth=4",
            "x=0 h=0 s=0 sdg=0 t=0 tdg=0 cx=2 ccx=1 ccxx=2",
        ]

    @pytest.mark.parametrize("lowered", [False, True])
    def test_depth_matches_layer_peeling(self, capsys, lowered):
        _, out, _ = run_cli(capsys, "circuit-stats", *(["--lowered"] if lowered else []))
        robot = lower(build_robot_circuit()) if lowered else build_robot_circuit()
        assert f"depth={depth_by_peeling(robot)}" in out.split()


class TestDrive:
    @pytest.mark.parametrize(
        "s1,s2,expected",
        [
            ("0", "0", "1 1 0 Moves forward"),
            ("0", "1", "0 1 0 Takes a left turn"),
            ("1", "0", "1 0 0 Takes a right turn"),
            ("1", "1", "0 0 1 Takes off from the ground"),
        ],
    )
    def test_motor_line(self, capsys, s1, s2, expected):
        code, out, _ = run_cli(capsys, "drive", "--s1", s1, "--s2", s2)
        assert code == 0
        assert out.strip() == expected

    def test_all_brains_agree_on_all_inputs(self, capsys):
        for s1 in "01":
            for s2 in "01":
                lines = set()
                for brain in ("quantum", "quantum-lowered", "classical"):
                    _, out, _ = run_cli(capsys, "drive", "--s1", s1, "--s2", s2, "--brain", brain)
                    lines.add(out)
                assert len(lines) == 1

    def test_bad_bit_is_usage_error(self):
        # only the exact strings "0" and "1" are bits: int() would take " 1", and a bool parser "true"
        for bad in ("7", "01", " 1", "", "true"):
            for argv in (["--s1", bad, "--s2", "0"], ["--s1", "0", "--s2", bad]):
                with pytest.raises(SystemExit) as excinfo:
                    main(["drive", *argv])
                assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", [["drive", "--s1", "0", "--s2", "0"], ["game-run"]])
    def test_library_brain_spelling_is_usage_error(self, capsys, command):
        # the CLI spells brain kinds with hyphens; the library's underscore name is not a choice
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--brain", "quantum_lowered"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'quantum_lowered'" in capsys.readouterr().err

    def test_nondeterministic_circuit_is_an_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(brain, "build_robot_circuit", lambda: Circuit(5, (h(2),)))
        control_table.cache_clear()  # drop the table the real circuit built
        try:
            code, out, err = run_cli(capsys, "drive", "--brain", "quantum", "--s1", "0", "--s2", "0")
        finally:
            control_table.cache_clear()
        assert code == 1
        assert out == ""
        assert err.startswith("error: input (0, 0) gave best outcome ")
        assert err.endswith(" expected a delta\n")


class TestGameRun:
    def test_summary_line_for_small_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "game-run", "--episodes", "3", "--seed", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "episode=0 seed=0 status=won ticks=100"
        assert lines[-1] == "episodes=3 wins=3 collisions=0 timeouts=0 mean_ticks=100.000"

    def test_quiet_config_wins_in_road_length(self, capsys, tmp_path):
        config = tmp_path / "quiet.json"
        config.write_text(json.dumps({"spawn_prob": 0.0, "road_length": 12}))
        code, out, _ = run_cli(capsys, "game-run", "--config", str(config), "--episodes", "2")
        assert code == 0
        assert "episodes=2 wins=2 collisions=0 timeouts=0 mean_ticks=12.000" in out

    def test_trace_files_are_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(capsys, "game-run", "--seed", "5", "--episodes", "2", "--trace-out", str(a))
        run_cli(capsys, "game-run", "--seed", "5", "--episodes", "2", "--trace-out", str(b))
        assert a.read_bytes() == b.read_bytes()
        first = json.loads(a.read_text().splitlines()[0])
        assert list(first) == [
            "tick", "row", "left_lane", "altitude", "s1", "s2", "m1", "m2", "m3",
            "obstacles", "status",
        ]

    def test_trace_file_is_each_episode_in_seed_order(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        code, _, _ = run_cli(capsys, "game-run", "--seed", "5", "--episodes", "3", "--trace-out", str(path))
        assert code == 0
        expected = "".join(
            trace_json_line(record) + "\n"
            for seed in (5, 6, 7)
            for record in run_episode(GameConfig(seed=seed)).trace
        )
        assert path.read_bytes() == expected.encode()

    def test_trace_and_stdout_bytes_pinned(self, capsys, tmp_path):
        # digests of the dict-plus-json.dumps serializer's output, before trace lines were formatted directly
        path = tmp_path / "t.jsonl"
        code, out, _ = run_cli(capsys, "game-run", "--seed", "0", "--episodes", "50", "--trace-out", str(path))
        assert code == 0
        if hashlib.sha256(path.read_bytes()).hexdigest() != (
            "ca0c3785849692a44900d9054e9066ec3b48eb80737de1381668d276f0f1f4c3"
        ):
            # episode i is seed i, driven by the quantum brain, whose table is the paper's FLRT, from lane 2
            episodes = []
            for line in path.read_text().splitlines():
                if line.startswith('{"tick":0,') or not episodes:
                    episodes.append([])
                episodes[-1].append(line)
            episodes += [[]] * (50 - len(episodes))
            paper = brain_rows("FLRT")
            pytest.fail(pin_failure(
                (f"episode {i} (seed {i}, brain FLRT)", lines, reference_episode(GameConfig(seed=i), 2, paper)[3])
                for i, lines in enumerate(episodes)
            ))
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "56391499dc9632fd918848aa751467d486c911eb3724f9575ce0d33909450697"
        )

    def test_unwritable_trace_out_fails_before_any_episode(self, capsys):
        code, out, err = run_cli(capsys, "game-run", "--trace-out", "/no/such/dir/t.jsonl")
        assert code == 1
        assert "cannot write /no/such/dir/t.jsonl" in err
        assert out == ""

    def test_stdout_error_is_not_blamed_on_the_trace_file(self, capsys, monkeypatch, tmp_path):
        class BrokenStdout:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        path = tmp_path / "t.jsonl"
        monkeypatch.setattr("sys.stdout", BrokenStdout())
        with pytest.raises(BrokenPipeError):
            main(["game-run", "--trace-out", str(path)])
        assert str(path) not in capsys.readouterr().err

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_trace_device_fails_naming_the_path(self, capsys):
        code, _, err = run_cli(capsys, "game-run", "--trace-out", "/dev/full")
        assert code == 1
        assert "cannot write /dev/full" in err

    def test_seed_flag_overrides_config_seed(self, capsys, tmp_path):
        config = tmp_path / "seeded.json"
        config.write_text(json.dumps({"seed": 9}))
        code, out, _ = run_cli(capsys, "game-run", "--config", str(config), "--episodes", "1")
        assert "seed=9" in out
        code, out, _ = run_cli(capsys, "game-run", "--config", str(config), "--episodes", "1", "--seed", "3")
        assert "seed=3" in out

    @pytest.mark.parametrize("text, reason", [
        ("{not json", "malformed config: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ('{"lanes": 8}', "invalid config: unknown config fields: ['lanes']"),
        ('{"seed": 1.5}', "invalid config: seed must be an int, got 1.5"),
        ("[1, 2]", "config must be a JSON object"),
        (None, "cannot read config: [Errno 21] Is a directory: {path!r}"),  # None: the path is a directory
    ], ids=["malformed", "unknown-field", "non-int-seed", "not-an-object", "directory"])
    def test_bad_config_is_usage_error_naming_why(self, tmp_path, capsys, text, reason):
        config = tmp_path / "bad.json"
        if text is None:
            config.mkdir()
        else:
            config.write_text(text)
        with pytest.raises(SystemExit) as excinfo:
            main(["game-run", "--config", str(config)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"qbraitenberg: error: {reason.format(path=str(config))}"

    def test_zero_episodes_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["game-run", "--episodes", "0"])
        assert excinfo.value.code != 0

    def test_collision_forces_nonzero_exit(self, capsys, monkeypatch):
        collided = EpisodeResult(EpisodeStatus.COLLIDED, 7, ())
        monkeypatch.setattr(cli, "run_episode", lambda config, kind: collided)
        code, out, _ = run_cli(capsys, "game-run", "--episodes", "1")
        assert code == 1
        assert "collisions=1" in out


class TestEntryPoint:
    def test_closed_stdout_exits_1_without_traceback(self, tmp_path):
        # about 170 KB of episode lines, more than a pipe holds, so the child
        # is still writing when the reader closes after one line
        config = tmp_path / "short.json"
        config.write_text(json.dumps({"road_length": 5}))
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qbraitenberg", "game-run", "--episodes", "4000", "--config", str(config)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.stdout.readline().startswith(b"episode=0 ")
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert err.decode() == ""  # no BrokenPipeError traceback

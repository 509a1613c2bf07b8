"""End-to-end tests of the command-line harness and its exit codes."""

import inspect
import json
import math
from pathlib import Path

import pytest

import scqkd.cli as cli
from scqkd import protocol, security
from scqkd.ontology import IntegrityViolationError

from conftest import peak_traced_mb


def run_cli(*argv):
    return cli.main(list(argv))


class TestSimulate:
    def test_writes_session_and_report(self, tmp_path):
        out = tmp_path / "run.json"
        code = run_cli(
            "simulate", "--rounds", "20000", "--seed", "42", "--out", str(out)
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["session"]["config"] == {
            "n_rounds": 20000,
            "upsilon": None,
            "seed": 42,
            "check_fraction": 0.1,
        }
        report = doc["report"]
        assert report["visibility_estimate"] == 1.0
        assert report["secure"] is True

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["simulate", "--rounds", "30000", "--seed", "9", "--upsilon", "0.5"]
        assert run_cli(*argv, "--out", str(a)) == 0
        assert run_cli(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_never_changes_the_bytes(self, tmp_path):
        outs = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}.json"
            code = run_cli(
                "simulate", "--rounds", "50000", "--seed", "1234",
                "--upsilon", "0.7853981633974483",
                "--workers", workers, "--out", str(out),
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_include_rounds_embeds_the_round_array(self, tmp_path):
        out = tmp_path / "rounds.json"
        code = run_cli(
            "simulate", "--rounds", "8000", "--seed", "2", "--include-rounds",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["session"]["rounds"]) == 8000

    def test_csv_format_writes_per_round_rows(self, tmp_path, capsys):
        out = tmp_path / "rounds.csv"
        code = run_cli(
            "simulate", "--rounds", "10000", "--seed", "3", "--format", "csv",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("round_id,alice,bob,outcome")
        assert len(lines) == 10001
        report = json.loads(capsys.readouterr().out)
        assert "key_rate" in report

    @pytest.mark.parametrize("source", ["flag", "config key"])
    def test_include_rounds_with_csv_is_a_config_error(self, source, tmp_path, capsys):
        out = tmp_path / "never.csv"
        argv = ["simulate", "--rounds", "8000", "--format", "csv", "--out", str(out)]
        if source == "flag":
            argv.append("--include-rounds")
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("include_rounds = true\n")
            argv += ["--config", str(cfg)]
        assert run_cli(*argv) == 2
        assert not out.exists()
        assert "--include-rounds" in capsys.readouterr().err

    def test_export_memory_is_flat_in_the_session_length(self, tmp_path):
        out = tmp_path / "rounds.json"

        def peak(n):
            argv = ["simulate", "--rounds", str(n), "--upsilon", repr(math.pi / 6),
                    "--seed", "3", "--include-rounds", "--out", str(out)]
            return peak_traced_mb(lambda: run_cli(*argv))

        small = peak(200_000)
        chunk_mb = out.stat().st_size / 200_000 * protocol.SAMPLING_BLOCK / 2**20
        # The document is written a chunk of rows at a time, never whole:
        # four times the rounds may hold more columns, not more text.
        assert peak(800_000) <= small + chunk_mb

    def test_per_round_json_export_holds_pieces_not_columns(self, tmp_path):
        argv = ["simulate", "--rounds", "200000", "--upsilon", repr(math.pi / 6), "--seed", "3",
                "--include-rounds", "--out", str(tmp_path / "rounds.json")]
        # 28 MB of JSON, written 2**12 rows (0.6 MB) at a time, from no column.
        assert peak_traced_mb(lambda: run_cli(*argv)) < 8

    def test_csv_export_memory_does_not_grow_with_the_session(self, tmp_path, capsys):
        def peak(n):
            argv = ["simulate", "--rounds", str(n), "--upsilon", repr(math.pi / 6),
                    "--seed", "3", "--format", "csv", "--out", str(tmp_path / "rounds.csv")]
            return peak_traced_mb(lambda: run_cli(*argv))

        peak(1_000)  # builds the cached row templates and sampling tables
        assert peak(1_000_000) <= peak(100_000) + 1

    def test_full_strength_attack_is_insecure(self, tmp_path):
        out = tmp_path / "attacked.json"
        code = run_cli(
            "simulate", "--rounds", "40000", "--seed", "5",
            "--upsilon", "1.5707963267948966", "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["report"]["secure"] is False

    def test_degrees_flag_converts_angles(self, tmp_path):
        out = tmp_path / "deg.json"
        code = run_cli(
            "simulate", "--rounds", "20000", "--seed", "6",
            "--upsilon", "90", "--degrees", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["session"]["config"]["upsilon"] == pytest.approx(math.pi / 2)


    @pytest.mark.parametrize("extra", [(), ("--format", "csv"), ("--degrees",)])
    def test_negative_zero_angle_gives_the_zero_angle_bytes(self, tmp_path, capsys, extra):
        outputs = []
        for angle in ("-0.0", "0.0"):
            out = tmp_path / f"{angle}.out"
            argv = ["simulate", "--rounds", "8000", f"--upsilon={angle}", *extra]
            assert run_cli(*argv, "--out", str(out)) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert b"-0" not in outputs[0][0]


class TestSweep:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_negative_zero_angle_gives_the_zero_angle_row(self, tmp_path, fmt):
        outputs = []
        for grid in ("-0.0,0.0", "0.0,0.0"):
            out = tmp_path / f"{grid}.{fmt}"
            assert run_cli("sweep", "--rounds", "20000", f"--grid={grid}", "--format", fmt,
                           "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        if fmt == "csv":
            assert outputs[0].split(b"\n")[1:3] == [b"0,1,0,0,1,0,1,true"] * 2

    def test_grid_rows_in_input_order(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run_cli(
            "sweep", "--rounds", "20000", "--seed", "7", "--format", "csv",
            "--grid", "1.5707963267948966,0,0.7853981633974483",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].split(",")[0] == "upsilon"
        assert len(lines) == 4
        # Numeric CSV fields carry 12 significant digits.
        angles = [float(line.split(",")[0]) for line in lines[1:]]
        assert angles == pytest.approx(
            [1.5707963267948966, 0.0, 0.7853981633974483], abs=1e-11
        )
        eps_analytic = [float(line.split(",")[2]) for line in lines[1:]]
        assert eps_analytic[0] == pytest.approx(0.5, abs=1e-9)
        assert eps_analytic[1] == pytest.approx(0.0, abs=1e-9)
        assert eps_analytic[2] == pytest.approx(0.22654091966098642, abs=1e-9)

    def test_empty_grid_gives_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = run_cli("sweep", "--grid", "", "--format", "csv", "--out", str(out))
        assert code == 0
        assert out.read_text().strip().split("\n") == [
            "upsilon,visibility,epsilon_analytic,epsilon_estimate,"
            "i_bob,i_eve,key_rate,secure"
        ]

    def test_missing_grid_is_a_config_error(self):
        assert run_cli("sweep", "--rounds", "1000") == 2

    @pytest.mark.parametrize("args", [("--grid", "0.5,3.2"), ("--grid", "nan"),
                                      ("--grid", "-0.1"), ("--grid", "91", "--degrees")])
    def test_out_of_range_grid_angle_is_a_config_error(self, tmp_path, capsys, args):
        out = tmp_path / "sweep.json"
        assert run_cli("sweep", "--rounds", "1000", *args, "--out", str(out)) == 2
        assert "upsilon must lie in [0, pi/2]" in capsys.readouterr().err
        assert not out.exists()


class TestThreshold:
    def test_prints_valid_json_with_the_threshold(self, capsys):
        assert run_cli("threshold") == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.205 <= doc["epsilon_star"] <= 0.215
        assert 0.5 <= doc["v_star"] <= 0.9

    def test_tolerances_agree_to_three_decimals(self, capsys):
        assert run_cli("threshold", "--tolerance", "1e-3") == 0
        coarse = json.loads(capsys.readouterr().out)
        assert run_cli("threshold", "--tolerance", "1e-9") == 0
        fine = json.loads(capsys.readouterr().out)
        assert abs(coarse["epsilon_star"] - fine["epsilon_star"]) < 1e-3


class TestOntology:
    def test_json_matrix(self, capsys):
        assert run_cli("ontology") == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["scenario"]: row for row in rows}
        assert by_name["quantum"] == {
            "scenario": "quantum",
            "real": True,
            "physical": False,
            "classification": "RealNonphysical",
        }
        assert by_name["classical_ball"]["classification"] == "RealPhysical"
        assert by_name["classical_epistemic"]["classification"] == "EpistemicNonphysical"
        assert by_name["classical_wave"]["classification"] == "RealPhysical"

    def test_csv_matrix(self, capsys):
        assert run_cli("ontology", "--format", "csv") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "scenario,real,physical,classification"
        assert len(lines) == 5

    def test_integrity_violation_exit_code(self, capsys, monkeypatch):
        def broken():
            raise IntegrityViolationError("forced for the exit-code contract")

        monkeypatch.setattr(cli, "classification_matrix", broken)
        assert run_cli("ontology") == 4


class TestConfigHandling:
    def test_invalid_rounds_is_a_config_error(self):
        assert run_cli("simulate", "--rounds", "0") == 2

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--grid", "0.5"]])
    def test_zero_workers_is_a_config_error(self, command, tmp_path):
        out = tmp_path / "never.json"
        assert run_cli(*command, "--rounds", "1000", "--workers", "0", "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--grid", "0.5"]])
    def test_too_few_check_rounds_is_a_config_error(self, command, tmp_path, capsys):
        # 2 000 rounds disclose about 50 Reflect/Reflect rounds, under the 100 needed.
        out = tmp_path / "never.json"
        assert run_cli(*command, "--rounds", "2000", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: need at least 100 disclosed Reflect/Reflect rounds, got ")
        assert not out.exists()

    def test_invalid_upsilon_is_a_config_error(self):
        assert run_cli("simulate", "--rounds", "100", "--upsilon", "3.0") == 2

    def test_unwritable_output_is_an_io_error(self, tmp_path):
        missing = tmp_path / "no_such_dir" / "out.json"
        assert run_cli("threshold", "--out", str(missing)) == 3

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "777")
        out = tmp_path / "env.json"
        assert run_cli("simulate", "--rounds", "5000", "--out", str(out)) == 0
        assert json.loads(out.read_text())["session"]["config"]["seed"] == 777

    def test_flag_overrides_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "777")
        out = tmp_path / "flag.json"
        assert run_cli("simulate", "--rounds", "5000", "--seed", "8", "--out", str(out)) == 0
        assert json.loads(out.read_text())["session"]["config"]["seed"] == 8

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# session parameters\n"
            "rounds = 5000\n"
            "seed = 15\n"
            "check_fraction = 0.2\n"
        )
        out = tmp_path / "cfg.json"
        code = run_cli(
            "simulate", "--config", str(cfg), "--seed", "16", "--out", str(out)
        )
        assert code == 0
        echo = json.loads(out.read_text())["session"]["config"]
        assert echo["n_rounds"] == 5000
        assert echo["seed"] == 16
        assert echo["check_fraction"] == 0.2

    def test_unknown_config_key_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        assert run_cli("simulate", "--config", str(cfg)) == 2

    def test_bad_env_seed_is_a_config_error(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
        assert run_cli("simulate", "--rounds", "5000") == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {cli.SEED_ENV_VAR}:")

    def test_bad_format_is_a_config_error(self, capsys):
        assert run_cli("ontology", "--format", "xml") == 2
        assert "format must be 'json' or 'csv'" in capsys.readouterr().err

    def test_nan_tolerance_is_a_config_error(self, capsys):
        assert run_cli("threshold", "--tolerance", "nan") == 2
        assert "tolerance must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["1e-16", "1e-20"])
    def test_unreachable_tolerance_is_a_config_error(self, capsys, tolerance):
        assert run_cli("threshold", "--tolerance", tolerance) == 2
        err = capsys.readouterr().err
        assert err == (f"configuration error: tolerance {float(tolerance)} is below the least "
                       "residual the bisection reaches, 1.11e-16\n")


#: The flags each command accepts besides --config, as listed in the README.
COMMAND_FLAGS = {
    "simulate": {"--rounds", "--upsilon", "--seed", "--check-fraction", "--workers",
                 "--format", "--out", "--degrees", "--include-rounds"},
    "sweep": {"--rounds", "--seed", "--check-fraction", "--workers", "--format", "--out",
              "--degrees", "--grid"},
    "threshold": {"--tolerance", "--out"},
    "ontology": {"--format", "--out"},
}

#: Per option: a command that reads it and a text value that differs from its default.
SAMPLES = {
    "rounds": ("simulate", "10000"),
    "upsilon": ("simulate", "0.5"),
    "seed": ("sweep", "11"),
    "check_fraction": ("simulate", "0.3"),
    "workers": ("sweep", "2"),
    "format": ("ontology", "csv"),
    "out": ("threshold", None),
    "degrees": ("simulate", "true"),
    "include_rounds": ("simulate", "true"),
    "grid": ("sweep", "0.1,0.2"),
    "tolerance": ("threshold", "1e-4"),
}

#: Flags every run of a command gets unless the option under test replaces them.
BASE = {
    "simulate": {"rounds": "8000", "upsilon": "0.25"},
    "sweep": {"rounds": "8000", "grid": "0.3"},
    "threshold": {},
    "ontology": {},
}


class TestOptionTable:
    def test_sessions_reach_the_engine_through_one_config(self):
        def source(module):
            return Path(module.__file__).read_text()

        assert source(cli).count("SessionConfig(") == 1
        assert "SessionConfig(" not in source(security)
        assert "n_rounds" not in inspect.signature(security.sweep_reports).parameters
        assert cli.OPTIONS["seed"].default is protocol.SessionConfig.seed
        assert cli.OPTIONS["check_fraction"].default is protocol.SessionConfig.check_fraction

    def test_each_command_takes_only_the_flags_it_reads(self):
        parser = cli.build_parser()
        commands = parser._subparsers._group_actions[0].choices
        assert set(commands) == set(COMMAND_FLAGS)
        for name, command in commands.items():
            flags = {s for a in command._actions for s in a.option_strings if s.startswith("--")}
            assert flags == COMMAND_FLAGS[name] | {"--help", "--config"}, name

    def test_samples_cover_the_table(self):
        assert set(SAMPLES) == set(cli.OPTIONS)
        for key, (command, _) in SAMPLES.items():
            assert command in cli.OPTIONS[key].commands

    @pytest.mark.parametrize("argv", [
        ["sweep", "--grid", "0.5", "--upsilon", "0.5"],
        ["threshold", "--rounds", "0"],
        ["ontology", "--degrees"],
    ])
    def test_flag_the_command_does_not_read_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("key", sorted(SAMPLES))
    def test_flag_and_config_key_give_the_same_bytes(self, key, tmp_path, capsys):
        command, value = SAMPLES[key]
        out = tmp_path / "out.txt"
        value = str(out) if value is None else value
        base = [command]
        for k, v in BASE[command].items():
            if k != key:
                base += [cli._flag(k), v]
        if key != "out":
            base += ["--out", str(out)]
        bare = cli.OPTIONS[key].convert is cli._boolean
        flag = [cli._flag(key)] if bare else [cli._flag(key), value]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")

        runs = [base + flag, base + ["--config", str(cfg)]]
        if key != "grid":  # sweep has no default grid
            runs.append(base)
        outputs = []
        for argv in runs:
            assert run_cli(*argv) == 0
            outputs.append((out.read_bytes() if out.exists() else None,
                            capsys.readouterr().out))
            out.unlink(missing_ok=True)
        assert outputs[0] == outputs[1]
        if key != "grid":
            # The worker count never changes results; every other option does.
            assert (outputs[0] == outputs[2]) == (key == "workers")

    @pytest.mark.parametrize("spelling, flagged", [
        ("1", True), ("true", True), ("YES", True), ("On", True),
        ("0", False), ("false", False), ("NO", False), ("Off", False),
    ])
    def test_config_boolean_spellings(self, spelling, flagged, tmp_path):
        cfg, by_flag, by_file = tmp_path / "run.cfg", tmp_path / "a.json", tmp_path / "b.json"
        cfg.write_text(f"degrees = {spelling}\n")
        base = ["simulate", "--rounds", "8000", "--upsilon", "1"]
        assert run_cli(*base, *(["--degrees"] if flagged else []), "--out", str(by_flag)) == 0
        assert run_cli(*base, "--config", str(cfg), "--out", str(by_file)) == 0
        assert by_flag.read_bytes() == by_file.read_bytes()

    @pytest.mark.parametrize("spelling", ["ture", "y", "", "2"])
    def test_config_boolean_typo_is_a_config_error(self, spelling, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"upsilon = 1\ndegrees = {spelling}\n")
        out = tmp_path / "never.json"
        assert run_cli("simulate", "--rounds", "8000", "--config", str(cfg),
                       "--out", str(out)) == 2
        assert "config key 'degrees'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_value_fails_the_same_from_flag_and_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rounds = abc\n")
        assert run_cli("simulate", "--rounds", "abc") == 2
        from_flag = capsys.readouterr().err
        assert from_flag.startswith("configuration error: --rounds:")
        assert run_cli("simulate", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == from_flag.replace("--rounds", "config key 'rounds'")

    def test_file_keys_of_other_commands_are_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("rounds = 2000\ngrid = 0.1\ntolerance = 1e-4\n")
        assert run_cli("threshold", "--config", str(cfg)) == 0
        from_file = capsys.readouterr().out
        assert run_cli("threshold", "--tolerance", "1e-4") == 0
        assert capsys.readouterr().out == from_file

import argparse
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ccdsim import cli, experiments, propagator, pulses, rb
from ccdsim.cli import build_parser, main
from ccdsim.config import KEY_TYPES, RunConfig, flag, parse_config
from ccdsim.dataset import emit_dataset
from ccdsim.drive import default_config, drive_coefficient, Scheme
from ccdsim.errors import NumericalError
from ccdsim.experiments import noise_average
from ccdsim.rb import randomized_benchmarking


def read_csv(path):
    meta, header, rows = {}, None, []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(cell) for cell in line.split(",")])
    return meta, header, np.array(rows)


class TestChevron:
    def test_bare_chevron_run(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(
            [
                "chevron", "--scheme", "bare", "--rabi-hz", "3.6e6",
                "--detuning-span-hz", "8e6", "--detuning-points", "5",
                "--durations", "32", "--out", str(out),
            ]
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["detuning_rad_per_s", "duration_s", "p_up"]
        assert rows.shape == (5 * 32, 3)
        assert meta["meta.scheme"] == "bare"
        assert rows[:, 2].min() >= 0.0 and rows[:, 2].max() <= 1.0 + 1e-9

    def test_determinism_across_runs_and_threads(self, tmp_path, monkeypatch):
        # 128 noise shots give the rb primitives two blocks per interval;
        # --threads selects nothing, and one block per chunk gives the same bits
        args = [
            "rb", "--scheme", "cm", "--rabi-hz", "2.2e6", "--cliffords", "1,2",
            "--k", "2", "--noise-detuning-sigma-hz", "1e5", "--noise-samples", "128",
        ]
        outputs = []
        for threads in ("1", "2", "4", "4"):
            outputs.append(tmp_path / f"{len(outputs)}.csv")
            assert main(args + ["--threads", threads, "--out", str(outputs[-1])]) == 0
        monkeypatch.setattr(propagator, "_BLOCK", propagator._CHUNK)
        outputs.append(tmp_path / "one_block_per_chunk.csv")
        assert main(args + ["--out", str(outputs[-1])]) == 0
        assert len({out.read_bytes() for out in outputs}) == 1


class TestConfigPrecedence:
    def test_flags_override_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("scheme = am\nrabi_hz = 1e6\nduration_points = 4\n")
        out = tmp_path / "o.csv"
        code = main(
            [
                "chevron", "--config", str(config), "--rabi-hz", "2e6",
                "--detuning-points", "2", "--detuning-span-hz", "1e6",
                "--out", str(out),
            ]
        )
        assert code == 0
        meta, _, _ = read_csv(out)
        config_lines = [v for k, v in meta.items() if k.startswith("config.")]
        assert "rabi_hz = 2000000.0" in config_lines
        assert "scheme = am" in config_lines

    def test_config_error_exit_code_and_record(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("bananas = 1\n")
        code = main(["chevron", "--config", str(config), "--out", "x.csv"])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "config"
        assert "bananas" in record["error"]["message"]

    def test_missing_out_is_config_error(self):
        assert main(["chevron", "--detuning-points", "2", "--durations", "4"]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["chevron", "--mod-ratio", "nan", "--detuning-points", "3"],
            ["infidelity", "--detuning-span-hz", "nan"],
        ],
    )
    def test_non_finite_input_is_config_error(self, tmp_path, capsys, args):
        out = tmp_path / "o.csv"
        assert main(args + ["--out", str(out)]) == 2
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "config"
        assert "finite" in record["error"]["message"]

    def test_overflow_leaves_one_json_line_on_stderr(self, tmp_path):
        # a subprocess, so that stderr holds what a user sees: the squared
        # Pauli coefficients overflow, and numpy must raise instead of warning
        out = tmp_path / "o.csv"
        result = subprocess.run(
            [sys.executable, "-m", "ccdsim.cli", "chevron", "--rabi-hz", "1e300",
             "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert result.returncode == 3
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert json.loads(result.stderr)["error"]["kind"] == "numerical"
        assert not out.exists()

    def test_normalization_error_is_numerical(self, monkeypatch, capsys):
        def handler(args):
            raise NumericalError("state norm 1.1 is off by more than 1e-08")

        monkeypatch.setattr(cli, "_cmd_selftest", handler)
        assert main(["selftest"]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "numerical"

    @pytest.mark.parametrize(
        "error, kind",
        [(MemoryError, "memory"), (NumericalError, "numerical")],
    )
    def test_error_in_a_pool_block_exits_3(self, tmp_path, monkeypatch, capsys, error, kind):
        inner, blocks = propagator._step_unitaries, []

        def failing_block(*args):
            blocks.append(args)
            if len(blocks) == 2:
                raise error("cannot allocate the step unitaries")
            return inner(*args)

        # several blocks per stepped interval; the first runs, the second fails
        monkeypatch.setattr(propagator, "_BLOCK", 4)
        monkeypatch.setattr(propagator, "_step_unitaries", failing_block)
        out = tmp_path / "t.csv"
        code = main(["trajectory", "--scheme", "am", "--quarter-turns", "2", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == {"kind": kind, "message": "cannot allocate the step unitaries"}
        assert len(blocks) == 2

    def test_sweep_value_outside_unit_interval_is_numerical(self, tmp_path, monkeypatch, capsys):
        evolve_grid = experiments.evolve_grid
        monkeypatch.setattr(experiments, "evolve_grid", lambda *args: 2.0 * evolve_grid(*args))
        out = tmp_path / "c.csv"
        code = main(["chevron", "--detuning-points", "2", "--durations", "4", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == {"kind": "numerical", "message": "sweep values must lie in [0, 1]"}

    def test_io_error_exit_code(self, tmp_path):
        code = main(
            [
                "chevron", "--detuning-points", "2", "--durations", "4",
                "--out", str(tmp_path / "no" / "dir" / "x.csv"),
            ]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "args",
        [
            ["chevron", "--rabi-hz", "abc"],
            ["rb", "--cliffords", "1,x"],
            ["chevron", "--scheme", "foo"],
            ["chevron", "--durations", "4.5"],
            ["rb", "--static-detuning-frac", "abc"],
            ["rb", "--static-detuning-frac", "nan"],
            ["spectrum", "--axis", "foo"],
            ["chevron", "--bananas", "1"],
        ],
    )
    def test_malformed_flag_is_config_error(self, tmp_path, capsys, args):
        out = tmp_path / "o.csv"
        assert main(args + ["--out", str(out)]) == 2
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "config"
        assert args[2] in record["error"]["message"]
        if args[1].startswith("--static"):
            assert args[1] in record["error"]["message"]

    @pytest.mark.parametrize(
        "flags, line",
        [
            (["--static-detuning-frac", "0.05"], "detuning_hz = 180000.0"),
            # the static Rabi error is spelled by its key alone
            (["--rabi-error-frac", "0.05"], "rabi_error_frac = 0.05"),
        ],
        ids=["static-detuning", "static-rabi-error"],
    )
    def test_static_error_flags_reach_the_dataset_config(self, tmp_path, flags, line):
        args = ["rb", "--cliffords", "1,2", "--k", "2"]
        plain, static = tmp_path / "plain.csv", tmp_path / "static.csv"
        assert main(args + ["--out", str(plain)]) == 0
        assert main(args + flags + ["--out", str(static)]) == 0
        meta_plain, meta = read_csv(plain)[0], read_csv(static)[0]
        assert meta["config_hash"] != meta_plain["config_hash"]
        assert line in meta.values()

    @pytest.mark.parametrize("source", ["file", "flag"])
    def test_the_removed_static_rabi_error_alias_exits_2(self, tmp_path, capsys, source):
        config = tmp_path / "old.cfg"
        config.write_text("static_rabi_error_frac = 0.05\n" if source == "file" else "")
        extra = ["--static-rabi-error-frac", "0.05"] if source == "flag" else []
        out = tmp_path / "o.csv"
        args = ["rb", "--cliffords", "1,2", "--k", "2", "--config", str(config), *extra]
        assert main(args + ["--out", str(out)]) == 2
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "config"
        assert "static" in record["error"]["message"]

    @pytest.mark.parametrize(
        "file_text, args, keys",
        [
            ("detuning_start_hz = -1e6\n", ["chevron", "--detuning-span-hz", "2e6"],
             ("detuning_span_hz", "detuning_start_hz")),
            ("", ["rb", "--static-detuning-frac", "0.05", "--detuning-hz", "1e4"],
             ("static_detuning_frac", "detuning_hz")),
        ],
        ids=["span-flag-with-file-start", "static-flag-with-detuning-flag"],
    )
    def test_derived_flag_with_its_key_exits_2(self, tmp_path, capsys, file_text, args, keys):
        config = tmp_path / "run.cfg"
        config.write_text(file_text)
        out = tmp_path / "o.csv"
        assert main(args + ["--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "config"
        assert all(key in record["error"]["message"] for key in keys)

    @pytest.mark.parametrize(
        "args",
        [
            ["chevron", "--durations", "8", "--detuning-points", "3"],
            ["rabi-error", "--durations", "8", "--rabi-error-points", "3", "--scheme", "pm"],
            ["spectrum", "--durations", "16", "--detuning-points", "3", "--scheme", "bare"],
            ["infidelity", "--detuning-points", "5", "--scheme", "am"],
            ["trajectory", "--quarter-turns", "4", "--samples-per-quarter-turn", "4"],
            ["dressed", "--kind", "ccd_ramsey", "--points", "4", "--rabi-hz", "2.2e6",
             "--noise-detuning-sigma-hz", "3e5", "--noise-samples", "2", "--seed", "5"],
            ["rb", "--cliffords", "1,2", "--k", "2", "--scheme", "amccd"],
            ["iq-export", "--sample-rate-hz", "1e8", "--format", "json"],
        ],
        ids=lambda args: args[0],
    )
    def test_embedded_config_runs_again_to_the_same_bytes(self, tmp_path, args):
        # a dataset records its whole config: the block alone, as a --config
        # file, reproduces the file byte for byte
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(args + ["--out", str(first)]) == 0
        text = first.read_text(encoding="utf-8")
        if args[-1] == "json":
            meta = json.loads(text)["meta"]
            lines = [value for key, value in sorted(meta.items()) if key.startswith("config.")]
        else:
            lines = re.findall(r"^# config\.\d{3}=(.*)$", text, flags=re.M)
        assert lines and not any("alpha" in line for line in lines)
        config = tmp_path / "run.cfg"
        config.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert main([args[0], "--config", str(config), "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()

    def test_every_config_flag_sets_its_field(self):
        # a flag's text must give what the same text gives on a config line;
        # ints are spelled "257.0" and the scheme "cmccd", as files may spell them
        defaults = RunConfig()
        texts = {
            "scheme": "cmccd", "dressed_kind": "two_axis", "format": "json",
            "out": "elsewhere.csv", "cliffords": "1,3", "mod_strength_hz": "1e6",
            "detuning_span_hz": "2e6", "rabi_error_span_frac": "0.2", "static_detuning_frac": "0.05",
        }
        for key, kind in KEY_TYPES.items():
            if key not in texts:
                default = getattr(defaults, key)
                texts[key] = f"{default + 1}.0" if kind is int else repr(default + 1)
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        checked = 0
        for command, sub in commands.choices.items():
            if command == "selftest":
                continue
            actions = {a.dest: a for a in sub._actions if a.dest in KEY_TYPES}
            assert set(actions) == set(KEY_TYPES), command
            for key, action in actions.items():
                expected = parse_config(f"{key} = {texts[key]}\n")
                assert expected != defaults, key
                for option in action.option_strings:
                    args = parser.parse_args([command, f"{option}={texts[key]}"])
                    assert cli._load_config(args) == expected, (command, option)
                    checked += 1
        assert checked == 8 * (len(KEY_TYPES) + 4)  # 4 short spellings

    @pytest.mark.parametrize(
        "flag, text",
        [("--detuning-start-hz", "-4e6"), ("--detuning-hz", "-1e5"), ("--detuning-hz", "-1.5E-3")],
    )
    def test_negative_exponent_value_follows_its_flag(self, flag, text):
        # argparse's own pattern reads "-4e6" as an option, leaving the flag without a value
        args = build_parser().parse_args(["chevron", flag, text])
        key = flag[2:].replace("-", "_")
        assert cli._load_config(args) == parse_config(f"{key} = {text}\n")


class TestSubcommands:
    def test_infidelity(self, tmp_path):
        out = tmp_path / "i.csv"
        code = main(
            [
                "infidelity", "--scheme", "cm", "--axis", "detuning",
                "--detuning-span-hz", "1.44e6", "--detuning-points", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["detuning_rad_per_s", "infidelity"]
        mid = rows[2]  # on-resonance CMCCD gate is exact
        assert mid[0] == pytest.approx(0.0, abs=1e-9)
        assert mid[1] <= 1e-8

    def test_trajectory(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(
            [
                "trajectory", "--scheme", "cm", "--quarter-turns", "8",
                "--samples-per-quarter-turn", "4", "--out", str(out),
            ]
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["t_s", "x", "y", "z", "is_marker"]
        assert rows.shape[0] == 33
        assert rows[:, 4].sum() == 8
        assert float(meta["meta.spread"]) <= 1e-8

    def test_dressed_two_axis(self, tmp_path):
        out = tmp_path / "d.csv"
        code = main(
            [
                "dressed", "--kind", "two_axis", "--points", "16",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["mw_phase_rad", "p_up"]
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_dressed_program_file(self, tmp_path):
        program = tmp_path / "ypi.seq"
        program.write_text("# Y_pi then readout matching\ngate 3.141592653589793 0.0\npad\n")
        out = tmp_path / "p.csv"
        code = main(
            ["dressed", "--scheme", "cm", "--program", str(program), "--out", str(out)]
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["t_s", "p_up", "x", "y", "z"]
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-6)
        assert meta["meta.segments"] == "2"

    def test_dressed_program_file_refuses_a_bare_drive(self, tmp_path, capsys):
        # the config's bare drive keeps eps_m = Omega_0 / 4; its gates would do nothing
        program = tmp_path / "ypi.seq"
        program.write_text("gate 3.141592653589793 0.0\npad\n")
        out = tmp_path / "p.csv"
        argv = ["dressed", "--scheme", "bare", "--rabi-hz", "2.2e6", "--program", str(program)]
        assert main(argv + ["--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"]["kind"] == "config"
        assert "dressed drive" in record["error"]["message"]
        assert not out.exists()

    def test_dressed_program_file_refuses_an_extra_field(self, tmp_path, capsys):
        program = tmp_path / "stray.seq"
        program.write_text("gate 1.5707963267948966 0.3\ngate 3.141592653589793 2.1 99\n")
        out = tmp_path / "p.csv"
        argv = ["dressed", "--scheme", "cm", "--rabi-hz", "2.2e6", "--program", str(program)]
        assert main(argv + ["--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        message = json.loads(lines[0])["error"]["message"]
        assert message == "line 2: extra fields '99' after gate"
        assert not out.exists()

    def test_dressed_program_file_averages_the_noise_shots(self, tmp_path):
        from ccdsim.pulses import parse_program, simulate_program
        from ccdsim.qubit import bloch_vector, population_up

        text = ("gate 1.5707963267948966 0.3\nidle 4.545454545454545e-07\n"
                "gate 3.141592653589793 2.1\npad\n")
        program = tmp_path / "two_gates.seq"
        program.write_text(text)
        argv = ["dressed", "--scheme", "cm", "--rabi-hz", "2.2e6", "--program", str(program)]
        noise = ["--noise-detuning-sigma-hz", "3e5", "--noise-samples", "8"]
        assert main(argv + ["--out", str(tmp_path / "clean.csv")]) == 0
        assert main(argv + noise + ["--out", str(tmp_path / "noisy.csv")]) == 0
        _, _, clean = read_csv(tmp_path / "clean.csv")
        _, header, noisy = read_csv(tmp_path / "noisy.csv")
        cfg = parse_config("scheme = cm\nrabi_hz = 2.2e6\nnoise_detuning_sigma_hz = 3e5\n"
                           "noise_samples = 8\n")
        runs = []
        for shot in cfg.noise_spec().shots(cfg.drive_config()):
            final = simulate_program([shot], parse_program(text, shot)[None])[0]
            runs.append([population_up(final), *bloch_vector(final)])
        assert header == ["t_s", "p_up", "x", "y", "z"]
        assert noisy[0, 1:].tolist() == (np.sum(runs, axis=0) / 8).tolist()
        assert np.abs(noisy[0, 1:] - clean[0, 1:]).max() > 1e-3

    def test_dressed_program_file_integrates_its_shots_as_one_batch(self, tmp_path, monkeypatch):
        programs, batches = [], []
        simulate, grid = pulses.simulate_program, pulses.propagator_grid

        def spy_simulate(batch, *args, **kwargs):
            programs.append(len(batch))
            return simulate(batch, *args, **kwargs)

        def spy_grid(hams, times, spec=propagator.ROTATING_SPEC):
            batches.append(len(hams))
            return grid(hams, times, spec)

        monkeypatch.setattr(pulses, "simulate_program", spy_simulate)
        monkeypatch.setattr(pulses, "propagator_grid", spy_grid)
        program = tmp_path / "two_gates.seq"
        # gates at theta_m = pi/2 and an idle at theta_m = 0: two distinct theta_m
        program.write_text("gate 1.5707963267948966 0.3\nidle 4.545454545454545e-07\n"
                           "gate 3.141592653589793 2.1\npad\n")
        code = main(["dressed", "--scheme", "cm", "--rabi-hz", "2.2e6", "--program", str(program),
                     "--noise-detuning-sigma-hz", "3e5", "--noise-samples", "5",
                     "--out", str(tmp_path / "p.csv")])
        assert code == 0
        assert programs == [5]
        assert batches == [5 * 2]

    @pytest.mark.parametrize(
        "noise",
        [[], ["--noise-detuning-sigma-hz", "3e5", "--noise-rabi-sigma-frac", "0.02",
              "--noise-samples", "6", "--seed", "3"]],
        ids=["clean", "noisy"],
    )
    def test_program_file_reproduces_the_ramsey_preset(self, tmp_path, noise):
        cfg = parse_config("scheme = cm\nrabi_hz = 2.2e6\n")
        half_pi, t_c = math.pi / 2.0, 3 * cfg.drive_config().mod_period
        program = tmp_path / "ramsey.seq"
        program.write_text(f"gate {half_pi!r} 0.0\nidle {t_c!r}\ngate {half_pi!r} 0.0\npad\n")
        argv = ["dressed", "--scheme", "cm", "--rabi-hz", "2.2e6", *noise]
        preset, spelled = tmp_path / "preset.csv", tmp_path / "program.csv"
        assert main(argv + ["--kind", "ccd_ramsey", "--points", "4", "--out", str(preset)]) == 0
        assert main(argv + ["--program", str(program), "--out", str(spelled)]) == 0
        _, _, preset_rows = read_csv(preset)
        _, _, program_rows = read_csv(spelled)
        assert preset_rows[3, 0] == t_c
        assert program_rows[0, 1] == preset_rows[3, 1]

    def test_program_compile_error_exit_code(self, tmp_path):
        program = tmp_path / "bad.seq"
        program.write_text("idle 1.234e-7\n")  # off the period lattice
        code = main(["dressed", "--scheme", "cm", "--program", str(program),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_line_break_in_program_name_exit_code(self, tmp_path, capsys):
        # the name lands in a "# meta.program=" comment line of the CSV
        program = tmp_path / "a\nx=1,2"
        program.write_text("gate 3.141592653589793 0.0\npad\n")
        out = tmp_path / "x.csv"
        code = main(["dressed", "--scheme", "cm", "--program", str(program), "--out", str(out)])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "config"
        assert "meta.program" in record["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "directive",
        ["gate inf 0", "idle inf", "gate nan 0", "gate 1 nan",
         "idle -1e-7", "gate 0 0", "gate -1.5707963267948966 0"],
    )
    def test_non_finite_program_directive_exit_code(self, tmp_path, directive):
        program = tmp_path / "bad.seq"
        program.write_text(f"{directive}\npad\n")
        out = tmp_path / "x.csv"
        code = main(["dressed", "--scheme", "cm", "--mod-ratio", "0.25",
                     "--program", str(program), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_alphas_matching_no_scheme_exit_code(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("alpha_a = 0.3\nalpha_p = 0.7\n")
        out = tmp_path / "x.csv"
        code = main(["iq-export", "--config", str(config), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_modulation_ratio_flag_exits_2(self, tmp_path, capsys):
        # the scheme is the one key for the modulation ratios: --alpha-a is no flag
        out = tmp_path / "x.csv"
        assert main(["iq-export", "--alpha-a", "0.5", "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "config"
        assert "--alpha-a" in record["error"]["message"]
        assert not out.exists()

    def test_rb_ideal(self, tmp_path):
        out = tmp_path / "rb.csv"
        code = main(
            [
                "rb", "--scheme", "cm", "--cliffords", "1,2,4", "--k", "3",
                "--seed", "7", "--ideal", "--out", str(out),
            ]
        )
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["m_cliffords", "signal"]
        assert float(meta["meta.average_gate_fidelity"]) == pytest.approx(1.0, abs=1e-9)

    def test_rb_ideal_is_recorded(self, tmp_path):
        # the same config run two ways must not read as the same run
        results = {"meta.clifford_fidelity", "meta.average_gate_fidelity",
                   "meta.fit_amplitude", "meta.fit_residual", "meta.converged"}
        args = ["rb", "--cliffords", "1,2", "--k", "2"]
        headers = []
        for extra in (["--ideal"], []):
            out = tmp_path / f"rb{len(extra)}.csv"
            assert main(args + extra + ["--out", str(out)]) == 0
            meta = read_csv(out)[0]
            headers.append({k: v for k, v in meta.items() if k not in results})
        assert headers[0] != headers[1]
        assert (headers[0]["meta.ideal"], headers[1]["meta.ideal"]) == ("true", "false")

    def test_rabi_error_sweep(self, tmp_path):
        out = tmp_path / "re.csv"
        code = main(
            [
                "rabi-error", "--scheme", "cm", "--rabi-error-span-frac", "0.4",
                "--rabi-error-points", "5", "--durations", "16", "--out", str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["rabi_error_rad_per_s", "duration_s", "p_up"]
        assert rows.shape == (5 * 16, 3)

    def test_spectrum_rabi_axis(self, tmp_path):
        out = tmp_path / "sr.csv"
        code = main(
            [
                "spectrum", "--scheme", "cm", "--axis", "rabi",
                "--rabi-error-span-frac", "0.2", "--rabi-error-points", "3",
                "--durations", "16", "--out", str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["rabi_error_rad_per_s", "frequency_Hz", "magnitude"]

    def test_spectrum(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(
            [
                "spectrum", "--scheme", "bare", "--axis", "detuning",
                "--detuning-span-hz", "2e6", "--detuning-points", "3",
                "--durations", "64", "--duration-stop-s", "5e-6",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["detuning_rad_per_s", "frequency_Hz", "magnitude"]

    def test_iq_export_demodulates_to_drive(self, tmp_path):
        out = tmp_path / "iq.csv"
        code = main(
            [
                "iq-export", "--scheme", "cm", "--gate-angle", str(math.pi),
                "--sample-rate-hz", "1e9", "--out", str(out),
            ]
        )
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["t_s", "i", "q"]
        cfg = default_config(Scheme.CMCCD)
        times, i_env, q_env = rows[:, 0], rows[:, 1], rows[:, 2]
        carrier = cfg.omega_mw * times + cfg.mw_phase
        reconstructed = i_env * np.cos(carrier) - q_env * np.sin(carrier)
        direct = drive_coefficient(cfg, times)
        assert np.abs(reconstructed - direct).max() <= 1e-10 * np.abs(direct).max()

    def test_iq_export_bare_uses_rabi_rate(self, tmp_path):
        out = tmp_path / "iq.csv"
        code = main(
            [
                "iq-export", "--scheme", "bare", "--gate-angle", str(math.pi),
                "--rabi-hz", "4e6", "--sample-rate-hz", "1e9", "--out", str(out),
            ]
        )
        assert code == 0
        meta, _, rows = read_csv(out)
        # bare pi pulse lasts pi/Omega_0 = 125 ns at 4 MHz
        assert float(meta["meta.duration_s"]) == pytest.approx(0.125e-6, rel=1e-9)

    @pytest.mark.parametrize(
        "command",
        [
            ["infidelity"],
            ["trajectory", "--quarter-turns", "8"],
            ["rb", "--cliffords", "1,2,4", "--k", "2"],
            ["chevron", "--detuning-points", "3", "--durations", "8"],
        ],
    )
    def test_ccd_scheme_without_modulation_runs_bare(self, tmp_path, command):
        # eps_m = 0 leaves no dressed qubit: every subcommand runs the bare qubit
        rows = {}
        for scheme in ("bare", "cm", "am"):
            out = tmp_path / f"{scheme}.csv"
            args = command + ["--scheme", scheme, "--mod-ratio", "0", "--out", str(out)]
            assert main(args) == 0
            rows[scheme] = read_csv(out)[2]
        assert np.abs(rows["cm"] - rows["bare"]).max() <= 1e-12
        assert np.abs(rows["am"] - rows["bare"]).max() <= 1e-12

    def test_iq_export_refuses_too_many_samples(self, tmp_path, capsys):
        # 1e16 samples/s over a 556 ns pi pulse would be 5.6e9 samples (45 GB)
        out = tmp_path / "iq.csv"
        assert main(["iq-export", "--sample-rate-hz", "1e16", "--out", str(out)]) == 2
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "config"
        assert str(cli.MAX_DATASET_ROWS) in record["error"]["message"]

    @pytest.mark.parametrize(
        "args, flags",
        [
            (["chevron", "--durations", "10000000"], ["--detuning-points", "--duration-points"]),
            (
                ["rabi-error", "--rabi-error-points", "5000", "--durations", "5000"],
                ["--rabi-error-points", "--duration-points"],
            ),
            (
                ["spectrum", "--detuning-points", "100000", "--durations", "1000"],
                ["--detuning-points", "--duration-points"],
            ),
            (["infidelity", "--detuning-points", "20000000"], ["--detuning-points"]),
            (
                ["infidelity", "--axis", "rabi", "--rabi-error-points", "20000000"],
                ["--rabi-error-points"],
            ),
            (
                ["trajectory", "--quarter-turns", "1000000", "--samples-per-quarter-turn", "10"],
                ["--quarter-turns", "--samples-per-quarter-turn"],
            ),
            (["dressed", "--points", "20000000"], ["--sweep-points"]),
        ],
        ids=["chevron", "rabi-error", "spectrum", "infidelity", "infidelity-rabi", "trajectory",
             "dressed"],
    )
    def test_oversized_dataset_is_refused_before_any_compute(self, tmp_path, capsys, args, flags):
        # each grid would take minutes, or gigabytes, to build: the row cap
        # refuses it from the config alone
        out = tmp_path / "big.csv"
        start = time.perf_counter()
        assert main(args + ["--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "config"
        message = record["error"]["message"]
        assert str(cli.MAX_DATASET_ROWS) in message
        assert [f for f in flags if f not in message] == []

    @pytest.mark.parametrize("durations, code", [("8", 0), ("9", 2)])
    def test_row_cap_admits_a_grid_of_exactly_the_cap(
        self, tmp_path, monkeypatch, durations, code
    ):
        monkeypatch.setattr(cli, "MAX_DATASET_ROWS", 3 * 8)
        out = tmp_path / "c.csv"
        args = ["chevron", "--detuning-points", "3", "--durations", durations, "--out", str(out)]
        assert main(args) == code
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("angle", ["-1", "0"])
    def test_iq_export_refuses_non_positive_gate_angle(self, tmp_path, capsys, angle):
        out = tmp_path / "iq.csv"
        assert main(["iq-export", f"--gate-angle={angle}", "--out", str(out)]) == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "config"

    @pytest.mark.parametrize(
        "args",
        [
            ["rb", "--cliffords", "1,2", "--k", "2"],
            ["rb", "--cliffords", "1,2", "--k", "2", "--noise-detuning-sigma-hz", "1e5"],
            ["chevron", "--durations", "8", "--detuning-points", "3"],
        ],
        ids=["rb", "rb-noise", "chevron"],
    )
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551617"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, args, seed):
        out = tmp_path / "o.csv"
        assert main(args + ["--seed", seed, "--out", str(out)]) == 2
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "config"
        assert record["error"]["message"].startswith("seed must lie in [0, 2^64)")

    def test_dressed_rejects_off_lattice_mod_ratio(self, tmp_path):
        code = main(
            [
                "dressed", "--kind", "ccd_rabi", "--mod-ratio", "0.3",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines)

    @pytest.mark.parametrize(
        "module, name, wrong, check",
        [
            (cli, "chevron_sweep", lambda *args: np.full((1, 1), 0.5),
             "bare detuned Rabi analytic value"),
            (experiments, "infidelity_curve", lambda *args: np.array([0.5]),
             "CMCCD resonant Y_pi gate"),
            (pulses, "simulate_program", lambda drives, programs: np.array([[0.6, 0.8j]]),
             "first/second frame equivalence"),
        ],
        ids=["chevron", "infidelity", "dressed-program"],
    )
    def test_selftest_checks_the_entry_points_of_the_subcommands(
        self, capsys, monkeypatch, module, name, wrong, check
    ):
        # each state check calls what chevron, infidelity or dressed --program calls
        monkeypatch.setattr(module, name, wrong)
        assert main(["selftest"]) == 3
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if not line.startswith("PASS ")]
        assert len(lines) == 9 and len(failed) == 1
        assert failed[0].startswith(f"FAIL {check}: ")

    def test_json_format(self, tmp_path):
        out = tmp_path / "c.json"
        code = main(
            [
                "chevron", "--detuning-points", "2", "--durations", "4",
                "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["value_names"] == ["p_up"]


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ccdsim.cli", "selftest"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0
    assert "PASS" in result.stdout


def test_readme_cli_commands_run(tmp_path):
    # every command in README's CLI block runs, on README's program file
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block, rest = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)
    (tmp_path / "ypi.seq").write_text(rest.split("```\n", 1)[1].split("```", 1)[0])
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("ccdsim ")]
    assert len(commands) == 9
    for argv in commands:
        argv = [
            str(tmp_path / arg) if option in ("--out", "--program") else arg
            for option, arg in zip(["", *argv], argv)
        ]
        assert main(argv) == 0, argv


def test_data_subcommand_options_are_config_keys():
    # a data subcommand has a flag for each config key and only these others
    others = {"--config", "--axis", "--program", "--ideal", "-h", "--help"}
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    for command, sub in commands.choices.items():
        if command == "selftest":
            continue
        for action in sub._actions:
            if action.dest in KEY_TYPES:
                allowed = {flag(action.dest), cli._SHORT_FLAGS.get(action.dest)}
            else:
                allowed = others
            assert set(action.option_strings) <= allowed, (command, action.option_strings)


#: prints the scipy modules loaded by one CLI run, as the last stdout line
SCIPY_PROBE = (
    "import json, sys\n"
    "from ccdsim.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    "sys.exit(code)\n"
)


#: every data subcommand at a small configuration; rb fits four lengths
SCIPY_FREE_RUNS = {
    "chevron": ["chevron", "--detuning-points", "3", "--durations", "8"],
    "rabi-error": ["rabi-error", "--rabi-error-points", "3", "--durations", "8"],
    "spectrum": ["spectrum", "--detuning-points", "3", "--durations", "8"],
    "infidelity": ["infidelity", "--detuning-points", "5"],
    "trajectory": ["trajectory", "--quarter-turns", "4"],
    "dressed": ["dressed", "--points", "8"],
    "dressed-program": ["dressed", "--program", "PROGRAM"],
    "rb": ["rb", "--cliffords", "1,2,4,8"],
    "iq-export": ["iq-export"],
}


@pytest.mark.parametrize("name", SCIPY_FREE_RUNS)
def test_no_cli_run_imports_scipy(tmp_path, name):
    program = tmp_path / "ypi.seq"
    program.write_text("gate 3.141592653589793 0.0\npad\n")
    argv = [str(program) if arg == "PROGRAM" else arg for arg in SCIPY_FREE_RUNS[name]]
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *argv, "--out", str(tmp_path / "out.csv")],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random costs every subcommand start-up time; only rb and the
    # noise draws need it, and they load it when they run
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, ccdsim.cli; print('numpy.random' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


#: a run without draws, the noise shots of the sequence_noise benchmark, RB
#: sequences with noise shots, a program file's noise shots and the selftest's
#: own draws; OUT and PROGRAM are filled in per run
OPENSSL_FREE_RUNS = {
    "chevron": ["chevron", "--detuning-points", "3", "--durations", "8", "--out", "OUT"],
    "sequence_noise": [
        "dressed", "--scheme", "cm", "--kind", "ccd_ramsey", "--rabi-hz", "2.2e6",
        "--points", "64", "--noise-detuning-sigma-hz", "2e4", "--noise-samples", "8",
        "--threads", "2", "--out", "OUT",
    ],
    "rb-noise": [
        "rb", "--cliffords", "1,2", "--k", "2", "--noise-samples", "2",
        "--noise-detuning-sigma-hz", "1e5", "--out", "OUT",
    ],
    "dressed-program-noise": [
        "dressed", "--program", "PROGRAM", "--noise-detuning-sigma-hz", "3e5",
        "--noise-samples", "4", "--out", "OUT",
    ],
    "selftest": ["selftest"],
}


@pytest.mark.parametrize("name", OPENSSL_FREE_RUNS)
def test_run_leaves_openssl_unloaded(tmp_path, name):
    # hashlib would load OpenSSL (_hashlib), megabytes of resident memory: the
    # config hash uses the built-in _sha1, and numpy.random is imported with
    # _hashlib blocked. Each run is a fresh interpreter, because Hypothesis
    # imports hashlib into this one first.
    program = tmp_path / "ypi.seq"
    program.write_text("gate 3.141592653589793 0.0\npad\n")
    fill = {"OUT": str(tmp_path / "out.csv"), "PROGRAM": str(program)}
    argv = [fill.get(arg, arg) for arg in OPENSSL_FREE_RUNS[name]]
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, ccdsim.cli; code = ccdsim.cli.main(sys.argv[1:]); "
        "print(code, '_hashlib' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"


#: draws noise shots and one RB sequence (after importing hashlib when the
#: first argument says so), then imports hashlib; prints what it saw as JSON
DRAW_THEN_HASHLIB_PROBE = """
import json, sys
if sys.argv[1] == "hashlib-first":
    import hashlib
from ccdsim import rb
from ccdsim.drive import Scheme, default_config
from ccdsim.experiments import NoiseSpec
shots = NoiseSpec(1e5, 0.01, 3, seed=5).shots(default_config(Scheme.CMCCD))
draws = [[shot.detuning, shot.rabi_error] for shot in shots]
indices = rb._sequence_indices(5, 16, 2).tolist()
openssl_at_draws = "_hashlib" in sys.modules
import hashlib
print(json.dumps({
    "draws": [[x.hex() for x in pair] for pair in draws],
    "indices": indices,
    "openssl_at_draws": openssl_at_draws,
    "openssl": "_hashlib" in sys.modules,
    "algorithms": sorted(hashlib.algorithms_available),
}))
"""


def test_draws_leave_hashlib_as_a_fresh_interpreter_has_it():
    # the OpenSSL block lasts only for the numpy.random import: hashlib
    # imported afterwards is the usual one, and the draws are those of
    # numpy's usual import path (hashlib, and so OpenSSL, loaded first)
    src = Path(__file__).resolve().parents[1] / "src"

    def run(*args):
        result = subprocess.run(
            [sys.executable, "-c", *args],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    fresh = run("import hashlib, json; print(json.dumps(sorted(hashlib.algorithms_available)))")
    blocked = run(DRAW_THEN_HASHLIB_PROBE, "draws-first")
    usual = run(DRAW_THEN_HASHLIB_PROBE, "hashlib-first")
    assert not blocked["openssl_at_draws"] and usual["openssl_at_draws"]
    assert blocked["openssl"]
    assert blocked["algorithms"] == fresh
    assert (blocked["draws"], blocked["indices"]) == (usual["draws"], usual["indices"])


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        dependencies = tomllib.load(handle)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in dependencies] == ["numpy"]


#: arguments that perfbench/tracer.py binds by name to count a call's work; a
#: renamed one drops those counts without an error
TRACED_ARGUMENTS = {
    noise_average: ("experiment",),
    randomized_benchmarking: ("m_list", "k_randomizations", "noise", "ideal"),
    emit_dataset: ("data",),
}


@pytest.mark.parametrize("function", TRACED_ARGUMENTS, ids=lambda function: function.__name__)
def test_traced_argument_names_bind(function):
    parameters = inspect.signature(function).parameters
    assert [name for name in TRACED_ARGUMENTS[function] if name not in parameters] == []


@pytest.mark.parametrize("module", [experiments, pulses, rb], ids=lambda module: module.__name__)
def test_nothing_above_the_propagator_takes_a_step_setting(module):
    # the step rule is a propagator parameter, so every caller above it runs
    # at the propagator's default
    functions = [
        function for _, function in inspect.getmembers(module, inspect.isfunction)
        if function.__module__ == module.__name__
    ]
    assert functions
    assert [f.__name__ for f in functions if "spec" in inspect.signature(f).parameters] == []
    assert not {"IntegratorSpec", "ROTATING_SPEC"} & set(vars(module))

import argparse
import inspect
import json
import math
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ccdsim import cli, experiments, propagator
from ccdsim.cli import build_parser, main
from ccdsim.config import KEY_TYPES, RunConfig, flag, parse_config
from ccdsim.dataset import emit_dataset
from ccdsim.drive import default_config, drive_coefficient, Scheme
from ccdsim.experiments import noise_average
from ccdsim.qubit import NormalizationError
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

    def test_determinism_across_runs_and_threads(self, tmp_path):
        args = [
            "chevron", "--scheme", "pm", "--detuning-span-hz", "2e6",
            "--detuning-points", "3", "--durations", "9",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
        assert main(args + ["--out", str(out2), "--threads", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


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

    def test_normalization_error_is_numerical(self, monkeypatch, capsys):
        def handler(args):
            raise NormalizationError("state norm 1.1 is off by more than 1e-08")

        monkeypatch.setattr(cli, "_cmd_selftest", handler)
        assert main(["selftest"]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["kind"] == "numerical"

    @pytest.mark.parametrize(
        "error, kind",
        [(MemoryError, "memory"), (propagator.IntegratorError, "numerical")],
    )
    def test_error_in_a_pool_block_exits_3(self, tmp_path, monkeypatch, capsys, error, kind):
        threads = []

        def failing_block(*args):
            threads.append(threading.current_thread().name)
            raise error("cannot allocate the step unitaries")

        # several blocks per stepped interval, run on the pool
        monkeypatch.setattr(propagator, "_BLOCK", 4)
        monkeypatch.setattr(propagator, "_WORKERS", 2)
        monkeypatch.setattr(propagator, "_step_unitaries", failing_block)
        out = tmp_path / "t.csv"
        code = main(["trajectory", "--scheme", "am", "--quarter-turns", "2", "--out", str(out)])
        assert code == 3
        assert not out.exists()
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == {"kind": kind, "message": "cannot allocate the step unitaries"}
        assert threads and all(name.startswith("ccdsim-block") for name in threads)

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
            ["rb", "--static-rabi-error-frac", "nan"],
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
            (["--static-rabi-error-frac", "0.05"], "rabi_error_frac = 0.05"),
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

    def test_every_config_flag_sets_its_field(self):
        # a flag's text must give what the same text gives on a config line;
        # ints are spelled "257.0" and the scheme "cmccd", as files may spell them
        defaults = RunConfig()
        texts = {
            "scheme": "cmccd", "dressed_kind": "two_axis", "format": "json",
            "out": "elsewhere.csv", "cliffords": "1,3", "mod_strength_hz": "1e6",
            "alpha_a": "1.0", "alpha_p": "0.0", "detuning_span_hz": "2e6",
            "rabi_error_span_frac": "0.2", "static_detuning_frac": "0.05",
            "static_rabi_error_frac": "-0.02",
        }
        for key, kind in KEY_TYPES.items():
            if key not in texts:
                default = getattr(defaults, key)
                texts[key] = f"{default + 1}.0" if kind is int else repr(default + 1)
        alphas = ("alpha_a", "alpha_p")  # one alone matches no scheme
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        checked = 0
        for command, sub in commands.choices.items():
            if command == "selftest":
                continue
            actions = {a.dest: a for a in sub._actions if a.dest in KEY_TYPES}
            assert set(actions) == set(KEY_TYPES), command
            for key, action in actions.items():
                keys = alphas if key in alphas else (key,)
                expected = parse_config("".join(f"{k} = {texts[k]}\n" for k in keys))
                assert expected != defaults, key
                partner = [f"--{k.replace('_', '-')}={texts[k]}" for k in keys if k != key]
                for option in action.option_strings:
                    args = parser.parse_args([command, f"{option}={texts[key]}", *partner])
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

    def test_program_compile_error_exit_code(self, tmp_path):
        program = tmp_path / "bad.seq"
        program.write_text("idle 1.234e-7\n")  # off the period lattice
        code = main(["dressed", "--scheme", "cm", "--program", str(program),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("directive", ["gate inf 0", "idle inf", "gate nan 0", "gate 1 nan"])
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

    def test_explicit_alphas_name_the_scheme_of_every_subcommand(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("scheme = bare\nalpha_a = 0.5\nalpha_p = 0.5\n")
        explicit, named = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["iq-export", "--config", str(config), "--out", str(explicit)]) == 0
        assert main(["iq-export", "--scheme", "cm", "--out", str(named)]) == 0
        meta, _, rows = read_csv(explicit)
        assert meta["meta.scheme"] == "cm"
        assert np.array_equal(rows, read_csv(named)[2])

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
        assert str(cli.MAX_IQ_SAMPLES) in record["error"]["message"]

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

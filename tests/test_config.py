import math

import pytest

from ccdsim.config import KEY_TYPES, ConfigError, RunConfig, emit_config, flag, parse_config
from ccdsim.drive import Scheme


class TestParse:
    def test_minimal_reference_config(self):
        cfg = parse_config("scheme = cm\nrabi_hz = 3.6e6\nmod_ratio = 0.25\n")
        assert cfg.scheme == "cm"
        drive = cfg.drive_config()
        assert drive.rabi == pytest.approx(2 * math.pi * 3.6e6)
        assert drive.mod_strength == pytest.approx(drive.rabi / 4.0)
        assert (drive.alpha_A, drive.alpha_P) == (0.5, 0.5)

    def test_empty_file_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()
        assert cfg.scheme == "cm"
        assert cfg.rabi_hz == 3.6e6

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nrabi_hz = 2.2e6  # inline\n")
        assert cfg.rabi_hz == 2.2e6

    @pytest.mark.parametrize("name", ["bare", "am", "amccd", "pm", "pmccd", "cm", "cmccd"])
    def test_scheme_alone_sets_the_modulation_ratios(self, name):
        drive = RunConfig(scheme=name).drive_config()
        assert (drive.alpha_A, drive.alpha_P) == Scheme.parse(name).value
        assert parse_config(f"scheme = {name}\n").drive_config() == drive

    def test_unknown_scheme_reports_its_line(self):
        with pytest.raises(ConfigError, match="^line 2: unknown scheme 'xm'") as excinfo:
            parse_config("rabi_hz = 1e6\nscheme = xm\n")
        assert excinfo.value.key == "scheme"
        with pytest.raises(ConfigError, match="^unknown scheme 'xm'"):
            RunConfig(scheme="xm")

    @pytest.mark.parametrize("key", ["alpha_a", "alpha_p"])
    def test_modulation_ratio_is_an_unknown_key(self, key):
        # the scheme is the one key for the ratios; older datasets' config
        # blocks hold these lines, and run again once they are deleted
        with pytest.raises(ConfigError, match=f"unknown key '{key}'") as excinfo:
            parse_config(f"scheme = cm\n{key} = 0.5\n")
        assert (excinfo.value.line, excinfo.value.column) == (2, 1)
        assert key not in KEY_TYPES

    def test_unknown_key_reports_position(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("rabi_hz = 1e6\nbananas = 3\n")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 1
        assert "bananas" in str(excinfo.value)

    def test_static_rabi_error_frac_is_an_unknown_key(self):
        # the static Rabi error has one spelling, rabi_error_frac, already a fraction of Omega_0
        with pytest.raises(ConfigError, match="unknown key 'static_rabi_error_frac'") as excinfo:
            parse_config("static_rabi_error_frac = 0.02\n")
        assert excinfo.value.line == 1
        assert "static_rabi_error_frac" not in KEY_TYPES

    def test_malformed_line_reports_line(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("rabi_hz 1e6\n")
        assert excinfo.value.line == 1

    def test_bad_number_reports_line(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("rabi_hz = fast\n")
        assert excinfo.value.line == 1

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("duration_points", 0, "duration_points must be >= 1"),
            ("noise_samples", 0, "noise_samples must be >= 1"),
            ("format", "xml", "format must be csv or json"),
            ("threads", -3, "threads must be >= 0"),
            ("cliffords", (4, 2), "cliffords must be positive, ascending"),
            ("mod_ratio", -0.25, "mod_ratio must be >= 0"),
            ("rabi_hz", -1.0, "rabi_hz must be positive"),
            ("quarter_turns", 0, "quarter_turns must be >= 1"),
            ("samples_per_quarter_turn", 0, "samples_per_quarter_turn must be >= 1"),
            ("noise_samples", 10**6 + 1, "noise_samples must be at most 1000000"),
        ],
    )
    def test_direct_construction_validates_every_key(self, key, value, match):
        # a RunConfig built in code is checked as one parsed from text, and a
        # parsed one still names the line that gave the value
        with pytest.raises(ConfigError, match=match) as direct:
            RunConfig(**{key: value})
        assert direct.value.line is None
        text = ",".join(map(str, value)) if isinstance(value, tuple) else value
        with pytest.raises(ConfigError, match=f"^line 2: {match}") as parsed:
            parse_config(f"scheme = cm\n{key} = {text}\n")
        assert parsed.value.line == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rabi_hz", math.nan),
            ("mw_phase", math.inf),
            ("duration_stop_s", math.nan),
            ("gate_angle", math.nan),
            ("sample_rate_hz", math.nan),
        ],
    )
    def test_direct_construction_refuses_non_finite_values(self, key, value):
        # parsing refuses these before construction, with the line and column
        with pytest.raises(ConfigError, match=f"^{key} must be finite") as info:
            RunConfig(**{key: value})
        assert info.value.key == key

    def test_mod_strength_alternative_key(self):
        cfg = parse_config("rabi_hz = 4e6\nmod_strength_hz = 1e6\n")
        assert cfg.mod_ratio == pytest.approx(0.25)
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config("mod_ratio = 0.25\nmod_strength_hz = 1e6\n")

    @pytest.mark.parametrize(
        "derived, resolved",
        [
            ("detuning_span_hz = 2e6", "detuning_start_hz = -1e6\ndetuning_stop_hz = 1e6"),
            ("rabi_error_span_frac = 0.4",
             "rabi_error_start_frac = -0.2\nrabi_error_stop_frac = 0.2"),
            ("static_detuning_frac = 0.05", "detuning_hz = 110000.0"),
        ],
        ids=["detuning_span", "rabi_error_span", "static_detuning"],
    )
    def test_derived_spellings_resolve_into_their_keys(self, derived, resolved):
        cfg = parse_config(f"rabi_hz = 2.2e6\n{derived}\n")
        assert cfg == parse_config(f"rabi_hz = 2.2e6\n{resolved}\n")
        assert derived.split()[0] not in emit_config(cfg)

    @pytest.mark.parametrize(
        "text",
        [
            "detuning_start_hz = -1e6\ndetuning_span_hz = 2e6\n",
            "rabi_error_stop_frac = 0.1\nrabi_error_span_frac = 0.4\n",
            "detuning_hz = 1e4\nstatic_detuning_frac = 0.05\n",
        ],
        ids=lambda text: text.split()[3],
    )
    def test_derived_spelling_with_its_key_rejected(self, text):
        target, derived = (line.split()[0] for line in text.splitlines())
        with pytest.raises(ConfigError, match="mutually exclusive") as excinfo:
            parse_config(text)
        assert derived in str(excinfo.value) and target in str(excinfo.value)
        assert excinfo.value.line == 2

    def test_derived_overflow_named_by_its_own_key(self):
        with pytest.raises(ConfigError, match="^line 1: static_detuning_frac = 1e"):
            parse_config("static_detuning_frac = 1e303\n")

    def test_mod_strength_with_zero_rabi_rejected(self):
        with pytest.raises(ConfigError, match="rabi_hz must be positive"):
            parse_config("rabi_hz = 0\nmod_strength_hz = 1e6\n")

    def test_cliffords_list(self):
        cfg = parse_config("cliffords = 1,2,4,8\n")
        assert cfg.cliffords == (1, 2, 4, 8)
        with pytest.raises(ConfigError, match="ascending"):
            parse_config("cliffords = 4,2\n")

    def test_integer_keys_reject_fractions(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("seed = 1.5\n")

    def test_integer_keys_refuse_infinity(self):
        with pytest.raises(ConfigError, match="seed") as excinfo:
            parse_config("scheme = cm\nseed = inf\n")
        assert excinfo.value.line == 2

    def test_integer_keys_parse_exactly_past_2_53(self):
        assert parse_config("seed = 9007199254740993\n").seed == 2**53 + 1
        assert parse_config("seed = 1e3\n").seed == 1000

    @pytest.mark.parametrize("value", ["-1", "18446744073709551616", "18446744073709551617"])
    def test_seed_outside_64_bits_names_its_key_and_line(self, value):
        # a larger seed would key the same draws as seed mod 2^64
        with pytest.raises(ConfigError, match=r"^line 2: seed must lie in \[0, 2\^64\)") as info:
            parse_config(f"scheme = cm\nseed = {value}\n")
        assert (info.value.key, info.value.line) == ("seed", 2)

    def test_seed_range_ends_are_accepted(self):
        assert parse_config("seed = 0\n").seed == 0
        assert parse_config("seed = 18446744073709551615\n").seed == 2**64 - 1

    def test_validation_of_counts(self):
        with pytest.raises(ConfigError, match="duration_points"):
            parse_config("duration_points = 0\n")

    @pytest.mark.parametrize(
        "text, key, line",
        [
            ("noise_detuning_sigma_hz = 1e3\nnoise_rabi_sigma_frac = -0.1\n",
             "noise_rabi_sigma_frac", 2),
            ("noise_rabi_sigma_frac = -0.1\n", "noise_rabi_sigma_frac", 1),
            ("seed = 4\nnoise_detuning_sigma_hz = -1e3\n", "noise_detuning_sigma_hz", 2),
        ],
        ids=["rabi-after-detuning", "rabi-alone", "detuning"],
    )
    def test_negative_noise_sigma_names_its_key_and_line(self, text, key, line):
        with pytest.raises(ConfigError, match=f"^line {line}: {key} must be >= 0") as info:
            parse_config(text)
        assert info.value.line == line

    def test_overrides_win_over_file(self):
        cfg = parse_config("rabi_hz = 1e6\n", overrides={"rabi_hz": 2e6, "seed": None})
        assert cfg.rabi_hz == 2e6
        assert cfg.seed == 0

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_floats_rejected_with_line(self, text):
        with pytest.raises(ConfigError) as info:
            parse_config(f"scheme = cm\nrabi_hz = {text}\n")
        assert info.value.line == 2
        assert "finite" in str(info.value)

    def test_text_overrides_parse_as_file_values(self):
        cfg = parse_config(
            "", overrides={"seed": "3.0", "cliffords": "1,4", "scheme": "cmccd", "rabi_hz": "2e6"}
        )
        assert cfg == parse_config("seed = 3\ncliffords = 1,4\nscheme = cmccd\nrabi_hz = 2e6\n")
        with pytest.raises(ConfigError, match="duration_points"):
            parse_config("", overrides={"duration_points": "4.5"})

    def test_override_errors_name_the_flag(self):
        with pytest.raises(ConfigError, match="--rabi-hz") as excinfo:
            parse_config("", overrides={"rabi_hz": "abc"})
        assert "rabi_hz" in str(excinfo.value)
        with pytest.raises(ConfigError, match="--static-detuning-frac .* must be finite"):
            parse_config("", overrides={"static_detuning_frac": "inf"})

    @pytest.mark.parametrize(
        "key, value", [("duration_points", 4.5), ("seed", 2.5)], ids=["duration_points", "seed"]
    )
    def test_typed_override_is_type_checked(self, key, value):
        with pytest.raises(ConfigError, match=f"^bad value for {flag(key)} \\({key}\\)"):
            parse_config("", overrides={key: value})

    def test_non_finite_override_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("", overrides={"mod_ratio": float("nan")})

    def test_bad_scheme_named(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            parse_config("scheme = xyz\n")

    def test_format_validation(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config("format = yaml\n")


class TestRoundTrip:
    def test_emit_parse_fixed_point(self):
        texts = [
            "",
            "scheme = am\nrabi_hz = 2.2e6\nmod_ratio = 0.125\nseed = 9\n",
            "scheme = bare\ndetuning_hz = -1.25e5\nthreads = 3\ncliffords = 1,3,9\n",
            "mw_phase = 0.7853981633974483\nnoise_rabi_sigma_frac = 0.015\n",
        ]
        for text in texts:
            once = parse_config(text)
            twice = parse_config(emit_config(once))
            assert once == twice

    def test_emitted_floats_are_shortest_round_trip(self):
        cfg = parse_config("mw_phase = 0.1\n")
        assert "mw_phase = 0.1\n" in emit_config(cfg)

    def test_noise_spec_conversion(self):
        cfg = parse_config(
            "noise_detuning_sigma_hz = 1e5\nnoise_rabi_sigma_frac = 0.02\n"
            "noise_samples = 7\nseed = 3\n"
        )
        spec = cfg.noise_spec()
        assert spec.sigma_detuning == pytest.approx(2 * math.pi * 1e5)
        assert spec.sigma_rabi_frac == 0.02
        assert spec.samples == 7
        assert spec.seed == 3

    def test_drive_config_conversion_units(self):
        cfg = parse_config(
            "scheme = pm\nrabi_hz = 3.3e6\ndetuning_hz = 2e5\nrabi_error_frac = 0.1\n"
        )
        drive = cfg.drive_config()
        assert (drive.alpha_A, drive.alpha_P) == Scheme.PMCCD.value
        assert drive.detuning == pytest.approx(2 * math.pi * 2e5, rel=1e-9)
        assert drive.rabi_error == pytest.approx(0.1 * drive.rabi)

import math

import pytest

from ccdsim.config import ConfigError, RunConfig, emit_config, parse_config
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

    def test_alpha_constraint_violation_reports_keys(self):
        with pytest.raises(ConfigError, match="alpha_a \\+ alpha_p"):
            parse_config("alpha_a = 0.7\nalpha_p = 0.7\n")

    def test_unknown_key_reports_position(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("rabi_hz = 1e6\nbananas = 3\n")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 1
        assert "bananas" in str(excinfo.value)

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

    def test_scheme_sets_alphas(self):
        cfg = parse_config("scheme = am\n")
        assert (cfg.alpha_a, cfg.alpha_p) == (1.0, 0.0)
        cfg = parse_config("scheme = bare\n")
        assert (cfg.alpha_a, cfg.alpha_p) == (0.0, 0.0)

    def test_explicit_alphas_override_scheme(self):
        cfg = parse_config("scheme = cm\nalpha_a = 1.0\nalpha_p = 0.0\n")
        assert (cfg.alpha_a, cfg.alpha_p) == (1.0, 0.0)

    def test_explicit_alphas_set_the_scheme(self):
        # every subcommand reads the scheme, so it must name the alphas that win
        cfg = parse_config("scheme = bare\nalpha_a = 0.5\nalpha_p = 0.5\n")
        assert (cfg.scheme, cfg.scheme_enum()) == ("cm", Scheme.CMCCD)
        assert cfg.drive_config().scheme is Scheme.CMCCD
        cfg = parse_config("scheme = cmccd\nalpha_a = 0.5\nalpha_p = 0.5\n")
        assert cfg.scheme == "cmccd"
        assert parse_config(emit_config(cfg)) == cfg

    def test_alphas_matching_no_scheme_rejected(self):
        with pytest.raises(ConfigError, match="matches no scheme") as excinfo:
            parse_config("scheme = cm\nalpha_a = 0.3\nalpha_p = 0.7\n")
        assert excinfo.value.line == 2

    def test_mod_strength_alternative_key(self):
        cfg = parse_config("rabi_hz = 4e6\nmod_strength_hz = 1e6\n")
        assert cfg.mod_ratio == pytest.approx(0.25)
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config("mod_ratio = 0.25\nmod_strength_hz = 1e6\n")

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

    def test_validation_of_counts(self):
        with pytest.raises(ConfigError, match="duration_points"):
            parse_config("duration_points = 0\n")

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
        assert drive.scheme is Scheme.PMCCD
        assert drive.detuning == pytest.approx(2 * math.pi * 2e5, rel=1e-9)
        assert drive.rabi_error == pytest.approx(0.1 * drive.rabi)

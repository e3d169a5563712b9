"""Run configuration: flat key = value text format, validation, round-trip.

Frequencies are configured in Hz (``*_hz`` keys) and converted to angular
frequencies internally; angles are radians, durations seconds. Unknown keys
and malformed values are rejected with line/column positions. CLI flags
override file values, which override the documented defaults.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .drive import DriveConfig, Scheme
from .experiments import NoiseSpec

__all__ = ["ConfigError", "KEY_TYPES", "RunConfig", "parse_config", "emit_config"]

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Configuration parse or constraint failure with source position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", col {column}"
            where += ": "
        super().__init__(where + message)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; serializable and losslessly re-parsable."""

    # drive
    scheme: str = "cm"
    rabi_hz: float = 3.6e6
    detuning_hz: float = 0.0
    carrier_hz: float = 15e9
    rabi_error_frac: float = 0.0
    mod_ratio: float = 0.25
    mod_phase: float = math.pi / 2.0
    mw_phase: float = 0.0
    alpha_a: float = 0.5
    alpha_p: float = 0.5
    # duration axis (stop 0 = automatic, see duration_grid)
    duration_start_s: float = 0.0
    duration_stop_s: float = 0.0
    duration_points: int = 256
    # detuning axis
    detuning_start_hz: float = -4e6
    detuning_stop_hz: float = 4e6
    detuning_points: int = 41
    # Rabi-error axis (fractions of Omega_0)
    rabi_error_start_frac: float = -0.3
    rabi_error_stop_frac: float = 0.3
    rabi_error_points: int = 41
    # trajectory
    quarter_turns: int = 40
    samples_per_quarter_turn: int = 16
    # dressed sequences
    dressed_kind: str = "ccd_rabi"
    sweep_points: int = 64
    # randomized benchmarking
    cliffords: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
    k_randomizations: int = 15
    # quasi-static noise
    noise_detuning_sigma_hz: float = 0.0
    noise_rabi_sigma_frac: float = 0.0
    noise_samples: int = 1
    # waveform export
    gate_angle: float = math.pi
    sample_rate_hz: float = 1e9
    # run control
    seed: int = 0
    threads: int = 0  # accepted and validated (>= 0); selects nothing
    out: str = ""
    format: str = "csv"

    def drive_config(self) -> DriveConfig:
        rabi = TWO_PI * self.rabi_hz
        return DriveConfig(
            omega_L=TWO_PI * (self.carrier_hz + self.detuning_hz),
            omega_mw=TWO_PI * self.carrier_hz,
            rabi=rabi,
            rabi_error=self.rabi_error_frac * rabi,
            mod_strength=self.mod_ratio * rabi,
            mod_phase=self.mod_phase,
            mw_phase=self.mw_phase,
            alpha_A=self.alpha_a,
            alpha_P=self.alpha_p,
        )

    def scheme_enum(self) -> Scheme:
        return Scheme.parse(self.scheme)

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(
            sigma_detuning=TWO_PI * self.noise_detuning_sigma_hz,
            sigma_rabi_frac=self.noise_rabi_sigma_frac,
            samples=self.noise_samples,
            seed=self.seed,
        )


#: every config key and the type of its value, read from the field defaults;
#: mod_strength_hz is accepted in files and flags and resolved into mod_ratio
KEY_TYPES = {f.name: type(f.default) for f in fields(RunConfig)} | {"mod_strength_hz": float}


def _parse_value(key: str, text: str, line: int | None = None, column: int | None = None):
    kind = KEY_TYPES[key]
    try:
        if kind is str:
            return text
        if kind is tuple:
            return tuple(int(part) for part in text.split(",") if part.strip())
        if kind is int:
            try:
                return int(text)  # exact past 2^53, where floats skip integers
            except ValueError:
                value = float(text)  # "257.0" and "1e3" name integers too
            if value != int(value):
                raise ValueError("expected an integer")
            return int(value)
        return float(text)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key}: {text!r} ({exc})", line, column) from exc


def _validate(cfg: RunConfig, lines: dict[str, int]) -> RunConfig:
    def fail(key: str, message: str):
        raise ConfigError(message, lines.get(key))

    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            fail(f.name, f"{f.name} must be finite, got {value!r}")

    try:
        matched = Scheme.of(cfg.alpha_a, cfg.alpha_p)
    except ValueError:
        fail(
            "alpha_a",
            f"alpha_a + alpha_p = {cfg.alpha_a} + {cfg.alpha_p} matches no scheme "
            "(bare 0 + 0, am 1 + 0, pm 0 + 1, cm 0.5 + 0.5)",
        )
    if cfg.rabi_hz <= 0.0:
        fail("rabi_hz", "rabi_hz must be positive")
    if cfg.mod_ratio < 0.0:
        fail("mod_ratio", "mod_ratio must be >= 0")
    for key in ("duration_points", "detuning_points", "rabi_error_points",
                "sweep_points", "k_randomizations", "noise_samples"):
        if getattr(cfg, key) < 1:
            fail(key, f"{key} must be >= 1")
    if cfg.threads < 0:
        fail("threads", "threads must be >= 0")
    if cfg.format not in ("csv", "json"):
        fail("format", f"format must be csv or json, got {cfg.format!r}")
    if cfg.dressed_kind not in ("ccd_rabi", "ccd_ramsey", "two_axis"):
        fail("dressed_kind", f"unknown dressed_kind {cfg.dressed_kind!r}")
    if any(m <= 0 for m in cfg.cliffords) or list(cfg.cliffords) != sorted(set(cfg.cliffords)):
        fail("cliffords", "cliffords must be positive, ascending, without repeats")
    if cfg.noise_detuning_sigma_hz < 0 or cfg.noise_rabi_sigma_frac < 0:
        fail("noise_detuning_sigma_hz", "noise sigmas must be >= 0")
    if cfg.sample_rate_hz <= 0:
        fail("sample_rate_hz", "sample_rate_hz must be positive")
    if matched is not Scheme.parse(cfg.scheme):
        # explicit alphas win, so the scheme every subcommand reads must be theirs
        cfg = replace(cfg, scheme=matched.label)
    return cfg


def parse_config(text: str, *, overrides: dict | None = None) -> RunConfig:
    """Parse ``key = value`` lines (``#`` comments) into a validated RunConfig.

    ``overrides`` (e.g. from CLI flags) are applied after the file contents;
    an override given as text is parsed as a file value would be. An empty
    document yields the documented defaults.
    """
    raw: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", lineno, 1)
        key, _, value = stripped.partition("=")
        key = key.strip()
        column = raw_line.find(key) + 1
        if key not in KEY_TYPES:
            raise ConfigError(f"unknown key {key!r}", lineno, column)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", lineno, column)
        raw[key] = _parse_value(key, value.strip(), lineno, column)
        lines[key] = lineno

    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in KEY_TYPES:
                raise ConfigError(f"unknown key {key!r}")
            raw[key] = _parse_value(key, value) if isinstance(value, str) else value
            lines.pop(key, None)

    explicit_alphas = "alpha_a" in raw or "alpha_p" in raw
    scheme_text = str(raw.get("scheme", RunConfig.scheme))
    try:
        scheme = Scheme.parse(scheme_text)
    except ValueError as exc:
        raise ConfigError(str(exc), lines.get("scheme")) from exc

    if "mod_strength_hz" in raw:
        if "mod_ratio" in raw:
            raise ConfigError(
                "mod_ratio and mod_strength_hz are mutually exclusive",
                lines.get("mod_strength_hz"),
            )
        rabi_hz = float(raw.get("rabi_hz", RunConfig.rabi_hz))
        raw["mod_ratio"] = float(raw.pop("mod_strength_hz")) / rabi_hz

    if not explicit_alphas:
        raw["alpha_a"] = scheme.alpha_a
        raw["alpha_p"] = scheme.alpha_p
    cfg = RunConfig(**raw)
    return _validate(cfg, lines)


#: execution details that do not affect computed values; excluded from the
#: config text embedded in datasets so outputs do not depend on them
_RUNTIME_KEYS = {"threads", "out"}


def emit_config(cfg: RunConfig, *, include_runtime: bool = True) -> str:
    """Canonical text form; parse(emit(parse(t))) == parse(t)."""
    parts = []
    for f in fields(RunConfig):
        if not include_runtime and f.name in _RUNTIME_KEYS:
            continue
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        else:
            rendered = repr(value) if isinstance(value, float) else str(value)
        parts.append(f"{f.name} = {rendered}")
    return "\n".join(parts) + "\n"


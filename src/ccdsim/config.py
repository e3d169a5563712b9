"""Run configuration: flat key = value text format, validation, round-trip.

Frequencies are configured in Hz (``*_hz`` keys) and converted to angular
frequencies internally; angles are radians, durations seconds. Unknown keys
and malformed or non-finite values are rejected with line/column positions,
or by the flag that gave them. CLI flags override file values, which override
the documented defaults; then each derived spelling (``DERIVED``) is resolved
into the keys it sets, and is refused if any of them is given too. The
``scheme`` key (bare, am, pm or cm) is the one key for the modulation ratios:
``drive_config`` takes (alpha_A, alpha_P) from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .drive import DriveConfig, Scheme
from .errors import ConfigError
from .experiments import NoiseSpec

__all__ = ["KEY_TYPES", "RunConfig", "flag", "parse_config", "emit_config"]

TWO_PI = 2.0 * math.pi


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

    def __post_init__(self) -> None:
        _validate(self)

    def drive_config(self) -> DriveConfig:
        rabi = TWO_PI * self.rabi_hz
        alpha_a, alpha_p = Scheme.parse(self.scheme).value
        return DriveConfig(
            omega_mw=TWO_PI * self.carrier_hz,
            rabi=rabi,
            detuning=TWO_PI * self.detuning_hz,
            rabi_error=self.rabi_error_frac * rabi,
            mod_strength=self.mod_ratio * rabi,
            mod_phase=self.mod_phase,
            mw_phase=self.mw_phase,
            alpha_A=alpha_a,
            alpha_P=alpha_p,
        )

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(
            sigma_detuning=TWO_PI * self.noise_detuning_sigma_hz,
            sigma_rabi_frac=self.noise_rabi_sigma_frac,
            samples=self.noise_samples,
            seed=self.seed,
        )


def _span(v: float, _rabi_hz: float) -> tuple[float, float]:
    return -v / 2.0, v / 2.0


#: derived spellings: the keys each one sets, as a function of its value v and rabi_hz;
#: they are never emitted
DERIVED = {
    "mod_strength_hz": (("mod_ratio",), lambda v, rabi_hz: (v / rabi_hz,)),
    "detuning_span_hz": (("detuning_start_hz", "detuning_stop_hz"), _span),
    "rabi_error_span_frac": (("rabi_error_start_frac", "rabi_error_stop_frac"), _span),
    "static_detuning_frac": (("detuning_hz",), lambda v, rabi_hz: (v * rabi_hz,)),
}

#: every key a file line or a flag may set and the type of its value: the
#: fields' defaults give theirs, and every derived spelling takes a float
KEY_TYPES = {f.name: type(f.default) for f in fields(RunConfig)} | dict.fromkeys(DERIVED, float)


def flag(key: str) -> str:
    """The ``--key-with-dashes`` flag that sets ``key``."""
    return "--" + key.replace("_", "-")


def _parse_value(key: str, text: str, name: str, line: int | None = None,
                 column: int | None = None):
    """The value ``text`` gives ``key``; errors call the key ``name``."""
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
                raise ConfigError("expected an integer")
            return int(value)
        value = float(text)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {name}: {text!r} ({exc})", line, column) from exc
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {text!r}", line, column)
    return value


def _validate(cfg: RunConfig) -> None:
    """Refuse a value out of its key's range, naming the key."""

    def fail(key: str, message: str):
        raise ConfigError(message, key=key)

    for f in fields(cfg):
        if KEY_TYPES[f.name] is float and not math.isfinite(getattr(cfg, f.name)):
            fail(f.name, f"{f.name} must be finite, got {getattr(cfg, f.name)!r}")
    # each check is written so that NaN fails it
    for key in ("rabi_hz", "sample_rate_hz", "gate_angle"):
        if not getattr(cfg, key) > 0.0:
            fail(key, f"{key} must be positive")
    if not cfg.mod_ratio >= 0.0:
        fail("mod_ratio", "mod_ratio must be >= 0")
    for key in ("duration_points", "detuning_points", "rabi_error_points", "quarter_turns",
                "samples_per_quarter_turn", "sweep_points", "k_randomizations", "noise_samples"):
        if not getattr(cfg, key) >= 1:
            fail(key, f"{key} must be >= 1")
    if not cfg.threads >= 0:
        fail("threads", "threads must be >= 0")
    if not 0 <= cfg.seed < 2**64:  # the random generators take a 64-bit key
        fail("seed", f"seed must lie in [0, 2^64), got {cfg.seed}")
    try:
        Scheme.parse(cfg.scheme)
    except ConfigError as exc:
        raise ConfigError(exc.message, key="scheme") from None
    if cfg.format not in ("csv", "json"):
        fail("format", f"format must be csv or json, got {cfg.format!r}")
    if cfg.dressed_kind not in ("ccd_rabi", "ccd_ramsey", "two_axis"):
        fail("dressed_kind", f"unknown dressed_kind {cfg.dressed_kind!r}")
    if any(m <= 0 for m in cfg.cliffords) or list(cfg.cliffords) != sorted(set(cfg.cliffords)):
        fail("cliffords", "cliffords must be positive, ascending, without repeats")
    for key in ("noise_detuning_sigma_hz", "noise_rabi_sigma_frac"):
        if not getattr(cfg, key) >= 0:
            fail(key, f"{key} must be >= 0")


def parse_config(text: str, *, overrides: dict | None = None) -> RunConfig:
    """Parse ``key = value`` lines (``#`` comments) into a validated RunConfig.

    ``overrides`` (e.g. from CLI flags) are applied after the file contents;
    each override, typed or text, is parsed from its ``str`` as a file value
    would be, and an error names it by its flag as well as its key. Derived
    spellings are then resolved. An empty document yields the documented
    defaults.
    """
    raw: dict[str, object] = {}
    lines: dict[str, int] = {}
    flagged: set[str] = set()

    def name(key: str) -> str:
        return f"{flag(key)} ({key})" if key in flagged else key

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
        raw[key] = _parse_value(key, value.strip(), key, lineno, column)
        lines[key] = lineno

    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in KEY_TYPES:
                raise ConfigError(f"unknown key {key!r}")
            flagged.add(key)
            raw[key] = _parse_value(key, str(value), name(key))
            lines.pop(key, None)

    rabi_hz = float(raw.get("rabi_hz", RunConfig.rabi_hz))
    if not rabi_hz > 0.0:
        raise ConfigError("rabi_hz must be positive", lines.get("rabi_hz"))
    for key, (targets, derive) in DERIVED.items():
        if key not in raw:
            continue
        for target in targets:
            if target in raw:
                raise ConfigError(
                    f"{name(key)} and {name(target)} are mutually exclusive",
                    lines.get(key, lines.get(target)),
                )
        value = float(raw.pop(key))
        resolved = derive(value, rabi_hz)
        if not all(map(math.isfinite, resolved)):
            raise ConfigError(
                f"{name(key)} = {value!r} gives a non-finite {' or '.join(targets)}",
                lines.get(key),
            )
        raw.update(zip(targets, resolved))

    try:
        return RunConfig(**raw)
    except ConfigError as exc:
        if exc.key not in lines:
            raise
        raise ConfigError(exc.message, lines[exc.key], key=exc.key) from None


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


"""Command-line interface: sweeps, presets, benchmarking, export, selftest.

Every data subcommand takes ``--config FILE`` and every key of
``config.KEY_TYPES``, derived spellings included, as a flag spelled
``--key-with-dashes``; ``--durations``, ``--kind``, ``--points`` and ``--k``
are short spellings of duration_points, dressed_kind, sweep_points and
k_randomizations. A flag value is text that ``parse_config`` parses as it
parses a file value, so this module parses no number itself, and a
subcommand ignores the keys it does not read. Besides the keys there are
only ``--axis`` (spectrum, infidelity), ``--program`` (dressed) and
``--ideal`` (rb).

Exit codes: 0 success, 2 configuration or usage error, 3 numerical failure
or out of memory, 4 I/O error. Failures print a machine-readable JSON error
record to stderr. The stepped engine spreads long intervals over up to 4
threads, one per usable CPU, with the same bytes for any count; ``--threads``
and the ``threads`` key are accepted and validated (exit 2 on a negative
count), but select nothing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import clifford as clifford_mod
from .config import KEY_TYPES, ConfigError, RunConfig, emit_config, flag, parse_config
from .dataset import Dataset, write_dataset
from .drive import (
    DriveConfig,
    Scheme,
    counter_rotating_coefficient,
    drive_coefficient,
    default_config,
    first_frame_hamiltonian,
    gate_frame,
    iq_baseband,
    second_frame_hamiltonian,
    to_second_frame,
)
from .experiments import (
    AxisDef,
    bloch_trajectory,
    chevron_sweep,
    dressed_sequence_experiment,
    lattice_times,
    noise_average,
    rabi_error_sweep,
    spectrum,
)
from .propagator import IntegratorError, IntegratorSpec, evolve
from .pulses import readout_pad, require_gate_lattice
from .qubit import NormalizationError, QubitState, state_fidelity
from .rb import randomized_benchmarking

__all__ = ["main"]

TWO_PI = 2.0 * math.pi

#: short spellings of config-key flags, besides their ``--key-with-dashes``
_SHORT_FLAGS = {
    "duration_points": "--durations",
    "dressed_kind": "--kind",
    "sweep_points": "--points",
    "k_randomizations": "--k",
}
#: most samples ``iq-export`` writes; a larger request is refused up front
MAX_IQ_SAMPLES = 10**7


def _load_config(args: argparse.Namespace) -> RunConfig:
    text = ""
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    return parse_config(text, overrides={key: getattr(args, key) for key in KEY_TYPES})


def _duration_grid(cfg: RunConfig) -> np.ndarray:
    """Explicit grid if configured, else the modulation-period lattice (CCD)
    or eight samples per Rabi period (bare)."""
    if cfg.duration_stop_s > 0.0:
        return np.linspace(cfg.duration_start_s, cfg.duration_stop_s, cfg.duration_points)
    drive = cfg.drive_config()
    step = drive.mod_period if drive.dressed else 1.0 / (8.0 * cfg.rabi_hz)
    return cfg.duration_start_s + np.arange(cfg.duration_points) * step


def _error_grid(cfg: RunConfig, axis: str) -> np.ndarray:
    """The detuning axis (``axis == "detuning"``) or the Rabi-error axis, rad/s."""
    if axis == "detuning":
        hz = np.linspace(cfg.detuning_start_hz, cfg.detuning_stop_hz, cfg.detuning_points)
        return TWO_PI * hz
    rabi = TWO_PI * cfg.rabi_hz
    return rabi * np.linspace(
        cfg.rabi_error_start_frac, cfg.rabi_error_stop_frac, cfg.rabi_error_points
    )


def _write(cfg: RunConfig, axes, value_names, values, **meta) -> int:
    """Write the run's dataset: scheme, seed, ``meta`` and the canonical config.

    A ``warnings`` list is joined with "; " and left out when empty.
    """
    if not cfg.out:
        raise ConfigError("no output path; pass --out or set out in the config")
    meta = {"scheme": cfg.scheme, "seed": cfg.seed, **meta}
    warnings = "; ".join(meta.pop("warnings", ()))
    if warnings:
        meta["warnings"] = warnings
    data = Dataset(
        meta=meta,
        axes=axes,
        value_names=value_names,
        values=values,
        config_text=emit_config(cfg, include_runtime=False),
    )
    write_dataset(data, cfg.out, cfg.format)
    print(f"wrote {cfg.out}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """chevron, rabi-error and spectrum: P_up over an error axis and duration,
    or (spectrum) its Fourier magnitude along duration."""
    cfg = _load_config(args)
    sweep = chevron_sweep if args.axis == "detuning" else rabi_error_sweep
    grid = sweep(
        cfg.scheme_enum(), cfg.drive_config(), _error_grid(cfg, args.axis), _duration_grid(cfg)
    )
    name = "p_up"
    if args.command == "spectrum":
        grid, name = spectrum(grid), "magnitude"
    return _write(
        cfg, (grid.y_axis, grid.x_axis), (name,), grid.values[..., None],
        warnings=grid.meta["warnings"],
    )


def _cmd_infidelity(args: argparse.Namespace) -> int:
    from .experiments import infidelity_curve

    cfg = _load_config(args)
    grid = _error_grid(cfg, args.axis)
    curve = infidelity_curve(cfg.scheme_enum(), cfg.drive_config(), args.axis, grid)
    errors = np.array([point[0] for point in curve])
    infids = np.array([[point[1]] for point in curve])
    axis_name = "detuning" if args.axis == "detuning" else "rabi_error"
    return _write(cfg, (AxisDef(axis_name, "rad/s", errors),), ("infidelity",), infids)


def _cmd_trajectory(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    record = bloch_trajectory(
        cfg.scheme_enum(),
        cfg.drive_config(),
        cfg.quarter_turns * math.pi / 2.0,
        cfg.samples_per_quarter_turn,
    )
    times = np.array([t for t, _ in record.samples])
    spq = cfg.samples_per_quarter_turn
    rows = np.array(
        [
            [b.x, b.y, b.z, 1.0 if idx > 0 and idx % spq == 0 else 0.0]
            for idx, (_t, b) in enumerate(record.samples)
        ]
    )
    return _write(
        cfg, (AxisDef("t", "s", times),), ("x", "y", "z", "is_marker"), rows,
        spread=record.spread, markers=len(record.markers),
    )


def _cmd_dressed(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    drive = cfg.drive_config()
    require_gate_lattice(drive)
    if getattr(args, "program", None):
        return _run_program_file(args, cfg, drive)
    if cfg.dressed_kind == "two_axis":
        sweep = np.linspace(0.0, 2.0 * TWO_PI, cfg.sweep_points)
        axis = AxisDef("mw_phase", "rad", sweep)
    else:
        sweep = lattice_times(drive, cfg.sweep_points)
        axis = AxisDef("t_c", "s", sweep)

    def run(shot: DriveConfig) -> np.ndarray:
        return np.array([p for _, p in dressed_sequence_experiment(cfg.dressed_kind, shot, sweep)])

    values = noise_average(run, cfg.noise_spec(), drive)
    return _write(cfg, (axis,), ("p_up",), values[:, None], kind=cfg.dressed_kind)


def _run_program_file(args: argparse.Namespace, cfg: RunConfig, drive: DriveConfig) -> int:
    """Simulate a user-supplied segment-directive file and report the readout."""
    from .pulses import parse_program, simulate_program
    from .qubit import bloch_vector

    with open(args.program, "r", encoding="utf-8") as handle:
        program = parse_program(handle.read(), drive)
    final = simulate_program([program])[0]
    vec = bloch_vector(final)
    return _write(
        cfg,
        (AxisDef("t", "s", np.array([program.total_duration])),),
        ("p_up", "x", "y", "z"),
        np.array([[final.population_up(), vec.x, vec.y, vec.z]]),
        program=os.path.basename(args.program),
        segments=len(program.segments),
    )


def _cmd_rb(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = randomized_benchmarking(
        cfg.scheme_enum(),
        cfg.drive_config(),
        list(cfg.cliffords),
        cfg.k_randomizations,
        cfg.noise_spec(),
        ideal=args.ideal,
    )
    return _write(
        cfg,
        (AxisDef("m", "cliffords", result.lengths.astype(float)),),
        ("signal",),
        result.signal[:, None],
        ideal=args.ideal,
        clifford_fidelity=result.clifford_fidelity,
        average_gate_fidelity=result.average_gate_fidelity,
        fit_amplitude=result.fit_amplitude,
        fit_residual=result.fit_residual,
        converged=result.converged,
        warnings=result.warnings,
    )


def _cmd_iq_export(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    drive = cfg.drive_config()
    _, rate, _ = gate_frame(drive)
    duration = cfg.gate_angle / rate
    samples = duration * cfg.sample_rate_hz
    if not samples <= MAX_IQ_SAMPLES:
        raise ConfigError(
            f"iq-export would write {samples:.3g} samples, more than {MAX_IQ_SAMPLES}; "
            "lower sample_rate_hz or gate_angle"
        )
    n = max(2, int(round(samples)))
    times = np.arange(n) / cfg.sample_rate_hz
    i_env, q_env = iq_baseband(drive, times)
    return _write(
        cfg, (AxisDef("t", "s", times),), ("i", "q"), np.stack([i_env, q_env], axis=-1),
        gate_angle=cfg.gate_angle, duration_s=duration,
    )


def _selftest_checks():
    rng = np.random.default_rng(20260809)

    def check_counter_rotating():
        for scheme, expected in ((Scheme.CMCCD, 0.0), (Scheme.AMCCD, -0.5), (Scheme.PMCCD, 0.5)):
            cfg = default_config(scheme)
            got = counter_rotating_coefficient(cfg)
            if got != expected * cfg.mod_strength:
                return f"{scheme.label}: {got} != {expected} * eps_m"
        return None

    def check_bare_rabi():
        base = default_config(Scheme.BARE)
        cfg = base.with_errors(detuning=base.rabi)
        final = evolve(first_frame_hamiltonian(cfg), QubitState.zero(), 0.0, math.pi / cfg.rabi)
        expected = 0.5 * math.sin(math.sqrt(2.0) * math.pi / 2.0) ** 2
        if abs(final.population_up() - expected) > 1e-8:
            return f"P_up {final.population_up()} != analytic {expected}"
        return None

    def check_cm_gate():
        cfg = default_config(Scheme.CMCCD)
        final = evolve(
            second_frame_hamiltonian(cfg), QubitState.zero(), 0.0, math.pi / cfg.mod_strength
        )
        if 1.0 - final.population_up() > 1e-8:
            return f"CM Y_pi infidelity {1.0 - final.population_up():.3e}"
        return None

    def check_frame_equivalence():
        cf4 = IntegratorSpec(method="cf4")
        for _ in range(5):
            scheme = rng.choice([Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD])
            cfg = default_config(
                scheme,
                detuning=float(rng.uniform(-0.2, 0.2)) * default_config(scheme).rabi,
                rabi_error=float(rng.uniform(-0.1, 0.1)) * default_config(scheme).rabi,
            )
            t1 = 2.0 * math.pi / cfg.mod_strength
            first = evolve(first_frame_hamiltonian(cfg), QubitState.zero(), 0.0, t1, cf4)
            second = evolve(second_frame_hamiltonian(cfg), QubitState.zero(), 0.0, t1, cf4)
            fidelity = state_fidelity(to_second_frame(first, cfg, t1), second)
            if fidelity < 1.0 - 1e-8:
                return f"{scheme.label}: frame fidelity {fidelity}"
        return None

    def check_iq_round_trip():
        times = np.linspace(0.0, 2e-6, 10_000)
        for scheme in Scheme:
            cfg = default_config(scheme)
            i_env, q_env = iq_baseband(cfg, times)
            carrier = cfg.omega_mw * times + cfg.mw_phase
            recon = i_env * np.cos(carrier) - q_env * np.sin(carrier)
            direct = drive_coefficient(cfg, times)
            scale = np.abs(direct).max()
            if np.abs(recon - direct).max() > 1e-10 * scale:
                return f"{scheme.label}: IQ reconstruction error"
        return None

    def check_readout_pad():
        cfg = default_config(Scheme.CMCCD)
        period = cfg.mod_period
        cases = ((period, 0.0), (1.5 * period, 0.5 * period), (5.3 * period, 0.7 * period))
        for elapsed, expected in cases:
            pad = readout_pad(elapsed, cfg)
            if abs(pad.duration - expected) > 1e-9 * period:
                return f"pad({elapsed / period:.2f} T) = {pad.duration / period:.4f} T"
        return None

    def check_cliffords():
        group = clifford_mod.clifford_group()
        count = sum(len(g.decomposition) for g in group)
        if count / 24.0 != clifford_mod.AVERAGE_PRIMITIVES_PER_CLIFFORD:
            return f"average primitive count {count / 24.0}"
        for a in group[:6]:
            for b in group[:6]:
                product = a.matrix @ b.matrix
                if not any(
                    clifford_mod.equal_up_to_phase(product, c.matrix) for c in group
                ):
                    return f"closure violated at ({a.index}, {b.index})"
        return None

    def check_config_round_trip():
        cfg = parse_config("scheme = am\nrabi_hz = 2.2e6\nmod_ratio = 0.25\n")
        if parse_config(emit_config(cfg)) != cfg:
            return "config round trip mismatch"
        return None

    return [
        ("counter-rotating coefficients", check_counter_rotating),
        ("bare detuned Rabi analytic value", check_bare_rabi),
        ("CMCCD resonant Y_pi gate", check_cm_gate),
        ("first/second frame equivalence", check_frame_equivalence),
        ("I/Q round trip", check_iq_round_trip),
        ("readout pad arithmetic", check_readout_pad),
        ("Clifford table", check_cliffords),
        ("config round trip", check_config_round_trip),
    ]


def _cmd_selftest(args: argparse.Namespace) -> int:
    failures = 0
    for name, check in _selftest_checks():
        problem = check()
        if problem is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {problem}")
            failures += 1
    return 0 if failures == 0 else 3


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a config error: exit 2 with the JSON record,
    and reads a negative number with an exponent (``-4e6``) as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str):
        raise ConfigError(message)


def _config_flags() -> argparse.ArgumentParser:
    """Parent parser of the data subcommands: ``--config`` and every key as text."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", help="key = value configuration file")
    for key in KEY_TYPES:
        flags = [flag(key)]
        if key in _SHORT_FLAGS:
            flags.append(_SHORT_FLAGS[key])
        parent.add_argument(*flags, dest=key)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ccdsim",
        description="Simulate a single qubit under concatenated continuous driving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parent = _config_flags()
    commands = {}
    for name, handler, text in (
        ("chevron", _cmd_sweep, "spin-up fraction vs detuning and duration"),
        ("rabi-error", _cmd_sweep, "spin-up fraction vs Rabi error and duration"),
        ("spectrum", _cmd_sweep, "Fourier magnitude of a sweep"),
        ("infidelity", _cmd_infidelity, "Y_pi state infidelity vs error"),
        ("trajectory", _cmd_trajectory, "Bloch trace with quarter-turn markers"),
        ("dressed", _cmd_dressed, "CCD-Rabi / CCD-Ramsey / two-axis presets"),
        ("rb", _cmd_rb, "Clifford randomized benchmarking"),
        ("iq-export", _cmd_iq_export, "baseband I/Q samples of one gate pulse"),
    ):
        commands[name] = sub.add_parser(name, help=text, parents=[parent])
        commands[name].set_defaults(handler=handler)
    commands["chevron"].set_defaults(axis="detuning")
    commands["rabi-error"].set_defaults(axis="rabi")
    for name in ("spectrum", "infidelity"):
        commands[name].add_argument("--axis", choices=["detuning", "rabi"], default="detuning")
    commands["dressed"].add_argument(
        "--program", help="segment-directive file to run instead of a preset"
    )
    commands["rb"].add_argument(
        "--ideal", action="store_true", help="use ideal Clifford matrices instead of pulse dynamics"
    )
    sub.add_parser("selftest", help="run the built-in analytic-oracle checks").set_defaults(
        handler=_cmd_selftest
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (IntegratorError, NormalizationError, FloatingPointError) as exc:
        _report_error("numerical", exc)
        return 3
    except MemoryError as exc:
        _report_error("memory", exc)
        return 3
    except OSError as exc:
        _report_error("io", exc)
        return 4
    except (ConfigError, ValueError) as exc:
        # covers config parsing, parameter validation and program compilation
        _report_error("config", exc)
        return 2


def _report_error(kind: str, exc: Exception) -> None:
    record = {"error": {"kind": kind, "message": str(exc)}}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: sweeps, presets, benchmarking, export, selftest.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O
error. Failures print a machine-readable JSON error record to stderr.
No subcommand runs a worker pool. ``--threads``, the ``threads`` config
key and the CCD_SIM_THREADS environment variable are still accepted and
validated (exit 2 on a negative count or a non-integer variable), but they
select nothing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import clifford as clifford_mod
from .config import ConfigError, RunConfig, emit_config, parse_config
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


def _load_config(args: argparse.Namespace) -> RunConfig:
    text = ""
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    keys = [f.name for f in fields(RunConfig)] + ["mod_strength_hz"]
    overrides = {key: getattr(args, key) for key in keys if hasattr(args, key)}
    span = getattr(args, "detuning_span_hz", None)
    if span is not None:
        overrides["detuning_start_hz"] = -span / 2.0
        overrides["detuning_stop_hz"] = span / 2.0
    span = getattr(args, "rabi_error_span_frac", None)
    if span is not None:
        overrides["rabi_error_start_frac"] = -span / 2.0
        overrides["rabi_error_stop_frac"] = span / 2.0
    cfg = parse_config(text, overrides=overrides)
    env = os.environ.get("CCD_SIM_THREADS", "")
    if cfg.threads == 0 and env.strip():
        try:
            threads = int(env)
        except ValueError as exc:
            raise ConfigError(f"CCD_SIM_THREADS must be an integer, got {env!r}") from exc
        if threads < 0:
            raise ConfigError(f"CCD_SIM_THREADS: threads must be >= 0, got {threads}")
    return cfg


def _duration_grid(cfg: RunConfig) -> np.ndarray:
    """Explicit grid if configured, else the modulation-period lattice (CCD)
    or eight samples per Rabi period (bare)."""
    if cfg.duration_stop_s > 0.0:
        return np.linspace(cfg.duration_start_s, cfg.duration_stop_s, cfg.duration_points)
    drive = cfg.drive_config()
    if cfg.scheme_enum() is Scheme.BARE or drive.mod_strength <= 0.0:
        step = 1.0 / (8.0 * cfg.rabi_hz)
    else:
        step = drive.mod_period
    return cfg.duration_start_s + np.arange(cfg.duration_points) * step


def _detuning_grid(cfg: RunConfig) -> np.ndarray:
    return TWO_PI * np.linspace(cfg.detuning_start_hz, cfg.detuning_stop_hz, cfg.detuning_points)


def _rabi_error_grid(cfg: RunConfig) -> np.ndarray:
    rabi = TWO_PI * cfg.rabi_hz
    return rabi * np.linspace(cfg.rabi_error_start_frac, cfg.rabi_error_stop_frac, cfg.rabi_error_points)


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


def _cmd_chevron(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    grid = chevron_sweep(
        cfg.scheme_enum(),
        cfg.drive_config(),
        _detuning_grid(cfg),
        _duration_grid(cfg),
    )
    return _write(
        cfg, (grid.y_axis, grid.x_axis), ("p_up",), grid.values[..., None],
        warnings=grid.meta["warnings"],
    )


def _cmd_rabi_error(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    grid = rabi_error_sweep(
        cfg.scheme_enum(),
        cfg.drive_config(),
        _rabi_error_grid(cfg),
        _duration_grid(cfg),
    )
    return _write(
        cfg, (grid.y_axis, grid.x_axis), ("p_up",), grid.values[..., None],
        warnings=grid.meta["warnings"],
    )


def _cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if args.axis == "detuning":
        grid = chevron_sweep(
            cfg.scheme_enum(), cfg.drive_config(), _detuning_grid(cfg), _duration_grid(cfg)
        )
    else:
        grid = rabi_error_sweep(
            cfg.scheme_enum(), cfg.drive_config(), _rabi_error_grid(cfg), _duration_grid(cfg)
        )
    grid = spectrum(grid)
    return _write(
        cfg, (grid.y_axis, grid.x_axis), ("magnitude",), grid.values[..., None],
        warnings=grid.meta["warnings"],
    )


def _cmd_infidelity(args: argparse.Namespace) -> int:
    from .experiments import infidelity_curve

    cfg = _load_config(args)
    grid = _detuning_grid(cfg) if args.axis == "detuning" else _rabi_error_grid(cfg)
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

    def run(delta: float, rabi_error: float) -> np.ndarray:
        errd = drive.with_errors(
            detuning=drive.detuning + delta, rabi_error=drive.rabi_error + rabi_error
        )
        points = dressed_sequence_experiment(cfg.dressed_kind, errd, sweep)
        return np.array([p for _, p in points])

    values = noise_average(run, cfg.noise_spec(), drive.rabi)
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
    drive = cfg.drive_config()
    result = randomized_benchmarking(
        cfg.scheme_enum(),
        drive,
        list(cfg.cliffords),
        cfg.k_randomizations,
        cfg.noise_spec(),
        static_detuning=TWO_PI * cfg.rabi_hz * args.static_detuning_frac,
        static_rabi_error=TWO_PI * cfg.rabi_hz * args.static_rabi_error_frac,
        ideal=args.ideal,
    )
    return _write(
        cfg,
        (AxisDef("m", "cliffords", result.lengths.astype(float)),),
        ("signal",),
        result.signal[:, None],
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
    n = max(2, int(round(duration * cfg.sample_rate_hz)))
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--scheme", choices=["bare", "am", "pm", "cm"])
    parser.add_argument("--rabi-hz", dest="rabi_hz", type=float)
    parser.add_argument("--detuning-hz", dest="detuning_hz", type=float)
    parser.add_argument("--carrier-hz", dest="carrier_hz", type=float)
    parser.add_argument("--rabi-error-frac", dest="rabi_error_frac", type=float)
    parser.add_argument("--mod-ratio", dest="mod_ratio", type=float)
    parser.add_argument("--mod-strength-hz", dest="mod_strength_hz", type=float)
    parser.add_argument("--mod-phase", dest="mod_phase", type=float)
    parser.add_argument("--mw-phase", dest="mw_phase", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=["csv", "json"])


def _add_duration_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--durations", dest="duration_points", type=int,
                        help="number of duration samples")
    parser.add_argument("--duration-stop-s", dest="duration_stop_s", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccdsim",
        description="Simulate a single qubit under concatenated continuous driving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chevron", help="spin-up fraction vs detuning and duration")
    _add_common(p)
    _add_duration_flags(p)
    p.add_argument("--detuning-span-hz", dest="detuning_span_hz", type=float)
    p.add_argument("--detuning-points", dest="detuning_points", type=int)
    p.set_defaults(handler=_cmd_chevron)

    p = sub.add_parser("rabi-error", help="spin-up fraction vs Rabi error and duration")
    _add_common(p)
    _add_duration_flags(p)
    p.add_argument("--rabi-error-span-frac", dest="rabi_error_span_frac", type=float)
    p.add_argument("--rabi-error-points", dest="rabi_error_points", type=int)
    p.set_defaults(handler=_cmd_rabi_error)

    p = sub.add_parser("spectrum", help="Fourier magnitude of a sweep")
    _add_common(p)
    _add_duration_flags(p)
    p.add_argument("--axis", choices=["detuning", "rabi"], default="detuning")
    p.add_argument("--detuning-span-hz", dest="detuning_span_hz", type=float)
    p.add_argument("--detuning-points", dest="detuning_points", type=int)
    p.add_argument("--rabi-error-span-frac", dest="rabi_error_span_frac", type=float)
    p.add_argument("--rabi-error-points", dest="rabi_error_points", type=int)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("infidelity", help="Y_pi state infidelity vs error")
    _add_common(p)
    p.add_argument("--axis", choices=["detuning", "rabi"], default="detuning")
    p.add_argument("--detuning-span-hz", dest="detuning_span_hz", type=float)
    p.add_argument("--detuning-points", dest="detuning_points", type=int)
    p.add_argument("--rabi-error-span-frac", dest="rabi_error_span_frac", type=float)
    p.add_argument("--rabi-error-points", dest="rabi_error_points", type=int)
    p.set_defaults(handler=_cmd_infidelity)

    p = sub.add_parser("trajectory", help="Bloch trace with quarter-turn markers")
    _add_common(p)
    p.add_argument("--quarter-turns", dest="quarter_turns", type=int)
    p.add_argument("--samples-per-quarter-turn", dest="samples_per_quarter_turn", type=int)
    p.set_defaults(handler=_cmd_trajectory)

    p = sub.add_parser("dressed", help="CCD-Rabi / CCD-Ramsey / two-axis presets")
    _add_common(p)
    p.add_argument("--kind", dest="dressed_kind",
                   choices=["ccd_rabi", "ccd_ramsey", "two_axis"])
    p.add_argument("--points", dest="sweep_points", type=int)
    p.add_argument("--program", help="segment-directive file to run instead of a preset")
    p.add_argument("--noise-detuning-sigma-hz", dest="noise_detuning_sigma_hz", type=float)
    p.add_argument("--noise-rabi-sigma-frac", dest="noise_rabi_sigma_frac", type=float)
    p.add_argument("--noise-samples", dest="noise_samples", type=int)
    p.set_defaults(handler=_cmd_dressed)

    p = sub.add_parser("rb", help="Clifford randomized benchmarking")
    _add_common(p)
    p.add_argument("--cliffords", dest="cliffords",
                   type=lambda text: tuple(int(x) for x in text.split(",") if x.strip()))
    p.add_argument("--k", dest="k_randomizations", type=int)
    p.add_argument("--static-detuning-frac", type=float, default=0.0,
                   help="static detuning as a fraction of Omega_0")
    p.add_argument("--static-rabi-error-frac", type=float, default=0.0)
    p.add_argument("--ideal", action="store_true",
                   help="use ideal Clifford matrices instead of pulse dynamics")
    p.add_argument("--noise-detuning-sigma-hz", dest="noise_detuning_sigma_hz", type=float)
    p.add_argument("--noise-rabi-sigma-frac", dest="noise_rabi_sigma_frac", type=float)
    p.add_argument("--noise-samples", dest="noise_samples", type=int)
    p.set_defaults(handler=_cmd_rb)

    p = sub.add_parser("iq-export", help="baseband I/Q samples of one gate pulse")
    _add_common(p)
    p.add_argument("--gate-angle", dest="gate_angle", type=float)
    p.add_argument("--sample-rate-hz", dest="sample_rate_hz", type=float)
    p.set_defaults(handler=_cmd_iq_export)

    p = sub.add_parser("selftest", help="run the built-in analytic-oracle checks")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (IntegratorError, NormalizationError, FloatingPointError) as exc:
        _report_error("numerical", exc)
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

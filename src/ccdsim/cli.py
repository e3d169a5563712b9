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

Exit codes, mapped by class in ``main`` alone (see ``errors``): 0 success; 2
``ConfigError`` (a ``--config`` or ``--program`` file that is not UTF-8
included, named with its flag); 3 ``NumericalError``, numpy's
``FloatingPointError`` or out of memory; 4 ``OSError``. Each prints one JSON
error record to stderr, and nothing else. Any other exception is a
programming error, and leaves with its traceback (exit 1). The stepped engine
steps long intervals block by block on the calling thread; ``--threads`` and
the ``threads`` key are accepted and validated (exit 2 on a negative count),
but select nothing.
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
from .config import KEY_TYPES, RunConfig, emit_config, flag, parse_config
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
)
from .errors import ConfigError, NumericalError
from .experiments import (
    AxisDef,
    bloch_trajectory,
    chevron_sweep,
    dressed_sequence_experiment,
    hann_spectrum,
    lattice_times,
    noise_average,
    rabi_error_sweep,
    shot_mean,
    _numpy_random,
)
from .propagator import evolve_grid
from .pulses import GATE_MOD_PHASE, require_gate_lattice
from .qubit import ZERO_STATE, rotation
from .rb import _bloch_rotations, _clifford_unitaries, randomized_benchmarking

__all__ = ["main"]

TWO_PI = 2.0 * math.pi

#: short spellings of config-key flags, besides their ``--key-with-dashes``
_SHORT_FLAGS = {
    "duration_points": "--durations",
    "dressed_kind": "--kind",
    "sweep_points": "--points",
    "k_randomizations": "--k",
}
#: most rows any dataset holds (sweep grid points, trace or I/Q samples); a
#: larger request is refused before anything is computed
MAX_DATASET_ROWS = 10**7
#: the config key that counts the points of each error axis
_ERROR_POINTS = {"detuning": "detuning_points", "rabi": "rabi_error_points"}
#: the dataset name of each error axis
_ERROR_AXIS = {"detuning": "detuning", "rabi": "rabi_error"}


def _read_text(path: str, option: str) -> str:
    """The text of the file ``path`` given as ``option``; one that is not
    UTF-8 is a ``ConfigError`` naming both."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{option} file {path!r} is not UTF-8: {exc}") from exc


def _load_config(args: argparse.Namespace) -> RunConfig:
    text = _read_text(args.config, "--config") if args.config else ""
    return parse_config(text, overrides={key: getattr(args, key) for key in KEY_TYPES})


def _require_rows(command: str, rows: float, *keys: str) -> None:
    """Refuse a dataset of more than ``MAX_DATASET_ROWS`` rows, naming the flags of ``keys``."""
    if not rows <= MAX_DATASET_ROWS:
        raise ConfigError(
            f"{command} asks for {rows:.3g} rows, more than {MAX_DATASET_ROWS}; "
            f"lower {' or '.join(map(flag, keys))}"
        )


def _duration_grid(cfg: RunConfig) -> np.ndarray:
    """Explicit grid if configured, else the modulation-period lattice (CCD)
    or eight samples per Rabi period (bare)."""
    if cfg.duration_stop_s > 0.0:
        return np.linspace(cfg.duration_start_s, cfg.duration_stop_s, cfg.duration_points)
    drive = cfg.drive_config()
    step = drive.mod_period if drive.dressed else 1.0 / (8.0 * cfg.rabi_hz)
    return cfg.duration_start_s + np.arange(cfg.duration_points) * step


def _coarse_grid_warning(drive: DriveConfig, durations: np.ndarray) -> list[str]:
    """A warning when a dressed drive's grid has < 8 points per dressed Rabi period 2 pi / eps_m."""
    if not drive.dressed or durations.size < 2:
        return []
    dt = float(np.min(np.diff(durations)))
    per_period = (TWO_PI / drive.mod_strength) / dt
    if per_period < 8.0:
        return [
            f"duration grid has {per_period:.2f} points per dressed Rabi period 2 pi / eps_m "
            "(< 8); the sampled spectrum relies on aliasing"
        ]
    return []


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
    meta = {"scheme": cfg.scheme.label, "seed": cfg.seed, **meta}
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
    points = _ERROR_POINTS[args.axis]
    _require_rows(
        args.command, getattr(cfg, points) * cfg.duration_points, points, "duration_points"
    )
    drive, errors, durations = cfg.drive_config(), _error_grid(cfg, args.axis), _duration_grid(cfg)
    sweep = chevron_sweep if args.axis == "detuning" else rabi_error_sweep
    values = sweep(drive, errors, durations)
    x_axis, name = AxisDef("duration", "s", durations), "p_up"
    if args.command == "spectrum":
        freqs, values = hann_spectrum(durations, values)
        x_axis, name = AxisDef("frequency", "Hz", freqs), "magnitude"
    return _write(
        cfg, (AxisDef(_ERROR_AXIS[args.axis], "rad/s", errors), x_axis), (name,),
        values[..., None], warnings=_coarse_grid_warning(drive, durations),
    )


def _cmd_infidelity(args: argparse.Namespace) -> int:
    from .experiments import infidelity_curve

    cfg = _load_config(args)
    points = _ERROR_POINTS[args.axis]
    _require_rows(args.command, getattr(cfg, points), points)
    grid = _error_grid(cfg, args.axis)
    infidelity = infidelity_curve(cfg.drive_config(), args.axis, grid)
    return _write(
        cfg, (AxisDef(_ERROR_AXIS[args.axis], "rad/s", grid),), ("infidelity",),
        infidelity[:, None],
    )


def _cmd_trajectory(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    spq = cfg.samples_per_quarter_turn
    _require_rows(
        args.command, cfg.quarter_turns * spq + 1, "quarter_turns", "samples_per_quarter_turn"
    )
    times, xyz, is_marker, spread = bloch_trajectory(
        cfg.drive_config(), cfg.quarter_turns * math.pi / 2.0, spq
    )
    return _write(
        cfg, (AxisDef("t", "s", times),), ("x", "y", "z", "is_marker"),
        np.column_stack([xyz, is_marker]), spread=spread, markers=int(is_marker.sum()),
    )


def _cmd_dressed(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    drive = cfg.drive_config()
    require_gate_lattice(drive)
    if getattr(args, "program", None):
        return _run_program_file(args, cfg, drive)
    _require_rows(args.command, cfg.sweep_points, "sweep_points")
    if cfg.dressed_kind == "two_axis":
        sweep = np.linspace(0.0, 2.0 * TWO_PI, cfg.sweep_points)
        axis = AxisDef("mw_phase", "rad", sweep)
    else:
        sweep = lattice_times(drive, cfg.sweep_points)
        axis = AxisDef("t_c", "s", sweep)

    def run(shot: DriveConfig) -> np.ndarray:
        return dressed_sequence_experiment(cfg.dressed_kind, shot, sweep)

    values = noise_average(run, cfg.noise_spec(), drive)
    return _write(cfg, (axis,), ("p_up",), values[:, None], kind=cfg.dressed_kind)


def _run_program_file(args: argparse.Namespace, cfg: RunConfig, drive: DriveConfig) -> int:
    """Simulate a user-supplied segment-directive file and report the readout,
    averaged over the noise shots, which run the one program as one batch."""
    from .pulses import parse_program, simulate_program
    from .qubit import bloch_vector, population_up

    program = parse_program(_read_text(args.program, "--program"), drive)
    shots = cfg.noise_spec().shots(drive)
    finals = simulate_program(shots, np.broadcast_to(program, (len(shots),) + program.shape))
    mean = shot_mean(np.column_stack([population_up(finals), bloch_vector(finals)]))
    return _write(
        cfg,
        (AxisDef("t", "s", np.array([sum(program[:, 2].tolist())])),),  # in order, from 0
        ("p_up", "x", "y", "z"),
        mean[None],
        program=os.path.basename(args.program),
        segments=len(program),
    )


def _cmd_rb(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = randomized_benchmarking(
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
    _require_rows(args.command, samples, "sample_rate_hz", "gate_angle")
    n = max(2, int(round(samples)))
    times = np.arange(n) / cfg.sample_rate_hz
    i_env, q_env = iq_baseband(drive, times)
    return _write(
        cfg, (AxisDef("t", "s", times),), ("i", "q"), np.stack([i_env, q_env], axis=-1),
        gate_angle=cfg.gate_angle, duration_s=duration,
    )


def _selftest_checks():
    rng = _numpy_random().default_rng(20260809)

    def check_counter_rotating():
        for scheme, expected in ((Scheme.CMCCD, 0.0), (Scheme.AMCCD, -0.5), (Scheme.PMCCD, 0.5)):
            cfg = default_config(scheme)
            got = counter_rotating_coefficient(cfg)
            if got != expected * cfg.mod_strength:
                return f"{scheme.label}: {got} != {expected} * eps_m"
        return None

    # the three state checks call the entry points of chevron, infidelity and
    # dressed --program, looked up where those subcommands look them up
    def check_bare_rabi():
        base = default_config(Scheme.BARE)
        p_up = float(chevron_sweep(base, [base.rabi], [math.pi / base.rabi])[0, 0])
        expected = 0.5 * math.sin(math.sqrt(2.0) * math.pi / 2.0) ** 2
        if not abs(p_up - expected) <= 1e-8:
            return f"P_up {p_up} != analytic {expected}"
        return None

    def check_cm_gate():
        from .experiments import infidelity_curve

        infidelity = float(infidelity_curve(default_config(Scheme.CMCCD), "detuning", [0.0])[0])
        if not infidelity <= 1e-8:
            return f"CM Y_pi infidelity {infidelity:.3e}"
        return None

    def check_frame_equivalence():
        from .pulses import simulate_program

        for _ in range(5):
            scheme = rng.choice([Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD])
            cfg = default_config(
                scheme,
                detuning=float(rng.uniform(-0.2, 0.2)) * default_config(scheme).rabi,
                rabi_error=float(rng.uniform(-0.1, 0.1)) * default_config(scheme).rabi,
            )
            # 2 pi / eps_m is four Rabi periods, where the second-frame unitary
            # is I: the two frames' states agree with no transform
            t1 = 2.0 * math.pi / cfg.mod_strength
            (second,) = simulate_program([cfg], [[(GATE_MOD_PHASE, 0.0, t1)]])
            first = evolve_grid([first_frame_hamiltonian(cfg)], [t1], ZERO_STATE)[0, 0]
            fidelity = float(np.abs(np.vdot(second, first)) ** 2)
            if not fidelity >= 1.0 - 1e-8:
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

    def check_latin_square():
        table, every = clifford_mod.multiplication_table(), np.arange(24)
        if not all(np.all(np.sort(t, axis=1) == every) for t in (table, table.T)):
            return "a row or a column of the multiplication table repeats a Clifford"
        return None

    def check_primitive_count():
        average = sum(map(len, clifford_mod._DECOMPOSITIONS)) / 24.0
        if average != clifford_mod.AVERAGE_PRIMITIVES_PER_CLIFFORD:
            return f"average primitive count {average}"
        return None

    def check_clifford_rotations():
        # the exact table against qubit.rotation about x (azimuth 0) or y
        # (pi/2), composed over the decompositions as the pulse path composes
        ideal = {
            name: rotation(math.pi / 2 if axis == "y" else 0.0, angle)[None]
            for name, axis, angle in clifford_mod.PRIMITIVES
        }
        rotations = _bloch_rotations(_clifford_unitaries(ideal))[..., 0]
        gap = float(np.abs(rotations - clifford_mod.ROTATIONS).max())
        if not gap <= 1e-12:
            return f"rotations differ from the primitive unitaries by {gap:.1e}"
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
        ("Clifford table is a Latin square", check_latin_square),
        ("Clifford decompositions average 1.875 primitives", check_primitive_count),
        ("Clifford rotations match the primitive unitaries", check_clifford_rotations),
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
        # raised, not warned: stderr holds only the JSON record
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.handler(args)
    except ConfigError as exc:
        _report_error("config", exc)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        _report_error("numerical", exc)
        return 3
    except MemoryError as exc:
        _report_error("memory", exc)
        return 3
    except OSError as exc:
        _report_error("io", exc)
        return 4


def _report_error(kind: str, exc: Exception) -> None:
    record = {"error": {"kind": kind, "message": str(exc)}}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

"""Figure-style numerical experiments on the CCD-driven qubit.

Chevron and Rabi-error sweeps, per-column Fourier spectra, Bloch-sphere
trajectories with quarter-turn markers, Y-pi state-infidelity curves, the
dressed-qubit pulse sequences (CCD-Rabi, CCD-Ramsey, two-axis control), and
quasi-static noise averaging over the per-shot drives of ``NoiseSpec.shots``.

All sweeps start from |0> and report the spin-up fraction |<1|psi>|^2. Each
sweep propagates all its grid rows as one ``evolve_grid`` batch, which fixes
one global step size across the rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .drive import DriveConfig, Scheme, first_frame_hamiltonian, gate_frame
from .fitting import hann_spectrum
from .propagator import ROTATING_SPEC, IntegratorError, IntegratorSpec, evolve, evolve_grid
from .pulses import PulseProgram, gate_pulse, idle_pulse, readout_pad, simulate_program
from .qubit import BlochVector, QubitState, bloch_vector

__all__ = [
    "AxisDef",
    "SweepGrid",
    "SpectrumGrid",
    "TrajectoryRecord",
    "NoiseSpec",
    "chevron_sweep",
    "rabi_error_sweep",
    "spectrum",
    "infidelity_curve",
    "bloch_trajectory",
    "dressed_sequence_experiment",
    "lattice_times",
    "noise_average",
]


class AxisDef(NamedTuple):
    name: str
    units: str
    values: np.ndarray


@dataclass(frozen=True)
class SweepGrid:
    """2-D sweep result: values[i, j] for y_axis[i] x x_axis[j]."""

    x_axis: AxisDef
    y_axis: AxisDef
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = (self.y_axis.values.size, self.x_axis.values.size)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != axes {expected}")
        if not np.all((self.values >= -1e-9) & (self.values <= 1.0 + 1e-9)):
            # a population outside [0, 1] is a numerical failure, not bad input
            raise IntegratorError("sweep values must lie in [0, 1]")


@dataclass(frozen=True)
class SpectrumGrid:
    """Per-row Fourier magnitudes of a sweep; x axis is frequency in Hz."""

    x_axis: AxisDef
    y_axis: AxisDef
    values: np.ndarray
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Bloch trace with markers at each nominal quarter rotation."""

    samples: list[tuple[float, BlochVector]]
    markers: list[BlochVector]
    spread: float


@dataclass(frozen=True)
class NoiseSpec:
    """Quasi-static Gaussian noise: one (detuning, Rabi-error) draw per shot."""

    sigma_detuning: float = 0.0  # rad/s
    sigma_rabi_frac: float = 0.0  # fraction of Omega_0
    samples: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.sigma_detuning >= 0.0 and self.sigma_rabi_frac >= 0.0):
            raise ValueError("noise sigmas must be >= 0")
        if self.samples < 1:
            raise ValueError("need at least one noise sample")

    def shots(self, cfg: DriveConfig) -> list[DriveConfig]:
        """The drive of each shot: ``cfg`` with one draw added to its errors.

        Draws come from ``seed``, all detunings (rad/s) first, then all Rabi
        errors (``sigma_rabi_frac`` times ``cfg.rabi``), and the shots keep
        draw order. Without noise every shot is ``cfg``, so there is one.
        """
        if self.sigma_detuning == 0.0 and self.sigma_rabi_frac == 0.0:
            return [cfg]
        rng = np.random.default_rng(self.seed)
        deltas = rng.normal(0.0, self.sigma_detuning, self.samples)
        rabi_errors = rng.normal(0.0, self.sigma_rabi_frac * cfg.rabi, self.samples)
        return [
            cfg.with_errors(detuning=cfg.detuning + d, rabi_error=cfg.rabi_error + e)
            for d, e in zip(deltas, rabi_errors)
        ]


def _coarse_grid_warning(cfg: DriveConfig, durations: np.ndarray) -> list[str]:
    if cfg.mod_strength <= 0.0 or durations.size < 2:
        return []
    dt = float(np.min(np.diff(durations)))
    per_period = (2.0 * math.pi / cfg.mod_strength) / dt
    if per_period < 8.0:
        return [
            f"duration grid has {per_period:.2f} points per modulation period "
            "(< 8); the sampled spectrum relies on aliasing"
        ]
    return []


def _duration_sweep(
    base: DriveConfig,
    axis: str,
    error_grid: np.ndarray,
    duration_grid: np.ndarray,
    spec: IntegratorSpec,
) -> SweepGrid:
    """Spin-up fraction vs (error, duration) in the first frame, as one batch.

    ``axis`` names the :meth:`DriveConfig.with_errors` argument swept.
    """
    errors = np.asarray(error_grid, dtype=float)
    durations = np.asarray(duration_grid, dtype=float)
    if np.any(np.diff(errors) <= 0.0) or np.any(np.diff(durations) <= 0.0):
        raise ValueError("grids must be strictly increasing")
    hams = [first_frame_hamiltonian(base.with_errors(**{axis: e})) for e in errors]
    values = np.abs(evolve_grid(hams, durations, QubitState.zero(), spec)[..., 1]) ** 2
    return SweepGrid(
        x_axis=AxisDef("duration", "s", durations),
        y_axis=AxisDef(axis, "rad/s", errors),
        values=values,
        meta={
            "scheme": base.scheme.label,
            "config": base,
            "warnings": _coarse_grid_warning(base, durations),
        },
    )


def chevron_sweep(
    scheme: Scheme,
    cfg: DriveConfig,
    detuning_grid: np.ndarray,
    duration_grid: np.ndarray,
    *,
    spec: IntegratorSpec = ROTATING_SPEC,
) -> SweepGrid:
    """Spin-up fraction vs (detuning, drive duration) in the first frame."""
    base = cfg.with_scheme(scheme)
    return _duration_sweep(base, "detuning", detuning_grid, duration_grid, spec)


def rabi_error_sweep(
    scheme: Scheme,
    cfg: DriveConfig,
    rabi_error_grid: np.ndarray,
    duration_grid: np.ndarray,
    *,
    spec: IntegratorSpec = ROTATING_SPEC,
) -> SweepGrid:
    """Spin-up fraction vs (static Rabi error, duration) at zero detuning."""
    base = cfg.with_scheme(scheme).with_errors(detuning=0.0)
    return _duration_sweep(base, "rabi_error", rabi_error_grid, duration_grid, spec)


def spectrum(grid: SweepGrid) -> SpectrumGrid:
    """Row-by-row magnitude spectrum over the duration axis."""
    if grid.x_axis.name != "duration":
        raise ValueError("spectrum expects a duration sweep on the x axis")
    freqs, mags = hann_spectrum(grid.x_axis.values, grid.values)
    return SpectrumGrid(
        x_axis=AxisDef("frequency", "Hz", freqs),
        y_axis=grid.y_axis,
        values=mags,
        meta=dict(grid.meta),
    )


def infidelity_curve(
    scheme: Scheme,
    cfg: DriveConfig,
    error_axis: str,
    grid: np.ndarray,
    *,
    spec: IntegratorSpec = ROTATING_SPEC,
) -> list[tuple[float, float]]:
    """Y-pi gate state infidelity vs detuning or Rabi error.

    The gate runs for pi over its nominal rate in the frame that
    :func:`gate_frame` picks: CCD schemes in the second frame at eps_m, the
    bare qubit (or a CCD scheme with eps_m = 0) in the first frame at
    Omega_0. Infidelity is 1 - |<1|U|0>|^2 against the nominal target.
    """
    if error_axis not in ("detuning", "rabi"):
        raise ValueError("error_axis must be 'detuning' or 'rabi'")
    errors = np.asarray(grid, dtype=float)
    base = cfg.with_scheme(scheme)
    build, rate, _ = gate_frame(base)
    duration = math.pi / rate
    key = "detuning" if error_axis == "detuning" else "rabi_error"
    hams = [build(base.with_errors(**{key: float(err)})) for err in errors]
    states = evolve_grid(hams, np.array([duration]), QubitState.zero(), spec)
    p_up = np.abs(states[:, 0, 1]) ** 2
    return [(float(e), float(1.0 - p)) for e, p in zip(errors, p_up)]


def bloch_trajectory(
    scheme: Scheme,
    cfg: DriveConfig,
    total_angle: float,
    samples_per_pi2: int = 16,
    *,
    spec: IntegratorSpec = ROTATING_SPEC,
) -> TrajectoryRecord:
    """Bloch trace over a long drive with markers at each nominal pi/2.

    The trace runs in the frame and at the nominal rate that
    :func:`gate_frame` picks (CCD schemes in the second frame at eps_m, the
    bare qubit in the first frame at Omega_0). The spread is the largest
    pairwise marker distance within any of the four quarter-turn classes
    (markers that ideally coincide).
    """
    quarter_turns = total_angle / (math.pi / 2.0)
    n_markers = round(quarter_turns)
    if abs(quarter_turns - n_markers) > 1e-9 or n_markers < 1:
        raise ValueError("total_angle must be a positive multiple of pi/2")
    if samples_per_pi2 < 1:
        raise ValueError("samples_per_pi2 must be >= 1")
    base = cfg.with_scheme(scheme)
    build, rate, _ = gate_frame(base)
    quarter = (math.pi / 2.0) / rate
    times = np.arange(1, n_markers * samples_per_pi2 + 1) * (quarter / samples_per_pi2)
    states = evolve(build(base), QubitState.zero(), 0.0, float(times[-1]), spec, t_eval=times)
    samples = [(0.0, bloch_vector(QubitState.zero()))]
    samples += [(float(t), bloch_vector(s)) for t, s in zip(times, states)]
    markers = [samples[k * samples_per_pi2][1] for k in range(1, n_markers + 1)]
    spread = 0.0
    for cls in range(4):
        group = np.array(markers[cls::4])
        if len(group) < 2:
            continue
        deltas = group[:, None, :] - group[None, :, :]
        spread = max(spread, float(np.sqrt((deltas**2).sum(axis=-1)).max()))
    return TrajectoryRecord(samples=samples, markers=markers, spread=spread)


def lattice_times(cfg: DriveConfig, count: int) -> np.ndarray:
    """``count`` sweep times on the modulation-period lattice (0, T, 2T, ...)."""
    return np.arange(count) * cfg.mod_period


def dressed_sequence_experiment(
    kind: str,
    cfg: DriveConfig,
    sweep_values: np.ndarray,
    *,
    spec: IntegratorSpec = ROTATING_SPEC,
) -> list[tuple[float, float]]:
    """Dressed-qubit pulse-sequence presets.

    kind = 'ccd_rabi'   : gate pulse of swept duration + readout pad;
    kind = 'ccd_ramsey' : pi/2 -- idle(t_c) -- pi/2 + readout pad;
    kind = 'two_axis'   : two pi/2 pulses, the second at swept carrier phase.

    Swept durations must sit on the modulation-period lattice so that every
    program satisfies the segment-boundary rule.
    """
    if kind not in ("ccd_rabi", "ccd_ramsey", "two_axis"):
        raise ValueError("kind must be ccd_rabi | ccd_ramsey | two_axis")
    if not cfg.dressed:
        raise ValueError("dressed sequences need an active CCD modulation")
    sweep = np.asarray(sweep_values, dtype=float)
    programs = []
    for x in sweep:
        if kind == "ccd_rabi":
            segments = [gate_pulse(cfg.mod_strength * x, 0.0, cfg, "drive")] if x > 0.0 else []
        elif kind == "ccd_ramsey":
            segments = [
                gate_pulse(math.pi / 2.0, 0.0, cfg, "pi/2"),
                idle_pulse(x, cfg, "free evolution"),
                gate_pulse(math.pi / 2.0, 0.0, cfg, "pi/2"),
            ]
        else:
            segments = [
                gate_pulse(math.pi / 2.0, 0.0, cfg, "pi/2 ref"),
                gate_pulse(math.pi / 2.0, float(x), cfg, "pi/2 swept"),
            ]
        elapsed = sum(seg.duration for seg in segments)
        programs.append(PulseProgram(segments + [readout_pad(elapsed, cfg)], cfg))
    finals = simulate_program(programs, spec=spec)
    return [(float(x), final.population_up()) for x, final in zip(sweep, finals)]


def noise_average(
    experiment: Callable[[DriveConfig], np.ndarray],
    noise: NoiseSpec,
    cfg: DriveConfig,
) -> np.ndarray:
    """Average ``experiment(shot)`` over the drives of ``noise.shots(cfg)``.

    Shots run and are summed in draw order, so the result is bit-stable
    across runs on one platform.
    """
    shots = noise.shots(cfg)
    total = np.array(experiment(shots[0]), dtype=float)
    for shot in shots[1:]:
        total += experiment(shot)
    return total / len(shots)

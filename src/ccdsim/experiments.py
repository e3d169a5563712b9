"""Figure-style numerical experiments on the CCD-driven qubit.

Chevron and Rabi-error sweeps, the Hann-windowed Fourier spectrum of a
sweep's rows, Bloch-sphere trajectories with quarter-turn markers, Y-pi
state-infidelity curves, the dressed-qubit pulse sequences (CCD-Rabi,
CCD-Ramsey, two-axis control), and quasi-static noise averaging over the
per-shot drives of ``NoiseSpec.shots``.

Every experiment starts from |0> and returns arrays: a sweep the spin-up
fraction |<1|psi>|^2 of shape (len(error grid), len(duration grid)), a
trajectory its times, Bloch vectors, marker mask and spread, and the other
experiments one value per grid point.
A dressed preset builds its sweep as one (points, pieces, 3) array of pulse
programs (see ``pulses``).
There is no state object: every experiment starts from ``qubit.ZERO_STATE``,
and states are read out by ``qubit.normalized``, ``qubit.bloch_vector`` and
``qubit.population_up``.
Each sweep propagates all its grid rows as one ``evolve_grid`` batch, which
fixes one global step size across the rows. No experiment takes a step
setting: each propagates at the propagator's default, ``ROTATING_SPEC``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .drive import DriveConfig, first_frame_hamiltonian, gate_frame
from .errors import ConfigError, NumericalError
from .propagator import evolve_grid
from .pulses import GATE_MOD_PHASE, IDLE_MOD_PHASE, require_gate_lattice, simulate_program
from .qubit import ZERO_STATE, bloch_vector, normalized, population_up

__all__ = [
    "AxisDef",
    "MAX_NOISE_SAMPLES",
    "NoiseSpec",
    "chevron_sweep",
    "rabi_error_sweep",
    "hann_spectrum",
    "infidelity_curve",
    "bloch_trajectory",
    "dressed_sequence_experiment",
    "lattice_times",
    "noise_average",
    "shot_mean",
]


#: Bytes of one block of pairwise marker differences in ``bloch_trajectory``.
_SPREAD_BLOCK_BYTES = 1 << 20
#: Most noise shots a ``NoiseSpec`` draws.
MAX_NOISE_SAMPLES = 10**6


class AxisDef(NamedTuple):
    name: str
    units: str
    values: np.ndarray


def _numpy_random():
    """``numpy.random``, imported without mapping OpenSSL.

    Its bit generators import ``secrets``, whose ``hmac`` and ``hashlib``
    load ``_hashlib`` (OpenSSL): about 3.5 MB of resident memory for digests
    that no draw takes (``import numpy.random`` peaks at 33.0 MB with it and
    29.5 MB without). The first import here blocks ``_hashlib``, so those
    modules fall back to CPython's built-in digests, then lifts the block and
    unloads the modules it created: a later ``import hashlib`` in the same
    process loads OpenSSL as usual. The generators and draws are numpy's own.
    The block holds only if no other thread imports meanwhile; ccdsim steps
    every block on the calling thread.
    """
    if "numpy.random" not in sys.modules and "_hashlib" not in sys.modules:
        fresh = [name for name in ("secrets", "hmac", "hashlib") if name not in sys.modules]
        sys.modules["_hashlib"] = None
        try:
            import numpy.random
        finally:
            del sys.modules["_hashlib"]
            for name in fresh:
                sys.modules.pop(name, None)
    return np.random


@dataclass(frozen=True)
class NoiseSpec:
    """Quasi-static Gaussian noise: one (detuning, Rabi-error) draw per shot."""

    sigma_detuning: float = 0.0  # rad/s
    sigma_rabi_frac: float = 0.0  # fraction of Omega_0
    samples: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.sigma_detuning >= 0.0 and self.sigma_rabi_frac >= 0.0):
            raise ConfigError("noise sigmas must be >= 0")
        if not 1 <= self.samples <= MAX_NOISE_SAMPLES:
            raise ConfigError(
                f"noise_samples must lie in [1, {MAX_NOISE_SAMPLES}], got {self.samples}",
                key="noise_samples",
            )
        if not 0 <= self.seed < 2**64:  # the random generators take a 64-bit key
            raise ConfigError(f"seed must lie in [0, 2^64), got {self.seed}", key="seed")

    def shots(self, cfg: DriveConfig) -> list[DriveConfig]:
        """The drive of each shot: ``cfg`` with one draw added to its errors.

        Draws come from ``seed``, all detunings (rad/s) first, then all Rabi
        errors (``sigma_rabi_frac`` times ``cfg.rabi``), and the shots keep
        draw order. Without noise every shot is ``cfg``, so there is one.
        """
        if self.sigma_detuning == 0.0 and self.sigma_rabi_frac == 0.0:
            return [cfg]
        rng = _numpy_random().default_rng(self.seed)
        deltas = rng.normal(0.0, self.sigma_detuning, self.samples)
        rabi_errors = rng.normal(0.0, self.sigma_rabi_frac * cfg.rabi, self.samples)
        return [
            replace(cfg, detuning=cfg.detuning + d, rabi_error=cfg.rabi_error + e)
            for d, e in zip(deltas, rabi_errors)
        ]


def _duration_sweep(
    base: DriveConfig, axis: str, error_grid: np.ndarray, duration_grid: np.ndarray
) -> np.ndarray:
    """Spin-up fraction vs (error, duration) in the first frame, as one batch.

    ``axis`` names the :class:`DriveConfig` field swept.
    """
    errors = np.asarray(error_grid, dtype=float)
    durations = np.asarray(duration_grid, dtype=float)
    if np.any(np.diff(errors) <= 0.0) or np.any(np.diff(durations) <= 0.0):
        raise ConfigError("grids must be strictly increasing")
    hams = [first_frame_hamiltonian(replace(base, **{axis: e})) for e in errors]
    values = np.abs(evolve_grid(hams, durations, ZERO_STATE)[..., 1]) ** 2
    if not np.all((values >= -1e-9) & (values <= 1.0 + 1e-9)):
        # a population outside [0, 1] is a numerical failure, not bad input
        raise NumericalError("sweep values must lie in [0, 1]")
    return values


def chevron_sweep(
    cfg: DriveConfig, detuning_grid: np.ndarray, duration_grid: np.ndarray
) -> np.ndarray:
    """Spin-up fraction vs (detuning, drive duration) in the first frame.

    Returns shape (len(detuning_grid), len(duration_grid)).
    """
    return _duration_sweep(cfg, "detuning", detuning_grid, duration_grid)


def rabi_error_sweep(
    cfg: DriveConfig, rabi_error_grid: np.ndarray, duration_grid: np.ndarray
) -> np.ndarray:
    """Spin-up fraction vs (static Rabi error, duration) in the first frame.

    Returns shape (len(rabi_error_grid), len(duration_grid)).
    """
    return _duration_sweep(cfg, "rabi_error", rabi_error_grid, duration_grid)


def _check_uniform(times: np.ndarray) -> float:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 4 or not np.isfinite(times).all():
        raise ConfigError("need a finite 1-D time grid with at least 4 points")
    steps = np.diff(times)
    dt = float(steps[0])
    # written so that a NaN step fails too
    if not (dt > 0.0 and np.all(np.abs(steps - dt) <= 1e-9 * dt)):
        raise ConfigError("time grid must be uniform and increasing")
    return dt


def hann_spectrum(times: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude spectrum of mean-removed, Hann-windowed data.

    ``values`` may be 1-D or (rows, n); the transform runs along the last
    axis. Returns (frequencies in Hz spanning [0, fs/2], magnitudes).
    """
    dt = _check_uniform(times)
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != times.size:
        raise ConfigError("values last axis must match the time grid")
    window = np.hanning(times.size)
    centered = values - values.mean(axis=-1, keepdims=True)
    mags = np.abs(np.fft.rfft(centered * window, axis=-1))
    freqs = np.fft.rfftfreq(times.size, dt)
    return freqs, mags


def infidelity_curve(
    cfg: DriveConfig,
    error_axis: str,
    grid: np.ndarray,
) -> np.ndarray:
    """Y-pi gate state infidelity at each detuning or Rabi error of ``grid``.

    The gate runs for pi over its nominal rate in the frame that
    :func:`gate_frame` picks for ``cfg``: a dressed drive in the second frame
    at eps_m, any other drive in the first frame at Omega_0. Infidelity is
    1 - |<1|U|0>|^2 against the nominal target; the result has shape
    (len(grid),).
    """
    if error_axis not in ("detuning", "rabi"):
        raise ConfigError("error_axis must be 'detuning' or 'rabi'")
    build, rate, _ = gate_frame(cfg)
    duration = math.pi / rate
    key = "detuning" if error_axis == "detuning" else "rabi_error"
    hams = [build(replace(cfg, **{key: float(err)})) for err in np.asarray(grid, dtype=float)]
    states = evolve_grid(hams, np.array([duration]), ZERO_STATE)
    return 1.0 - np.abs(states[:, 0, 1]) ** 2


def bloch_trajectory(
    cfg: DriveConfig,
    total_angle: float,
    samples_per_pi2: int = 16,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Bloch trace over a long drive with markers at each nominal pi/2.

    The trace runs in the frame and at the nominal rate that
    :func:`gate_frame` picks for ``cfg`` (a dressed drive in the second frame
    at eps_m, any other drive in the first frame at Omega_0), sampled
    ``samples_per_pi2`` times per quarter turn from t = 0. Returns
    ``(times, xyz, is_marker, spread)``: the sample times, their (n, 3) Bloch
    vectors, the mask of the samples at each nominal pi/2 (t = 0 excluded),
    and the spread, the largest pairwise marker distance within any of the
    four quarter-turn classes (markers that ideally coincide). The spread
    takes quadratic time in the marker count, but its differences are formed
    a block of rows at a time, at most ``_SPREAD_BLOCK_BYTES`` each.
    """
    quarter_turns = total_angle / (math.pi / 2.0)
    n_markers = round(quarter_turns)
    if abs(quarter_turns - n_markers) > 1e-9 or n_markers < 1:
        raise ConfigError("total_angle must be a positive multiple of pi/2")
    if samples_per_pi2 < 1:
        raise ConfigError("samples_per_pi2 must be >= 1")
    build, rate, _ = gate_frame(cfg)
    quarter = (math.pi / 2.0) / rate
    steps = np.arange(1, n_markers * samples_per_pi2 + 1) * (quarter / samples_per_pi2)
    amps = evolve_grid([build(cfg)], steps, ZERO_STATE)[0]
    xyz = bloch_vector(normalized(np.concatenate([ZERO_STATE[None], amps])))
    index = np.arange(xyz.shape[0])
    is_marker = (index > 0) & (index % samples_per_pi2 == 0)
    markers, spread = xyz[is_marker], 0.0
    for cls in range(4):
        group = markers[cls::4]
        if len(group) < 2:
            continue
        rows = max(1, _SPREAD_BLOCK_BYTES // (24 * len(group)))  # 24 bytes per difference
        for start in range(0, len(group), rows):
            deltas = group[start:start + rows, None, :] - group[None, :, :]
            spread = max(spread, float(np.sqrt((deltas**2).sum(axis=-1)).max()))
    return np.concatenate([[0.0], steps]), xyz, is_marker, spread


def lattice_times(cfg: DriveConfig, count: int) -> np.ndarray:
    """``count`` sweep times on the modulation-period lattice (0, T, 2T, ...)."""
    return np.arange(count) * cfg.mod_period


def dressed_sequence_experiment(
    kind: str,
    cfg: DriveConfig,
    sweep_values: np.ndarray,
) -> np.ndarray:
    """Spin-up fraction of a dressed-qubit pulse-sequence preset at each sweep value.

    kind = 'ccd_rabi'   : one gate pulse of swept duration;
    kind = 'ccd_ramsey' : pi/2 -- idle(t_c) -- pi/2;
    kind = 'two_axis'   : two pi/2 pulses, the second at swept carrier phase.

    The sweep is one (len(sweep_values), pieces, 3) batch of programs. ``cfg``
    must pass :func:`require_gate_lattice`, which is checked before a gate's
    duration (angle / eps_m) is formed, and swept durations must sit on the
    modulation-period lattice so that every program satisfies the
    segment-boundary rule. Returns an array of shape (len(sweep_values),).
    """
    if kind not in ("ccd_rabi", "ccd_ramsey", "two_axis"):
        raise ConfigError("kind must be ccd_rabi | ccd_ramsey | two_axis")
    require_gate_lattice(cfg)
    sweep = np.asarray(sweep_values, dtype=float)
    eps = cfg.mod_strength
    gate, idle, half_pi = GATE_MOD_PHASE, IDLE_MOD_PHASE, (math.pi / 2.0) / eps
    # (theta_m, phi_mw, duration) of each piece: a scalar or one value per sweep point
    if kind == "ccd_rabi":  # a gate of angle eps_m x lasts (eps_m x) / eps_m; none at x <= 0
        pieces = [(gate, 0.0, np.where(sweep > 0.0, (eps * sweep) / eps, 0.0))]
    elif kind == "ccd_ramsey":
        pieces = [(gate, 0.0, half_pi), (idle, 0.0, sweep), (gate, 0.0, half_pi)]
    else:
        pieces = [(gate, 0.0, half_pi), (gate, sweep, half_pi)]
    columns = [np.broadcast_to(value, sweep.shape) for piece in pieces for value in piece]
    programs = np.stack(columns, axis=-1).reshape(sweep.size, len(pieces), 3)
    return population_up(simulate_program([cfg] * sweep.size, programs))


def noise_average(
    experiment: Callable[[DriveConfig], np.ndarray],
    noise: NoiseSpec,
    cfg: DriveConfig,
) -> np.ndarray:
    """Average ``experiment(shot)`` over the drives of ``noise.shots(cfg)``.

    Shots run one at a time, in draw order, and :func:`shot_mean` averages
    them, so the result is bit-stable across runs on one platform.
    """
    return shot_mean(experiment(shot) for shot in noise.shots(cfg))


def shot_mean(rows: Iterable[np.ndarray]) -> np.ndarray:
    """Mean of one or more rows, summed in draw order from a copy of the first.

    Holds one row at a time. ``np.mean`` and ``np.sum`` would change bits:
    they sum pairwise along some axes, and start from 0, and 0 + (-0.0) is 0.0.
    """
    rows = iter(rows)
    total, count = np.array(next(rows), dtype=float), 1
    for count, row in enumerate(rows, start=2):
        total += row
    return total / count

"""Clifford randomized benchmarking of bare and CCD-driven qubits.

For each sequence length M, K random Clifford strings are drawn, each closed
by the two recovery Cliffords that ideally return the state to spin-up and
to spin-down. The plotted signal is the spin-up-fraction difference between
the two recovery variants, which decays as A (2 F_c - 1)^M from 1 toward 0.
The average single-gate fidelity follows as F = 1 - (1 - F_c) / 1.875.

Gate draws use a counter-based generator keyed on (seed, M, k), so each
sequence is reproducible independently of execution order. CCD gates are
simulated at pulse level in the second rotating frame; primitive propagators
are cached per noise shot, which is exact because every primitive spans an
integer number of modulation periods and the second-frame Hamiltonian is
periodic over one such period.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy.optimize import OptimizeWarning, curve_fit

from .clifford import (
    AVERAGE_PRIMITIVES_PER_CLIFFORD,
    CliffordGate,
    PRIMITIVES,
    clifford_group,
    recovery_clifford,
)
from .drive import DriveConfig, Scheme, first_frame_hamiltonian, second_frame_hamiltonian
from .experiments import NoiseSpec
from .propagator import ROTATING_SPEC, IntegratorSpec, propagator_unitary
from .pulses import GATE_MOD_PHASE

__all__ = ["RBResult", "randomized_benchmarking"]

_ZERO = np.array([1.0, 0.0], dtype=complex)


@dataclass(frozen=True)
class RBResult:
    """Randomized-benchmarking decay data and extracted fidelities."""

    lengths: np.ndarray
    signal: np.ndarray  # mean up/down recovery difference per length
    k_randomizations: int
    clifford_fidelity: float  # F_c
    average_gate_fidelity: float  # F = 1 - (1 - F_c)/1.875
    fit_amplitude: float
    fit_residual: float
    converged: bool
    warnings: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)


def _axis_azimuth(prim) -> float:
    """Equatorial rotation-axis azimuth, folding negative angles."""
    azimuth = prim.drive_azimuth
    return azimuth + math.pi if prim.angle < 0.0 else azimuth


def _primitive_unitaries(
    scheme: Scheme,
    cfg: DriveConfig,
    delta: float,
    rabi_error: float,
    spec: IntegratorSpec,
) -> dict[str, np.ndarray]:
    """Pulse-level propagators of the seven primitives for one error draw."""
    errd = cfg.with_scheme(scheme).with_errors(detuning=delta, rabi_error=rabi_error)
    out = {"I": np.eye(2, dtype=complex)}
    for name, prim in PRIMITIVES.items():
        if prim.axis == "i":
            continue
        angle = abs(prim.angle)
        azimuth = _axis_azimuth(prim)
        if scheme is Scheme.BARE:
            # constant first-frame drive about sigma_azimuth at Omega_0 + error
            duration = angle / errd.rabi
            ham = first_frame_hamiltonian(errd.with_pulse(errd.mod_phase, azimuth))
        else:
            duration = angle / errd.mod_strength
            pulse_cfg = errd.with_pulse(GATE_MOD_PHASE, azimuth - math.pi / 2.0)
            ham = second_frame_hamiltonian(pulse_cfg)
        out[name] = propagator_unitary(ham, 0.0, duration, spec)
    return out


def _clifford_unitaries(primitive_us: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Pulse-level unitary of each Clifford, first primitive applied first."""
    out = []
    for gate in clifford_group():
        u = np.eye(2, dtype=complex)
        for name in gate.decomposition:
            u = primitive_us[name] @ u
        out.append(u)
    return out


def _sequence_indices(seed: int, m: int, k: int) -> np.ndarray:
    gen = Generator(Philox(key=seed & 0xFFFFFFFFFFFFFFFF, counter=[0, 0, m, k]))
    return gen.integers(0, 24, size=m)


def _fit_decay(lengths: np.ndarray, signal: np.ndarray) -> tuple[float, float, float, bool]:
    """Fit A p^M; returns (A, p, residual_rms, converged)."""
    magnitude = np.abs(signal)
    usable = magnitude > 1e-12
    if usable.sum() >= 2:
        slope, intercept = np.polyfit(lengths[usable], np.log(magnitude[usable]), 1)
        p0 = float(np.clip(math.exp(slope), 1e-6, 1.0))
        a0 = float(np.clip(math.exp(intercept), 1e-6, 2.0))
    else:
        p0, a0 = 0.5, 1.0
    try:
        with warnings.catch_warnings():
            # the covariance is unused; single-length runs make it singular
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(
                lambda m, a, p: a * p**m,
                lengths.astype(float),
                signal,
                p0=[a0, p0],
                bounds=([0.0, 0.0], [2.0, 1.0]),
                maxfev=10000,
            )
        a, p = float(popt[0]), float(popt[1])
        converged = True
    except (RuntimeError, ValueError):
        a, p = a0, p0
        converged = False
    residual = float(np.sqrt(np.mean((signal - a * p**lengths) ** 2)))
    return a, p, residual, converged


def randomized_benchmarking(
    scheme: Scheme,
    cfg: DriveConfig,
    m_list: list[int],
    k_randomizations: int,
    noise: NoiseSpec | None = None,
    static_detuning: float = 0.0,
    static_rabi_error: float = 0.0,
    *,
    ideal: bool = False,
    spec: IntegratorSpec = ROTATING_SPEC,
    threads: int | None = None,
) -> RBResult:
    """Run the randomized-benchmarking procedure and fit the decay.

    ``ideal=True`` replaces pulse dynamics with the ideal Clifford matrices
    (engine self-check; errors and noise are then irrelevant). Otherwise CCD
    schemes need eps_m = Omega_0 / (4 n) so that each primitive spans whole
    modulation periods.
    """
    lengths = np.asarray(m_list, dtype=int)
    if lengths.size == 0 or np.any(lengths <= 0) or np.any(np.diff(lengths) <= 0):
        raise ValueError("m_list must be positive and strictly ascending")
    if k_randomizations < 1:
        raise ValueError("need at least one randomization per length")
    noise = noise or NoiseSpec()
    base = cfg.with_scheme(scheme)
    if not ideal and scheme is not Scheme.BARE:
        ratio = base.rabi / (4.0 * base.mod_strength) if base.mod_strength > 0 else 0.0
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(
                "pulse-level CCD benchmarking needs mod_strength = rabi / (4 n)"
            )

    group = clifford_group()
    sequences: list[tuple[int, int, list[CliffordGate], CliffordGate, CliffordGate]] = []
    for m in lengths:
        for k in range(k_randomizations):
            gates = [group[i] for i in _sequence_indices(noise.seed, int(m), k)]
            sequences.append(
                (
                    int(m),
                    k,
                    gates,
                    recovery_clifford(gates, "up"),
                    recovery_clifford(gates, "down"),
                )
            )

    rng = np.random.default_rng(noise.seed)
    # total error per shot: config-borne + static injection + quasi-static draw
    delta_draws = (
        base.detuning
        + static_detuning
        + rng.normal(0.0, noise.sigma_detuning, noise.samples)
    )
    rabi_draws = (
        base.rabi_error
        + static_rabi_error
        + rng.normal(0.0, noise.sigma_rabi_frac * base.rabi, noise.samples)
    )

    def run_shot(shot: int) -> np.ndarray:
        if ideal:
            clifford_us = [g.matrix for g in group]
        else:
            prims = _primitive_unitaries(
                scheme, base, float(delta_draws[shot]), float(rabi_draws[shot]), spec
            )
            clifford_us = _clifford_unitaries(prims)
        diffs = np.empty(len(sequences))
        for idx, (_m, _k, gates, rec_up, rec_down) in enumerate(sequences):
            u = np.eye(2, dtype=complex)
            for gate in gates:
                u = clifford_us[gate.index] @ u
            p_up = abs((clifford_us[rec_up.index] @ u @ _ZERO)[1]) ** 2
            p_down = abs((clifford_us[rec_down.index] @ u @ _ZERO)[1]) ** 2
            diffs[idx] = p_up - p_down
        return diffs

    n_shots = 1 if ideal else noise.samples
    workers = max(1, threads or 1)
    if workers == 1 or n_shots == 1:
        shots = [run_shot(s) for s in range(n_shots)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            shots = list(pool.map(run_shot, range(n_shots)))
    per_sequence = np.zeros(len(sequences))
    for shot in shots:  # ordered reduction, worker-count invariant
        per_sequence += shot
    per_sequence /= n_shots

    matrix = per_sequence.reshape(lengths.size, k_randomizations)
    signal = matrix.mean(axis=1)
    amplitude, p, residual, converged = _fit_decay(lengths, signal)
    f_c = (1.0 + p) / 2.0
    warnings = []
    if not converged:
        warnings.append("decay fit did not converge; log-linear estimate reported")
    if k_randomizations > 1:
        sem = float(matrix[-1].std(ddof=1)) / math.sqrt(k_randomizations)
        if sem > 0.0 and abs(signal[-1]) < 3.0 * sem:
            warnings.append(
                f"signal at M={lengths[-1]} is below 3x its standard error; "
                "increase K or reduce the maximum length"
            )
    return RBResult(
        lengths=lengths,
        signal=signal,
        k_randomizations=k_randomizations,
        clifford_fidelity=f_c,
        average_gate_fidelity=1.0 - (1.0 - f_c) / AVERAGE_PRIMITIVES_PER_CLIFFORD,
        fit_amplitude=amplitude,
        fit_residual=residual,
        converged=converged,
        warnings=tuple(warnings),
        meta={
            "scheme": scheme.label,
            "ideal": ideal,
            "static_detuning": static_detuning,
            "static_rabi_error": static_rabi_error,
            "noise": noise,
            "signal_matrix": matrix,
        },
    )

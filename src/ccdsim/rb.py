"""Clifford randomized benchmarking of bare and CCD-driven qubits.

For each sequence length M, K random Clifford strings are drawn, each closed
by the two recovery Cliffords that ideally return the state to spin-up and
to spin-down. The plotted signal is the spin-up-fraction difference between
the two recovery variants, which decays as A (2 F_c - 1)^M from 1 toward 0.
The average single-gate fidelity follows as F = 1 - (1 - F_c) / 1.875.

Gate draws use a counter-based generator keyed on (seed, M, k), so each
sequence is reproducible independently of execution order; the recovery
Cliffords are read from the group's multiplication table. Gates are
simulated at pulse level in the frame and at the rate that
``drive.gate_frame`` gives. The primitive propagators of all noise shots
come from one ``propagator_grid`` call: four azimuth Hamiltonians per shot,
each evaluated at the pi/2 and the pi duration.

Shots are a batch axis: the Clifford unitaries of all shots form one array,
and for each length the states C|0> of all K strings are carried through
the M gate columns together. Shots run in blocks of ``_SHOT_BLOCK`` to bound
memory and are reduced in shot order, so results do not depend on the block
size. There is no worker pool.

The decay A p^M is fitted by variable projection with numpy alone, with
A in [0, 2] and p in [0, 1]: for each p the best A is a clipped linear
least-squares amplitude, and p comes from a bracketed golden-section search
(``_fit_decay``). A non-finite signal, a single length, or a best amplitude
of 0 (an all-zero or negative signal) leaves p unidentified; the fit then
reports ``converged=False`` with the log-linear estimate, and the result
carries a warning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .clifford import (
    AVERAGE_PRIMITIVES_PER_CLIFFORD,
    PRIMITIVES,
    clifford_group,
    recovery_indices,
)
from .drive import DriveConfig, Scheme, gate_frame
from .experiments import NoiseSpec
from .propagator import ROTATING_SPEC, IntegratorSpec, propagator_grid
from .pulses import GATE_MOD_PHASE, require_gate_lattice

__all__ = ["RBResult", "randomized_benchmarking"]

#: Noise shots composed at once. Each gate step of a block holds the gathered
#: gates and the states, 160 bytes per shot and string.
_SHOT_BLOCK = 16
#: trial decays p on which the RB fit brackets its minimum
_FIT_GRID = np.linspace(0.0, 1.0, 257)
#: width of the bracket at which the golden-section search stops
_FIT_TOLERANCE = 1e-12
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def _primitive_unitaries(
    scheme: Scheme,
    cfg: DriveConfig,
    deltas: np.ndarray,
    rabi_errors: np.ndarray,
    spec: IntegratorSpec,
) -> dict[str, np.ndarray]:
    """Pulse-level propagators of the seven primitives, (shots, 2, 2) each."""
    base = cfg.with_scheme(scheme)
    build, rate, axis_offset = gate_frame(base)
    pulsed = [prim for prim in PRIMITIVES.values() if prim.axis != "i"]
    azimuths = sorted({prim.rotation_azimuth for prim in pulsed})
    angles = sorted({abs(prim.angle) for prim in pulsed})
    shots = [base.with_errors(detuning=d, rabi_error=e) for d, e in zip(deltas, rabi_errors)]
    # theta_m selects the dressed gate drive; the bare first frame ignores it
    hams = [
        build(shot.with_pulse(GATE_MOD_PHASE, azimuth + axis_offset))
        for shot in shots
        for azimuth in azimuths
    ]
    us = propagator_grid(hams, [angle / rate for angle in angles], spec)
    us = us.reshape(len(shots), len(azimuths), len(angles), 2, 2)
    out = {"I": np.broadcast_to(np.eye(2, dtype=complex), (len(shots), 2, 2))}
    for prim in pulsed:
        azimuth, angle = azimuths.index(prim.rotation_azimuth), angles.index(abs(prim.angle))
        out[prim.name] = us[:, azimuth, angle]
    return out


def _clifford_unitaries(primitive_us: dict[str, np.ndarray]) -> np.ndarray:
    """Pulse-level unitary of each Clifford, first primitive applied first.

    The primitives may carry leading batch axes (..., 2, 2); the result is
    (..., 24, 2, 2).
    """
    out = []
    for gate in clifford_group():
        u = primitive_us[gate.decomposition[0]]
        for name in gate.decomposition[1:]:
            u = primitive_us[name] @ u
        out.append(u)
    return np.stack(out, axis=-3)


def _real_form(u: np.ndarray) -> np.ndarray:
    """Unitaries (..., 2, 2) as real weights (..., 4, 4) on real state vectors.

    A state a|0> + b|1> is stored as (Re a, Im a, Re b, Im b), and
    ``w[..., c, r]`` is the weight of input component c in output component r.
    It is not the propagator's Cayley-Klein pair: it updates states, not
    products, and its real arithmetic keeps the shot-block results bit-stable.
    """
    w = np.empty(u.shape[:-2] + (2, 2, 2, 2))  # (input j, re/im, output i, re/im)
    re, im = u.real.swapaxes(-1, -2), u.imag.swapaxes(-1, -2)
    w[..., 0, :, 0] = re
    w[..., 1, :, 1] = re
    w[..., 0, :, 1] = im
    w[..., 1, :, 0] = -im
    return w.reshape(u.shape[:-2] + (4, 4))


def _apply(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Real-form product over the leading axes (see ``_real_form``).

    Elementwise real multiplies and adds in a fixed order compute every value
    by the same correctly rounded operations whatever the array shapes, so
    the result cannot depend on the shot block. Complex multiplies and
    matmul leave fused multiply-adds to the SIMD or BLAS kernel.
    """
    return (
        w[..., 0, :] * x[..., 0:1]
        + w[..., 1, :] * x[..., 1:2]
        + w[..., 2, :] * x[..., 2:3]
        + w[..., 3, :] * x[..., 3:4]
    )


def _sequence_indices(seed: int, m: int, k: int) -> np.ndarray:
    gen = Generator(Philox(key=seed & 0xFFFFFFFFFFFFFFFF, counter=[0, 0, m, k]))
    return gen.integers(0, 24, size=m)


def _projected_fit(p: np.ndarray, m: np.ndarray, signal: np.ndarray):
    """Best amplitude A in [0, 2] and squared residual for each trial decay p.

    For a fixed p the model A p^M is linear in A, so the best A is the
    least-squares amplitude clipped to its bounds; where every p^M underflows
    to 0, A is 0.
    """
    model = p[:, None] ** m
    norm = np.einsum("ij,ij->i", model, model)
    overlap = model @ signal
    ratio = np.divide(overlap, norm, out=np.zeros_like(overlap), where=norm > 0.0)
    amplitude = np.clip(ratio, 0.0, 2.0)
    return amplitude, ((signal - amplitude[:, None] * model) ** 2).sum(axis=1)


def _search_decay(m: np.ndarray, signal: np.ndarray) -> tuple[float, float]:
    """(A, p) of least squared residual, p in [0, 1], A from ``_projected_fit``.

    The best point of ``_FIT_GRID`` brackets the minimum, a golden-section
    search narrows the bracket to ``_FIT_TOLERANCE``, and the best p
    evaluated, bracket ends included, is returned.
    """

    def cost(p: float) -> float:
        return _projected_fit(np.array([p]), m, signal)[1][0]

    best = int(np.argmin(_projected_fit(_FIT_GRID, m, signal)[1]))
    lo, hi = _FIT_GRID[max(best - 1, 0)], _FIT_GRID[min(best + 1, _FIT_GRID.size - 1)]
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    c1, c2 = cost(x1), cost(x2)
    while hi - lo > _FIT_TOLERANCE:
        if c1 <= c2:  # the minimum lies in [lo, x2]
            hi, x2, c2 = x2, x1, c1
            x1 = hi - _GOLDEN * (hi - lo)
            c1 = cost(x1)
        else:  # the minimum lies in [x1, hi]
            lo, x1, c1 = x1, x2, c2
            x2 = lo + _GOLDEN * (hi - lo)
            c2 = cost(x2)
    candidates = np.array([lo, x1, x2, hi])
    amplitudes, costs = _projected_fit(candidates, m, signal)
    pick = int(np.argmin(costs))
    return float(amplitudes[pick]), float(candidates[pick])


def _fit_decay(lengths: np.ndarray, signal: np.ndarray) -> tuple[float, float, float, bool]:
    """Fit A p^M with A in [0, 2] and p in [0, 1]; returns (A, p, residual_rms, converged).

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973):
    ``_projected_fit`` eliminates the amplitude and ``_search_decay`` searches
    p. p is not identified by a non-finite signal, by a single length, or
    when the best amplitude is 0 (an all-zero or negative signal); the
    log-linear estimate is then returned with ``converged=False``.
    """
    a = 0.0
    if lengths.size >= 2 and np.all(np.isfinite(signal)):
        a, p = _search_decay(lengths.astype(float), signal)
    converged = a > 0.0
    if not converged:  # the log-linear estimate
        magnitude = np.abs(signal)
        usable = np.isfinite(magnitude) & (magnitude > 1e-12)
        if usable.sum() >= 2:
            slope, intercept = np.polyfit(lengths[usable], np.log(magnitude[usable]), 1)
            # capped before exp: a steep drop between two long lengths overflows it
            p = float(np.clip(math.exp(min(slope, 0.0)), 1e-6, 1.0))
            a = float(np.clip(math.exp(min(intercept, math.log(2.0))), 1e-6, 2.0))
        else:
            a, p = 1.0, 0.5
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
) -> RBResult:
    """Run the randomized-benchmarking procedure and fit the decay.

    ``ideal=True`` replaces pulse dynamics with the ideal Clifford matrices
    (engine self-check; errors and noise are then irrelevant). Otherwise a
    dressed drive needs eps_m = Omega_0 / (4 n) so that each primitive spans
    whole modulation periods; any other drive (a CCD scheme at eps_m = 0
    included) gates the bare qubit. All noise shots are composed as one batch.
    """
    lengths = np.asarray(m_list, dtype=int)
    if lengths.size == 0 or np.any(lengths <= 0) or np.any(np.diff(lengths) <= 0):
        raise ValueError("m_list must be positive and strictly ascending")
    if k_randomizations < 1:
        raise ValueError("need at least one randomization per length")
    noise = noise or NoiseSpec()
    base = cfg.with_scheme(scheme)
    if not ideal and base.dressed:
        require_gate_lattice(base)

    strings = [
        np.array([_sequence_indices(noise.seed, int(m), k) for k in range(k_randomizations)])
        for m in lengths
    ]
    recoveries = [(recovery_indices(s, "up"), recovery_indices(s, "down")) for s in strings]

    # total error per shot: config-borne + static injection + quasi-static draw
    deltas, rabi_errors = noise.draws(base.rabi)
    delta_draws = base.detuning + static_detuning + deltas
    rabi_draws = base.rabi_error + static_rabi_error + rabi_errors
    if ideal:
        clifford_us = np.stack([g.matrix for g in clifford_group()])[None]
    else:
        primitives = _primitive_unitaries(scheme, base, delta_draws, rabi_draws, spec)
        clifford_us = _clifford_unitaries(primitives)
    weights = _real_form(clifford_us)  # (shots, 24, 4, 4)

    zero = np.array([1.0, 0.0, 0.0, 0.0])
    matrix = np.zeros((lengths.size, k_randomizations))
    for first in range(0, len(weights), _SHOT_BLOCK):
        block = weights[first : first + _SHOT_BLOCK]
        shot = np.arange(len(block))[:, None]
        for row, string, (up, down) in zip(matrix, strings, recoveries):
            state = np.broadcast_to(zero, (len(block), k_randomizations, 4))
            for column in string.T:
                state = _apply(block[shot, column], state)
            final_up = _apply(block[shot, up], state)
            final_down = _apply(block[shot, down], state)
            diffs = (final_up[..., 2] ** 2 + final_up[..., 3] ** 2) - (
                final_down[..., 2] ** 2 + final_down[..., 3] ** 2
            )
            for diff in diffs:  # shot order, whatever the block size
                row += diff
    matrix /= len(weights)

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

"""Clifford randomized benchmarking of bare and CCD-driven qubits.

For each sequence length M, K random Clifford strings are drawn, each closed
by the two recovery Cliffords that ideally return the state to spin-up and
to spin-down. The plotted signal is the spin-up-fraction difference between
the two recovery variants, which decays as A (2 F_c - 1)^M from 1 toward 0.
The average single-gate fidelity follows as F = 1 - (1 - F_c) / 1.875.

Gate draws use a counter-based generator keyed on (seed, M, k), so each
sequence is reproducible independently of execution order; the recovery
Cliffords are read from the exact integer tables of ``clifford``. Gates are
simulated at pulse level in the frame and at the rate that
``drive.gate_frame`` gives. Each noise shot is a drive from
``NoiseSpec.shots``, so a static error is the drive's own detuning or Rabi
error, and a noiseless run is one shot. The primitive propagators of all
shots come from ``pulses.piece_propagators``, the rule that pulse programs
use too: one gate drive per shot, integrated at the frame's axis offset for
the pi/2 and the pi duration with the propagator's default step, and turned
about z to each primitive's azimuth.

Shots are a batch axis: the Clifford unitaries of all shots form one array
of Bloch-sphere rotations, and for each length the Bloch vectors C|0> of
all K strings are carried through the M gate columns together; of each
recovery only the z-row is read. Shots run in blocks of at most
``_BLOCK_BYTES`` per gate step, which bounds memory whatever the shot count;
``_signal_matrix`` is elementwise and reduces blocks in shot order, so
results do not depend on the block size.

The decay A p^M is fitted by variable projection with numpy alone, with
A in [0, 2] and p in [0, 1]: for each p the best A is a clipped linear
least-squares amplitude, and p comes from a bracketed golden-section search
(``_fit_decay``). A non-finite signal, a single length, or a best amplitude
of 0 (an all-zero or negative signal) leaves p unidentified; the fit then
reports ``converged=False`` with the log-linear estimate, and the result
carries a warning. With fewer than two usable lengths there is no estimate
at all: the fit reports the placeholder (A, p) = (1, 0.5), and the warning
says so.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import (
    _DECOMPOSITIONS,
    AVERAGE_PRIMITIVES_PER_CLIFFORD,
    PRIMITIVES,
    ROTATIONS,
    _recovery_table,
    composed_indices,
)
from .drive import DriveConfig, gate_frame
from .errors import ConfigError
from .experiments import NoiseSpec, _numpy_random
from .pulses import GATE_MOD_PHASE, piece_propagators, require_gate_lattice

__all__ = ["RBResult", "randomized_benchmarking"]

#: Bytes one gate step of a shot block may hold: the gathered rotations and the
#: Bloch vectors, 96 bytes per shot and string, so a block holds this // (96 K) shots.
_BLOCK_BYTES = 1 << 20
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
    clifford_fidelity: float  # F_c
    average_gate_fidelity: float  # F = 1 - (1 - F_c)/1.875
    fit_amplitude: float
    fit_residual: float
    converged: bool
    warnings: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)


def _primitive_unitaries(shots: list[DriveConfig]) -> dict[str, np.ndarray]:
    """Pulse-level propagators of the seven primitives, (shots, 2, 2) each.

    Every shot drive gates in the frame and at the rate of the first, and the
    primitive about azimuth phi is the gate pulse at phi_mw = phi + phi_0, with
    phi_0 the frame's axis offset: ``piece_propagators`` at reference phi_0.
    The x axis is at azimuth 0 and the y axis at pi/2; a negative angle is
    realized as a positive rotation by |angle| about the opposite azimuth, phi + pi.
    """
    build, rate, axis_offset = gate_frame(shots[0])
    pulsed = [row for row in PRIMITIVES if row[1] != "i"]
    # theta_m selects the dressed gate drive; the bare first frame ignores it
    pieces = []
    for _, axis, angle in pulsed:
        azimuth = (0.0 if axis == "x" else math.pi / 2) + (math.pi if angle < 0.0 else 0.0)
        pieces.append((GATE_MOD_PHASE, azimuth + axis_offset, abs(angle) / rate))
    us = piece_propagators(shots, pieces, build, axis_offset)
    out = {"I": np.broadcast_to(np.eye(2, dtype=complex), (len(shots), 2, 2))}
    out.update((name, us[:, index]) for index, (name, _, _) in enumerate(pulsed))
    return out


def _clifford_unitaries(primitive_us: dict[str, np.ndarray]) -> np.ndarray:
    """Pulse-level unitary of each Clifford, first primitive applied first.

    The primitives may carry leading batch axes (..., 2, 2); the result is
    (..., 24, 2, 2).
    """
    out = []
    for names in _DECOMPOSITIONS:
        u = primitive_us[names[0]]
        for name in names[1:]:
            u = primitive_us[name] @ u
        out.append(u)
    return np.stack(out, axis=-3)


def _bloch_rotations(us: np.ndarray) -> np.ndarray:
    """SO(3) forms R_ij = tr(sigma_i U sigma_j U^dagger) / 2 of (shots, 24, 2, 2) unitaries.

    They are returned as (24, 3, 3, shots), so a gather of gates by index
    takes contiguous slabs; a global phase of U drops out.
    """
    (u00, u01), (u10, u11) = np.moveaxis(us, (-2, -1), (0, 1))
    p, q, r, s = u11 * u00.conj(), u10 * u01.conj(), u10 * u00.conj(), u11 * u01.conj()
    t = u00 * u01.conj() - u10 * u11.conj()
    zz = (abs(u00) ** 2 - abs(u01) ** 2 - abs(u10) ** 2 + abs(u11) ** 2) / 2.0
    rows = [(p + q).real, (q - p).imag, (r - s).real, (p + q).imag, (p - q).real,
            (r - s).imag, t.real, t.imag, zz]
    return np.ascontiguousarray(np.reshape(rows, (3, 3) + us.shape[:-2]).transpose(3, 0, 1, 2))


def _signal_matrix(rotations: np.ndarray, strings: list[np.ndarray]) -> np.ndarray:
    """Shot mean of each string's up/down recovery difference, (lengths, K),
    from the (24, 3, 3, shots) Bloch rotations of the Cliffords.

    Each string is composed once on the multiplication table and read at
    both recoveries. Its Bloch vector, spin-down |0> at z = +1, is carried
    through the gate columns of all K strings together; the difference of
    spin-up fractions is (z_down - z_up) / 2. Shots run in blocks of at most
    ``_BLOCK_BYTES`` per gate step. Every three-term sum is written out
    elementwise, left to right: a reduction or a SIMD kernel could change its
    order with the block shape, and the blocks are reduced in shot order, so
    results do not depend on the block size.
    """
    shots, k = rotations.shape[-1], strings[0].shape[0]
    recoveries = [_recovery_table()[:, composed_indices(s)] for s in strings]  # (down, up)
    matrix = np.zeros((len(strings), k))
    block_shots = max(1, _BLOCK_BYTES // (96 * k))
    for first in range(0, shots, block_shots):
        block = np.ascontiguousarray(rotations[..., first : first + block_shots])
        for row, string, recovery in zip(matrix, strings, recoveries):
            v = block[string[:, 0], :, 2]  # (K, 3, shot): the first gate's image of +z
            for column in string.T[1:]:
                g = block[column]
                v = (g[:, :, 0] * v[:, None, 0] + g[:, :, 1] * v[:, None, 1]
                     + g[:, :, 2] * v[:, None, 2])
            down, up = block[recovery, 2]  # the z-rows of the recoveries
            z_down = down[:, 0] * v[:, 0] + down[:, 1] * v[:, 1] + down[:, 2] * v[:, 2]
            z_up = up[:, 0] * v[:, 0] + up[:, 1] * v[:, 1] + up[:, 2] * v[:, 2]
            for diff in ((z_down - z_up) / 2.0).T:  # shot order, whatever the block size
                row += diff
    return matrix / shots


def _sequence_indices(seed: int, m: int, k: int) -> np.ndarray:
    random = _numpy_random()
    bits = random.Philox(key=seed, counter=[0, 0, m, k])
    return random.Generator(bits).integers(0, 24, size=m)


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


def _fit_decay(lengths: np.ndarray, signal: np.ndarray) -> tuple[float, float, float, str | None]:
    """Fit A p^M with A in [0, 2] and p in [0, 1]; returns (A, p, residual_rms, warning).

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973):
    ``_projected_fit`` eliminates the amplitude and ``_search_decay`` searches
    p. ``warning`` is None when the fit converged. p is not identified by a
    non-finite signal, by a single length, or when the best amplitude is 0
    (an all-zero or negative signal); the log-linear estimate is then
    returned with a warning, or, with fewer than two usable lengths, the
    placeholder (1, 0.5) with a warning that no estimate exists.
    """
    a = 0.0
    if lengths.size >= 2 and np.all(np.isfinite(signal)):
        a, p = _search_decay(lengths.astype(float), signal)
    warning = None
    if not a > 0.0:  # the log-linear estimate
        magnitude = np.abs(signal)
        usable = np.isfinite(magnitude) & (magnitude > 1e-12)
        if usable.sum() >= 2:
            slope, intercept = np.polyfit(lengths[usable], np.log(magnitude[usable]), 1)
            # capped before exp: a steep drop between two long lengths overflows it
            p = float(np.clip(math.exp(min(slope, 0.0)), 1e-6, 1.0))
            a = float(np.clip(math.exp(min(intercept, math.log(2.0))), 1e-6, 2.0))
            warning = "decay fit did not converge; log-linear estimate reported"
        else:
            a, p = 1.0, 0.5
            warning = (
                "decay fit did not converge: fewer than two usable lengths, so no decay "
                "estimate exists; the fidelity and fit fields are placeholders"
            )
    residual = float(np.sqrt(np.mean((signal - a * p**lengths) ** 2)))
    return a, p, residual, warning


def randomized_benchmarking(
    cfg: DriveConfig,
    m_list: list[int],
    k_randomizations: int,
    noise: NoiseSpec | None = None,
    *,
    ideal: bool = False,
) -> RBResult:
    """Run the randomized-benchmarking procedure on the drive ``cfg`` and fit the decay.

    The drive's modulation ratios are its scheme (``cfg.with_scheme`` switches
    it). ``ideal=True`` replaces pulse dynamics with the exact Clifford
    rotations ``ROTATIONS`` as one shot (engine self-check: the signal is
    exactly 1; errors and noise are then irrelevant). Otherwise a
    dressed drive needs eps_m = Omega_0 / (4 n) so that each primitive spans
    whole modulation periods; any other drive (a CCD scheme at eps_m = 0
    included) gates the bare qubit. Static errors are those of ``cfg``
    (``cfg.with_errors(...)``); the shots of ``noise.shots`` add their draws
    to them and are composed as one batch.
    """
    lengths = np.asarray(m_list, dtype=int)
    if lengths.size == 0 or np.any(lengths <= 0) or np.any(np.diff(lengths) <= 0):
        raise ConfigError("m_list must be positive and strictly ascending")
    if k_randomizations < 1:
        raise ConfigError("need at least one randomization per length")
    noise = noise or NoiseSpec()
    if not ideal and cfg.dressed:
        require_gate_lattice(cfg)

    strings = [
        np.array([_sequence_indices(noise.seed, int(m), k) for k in range(k_randomizations)])
        for m in lengths
    ]
    if ideal:
        rotations = ROTATIONS.astype(float)[..., None]
    else:
        rotations = _bloch_rotations(_clifford_unitaries(_primitive_unitaries(noise.shots(cfg))))
    matrix = _signal_matrix(rotations, strings)

    signal = matrix.mean(axis=1)
    amplitude, p, residual, fit_warning = _fit_decay(lengths, signal)
    f_c = (1.0 + p) / 2.0
    warnings = [] if fit_warning is None else [fit_warning]
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
        clifford_fidelity=f_c,
        average_gate_fidelity=1.0 - (1.0 - f_c) / AVERAGE_PRIMITIVES_PER_CLIFFORD,
        fit_amplitude=amplitude,
        fit_residual=residual,
        converged=fit_warning is None,
        warnings=tuple(warnings),
        meta={"signal_matrix": matrix},
    )

"""Code that only the tests reach: oracles and helpers of the drive model.

``first_frame_coefficients`` and ``second_frame_coefficients`` are the
closures the rotating-frame builders returned before their coefficients
became data (``drive.FrameCoefficients``); the batch evaluator must match
``np.stack`` of them bit for bit. The frame unitaries, the frame transforms
of (2,) states and ``state_fidelity`` check the drive model itself,
``clifford_sequence_program`` is the piece-by-piece oracle of the RB
primitives, ``per_piece_oracle`` steps each piece of a program under its
own drive, the oracle of ``pulses.piece_propagators``, and ``program_loop``
is ``pulses.simulate_program`` as a 2x2 ``@`` per piece per program, whose
bits the composition over programs must keep. ``pairwise_spread`` is the
trajectory marker spread from the full pairwise difference array, whose bits
the blocked reduction must keep. ``su2_exp``,
``product``, ``tree_product`` and ``lab_coefficients`` are the step kernel
as it was before it wrote into preallocated arrays: the propagator's kernel
and the lab-frame coefficients must match them bit for bit. ``real_form_signal_matrix`` is the RB string
composition as it was before it moved to Bloch vectors: 4x4 real forms of
SU(2) acting on 4-component states, each recovery found by its own
composition of the string. ``recovery_indices`` gives those recoveries for
a whole array of strings, from the recovery table that ``rb`` reads.
``clifford_group`` (2x2 unitaries, equal up to a global phase) and
``recovery_clifford`` (a search over them) are the reference implementations
of the exact rotation tables of ``clifford``.
``clifford``, ``one_state`` and ``plus_state`` are lookups only the tests
use. ``scalar_normalized``, ``scalar_bloch_vector`` and
``scalar_population_up`` are the one-state readout as it was before it took
arrays: the array rules of ``qubit`` must match their bits (x and y and the
normalized amplitudes) or come within 1 ulp (z and p_up).
"""
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ccdsim.clifford import _DECOMPOSITIONS, PRIMITIVES, _recovery_table, composed_indices
from ccdsim.drive import (
    DriveConfig,
    counter_rotating_coefficient,
    first_frame_hamiltonian,
    second_frame_hamiltonian,
)
from ccdsim.propagator import ROTATING_SPEC, evolve
from ccdsim.pulses import GATE_MOD_PHASE, piece_propagators
from ccdsim.qubit import IDENTITY, ZERO_STATE, normalized, rotation

#: (axis, angle) of each primitive by name
PRIMITIVE_AXES = {name: (axis, angle) for name, axis, angle in PRIMITIVES}


@dataclass(frozen=True)
class CliffordGate:
    """One Clifford group element with its pulse decomposition."""

    index: int
    decomposition: tuple[str, ...]
    matrix: np.ndarray


@functools.lru_cache(maxsize=1)
def clifford_group() -> tuple[CliffordGate, ...]:
    """The 24 Cliffords as 2x2 unitaries: each primitive turns by its angle
    about x (azimuth 0) or y (pi/2), first primitive applied first."""
    gates = []
    for index, names in enumerate(_DECOMPOSITIONS):
        u = IDENTITY.copy()
        for axis, angle in (PRIMITIVE_AXES[name] for name in names):
            if axis != "i":
                u = rotation(0.0 if axis == "x" else math.pi / 2, angle) @ u
        gates.append(CliffordGate(index, names, u))
    return tuple(gates)


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-9) -> bool:
    """True when a = exp(i gamma) b for some global phase gamma."""
    return bool(abs(abs(np.trace(a.conj().T @ b)) - 2.0) <= atol)


def compose_cliffords(gates: list[CliffordGate]) -> np.ndarray:
    """Ideal composed matrix, first gate applied first."""
    u = IDENTITY.copy()
    for gate in gates:
        u = gate.matrix @ u
    return u


def recovery_clifford(applied: list[CliffordGate], target: str) -> CliffordGate:
    """The lowest-index Clifford returning |0> through ``applied`` to ``target``,
    "up" (|1>) or "down" (|0>), by a search over the 2x2 group."""
    if target not in ("up", "down"):
        raise ValueError("target must be 'up' or 'down'")
    if not applied:
        raise ValueError("applied sequence must be non-empty")
    state = compose_cliffords(applied) @ np.array([1.0, 0.0], dtype=complex)
    component = 1 if target == "up" else 0
    return next(
        gate for gate in clifford_group() if abs((gate.matrix @ state)[component]) >= 1.0 - 1e-9
    )


def clifford(index: int) -> CliffordGate:
    if not 0 <= index < 24:
        raise ValueError(f"Clifford index must be in [0, 24), got {index}")
    return clifford_group()[index]


def one_state() -> np.ndarray:
    return normalized(np.array([0.0, 1.0], dtype=complex))


def plus_state() -> np.ndarray:
    return normalized(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))


def state_fidelity(a, b) -> float:
    """Overlap fidelity |<b|a>|^2 of two (2,) states; invariant under global phases."""
    return float(np.abs(np.vdot(b, a)) ** 2)


def scalar_normalized(amps) -> np.ndarray:
    """One state's amplitudes divided by ``np.linalg.norm`` (no tolerance check)."""
    amps = np.asarray(amps, dtype=complex).reshape(2)
    return amps / float(np.linalg.norm(amps))


def scalar_bloch_vector(amps) -> tuple[float, float, float]:
    """(x, y, z) of one state from complex scalars."""
    a0, a1 = np.asarray(amps, dtype=complex).reshape(2)
    cross = a0.conjugate() * a1
    return float(2.0 * cross.real), float(2.0 * cross.imag), float(abs(a0) ** 2 - abs(a1) ** 2)


def scalar_population_up(amps) -> float:
    return float(np.abs(np.asarray(amps, dtype=complex).reshape(2)[1]) ** 2)


def matrix(ham, t):
    """The Hermitian matrix of ``ham`` at time ``t``."""
    hx, hy, hz = np.asarray(ham.coefficients(np.asarray(t, dtype=float)))
    return np.array([[hz, hx - 1j * hy], [hx + 1j * hy, -hz]], dtype=complex)


def su2_exp(coeffs, dt):
    """The Cayley-Klein pair of exp(-i dt (c . sigma)), through np.sinc and complex arithmetic."""
    c = np.asarray(coeffs, dtype=float)
    r = np.sqrt(np.einsum("...i,...i->...", c, c))
    theta = r * dt
    f = dt * np.sinc(theta / np.pi)
    return np.cos(theta) - 1j * (f * c[..., 2]), f * c[..., 1] - 1j * (f * c[..., 0])


def product(late, early):
    """The Cayley-Klein pair of late @ early, each part in one expression."""
    (a1, b1), (a2, b2) = late, early
    return a1 * a2 - np.conj(b1) * b2, b1 * a2 + np.conj(a1) * b2


def tree_product(u):
    """Pair of u[..., -1] ... u[..., 0], stacking (a, b) into one array at every tree level."""
    u = np.asarray(u)
    while u.shape[-1] > 1:
        even = u.shape[-1] - u.shape[-1] % 2
        pairs = np.asarray(product(u[..., 1:even:2], u[..., :even:2]))
        u = np.concatenate([pairs, u[..., even:]], axis=-1)
    return u[..., 0]


def lab_coefficients(cfg):
    """Lab-frame coefficients, the drive term evaluated into a new array and then copied."""

    def drive(t):
        sin_m = np.sin(cfg.rabi * t - cfg.mod_phase)
        phase_mod = -(2.0 * cfg.alpha_P * cfg.mod_strength / cfg.rabi) * sin_m
        carrier = cfg.omega_mw * t + cfg.mw_phase + phase_mod
        wave = np.cos(carrier)
        if cfg.alpha_A != 0.0:
            amp_mod = (2.0 * cfg.alpha_A * cfg.mod_strength / cfg.rabi) * sin_m
            wave += amp_mod * np.sin(carrier)
        return (cfg.rabi + cfg.rabi_error) * wave

    def coeffs(t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (3,))
        out[..., 0] = drive(t)
        out[..., 1] = 0.0
        out[..., 2] = cfg.omega_L / 2.0
        return out

    return coeffs


def first_frame_coefficients(cfg):
    """Per-member first-frame coefficients, as one closure over the drive."""
    half_delta = cfg.detuning / 2.0
    half_rabi = (cfg.rabi + cfg.rabi_error) / 2.0
    amp_scale = (1.0 + cfg.rabi_error / cfg.rabi) * cfg.alpha_A * cfg.mod_strength
    phase_scale = cfg.alpha_P * cfg.mod_strength
    cos_par, sin_par = math.cos(cfg.mw_phase), math.sin(cfg.mw_phase)
    cos_perp, sin_perp = -sin_par, cos_par

    def coeffs(t):
        t = np.asarray(t, dtype=float)
        m = cfg.rabi * t - cfg.mod_phase
        perp = -amp_scale * np.sin(m)
        out = np.empty(t.shape + (3,))
        out[..., 0] = half_rabi * cos_par + perp * cos_perp
        out[..., 1] = half_rabi * sin_par + perp * sin_perp
        out[..., 2] = half_delta + phase_scale * np.cos(m)
        return out

    return coeffs


def second_frame_coefficients(cfg):
    """Per-member second-frame coefficients, as one closure over the drive."""
    half_delta = cfg.detuning / 2.0
    half_err = cfg.rabi_error / 2.0
    co = (cfg.alpha_P + (1.0 + cfg.rabi_error / cfg.rabi) * cfg.alpha_A) * (
        cfg.mod_strength / 2.0
    )
    counter = counter_rotating_coefficient(cfg)
    cos_par, sin_par = math.cos(cfg.mw_phase), math.sin(cfg.mw_phase)
    cos_perp, sin_perp = -sin_par, cos_par
    co_z = co * math.cos(cfg.mod_phase)
    co_perp = co * math.sin(cfg.mod_phase)

    def coeffs(t):
        t = np.asarray(t, dtype=float)
        rabi_angle = cfg.rabi * t
        counter_angle = 2.0 * rabi_angle - cfg.mod_phase
        perp = half_delta * np.sin(rabi_angle) + co_perp + counter * np.sin(counter_angle)
        hz = half_delta * np.cos(rabi_angle) + co_z + counter * np.cos(counter_angle)
        out = np.empty(t.shape + (3,))
        out[..., 0] = half_err * cos_par + perp * cos_perp
        out[..., 1] = half_err * sin_par + perp * sin_perp
        out[..., 2] = hz
        return out

    return coeffs


def first_frame_phase(cfg, t):
    """Accumulated frame angle Phi(t) of the first rotating frame.

    Closed-form integral of omega_mw/2 - alpha_P eps_m cos(Omega_0 t' - theta_m)
    from 0 to t; Phi(0) = 0 so the frame unitary starts at the identity.
    """
    phase = cfg.omega_mw * t / 2.0
    if cfg.alpha_P > 0.0 and cfg.mod_strength > 0.0:
        phase -= (cfg.alpha_P * cfg.mod_strength / cfg.rabi) * (
            math.sin(cfg.rabi * t - cfg.mod_phase) + math.sin(cfg.mod_phase)
        )
    return phase


def first_frame_unitary(cfg, t):
    """Frame unitary exp(-i Phi(t) sigma_z) of the first rotating frame."""
    phase = np.exp(-1j * first_frame_phase(cfg, t))
    return np.array([[phase, 0.0], [0.0, phase.conjugate()]], dtype=complex)


def second_frame_unitary(cfg, t):
    """Frame unitary exp(-i (Omega_0 t / 2) sigma_{phi_mw}) of the second frame."""
    return rotation(cfg.mw_phase, cfg.rabi * t)


def to_first_frame(state, cfg, t):
    """Map a lab-frame (2,) state at time t into the first rotating frame."""
    return first_frame_unitary(cfg, t).conj().T @ state


def from_first_frame(state, cfg, t):
    return first_frame_unitary(cfg, t) @ state


def to_second_frame(state, cfg, t):
    """Map a first-frame (2,) state at time t into the second rotating frame."""
    return second_frame_unitary(cfg, t).conj().T @ state


def from_second_frame(state, cfg, t):
    return second_frame_unitary(cfg, t) @ state


def clifford_sequence_program(gates: list[CliffordGate], cfg: DriveConfig) -> np.ndarray:
    """Compile a Clifford sequence to the (n, 3) pieces of a dressed-qubit pulse program.

    Negative-angle primitives are realized as positive rotations about the
    opposite axis (phi_mw shifted by pi); identity primitives are dropped
    (zero duration). The drive azimuth is offset by -pi/2 because the dressed
    drive axis sits at phi_mw + pi/2. A gate of angle theta lasts theta / eps_m.
    """
    pieces = []
    for name in (name for gate in gates for name in gate.decomposition):
        axis, angle = PRIMITIVE_AXES[name]
        if axis != "i":
            azimuth = (0.0 if axis == "x" else math.pi / 2) + (math.pi if angle < 0.0 else 0.0)
            pieces.append((GATE_MOD_PHASE, azimuth - math.pi / 2.0, abs(angle) / cfg.mod_strength))
    return np.array(pieces, dtype=float).reshape(-1, 3)


def per_piece_oracle(cfg: DriveConfig, pieces, frame: str, spec=ROTATING_SPEC) -> np.ndarray:
    """Final state of the program ``pieces`` (n, 3) from |0>: stepped evolve of
    each piece under its own drive ``cfg.with_pulse(theta_m, phi_mw)``, from its
    start to its end time, with the Hamiltonian's period cleared so that no
    lattice path applies."""
    build = first_frame_hamiltonian if frame == "first" else second_frame_hamiltonian
    state, t = ZERO_STATE, 0.0
    for theta, phi, duration in np.asarray(pieces, dtype=float).tolist():
        if duration > 0.0:
            drive = cfg.with_pulse(theta, phi)
            state = evolve(replace(build(drive), period=math.inf), state, t, t + duration, spec)
        t += duration
    return state


def program_loop(drives, programs, psi0=ZERO_STATE) -> np.ndarray:
    """``simulate_program`` as it was before it composed over programs: each
    program lowered to its pieces on a Python clock, the distinct pieces and
    drives integrated in one ``piece_propagators`` call, and a 2x2 ``@`` per
    piece per program; the final amplitudes are not renormalized."""
    lowered = []
    for cfg, program in zip(drives, np.asarray(programs, dtype=float).tolist()):
        pieces, t = [], 0.0
        for theta, phi, duration in program:
            t_end = t + duration
            if duration > 0.0:
                pieces.append((theta, phi, t_end - t))
            t = t_end
        lowered.append(pieces)
    index = {cfg: i for i, cfg in enumerate(dict.fromkeys(drives))}
    column = {piece: j for j, piece in enumerate(dict.fromkeys(p for ps in lowered for p in ps))}
    us = piece_propagators(list(index), list(column), second_frame_hamiltonian, 0.0)
    start = normalized(psi0)
    finals = np.empty((len(lowered), 2), dtype=complex)
    for i, (cfg, pieces) in enumerate(zip(drives, lowered)):
        amps, row = start, us[index[cfg]]
        for piece in pieces:
            amps = row[column[piece]] @ amps
        finals[i] = amps
    return finals


def pairwise_spread(markers: np.ndarray) -> float:
    """The largest pairwise distance within each of the four quarter-turn
    classes of ``markers`` (n, 3), from the full (m, m, 3) difference array of
    each class."""
    spread = 0.0
    for cls in range(4):
        group = markers[cls::4]
        if len(group) < 2:
            continue
        deltas = group[:, None, :] - group[None, :, :]
        spread = max(spread, float(np.sqrt((deltas**2).sum(axis=-1)).max()))
    return spread


def real_form(u):
    """Unitaries (..., 2, 2) as real weights (4, 4, ...) on real state vectors.

    A state a|0> + b|1> is stored as (Re a, Im a, Re b, Im b) on its leading
    axis, and ``w[c, r]`` is the weight of input component c in output
    component r; the batch axes come last.
    """
    w = np.empty((2, 2, 2, 2) + u.shape[:-2])  # (input j, re/im, output i, re/im, ...)
    re, im = np.moveaxis(u.real, (-1, -2), (0, 1)), np.moveaxis(u.imag, (-1, -2), (0, 1))
    w[:, 0, :, 0] = re
    w[:, 1, :, 1] = re
    w[:, 0, :, 1] = im
    w[:, 1, :, 0] = -im
    return w.reshape((4, 4) + u.shape[:-2])


def apply_real_form(w, x):
    """Real-form product over the trailing axes (see ``real_form``)."""
    return w[0] * x[0] + w[1] * x[1] + w[2] * x[2] + w[3] * x[3]


def recovery_indices(strings: np.ndarray, target: str) -> np.ndarray:
    """``recovery_clifford`` for each row of a (K, M) array of Clifford indices.

    The recovery of each ``composed_indices`` entry is read from a 24-entry
    table built with ``recovery_clifford``, so the lowest-index rule is the
    same.
    """
    if target not in ("up", "down"):
        raise ValueError("target must be 'up' or 'down'")
    return _recovery_table()[1 if target == "up" else 0, composed_indices(strings)]


def real_form_signal_matrix(clifford_us, strings):
    """The shot mean of P_up(up recovery) - P_up(down recovery) for every string,
    (lengths, K), from the Clifford unitaries (shots, 24, 2, 2), all shots at once."""
    weights = real_form(clifford_us)  # (4, 4, shots, 24)
    shots, k = weights.shape[2], strings[0].shape[0]
    # gate g of shot s sits at 24 s + g; np.take gathers (4, 4, shot, string)
    shot, block = 24 * np.arange(shots)[:, None], weights.reshape(4, 4, -1)
    zero = np.array([1.0, 0.0, 0.0, 0.0])[:, None, None]
    matrix = np.zeros((len(strings), k))
    for row, string in zip(matrix, strings):
        state = np.broadcast_to(zero, (4, shots, k))
        for column in string.T:
            state = apply_real_form(np.take(block, shot + column, axis=2), state)
        up, down = recovery_indices(string, "up"), recovery_indices(string, "down")
        final_up = apply_real_form(np.take(block, shot + up, axis=2), state)
        final_down = apply_real_form(np.take(block, shot + down, axis=2), state)
        diffs = (final_up[2] ** 2 + final_up[3] ** 2) - (final_down[2] ** 2 + final_down[3] ** 2)
        for diff in diffs:
            row += diff
    return matrix / shots

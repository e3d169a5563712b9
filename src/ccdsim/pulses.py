"""CCD pulse programs as arrays of pieces.

A program is an ordered list of pieces (theta_m, phi_mw, duration) sharing
one drive configuration and one global modulation clock. A gate piece runs
at modulation phase theta_m = pi/2 (in-plane rotation of the doubly-dressed
qubit about the axis phi_mw + pi/2 at rate eps_m), an idle piece at
theta_m = 0 (z rotation at rate eps_m). A batch of programs is one float
array of shape (programs, pieces, 3); a shorter program is padded with
zero-duration rows, which take no time and are skipped.

Gate sequences run only on a dressed drive (``DriveConfig.dressed``) with
eps_m = Omega_0 / (4 n); ``require_gate_lattice`` is the one guard of both,
and ``simulate_program`` applies it to every drive it is given.
``simulate_program`` runs program i under drive i, from one (2,) start state
(|0> by default), in the second rotating frame, the frame
``drive.gate_frame`` picks for a dressed drive, refuses a program with a
piece boundary off the modulation-period lattice (Omega_0 t = 0 mod 2pi),
and returns the final amplitudes as one array. On
that lattice the second-frame unitary is +-I, so the per-piece second frames
coincide (up to a physically irrelevant global sign) and a program is
simulated piece by piece with no hand-off bookkeeping. Every program that
runs ends there too, where second-frame and lab-basis populations coincide
at readout, so none needs padding. Each piece starts on the lattice and its
Hamiltonian is periodic over one modulation period, so its propagator is
U(duration, 0), the same wherever the piece sits. The pieces are composed
one position at a time over all programs, with the pair arithmetic of the
propagator's state map.

``piece_propagators`` is the one rule for those propagators, shared with the
RB primitives. In both rotating frames phi_mw only turns the transverse
coefficients, so H(phi_0 + phi) = R_z(phi) H(phi_0) R_z(phi)^dagger, and so
is U: the rule integrates each (drive, theta_m) once, at a reference azimuth
phi_0, in one ``propagator_grid`` call with the distinct piece durations as
its times, and turns the Cayley-Klein pair (a, b) of each piece to
(a, b e^{i (phi_mw - phi_0)}). A piece at the reference azimuth is not
turned, so it keeps the integrated bits. The lab frame, whose carrier holds
phi_mw, has no such symmetry; no program or RB primitive runs in it.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .drive import DriveConfig, Hamiltonian, second_frame_hamiltonian
from .errors import ConfigError
from .propagator import _states, propagator_grid
from .qubit import ZERO_STATE, initial_state, normalized

__all__ = [
    "piece_propagators",
    "simulate_program",
    "parse_program",
    "require_gate_lattice",
    "GATE_MOD_PHASE",
    "IDLE_MOD_PHASE",
]

GATE_MOD_PHASE = math.pi / 2
IDLE_MOD_PHASE = 0.0

#: Most fields after each directive of the program format.
_MAX_FIELDS = {"gate": 2, "idle": 1, "pad": 0}

#: Boundary alignment tolerance on Omega_0 t, as a fraction of 2 pi. Looser
#: than the propagators' rounding-level lattice rule: a boundary within it is
#: accepted, and a batch holding a piece off the propagators' lattice is stepped.
BOUNDARY_TOLERANCE = 1e-9


def require_gate_lattice(cfg: DriveConfig) -> None:
    """Refuse a drive that is not dressed, or whose eps_m is not Omega_0 / (4 n), n >= 1.

    Only a dressed drive has gates in the second frame, and only at such an
    eps_m does every pi/2 and pi gate (duration angle / eps_m) span a whole
    number of modulation periods, so gate sequences keep their segment
    boundaries on the period lattice.
    """
    if not cfg.dressed:
        raise ConfigError("gate sequences need a dressed drive (a CCD scheme at mod_ratio > 0)")
    ratio = cfg.rabi / (4.0 * cfg.mod_strength)
    if not (abs(ratio - round(ratio)) <= 1e-9 and round(ratio) >= 1):
        raise ConfigError(
            f"mod_ratio = {cfg.mod_strength / cfg.rabi!r} breaks the segment "
            "boundary rule; use mod_ratio = 1/(4 n) for gate sequences"
        )


def _segment(theta: float, index: int) -> str:
    return f"segment {index} ({'gate' if theta == GATE_MOD_PHASE else 'idle'})"


def _checked(programs) -> np.ndarray:
    """``programs`` as a float (programs, pieces, 3) array of valid pieces.

    Refuses, with ``ConfigError`` naming the first faulty segment, a theta_m
    other than ``GATE_MOD_PHASE`` or ``IDLE_MOD_PHASE``, a phi_mw that is not
    finite, and a duration that is negative or not finite.
    """
    programs = np.asarray(programs, dtype=float)
    if programs.ndim != 3 or programs.shape[-1] != 3:
        raise ConfigError(f"programs must have shape (programs, pieces, 3), got {programs.shape}")
    theta, phi, duration = np.moveaxis(programs, -1, 0)
    kinds = np.isin(theta, (GATE_MOD_PHASE, IDLE_MOD_PHASE))
    for bad, message, values in (
        (~kinds, "theta_m must be pi/2 or 0", theta),
        (~np.isfinite(phi), "phi_mw must be finite", phi),
        (~((duration >= 0.0) & (duration < math.inf)), "duration must be finite and >= 0", duration),
    ):
        if bad.any():
            i, j = np.argwhere(bad)[0]
            where = _segment(theta[i, j], j) if kinds[i, j] else f"segment {j}"
            raise ConfigError(f"{where}: {message}, got {float(values[i, j])!r}")
    return programs


def piece_propagators(
    drives: Sequence[DriveConfig],
    pieces: Sequence[tuple[float, float, float]],
    build: Callable[[DriveConfig], Hamiltonian],
    reference: float,
) -> np.ndarray:
    """U(duration, 0) of each piece (theta_m, phi_mw, duration) under each drive.

    Returns (len(drives), len(pieces), 2, 2). ``build`` is a rotating-frame
    Hamiltonian builder, integrated at reference azimuth ``reference`` with
    the propagator's default step (``ROTATING_SPEC``); see the module
    docstring for the rule.
    """
    if not pieces:
        return np.empty((len(drives), 0, 2, 2), dtype=complex)
    rows = {theta: i for i, theta in enumerate(dict.fromkeys(theta for theta, _, _ in pieces))}
    columns = {duration: j for j, duration in enumerate(sorted({d for _, _, d in pieces}))}
    hams = [build(drive.with_pulse(theta, reference)) for drive in drives for theta in rows]
    us = propagator_grid(hams, list(columns)).reshape(len(drives), len(rows), len(columns), 2, 2)
    out = us[:, [rows[theta] for theta, _, _ in pieces], [columns[d] for _, _, d in pieces]]
    turn = np.array([phi for _, phi, _ in pieces]) - reference
    turned = np.flatnonzero(turn)  # a piece at the reference azimuth keeps its bits
    e = np.exp(1j * turn[turned])  # [[a, -b*], [b, a*]] with b -> b e^{i turn}
    out[:, turned, 1, 0] = out[:, turned, 1, 0] * e
    out[:, turned, 0, 1] = out[:, turned, 0, 1] * e.conj()
    return out


def simulate_program(
    drives: Sequence[DriveConfig],
    programs,
    psi0=ZERO_STATE,
) -> np.ndarray:
    """Propagate program i of a (programs, pieces, 3) batch under ``drives[i]``,
    in the second rotating frame.

    Returns the final amplitudes of each program, started from the (2,) state
    ``psi0`` (|0> by default; checked by :func:`qubit.initial_state`) and
    renormalized by :func:`qubit.normalized`, as one (len(programs), 2)
    complex array. The pieces must pass the value checks
    of a program, every drive :func:`require_gate_lattice`, and every piece
    must end on its drive's modulation-period lattice (``ConfigError``
    otherwise), before anything is integrated. The propagators of the
    distinct pieces under the distinct drives come from one
    :func:`piece_propagators` call at reference azimuth 0.
    """
    programs, psi0 = _checked(programs), initial_state(psi0)
    if len(drives) != len(programs):
        raise ConfigError(f"{len(drives)} drives for {len(programs)} programs")
    index = {cfg: i for i, cfg in enumerate(dict.fromkeys(drives))}
    for cfg in index:
        require_gate_lattice(cfg)
    drive_of = np.fromiter(map(index.__getitem__, drives), int, len(drives))
    periods = np.array([cfg.mod_period for cfg in index])[drive_of]
    theta, phi, duration = np.moveaxis(programs, -1, 0)
    clock = np.cumsum(duration, axis=1)  # in order, as t = t + duration
    frac = clock / periods[:, None]
    off = ~(np.abs(frac - np.round(frac)) <= BOUNDARY_TOLERANCE)
    if off.any():
        i, j = np.argwhere(off)[0]
        raise ConfigError(
            f"{_segment(theta[i, j], j)} ends at {frac[i, j]:.6f} modulation periods; "
            "boundaries must fall on the period lattice (Omega_0 t = 0 mod 2 pi)"
        )
    active = duration > 0.0  # a piece's span is its clock end minus its clock start
    spans = np.stack([theta, phi, np.diff(clock, axis=1, prepend=0.0)], axis=-1)[active]
    amps = np.broadcast_to(psi0, (len(programs), 2))
    if not active.any():
        return normalized(amps)
    # the distinct spans in sorted order; a batch's member order keeps each member's bits
    distinct, inverse = np.unique(spans, axis=0, return_inverse=True)
    columns = np.zeros(duration.shape, dtype=int)
    columns[active] = inverse.ravel()
    us = piece_propagators(list(index), distinct.tolist(), second_frame_hamiltonian, 0.0)
    for k in range(programs.shape[1]):
        u = us[drive_of, columns[:, k]]
        # a program without a piece here keeps its amplitudes, and their zeros' signs
        amps = np.where(active[:, k, None], _states(u[:, 0, 0], u[:, 1, 0], amps), amps)
    return normalized(amps)


def parse_program(text: str, cfg: DriveConfig) -> np.ndarray:
    """Parse the one-directive-per-line program format into its (n, 3) pieces.

    Directives::

        gate <angle_rad> <phi_mw_rad>   # dressed rotation about phi_mw + pi/2
        idle <duration_s>               # dressed z rotation
        pad                             # zero-length idle (segments end on the lattice)

    Each directive is one row (theta_m, phi_mw, duration), a pad included; a
    gate lasts angle / eps_m. ``cfg`` must pass :func:`require_gate_lattice`.
    Blank lines and ``#`` comments are ignored; a directive with more fields
    than these, a gate angle that is not positive and finite, and a row that
    fails the value checks of a program are refused.
    """
    require_gate_lattice(cfg)
    rows: list[tuple[float, float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0].lower(), fields[1:]
        if kind not in _MAX_FIELDS:
            raise ConfigError(f"unknown directive {fields[0]!r}", lineno)
        if len(args) > _MAX_FIELDS[kind]:
            extra = " ".join(args[_MAX_FIELDS[kind]:])
            raise ConfigError(f"extra fields {extra!r} after {kind}", lineno)
        try:
            numbers = [float(arg) for arg in args]
            first = numbers[0] if kind != "pad" else 0.0
        except (IndexError, ValueError) as exc:
            raise ConfigError(str(exc), lineno) from exc
        if kind == "gate":
            if not (0.0 < first < math.inf):
                raise ConfigError(f"gate angle must be positive and finite, got {first!r}", lineno)
            phi = numbers[1] if len(numbers) > 1 else 0.0
            rows.append((GATE_MOD_PHASE, phi, first / cfg.mod_strength))
        else:
            rows.append((IDLE_MOD_PHASE, 0.0, first))
    return _checked(np.array(rows, dtype=float).reshape(1, -1, 3))[0]

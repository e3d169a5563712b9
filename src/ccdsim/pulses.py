"""CCD pulse programs: gate pulses and idle pulses.

A program is an ordered list of segments sharing one drive configuration and
one global modulation clock. Gate segments run with modulation phase pi/2
(in-plane rotation of the doubly-dressed qubit about the axis phi_mw + pi/2
at rate eps_m), idle segments with modulation phase 0 (z rotation at rate
eps_m).

Gate sequences run only on a dressed drive (``DriveConfig.dressed``) with
eps_m = Omega_0 / (4 n); ``require_gate_lattice`` is the one guard of both,
and ``simulate_program`` applies it to every drive it is given; ``gate_pulse``
refuses a drive that is not dressed with the guard's own ``CompileError``.
``simulate_program`` runs programs in the second rotating frame, the frame
``drive.gate_frame`` picks for a dressed drive, refuses a program with a
segment boundary off the modulation-period lattice (Omega_0 t = 0 mod 2pi),
and returns the final amplitudes as one array. On that lattice the
second-frame unitary is +-I, so the per-segment second frames coincide (up
to a physically irrelevant global sign) and a program is simulated piece by
piece with no hand-off bookkeeping. Every program that runs ends there too,
where second-frame and lab-basis populations coincide at readout, so none
needs padding. Each piece starts on the lattice and its Hamiltonian is
periodic over one modulation period, so its propagator is U(duration, 0), the
same wherever the piece sits.

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

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .drive import DriveConfig, Hamiltonian, second_frame_hamiltonian
from .propagator import ROTATING_SPEC, IntegratorSpec, propagator_grid
from .qubit import QubitState, normalized

__all__ = [
    "SegmentKind",
    "PulseSegment",
    "PulseProgram",
    "CompileError",
    "gate_pulse",
    "idle_pulse",
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


class CompileError(ValueError):
    """A pulse program violates a structural invariant."""


class SegmentKind(enum.Enum):
    GATE = "gate"
    IDLE = "idle"


@dataclass(frozen=True)
class PulseSegment:
    """One typed time slice of a pulse program."""

    kind: SegmentKind
    duration: float
    phi_mw: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if not (0.0 <= self.duration < math.inf):
            raise ValueError(f"segment duration must be finite and >= 0, got {self.duration!r}")
        if not (-math.inf < self.phi_mw < math.inf):
            raise ValueError(f"phi_mw must be finite, got {self.phi_mw!r}")

    @property
    def theta_m(self) -> float:
        """Modulation phase: pi/2 for a gate, 0 for an idle."""
        return GATE_MOD_PHASE if self.kind is SegmentKind.GATE else IDLE_MOD_PHASE


def _require_dressed(cfg: DriveConfig) -> None:
    if not cfg.dressed:
        raise CompileError("gate sequences need a dressed drive (a CCD scheme at mod_ratio > 0)")


def require_gate_lattice(cfg: DriveConfig) -> None:
    """Refuse a drive that is not dressed, or whose eps_m is not Omega_0 / (4 n), n >= 1.

    Only a dressed drive has gates in the second frame, and only at such an
    eps_m does every pi/2 and pi gate (duration angle / eps_m) span a whole
    number of modulation periods, so gate sequences keep their segment
    boundaries on the period lattice.
    """
    _require_dressed(cfg)
    ratio = cfg.rabi / (4.0 * cfg.mod_strength)
    if not (abs(ratio - round(ratio)) <= 1e-9 and round(ratio) >= 1):
        raise CompileError(
            f"mod_ratio = {cfg.mod_strength / cfg.rabi!r} breaks the segment "
            "boundary rule; use mod_ratio = 1/(4 n) for gate sequences"
        )


def gate_pulse(angle: float, phi_mw: float, cfg: DriveConfig, label: str = "") -> PulseSegment:
    """Gate segment rotating the dressed qubit by ``angle`` about phi_mw + pi/2.

    The duration is angle / eps_m, so the nominal rotation rate is eps_m.
    """
    if not (0.0 < angle < math.inf):
        raise ValueError(f"gate angle must be positive and finite, got {angle!r}")
    _require_dressed(cfg)
    return PulseSegment(
        kind=SegmentKind.GATE,
        duration=angle / cfg.mod_strength,
        phi_mw=phi_mw,
        label=label or f"gate({angle:.4g} rad)",
    )


def idle_pulse(duration: float, label: str = "") -> PulseSegment:
    """Idle segment: z rotation of the dressed qubit at rate eps_m."""
    return PulseSegment(kind=SegmentKind.IDLE, duration=duration, label=label or "idle")


@dataclass(frozen=True)
class PulseProgram:
    """Ordered pulse segments over one drive configuration."""

    segments: tuple[PulseSegment, ...]
    cfg: DriveConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def total_duration(self) -> float:
        return sum(seg.duration for seg in self.segments)


def _pieces(program: PulseProgram) -> list[tuple[float, float, float]]:
    """(theta_m, phi_mw, duration) of each segment of ``program`` that takes time.

    The duration is the span on the program clock, end minus start. Refuses a
    segment that ends off the modulation-period lattice.
    """
    period = program.cfg.mod_period
    pieces, t = [], 0.0
    for index, seg in enumerate(program.segments):
        t_end = t + seg.duration
        frac = t_end / period
        if not abs(frac - round(frac)) <= BOUNDARY_TOLERANCE:
            raise CompileError(
                f"segment {index} ({seg.label or seg.kind.value}) ends at "
                f"{frac:.6f} modulation periods; boundaries must fall on the "
                "period lattice (Omega_0 t = 0 mod 2 pi)"
            )
        if seg.duration > 0.0:
            pieces.append((seg.theta_m, seg.phi_mw, t_end - t))
        t = t_end
    return pieces


def piece_propagators(
    drives: Sequence[DriveConfig],
    pieces: Sequence[tuple[float, float, float]],
    build: Callable[[DriveConfig], Hamiltonian],
    reference: float,
    spec: IntegratorSpec,
) -> np.ndarray:
    """U(duration, 0) of each piece (theta_m, phi_mw, duration) under each drive.

    Returns (len(drives), len(pieces), 2, 2). ``build`` is a rotating-frame
    Hamiltonian builder; see the module docstring for the rule.
    """
    if not pieces:
        return np.empty((len(drives), 0, 2, 2), dtype=complex)
    rows = {theta: i for i, theta in enumerate(dict.fromkeys(theta for theta, _, _ in pieces))}
    columns = {duration: j for j, duration in enumerate(sorted({d for _, _, d in pieces}))}
    hams = [build(drive.with_pulse(theta, reference)) for drive in drives for theta in rows]
    us = propagator_grid(hams, list(columns), spec).reshape(
        len(drives), len(rows), len(columns), 2, 2
    )
    out = us[:, [rows[theta] for theta, _, _ in pieces], [columns[d] for _, _, d in pieces]]
    turn = np.array([phi for _, phi, _ in pieces]) - reference
    turned = np.flatnonzero(turn)  # a piece at the reference azimuth keeps its bits
    e = np.exp(1j * turn[turned])  # [[a, -b*], [b, a*]] with b -> b e^{i turn}
    out[:, turned, 1, 0] = out[:, turned, 1, 0] * e
    out[:, turned, 0, 1] = out[:, turned, 0, 1] * e.conj()
    return out


def simulate_program(
    programs: Sequence[PulseProgram],
    psi0: QubitState | None = None,
    *,
    spec: IntegratorSpec = ROTATING_SPEC,
) -> np.ndarray:
    """Propagate pulse programs in the second rotating frame.

    Returns the final amplitudes of each program, started from ``psi0`` (|0>
    by default) and renormalized by :func:`qubit.normalized`, as one
    (len(programs), 2) complex array. Every drive must pass
    :func:`require_gate_lattice` and every segment must end on the
    modulation-period lattice (``CompileError`` otherwise), before anything
    is integrated; the piece propagators of all programs come from one
    :func:`piece_propagators` call at reference azimuth 0.
    """
    drives = {cfg: i for i, cfg in enumerate(dict.fromkeys(p.cfg for p in programs))}
    for cfg in drives:
        require_gate_lattice(cfg)
    lowered = [_pieces(program) for program in programs]
    distinct = dict.fromkeys(piece for pieces in lowered for piece in pieces)
    column = {piece: j for j, piece in enumerate(distinct)}
    us = piece_propagators(list(drives), list(column), second_frame_hamiltonian, 0.0, spec)
    start = (psi0 if psi0 is not None else QubitState.zero()).amplitudes
    finals = np.empty((len(programs), 2), dtype=complex)
    for i, (program, pieces) in enumerate(zip(programs, lowered)):
        amps, row = start, us[drives[program.cfg]]
        for piece in pieces:
            amps = row[column[piece]] @ amps
        finals[i] = amps
    return normalized(finals)


def parse_program(text: str, cfg: DriveConfig) -> PulseProgram:
    """Parse the one-directive-per-line program format.

    Directives::

        gate <angle_rad> <phi_mw_rad>   # dressed rotation about phi_mw + pi/2
        idle <duration_s>               # dressed z rotation
        pad                             # zero-length idle (segments end on the lattice)

    Blank lines and ``#`` comments are ignored; a directive with more fields
    than these is refused.
    """
    segments: list[PulseSegment] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0].lower(), fields[1:]
        try:
            if kind not in _MAX_FIELDS:
                raise ValueError(f"unknown directive {fields[0]!r}")
            if len(args) > _MAX_FIELDS[kind]:
                extra = " ".join(args[_MAX_FIELDS[kind]:])
                raise ValueError(f"extra fields {extra!r} after {kind}")
            if kind == "gate":
                angle, phi = float(args[0]), float(args[1]) if len(args) > 1 else 0.0
                seg = gate_pulse(angle, phi, cfg)
            elif kind == "idle":
                seg = idle_pulse(float(args[0]))
            else:
                seg = idle_pulse(0.0, "readout pad")
        except (IndexError, ValueError) as exc:
            raise CompileError(f"line {lineno}: {exc}") from exc
        segments.append(seg)
    return PulseProgram(segments, cfg)

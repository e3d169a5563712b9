"""CCD pulse programs: gate pulses, idle pulses and readout-matching padding.

A program is an ordered list of segments sharing one drive configuration and
one global modulation clock. Gate segments run with modulation phase pi/2
(in-plane rotation of the doubly-dressed qubit about the axis phi_mw + pi/2
at rate eps_m), idle and readout-pad segments with modulation phase 0
(z rotation at rate eps_m). The readout pad extends a sequence so the total
elapsed time is an integer number of Rabi periods, which makes second-frame
and lab-basis populations coincide at the moment of readout.

Compilation checks that every segment boundary lands on the modulation-period
lattice (Omega_0 t = 0 mod 2pi). On that lattice the per-segment rotating
frames coincide (up to a physically irrelevant global sign), so a program can
be simulated piece by piece in either rotating frame with no extra hand-off
bookkeeping. Each piece starts on the lattice and its Hamiltonian is periodic
over one modulation period, so its propagator is U_cfg(duration, 0), the same
wherever the piece sits. ``simulate_program`` therefore evaluates every
piece drive (programs of one drive configuration share theirs) at every
distinct piece duration, for all its programs, in one ``propagator_grid``
call, and only multiplies the results.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .drive import (
    DriveConfig,
    first_frame_hamiltonian,
    second_frame_hamiltonian,
)
from .propagator import ROTATING_SPEC, IntegratorSpec, propagator_grid
from .qubit import QubitState

__all__ = [
    "SegmentKind",
    "PulseSegment",
    "PulseProgram",
    "CompiledSegment",
    "CompileError",
    "gate_pulse",
    "idle_pulse",
    "readout_pad",
    "compile_program",
    "simulate_program",
    "parse_program",
    "require_gate_lattice",
    "GATE_MOD_PHASE",
    "IDLE_MOD_PHASE",
]

GATE_MOD_PHASE = math.pi / 2
IDLE_MOD_PHASE = 0.0

#: Boundary alignment tolerance on Omega_0 t, as a fraction of 2 pi. Looser
#: than the propagators' rounding-level lattice rule: a boundary within it is
#: accepted, and a batch holding a piece off the propagators' lattice is stepped.
BOUNDARY_TOLERANCE = 1e-9


class CompileError(ValueError):
    """A pulse program violates a structural invariant."""


class SegmentKind(enum.Enum):
    GATE = "gate"
    IDLE = "idle"
    READOUT_PAD = "readout_pad"


@dataclass(frozen=True)
class PulseSegment:
    """One typed time slice of a pulse program."""

    kind: SegmentKind
    duration: float
    theta_m: float
    phi_mw: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if not (0.0 <= self.duration < math.inf):
            raise ValueError(f"segment duration must be finite and >= 0, got {self.duration!r}")
        if not (-math.inf < self.phi_mw < math.inf):
            raise ValueError(f"phi_mw must be finite, got {self.phi_mw!r}")
        if self.theta_m not in (GATE_MOD_PHASE, IDLE_MOD_PHASE):
            raise ValueError("theta_m must be 0 (idle) or pi/2 (gate)")


def require_gate_lattice(cfg: DriveConfig) -> None:
    """Refuse eps_m other than Omega_0 / (4 n), n >= 1.

    Only then does every pi/2 and pi gate (duration angle / eps_m) span a
    whole number of modulation periods, so gate sequences keep their
    segment boundaries on the period lattice.
    """
    if not cfg.mod_strength > 0.0:
        raise CompileError("gate sequences need mod_ratio > 0 (no dressed drive)")
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
    if cfg.mod_strength <= 0.0:
        raise ValueError("gate pulses need mod_strength > 0 (no dressed drive)")
    return PulseSegment(
        kind=SegmentKind.GATE,
        duration=angle / cfg.mod_strength,
        theta_m=GATE_MOD_PHASE,
        phi_mw=phi_mw,
        label=label or f"gate({angle:.4g} rad)",
    )


def idle_pulse(duration: float, cfg: DriveConfig, label: str = "") -> PulseSegment:
    """Idle segment: z rotation of the dressed qubit at rate eps_m."""
    return PulseSegment(
        kind=SegmentKind.IDLE,
        duration=duration,
        theta_m=IDLE_MOD_PHASE,
        phi_mw=0.0,
        label=label or "idle",
    )


def readout_pad(elapsed: float, cfg: DriveConfig) -> PulseSegment:
    """Pad segment completing ``elapsed`` to the next multiple of 2 pi / Omega_0."""
    if not (0.0 <= elapsed < math.inf):
        raise ValueError(f"elapsed time must be finite and >= 0, got {elapsed!r}")
    period = cfg.mod_period
    remainder = elapsed / period - math.floor(elapsed / period)
    if remainder < BOUNDARY_TOLERANCE or remainder > 1.0 - BOUNDARY_TOLERANCE:
        pad = 0.0  # already on the lattice (within tolerance, from either side)
    else:
        pad = (1.0 - remainder) * period
    return PulseSegment(
        kind=SegmentKind.READOUT_PAD,
        duration=pad,
        theta_m=IDLE_MOD_PHASE,
        phi_mw=0.0,
        label="readout pad",
    )


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


@dataclass(frozen=True)
class CompiledSegment:
    """One piece of the piecewise drive timeline."""

    t_start: float
    t_end: float
    cfg: DriveConfig


def compile_program(program: PulseProgram, drives: dict | None = None) -> list[CompiledSegment]:
    """Lower a program to a piecewise-in-time drive description.

    Each piece carries the segment's (theta_m, phi_mw) merged into the shared
    drive configuration; all pieces read the same global modulation clock.
    Boundaries must land on the modulation-period lattice. ``drives`` maps
    (theta_m, phi_mw) to the piece drive of ``program.cfg``; programs of one
    drive configuration may share it, so that each drive is derived once.
    """
    drives = {} if drives is None else drives
    period = program.cfg.mod_period
    pieces: list[CompiledSegment] = []
    t = 0.0
    for index, seg in enumerate(program.segments):
        t_end = t + seg.duration
        frac = t_end / period
        misalignment = abs(frac - round(frac))
        if not misalignment <= BOUNDARY_TOLERANCE:
            raise CompileError(
                f"segment {index} ({seg.label or seg.kind.value}) ends at "
                f"{frac:.6f} modulation periods; boundaries must fall on the "
                "period lattice (Omega_0 t = 0 mod 2 pi)"
            )
        if seg.duration > 0.0:
            pulse = (seg.theta_m, seg.phi_mw)
            if pulse not in drives:
                drives[pulse] = program.cfg.with_pulse(*pulse)
            pieces.append(CompiledSegment(t_start=t, t_end=t_end, cfg=drives[pulse]))
        t = t_end
    return pieces


def simulate_program(
    programs: Sequence[PulseProgram],
    psi0: QubitState | None = None,
    *,
    frame: str = "second",
    spec: IntegratorSpec = ROTATING_SPEC,
) -> list[QubitState]:
    """Propagate compiled programs in the first or second rotating frame.

    Returns one final state per program, each started from ``psi0`` (|0> by
    default); see the module docstring for how the pieces are propagated.
    """
    if frame not in ("first", "second"):
        raise ValueError("frame must be 'first' or 'second'")
    build = first_frame_hamiltonian if frame == "first" else second_frame_hamiltonian
    drives: dict[DriveConfig, dict] = {}  # program drive -> its piece drives
    compiled = [compile_program(p, drives.setdefault(p.cfg, {})) for p in programs]
    pieces = [piece for program in compiled for piece in program]
    # programs of one drive share its piece drives: number them once, by identity
    distinct = {id(p.cfg): p.cfg for p in pieces}
    row = {key: index for index, key in enumerate(distinct)}
    column = {t: index for index, t in enumerate(sorted({p.t_end - p.t_start for p in pieces}))}
    if pieces:
        us = propagator_grid([build(cfg) for cfg in distinct.values()], list(column), spec)
    start = (psi0 if psi0 is not None else QubitState.zero()).amplitudes
    states = []
    for program in compiled:
        amps = start
        for p in program:
            amps = us[row[id(p.cfg)], column[p.t_end - p.t_start]] @ amps
        states.append(QubitState(amps))
    return states


def parse_program(text: str, cfg: DriveConfig) -> PulseProgram:
    """Parse the one-directive-per-line program format.

    Directives::

        gate <angle_rad> <phi_mw_rad>   # dressed rotation about phi_mw + pi/2
        idle <duration_s>               # dressed z rotation
        pad                             # readout pad from current elapsed time

    Blank lines and ``#`` comments are ignored.
    """
    segments: list[PulseSegment] = []
    elapsed = 0.0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0].lower(), fields[1:]
        try:
            if kind == "gate":
                angle, phi = float(args[0]), float(args[1]) if len(args) > 1 else 0.0
                seg = gate_pulse(angle, phi, cfg)
            elif kind == "idle":
                seg = idle_pulse(float(args[0]), cfg)
            elif kind == "pad":
                seg = readout_pad(elapsed, cfg)
            else:
                raise ValueError(f"unknown directive {fields[0]!r}")
        except (IndexError, ValueError) as exc:
            raise CompileError(f"line {lineno}: {exc}") from exc
        segments.append(seg)
        elapsed += seg.duration
    return PulseProgram(segments, cfg)

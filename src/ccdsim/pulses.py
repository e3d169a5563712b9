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
be simulated segment-by-segment in either rotating frame with no extra
hand-off bookkeeping.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .drive import (
    DriveConfig,
    first_frame_hamiltonian,
    second_frame_hamiltonian,
)
from .propagator import LATTICE_TOLERANCE, ROTATING_SPEC, IntegratorSpec, evolve
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

#: Boundary alignment tolerance on Omega_0 t, as a fraction of 2 pi; the same
#: rule decides when the propagators may power one-period unitaries.
BOUNDARY_TOLERANCE = LATTICE_TOLERANCE


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
        if self.duration < 0.0:
            raise ValueError("segment duration must be >= 0")
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
    if angle <= 0.0:
        raise ValueError("gate angle must be positive")
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
    if duration < 0.0:
        raise ValueError("idle duration must be >= 0")
    return PulseSegment(
        kind=SegmentKind.IDLE,
        duration=duration,
        theta_m=IDLE_MOD_PHASE,
        phi_mw=0.0,
        label=label or "idle",
    )


def readout_pad(elapsed: float, cfg: DriveConfig) -> PulseSegment:
    """Pad segment completing ``elapsed`` to the next multiple of 2 pi / Omega_0."""
    if elapsed < 0.0:
        raise ValueError("elapsed time must be >= 0")
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

    def boundaries(self) -> list[float]:
        """Cumulative segment end times, from sequence start."""
        out, t = [], 0.0
        for seg in self.segments:
            t += seg.duration
            out.append(t)
        return out


@dataclass(frozen=True)
class CompiledSegment:
    """One piece of the piecewise drive timeline."""

    t_start: float
    t_end: float
    cfg: DriveConfig
    kind: SegmentKind
    label: str = ""


def compile_program(program: PulseProgram) -> list[CompiledSegment]:
    """Lower a program to a piecewise-in-time drive description.

    Each piece carries the segment's (theta_m, phi_mw) merged into the shared
    drive configuration; all pieces read the same global modulation clock.
    Boundaries must land on the modulation-period lattice.
    """
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
            pieces.append(
                CompiledSegment(
                    t_start=t,
                    t_end=t_end,
                    cfg=program.cfg.with_pulse(seg.theta_m, seg.phi_mw),
                    kind=seg.kind,
                    label=seg.label,
                )
            )
        t = t_end
    return pieces


def simulate_program(
    program: PulseProgram,
    psi0: QubitState | None = None,
    *,
    frame: str = "second",
    spec: IntegratorSpec = ROTATING_SPEC,
) -> QubitState:
    """Propagate a compiled program in the first or second rotating frame.

    Segment boundaries sit on the period lattice, where the per-segment frame
    unitaries reduce to +/- identity, so the state is continued directly from
    one piece to the next.
    """
    if frame not in ("first", "second"):
        raise ValueError("frame must be 'first' or 'second'")
    build = first_frame_hamiltonian if frame == "first" else second_frame_hamiltonian
    state = psi0 if psi0 is not None else QubitState.zero()
    for piece in compile_program(program):
        state = evolve(build(piece.cfg), state, piece.t_start, piece.t_end, spec)
    return state


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

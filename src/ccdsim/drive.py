"""Drive model for concatenated continuous driving (CCD) of a single qubit.

Builds the lab-frame Hamiltonian of the generalized amplitude/phase-modulated
drive, its first and second rotating-frame reductions, the frame unitaries,
the counter-rotating coefficient of the doubly-rotating frame, and baseband
I/Q envelopes for waveform export.

Conventions (hbar = 1, all frequencies angular, rad/s):

    H_lab(t)  = (omega_L/2) sigma_z + W(t) sigma_x
    W(t)      = (rabi + rabi_error) [cos(carrier + p(t)) + a(t) sin(carrier + p(t))]
    carrier   = omega_mw t + mw_phase
    p(t)      = -(2 alpha_P eps_m / rabi) sin(rabi t - mod_phase)
    a(t)      = +(2 alpha_A eps_m / rabi) sin(rabi t - mod_phase)

The first rotating frame removes the (phase-modulated) carrier, the second
removes the Rabi precession at `rabi` about the in-plane axis `mw_phase`.
In the second frame the modulation splits into a static co-rotating drive
and a counter-rotating term at twice the Rabi frequency; the latter vanishes
identically for equal amplitude/phase modulation at zero Rabi error.

All modulation arguments use global time from sequence start; the modulation
clock is never reset per pulse.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .qubit import IDENTITY, QubitState, pauli_axis

__all__ = [
    "Scheme",
    "DriveConfig",
    "Hamiltonian",
    "IQSample",
    "lab_hamiltonian",
    "first_frame_hamiltonian",
    "second_frame_hamiltonian",
    "gate_frame",
    "first_frame_unitary",
    "second_frame_unitary",
    "to_first_frame",
    "from_first_frame",
    "to_second_frame",
    "from_second_frame",
    "counter_rotating_coefficient",
    "drive_coefficient",
    "iq_baseband",
    "default_config",
    "DEFAULT_RABI",
    "DEFAULT_CARRIER",
]

TWO_PI = 2.0 * math.pi

#: Reference defaults: Rabi frequency 3.6 MHz, carrier 15 GHz (both in rad/s).
DEFAULT_RABI = TWO_PI * 3.6e6
DEFAULT_CARRIER = TWO_PI * 15e9


class Scheme(enum.Enum):
    """Modulation scheme, i.e. the (alpha_A, alpha_P) modulation-ratio pair."""

    BARE = (0.0, 0.0)
    AMCCD = (1.0, 0.0)
    PMCCD = (0.0, 1.0)
    CMCCD = (0.5, 0.5)

    @property
    def alpha_a(self) -> float:
        return self.value[0]

    @property
    def alpha_p(self) -> float:
        return self.value[1]

    @classmethod
    def parse(cls, text: str) -> "Scheme":
        key = text.strip().lower()
        aliases = {
            "bare": cls.BARE,
            "am": cls.AMCCD,
            "amccd": cls.AMCCD,
            "pm": cls.PMCCD,
            "pmccd": cls.PMCCD,
            "cm": cls.CMCCD,
            "cmccd": cls.CMCCD,
        }
        if key not in aliases:
            raise ValueError(f"unknown scheme {text!r} (expected bare|am|pm|cm)")
        return aliases[key]

    @classmethod
    def of(cls, alpha_a: float, alpha_p: float) -> "Scheme":
        """The scheme whose modulation ratios match (alpha_a, alpha_p) within 1e-12."""
        for scheme in cls:
            if abs(alpha_a - scheme.alpha_a) <= 1e-12 and abs(alpha_p - scheme.alpha_p) <= 1e-12:
                return scheme
        raise ValueError(f"(alpha_A, alpha_P) = ({alpha_a}, {alpha_p}) matches no named scheme")

    @property
    def label(self) -> str:
        return {
            Scheme.BARE: "bare",
            Scheme.AMCCD: "am",
            Scheme.PMCCD: "pm",
            Scheme.CMCCD: "cm",
        }[self]


@dataclass(frozen=True)
class DriveConfig:
    """All physical drive/modulation parameters of the CCD drive.

    Attributes
    ----------
    omega_L : float
        Qubit Larmor frequency (rad/s).
    omega_mw : float
        Microwave carrier frequency (rad/s).
    rabi : float
        Nominal Rabi frequency Omega_0 > 0 (rad/s).
    rabi_error : float
        Static Rabi-frequency error Delta_Omega (rad/s).
    mod_strength : float
        Modulation strength eps_m >= 0 (rad/s).
    mod_phase : float
        Modulation phase theta_m (rad).
    mw_phase : float
        Carrier phase phi_mw (rad).
    alpha_A, alpha_P : float
        Amplitude/phase modulation ratios; either alpha_A + alpha_P = 1
        or both are zero (bare qubit).
    """

    omega_L: float
    omega_mw: float
    rabi: float
    rabi_error: float = 0.0
    mod_strength: float = 0.0
    mod_phase: float = math.pi / 2
    mw_phase: float = 0.0
    alpha_A: float = 0.0
    alpha_P: float = 0.0

    def __post_init__(self) -> None:
        for item in fields(self):
            value = getattr(self, item.name)
            if not abs(value) < math.inf:
                raise ValueError(f"{item.name} must be finite, got {value!r}")
        if not self.rabi > 0.0:
            raise ValueError(f"rabi must be positive, got {self.rabi!r}")
        if not self.mod_strength >= 0.0:
            raise ValueError(f"mod_strength must be >= 0, got {self.mod_strength!r}")
        if not (self.alpha_A >= 0.0 and self.alpha_P >= 0.0):
            raise ValueError("modulation ratios must be non-negative")
        total = self.alpha_A + self.alpha_P
        if not (abs(total - 1.0) <= 1e-12 or total == 0.0):
            raise ValueError(
                f"alpha_A + alpha_P must equal 1 (or both be 0), got {total!r}"
            )

    @property
    def detuning(self) -> float:
        """delta = omega_L - omega_mw (rad/s)."""
        return self.omega_L - self.omega_mw

    @property
    def scheme(self) -> Scheme:
        return Scheme.of(self.alpha_A, self.alpha_P)

    @property
    def dressed(self) -> bool:
        """Whether CCD dresses the qubit: a modulated scheme (alpha_A + alpha_P
        > 0) at eps_m > 0. Every other drive acts on the bare qubit."""
        return self.alpha_A + self.alpha_P > 0.0 and self.mod_strength > 0.0

    @property
    def mod_period(self) -> float:
        """One modulation period 2 pi / Omega_0 (s)."""
        return TWO_PI / self.rabi

    def with_errors(self, detuning: float | None = None,
                    rabi_error: float | None = None) -> "DriveConfig":
        """Copy with the detuning and/or Rabi error replaced."""
        kwargs = {}
        if detuning is not None:
            kwargs["omega_L"] = self.omega_mw + detuning
        if rabi_error is not None:
            kwargs["rabi_error"] = rabi_error
        return replace(self, **kwargs)

    def with_pulse(self, mod_phase: float, mw_phase: float) -> "DriveConfig":
        """Copy with per-segment pulse parameters (theta_m, phi_mw) replaced."""
        return replace(self, mod_phase=mod_phase, mw_phase=mw_phase)

    def with_scheme(self, scheme: Scheme) -> "DriveConfig":
        """Copy with the modulation ratios of ``scheme``."""
        return replace(self, alpha_A=scheme.alpha_a, alpha_P=scheme.alpha_p)


def default_config(
    scheme: Scheme = Scheme.CMCCD,
    rabi: float = DEFAULT_RABI,
    *,
    detuning: float = 0.0,
    rabi_error: float = 0.0,
    mod_ratio: float = 0.25,
    mod_phase: float = math.pi / 2,
    mw_phase: float = 0.0,
    omega_mw: float = DEFAULT_CARRIER,
) -> DriveConfig:
    """Reference preset: eps_m = rabi * mod_ratio, omega_L = omega_mw + detuning."""
    return DriveConfig(
        omega_L=omega_mw + detuning,
        omega_mw=omega_mw,
        rabi=rabi,
        rabi_error=rabi_error,
        mod_strength=0.0 if scheme is Scheme.BARE else mod_ratio * rabi,
        mod_phase=mod_phase,
        mw_phase=mw_phase,
        alpha_A=scheme.alpha_a,
        alpha_P=scheme.alpha_p,
    )


@dataclass(frozen=True)
class Hamiltonian:
    """Time-dependent 2x2 Hamiltonian H(t) = hx sigma_x + hy sigma_y + hz sigma_z.

    ``coefficients`` maps an array of times to an (..., 3) array of real
    Pauli coefficients. The stepped propagator may call it from several
    threads at once, so it must be a pure function of the times; ``fastest_period`` is the shortest oscillation period
    present, used by integrators to pick step sizes. ``period`` is an exact
    period of H(t), which lets the propagators power one-period unitaries:
    ``math.inf`` marks an aperiodic H, ``0.0`` a constant one (periodic with
    every period). Instances are callable: ``h(t)`` returns the Hermitian
    matrix at time ``t``.
    """

    coefficients: Callable[[np.ndarray], np.ndarray]
    fastest_period: float
    label: str = ""
    period: float = math.inf

    def matrix(self, t: float) -> np.ndarray:
        hx, hy, hz = np.asarray(self.coefficients(np.asarray(t, dtype=float)))
        return np.array(
            [[hz, hx - 1j * hy], [hx + 1j * hy, -hz]], dtype=complex
        )

    def __call__(self, t: float) -> np.ndarray:
        return self.matrix(t)


def _fastest_period(cfg: DriveConfig, *, lab: bool) -> float:
    rates = [cfg.rabi]
    if lab:
        rates.append(cfg.omega_mw)
    if cfg.mod_strength > 0.0:
        rates.append(cfg.mod_strength)
    if cfg.detuning != 0.0:
        rates.append(abs(cfg.detuning))
    return TWO_PI / max(rates)


def _modulation_angle(cfg: DriveConfig, t: np.ndarray) -> np.ndarray:
    return cfg.rabi * t - cfg.mod_phase


def drive_coefficient(cfg: DriveConfig, t: np.ndarray | float) -> np.ndarray:
    """The sigma_x coefficient W(t) of the lab-frame drive (rad/s)."""
    t = np.asarray(t, dtype=float)
    sin_m = np.sin(_modulation_angle(cfg, t))
    phase_mod = -(2.0 * cfg.alpha_P * cfg.mod_strength / cfg.rabi) * sin_m
    carrier = cfg.omega_mw * t + cfg.mw_phase + phase_mod
    wave = np.cos(carrier)
    if cfg.alpha_A != 0.0:
        amp_mod = (2.0 * cfg.alpha_A * cfg.mod_strength / cfg.rabi) * sin_m
        wave += amp_mod * np.sin(carrier)
    return (cfg.rabi + cfg.rabi_error) * wave


def lab_hamiltonian(cfg: DriveConfig) -> Hamiltonian:
    """Full lab-frame Hamiltonian (omega_L/2) sigma_z + W(t) sigma_x.

    No rotating-wave approximation is applied; this is the ground-truth
    oracle against which the rotating-frame reductions are checked.
    """

    def coeffs(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (3,))
        out[..., 0] = drive_coefficient(cfg, t)
        out[..., 1] = 0.0
        out[..., 2] = cfg.omega_L / 2.0
        return out

    return Hamiltonian(coeffs, _fastest_period(cfg, lab=True), "lab")


def first_frame_hamiltonian(cfg: DriveConfig) -> Hamiltonian:
    """First-rotating-frame Hamiltonian after the carrier-frequency RWA.

    (delta/2) sigma_z + ((Omega_0 + Delta)/2) sigma_{phi_mw}
      - (1 + Delta/Omega_0) alpha_A eps_m sin(Omega_0 t - theta_m) sigma_{phi_mw + pi/2}
      + alpha_P eps_m cos(Omega_0 t - theta_m) sigma_z
    """
    half_delta = cfg.detuning / 2.0
    half_rabi = (cfg.rabi + cfg.rabi_error) / 2.0
    amp_scale = (1.0 + cfg.rabi_error / cfg.rabi) * cfg.alpha_A * cfg.mod_strength
    phase_scale = cfg.alpha_P * cfg.mod_strength
    cos_par, sin_par = math.cos(cfg.mw_phase), math.sin(cfg.mw_phase)
    # sigma_{phi+pi/2} = -sin(phi) sigma_x + cos(phi) sigma_y
    cos_perp, sin_perp = -sin_par, cos_par

    def coeffs(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        m = _modulation_angle(cfg, t)
        perp = -amp_scale * np.sin(m)
        out = np.empty(t.shape + (3,))
        out[..., 0] = half_rabi * cos_par + perp * cos_perp
        out[..., 1] = half_rabi * sin_par + perp * sin_perp
        out[..., 2] = half_delta + phase_scale * np.cos(m)
        return out

    constant = amp_scale == 0.0 and phase_scale == 0.0
    return Hamiltonian(
        coeffs,
        _fastest_period(cfg, lab=False),
        "first-frame",
        0.0 if constant else cfg.mod_period,
    )


def second_frame_hamiltonian(cfg: DriveConfig) -> Hamiltonian:
    """Second-rotating-frame Hamiltonian: error + co-rotating + counter-rotating.

    Exact transform of the first-frame Hamiltonian under the Rabi-precession
    frame; the co-rotating line is the static gate drive at rate eps_m/2 and
    the counter-rotating line oscillates at 2 Omega_0.
    """
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

    def coeffs(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        rabi_angle = cfg.rabi * t
        counter_angle = 2.0 * rabi_angle - cfg.mod_phase
        perp = (
            half_delta * np.sin(rabi_angle)
            + co_perp
            + counter * np.sin(counter_angle)
        )
        hz = (
            half_delta * np.cos(rabi_angle)
            + co_z
            + counter * np.cos(counter_angle)
        )
        out = np.empty(t.shape + (3,))
        out[..., 0] = half_err * cos_par + perp * cos_perp
        out[..., 1] = half_err * sin_par + perp * sin_perp
        out[..., 2] = hz
        return out

    constant = half_delta == 0.0 and counter == 0.0
    return Hamiltonian(
        coeffs,
        _fastest_period(cfg, lab=False),
        "second-frame",
        0.0 if constant else cfg.mod_period,
    )


def counter_rotating_coefficient(cfg: DriveConfig) -> float:
    """Amplitude of the 2 Omega_0 counter-rotating term in the second frame.

    [alpha_P - (1 + Delta/Omega_0) alpha_A] * eps_m / 2; exactly zero for
    equal amplitude/phase modulation at zero Rabi error.
    """
    return (
        cfg.alpha_P - (1.0 + cfg.rabi_error / cfg.rabi) * cfg.alpha_A
    ) * cfg.mod_strength / 2.0


def gate_frame(cfg: DriveConfig) -> tuple[Callable[[DriveConfig], Hamiltonian], float, float]:
    """Where a gate runs: (Hamiltonian builder, rate, axis offset).

    A dressed drive (``cfg.dressed``) turns the dressed qubit at eps_m in the
    second frame about phi_mw + pi/2, so a gate about azimuth phi is driven
    at phi - pi/2. Any other drive Rabi-rotates the bare qubit at Omega_0 in
    the first frame about phi_mw (offset 0).
    """
    if cfg.dressed:
        return second_frame_hamiltonian, cfg.mod_strength, -math.pi / 2.0
    return first_frame_hamiltonian, cfg.rabi, 0.0


def _z_rotation(angle: float) -> np.ndarray:
    phase = np.exp(-1j * angle)
    return np.array([[phase, 0.0], [0.0, phase.conjugate()]], dtype=complex)


def first_frame_phase(cfg: DriveConfig, t: float) -> float:
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


def first_frame_unitary(cfg: DriveConfig, t: float) -> np.ndarray:
    """Frame unitary exp(-i Phi(t) sigma_z) of the first rotating frame."""
    return _z_rotation(first_frame_phase(cfg, t))


def second_frame_unitary(cfg: DriveConfig, t: float) -> np.ndarray:
    """Frame unitary exp(-i (Omega_0 t / 2) sigma_{phi_mw}) of the second frame."""
    angle = cfg.rabi * t / 2.0
    return math.cos(angle) * IDENTITY - 1j * math.sin(angle) * pauli_axis(cfg.mw_phase)


def to_first_frame(state: QubitState, cfg: DriveConfig, t: float) -> QubitState:
    """Map a lab-frame state at time t into the first rotating frame."""
    return state.apply(first_frame_unitary(cfg, t).conj().T)


def from_first_frame(state: QubitState, cfg: DriveConfig, t: float) -> QubitState:
    return state.apply(first_frame_unitary(cfg, t))


def to_second_frame(state: QubitState, cfg: DriveConfig, t: float) -> QubitState:
    """Map a first-frame state at time t into the second rotating frame."""
    return state.apply(second_frame_unitary(cfg, t).conj().T)


def from_second_frame(state: QubitState, cfg: DriveConfig, t: float) -> QubitState:
    return state.apply(second_frame_unitary(cfg, t))


class IQSample(NamedTuple):
    """Baseband I/Q sample: i*cos(omega_mw t + phi_mw) - q*sin(...) = W(t)."""

    t: float
    i: float
    q: float


def iq_baseband(
    cfg: DriveConfig, t: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray] | IQSample:
    """Baseband envelopes (I, Q) of the drive relative to the bare carrier.

    Reconstruction I(t) cos(omega_mw t + phi_mw) - Q(t) sin(omega_mw t + phi_mw)
    reproduces ``drive_coefficient`` exactly (trigonometric identity).
    Array input returns (I, Q) arrays; a scalar time returns one IQSample.
    """
    times = np.asarray(t, dtype=float)
    sin_m = np.sin(_modulation_angle(cfg, times))
    p = -(2.0 * cfg.alpha_P * cfg.mod_strength / cfg.rabi) * sin_m
    a = (2.0 * cfg.alpha_A * cfg.mod_strength / cfg.rabi) * sin_m
    amp = cfg.rabi + cfg.rabi_error
    i = amp * (np.cos(p) + a * np.sin(p))
    q = amp * (np.sin(p) - a * np.cos(p))
    if times.ndim == 0:
        return IQSample(t=float(times), i=float(i), q=float(q))
    return i, q

"""Drive model for concatenated continuous driving (CCD) of a single qubit.

Builds the lab-frame Hamiltonian of the generalized amplitude/phase-modulated
drive, its first and second rotating-frame reductions (their coefficients
held as data, evaluated a batch at a time), the counter-rotating
coefficient of the doubly-rotating frame, and baseband I/Q envelopes for
waveform export. The frame unitaries themselves are test oracles
(``tests/oracles.py``): no run maps a state between frames.

Conventions (hbar = 1, all frequencies angular, rad/s):

    H_lab(t)  = (omega_L/2) sigma_z + W(t) sigma_x,   omega_L = omega_mw + delta
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
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "Scheme",
    "DriveConfig",
    "Hamiltonian",
    "lab_hamiltonian",
    "first_frame_hamiltonian",
    "second_frame_hamiltonian",
    "gate_frame",
    "batch_coefficients",
    "FrameCoefficients",
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
            raise ConfigError(f"unknown scheme {text!r} (expected bare|am|pm|cm)")
        return aliases[key]

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
    omega_mw : float
        Microwave carrier frequency (rad/s).
    rabi : float
        Nominal Rabi frequency Omega_0 > 0 (rad/s).
    detuning : float
        Static detuning delta = omega_L - omega_mw of the qubit Larmor
        frequency from the carrier (rad/s), stored as given.
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

    omega_mw: float
    rabi: float
    detuning: float = 0.0
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
                raise ConfigError(f"{item.name} must be finite, got {value!r}")
        if not self.rabi > 0.0:
            raise ConfigError(f"rabi must be positive, got {self.rabi!r}")
        if not self.mod_strength >= 0.0:
            raise ConfigError(f"mod_strength must be >= 0, got {self.mod_strength!r}")
        if not (self.alpha_A >= 0.0 and self.alpha_P >= 0.0):
            raise ConfigError("modulation ratios must be non-negative")
        total = self.alpha_A + self.alpha_P
        if not (abs(total - 1.0) <= 1e-12 or total == 0.0):
            raise ConfigError(
                f"alpha_A + alpha_P must equal 1 (or both be 0), got {total!r}"
            )

    @property
    def omega_L(self) -> float:
        """Qubit Larmor frequency omega_mw + delta (rad/s); only the lab frame reads it."""
        return self.omega_mw + self.detuning

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
            kwargs["detuning"] = detuning
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
    """Reference preset: eps_m = rabi * mod_ratio."""
    return DriveConfig(
        omega_mw=omega_mw,
        rabi=rabi,
        detuning=detuning,
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
    Pauli coefficients. The stepped propagator calls it once per cf4 node
    of each block, so it must be a pure function of the times. The rotating
    frames give it as data (:class:`FrameCoefficients`), evaluated for a whole
    batch in one call; any other callable, a replaced one included, is called
    per Hamiltonian. ``fastest_period`` is the shortest oscillation period
    present, used by integrators to pick step sizes. ``period`` is an exact
    period of H(t), which lets the propagators power one-period unitaries:
    ``math.inf`` marks an aperiodic H, ``0.0`` a constant one (periodic with
    every period).
    """

    coefficients: Callable[[np.ndarray], np.ndarray]
    fastest_period: float
    period: float = math.inf


@dataclass(frozen=True)
class FrameCoefficients:
    """The Pauli coefficients of one rotating-frame drive, held as data.

    ``row`` holds the drive's scalars in the order the subclass's ``_combine``
    reads them, (Omega_0, theta_m) first. The sines and cosines of the times
    depend on those two alone (``_trig``), so :meth:`evaluate` computes them
    once per distinct pair, on the times' own shape, and broadcasts them over
    the rows: every value takes the same operations in the same order as for
    one row alone, so a batch gives the same bits as its members one by one.
    Calling an instance evaluates a batch of one.
    """

    row: tuple[float, ...]

    def __call__(self, t: np.ndarray) -> np.ndarray:
        rows = np.array([self.row])
        return self.evaluate(rows, t, (rows[:, :2], None))[0]

    @classmethod
    def evaluate(cls, rows: np.ndarray, t: np.ndarray, groups) -> np.ndarray:
        """Coefficients (len(rows), *t.shape, 3); ``groups`` as from :func:`batch_coefficients`."""
        t = np.asarray(t, dtype=float)
        pairs, member = groups
        trig = [cls._trig(rabi, theta, t) for rabi, theta in pairs]
        trig = trig[0] if len(trig) == 1 else [np.stack(v)[member] for v in zip(*trig)]
        out = np.empty((len(rows),) + t.shape + (3,))
        cls._combine(out, rows.T.reshape(rows.shape[::-1] + (1,) * t.ndim), *trig)
        return out


class _FirstFrame(FrameCoefficients):
    """Row: Omega_0, theta_m, (Omega_0 + Delta)/2, cos and sin of phi_mw,
    -amp_scale, delta/2, phase_scale."""

    @staticmethod
    def _trig(rabi, theta, t):
        m = rabi * t - theta
        return np.sin(m), np.cos(m)

    @staticmethod
    def _combine(out, cols, sin_m, cos_m):
        _, _, half_rabi, cos_mw, sin_mw, neg_amp, half_delta, phase = cols
        perp = neg_amp * sin_m  # along phi_mw + pi/2, that is (-sin, cos) of phi_mw
        out[..., 0] = half_rabi * cos_mw - perp * sin_mw
        out[..., 1] = half_rabi * sin_mw + perp * cos_mw
        out[..., 2] = half_delta + phase * cos_m


class _SecondFrame(FrameCoefficients):
    """Row: Omega_0, theta_m, delta/2, co_perp, co_z, counter, Delta/2, cos and
    sin of phi_mw."""

    @staticmethod
    def _trig(rabi, theta, t):
        rabi_angle = rabi * t
        counter_angle = 2.0 * rabi_angle - theta
        return (np.sin(rabi_angle), np.cos(rabi_angle),
                np.sin(counter_angle), np.cos(counter_angle))

    @staticmethod
    def _combine(out, cols, sin_r, cos_r, sin_c, cos_c):
        _, _, half_delta, co_perp, co_z, counter, half_err, cos_mw, sin_mw = cols
        perp = half_delta * sin_r + co_perp + counter * sin_c
        out[..., 0] = half_err * cos_mw - perp * sin_mw
        out[..., 1] = half_err * sin_mw + perp * cos_mw
        out[..., 2] = half_delta * cos_r + co_z + counter * cos_c


def batch_coefficients(hams: Sequence[Hamiltonian]) -> Callable[[np.ndarray], np.ndarray]:
    """The coefficients of every Hamiltonian in ``hams``, stacked on a new leading axis.

    When every ``coefficients`` is frame data of one frame, the returned
    callable evaluates the stacked rows in one call; otherwise it calls each
    one. Both give the same bits.
    """
    parts = [h.coefficients for h in hams]
    frame = type(parts[0])
    if issubclass(frame, FrameCoefficients) and all(type(p) is frame for p in parts):
        rows = np.array([p.row for p in parts])
        # number the distinct (Omega_0, theta_m) by first use, telling them apart by their bits
        pairs, bits = {}, np.ascontiguousarray(rows[:, :2]).view(np.int64).tolist()
        member = [pairs.setdefault(tuple(b), len(pairs)) for b in bits]
        groups = rows[[member.index(g) for g in range(len(pairs))], :2], np.array(member)
        return lambda ts: frame.evaluate(rows, ts, groups)
    return lambda ts: np.stack([p(ts) for p in parts], axis=0)


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


def drive_coefficient(cfg: DriveConfig, t: np.ndarray | float, out=None) -> np.ndarray:
    """The sigma_x coefficient W(t) of the lab-frame drive (rad/s), into ``out`` if given."""
    t = np.asarray(t, dtype=float)
    sin_m = np.sin(_modulation_angle(cfg, t))
    phase_mod = -(2.0 * cfg.alpha_P * cfg.mod_strength / cfg.rabi) * sin_m
    carrier = cfg.omega_mw * t + cfg.mw_phase + phase_mod
    wave = np.cos(carrier)
    if cfg.alpha_A != 0.0:
        amp_mod = (2.0 * cfg.alpha_A * cfg.mod_strength / cfg.rabi) * sin_m
        wave += amp_mod * np.sin(carrier)
    return np.multiply(cfg.rabi + cfg.rabi_error, wave, out=out)


def lab_hamiltonian(cfg: DriveConfig) -> Hamiltonian:
    """Full lab-frame Hamiltonian (omega_L/2) sigma_z + W(t) sigma_x.

    No rotating-wave approximation is applied; this is the ground-truth
    oracle against which the rotating-frame reductions are checked.
    """

    def coeffs(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (3,))
        drive_coefficient(cfg, t, out=out[..., 0])
        out[..., 1] = 0.0
        out[..., 2] = cfg.omega_L / 2.0
        return out

    return Hamiltonian(coeffs, _fastest_period(cfg, lab=True))


def first_frame_hamiltonian(cfg: DriveConfig) -> Hamiltonian:
    """First-rotating-frame Hamiltonian after the carrier-frequency RWA.

    (delta/2) sigma_z + ((Omega_0 + Delta)/2) sigma_{phi_mw}
      - (1 + Delta/Omega_0) alpha_A eps_m sin(Omega_0 t - theta_m) sigma_{phi_mw + pi/2}
      + alpha_P eps_m cos(Omega_0 t - theta_m) sigma_z
    """
    amp_scale = (1.0 + cfg.rabi_error / cfg.rabi) * cfg.alpha_A * cfg.mod_strength
    phase_scale = cfg.alpha_P * cfg.mod_strength
    row = (cfg.rabi, cfg.mod_phase, (cfg.rabi + cfg.rabi_error) / 2.0, math.cos(cfg.mw_phase),
           math.sin(cfg.mw_phase), -amp_scale, cfg.detuning / 2.0, phase_scale)
    constant = amp_scale == 0.0 and phase_scale == 0.0
    return Hamiltonian(
        _FirstFrame(row),
        _fastest_period(cfg, lab=False),
        0.0 if constant else cfg.mod_period,
    )


def second_frame_hamiltonian(cfg: DriveConfig) -> Hamiltonian:
    """Second-rotating-frame Hamiltonian: error + co-rotating + counter-rotating.

    Exact transform of the first-frame Hamiltonian under the Rabi-precession
    frame; the co-rotating line is the static gate drive at rate eps_m/2 and
    the counter-rotating line oscillates at 2 Omega_0.
    """
    half_delta = cfg.detuning / 2.0
    co = (cfg.alpha_P + (1.0 + cfg.rabi_error / cfg.rabi) * cfg.alpha_A) * (
        cfg.mod_strength / 2.0
    )
    counter = counter_rotating_coefficient(cfg)
    row = (cfg.rabi, cfg.mod_phase, half_delta, co * math.sin(cfg.mod_phase),
           co * math.cos(cfg.mod_phase), counter, cfg.rabi_error / 2.0,
           math.cos(cfg.mw_phase), math.sin(cfg.mw_phase))
    constant = half_delta == 0.0 and counter == 0.0
    return Hamiltonian(
        _SecondFrame(row),
        _fastest_period(cfg, lab=False),
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


def iq_baseband(cfg: DriveConfig, t: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Baseband envelopes (I, Q) of the drive relative to the bare carrier.

    Reconstruction I(t) cos(omega_mw t + phi_mw) - Q(t) sin(omega_mw t + phi_mw)
    reproduces ``drive_coefficient`` exactly (trigonometric identity).
    """
    times = np.asarray(t, dtype=float)
    sin_m = np.sin(_modulation_angle(cfg, times))
    p = -(2.0 * cfg.alpha_P * cfg.mod_strength / cfg.rabi) * sin_m
    a = (2.0 * cfg.alpha_A * cfg.mod_strength / cfg.rabi) * sin_m
    amp = cfg.rabi + cfg.rabi_error
    i = amp * (np.cos(p) + a * np.sin(p))
    q = amp * (np.sin(p) - a * np.cos(p))
    return i, q

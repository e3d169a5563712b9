"""Spectral peak estimation and decaying-sinusoid fits used by the tests.

The package itself fits nothing but the RB decay (``rb``); these helpers read
frequencies and decay times off simulated records for the acceptance and
experiment tests. ``fit_decaying_sinusoid`` needs scipy, which the package
does not depend on.

The dominant-frequency estimator removes the mean, applies a Hann window
(``experiments.hann_spectrum``), and refines the magnitude-spectrum peak by
parabolic interpolation on the log magnitude (ties break toward lower
frequency), which matches how peak positions are read off measured Fourier
maps while staying deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ccdsim.experiments import hann_spectrum

__all__ = [
    "FitResult",
    "dominant_frequency",
    "fit_decaying_sinusoid",
    "quality_factor",
    "DECAY_SENTINEL_FACTOR",
]

#: Fits with decay time beyond this multiple of the record span are flagged
#: as unresolved (pure sinusoid within the window).
DECAY_SENTINEL_FACTOR = 50.0

#: Upper bound on the decay time during fitting, as a multiple of the span.
_DECAY_BOUND_FACTOR = 1e4


def dominant_frequency(times: np.ndarray, values: np.ndarray) -> float:
    """Parabolic-interpolated location (Hz) of the strongest spectral peak.

    Biased on short records near Nyquist, where the Hann window spreads one
    tone over a few bins and the log-parabola through the top three is
    off-centre. On 8 samples (bin = 1/(7 dt)) a pure tone at 0.74 x Nyquist
    reads between -0.35 and +0.90 bin off, depending on its phase. Where the
    signal is known to be one tone, a least-squares fit of offset plus one
    cosine reads its frequency exactly.
    """
    freqs, mags = hann_spectrum(times, np.asarray(values, dtype=float).reshape(-1))
    if mags.size < 3:
        raise ValueError("series too short for peak interpolation")
    # skip the DC bin; argmax takes the first (lowest-frequency) maximum
    peak = 1 + int(np.argmax(mags[1:]))
    if peak == 0 or peak >= mags.size - 1:
        return float(freqs[peak])
    with np.errstate(divide="ignore"):
        a, b, c = np.log(mags[peak - 1 : peak + 2])
    denom = a - 2.0 * b + c
    if not np.isfinite(denom) or denom == 0.0:
        return float(freqs[peak])
    shift = 0.5 * (a - c) / denom
    return float((peak + shift) * (freqs[1] - freqs[0]))


@dataclass(frozen=True)
class FitResult:
    """Parameters of A exp(-t/T2) sin(2 pi f t + phase) + offset."""

    amplitude: float
    frequency: float
    decay_time: float
    phase: float
    offset: float
    residual_rms: float
    converged: bool
    decay_resolved: bool
    message: str = ""

    def evaluate(self, times: np.ndarray) -> np.ndarray:
        return _model(
            np.asarray(times, dtype=float),
            self.amplitude,
            self.frequency,
            self.decay_time,
            self.phase,
            self.offset,
        )


def _model(t, amplitude, frequency, decay_time, phase, offset):
    return amplitude * np.exp(-t / decay_time) * np.sin(2.0 * np.pi * frequency * t + phase) + offset


def _initial_decay_guess(times: np.ndarray, values: np.ndarray, offset: float) -> float:
    """Decay time from the log-slope of the envelope (half vs half)."""
    half = times.size // 2
    first = float(np.sqrt(np.mean((values[:half] - offset) ** 2)))
    second = float(np.sqrt(np.mean((values[half:] - offset) ** 2)))
    span = float(times[-1] - times[0])
    if second <= 0.0 or first <= 0.0 or second >= first:
        return span * DECAY_SENTINEL_FACTOR
    return max(span / 20.0, (times[half] - times[0] + span / 2.0) / (2.0 * math.log(first / second)))


def fit_decaying_sinusoid(times: np.ndarray, values: np.ndarray) -> FitResult:
    """Least-squares fit of an exponentially decaying sinusoid.

    Initial guesses come from the spectral peak (frequency) and the envelope
    log-slope (decay time). Requires at least 16 points spanning two or more
    oscillation periods. Non-convergence returns a result flagged
    ``converged=False`` with diagnostics rather than fabricated parameters.
    """
    from scipy.optimize import curve_fit

    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 16:
        raise ValueError("need at least 16 samples to fit")
    span = float(times[-1] - times[0])
    f0 = dominant_frequency(times, values)
    if f0 <= 0.0 or span * f0 < 2.0:
        raise ValueError(
            f"series spans {span * f0:.2f} oscillation periods; need at least 2"
        )
    offset0 = float(values.mean())
    amplitude0 = float(np.sqrt(2.0) * values.std())
    decay0 = min(_initial_decay_guess(times, values, offset0), span * _DECAY_BOUND_FACTOR / 2.0)
    # phase from the quadrature projections at the guessed frequency
    sin_part = np.sin(2.0 * np.pi * f0 * times)
    cos_part = np.cos(2.0 * np.pi * f0 * times)
    centered = values - offset0
    phase0 = math.atan2(float(centered @ cos_part), float(centered @ sin_part))

    p0 = [amplitude0, f0, decay0, phase0, offset0]
    bounds = (
        [0.0, 0.0, span / 100.0, -2.0 * math.pi, -np.inf],
        [np.inf, 0.5 * times.size / span, span * _DECAY_BOUND_FACTOR, 2.0 * math.pi, np.inf],
    )
    try:
        popt, _ = curve_fit(_model, times, values, p0=p0, bounds=bounds, maxfev=20000)
        converged = True
        message = ""
    except (RuntimeError, ValueError) as exc:
        popt = p0
        converged = False
        message = f"fit did not converge: {exc}"
    residual = values - _model(times, *popt)
    return FitResult(
        amplitude=float(popt[0]),
        frequency=float(popt[1]),
        decay_time=float(popt[2]),
        phase=float(popt[3]),
        offset=float(popt[4]),
        residual_rms=float(np.sqrt(np.mean(residual**2))),
        converged=converged,
        decay_resolved=bool(popt[2] < DECAY_SENTINEL_FACTOR * span),
        message=message,
    )


def quality_factor(fit: FitResult, t_pi: float) -> float:
    """Q = decay time over the pi-rotation time of the relevant drive."""
    if t_pi <= 0.0:
        raise ValueError("t_pi must be positive")
    return fit.decay_time / t_pi

import math

import numpy as np
import pytest

from ccdsim.experiments import hann_spectrum

from fits import (
    DECAY_SENTINEL_FACTOR,
    dominant_frequency,
    fit_decaying_sinusoid,
    quality_factor,
)


class TestSpectrum:
    def test_pure_tone_peak_within_one_interpolated_bin(self):
        fs = 1024.0 / 1e-3
        times = np.arange(1024) / fs
        bin_width = 1.0 / times[-1]
        for f in (21_300.0, 57_777.0, 123_456.0):
            signal = np.sin(2 * np.pi * f * times + 0.3)
            assert abs(dominant_frequency(times, signal) - f) < bin_width

    def test_frequency_axis_spans_nyquist(self):
        times = np.arange(256) * 1e-6
        freqs, mags = hann_spectrum(times, np.sin(2 * np.pi * 5e4 * times))
        assert freqs[0] == 0.0
        assert freqs[-1] == pytest.approx(0.5e6, rel=1e-12)
        assert mags.shape == freqs.shape

    def test_mean_removal_kills_dc(self):
        times = np.arange(128) * 1e-3
        _, mags = hann_spectrum(times, np.full(128, 0.7))
        assert mags.max() < 1e-12

    def test_rows_transform_independently(self):
        times = np.arange(256) * 1e-6
        rows = np.stack(
            [np.sin(2 * np.pi * 3e4 * times), np.sin(2 * np.pi * 9e4 * times)]
        )
        freqs, mags = hann_spectrum(times, rows)
        assert mags.shape == (2, freqs.size)
        assert freqs[np.argmax(mags[0])] == pytest.approx(3e4, abs=freqs[1])
        assert freqs[np.argmax(mags[1])] == pytest.approx(9e4, abs=freqs[1])

    def test_non_uniform_grid_rejected(self):
        times = np.array([0.0, 1.0, 2.0, 4.0, 5.0])
        with pytest.raises(ValueError):
            hann_spectrum(times, np.zeros(5))

    @pytest.mark.parametrize(
        "times",
        [[0.0, math.nan, math.nan, math.nan, math.nan], [0.0, 1.0, 2.0, 3.0, math.nan],
         [-math.inf, 0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0, math.inf]],
        ids=["nan", "nan-last", "inf-first", "inf-last"],
    )
    def test_non_finite_grid_rejected(self, times):
        with pytest.raises(ValueError, match="time grid"):
            hann_spectrum(np.array(times), np.ones(5))

    def test_equal_tones_resolve_deterministically(self):
        # near-degenerate peaks: repeated calls must agree bit-for-bit
        # (exact magnitude ties fall to the lower bin via first-max argmax)
        fs = 512.0
        times = np.arange(512) / fs
        signal = np.sin(2 * np.pi * 50.0 * times) + np.sin(2 * np.pi * 150.0 * times)
        results = {dominant_frequency(times, signal) for _ in range(5)}
        assert len(results) == 1


class TestDecayingSinusoidFit:
    def test_synthetic_parameters_recovered(self):
        times = np.linspace(0.0, 40e-6, 400)
        truth = dict(amplitude=1.0, frequency=1e6, decay_time=10e-6, phase=0.6, offset=0.2)
        signal = (
            truth["amplitude"]
            * np.exp(-times / truth["decay_time"])
            * np.sin(2 * np.pi * truth["frequency"] * times + truth["phase"])
            + truth["offset"]
        )
        fit = fit_decaying_sinusoid(times, signal)
        assert fit.converged
        assert fit.frequency == pytest.approx(truth["frequency"], rel=1e-3)
        assert fit.decay_time == pytest.approx(truth["decay_time"], rel=1e-3)
        assert fit.amplitude == pytest.approx(truth["amplitude"], rel=1e-3)
        assert fit.offset == pytest.approx(truth["offset"], abs=1e-3)
        assert fit.residual_rms < 1e-6

    def test_pure_sinusoid_flags_unresolved_decay(self):
        times = np.linspace(0.0, 20e-6, 256)
        signal = 0.5 * np.sin(2 * np.pi * 0.9e6 * times)
        fit = fit_decaying_sinusoid(times, signal)
        assert not fit.decay_resolved
        assert fit.decay_time > DECAY_SENTINEL_FACTOR * 20e-6
        assert fit.frequency == pytest.approx(0.9e6, rel=1e-3)

    def test_requires_enough_points(self):
        times = np.linspace(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            fit_decaying_sinusoid(times, np.sin(times))

    def test_requires_two_periods(self):
        times = np.linspace(0.0, 1.0, 64)
        with pytest.raises(ValueError):
            fit_decaying_sinusoid(times, np.sin(2 * np.pi * 0.8 * times))

    def test_noisy_fit_still_close(self):
        rng = np.random.default_rng(8)
        times = np.linspace(0.0, 30e-6, 512)
        signal = np.exp(-times / 8e-6) * np.sin(2 * np.pi * 1.1e6 * times)
        noisy = signal + rng.normal(0.0, 0.02, times.size)
        fit = fit_decaying_sinusoid(times, noisy)
        assert fit.converged
        assert fit.frequency == pytest.approx(1.1e6, rel=0.01)
        assert fit.decay_time == pytest.approx(8e-6, rel=0.15)


def test_quality_factor():
    times = np.linspace(0.0, 40e-6, 400)
    signal = np.exp(-times / 10e-6) * np.sin(2 * np.pi * 1e6 * times)
    fit = fit_decaying_sinusoid(times, signal)
    t_pi = 0.5e-6
    assert quality_factor(fit, t_pi) == pytest.approx(20.0, rel=1e-2)
    with pytest.raises(ValueError):
        quality_factor(fit, 0.0)

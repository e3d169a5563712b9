import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ccdsim import experiments
from ccdsim.cli import _coarse_grid_warning, main
from ccdsim.drive import (
    Scheme,
    default_config,
    first_frame_hamiltonian,
    gate_frame,
    second_frame_hamiltonian,
)
from ccdsim.errors import ConfigError, NumericalError
from ccdsim.experiments import (
    NoiseSpec,
    bloch_trajectory,
    chevron_sweep,
    dressed_sequence_experiment,
    hann_spectrum,
    infidelity_curve,
    lattice_times,
    noise_average,
    rabi_error_sweep,
    shot_mean,
)
from ccdsim.propagator import ROTATING_SPEC, evolve_grid
from ccdsim.qubit import ZERO_STATE

from fits import dominant_frequency, fit_decaying_sinusoid
from oracles import pairwise_spread

CFG = default_config(Scheme.CMCCD)
BARE = default_config(Scheme.BARE)
RABI = CFG.rabi
EM = CFG.mod_strength


def analytic_rabi(rabi, delta, t):
    omega = np.sqrt(rabi**2 + delta**2)
    return (rabi**2 / omega**2) * np.sin(omega * t / 2.0) ** 2


class TestChevron:
    def test_bare_values_match_analytic_formula(self):
        detunings = np.array([-RABI, 0.0, 0.7 * RABI])
        durations = np.linspace(0.05e-6, 1.0e-6, 40)
        values = chevron_sweep(BARE, detunings, durations)
        expected = analytic_rabi(RABI, detunings[:, None], durations[None, :])
        assert np.abs(values - expected).max() < 1e-8

    def test_resonant_pi_time_unit_population(self):
        durations = np.array([math.pi / RABI])
        values = chevron_sweep(BARE, np.array([0.0]), durations)
        assert values[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_detuned_pi_time_value(self):
        values = chevron_sweep(BARE, np.array([RABI]), np.array([math.pi / RABI]))
        assert values[0, 0] == pytest.approx(0.31656383551035387, abs=1e-9)

    def test_zero_modulation_column_reduces_to_bare(self):
        # eps_m = 0: every CCD scheme collapses onto the bare chevron
        detunings = np.linspace(-RABI, RABI, 5)
        durations = np.linspace(0.1e-6, 0.8e-6, 16)
        no_mod = default_config(Scheme.CMCCD, mod_ratio=0.0)
        ccd = chevron_sweep(no_mod, detunings, durations)
        bare = chevron_sweep(BARE, detunings, durations)
        assert np.abs(ccd - bare).max() < 1e-10

    def test_values_bounded_and_deterministic(self):
        detunings = np.linspace(-0.4, 0.4, 7) * RABI
        durations = lattice_times(CFG, 33)[1:]
        a = chevron_sweep(replace(CFG, scheme=Scheme.PMCCD), detunings, durations)
        b = chevron_sweep(replace(CFG, scheme=Scheme.PMCCD), detunings, durations)
        assert a.shape == (detunings.size, durations.size)
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0 + 1e-9

    def test_coarse_grid_warning_on_lattice_sampling(self):
        durations = lattice_times(CFG, 17)[1:]
        # the lattice samples once per modulation period 2 pi / Omega_0, four
        # times per dressed Rabi period 2 pi / eps_m at eps_m = Omega_0 / 4
        assert _coarse_grid_warning(CFG, durations) == [
            "duration grid has 4.00 points per dressed Rabi period 2 pi / eps_m "
            "(< 8); the sampled spectrum relies on aliasing"
        ]

    def test_no_coarse_grid_warning_without_modulation(self):
        # the bare drive keeps CFG's eps_m > 0, but it has no modulation period
        durations = lattice_times(CFG, 17)[1:]
        assert _coarse_grid_warning(replace(CFG, scheme=Scheme.BARE), durations) == []

    def test_monotonicity_validation(self):
        with pytest.raises(ValueError):
            chevron_sweep(BARE, np.array([1.0, 0.0]), np.array([1e-6, 2e-6]))


class TestRabiErrorSweep:
    def test_bare_dominant_frequency_linear_in_error(self):
        errors = np.linspace(-0.2, 0.2, 7) * RABI
        durations = np.linspace(0.0, 10e-6, 512, endpoint=False)[1:]
        values = rabi_error_sweep(BARE, errors, durations)
        freqs = [dominant_frequency(durations, row) for row in values]
        slope = np.polyfit(errors, freqs, 1)[0]
        assert slope * 2 * math.pi == pytest.approx(1.0, rel=0.01)

    def test_zero_error_row_equals_zero_detuning_chevron_row(self):
        durations = lattice_times(CFG, 17)[1:]
        err = rabi_error_sweep(replace(CFG, scheme=Scheme.PMCCD), np.array([0.0]), durations)
        chev = chevron_sweep(replace(CFG, scheme=Scheme.PMCCD), np.array([0.0]), durations)
        assert np.abs(err - chev).max() < 1e-12

    @pytest.mark.parametrize("scheme", [Scheme.BARE, Scheme.AMCCD, Scheme.CMCCD])
    def test_the_drive_keeps_its_static_detuning(self, scheme):
        # the swept axis replaces the Rabi error only, as a chevron replaces the detuning
        cfg, detuning = replace(CFG, scheme=scheme), 0.05 * RABI
        durations = lattice_times(CFG, 9)[1:]
        swept = rabi_error_sweep(replace(cfg, detuning=detuning), np.array([0.0]), durations)
        chev = chevron_sweep(cfg, np.array([detuning]), durations)
        assert swept.tobytes() == chev.tobytes()
        assert not np.array_equal(swept, rabi_error_sweep(cfg, np.array([0.0]), durations))


class TestSpectrumGrid:
    def test_per_row_magnitudes(self):
        durations = np.linspace(0.0, 10e-6, 256, endpoint=False)[1:]
        values = chevron_sweep(BARE, np.array([0.0, RABI]), durations)
        freqs, mags = hann_spectrum(durations, values)
        assert mags.shape == (2, freqs.size)
        # dominant bins follow the effective Rabi frequencies
        f0 = freqs[np.argmax(mags[0])]
        f1 = freqs[np.argmax(mags[1])]
        bin_w = freqs[1]
        assert f0 == pytest.approx(RABI / (2 * math.pi), abs=bin_w)
        assert f1 == pytest.approx(math.sqrt(2) * RABI / (2 * math.pi), abs=bin_w)


class TestInfidelity:
    def test_cmccd_resonant_gate_is_exact(self):
        curve = infidelity_curve(CFG, "detuning", np.array([0.0]))
        assert curve[0] <= 1e-10

    def test_bare_detuned_matches_analytic(self):
        curve = infidelity_curve(BARE, "detuning", np.array([0.1 * RABI]))
        expected = 1.0 - analytic_rabi(RABI, 0.1 * RABI, math.pi / RABI)
        assert expected == pytest.approx(0.0099617596642271, rel=1e-10)
        assert curve[0] == pytest.approx(expected, abs=1e-8)

    def test_am_pm_resonant_positive_and_worse_than_cm(self):
        cm = infidelity_curve(CFG, "detuning", np.array([0.0]))[0]
        am = infidelity_curve(replace(CFG, scheme=Scheme.AMCCD), "detuning", np.array([0.0]))[0]
        pm = infidelity_curve(replace(CFG, scheme=Scheme.PMCCD), "detuning", np.array([0.0]))[0]
        assert am > 1e-7 and pm > 1e-7
        assert cm < min(am, pm)

    def test_rabi_axis_applies_error(self):
        err = 0.1 * RABI
        curve = infidelity_curve(BARE, "rabi", np.array([err]))
        # bare pi pulse with amplitude error: P = sin^2((1 + e) pi / 2)
        expected = 1.0 - math.sin((1 + 0.1) * math.pi / 2.0) ** 2
        assert curve[0] == pytest.approx(expected, abs=1e-8)


class TestTrajectory:
    def test_bare_and_cm_zero_error_markers_coincide(self):
        for scheme in (Scheme.BARE, Scheme.CMCCD):
            _, _, is_marker, spread = bloch_trajectory(replace(CFG, scheme=scheme), 20 * math.pi, 8)
            assert spread <= 1e-8
            assert is_marker.sum() == 40

    def test_am_pm_zero_error_spread_positive(self):
        for scheme in (Scheme.AMCCD, Scheme.PMCCD):
            spread = bloch_trajectory(replace(CFG, scheme=scheme), 20 * math.pi, 8)[3]
            assert spread > 1e-3

    def test_detuned_bare_spread_large(self):
        spread = bloch_trajectory(
            replace(CFG, detuning=0.1 * RABI, scheme=Scheme.BARE), 20 * math.pi, 8
        )[3]
        assert spread > 0.1

    def test_marker_count_and_angle_validation(self):
        with pytest.raises(ValueError):
            bloch_trajectory(CFG, 0.3)
        times, xyz, is_marker, _ = bloch_trajectory(CFG, 2 * math.pi, 4)
        assert times.shape == (17,) and xyz.shape == (17, 3)  # t=0 plus 4*4 samples
        assert np.flatnonzero(is_marker).tolist() == [4, 8, 12, 16]

    @pytest.mark.parametrize(
        "scheme, detuning, quarter_turns, samples",
        [(Scheme.AMCCD, 0.0, 40, 8), (Scheme.PMCCD, 0.03, 7, 3), (Scheme.AMCCD, 0.05, 1200, 1)],
    )
    def test_spread_keeps_the_bits_of_the_full_pairwise_array(
        self, scheme, detuning, quarter_turns, samples
    ):
        # 1,200 markers put 300 in each class: more than one block of rows
        cfg = replace(CFG, scheme=scheme, detuning=detuning * RABI)
        _, xyz, is_marker, spread = bloch_trajectory(cfg, quarter_turns * math.pi / 2, samples)
        assert spread > 0.0
        assert spread == pairwise_spread(xyz[is_marker])

    def test_spread_memory_stays_below_the_pairwise_array(self):
        # 1,000 markers per class: the full difference array of one class is 24 MB
        quarter_turns, per_class = 4000, 1000
        tracemalloc.start()
        try:
            bloch_trajectory(replace(CFG, scheme=Scheme.AMCCD), quarter_turns * math.pi / 2, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < per_class**2 * 24 / 4


class TestGateFrame:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rate_used_by_every_gate_experiment(self, scheme, monkeypatch, tmp_path):
        # CFG has eps_m > 0, so only the bare scheme stays in the first frame
        rate = RABI if scheme is Scheme.BARE else EM
        build, got_rate, offset = gate_frame(replace(CFG, scheme=scheme))
        assert got_rate == rate
        dressed = scheme is not Scheme.BARE
        assert build is (second_frame_hamiltonian if dressed else first_frame_hamiltonian)
        assert offset == (-math.pi / 2.0 if dressed else 0.0)

        times = bloch_trajectory(replace(CFG, scheme=scheme), 2 * math.pi, 4)[0]
        assert times[4] == pytest.approx((math.pi / 2.0) / rate, rel=1e-12)

        spans = []

        def spy(hams, times, psi0, spec=ROTATING_SPEC):
            spans.append(float(times[-1]))
            return evolve_grid(hams, times, psi0, spec)

        monkeypatch.setattr(experiments, "evolve_grid", spy)
        infidelity_curve(replace(CFG, scheme=scheme), "detuning", np.array([0.0]))
        assert spans == [pytest.approx(math.pi / rate, rel=1e-12)]

        out = tmp_path / "iq.csv"
        assert main(["iq-export", "--scheme", scheme.label, "--out", str(out)]) == 0
        meta = dict(
            line[2:].strip().split("=", 1) for line in out.read_text().splitlines()
            if line.startswith("# meta.")
        )
        assert float(meta["meta.duration_s"]) == pytest.approx(math.pi / rate, rel=1e-12)

    @pytest.mark.parametrize("scheme", [Scheme.CMCCD, Scheme.AMCCD])
    def test_zero_modulation_gives_the_bare_result(self, scheme):
        no_mod = default_config(scheme, mod_ratio=0.0)
        assert gate_frame(no_mod)[:2] == (first_frame_hamiltonian, RABI)
        grid = np.linspace(-0.3, 0.3, 7) * RABI
        for axis in ("detuning", "rabi"):
            ccd = infidelity_curve(no_mod, axis, grid)
            bare = infidelity_curve(BARE, axis, grid)
            assert np.abs(ccd - bare).max() <= 1e-12
        detuned = 0.1 * RABI
        ccd = bloch_trajectory(replace(no_mod, detuning=detuned), 10 * math.pi, 4)
        bare = bloch_trajectory(replace(BARE, detuning=detuned), 10 * math.pi, 4)
        ccd_xyz = np.column_stack(ccd[:2])
        bare_xyz = np.column_stack(bare[:2])
        assert np.abs(ccd_xyz - bare_xyz).max() <= 1e-12
        assert ccd[3] == pytest.approx(bare[3], abs=1e-12)


class TestDressedSequences:
    def test_ccd_rabi_oscillates_at_modulation_rate(self):
        times = lattice_times(CFG, 64)
        values = dressed_sequence_experiment("ccd_rabi", CFG, times)
        fit = fit_decaying_sinusoid(times, values)
        assert fit.frequency == pytest.approx(EM / (2 * math.pi), rel=0.005)
        assert not fit.decay_resolved  # unitary dynamics, no decay

    def test_ccd_ramsey_oscillates_at_modulation_rate(self):
        times = lattice_times(CFG, 64)
        values = dressed_sequence_experiment("ccd_ramsey", CFG, times)
        fit = fit_decaying_sinusoid(times, values)
        assert fit.frequency == pytest.approx(EM / (2 * math.pi), rel=0.005)

    def test_two_axis_sweep_is_period_2pi_cosine(self):
        phis = np.linspace(0.0, 4 * math.pi, 64)
        values = dressed_sequence_experiment("two_axis", CFG, phis)
        design = np.stack([np.cos(phis), np.sin(phis), np.ones_like(phis)], axis=1)
        coef, *_ = np.linalg.lstsq(design, values, rcond=None)
        residual = values - design @ coef
        r_squared = 1.0 - residual.var() / values.var()
        assert r_squared >= 0.999
        # P = (1 + cos(phi))/2 exactly on resonance
        assert coef[0] == pytest.approx(0.5, abs=1e-6)
        assert coef[2] == pytest.approx(0.5, abs=1e-6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            dressed_sequence_experiment("spin_echo", CFG, np.array([0.0]))


class TestSweepValueGuard:
    # a squared modulus cannot be negative, so no amplitude gives a p_up below 0
    @pytest.mark.parametrize("bad", [float("nan"), 1.5])
    def test_rejects_values_outside_unit_interval(self, bad, monkeypatch):
        def broken(hams, times, psi0, spec=ROTATING_SPEC):
            amps = evolve_grid(hams, times, psi0, spec)
            amps[0, -1, 1] = math.sqrt(bad)  # p_up = bad at the last duration
            return amps

        monkeypatch.setattr(experiments, "evolve_grid", broken)
        with pytest.raises(NumericalError, match=r"\[0, 1\]"):
            chevron_sweep(BARE, np.array([0.0]), np.array([1e-7, 2e-7]))


def bare_rabi_experiment(times):
    def run(shot):
        states = evolve_grid([first_frame_hamiltonian(shot)], times, ZERO_STATE)
        return np.abs(states[0, :, 1]) ** 2

    return run


class TestNoiseShots:
    # a drive that already carries static errors, so each draw must add to them
    ERRD = replace(CFG, detuning=0.03 * RABI, rabi_error=-0.01 * RABI)

    @pytest.mark.parametrize(
        "sigma_detuning, sigma_rabi_frac",
        [(0.2 * RABI, 0.0), (0.0, 0.05), (0.2 * RABI, 0.05)],
        ids=["detuning", "rabi", "both"],
    )
    def test_shots_add_the_seeded_draws_in_order(self, sigma_detuning, sigma_rabi_frac):
        noise = NoiseSpec(sigma_detuning, sigma_rabi_frac, samples=5, seed=17)
        rng = np.random.default_rng(17)
        deltas = rng.normal(0.0, sigma_detuning, 5)
        rabi_errors = rng.normal(0.0, sigma_rabi_frac * RABI, 5)
        expected = [
            replace(self.ERRD, detuning=self.ERRD.detuning + d, rabi_error=self.ERRD.rabi_error + e)
            for d, e in zip(deltas, rabi_errors)
        ]
        assert noise.shots(self.ERRD) == expected

    def test_zero_sigmas_give_the_drive_itself(self):
        assert NoiseSpec(samples=8, seed=3).shots(self.ERRD) == [self.ERRD]

    @pytest.mark.parametrize("axis", ["sigma_detuning", "sigma_rabi_frac"])
    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_nan_or_negative_sigma_rejected(self, axis, bad):
        # each sigma names its config key, so a config line is named too
        key = {"sigma_detuning": "noise_detuning_sigma_hz", "sigma_rabi_frac": "noise_rabi_sigma_frac"}
        with pytest.raises(ConfigError, match=f"^{key[axis]} must be >= 0") as info:
            NoiseSpec(**{axis: bad})
        assert info.value.key == key[axis]

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the generators take a 64-bit key: 2^64 + 1 would draw as seed 1
        with pytest.raises(ConfigError, match=r"seed must lie in \[0, 2\^64\)") as info:
            NoiseSpec(sigma_detuning=1e5, samples=2, seed=seed)
        assert info.value.key == "seed"
        assert NoiseSpec(sigma_detuning=1e5, samples=2, seed=2**64 - 1).shots(self.ERRD)

    @pytest.mark.parametrize("samples", [0, 10**6 + 1, 2**63 - 1])
    def test_samples_outside_the_cap_rejected(self, samples):
        # refused before numpy is asked for that many draws
        with pytest.raises(ConfigError, match=r"noise_samples must lie in \[1, 1000000\]") as info:
            NoiseSpec(sigma_detuning=1e5, samples=samples)
        assert info.value.key == "noise_samples"
        assert experiments.MAX_NOISE_SAMPLES == 10**6
        NoiseSpec(sigma_detuning=1e5, samples=10**6)  # the cap itself is admitted


class TestNoiseAverage:
    def test_zero_sigma_identical_to_noiseless(self):
        times = np.linspace(0.0, 2e-6, 32)[1:]
        run = bare_rabi_experiment(times)
        noiseless = run(BARE)
        averaged = noise_average(run, NoiseSpec(samples=3, seed=1), BARE)
        assert np.array_equal(averaged, noiseless)

    def test_fixed_seed_reproducible(self):
        times = np.linspace(0.0, 2e-6, 32)[1:]
        run = bare_rabi_experiment(times)
        spec = NoiseSpec(sigma_detuning=0.2 * RABI, samples=16, seed=42)
        assert np.array_equal(noise_average(run, spec, BARE), noise_average(run, spec, BARE))

    def test_shot_mean_sums_in_draw_order_from_the_first_row(self):
        # a sum started from 0 would turn the -0.0 column into 0.0
        rows = [[-0.0, 0.1], [-0.0, 0.2], [-0.0, 0.3]]
        mean = shot_mean(iter(rows))
        assert mean.tolist() == [-0.0, ((0.1 + 0.2) + 0.3) / 3]
        assert math.copysign(1.0, mean[0]) == -1.0

    def test_rabi_amplitude_noise_matches_closed_form(self):
        # <P>(t) = (1 - exp(-sigma^2 t^2 / 2) cos(Omega_0 t)) / 2 for bare
        # resonant Rabi under Gaussian quasi-static amplitude noise
        times = np.linspace(0.0, 8 * 2 * math.pi / RABI, 160)[1:]
        run = bare_rabi_experiment(times)
        sigma = 0.05 * RABI
        averaged = noise_average(
            run, NoiseSpec(sigma_rabi_frac=0.05, samples=400, seed=3), BARE
        )
        closed = 0.5 * (1.0 - np.exp(-(sigma**2) * times**2 / 2.0) * np.cos(RABI * times))
        fit_mc = fit_decaying_sinusoid(times, averaged)
        fit_cf = fit_decaying_sinusoid(times, closed)
        assert fit_mc.decay_time == pytest.approx(fit_cf.decay_time, rel=0.10)

    def test_detuning_noise_matches_quadrature_oracle(self):
        # Gauss-Hermite average of the analytic detuned-Rabi formula
        from numpy.polynomial.hermite_e import hermegauss

        times = np.linspace(0.0, 8 * 2 * math.pi / RABI, 160)[1:]
        sigma = 0.3 * RABI
        nodes, weights = hermegauss(101)
        quad = np.zeros_like(times)
        for x, w in zip(nodes, weights):
            quad += w * analytic_rabi(RABI, sigma * x, times)
        quad /= math.sqrt(2.0 * math.pi)
        averaged = noise_average(
            bare_rabi_experiment(times),
            NoiseSpec(sigma_detuning=sigma, samples=600, seed=5),
            BARE,
        )
        fit_mc = fit_decaying_sinusoid(times, averaged)
        fit_quad = fit_decaying_sinusoid(times, quad)
        assert fit_mc.decay_time == pytest.approx(fit_quad.decay_time, rel=0.10)

    def test_decay_time_decreases_with_noise(self):
        times = np.linspace(0.0, 8 * 2 * math.pi / RABI, 160)[1:]
        run = bare_rabi_experiment(times)
        decay_times = []
        for sigma_frac in (0.15, 0.3, 0.45):
            averaged = noise_average(
                run, NoiseSpec(sigma_detuning=sigma_frac * RABI, samples=300, seed=11), BARE
            )
            decay_times.append(fit_decaying_sinusoid(times, averaged).decay_time)
        assert decay_times[0] > decay_times[1] > decay_times[2]

    def test_ccd_outlives_bare_in_gate_units(self):
        # equal quasi-static detuning noise: Q = T2 / T_pi favors the dressed drive
        from fits import quality_factor

        noise = NoiseSpec(sigma_detuning=0.3 * RABI, samples=150, seed=11)
        bare_times = np.linspace(0.0, 8 * 2 * math.pi / RABI, 160)[1:]
        bare_avg = noise_average(bare_rabi_experiment(bare_times), noise, BARE)
        q_bare = quality_factor(
            fit_decaying_sinusoid(bare_times, bare_avg), math.pi / RABI
        )

        ccd_times = lattice_times(CFG, 48)[1:]

        def ccd_run(shot):
            states = evolve_grid([second_frame_hamiltonian(shot)], ccd_times, ZERO_STATE)
            return np.abs(states[0, :, 1]) ** 2

        ccd_avg = noise_average(ccd_run, noise, CFG)
        q_ccd = quality_factor(fit_decaying_sinusoid(ccd_times, ccd_avg), math.pi / EM)
        assert q_ccd >= q_bare

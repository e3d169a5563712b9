import math

import numpy as np
import pytest

from ccdsim import experiments
from ccdsim.cli import main
from ccdsim.drive import (
    Scheme,
    default_config,
    first_frame_hamiltonian,
    gate_frame,
    second_frame_hamiltonian,
)
from ccdsim.experiments import (
    AxisDef,
    NoiseSpec,
    SweepGrid,
    bloch_trajectory,
    chevron_sweep,
    dressed_sequence_experiment,
    infidelity_curve,
    lattice_times,
    noise_average,
    rabi_error_sweep,
    spectrum,
)
from ccdsim.fitting import dominant_frequency, fit_decaying_sinusoid
from ccdsim.propagator import IntegratorError, evolve_grid
from ccdsim.qubit import QubitState

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
        grid = chevron_sweep(Scheme.BARE, BARE, detunings, durations)
        expected = analytic_rabi(RABI, detunings[:, None], durations[None, :])
        assert np.abs(grid.values - expected).max() < 1e-8

    def test_resonant_pi_time_unit_population(self):
        durations = np.array([math.pi / RABI])
        grid = chevron_sweep(Scheme.BARE, BARE, np.array([0.0]), durations)
        assert grid.values[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_detuned_pi_time_value(self):
        grid = chevron_sweep(
            Scheme.BARE, BARE, np.array([RABI]), np.array([math.pi / RABI])
        )
        assert grid.values[0, 0] == pytest.approx(0.31656383551035387, abs=1e-9)

    def test_zero_modulation_column_reduces_to_bare(self):
        # eps_m = 0: every CCD scheme collapses onto the bare chevron
        detunings = np.linspace(-RABI, RABI, 5)
        durations = np.linspace(0.1e-6, 0.8e-6, 16)
        no_mod = default_config(Scheme.CMCCD, mod_ratio=0.0)
        ccd = chevron_sweep(Scheme.CMCCD, no_mod, detunings, durations)
        bare = chevron_sweep(Scheme.BARE, BARE, detunings, durations)
        assert np.abs(ccd.values - bare.values).max() < 1e-10

    def test_values_bounded_and_deterministic(self):
        detunings = np.linspace(-0.4, 0.4, 7) * RABI
        durations = lattice_times(CFG, 33)[1:]
        a = chevron_sweep(Scheme.PMCCD, CFG, detunings, durations)
        b = chevron_sweep(Scheme.PMCCD, CFG, detunings, durations)
        assert np.array_equal(a.values, b.values)
        assert a.values.min() >= 0.0 and a.values.max() <= 1.0 + 1e-9

    def test_coarse_grid_warning_on_lattice_sampling(self):
        durations = lattice_times(CFG, 17)[1:]
        grid = chevron_sweep(Scheme.CMCCD, CFG, np.array([0.0, 0.1 * RABI]), durations)
        assert grid.meta["warnings"]  # 4 points per eps_m period < 8

    def test_monotonicity_validation(self):
        with pytest.raises(ValueError):
            chevron_sweep(Scheme.BARE, BARE, np.array([1.0, 0.0]), np.array([1e-6, 2e-6]))


class TestRabiErrorSweep:
    def test_bare_dominant_frequency_linear_in_error(self):
        errors = np.linspace(-0.2, 0.2, 7) * RABI
        durations = np.linspace(0.0, 10e-6, 512, endpoint=False)[1:]
        grid = rabi_error_sweep(Scheme.BARE, BARE, errors, durations)
        freqs = [dominant_frequency(durations, row) for row in grid.values]
        slope = np.polyfit(errors, freqs, 1)[0]
        assert slope * 2 * math.pi == pytest.approx(1.0, rel=0.01)

    def test_zero_error_row_equals_zero_detuning_chevron_row(self):
        durations = lattice_times(CFG, 17)[1:]
        err_grid = rabi_error_sweep(Scheme.PMCCD, CFG, np.array([0.0]), durations)
        chev = chevron_sweep(Scheme.PMCCD, CFG, np.array([0.0]), durations)
        assert np.abs(err_grid.values - chev.values).max() < 1e-12


class TestSpectrumGrid:
    def test_per_row_magnitudes(self):
        durations = np.linspace(0.0, 10e-6, 256, endpoint=False)[1:]
        grid = chevron_sweep(Scheme.BARE, BARE, np.array([0.0, RABI]), durations)
        spec = spectrum(grid)
        assert spec.values.shape == (2, spec.x_axis.values.size)
        assert spec.x_axis.units == "Hz"
        # dominant bins follow the effective Rabi frequencies
        f0 = spec.x_axis.values[np.argmax(spec.values[0])]
        f1 = spec.x_axis.values[np.argmax(spec.values[1])]
        bin_w = spec.x_axis.values[1]
        assert f0 == pytest.approx(RABI / (2 * math.pi), abs=bin_w)
        assert f1 == pytest.approx(math.sqrt(2) * RABI / (2 * math.pi), abs=bin_w)


class TestInfidelity:
    def test_cmccd_resonant_gate_is_exact(self):
        curve = infidelity_curve(Scheme.CMCCD, CFG, "detuning", np.array([0.0]))
        assert curve[0][1] <= 1e-10

    def test_bare_detuned_matches_analytic(self):
        curve = infidelity_curve(Scheme.BARE, BARE, "detuning", np.array([0.1 * RABI]))
        expected = 1.0 - analytic_rabi(RABI, 0.1 * RABI, math.pi / RABI)
        assert expected == pytest.approx(0.0099617596642271, rel=1e-10)
        assert curve[0][1] == pytest.approx(expected, abs=1e-8)

    def test_am_pm_resonant_positive_and_worse_than_cm(self):
        cm = infidelity_curve(Scheme.CMCCD, CFG, "detuning", np.array([0.0]))[0][1]
        am = infidelity_curve(Scheme.AMCCD, CFG, "detuning", np.array([0.0]))[0][1]
        pm = infidelity_curve(Scheme.PMCCD, CFG, "detuning", np.array([0.0]))[0][1]
        assert am > 1e-7 and pm > 1e-7
        assert cm < min(am, pm)

    def test_rabi_axis_applies_error(self):
        err = 0.1 * RABI
        curve = infidelity_curve(Scheme.BARE, BARE, "rabi", np.array([err]))
        # bare pi pulse with amplitude error: P = sin^2((1 + e) pi / 2)
        expected = 1.0 - math.sin((1 + 0.1) * math.pi / 2.0) ** 2
        assert curve[0][1] == pytest.approx(expected, abs=1e-8)


class TestTrajectory:
    def test_bare_and_cm_zero_error_markers_coincide(self):
        for scheme in (Scheme.BARE, Scheme.CMCCD):
            record = bloch_trajectory(scheme, CFG, 20 * math.pi, 8)
            assert record.spread <= 1e-8
            assert len(record.markers) == 40

    def test_am_pm_zero_error_spread_positive(self):
        for scheme in (Scheme.AMCCD, Scheme.PMCCD):
            record = bloch_trajectory(scheme, CFG, 20 * math.pi, 8)
            assert record.spread > 1e-3

    def test_detuned_bare_spread_large(self):
        record = bloch_trajectory(
            Scheme.BARE, CFG.with_errors(detuning=0.1 * RABI), 20 * math.pi, 8
        )
        assert record.spread > 0.1

    def test_marker_count_and_angle_validation(self):
        with pytest.raises(ValueError):
            bloch_trajectory(Scheme.CMCCD, CFG, 0.3)
        record = bloch_trajectory(Scheme.CMCCD, CFG, 2 * math.pi, 4)
        assert len(record.markers) == 4
        assert len(record.samples) == 17  # t=0 plus 4*4 samples


class TestGateFrame:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rate_used_by_every_gate_experiment(self, scheme, monkeypatch, tmp_path):
        # CFG has eps_m > 0, so only the bare scheme stays in the first frame
        rate = RABI if scheme is Scheme.BARE else EM
        build, got_rate, offset = gate_frame(CFG.with_scheme(scheme))
        assert got_rate == rate
        dressed = scheme is not Scheme.BARE
        assert build is (second_frame_hamiltonian if dressed else first_frame_hamiltonian)
        assert offset == (-math.pi / 2.0 if dressed else 0.0)

        record = bloch_trajectory(scheme, CFG, 2 * math.pi, 4)
        assert record.samples[4][0] == pytest.approx((math.pi / 2.0) / rate, rel=1e-12)

        spans = []

        def spy(hams, times, psi0, spec):
            spans.append(float(times[-1]))
            return evolve_grid(hams, times, psi0, spec)

        monkeypatch.setattr(experiments, "evolve_grid", spy)
        infidelity_curve(scheme, CFG, "detuning", np.array([0.0]))
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
            ccd = np.array(infidelity_curve(scheme, no_mod, axis, grid))
            bare = np.array(infidelity_curve(Scheme.BARE, BARE, axis, grid))
            assert np.abs(ccd - bare).max() <= 1e-12
        detuned = 0.1 * RABI
        ccd = bloch_trajectory(scheme, no_mod.with_errors(detuning=detuned), 10 * math.pi, 4)
        bare = bloch_trajectory(Scheme.BARE, BARE.with_errors(detuning=detuned), 10 * math.pi, 4)
        ccd_xyz = np.array([(t, *b) for t, b in ccd.samples])
        bare_xyz = np.array([(t, *b) for t, b in bare.samples])
        assert np.abs(ccd_xyz - bare_xyz).max() <= 1e-12
        assert ccd.spread == pytest.approx(bare.spread, abs=1e-12)


class TestDressedSequences:
    def test_ccd_rabi_oscillates_at_modulation_rate(self):
        times = lattice_times(CFG, 64)
        points = dressed_sequence_experiment("ccd_rabi", CFG, times)
        values = np.array([p for _, p in points])
        fit = fit_decaying_sinusoid(times, values)
        assert fit.frequency == pytest.approx(EM / (2 * math.pi), rel=0.005)
        assert not fit.decay_resolved  # unitary dynamics, no decay

    def test_ccd_ramsey_oscillates_at_modulation_rate(self):
        times = lattice_times(CFG, 64)
        points = dressed_sequence_experiment("ccd_ramsey", CFG, times)
        values = np.array([p for _, p in points])
        fit = fit_decaying_sinusoid(times, values)
        assert fit.frequency == pytest.approx(EM / (2 * math.pi), rel=0.005)

    def test_two_axis_sweep_is_period_2pi_cosine(self):
        phis = np.linspace(0.0, 4 * math.pi, 64)
        points = dressed_sequence_experiment("two_axis", CFG, phis)
        values = np.array([p for _, p in points])
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


class TestSweepGridGuard:
    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.1])
    def test_rejects_values_outside_unit_interval(self, bad):
        axis = AxisDef("duration", "s", np.array([0.0, 1.0]))
        values = np.array([[0.5, bad]])
        with pytest.raises(IntegratorError, match=r"\[0, 1\]"):
            SweepGrid(x_axis=axis, y_axis=AxisDef("detuning", "rad/s", np.zeros(1)), values=values)


def bare_rabi_experiment(times):
    def run(shot):
        states = evolve_grid([first_frame_hamiltonian(shot)], times, QubitState.zero())
        return np.abs(states[0, :, 1]) ** 2

    return run


class TestNoiseShots:
    # a drive that already carries static errors, so each draw must add to them
    ERRD = CFG.with_errors(detuning=0.03 * RABI, rabi_error=-0.01 * RABI)

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
            self.ERRD.with_errors(
                detuning=self.ERRD.detuning + d, rabi_error=self.ERRD.rabi_error + e
            )
            for d, e in zip(deltas, rabi_errors)
        ]
        assert noise.shots(self.ERRD) == expected

    def test_zero_sigmas_give_the_drive_itself(self):
        assert NoiseSpec(samples=8, seed=3).shots(self.ERRD) == [self.ERRD]

    @pytest.mark.parametrize("axis", ["sigma_detuning", "sigma_rabi_frac"])
    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_nan_or_negative_sigma_rejected(self, axis, bad):
        with pytest.raises(ValueError, match="sigmas"):
            NoiseSpec(**{axis: bad})


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
        from ccdsim.fitting import quality_factor

        noise = NoiseSpec(sigma_detuning=0.3 * RABI, samples=150, seed=11)
        bare_times = np.linspace(0.0, 8 * 2 * math.pi / RABI, 160)[1:]
        bare_avg = noise_average(bare_rabi_experiment(bare_times), noise, BARE)
        q_bare = quality_factor(
            fit_decaying_sinusoid(bare_times, bare_avg), math.pi / RABI
        )

        ccd_times = lattice_times(CFG, 48)[1:]

        def ccd_run(shot):
            states = evolve_grid([second_frame_hamiltonian(shot)], ccd_times, QubitState.zero())
            return np.abs(states[0, :, 1]) ** 2

        ccd_avg = noise_average(ccd_run, noise, CFG)
        q_ccd = quality_factor(fit_decaying_sinusoid(ccd_times, ccd_avg), math.pi / EM)
        assert q_ccd >= q_bare

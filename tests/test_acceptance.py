"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL line
per criterion. Every criterion is expected to pass; a failure message carries
the measured numbers. Two criteria measure with care, because the plain
reading would check something else (README "Install and test"):

- 06b compares how far detuning moves each scheme's quarter-turn markers
  from that scheme's own zero-detuning markers. The raw marker spread would
  count the AM/PM pulse-area error, which 06a requires at zero detuning, as
  detuning sensitivity.
- 07b reads each 8-sample lattice record with a least-squares fit of offset
  plus one cosine. On the modulation-period lattice the signal is a single
  stroboscopic tone (Floquet), so the fit is exact up to integrator error,
  whereas the Hann-interpolated spectral peak is biased by up to ~0.9 bin
  on so short a record near Nyquist.
"""
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from ccdsim.drive import (
    Scheme,
    counter_rotating_coefficient,
    default_config,
    drive_coefficient,
    first_frame_hamiltonian,
    iq_baseband,
    lab_hamiltonian,
    second_frame_hamiltonian,
)
from ccdsim.experiments import (
    NoiseSpec,
    bloch_trajectory,
    chevron_sweep,
    dressed_sequence_experiment,
    infidelity_curve,
    lattice_times,
    rabi_error_sweep,
)
from ccdsim.propagator import (
    IntegratorSpec,
    evolve,
    evolve_grid,
    propagator_unitary,
    richardson_check,
)
from ccdsim.qubit import ZERO_STATE, normalized, population_up
from ccdsim.rb import randomized_benchmarking

from fits import dominant_frequency, fit_decaying_sinusoid
from oracles import clifford_group, equal_up_to_phase, state_fidelity, to_second_frame

RABI = 2 * math.pi * 3.6e6
FIG8_RABI = 2 * math.pi * 2.2e6
LAB_CF4 = IntegratorSpec(steps_per_fastest_period=40)


def report(name: str, detail: str = "") -> None:
    print(f"ACCEPTANCE PASS {name}" + (f" ({detail})" if detail else ""))


def single_tone_fit(times: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of offset + one cosine to uniformly spaced samples.

    The offset and quadratures are linear; the frequency is scanned over
    (0, Nyquist) and refined by a bounded scalar search on the residual.
    Returns (frequency in Hz, rms residual).
    """
    n = np.arange(times.size)

    def residual(cycles_per_sample: float) -> np.ndarray:
        phase = 2 * math.pi * cycles_per_sample * n
        design = np.stack([np.ones_like(phase), np.cos(phase), np.sin(phase)], axis=1)
        coef, *_ = np.linalg.lstsq(design, values, rcond=None)
        return values - design @ coef

    def cost(cycles_per_sample: float) -> float:
        r = residual(cycles_per_sample)
        return float(r @ r)

    scan = np.linspace(0.0, 0.5, 2001)[1:-1]
    best = int(np.argmin([cost(f) for f in scan]))
    bracket = (scan[max(best - 1, 0)], scan[min(best + 1, scan.size - 1)])
    found = minimize_scalar(cost, bounds=bracket, method="bounded", options={"xatol": 1e-13})
    rms = float(np.sqrt(np.mean(residual(found.x) ** 2)))
    return float(found.x) / float(times[1] - times[0]), rms


class TestCounterRotatingCancellation:
    def test_01_counter_rotating_cancellation(self):
        em = default_config(Scheme.CMCCD).mod_strength
        assert counter_rotating_coefficient(default_config(Scheme.CMCCD)) == 0.0
        assert counter_rotating_coefficient(default_config(Scheme.AMCCD)) == -em / 2.0
        assert counter_rotating_coefficient(default_config(Scheme.PMCCD)) == +em / 2.0
        report("01 counter-rotating cancellation", "CM exactly 0, AM/PM -/+ eps_m/2")


class TestFrameEquivalence:
    def test_02_second_frame_transform_is_exact(self):
        rng = np.random.default_rng(20260809)
        worst = 1.0
        for _ in range(100):
            scheme = list(Scheme)[int(rng.integers(0, 4))]
            cfg = default_config(
                scheme,
                detuning=float(rng.uniform(-0.3, 0.3)) * RABI,
                rabi_error=float(rng.uniform(-0.2, 0.2)) * RABI,
                mod_ratio=float(rng.uniform(0.1, 0.5)),
                mod_phase=float(rng.choice([0.0, math.pi / 2, rng.uniform(0, 2 * math.pi)])),
                mw_phase=float(rng.uniform(0, 2 * math.pi)),
            )
            gate_rate = cfg.mod_strength or cfg.rabi / 4.0
            t1 = float(rng.uniform(0.5, 3.0)) * math.pi / gate_rate
            first = evolve(first_frame_hamiltonian(cfg), ZERO_STATE, 0.0, t1)
            second = evolve(second_frame_hamiltonian(cfg), ZERO_STATE, 0.0, t1)
            fidelity = state_fidelity(to_second_frame(first, cfg, t1), second)
            worst = min(worst, fidelity)
        assert worst >= 1.0 - 1e-8
        report("02 frame equivalence", f"worst infidelity {1 - worst:.2e} over 100 configs")


class TestCarrierRwa:
    def test_03_lab_vs_first_frame_populations(self):
        worst_ratio = 0.0
        for ratio in (1e3, 1e4):
            for scheme in (Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD):
                cfg = default_config(scheme, omega_mw=ratio * RABI)
                em = cfg.mod_strength
                durations = np.array([math.pi / (2 * em), math.pi / em, 2 * math.pi / em])
                lab = evolve_grid([lab_hamiltonian(cfg)], durations, ZERO_STATE, LAB_CF4)
                rot = evolve_grid([first_frame_hamiltonian(cfg)], durations, ZERO_STATE)
                bound = 2.0 / ratio
                gaps = np.abs(population_up(normalized(lab[0])) - population_up(normalized(rot[0])))
                for gap in gaps:
                    assert gap <= bound, (
                        f"{scheme.label} at ratio {ratio:.0e}: |dP| = {gap:.2e} > {bound:.0e}"
                    )
                    worst_ratio = max(worst_ratio, gap / bound)
        report("03 carrier RWA populations", f"worst |dP|/bound = {worst_ratio:.3f}")


class TestBareChevronLaw:
    def test_04_dominant_frequency_is_generalized_rabi(self):
        cfg = default_config(Scheme.BARE)
        durations = np.linspace(0.0, 10e-6, 513)[1:]
        detunings = np.linspace(-2.0, 2.0, 17) * RABI
        grid = chevron_sweep(cfg, detunings, durations)
        worst = 0.0
        for delta, row in zip(detunings, grid):
            measured = dominant_frequency(durations, row)
            expected = math.sqrt(RABI**2 + delta**2) / (2 * math.pi)
            worst = max(worst, abs(measured - expected) / expected)
        assert worst <= 0.01
        report("04 bare chevron law", f"worst relative error {worst:.2%}")


class TestGateInfidelity:
    def test_05_y_pi_infidelity_map(self):
        cfg = default_config(Scheme.CMCCD)
        bare_cfg = default_config(Scheme.BARE)
        on_res = {
            s: infidelity_curve(cfg.with_scheme(s), "detuning", np.array([0.0]))[0]
            for s in (Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD)
        }
        assert on_res[Scheme.CMCCD] <= 1e-8
        assert on_res[Scheme.AMCCD] > 1e-9 and on_res[Scheme.PMCCD] > 1e-9
        assert on_res[Scheme.AMCCD] > on_res[Scheme.CMCCD]
        assert on_res[Scheme.PMCCD] > on_res[Scheme.CMCCD]
        bare_analytic = 1.0 - math.sin(math.sqrt(1.01) * math.pi / 2) ** 2 / 1.01
        for sign in (+1.0, -1.0):
            grid = np.array([sign * 0.1 * RABI])
            bare = infidelity_curve(bare_cfg, "detuning", grid)[0]
            assert bare == pytest.approx(bare_analytic, abs=1e-4)
            for s in (Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD):
                ccd = infidelity_curve(cfg.with_scheme(s), "detuning", grid)[0]
                assert ccd < bare, f"{s.label} at delta={sign * 0.1:+.1f} Omega_0"
        report(
            "05 Y_pi infidelity map",
            f"on-resonance CM {on_res[Scheme.CMCCD]:.1e}, AM/PM "
            f"{on_res[Scheme.AMCCD]:.1e}/{on_res[Scheme.PMCCD]:.1e}, bare @0.1 "
            f"{bare_analytic:.2e}",
        )


class TestTrajectoryMarkers:
    def test_06a_zero_error_marker_spread(self):
        cfg = default_config(Scheme.CMCCD)
        for scheme in (Scheme.BARE, Scheme.CMCCD):
            spread = bloch_trajectory(cfg.with_scheme(scheme), 20 * math.pi, 8)[3]
            assert spread <= 1e-8, f"{scheme.label} spread {spread:.2e}"
        for scheme in (Scheme.AMCCD, Scheme.PMCCD):
            spread = bloch_trajectory(cfg.with_scheme(scheme), 20 * math.pi, 8)[3]
            assert spread > 1e-6, f"{scheme.label} spread {spread:.2e}"
        report("06a zero-error marker spread", "bare/CM exact, AM/PM spread > 0")

    @pytest.mark.parametrize("scheme", [Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD])
    def test_06b_detuned_spread_ordering(self, scheme):
        # Measured against each scheme's own zero-detuning markers: AM/PM
        # already spread by 0.112 at delta = 0 (the pulse-area error of 06a),
        # which is not detuning sensitivity.
        cfg = default_config(Scheme.CMCCD)
        detuned = cfg.with_errors(detuning=0.1 * RABI)

        def markers(drive) -> np.ndarray:
            _, xyz, is_marker, _ = bloch_trajectory(drive, 20 * math.pi, 8)
            return xyz[is_marker]

        def displacement(s: Scheme) -> float:
            ideal = markers(cfg.with_scheme(s))
            moved = markers(detuned.with_scheme(s))
            return float(np.linalg.norm(moved - ideal, axis=1).max())

        bare = displacement(Scheme.BARE)
        ccd = displacement(scheme)
        assert bare > ccd, (
            f"at delta = 0.1 Omega_0 over 20 pi, detuning moves the {scheme.label} "
            f"markers up to {ccd:.3f} from their zero-detuning positions, NOT less "
            f"than the bare qubit's {bare:.3f} (measured: bare 0.356, AM 0.091, "
            "PM 0.239, CM 0.154)"
        )
        report(f"06b detuned marker displacement [{scheme.label}]",
               f"bare {bare:.3f} > {scheme.label} {ccd:.3f}")


class TestSpectralFlatBands:
    def test_07a_detuning_flat_band(self):
        cfg = default_config(Scheme.CMCCD)
        target = cfg.mod_strength / (2 * math.pi)
        durations = lattice_times(cfg, 65)[1:]
        bin_width = 1.0 / (durations[-1] - durations[0])
        detunings = np.linspace(-0.3, 0.3, 9) * RABI
        for scheme in (Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD):
            grid = chevron_sweep(cfg.with_scheme(scheme), detunings, durations)
            for delta, row in zip(detunings, grid):
                measured = dominant_frequency(durations, row)
                assert abs(measured - target) <= bin_width, (
                    f"{scheme.label} at delta = {delta / RABI:+.2f} Omega_0: "
                    f"peak off by {abs(measured - target) / bin_width:.2f} bins"
                )
        report("07a detuning flat band", f"3 schemes within {bin_width / 1e3:.0f} kHz")

    @pytest.mark.parametrize("scheme", [Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD])
    def test_07b_rabi_error_flat_band(self, scheme):
        cfg = default_config(Scheme.CMCCD)
        target = cfg.mod_strength / (2 * math.pi)
        durations = lattice_times(cfg, 9)[1:]
        bin_width = 1.0 / (durations[-1] - durations[0])
        errors = np.linspace(-0.2, 0.2, 9) * RABI
        grid = rabi_error_sweep(cfg.with_scheme(scheme), errors, durations)
        for error, row in zip(errors, grid):
            measured, rms = single_tone_fit(durations, row)
            assert rms <= 1e-6, (
                f"{scheme.label} at Rabi error {error / RABI:+.2f} Omega_0: "
                f"single-tone fit leaves rms residual {rms:.1e} (measured <= 1.1e-8)"
            )
            assert abs(measured - target) <= bin_width, (
                f"{scheme.label} at Rabi error {error / RABI:+.2f} Omega_0: fitted "
                f"dressed frequency {measured / 1e6:.3f} MHz is "
                f"{abs(measured - target) / bin_width:.2f} bins from eps_m/2pi = "
                f"{target / 1e6:.2f} MHz (measured at +0.20: AM 0.85, PM 0.55, "
                "CM 0.63 bins; the bare qubit's linear shift is 1.40 bins)"
            )
        report(f"07b Rabi-error flat band [{scheme.label}]",
               f"within {bin_width / 1e3:.0f} kHz over +/-20%")

    def test_07c_bare_frequency_linear_in_rabi_error(self):
        cfg = default_config(Scheme.BARE)
        durations = np.linspace(0.0, 10e-6, 513)[1:]
        errors = np.linspace(-0.2, 0.2, 9) * RABI
        grid = rabi_error_sweep(cfg, errors, durations)
        freqs = [dominant_frequency(durations, row) for row in grid]
        slope = np.polyfit(errors, freqs, 1)[0]
        assert slope * 2 * math.pi == pytest.approx(1.0, rel=0.01)
        report("07c bare linear law", f"slope x 2pi = {slope * 2 * math.pi:.4f}")


class TestDressedPresets:
    def test_08_dressed_sequences(self):
        cfg = default_config(Scheme.CMCCD, rabi=FIG8_RABI)
        target = cfg.mod_strength / (2 * math.pi)
        times = lattice_times(cfg, 64)
        for kind in ("ccd_rabi", "ccd_ramsey"):
            values = dressed_sequence_experiment(kind, cfg, times)
            fit = fit_decaying_sinusoid(times, values)
            assert fit.frequency == pytest.approx(target, rel=0.005), kind
        phis = np.linspace(0.0, 4 * math.pi, 64)
        values = dressed_sequence_experiment("two_axis", cfg, phis)
        design = np.stack([np.cos(phis), np.sin(phis), np.ones_like(phis)], axis=1)
        coef, *_ = np.linalg.lstsq(design, values, rcond=None)
        residual = values - design @ coef
        r_squared = 1.0 - residual.var() / values.var()
        assert r_squared >= 0.999
        report("08 dressed presets", f"Rabi/Ramsey at eps_m/2pi, two-axis R^2 = {r_squared:.6f}")


class TestRandomizedBenchmarking:
    M_LIST = [1, 2, 4, 8, 16, 32, 64]

    def test_09a_ideal_matrices_reference(self):
        cfg = default_config(Scheme.CMCCD, rabi=FIG8_RABI)
        result = randomized_benchmarking(cfg, self.M_LIST, 15, NoiseSpec(seed=7), ideal=True)
        assert result.clifford_fidelity == pytest.approx(1.0, abs=1e-6)
        report("09a ideal-matrix benchmarking", f"F_c = {result.clifford_fidelity:.9f}")

    def test_09b_cm_noiseless_pulse_level(self):
        cfg = default_config(Scheme.CMCCD, rabi=FIG8_RABI)
        result = randomized_benchmarking(cfg, self.M_LIST, 15, NoiseSpec(seed=7))
        assert result.average_gate_fidelity >= 0.99999
        report("09b CMCCD noiseless benchmarking",
               f"F = {result.average_gate_fidelity:.7f} (M up to 64, K = 15)")

    def test_09c_static_detuning_robustness(self):
        cfg = default_config(Scheme.CMCCD, rabi=FIG8_RABI)
        drops = {}
        for scheme in (Scheme.BARE, Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD):
            drive = cfg.with_scheme(scheme)
            base = randomized_benchmarking(drive, self.M_LIST, 15, NoiseSpec(seed=7))
            hurt = randomized_benchmarking(
                drive.with_errors(detuning=0.05 * cfg.rabi), self.M_LIST, 15, NoiseSpec(seed=7)
            )
            drops[scheme] = base.average_gate_fidelity - hurt.average_gate_fidelity
        for scheme in (Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD):
            assert drops[scheme] < drops[Scheme.BARE], (
                f"{scheme.label} drop {drops[scheme]:.2e} vs bare {drops[Scheme.BARE]:.2e}"
            )
        report(
            "09c benchmarking robustness",
            "drops: " + ", ".join(f"{s.label}={drops[s]:.2e}" for s in drops),
        )


class TestNumericalHygiene:
    def presets(self):
        for scheme in Scheme:
            cfg = default_config(scheme, detuning=0.05 * RABI, rabi_error=-0.03 * RABI)
            rate = cfg.mod_strength or cfg.rabi
            yield first_frame_hamiltonian(cfg), math.pi / rate
            yield second_frame_hamiltonian(cfg), math.pi / rate

    def test_10a_unitarity_norm_and_step_halving(self):
        worst_unitarity = 0.0
        worst_drift = 0.0
        worst_gap = 0.0
        psi0 = ZERO_STATE
        for ham, duration in self.presets():
            u = propagator_unitary(ham, 0.0, duration)
            worst_unitarity = max(
                worst_unitarity, float(np.abs(u.conj().T @ u - np.eye(2)).max())
            )
            amps = u @ psi0
            worst_drift = max(worst_drift, abs(float(np.linalg.norm(amps)) - 1.0))
            _, gap = richardson_check(ham, psi0, 0.0, duration)
            worst_gap = max(worst_gap, gap)
        assert worst_unitarity <= 1e-10
        assert worst_drift <= 1e-10
        assert worst_gap <= 1e-8
        report(
            "10a numerical hygiene",
            f"unitarity {worst_unitarity:.1e}, drift {worst_drift:.1e}, "
            f"step-halving {worst_gap:.1e}",
        )

    def test_10b_worker_count_invariance(self, tmp_path, monkeypatch):
        from ccdsim import propagator
        from ccdsim.cli import main

        # 128 noise shots give the one stepped interval of the rb primitives two blocks
        args = [
            "rb", "--scheme", "cm", "--rabi-hz", "2.2e6", "--cliffords", "1,2,4",
            "--k", "3", "--noise-detuning-sigma-hz", "1e5", "--noise-samples", "128",
            "--seed", "3",
        ]
        outputs = {}
        for threads in ("1", "2", "4"):
            outputs[threads] = tmp_path / f"{threads}.csv"
            assert main(args + ["--threads", threads, "--out", str(outputs[threads])]) == 0
        monkeypatch.setattr(propagator, "_BLOCK", propagator._CHUNK)
        outputs["one block per chunk"] = tmp_path / "one_block_per_chunk.csv"
        assert main(args + ["--out", str(outputs["one block per chunk"])]) == 0
        assert len({out.read_bytes() for out in outputs.values()}) == 1
        report(
            "10b determinism",
            "byte-identical rb output for --threads 1, 2 and 4 and for one block per chunk",
        )

    def test_10c_lab_frame_performance_budget(self):
        import time

        cfg = default_config(Scheme.CMCCD)  # 15 GHz carrier
        started = time.monotonic()
        u = propagator_unitary(lab_hamiltonian(cfg), 0.0, 1e-6, LAB_CF4)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-10
        report("10c lab-frame budget", f"1 us at 15 GHz carrier in {elapsed:.1f} s")


class TestIqRoundTrip:
    def test_11_baseband_reconstruction(self):
        rng = np.random.default_rng(11)
        times = rng.uniform(0.0, 5e-6, 10_000)
        worst = 0.0
        for scheme in Scheme:
            cfg = default_config(scheme, rabi_error=0.03 * RABI, mw_phase=0.4)
            i_env, q_env = iq_baseband(cfg, times)
            carrier = cfg.omega_mw * times + cfg.mw_phase
            reconstructed = i_env * np.cos(carrier) - q_env * np.sin(carrier)
            direct = drive_coefficient(cfg, times)
            worst = max(worst, float(np.abs(reconstructed - direct).max() / np.abs(direct).max()))
        assert worst <= 1e-10
        report("11 I/Q round trip", f"worst relative error {worst:.1e} on 1e4 points")


class TestGroupTable:
    def test_clifford_group_sanity(self):
        # supporting check for the benchmarking engine: closure + 1.875 average
        group = clifford_group()
        assert len(group) == 24
        total = sum(len(g.decomposition) for g in group)
        assert total / 24 == 1.875
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = (group[int(i)] for i in rng.integers(0, 24, 2))
            product = a.matrix @ b.matrix
            assert sum(equal_up_to_phase(product, c.matrix) for c in group) == 1
        report("clifford table", "24 elements, closure, 45/24 primitives")

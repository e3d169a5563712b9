import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from ccdsim.config import parse_config
from ccdsim.drive import (
    DriveConfig,
    Scheme,
    counter_rotating_coefficient,
    default_config,
    drive_coefficient,
    first_frame_hamiltonian,
    iq_baseband,
    lab_hamiltonian,
    second_frame_hamiltonian,
)
from ccdsim.errors import ConfigError
from ccdsim.qubit import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, ZERO_STATE, population_up
from oracles import first_frame_phase, first_frame_unitary, matrix, second_frame_unitary

TWO_PI = 2.0 * math.pi
RABI = TWO_PI * 3.6e6


def make(scheme, **kwargs):
    return default_config(scheme, **kwargs)


class TestDriveConfig:
    def test_scheme_alpha_mapping(self):
        ratios = {
            Scheme.BARE: (0.0, 0.0),
            Scheme.AMCCD: (1.0, 0.0),
            Scheme.PMCCD: (0.0, 1.0),
            Scheme.CMCCD: (0.5, 0.5),
        }
        for scheme, pair in ratios.items():
            drive = DriveConfig(omega_mw=1.0, rabi=1.0, scheme=scheme)
            assert (drive.alpha_A, drive.alpha_P) == pair

    def test_alpha_constraint_enforced(self):
        # the drive holds a Scheme, so the four schemes' pairs are the only
        # modulation ratios it can have: a name or a pair of its own is refused
        for scheme in ("cm", (0.5, 0.5), (0.7, 0.7), None):
            with pytest.raises(ConfigError, match="^scheme must be a Scheme"):
                DriveConfig(omega_mw=1.0, rabi=1.0, scheme=scheme)

    def test_rabi_must_be_positive(self):
        with pytest.raises(ValueError):
            DriveConfig(omega_mw=1.0, rabi=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mod_ratio=float("nan")),
            dict(detuning=float("nan")),
            dict(rabi=float("inf")),
        ],
        ids=["nan-mod-ratio", "nan-detuning", "inf-rabi"],
    )
    def test_non_finite_fields_refused(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            make(Scheme.CMCCD, **kwargs)

    def test_detuning_is_stored_exactly(self):
        # stored as given: rebuilt as omega_L - omega_mw it would be rounded
        # by ~1e-11 relative against the 15 GHz carrier
        drive = parse_config("detuning_hz = 44000\n").drive_config()
        assert drive.detuning == TWO_PI * 44000
        assert drive.omega_L == drive.omega_mw + drive.detuning

    def test_dressed_needs_modulation_and_a_ccd_scheme(self):
        assert make(Scheme.CMCCD).dressed and make(Scheme.AMCCD).dressed
        assert not make(Scheme.CMCCD, mod_ratio=0.0).dressed
        assert not make(Scheme.BARE).dressed
        assert not replace(make(Scheme.CMCCD), scheme=Scheme.BARE).dressed

    def test_scheme_round_trip(self):
        for scheme in Scheme:
            drive = make(scheme)
            assert (drive.alpha_A, drive.alpha_P) == scheme.value
            assert Scheme.parse(scheme.label) is scheme


class TestLabHamiltonian:
    def test_modulation_off_at_t0(self):
        # eps_m = 0, no errors, phi_mw = 0: cos(0) = 1 so W(0) = Omega_0
        cfg = make(Scheme.CMCCD, mod_ratio=0.0)
        h = matrix(lab_hamiltonian(cfg), 0.0)
        expected = cfg.omega_L / 2 * SIGMA_Z + cfg.rabi * SIGMA_X
        assert np.allclose(h, expected, rtol=1e-12)

    def test_bare_reduces_to_plain_cosine_drive(self):
        cfg = make(Scheme.BARE, mw_phase=0.4)
        times = np.linspace(0.0, 3e-9, 50)
        expected = cfg.rabi * np.cos(cfg.omega_mw * times + cfg.mw_phase)
        assert np.allclose(drive_coefficient(cfg, times), expected, rtol=1e-12)

    def test_cmccd_matrix_against_frozen_oracle(self):
        # direct 40-digit evaluation of the modulated-drive formula at t = 50 ns
        cfg = make(Scheme.CMCCD)
        h = matrix(lab_hamiltonian(cfg), 50e-9)
        assert h[0, 1].real == pytest.approx(22235636.944726768, rel=1e-12)
        assert h[0, 1].imag == 0.0
        assert h[0, 0].real == pytest.approx(47123889803.846899, rel=1e-14)
        assert np.allclose(h, h.conj().T)

    def test_independent_formula_cross_check(self):
        # re-derive W(t) from scratch for random times and schemes
        rng = np.random.default_rng(5)
        for scheme in Scheme:
            cfg = make(scheme, rabi_error=0.07 * RABI, mw_phase=0.3)
            for t in rng.uniform(0.0, 1e-6, 20):
                m = cfg.rabi * t - cfg.mod_phase
                p = -(2 * cfg.alpha_P * cfg.mod_strength / cfg.rabi) * math.sin(m)
                a = (2 * cfg.alpha_A * cfg.mod_strength / cfg.rabi) * math.sin(m)
                theta = cfg.omega_mw * t + cfg.mw_phase + p
                w = (cfg.rabi + cfg.rabi_error) * (math.cos(theta) + a * math.sin(theta))
                assert drive_coefficient(cfg, t) == pytest.approx(w, rel=1e-10, abs=1e-3)


class TestFirstFrame:
    def test_bare_resonant_is_static_drive(self):
        cfg = make(Scheme.BARE)
        ham = first_frame_hamiltonian(cfg)
        for t in (0.0, 1e-7, 3.3e-7):
            assert np.allclose(matrix(ham, t), cfg.rabi / 2 * SIGMA_X, atol=1e-6)

    def test_amccd_value_by_symbolic_substitution(self):
        # theta_m = pi/2, t = 0: modulation term is
        # +(1 + Delta/Omega_0) alpha_A eps_m sin(theta_m) sigma_{phi+pi/2}
        cfg = make(Scheme.AMCCD, rabi_error=0.05 * RABI)
        h = matrix(first_frame_hamiltonian(cfg), 0.0)
        scale = (1 + cfg.rabi_error / cfg.rabi) * cfg.mod_strength
        expected = (cfg.rabi + cfg.rabi_error) / 2 * SIGMA_X + scale * SIGMA_Y
        assert np.allclose(h, expected, rtol=1e-12)

    def test_cmccd_modulation_field_is_circular(self):
        # constant magnitude eps_m/2 rotating in the (sigma_z, sigma_perp) plane
        cfg = make(Scheme.CMCCD)
        ham = first_frame_hamiltonian(cfg)
        times = np.linspace(0.0, 4 * cfg.mod_period, 500)
        coeffs = ham.coefficients(times)
        static = np.array([cfg.rabi / 2.0, 0.0, 0.0])
        modulation = coeffs - static
        norms = np.linalg.norm(modulation, axis=-1)
        assert np.all(np.abs(norms - cfg.mod_strength / 2.0) < 1e-12 * cfg.rabi)

    def test_amccd_modulation_is_linear_not_circular(self):
        cfg = make(Scheme.AMCCD)
        ham = first_frame_hamiltonian(cfg)
        times = np.linspace(0.0, 4 * cfg.mod_period, 500)
        modulation = ham.coefficients(times) - np.array([cfg.rabi / 2.0, 0.0, 0.0])
        norms = np.linalg.norm(modulation, axis=-1)
        assert norms.max() > 10 * norms.min() + 1e-9


class TestSecondFrame:
    def test_co_rotating_part_at_gate_phase(self):
        # delta = Delta = 0, theta_m = pi/2: static part is (eps_m/2) sigma_{phi+pi/2}
        for scheme in (Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD):
            cfg = make(scheme)
            ham = second_frame_hamiltonian(cfg)
            times = np.linspace(0.0, cfg.mod_period, 400, endpoint=False)
            mean = ham.coefficients(times).mean(axis=0)
            assert np.allclose(
                mean, [0.0, cfg.mod_strength / 2.0, 0.0], atol=1e-9 * cfg.rabi
            )

    def test_idle_phase_gives_z_generator(self):
        # theta_m = 0: co-rotating part is (eps_m/2) sigma_z
        cfg = make(Scheme.CMCCD, mod_phase=0.0)
        ham = second_frame_hamiltonian(cfg)
        assert np.allclose(matrix(ham, 0.37e-6), cfg.mod_strength / 2.0 * SIGMA_Z, atol=1e-6)

    def test_cmccd_counter_rotating_line_vanishes(self):
        cfg = make(Scheme.CMCCD)
        ham = second_frame_hamiltonian(cfg)
        # static co-rotating term only: coefficients are time-independent
        times = np.linspace(0.0, 2 * cfg.mod_period, 300)
        coeffs = ham.coefficients(times)
        assert np.abs(coeffs - coeffs[0]).max() < 1e-12 * cfg.rabi


class TestCounterRotatingCoefficient:
    def test_cancellation_and_signs(self):
        em = make(Scheme.CMCCD).mod_strength
        assert counter_rotating_coefficient(make(Scheme.CMCCD)) == 0.0
        assert counter_rotating_coefficient(make(Scheme.AMCCD)) == -em / 2.0
        assert counter_rotating_coefficient(make(Scheme.PMCCD)) == em / 2.0

    def test_cmccd_with_rabi_error(self):
        cfg = make(Scheme.CMCCD, rabi_error=0.1 * RABI)
        assert counter_rotating_coefficient(cfg) == pytest.approx(
            -0.025 * cfg.mod_strength, rel=1e-12
        )


class TestFrameUnitaries:
    def test_first_frame_identity_at_t0(self):
        for scheme in Scheme:
            assert np.allclose(first_frame_unitary(make(scheme), 0.0), IDENTITY)

    def test_first_frame_plain_rotating_when_alpha_p_zero(self):
        cfg = make(Scheme.AMCCD)
        t = 0.83e-7
        expected = np.diag(
            [np.exp(-1j * cfg.omega_mw * t / 2), np.exp(1j * cfg.omega_mw * t / 2)]
        )
        assert np.allclose(first_frame_unitary(cfg, t), expected, atol=1e-12)

    def test_first_frame_phase_against_quadrature_oracle(self):
        cfg = make(Scheme.CMCCD, mod_phase=0.7)

        def integrand(t):
            return cfg.omega_mw / 2 - cfg.alpha_P * cfg.mod_strength * math.cos(
                cfg.rabi * t - cfg.mod_phase
            )

        for t in (0.3e-7, 1.7e-7, cfg.mod_period):
            expected, _ = quad(integrand, 0.0, t, limit=500)
            assert first_frame_phase(cfg, t) == pytest.approx(expected, rel=1e-10)

    def test_modulation_phase_cancels_over_full_period(self):
        cfg = make(Scheme.CMCCD)
        t = cfg.mod_period
        assert first_frame_phase(cfg, t) == pytest.approx(
            cfg.omega_mw * math.pi / cfg.rabi, rel=1e-12
        )

    def test_second_frame_identity_and_periodicity(self):
        cfg = make(Scheme.CMCCD, mw_phase=0.4)
        assert np.allclose(second_frame_unitary(cfg, 0.0), IDENTITY)
        for n in (1, 2, 5):
            u = second_frame_unitary(cfg, n * cfg.mod_period)
            assert np.allclose(u, (-1.0) ** n * IDENTITY, atol=1e-12)

    def test_second_frame_half_period_is_pi_rotation(self):
        cfg = make(Scheme.CMCCD, mw_phase=0.0)
        u = second_frame_unitary(cfg, math.pi / cfg.rabi)
        assert np.allclose(u, -1j * SIGMA_X, atol=1e-12)

    def test_frame_unitaries_are_unitary(self):
        cfg = make(Scheme.PMCCD)
        for t in (0.0, 1e-8, 3e-7):
            for u in (first_frame_unitary(cfg, t), second_frame_unitary(cfg, t)):
                assert np.abs(u.conj().T @ u - IDENTITY).max() <= 1e-10


class TestFrameTransforms:
    def test_to_and_from_frames_are_inverses(self):
        from oracles import (
            from_first_frame,
            from_second_frame,
            state_fidelity,
            to_first_frame,
            to_second_frame,
        )

        rng = np.random.default_rng(6)
        cfg = make(Scheme.PMCCD, mw_phase=0.9)
        for _ in range(10):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = amps / np.linalg.norm(amps)
            t = float(rng.uniform(0.0, 1e-6))
            round1 = from_first_frame(to_first_frame(state, cfg, t), cfg, t)
            round2 = to_second_frame(from_second_frame(state, cfg, t), cfg, t)
            assert state_fidelity(round1, state) == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(round2, state, atol=1e-12)

    @pytest.mark.parametrize("ratio", [1e3, 1e4])
    def test_carrier_rwa_population_agreement(self, ratio):
        # lab-frame vs first-frame z populations within 2 Omega_0 / omega_mw
        from ccdsim.propagator import IntegratorSpec, evolve

        rng = np.random.default_rng(int(ratio))
        lab_spec = IntegratorSpec(steps_per_fastest_period=40)
        for _ in range(2):
            scheme = [Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD][int(rng.integers(3))]
            cfg = make(scheme, omega_mw=ratio * RABI, mw_phase=float(rng.uniform(0, 2 * np.pi)))
            t1 = float(rng.uniform(0.5, 1.5)) * math.pi / cfg.mod_strength
            lab = evolve(lab_hamiltonian(cfg), ZERO_STATE, 0.0, t1, lab_spec)
            rot = evolve(first_frame_hamiltonian(cfg), ZERO_STATE, 0.0, t1)
            assert abs(population_up(lab) - population_up(rot)) <= 2.0 / ratio


class TestFastestPeriod:
    def test_detuning_beyond_rabi_sets_the_scale(self):
        slow = make(Scheme.CMCCD)
        fast = make(Scheme.CMCCD, detuning=3 * RABI)
        assert first_frame_hamiltonian(slow).fastest_period == pytest.approx(
            2 * math.pi / RABI, rel=1e-12
        )
        assert first_frame_hamiltonian(fast).fastest_period == pytest.approx(
            2 * math.pi / (3 * RABI), rel=1e-6
        )

    def test_lab_frame_tracks_carrier(self):
        cfg = make(Scheme.CMCCD)
        assert lab_hamiltonian(cfg).fastest_period == pytest.approx(
            2 * math.pi / cfg.omega_mw, rel=1e-12
        )


class TestIQBaseband:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_round_trip_reconstruction(self, scheme):
        cfg = make(scheme, rabi_error=0.04 * RABI, mw_phase=0.25)
        rng = np.random.default_rng(42)
        times = rng.uniform(0.0, 5e-6, 10_000)
        i_env, q_env = iq_baseband(cfg, times)
        carrier = cfg.omega_mw * times + cfg.mw_phase
        reconstructed = i_env * np.cos(carrier) - q_env * np.sin(carrier)
        direct = drive_coefficient(cfg, times)
        scale = np.abs(direct).max()
        assert np.abs(reconstructed - direct).max() <= 1e-10 * scale

    def test_bare_is_constant_in_phase(self):
        cfg = make(Scheme.BARE, rabi_error=0.02 * RABI)
        times = np.linspace(0.0, 1e-6, 100)
        i_env, q_env = iq_baseband(cfg, times)
        assert np.allclose(i_env, cfg.rabi + cfg.rabi_error, rtol=1e-14)
        assert np.allclose(q_env, 0.0, atol=1e-9)

    def test_amccd_quadrature_envelope(self):
        # alpha_P = 0: I stays at the carrier amplitude, the modulation sits in Q
        cfg = make(Scheme.AMCCD)
        times = np.linspace(0.0, 2 * cfg.mod_period, 64)
        i_env, q_env = iq_baseband(cfg, times)
        assert np.allclose(i_env, cfg.rabi, rtol=1e-14)
        expected_q = -2.0 * cfg.mod_strength * np.sin(cfg.rabi * times - cfg.mod_phase)
        assert np.allclose(q_env, expected_q, atol=1e-6)

    def test_scalar_time_returns_sample(self):
        # a scalar time gives 0-d envelopes, equal to those of a one-element grid
        cfg = make(Scheme.PMCCD)
        i_env, q_env = iq_baseband(cfg, 1.3e-7)
        assert i_env.shape == q_env.shape == ()
        i_arr, q_arr = iq_baseband(cfg, np.array([1.3e-7]))
        assert i_env == i_arr[0] and q_env == q_arr[0]
        carrier = cfg.omega_mw * 1.3e-7 + cfg.mw_phase
        recon = i_env * math.cos(carrier) - q_env * math.sin(carrier)
        assert recon == pytest.approx(float(drive_coefficient(cfg, 1.3e-7)), rel=1e-9)

    def test_pmccd_constant_magnitude(self):
        # pure phase modulation: the I/Q vector has constant magnitude
        cfg = make(Scheme.PMCCD)
        times = np.linspace(0.0, 2 * cfg.mod_period, 64)
        i_env, q_env = iq_baseband(cfg, times)
        mags = np.hypot(i_env, q_env)
        assert np.allclose(mags, cfg.rabi, rtol=1e-12)

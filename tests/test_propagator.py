import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from ccdsim import propagator
from ccdsim.drive import (
    Hamiltonian,
    Scheme,
    default_config,
    first_frame_hamiltonian,
    lab_hamiltonian,
    second_frame_hamiltonian,
)
from ccdsim.errors import ConfigError, NumericalError
from ccdsim.propagator import (
    LAB_SPEC,
    ROTATING_SPEC,
    IntegratorSpec,
    evolve,
    evolve_grid,
    propagator_grid,
    propagator_unitary,
    richardson_check,
    su2_exp,
    su2_power,
)
from ccdsim.pulses import GATE_MOD_PHASE, simulate_program
from ccdsim.qubit import IDENTITY, SIGMA_X, ZERO_STATE, population_up
from oracles import one_state, plus_state, second_frame_coefficients, state_fidelity

RABI = 2 * math.pi * 3.6e6


def matrix(pair):
    """[[a, -b*], [b, a*]] for a Cayley-Klein pair (a, b) of arrays."""
    a, b = np.asarray(pair[0]), np.asarray(pair[1])
    return np.stack([np.stack([a, -b.conj()], -1), np.stack([b, a.conj()], -1)], -2)


def constant(h, fastest_period=math.inf):
    """The aperiodic (so stepped) Hamiltonian of the constant Hermitian 2x2 ``h``."""
    coeffs = np.array([h[1, 0].real, h[1, 0].imag, (h[0, 0] - h[1, 1]).real / 2.0])
    return Hamiltonian(lambda t: np.broadcast_to(coeffs, np.shape(t) + (3,)), fastest_period)


def rabi_population(rabi, delta, t):
    """Analytic driven two-level transfer probability (independent oracle)."""
    omega_eff = math.sqrt(rabi**2 + delta**2)
    return (rabi**2 / omega_eff**2) * math.sin(omega_eff * t / 2.0) ** 2


class TestSu2Exp:
    def test_matches_scipy_expm(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            c = rng.normal(size=3)
            dt = rng.uniform(0.01, 2.0)
            h = c[0] * SIGMA_X + c[1] * np.array([[0, -1j], [1j, 0]]) + c[2] * np.diag([1.0, -1.0])
            assert np.allclose(matrix(su2_exp(c, dt)), expm(-1j * dt * h), atol=1e-12)

    def test_zero_coefficients_give_identity(self):
        assert np.allclose(matrix(su2_exp(np.zeros(3), 0.7)), IDENTITY)

    def test_batched_shapes(self):
        coeffs = np.ones((4, 5, 3))
        assert matrix(su2_exp(coeffs, 0.1)).shape == (4, 5, 2, 2)


class TestEvolve:
    def test_zero_hamiltonian_leaves_state(self):
        ham = constant(np.zeros((2, 2), dtype=complex), fastest_period=1.0)
        out = evolve(ham, plus_state(), 0.0, 3.0)
        assert state_fidelity(out, plus_state()) == pytest.approx(1.0, abs=1e-14)

    def test_constant_pi_pulse(self):
        omega = RABI
        ham = constant(omega / 2 * SIGMA_X, fastest_period=2 * math.pi / omega)
        out = evolve(ham, ZERO_STATE, 0.0, math.pi / omega)
        assert state_fidelity(out, one_state()) >= 1.0 - 1e-10

    def test_detuned_rabi_against_analytic_oracle(self):
        # bare first frame, delta = Omega_0, duration pi/Omega_0
        cfg = replace(default_config(Scheme.BARE), detuning=RABI)
        out = evolve(first_frame_hamiltonian(cfg), ZERO_STATE, 0.0, math.pi / RABI)
        expected = rabi_population(RABI, RABI, math.pi / RABI)
        assert expected == pytest.approx(0.31656383551035387, rel=1e-12)
        assert population_up(out) == pytest.approx(expected, abs=1e-10)

    def test_grid_sampling_matches_single_shots(self):
        cfg = default_config(Scheme.CMCCD, detuning=0.05 * RABI)
        ham = second_frame_hamiltonian(cfg)
        times = np.linspace(0.2e-6, 1.0e-6, 5)
        sampled = evolve_grid([ham], times, ZERO_STATE)[0]
        for t, amps in zip(times, sampled):
            single = evolve(ham, ZERO_STATE, 0.0, float(t))
            assert state_fidelity(amps, single) >= 1.0 - 1e-9

    def test_rejects_reversed_interval(self):
        ham = constant(SIGMA_X, fastest_period=1.0)
        with pytest.raises(ValueError):
            evolve(ham, ZERO_STATE, 1.0, 0.0)

    def test_requires_step_information(self):
        ham = constant(SIGMA_X)  # no period, unbounded step
        with pytest.raises(NumericalError):
            evolve(ham, ZERO_STATE, 0.0, 1.0)


class TestTimeChecks:
    HAM = second_frame_hamiltonian(default_config(Scheme.CMCCD, detuning=0.05 * RABI))

    @pytest.mark.parametrize(
        "call",
        [
            lambda h: evolve(h, ZERO_STATE, math.nan, 1e-6),
            lambda h: propagator_unitary(h, 0.0, math.inf),
            lambda h: propagator_grid([h], [0.0, math.inf]),
        ],
        ids=["evolve-nan-t0", "unitary-inf-t1", "grid-inf-time"],
    )
    def test_non_finite_time_is_refused(self, call):
        with pytest.raises(ValueError, match="must be finite"):
            call(self.HAM)


GATE_CFG = default_config(Scheme.CMCCD)
#: every entry point that takes a start state, run for one modulation period
START_STATE_ENTRY_POINTS = {
    "evolve": lambda psi0: evolve(
        second_frame_hamiltonian(GATE_CFG), psi0, 0.0, GATE_CFG.mod_period
    ),
    "evolve_grid": lambda psi0: evolve_grid(
        [second_frame_hamiltonian(GATE_CFG)], [GATE_CFG.mod_period], psi0
    ),
    "richardson_check": lambda psi0: richardson_check(
        second_frame_hamiltonian(GATE_CFG), psi0, 0.0, GATE_CFG.mod_period
    ),
    "simulate_program": lambda psi0: simulate_program(
        [GATE_CFG], [[(GATE_MOD_PHASE, 0.0, GATE_CFG.mod_period)]], psi0
    ),
}


class TestStartState:
    @pytest.mark.parametrize("name", START_STATE_ENTRY_POINTS)
    @pytest.mark.parametrize("shape", [(3,), (1, 2)])
    def test_a_start_of_another_shape_is_a_config_error(self, name, shape):
        psi0 = np.full(shape, 1.0 / math.sqrt(np.prod(shape)), dtype=complex)  # of unit norm
        message = rf"^psi0 must have shape \(2,\), got {re.escape(str(shape))}$"
        with pytest.raises(ConfigError, match=message):
            START_STATE_ENTRY_POINTS[name](psi0)

    @pytest.mark.parametrize("name", START_STATE_ENTRY_POINTS)
    def test_an_unnormalized_start_is_a_numerical_error(self, name):
        with pytest.raises(NumericalError, match="norm 1.414"):
            START_STATE_ENTRY_POINTS[name](np.array([1.0, 1.0]))


class TestPropagatorUnitary:
    def test_zero_span_is_identity(self):
        cfg = default_config(Scheme.CMCCD)
        u = propagator_unitary(second_frame_hamiltonian(cfg), 0.3e-6, 0.3e-6)
        assert np.allclose(u, IDENTITY)

    def test_constant_hamiltonian_matches_expm(self):
        h = 0.8 * SIGMA_X + 0.3 * np.diag([1.0, -1.0])
        ham = constant(h, fastest_period=2 * math.pi)
        u = propagator_unitary(ham, 0.0, 1.3)
        assert np.allclose(u, expm(-1.3j * h), atol=1e-12)

    def test_cmccd_second_frame_pi_rotation(self):
        # co-rotating term only: a pi rotation about phi_mw + pi/2 in pi/eps_m
        cfg = default_config(Scheme.CMCCD)
        u = propagator_unitary(second_frame_hamiltonian(cfg), 0.0, math.pi / cfg.mod_strength)
        assert abs(u[1, 0]) ** 2 >= 1.0 - 1e-10

    def test_composition_property(self):
        cfg = default_config(Scheme.PMCCD, detuning=0.1 * RABI)
        ham = second_frame_hamiltonian(cfg)
        t1, t2 = 0.4e-6, 0.9e-6
        # split at a step-commensurate point so both paths use identical steps
        u_full = propagator_unitary(ham, 0.0, t2)
        u_a = propagator_unitary(ham, 0.0, t1)
        u_b = propagator_unitary(ham, t1, t2)
        assert np.abs(u_b @ u_a - u_full).max() < 1e-9

    def test_unitarity_over_random_configs(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            scheme = rng.choice(list(Scheme))
            cfg = default_config(
                scheme,
                detuning=float(rng.uniform(-0.3, 0.3)) * RABI,
                rabi_error=float(rng.uniform(-0.2, 0.2)) * RABI,
                mod_ratio=float(rng.uniform(0.05, 0.5)),
            )
            duration = float(rng.uniform(0.1, 2.0)) * 2 * math.pi / cfg.rabi
            u = propagator_unitary(first_frame_hamiltonian(cfg), 0.0, duration)
            assert np.abs(u.conj().T @ u - IDENTITY).max() <= 1e-10


class TestAccuracy:
    def test_step_halving_convergence_on_presets(self):
        for scheme in Scheme:
            cfg = default_config(scheme, detuning=0.07 * RABI, rabi_error=-0.05 * RABI)
            gate_time = math.pi / (cfg.mod_strength or cfg.rabi)
            for build in (first_frame_hamiltonian, second_frame_hamiltonian):
                _, gap = richardson_check(build(cfg), ZERO_STATE, 0.0, gate_time)
                assert gap <= 1e-8

    def test_cf4_is_fourth_order(self):
        cfg = default_config(Scheme.PMCCD, detuning=0.11 * RABI, mw_phase=0.3)
        ham = first_frame_hamiltonian(cfg)
        t1 = 3 * cfg.mod_period
        reference = evolve(
            ham, ZERO_STATE, 0.0, t1, IntegratorSpec(steps_per_fastest_period=6400)
        )

        def error(spec):
            out = evolve(ham, ZERO_STATE, 0.0, t1, spec)
            return np.abs(out - reference).max()

        cf4_coarse = error(IntegratorSpec(steps_per_fastest_period=100))
        cf4_fine = error(IntegratorSpec(steps_per_fastest_period=200))
        assert 11.0 < cf4_coarse / cf4_fine < 21.0  # ~ h^4

    def test_two_methods_agree(self):
        cfg = default_config(Scheme.AMCCD, detuning=0.02 * RABI)
        ham = second_frame_hamiltonian(cfg)
        mid = evolve(ham, ZERO_STATE, 0.0, 1e-6, IntegratorSpec(steps_per_fastest_period=800))
        cf4 = evolve(ham, ZERO_STATE, 0.0, 1e-6, IntegratorSpec())
        assert state_fidelity(mid, cf4) >= 1.0 - 1e-9


class TestEvolveGrid:
    def test_matches_scalar_evolutions(self):
        base = default_config(Scheme.CMCCD)
        detunings = np.array([-0.2, 0.0, 0.15]) * RABI
        hams = [first_frame_hamiltonian(replace(base, detuning=d)) for d in detunings]
        times = np.arange(1, 6) * base.mod_period
        states = evolve_grid(hams, times, ZERO_STATE)
        # every |delta| < Omega_0, so each Hamiltonian alone takes the batch's step
        for row, ham in enumerate(hams):
            for col, t in enumerate(times):
                single = evolve(ham, ZERO_STATE, 0.0, float(t), ROTATING_SPEC)
                overlap = abs(np.vdot(single, states[row, col])) ** 2
                assert overlap >= 1.0 - 1e-12

    def test_rejects_descending_times(self):
        cfg = default_config(Scheme.CMCCD)
        with pytest.raises(ValueError):
            evolve_grid([first_frame_hamiltonian(cfg)], np.array([2e-6, 1e-6]), ZERO_STATE)

    def test_stepped_chunks_bound_batch_times_steps(self, monkeypatch):
        base = default_config(Scheme.CMCCD)
        hams = [
            first_frame_hamiltonian(replace(base, detuning=d * RABI))
            for d in (-0.2, 0.0, 0.15)
        ]
        times = np.array([0.37, 1.9, 3.3]) * base.mod_period  # off the lattice: stepped
        reference = evolve_grid(hams, times, ZERO_STATE)
        sizes = []
        inner = propagator._step_unitaries

        def spy(*args, **kwargs):
            us = inner(*args, **kwargs)
            sizes.append(us[0].size)  # batch x steps
            return us

        monkeypatch.setattr(propagator, "_CHUNK", 64)
        monkeypatch.setattr(propagator, "_step_unitaries", spy)
        chunked = evolve_grid(hams, times, ZERO_STATE)
        assert len(sizes) > 2 * len(times)  # several chunks per interval
        assert max(sizes) <= 64
        assert np.abs(chunked - reference).max() < 1e-12


class TestSpecValidation:
    def test_minimum_steps_per_period(self):
        with pytest.raises(ValueError):
            IntegratorSpec(steps_per_fastest_period=10)

    def test_lab_spec_default(self):
        assert LAB_SPEC.steps_per_fastest_period == 40
        assert ROTATING_SPEC.steps_per_fastest_period == 200


def repeated_product(u, k):
    out = np.eye(2, dtype=complex)
    for _ in range(k):
        out = u @ out
    return out


class TestSu2Power:
    def test_matches_repeated_multiplication(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pair = su2_exp(rng.normal(size=3), rng.uniform(0.1, 3.0))
            u = matrix(pair)
            for k in (0, 1, 2, 3, 17, 256, 301):
                assert np.abs(matrix(su2_power(pair, k)) - repeated_product(u, k)).max() < 1e-12

    def test_identity_and_minus_identity_exact(self):
        eye = np.eye(2, dtype=complex)
        # 10**9 + 1 periods: k * pi in floating point is no longer a multiple of pi
        for k in (0, 1, 2, 7, 256, 257, 10**9, 10**9 + 1):
            assert np.array_equal(matrix(su2_power((1.0, 0.0), k)), eye)
            assert np.array_equal(matrix(su2_power((-1.0, 0.0), k)), (-1) ** k * eye)

    def test_zero_power_is_identity(self):
        u = su2_exp(np.array([0.3, -1.2, 0.7]), 0.9)
        assert np.array_equal(matrix(su2_power(u, 0)), np.eye(2, dtype=complex))

    @pytest.mark.parametrize("theta", [1e-12, 3e-13, math.pi - 1e-12, math.pi - 3e-13])
    def test_angles_near_zero_and_pi(self, theta):
        axis = np.array([0.48, -0.6, 0.64])  # unit vector
        pair = su2_exp(axis, theta)
        u = matrix(pair)
        for k in (1, 2, 5, 256, 300):
            exact = matrix(su2_exp(axis, k * theta))
            assert np.abs(matrix(su2_power(pair, k)) - exact).max() < 1e-12
            assert np.abs(matrix(su2_power(pair, k)) - repeated_product(u, k)).max() < 1e-12

    def test_batched_powers_broadcast(self):
        rng = np.random.default_rng(8)
        a, b = su2_exp(rng.normal(size=(4, 3)), 0.7)
        us = matrix((a, b))
        ks = np.array([0, 1, 5, 256, 1000])
        out = matrix(su2_power((a[:, None], b[:, None]), ks))
        assert out.shape == (4, 5, 2, 2)
        for i in range(4):
            for j, k in enumerate(ks):
                assert np.abs(out[i, j] - matrix(su2_power((a[i], b[i]), int(k)))).max() == 0.0
                assert np.abs(out[i, j] - repeated_product(us[i], int(k))).max() < 1e-11

    def test_negative_power_inverts(self):
        u = su2_exp(np.array([0.2, 0.9, -0.4]), 1.1)
        inverse, power = matrix(su2_power(u, -3)), matrix(su2_power(u, 3))
        assert np.abs(inverse @ power - np.eye(2)).max() < 1e-14

    def test_rejects_fractional_powers(self):
        with pytest.raises(TypeError):
            su2_power((1.0, 0.0), 0.5)


def _random_hamiltonians(scheme, build, count, seed):
    rng = np.random.default_rng(seed)
    base = default_config(scheme)
    return [
        build(replace(base, detuning=d * RABI, rabi_error=e * RABI))
        for d, e in rng.uniform(-0.3, 0.3, size=(count, 2))
    ]


class _PathSpy:
    """Records whether each propagation took a lattice path (True) or stepped."""

    def __init__(self, monkeypatch):
        self.paths = []
        inner = propagator._lattice_unitaries

        def spy(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.paths.append(result is not None)
            return result

        monkeypatch.setattr(propagator, "_lattice_unitaries", spy)


LATTICE_COUNTS = np.array([0, 1, 2, 5, 256, 263])


class TestLatticePaths:
    @pytest.mark.parametrize("build", [first_frame_hamiltonian, second_frame_hamiltonian])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_fast_path_matches_stepped_cf4(self, scheme, build, monkeypatch):
        spy = _PathSpy(monkeypatch)
        hams = _random_hamiltonians(scheme, build, 3, seed=list(Scheme).index(scheme))
        period = default_config(scheme).mod_period
        times = LATTICE_COUNTS * period
        fast = evolve_grid(hams, times, ZERO_STATE)
        if hams[0].period == 0.0:
            # constant H is in closed form at any time; step it by clearing the period
            stepped = evolve_grid(
                [replace(h, period=math.inf) for h in hams], times, ZERO_STATE
            )
        else:
            # one extra sample half a period past the lattice forces stepping
            nudged = np.append(times, times[-1] + 0.5 * period)
            stepped = evolve_grid(hams, nudged, ZERO_STATE)[:, :-1]
        assert spy.paths == [True, False]
        assert np.abs(fast - stepped).max() <= 1e-7

    @pytest.mark.parametrize("build", [first_frame_hamiltonian, second_frame_hamiltonian])
    def test_single_propagation_matches_stepped(self, build, monkeypatch):
        spy = _PathSpy(monkeypatch)
        for scheme in Scheme:
            ham = _random_hamiltonians(scheme, build, 1, seed=31)[0]
            stepped_ham = replace(ham, period=math.inf)
            period = default_config(scheme).mod_period
            t0, t1 = 3 * period, 259 * period
            u_fast = propagator_unitary(ham, t0, t1)
            u_step = propagator_unitary(stepped_ham, t0, t1)
            assert np.abs(u_fast - u_step).max() <= 1e-7
            psi_fast = evolve(ham, plus_state(), t0, t1)
            psi_step = evolve(stepped_ham, plus_state(), t0, t1)
            assert np.abs(psi_fast - psi_step).max() <= 1e-7
        assert spy.paths == [True, False, True, False] * len(Scheme)

    def test_constant_hamiltonian_closed_form_off_lattice(self):
        cfg = default_config(Scheme.BARE, detuning=0.4 * RABI, rabi_error=-0.1 * RABI)
        ham = first_frame_hamiltonian(cfg)
        assert ham.period == 0.0
        times = np.linspace(0.0, 7.3e-6, 57)
        closed = evolve_grid([ham], times, ZERO_STATE)
        stepped = evolve_grid([replace(ham, period=math.inf)], times, ZERO_STATE)
        assert np.abs(closed - stepped).max() <= 1e-9
        u = propagator_unitary(ham, 0.13e-6, 2.9e-6)
        coeffs = ham.coefficients(np.array(0.0))
        assert np.abs(u - matrix(su2_exp(coeffs, 2.9e-6 - 0.13e-6))).max() <= 1e-15

    def test_mixed_constant_and_periodic_batch_powers(self, monkeypatch):
        # a constant member is periodic with every period, so the batch keeps the fast path
        base = default_config(Scheme.CMCCD)
        hams = [
            second_frame_hamiltonian(replace(base, detuning=d))
            for d in (-0.1 * RABI, 0.0, 0.1 * RABI)
        ]
        assert [h.period for h in hams] == [base.mod_period, 0.0, base.mod_period]
        spy = _PathSpy(monkeypatch)
        times = LATTICE_COUNTS * base.mod_period
        fast = evolve_grid(hams, times, ZERO_STATE)
        stepped = evolve_grid(
            [replace(h, period=math.inf) for h in hams], times, ZERO_STATE
        )
        assert spy.paths == [True, False]
        assert np.abs(fast - stepped).max() <= 1e-7

    def test_off_lattice_grid_is_stepped_bit_for_bit(self, monkeypatch):
        hams = _random_hamiltonians(Scheme.PMCCD, first_frame_hamiltonian, 3, seed=4)
        period = default_config(Scheme.PMCCD).mod_period
        times = np.array([0.0, 1.0, 2.5, 4.0, 9.0]) * period
        spy = _PathSpy(monkeypatch)
        grid = evolve_grid(hams, times, ZERO_STATE)
        reference = evolve_grid(
            [replace(h, period=math.inf) for h in hams], times, ZERO_STATE
        )
        assert spy.paths == [False, False]
        assert np.array_equal(grid, reference)

    def test_time_just_off_the_lattice_is_stepped(self, monkeypatch):
        # 1e-10 periods past k T is a real time, not rounding: powering U(T)
        # there would return U(0) and be off by about |H| 1e-10 T
        hams = _random_hamiltonians(Scheme.CMCCD, first_frame_hamiltonian, 3, seed=6)
        period = default_config(Scheme.CMCCD).mod_period
        times = np.array([0.0, 1e-10, 7.0]) * period
        spy = _PathSpy(monkeypatch)
        grid = evolve_grid(hams, times, ZERO_STATE)
        oracle = evolve_grid(
            [replace(h, period=math.inf) for h in hams], times, ZERO_STATE
        )
        assert spy.paths == [False, False]
        assert np.abs(grid - oracle).max() <= 1e-12

    def test_hamiltonian_without_period_never_powers(self, monkeypatch):
        spy = _PathSpy(monkeypatch)
        cfg = default_config(Scheme.CMCCD, detuning=0.05 * RABI)
        period = cfg.mod_period
        times = np.arange(4) * period
        aperiodic = replace(second_frame_hamiltonian(cfg), period=math.inf)
        assert lab_hamiltonian(cfg).period == math.inf
        evolve_grid([aperiodic], times, ZERO_STATE)
        evolve(aperiodic, ZERO_STATE, 0.0, 2 * period)
        propagator_unitary(aperiodic, period, 3 * period)
        assert spy.paths == [False] * 3

    def test_mixed_periods_in_batch_step(self, monkeypatch):
        spy = _PathSpy(monkeypatch)
        slow = default_config(Scheme.CMCCD, rabi=RABI / 2, detuning=0.1 * RABI)
        fast = default_config(Scheme.CMCCD, detuning=0.1 * RABI)
        hams = [first_frame_hamiltonian(slow), first_frame_hamiltonian(fast)]
        evolve_grid(hams, np.arange(3) * slow.mod_period, ZERO_STATE)
        assert spy.paths == [False]

    def test_nan_on_fast_path_raises(self):
        cfg = default_config(Scheme.CMCCD, detuning=0.1 * RABI)
        ham = replace(
            second_frame_hamiltonian(cfg),
            coefficients=lambda t: np.full(np.shape(t) + (3,), np.nan),
        )
        times = np.arange(1, 4) * cfg.mod_period
        with pytest.raises(NumericalError):
            evolve_grid([ham], times, ZERO_STATE)
        with pytest.raises(NumericalError):
            propagator_unitary(ham, 0.0, times[-1])
        with pytest.raises(NumericalError):
            evolve(ham, ZERO_STATE, 0.0, times[-1])

    def test_replaced_member_takes_the_per_member_path(self):
        # one member with a replaced coefficients keeps the whole batch off
        # the frame-data evaluator: the replacement is called, NaN still raises
        cfgs = [default_config(Scheme.AMCCD, detuning=d * RABI) for d in (-0.1, 0.05, 0.2)]
        hams = [second_frame_hamiltonian(cfg) for cfg in cfgs]
        times = np.array([0.4, 1.0, 2.0]) * cfgs[0].mod_period
        calls = []

        def replaced(t):
            calls.append(np.shape(t))
            return second_frame_coefficients(cfgs[1])(t)

        mixed = [hams[0], replace(hams[1], coefficients=replaced), hams[2]]
        assert propagator_grid(mixed, times).tobytes() == propagator_grid(hams, times).tobytes()
        assert calls
        nan = replace(hams[1], coefficients=lambda t: np.full(np.shape(t) + (3,), np.nan))
        with pytest.raises(NumericalError):
            propagator_grid([hams[0], nan, hams[2]], times)


#: chunk and block sizes at which each case below has several chunks and
#: several blocks per chunk, partial blocks included
SMALL = (1 << 12, 1 << 10)
DEFAULT = (propagator._CHUNK, propagator._BLOCK)
OFF_LATTICE = np.array([0.37, 1.9, 3.3])  # in modulation periods: stepped


def _lab_trace():
    ham = lab_hamiltonian(default_config(Scheme.CMCCD))
    return propagator_unitary(ham, 0.0, 2e-8, LAB_SPEC)  # 12,000 steps


def _first_frame_rows():
    base = default_config(Scheme.CMCCD)
    hams = [
        first_frame_hamiltonian(replace(base, detuning=d * RABI))
        for d in np.linspace(-0.3, 0.3, 41)
    ]
    return propagator.propagator_grid(hams, OFF_LATTICE * base.mod_period)


def _second_frame_batch():
    base = default_config(Scheme.AMCCD)
    return propagator.propagator_grid(
        _random_hamiltonians(Scheme.AMCCD, second_frame_hamiltonian, 256, seed=13),
        OFF_LATTICE[:2] * base.mod_period,  # chunks of 256 steps, blocks of 64
    )


class TestBlockPool:
    """The aligned blocks an interval's chunks are stepped in, one at a time."""

    @pytest.mark.parametrize(
        "compute, sizes",
        [(_lab_trace, SMALL), (_first_frame_rows, SMALL), (_second_frame_batch, DEFAULT)],
        ids=["lab", "first_frame_41_rows", "second_frame_256"],
    )
    def test_any_worker_count_gives_the_same_bytes(self, monkeypatch, compute, sizes):
        # blocks of a half and a quarter serial block give the chunk's tree too
        chunk, block = sizes
        monkeypatch.setattr(propagator, "_CHUNK", chunk)
        # one block per chunk reduces each chunk in one tree, as unblocked stepping did
        monkeypatch.setattr(propagator, "_BLOCK", chunk)
        reference = compute().tobytes()
        for shift in (0, 1, 2):
            monkeypatch.setattr(propagator, "_BLOCK", block >> shift)
            assert compute().tobytes() == reference, block >> shift

    def test_steps_in_flight_never_exceed_one_serial_block(self, monkeypatch):
        base = default_config(Scheme.CMCCD)
        hams = [
            first_frame_hamiltonian(replace(base, detuning=d * RABI))
            for d in (-0.2, 0.0, 0.15)
        ]
        chunk, block = SMALL
        monkeypatch.setattr(propagator, "_CHUNK", chunk)
        monkeypatch.setattr(propagator, "_BLOCK", block)
        in_flight, peak = [0], [0]
        inner = propagator._step_unitaries

        def spy(coefficients, t0, h, k, *out):
            in_flight[0] += len(hams) * k.size
            peak[0] = max(peak[0], in_flight[0])
            try:
                return inner(coefficients, t0, h, k, *out)
            finally:
                in_flight[0] -= len(hams) * k.size

        monkeypatch.setattr(propagator, "_step_unitaries", spy)
        times = np.array([0.37, 9.9]) * base.mod_period  # chunks of 1,365 steps x 3
        propagator.propagator_grid(hams, times)
        # the serial block is 256 steps x 3, the largest power of two <= block // 3
        assert peak[0] == 256 * len(hams) and in_flight[0] == 0

    @pytest.mark.parametrize(
        "failing",
        [{0}, {1}, {0, 1}, {20}],
        ids=["first", "second", "first_and_second", "in_a_later_chunk"],
    )
    def test_a_failing_block_stops_the_stepping(self, monkeypatch, failing):
        monkeypatch.setattr(propagator, "_CHUNK", 64)
        monkeypatch.setattr(propagator, "_BLOCK", 4)
        inner, started = propagator._step_unitaries, []

        def spy(coefficients, t0, h, k, *out):
            started.append(len(started))
            if started[-1] in failing:
                raise NumericalError(str(started[-1]))
            return inner(coefficients, t0, h, k, *out)

        monkeypatch.setattr(propagator, "_step_unitaries", spy)
        ham = constant(np.diag([1.0, -1.0]), fastest_period=1.0)  # 200 steps in 50 blocks of 4
        with pytest.raises(NumericalError) as raised:
            propagator_unitary(ham, 0.0, 1.0)
        # the first failing block's error, and no block stepped after it
        assert str(raised.value) == str(min(failing)) == str(started[-1])

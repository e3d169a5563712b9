import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeWarning, curve_fit

from ccdsim import rb
from ccdsim.clifford import PRIMITIVES, multiplication_table
from ccdsim.config import parse_config
from ccdsim.drive import FrameCoefficients, Scheme, default_config, gate_frame
from ccdsim.experiments import NoiseSpec
from ccdsim.propagator import propagator_unitary
from ccdsim.pulses import GATE_MOD_PHASE, simulate_program
from ccdsim.qubit import population_up
from ccdsim.rb import (
    _fit_decay,
    _primitive_unitaries,
    _sequence_indices,
    randomized_benchmarking,
)
from oracles import (
    clifford,
    clifford_group,
    clifford_sequence_program,
    equal_up_to_phase,
    real_form_signal_matrix,
    recovery_clifford,
    recovery_indices,
)

CFG = default_config(Scheme.CMCCD, rabi=2 * math.pi * 2.2e6)
RABI = CFG.rabi
M_LIST = [1, 2, 4, 8, 16]


class TestDraws:
    def test_counter_based_draws_are_order_independent(self):
        a = _sequence_indices(7, 16, 3)
        b = _sequence_indices(7, 16, 3)
        assert np.array_equal(a, b)
        assert not np.array_equal(_sequence_indices(7, 16, 4), a)
        assert not np.array_equal(_sequence_indices(8, 16, 3), a)
        assert a.shape == (16,)
        assert a.min() >= 0 and a.max() < 24

    def test_fixed_seed_full_run_reproducible(self):
        kwargs = dict(noise=NoiseSpec(sigma_detuning=0.02 * RABI, samples=4, seed=5))
        a = randomized_benchmarking(CFG, M_LIST, 3, **kwargs)
        b = randomized_benchmarking(CFG, M_LIST, 3, **kwargs)
        assert np.array_equal(a.signal, b.signal)
        assert a.average_gate_fidelity == b.average_gate_fidelity


class TestIdealEngine:
    def test_ideal_matrices_give_unit_fidelity(self):
        # the exact rotations compose without rounding at every length
        lengths = [1, 2, 4, 8, 16, 32, 64, 128, 256]
        result = randomized_benchmarking(CFG, lengths, 5, NoiseSpec(seed=1), ideal=True)
        assert result.signal.tolist() == [1.0] * len(lengths)
        assert (result.fit_residual, result.clifford_fidelity) == (0.0, 1.0)
        assert result.average_gate_fidelity == 1.0

    def test_forced_identity_draw_gives_unit_signal(self):
        # find a (seed, M=1, k) draw that lands on the identity Clifford
        seed = next(
            s for s in range(200) if _sequence_indices(s, 1, 0)[0] == 0
        )
        result = randomized_benchmarking(
            CFG, [1], 1, NoiseSpec(seed=seed), ideal=True
        )
        assert result.signal[0] == pytest.approx(1.0, abs=1e-12)


class TestBatchedPrimitives:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_match_per_shot_stepped_propagators(self, scheme):
        rng = np.random.default_rng(11)
        deltas, rabi_errors = rng.normal(0.0, 0.05 * RABI, size=(2, 3))
        base = CFG.with_scheme(scheme)
        shots = [base.with_errors(detuning=d, rabi_error=e) for d, e in zip(deltas, rabi_errors)]
        prims = _primitive_unitaries(shots)
        build, rate, axis_offset = gate_frame(base)
        for shot, errd in enumerate(shots):
            for name, axis, angle in PRIMITIVES:
                if axis == "i":
                    expected = np.eye(2)
                else:
                    # a positive turn by |angle|, about the opposite axis when angle < 0
                    azimuth = {"x": 0.0, "y": math.pi / 2}[axis] + math.pi * (angle < 0.0)
                    pulse = errd.with_pulse(GATE_MOD_PHASE, azimuth + axis_offset)
                    stepped = replace(build(pulse), period=math.inf)
                    expected = propagator_unitary(stepped, 0.0, abs(angle) / rate)
                assert np.abs(prims[name][shot] - expected).max() <= 1e-10

    def test_rb_long_shots_evaluate_each_block_as_one_batch(self, monkeypatch):
        # rb_long's 64 shots, one gate drive each: one evaluation per cf4 node
        # of their one block, where 4 azimuths per shot made 2 nodes x 4 blocks
        cfg = parse_config(
            "scheme = cm\nrabi_hz = 2.2e6\ndetuning_hz = 44000\n"
            "noise_detuning_sigma_hz = 1e5\nnoise_samples = 64\n"
        )
        shots = cfg.noise_spec().shots(cfg.drive_config())
        sizes, evaluate = [], FrameCoefficients.evaluate.__func__

        def spy(cls, rows, t, groups):
            sizes.append(len(rows))
            return evaluate(cls, rows, t, groups)

        monkeypatch.setattr(FrameCoefficients, "evaluate", classmethod(spy))
        _primitive_unitaries(shots)
        assert sizes == [64, 64]


class TestPulseLevel:
    def test_cm_noiseless_fidelity_near_one(self):
        result = randomized_benchmarking(CFG, M_LIST, 5, NoiseSpec(seed=7))
        assert result.average_gate_fidelity >= 0.99999

    def test_bare_noiseless_fidelity_exact(self):
        result = randomized_benchmarking(
            CFG.with_scheme(Scheme.BARE), M_LIST, 5, NoiseSpec(seed=7)
        )
        assert result.average_gate_fidelity >= 1.0 - 1e-9

    def test_cached_primitives_match_program_simulation(self):
        # one (M, k) sequence evaluated via the per-shot cache must agree with
        # the segment-by-segment compiled-program propagation
        cfg = CFG.with_errors(detuning=0.07 * RABI, rabi_error=-0.04 * RABI)
        gates = [clifford(int(i)) for i in _sequence_indices(3, 6, 0)]
        recovery = recovery_clifford(gates, "up")
        program = clifford_sequence_program(gates + [recovery], cfg)
        p_program = population_up(simulate_program([cfg], program[None])[0])

        result = randomized_benchmarking(cfg, [6], 1, NoiseSpec(seed=3))
        # reconstruct p_up for the up-recovery from signal and the down case
        # signal = p_up(up) - p_up(down); rebuild the up case directly instead
        from ccdsim.rb import _clifford_unitaries, _primitive_unitaries

        prims = _primitive_unitaries([cfg])
        cliff_us = _clifford_unitaries(prims)[0]
        u = np.eye(2, dtype=complex)
        for gate in gates:
            u = cliff_us[gate.index] @ u
        u = cliff_us[recovery.index] @ u
        p_cached = abs(u[1, 0]) ** 2
        assert p_cached == pytest.approx(p_program, abs=1e-9)
        assert result.signal.shape == (1,)

    def test_static_detuning_drop_smaller_for_ccd(self):
        drops = {}
        for scheme in (Scheme.BARE, Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD):
            cfg = CFG.with_scheme(scheme)
            base = randomized_benchmarking(cfg, M_LIST, 5, NoiseSpec(seed=7))
            hurt = randomized_benchmarking(
                cfg.with_errors(detuning=0.05 * RABI), M_LIST, 5, NoiseSpec(seed=7)
            )
            drops[scheme] = base.average_gate_fidelity - hurt.average_gate_fidelity
        for scheme in (Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD):
            assert drops[scheme] < drops[Scheme.BARE]

    def test_noise_produces_decay_and_convergent_fit(self):
        noise = NoiseSpec(sigma_detuning=0.15 * RABI, samples=25, seed=13)
        result = randomized_benchmarking(CFG.with_scheme(Scheme.BARE), M_LIST, 6, noise)
        assert result.converged
        assert result.clifford_fidelity < 1.0
        assert result.signal[0] > result.signal[-1]
        assert result.meta["signal_matrix"].shape == (len(M_LIST), 6)

    def test_mod_strength_lattice_requirement(self):
        bad = default_config(Scheme.CMCCD, mod_ratio=0.3)
        with pytest.raises(ValueError):
            randomized_benchmarking(bad, [1, 2], 2, NoiseSpec(seed=0))

    def test_invariants_of_result(self):
        result = randomized_benchmarking(
            CFG.with_scheme(Scheme.PMCCD), M_LIST, 4, NoiseSpec(seed=9)
        )
        f_c = result.clifford_fidelity
        assert 0.0 <= f_c <= 1.0
        assert result.average_gate_fidelity == pytest.approx(
            1.0 - (1.0 - f_c) / 1.875, abs=1e-15
        )

    def test_sampling_depth_warning_when_signal_drowns(self):
        # heavy noise drives the long-sequence signal under 3x its standard error
        noise = NoiseSpec(sigma_detuning=0.5 * RABI, samples=8, seed=21)
        result = randomized_benchmarking(
            CFG.with_scheme(Scheme.BARE), [1, 4, 16, 64, 256], 4, noise
        )
        assert any("standard error" in w for w in result.warnings)

    def test_m_list_validation(self):
        with pytest.raises(ValueError):
            randomized_benchmarking(CFG, [4, 2], 2, NoiseSpec(seed=0))
        with pytest.raises(ValueError):
            randomized_benchmarking(CFG, [], 2, NoiseSpec(seed=0))


def looped_signal(base, m_list, k_randomizations, noise, *, ideal=False):
    """The RB signal from one 2x2 product per gate, sequence by sequence and
    shot by shot, with recoveries from the matrix search. Each shot adds its
    own seeded draw to the static errors of the drive ``base``."""
    rng = np.random.default_rng(noise.seed)
    deltas = base.detuning + rng.normal(0.0, noise.sigma_detuning, noise.samples)
    rabi_errors = base.rabi_error + rng.normal(
        0.0, noise.sigma_rabi_frac * base.rabi, noise.samples
    )
    shots = []
    if ideal:
        shots.append([gate.matrix for gate in clifford_group()])
    else:
        for delta, rabi_error in zip(deltas, rabi_errors):
            shot = base.with_errors(detuning=delta, rabi_error=rabi_error)
            prims = {
                name: u[0] for name, u in _primitive_unitaries([shot]).items()
            }
            unitaries = []
            for gate in clifford_group():
                u = np.eye(2, dtype=complex)
                for name in gate.decomposition:
                    u = prims[name] @ u
                unitaries.append(u)
            shots.append(unitaries)
    zero = np.array([1.0, 0.0], dtype=complex)
    signal = []
    for m in m_list:
        means = []
        for k in range(k_randomizations):
            gates = [clifford(int(i)) for i in _sequence_indices(noise.seed, m, k)]
            up, down = recovery_clifford(gates, "up"), recovery_clifford(gates, "down")
            total = 0.0
            for unitaries in shots:
                u = np.eye(2, dtype=complex)
                for gate in gates:
                    u = unitaries[gate.index] @ u
                total += abs((unitaries[up.index] @ u @ zero)[1]) ** 2
                total -= abs((unitaries[down.index] @ u @ zero)[1]) ** 2
            means.append(total / len(shots))
        signal.append(np.mean(means))
    return np.array(signal)


ALL_SCHEMES = [Scheme.BARE, Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD]
DRAWS = {
    "ideal": dict(noise=NoiseSpec(seed=4), ideal=True),
    "static": dict(
        noise=NoiseSpec(seed=4),
        cfg=CFG.with_errors(detuning=0.03 * RABI, rabi_error=-0.02 * RABI),
    ),
    "noisy": dict(
        noise=NoiseSpec(sigma_detuning=0.04 * RABI, sigma_rabi_frac=0.02, samples=3, seed=4),
        cfg=CFG.with_errors(detuning=0.01 * RABI),
    ),
}


class TestBatchedComposition:
    @pytest.mark.parametrize("draw", sorted(DRAWS))
    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
    def test_matches_per_sequence_loop(self, scheme, draw):
        kwargs = dict(DRAWS[draw])
        noise = kwargs.pop("noise")
        cfg = kwargs.pop("cfg", CFG).with_scheme(scheme)
        m_list = [1, 3, 8]
        batched = randomized_benchmarking(cfg, m_list, 3, noise, **kwargs)
        looped = looped_signal(cfg, m_list, 3, noise, **kwargs)
        assert np.max(np.abs(batched.signal - looped)) <= 1e-12

    @pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.label)
    def test_noiseless_shots_are_one_shot(self, scheme):
        # without noise every shot is the drive itself, whatever noise.samples says
        cfg = CFG.with_errors(detuning=0.03 * RABI).with_scheme(scheme)
        one = randomized_benchmarking(cfg, M_LIST, 3, NoiseSpec(samples=1, seed=4))
        eight = randomized_benchmarking(cfg, M_LIST, 3, NoiseSpec(samples=8, seed=4))
        assert eight.signal.tobytes() == one.signal.tobytes()

    @pytest.mark.parametrize("block", [1, 7])
    def test_shot_block_does_not_change_a_byte(self, monkeypatch, block):
        noise = NoiseSpec(sigma_detuning=0.05 * RABI, sigma_rabi_frac=0.01, samples=20, seed=6)
        args = (CFG, M_LIST, 3, noise)
        default = randomized_benchmarking(*args)
        monkeypatch.setattr(rb, "_BLOCK_BYTES", 160 * 3 * block)  # K = 3 strings
        blocked = randomized_benchmarking(*args)
        assert blocked.signal.tobytes() == default.signal.tobytes()
        assert (
            blocked.meta["signal_matrix"].tobytes() == default.meta["signal_matrix"].tobytes()
        )
        assert blocked.average_gate_fidelity == default.average_gate_fidelity


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True),
    st.integers(1, 4),
    st.booleans(),
)
def test_bloch_composition_matches_real_form(seed, shots, lengths, k, ideal):
    # random U(2) stacks (global phases included) or the ideal Cliffords
    rng = np.random.default_rng(seed)
    if ideal:
        us = np.stack([g.matrix for g in clifford_group()])[None]
    else:
        z = rng.normal(size=(2, shots, 24, 2, 2))
        us = np.linalg.qr(z[0] + 1j * z[1])[0]
    strings = [rng.integers(0, 24, size=(k, m)) for m in sorted(lengths)]
    bloch = rb._signal_matrix(rb._bloch_rotations(us), strings)
    assert np.abs(bloch - real_form_signal_matrix(us, strings)).max() <= 1e-13


class TestRecoveryTable:
    def test_multiplication_table_matches_matrix_products(self):
        table = multiplication_table()
        for a in range(24):
            for b in range(24):
                product = clifford(a).matrix @ clifford(b).matrix
                assert equal_up_to_phase(clifford(int(table[a, b])).matrix, product)

    @pytest.mark.parametrize("target", ["up", "down"])
    def test_every_ordered_pair_matches_matrix_search(self, target):
        pairs = np.array([(a, b) for a in range(24) for b in range(24)])
        expected = [
            recovery_clifford([clifford(a), clifford(b)], target).index for a, b in pairs
        ]
        assert recovery_indices(pairs, target).tolist() == expected

    @pytest.mark.parametrize("length", [1, 17, 64])
    def test_random_strings_match_matrix_search(self, length):
        strings = np.random.default_rng(length).integers(0, 24, size=(25, length))
        for target in ("up", "down"):
            expected = [
                recovery_clifford([clifford(int(i)) for i in row], target).index
                for row in strings
            ]
            assert recovery_indices(strings, target).tolist() == expected

    def test_rejects_malformed_strings(self):
        with pytest.raises(ValueError):
            recovery_indices(np.zeros((3, 0), dtype=int), "up")
        with pytest.raises(ValueError):
            recovery_indices(np.array([[0, 24]]), "up")
        with pytest.raises(ValueError):
            recovery_indices(np.array([[-1, 2]]), "down")
        with pytest.raises(ValueError):
            recovery_indices(np.array([[0, 1]]), "sideways")


def curve_fit_decay(lengths, signal):
    """Bounded ``curve_fit`` of A p^M from the log-linear start, run to
    convergence: at its default tolerances it stops up to 5e-9 short of the
    minimum in p on the noisy ``M_LIST`` signal."""
    magnitude = np.abs(signal)
    slope, intercept = np.polyfit(lengths, np.log(magnitude), 1)
    start = [np.clip(math.exp(intercept), 1e-6, 2.0), np.clip(math.exp(slope), 1e-6, 1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)  # the covariance is unused
        (a, p), _ = curve_fit(
            lambda m, a, p: a * p**m, lengths.astype(float), signal, p0=start,
            bounds=([0.0, 0.0], [2.0, 1.0]), xtol=1e-15, ftol=1e-15, gtol=1e-15,
        )
    return a, p


ACCEPTANCE_M = [1, 2, 4, 8, 16, 32, 64]
RB_LONG = (
    "scheme = cm\nrabi_hz = 2.2e6\ncliffords = 1,2,4,8,16,32,64,128,256\n"
    "k_randomizations = 30\nnoise_detuning_sigma_hz = 1e5\nnoise_samples = 64\n"
)


def rb_long(seed):
    """The perfbench ``rb_long`` run (``ccdsim rb --static-detuning-frac 0.02``)."""
    cfg = parse_config(RB_LONG + f"seed = {seed}\n")
    drive = cfg.drive_config()
    return randomized_benchmarking(
        drive.with_errors(detuning=0.02 * 2 * math.pi * cfg.rabi_hz),
        list(cfg.cliffords), cfg.k_randomizations, cfg.noise_spec(),
    )


#: RB runs of the test suite (the noisy M_LIST run, 09b and 09c) and of rb_long
FIT_RUNS = {
    "noisy-M_LIST": lambda: randomized_benchmarking(
        CFG.with_scheme(Scheme.BARE), M_LIST, 6,
        NoiseSpec(sigma_detuning=0.15 * RABI, samples=25, seed=13),
    ),
    **{
        f"09c-{scheme.label}{'-detuned' * hurt}": (
            lambda scheme=scheme, hurt=hurt: randomized_benchmarking(
                CFG.with_errors(detuning=0.05 * RABI * hurt).with_scheme(scheme), ACCEPTANCE_M,
                15, NoiseSpec(seed=7),
            )
        )
        for scheme in ALL_SCHEMES
        for hurt in (False, True)
    },
    **{f"rb_long-seed{seed}": (lambda seed=seed: rb_long(seed)) for seed in range(4)},
}


class TestDecayFit:
    @pytest.mark.parametrize("run", FIT_RUNS)
    def test_matches_bounded_curve_fit(self, run):
        result = FIT_RUNS[run]()
        a, p, _, warning = _fit_decay(result.lengths, result.signal)
        expected_a, expected_p = curve_fit_decay(result.lengths, result.signal)
        assert warning is None and result.converged
        assert abs(p - expected_p) <= 1e-9
        assert abs(a - expected_a) <= 1e-8

    def test_amplitude_above_its_bound_is_clipped(self):
        lengths = np.array(ACCEPTANCE_M)
        signal = 2.5 * 0.9**lengths
        a, p, _, warning = _fit_decay(lengths, signal)
        assert warning is None and a == 2.0
        assert abs(p - curve_fit_decay(lengths, signal)[1]) <= 1e-9

    def test_finds_the_lower_of_two_residual_minima(self):
        # a noisy signal whose residual over p has local minima near 0.878 and 0.981
        lengths = np.array(ACCEPTANCE_M)
        signal = np.array([0.6075, 0.4552, 0.4483, 0.0394, 0.2106, 0.2805, 0.23])
        scan = np.linspace(0.0, 1.0, 100_001)
        _, costs = rb._projected_fit(scan, lengths.astype(float), signal)
        a, p, residual, warning = _fit_decay(lengths, signal)
        assert warning is None
        assert abs(p - scan[np.argmin(costs)]) <= 1e-5
        assert residual**2 * lengths.size <= costs.min()

    def test_flat_signal_gives_unit_decay(self):
        a, p, residual, warning = _fit_decay(np.array(M_LIST), np.ones(len(M_LIST)))
        assert warning is None
        assert abs(p - 1.0) <= 1e-12 and abs(a - 1.0) <= 1e-12
        assert residual <= 1e-12

    @pytest.mark.parametrize(
        "m_list, signal, reported",
        [
            (M_LIST, [0.9, np.nan, 0.7, 0.5, 0.3], "log-linear estimate reported"),
            (M_LIST, [0.9, np.inf, 0.7, 0.5, 0.3], "log-linear estimate reported"),
            # no usable length: no estimate, only placeholders
            (M_LIST, [0.0, 0.0, 0.0, 0.0, 0.0], "no decay estimate exists"),
            (M_LIST, [-0.9, -0.8, -0.7, -0.5, -0.3], "log-linear estimate reported"),
            # log-linear intercept 7,000: exp overflows
            ([255, 256], [-1.0, -1.1e-12], "log-linear estimate reported"),
        ],
        ids=["nan", "inf", "zero", "negative", "negative-steep"],
    )
    def test_unidentified_decay_is_not_converged(self, monkeypatch, m_list, signal, reported):
        signal = np.array(signal)
        a, p, _, warning = _fit_decay(np.array(m_list), signal)
        assert "did not converge" in warning and reported in warning
        assert 0.0 <= a <= 2.0 and 0.0 <= p <= 1.0
        # the run reports it: its signal replaced by this one at the fit
        monkeypatch.setattr(rb, "_fit_decay", lambda lengths, _: _fit_decay(lengths, signal))
        result = randomized_benchmarking(CFG, m_list, 2, NoiseSpec(seed=1))
        assert not result.converged
        assert (result.clifford_fidelity, result.fit_amplitude) == ((1.0 + p) / 2.0, a)
        assert warning in result.warnings

    def test_single_length_is_not_converged(self):
        # one length identifies no decay: the fidelity fields are placeholders
        result = randomized_benchmarking(CFG, [4], 3, NoiseSpec(seed=1))
        assert not result.converged
        (warning,) = (w for w in result.warnings if "did not converge" in w)
        assert "no decay estimate exists" in warning and "placeholders" in warning
        assert "log-linear" not in warning

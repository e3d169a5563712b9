import math

import numpy as np
import pytest

from ccdsim import experiments, pulses
from ccdsim.config import parse_config
from ccdsim.drive import Scheme, default_config
from ccdsim.errors import ConfigError
from ccdsim.experiments import NoiseSpec, dressed_sequence_experiment, lattice_times, noise_average
from ccdsim.propagator import ROTATING_SPEC, IntegratorSpec
from ccdsim.pulses import (
    GATE_MOD_PHASE,
    IDLE_MOD_PHASE,
    parse_program,
    require_gate_lattice,
    simulate_program,
)
from ccdsim.qubit import ZERO_STATE, bloch_vector, population_up
from oracles import per_piece_oracle, plus_state, second_frame_unitary, state_fidelity

CFG = default_config(Scheme.CMCCD)
PERIOD = CFG.mod_period
#: a bare drive from the config: no modulation scheme, but eps_m = Omega_0 / 4
BARE_FROM_CONFIG = parse_config("scheme = bare\n").drive_config()


def gate(angle, phi_mw=0.0, cfg=CFG):
    """The piece of a gate of ``angle`` about phi_mw + pi/2: it lasts angle / eps_m."""
    return (GATE_MOD_PHASE, phi_mw, angle / cfg.mod_strength)


def idle(duration):
    return (IDLE_MOD_PHASE, 0.0, duration)


def run(pieces, psi0=ZERO_STATE, cfg=CFG):
    """Final amplitudes of one program of ``pieces`` under ``cfg``."""
    return simulate_program([cfg], np.array([pieces], dtype=float).reshape(1, -1, 3), psi0)[0]


class TestSegments:
    def test_gate_duration_is_angle_over_mod_strength(self):
        theta, phi, duration = parse_program(f"gate {math.pi!r} 0.0\n", CFG)[0]
        assert duration == pytest.approx(math.pi / CFG.mod_strength, rel=1e-15)
        assert duration == pytest.approx(4 * math.pi / CFG.rabi, rel=1e-12)
        assert theta == math.pi / 2
        assert phi == 0.0

    def test_quarter_gate_spans_one_modulation_period(self):
        duration = parse_program(f"gate {math.pi / 2!r} 0.0\n", CFG)[0, 2]
        assert duration == pytest.approx(PERIOD, rel=1e-12)

    def test_full_rotation_duration(self):
        duration = parse_program(f"gate {2 * math.pi!r} 0.0\n", CFG)[0, 2]
        assert duration == pytest.approx(2 * math.pi / CFG.mod_strength, rel=1e-15)

    def test_gate_requires_modulation(self):
        for bare in (default_config(Scheme.BARE), BARE_FROM_CONFIG):
            with pytest.raises(ValueError, match="dressed drive"):
                parse_program(f"gate {math.pi!r} 0.0\n", bare)

    def test_not_dressed_refusal_is_one_compile_error(self):
        # a program file and the gate-lattice guard refuse the same fault alike
        refusals = []
        for refuse in (lambda: parse_program(f"gate {math.pi!r} 0.0\n", BARE_FROM_CONFIG),
                       lambda: require_gate_lattice(BARE_FROM_CONFIG)):
            with pytest.raises(ConfigError) as caught:
                refuse()
            assert type(caught.value) is ConfigError
            refusals.append(str(caught.value))
        assert refusals[0] == refusals[1]

    def test_idle_zero_duration_allowed(self):
        assert parse_program("idle 0\n", CFG).tolist() == [[0.0, 0.0, 0.0]]

    def test_segment_theta_m_follows_its_kind(self):
        program = parse_program("gate 1.5707963267948966 0\nidle 0\npad\n", CFG)
        assert program[:, 0].tolist() == [math.pi / 2, 0.0, 0.0]

    def test_readout_pad_restores_frame_match(self):
        # every segment ends on the lattice, where the second frame is +-I and
        # matches the lab basis at readout, so a pad line adds no time
        program = parse_program(f"gate {math.pi / 2!r} 0.3\nidle {2 * PERIOD!r}\npad\n", CFG)
        assert program[-1].tolist() == [IDLE_MOD_PHASE, 0.0, 0.0]
        assert program[:, 2].sum() / PERIOD == pytest.approx(3.0, rel=1e-12)
        for periods in range(8):
            u = second_frame_unitary(CFG, periods * PERIOD)
            assert np.abs(u - (-1) ** periods * np.eye(2)).max() <= 1e-12


def spy_batches(monkeypatch):
    """Record the batch size of every ``propagator_grid`` call that ``pulses`` makes."""
    sizes, inner = [], pulses.propagator_grid

    def spy(hams, times, spec=ROTATING_SPEC):
        sizes.append(len(hams))
        return inner(hams, times, spec)

    monkeypatch.setattr(pulses, "propagator_grid", spy)
    return sizes


class TestCompile:
    def test_aligned_program_compiles(self):
        pieces = [gate(math.pi / 2), idle(2 * PERIOD)]
        out = run(pieces)
        oracle = per_piece_oracle(CFG, pieces, "second")
        assert np.abs(out - oracle).max() <= 1e-10

    def test_misaligned_boundary_names_segment(self):
        with pytest.raises(ConfigError, match=r"segment 1 \(idle\)"):
            run([gate(math.pi / 2), idle(0.31 * PERIOD)])

    def test_gate_lattice_needs_quarter_over_n_mod_ratio(self):
        for ratio in (0.25, 0.125, 1.0 / 12.0):
            require_gate_lattice(default_config(Scheme.CMCCD, mod_ratio=ratio))
        with pytest.raises(ConfigError, match=r"1/\(4 n\)"):
            require_gate_lattice(default_config(Scheme.CMCCD, mod_ratio=0.3))
        with pytest.raises(ConfigError, match=r"1/\(4 n\)"):
            require_gate_lattice(default_config(Scheme.CMCCD, mod_ratio=0.5))
        for bare in (default_config(Scheme.BARE), BARE_FROM_CONFIG):
            with pytest.raises(ConfigError, match="dressed drive"):
                require_gate_lattice(bare)

    def test_dressed_presets_refuse_a_mod_ratio_off_the_gate_lattice(self):
        cfg = default_config(Scheme.CMCCD, mod_ratio=0.3)
        with pytest.raises(ConfigError, match=r"1/\(4 n\)"):
            dressed_sequence_experiment("ccd_ramsey", cfg, lattice_times(cfg, 4))

    def test_simulate_refuses_a_drive_that_is_not_dressed(self, monkeypatch):
        # a program of idle pieces forms no gate duration, so the guard must sit in simulate_program
        sizes = spy_batches(monkeypatch)
        programs = np.array([[idle(3 * PERIOD)]] * 2)
        with pytest.raises(ConfigError, match="dressed drive"):
            simulate_program([CFG, BARE_FROM_CONFIG], programs, plus_state())
        assert sizes == []  # refused before anything is integrated

    @pytest.mark.parametrize(
        "piece, match",
        [
            ((0.3, 0.0, PERIOD), r"segment 1: theta_m must be pi/2 or 0, got 0.3"),
            ((GATE_MOD_PHASE, math.nan, PERIOD), r"segment 1 \(gate\): phi_mw must be finite"),
            ((IDLE_MOD_PHASE, 0.0, -PERIOD), r"segment 1 \(idle\): duration must be finite"),
            ((IDLE_MOD_PHASE, 0.0, math.inf), r"segment 1 \(idle\): duration must be finite"),
        ],
        ids=["theta_m", "nan_phi_mw", "negative_duration", "infinite_duration"],
    )
    def test_bad_piece_values_are_refused(self, monkeypatch, piece, match):
        sizes = spy_batches(monkeypatch)
        with pytest.raises(ConfigError, match=match):
            run([gate(math.pi / 2), piece])
        assert sizes == []

    def test_zero_duration_segments_dropped(self, monkeypatch):
        sizes = spy_batches(monkeypatch)
        out = run([idle(0.0), idle(0.0)], plus_state())
        assert np.array_equal(out, plus_state())
        assert sizes == []  # nothing to integrate

    def test_total_duration_sums_segments(self):
        program = parse_program(f"gate {math.pi!r} 0\nidle {3 * PERIOD!r}\n", CFG)
        assert program[:, 2].sum() == pytest.approx(2 * PERIOD + 3 * PERIOD)


class TestSimulate:
    def test_empty_program_is_identity(self):
        out = run([])
        assert state_fidelity(out, ZERO_STATE) == pytest.approx(1.0, abs=1e-12)

    def test_y_pi_gate_transfers_population(self):
        # CMCCD on resonance: the co-rotating drive is the only second-frame term
        out = run([gate(math.pi)])
        assert population_up(out) >= 1.0 - 1e-6

    def test_idle_full_turn_is_identity_up_to_phase(self):
        out = run([idle(2 * math.pi / CFG.mod_strength)], plus_state())
        assert state_fidelity(out, plus_state()) == pytest.approx(1.0, abs=1e-9)

    def test_idle_quarter_turn_rotates_equator_azimuth(self):
        # z rotation at rate eps_m: after pi/(2 eps_m) the +x state moves to -+y
        out = run([idle((math.pi / 2) / CFG.mod_strength)], plus_state())
        x, y, z = bloch_vector(out)
        assert abs(z) < 1e-8
        assert x == pytest.approx(0.0, abs=1e-8)
        assert abs(y) == pytest.approx(1.0, abs=1e-8)

    def test_first_and_second_frame_populations_agree_at_readout(self):
        # programs end on the lattice: z populations agree across frames
        cfg = CFG.with_errors(detuning=0.08 * CFG.rabi, rabi_error=-0.05 * CFG.rabi)
        pieces = [gate(math.pi / 2, 0.0, cfg), idle(2 * PERIOD), gate(math.pi / 2, 0.7, cfg)]
        first = per_piece_oracle(cfg, pieces, "first", IntegratorSpec(steps_per_fastest_period=400))
        second = run(pieces, cfg=cfg)
        assert population_up(first) == pytest.approx(population_up(second), abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_programs_match_frames_at_readout(self, seed):
        # z populations of the two rotating-frame views agree at the readout
        # time of arbitrary lattice-aligned programs
        rng = np.random.default_rng(seed)
        scheme = [Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD][seed % 3]
        cfg = default_config(
            scheme,
            detuning=float(rng.uniform(-0.1, 0.1)) * CFG.rabi,
            rabi_error=float(rng.uniform(-0.1, 0.1)) * CFG.rabi,
        )
        pieces = []
        for _ in range(int(rng.integers(2, 6))):
            if rng.random() < 0.6:
                angle = float(rng.integers(1, 5)) * math.pi / 2
                pieces.append(gate(angle, float(rng.uniform(0, 2 * math.pi)), cfg))
            else:
                pieces.append(idle(float(rng.integers(0, 4)) * cfg.mod_period))
        first = per_piece_oracle(cfg, pieces, "first", IntegratorSpec(steps_per_fastest_period=400))
        second = run(pieces, cfg=cfg)
        assert population_up(first) == pytest.approx(population_up(second), abs=1e-9)
        # each gate at an arbitrary phi_mw is its drive at phi_mw = 0, turned
        # about z: it must match stepping the turned drive itself
        oracle = per_piece_oracle(cfg, pieces, "second")
        assert np.abs(second - oracle).max() <= 1e-10

    def test_two_quarter_gates_phase_sweep_oscillates(self):
        # second pi/2 pulse with swept carrier phase: Pic = (1 + cos(phi))/2
        for phi in (0.0, math.pi / 3, math.pi, 1.7 * math.pi):
            out = run([gate(math.pi / 2), gate(math.pi / 2, phi)])
            assert population_up(out) == pytest.approx(
                (1.0 + math.cos(phi)) / 2.0, abs=1e-6
            )


class TestBatchedEngine:
    @pytest.mark.parametrize("kind", ["ccd_rabi", "ccd_ramsey", "two_axis"])
    @pytest.mark.parametrize("scheme", [Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD])
    def test_dressed_programs_match_per_piece_oracle(self, scheme, kind, monkeypatch):
        # capture the programs each dressed sweep hands to simulate_program
        calls = []
        inner = experiments.simulate_program

        def spy(drives, programs, *args, **kwargs):
            states = inner(drives, programs, *args, **kwargs)
            calls.append((list(drives), programs, states))
            return states

        monkeypatch.setattr(experiments, "simulate_program", spy)
        rng = np.random.default_rng(list(Scheme).index(scheme))
        for delta, rabi_error in rng.normal(0.0, 0.05, size=(2, 2)) * CFG.rabi:
            cfg = default_config(scheme, detuning=delta, rabi_error=rabi_error)
            if kind == "two_axis":
                sweep = np.linspace(0.0, 4.0 * math.pi, 5)
            else:
                sweep = lattice_times(cfg, 5)
            dressed_sequence_experiment(kind, cfg, sweep)
        assert len(calls) == 2  # one batched call per noise draw
        for drives, programs, states in calls:
            assert len(states) == len(programs) == len(drives) == 5
            for cfg, program, state in zip(drives, programs, states):
                oracle = per_piece_oracle(cfg, program, "second")
                assert np.abs(state - oracle).max() <= 1e-10

    def test_one_propagator_call_over_distinct_configurations(self, monkeypatch):
        sizes = spy_batches(monkeypatch)
        cfg = CFG.with_errors(detuning=0.03 * CFG.rabi)
        dressed_sequence_experiment("ccd_ramsey", cfg, lattice_times(cfg, 6))
        assert sizes == [2]  # the gate and the idle configuration

    def test_two_axis_integrates_one_gate_drive_per_shot(self, monkeypatch):
        # every swept carrier phase is the one gate drive turned about z
        sizes = spy_batches(monkeypatch)
        sweep = np.linspace(0.0, 4.0 * math.pi, 16)
        noise = NoiseSpec(sigma_detuning=0.02 * CFG.rabi, samples=3, seed=4)
        noise_average(
            lambda shot: dressed_sequence_experiment("two_axis", shot, sweep),
            noise,
            CFG,
        )
        assert sizes == [1, 1, 1]

    def test_empty_program_list(self):
        assert simulate_program([], np.empty((0, 0, 3))).shape == (0, 2)


class TestParseProgram:
    def test_round_trip_directives(self):
        text = """
        # a Y_pi gate, some idling, then readout matching
        gate 3.141592653589793 0.0
        idle 5.555555555555556e-07
        pad
        """
        program = parse_program(text, CFG)
        assert program[:, 0].tolist() == [GATE_MOD_PHASE, IDLE_MOD_PHASE, IDLE_MOD_PHASE]
        assert program[-1, 2] == 0.0
        assert program[0, 2] == pytest.approx(2 * PERIOD, rel=1e-12)

    def test_unknown_directive_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_program("gate 1.0 0.0\nwiggle 3\n", CFG)

    def test_bad_arity_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_program("idle\n", CFG)

    @pytest.mark.parametrize(
        "line", ["gate 1.5707963267948966 0.3 99", "idle 0 extra", "pad 7"]
    )
    def test_extra_fields_report_line(self, line):
        # a stray field (say, a gate duration) must not run silently
        with pytest.raises(ConfigError, match="line 2: .*extra"):
            parse_program(f"idle 0\n{line}\n", CFG)

    @pytest.mark.parametrize("angle", ["0", "-1.5707963267948966", "inf", "nan"])
    def test_bad_gate_angle_reports_line(self, angle):
        with pytest.raises(ConfigError, match="line 2: gate angle must be positive and finite"):
            parse_program(f"idle 0\ngate {angle} 0\n", CFG)

    def test_bad_idle_duration_names_segment(self):
        # a directive's values are checked as the pieces of any program are
        with pytest.raises(ConfigError, match=r"segment 1 \(idle\): duration must be finite"):
            parse_program("pad\nidle -1e-7\n", CFG)

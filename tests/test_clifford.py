import math
from itertools import product

import numpy as np
import pytest

from ccdsim.clifford import AVERAGE_PRIMITIVES_PER_CLIFFORD, ROTATIONS
from ccdsim.drive import Scheme, default_config
from ccdsim.pulses import simulate_program
from ccdsim.qubit import IDENTITY, ZERO_STATE, population_up
from ccdsim.rb import _bloch_rotations
from oracles import (
    clifford,
    clifford_group,
    clifford_sequence_program,
    compose_cliffords,
    equal_up_to_phase,
    recovery_clifford,
)


class TestGroupStructure:
    def test_24_distinct_elements(self):
        group = clifford_group()
        assert len(group) == 24
        for a, b in product(group, repeat=2):
            if a.index != b.index:
                assert not equal_up_to_phase(a.matrix, b.matrix)

    def test_group_closure_all_576_pairs(self):
        group = clifford_group()
        for a, b in product(group, repeat=2):
            composed = a.matrix @ b.matrix
            matches = [c for c in group if equal_up_to_phase(composed, c.matrix)]
            assert len(matches) == 1

    def test_average_primitive_count_is_1_875(self):
        group = clifford_group()
        total = sum(len(g.decomposition) for g in group)
        assert total == 45
        assert total / len(group) == AVERAGE_PRIMITIVES_PER_CLIFFORD

    def test_decompositions_match_stored_matrices(self):
        # the 2x2 unitaries of the decompositions turn the Bloch sphere by ROTATIONS
        unitaries = np.stack([gate.matrix for gate in clifford_group()])[None]
        assert np.abs(_bloch_rotations(unitaries)[..., 0] - ROTATIONS).max() < 1e-12

    def test_identity_element(self):
        gate = clifford(0)
        assert gate.decomposition == ("I",)
        assert np.allclose(gate.matrix, IDENTITY)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            clifford(24)
        with pytest.raises(ValueError):
            clifford(-1)


class TestRotationTable:
    def test_signed_permutations_of_determinant_one(self):
        assert ROTATIONS.shape == (24, 3, 3) and ROTATIONS.dtype.kind == "i"
        assert not ROTATIONS.flags.writeable
        for r in ROTATIONS:
            # an orthogonal integer matrix is a signed permutation
            assert np.array_equal(r @ r.T, np.eye(3, dtype=int))
            assert np.array_equal(np.cross(r[0], r[1]), r[2])  # det +1
        assert len({r.tobytes() for r in ROTATIONS}) == 24


class TestRecovery:
    def test_x180_recovery_is_x180(self):
        # X180 sends |0> to |1>; the identity-ranked search returns X180 itself
        x180 = next(g for g in clifford_group() if g.decomposition == ("X180",))
        recovery = recovery_clifford([x180], "down")
        composed = recovery.matrix @ x180.matrix
        assert abs(composed[0, 0]) == pytest.approx(1.0, abs=1e-12)
        up = recovery_clifford([x180], "up")
        assert abs((up.matrix @ x180.matrix)[1, 0]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sequences_recover_exactly(self, seed):
        rng = np.random.default_rng(seed)
        gates = [clifford(int(i)) for i in rng.integers(0, 24, size=10)]
        for target, component in (("up", 1), ("down", 0)):
            recovery = recovery_clifford(gates, target)
            total = recovery.matrix @ compose_cliffords(gates)
            amplitude = abs((total @ np.array([1.0, 0.0], dtype=complex))[component])
            assert amplitude == pytest.approx(1.0, abs=1e-12)

    def test_recovery_choice_is_deterministic(self):
        gates = [clifford(5), clifford(17)]
        first = recovery_clifford(gates, "up")
        for _ in range(3):
            assert recovery_clifford(gates, "up").index == first.index

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            recovery_clifford([], "up")


class TestSequenceProgram:
    def test_pulse_realization_matches_ideal_matrices(self):
        # simulate each Clifford's pulse program on resonance (CMCCD is exact)
        cfg = default_config(Scheme.CMCCD)
        rng = np.random.default_rng(4)
        for index in rng.integers(0, 24, size=6):
            gate = clifford(int(index))
            program = clifford_sequence_program([gate], cfg)
            simulated = simulate_program([cfg], program[None])[0]
            ideal = gate.matrix @ ZERO_STATE
            assert population_up(simulated) == pytest.approx(population_up(ideal), abs=1e-8)

    def test_programs_end_on_the_period_lattice(self):
        cfg = default_config(Scheme.CMCCD)
        gates = [clifford(i) for i in (3, 9, 22)]
        program = clifford_sequence_program(gates, cfg)
        periods = program[:, 2].sum() / cfg.mod_period
        assert abs(periods - round(periods)) < 1e-9

    def test_pi_rotations_are_single_segments(self):
        cfg = default_config(Scheme.CMCCD)
        x180 = next(g for g in clifford_group() if g.decomposition == ("X180",))
        program = clifford_sequence_program([x180], cfg)
        assert len(program) == 1
        assert program[0, 2] == pytest.approx(
            math.pi / cfg.mod_strength, rel=1e-12
        )

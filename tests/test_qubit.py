import numpy as np
import pytest

from ccdsim.errors import NumericalError
from ccdsim.qubit import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    QubitState,
    bloch_vector,
    pauli_axis,
    rotation,
    state_fidelity,
)
from oracles import one_state, plus_state


def test_basis_states_normalized():
    for state in (QubitState.zero(), one_state(), plus_state()):
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_construction_rejects_bad_norm():
    with pytest.raises(NumericalError):
        QubitState(np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_construction_rejects_non_finite_amplitudes(bad):
    with pytest.raises(NumericalError):
        QubitState(np.array([bad, 0.0]))


def test_construction_renormalizes_small_drift():
    state = QubitState(np.array([1.0 + 3e-9, 0.0], dtype=complex))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-15


@pytest.mark.parametrize(
    "amps,expected",
    [
        ([1, 0], (0.0, 0.0, 1.0)),
        (np.array([1, 1]) / np.sqrt(2), (1.0, 0.0, 0.0)),
        (np.array([1, 1j]) / np.sqrt(2), (0.0, 1.0, 0.0)),
        ([0, 1], (0.0, 0.0, -1.0)),
    ],
)
def test_bloch_vector_cardinal_states(amps, expected):
    vec = bloch_vector(QubitState(np.asarray(amps, dtype=complex)).amplitudes)
    assert np.allclose(vec, expected, atol=1e-12)


def test_pauli_axis_definition():
    assert np.allclose(pauli_axis(0.0), SIGMA_X)
    assert np.allclose(pauli_axis(np.pi / 2), SIGMA_Y)
    assert np.allclose(pauli_axis(np.pi / 4), (SIGMA_X + SIGMA_Y) / np.sqrt(2))


def test_pauli_axis_squares_to_identity():
    rng = np.random.default_rng(7)
    for phi in rng.uniform(-2 * np.pi, 2 * np.pi, 25):
        op = pauli_axis(phi)
        assert np.allclose(op @ op, IDENTITY, atol=1e-14)
        assert np.allclose(op, op.conj().T)
        assert abs(np.trace(op)) < 1e-14
        eigs = np.sort(np.linalg.eigvalsh(op))
        assert np.allclose(eigs, [-1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (QubitState.zero(), QubitState.zero(), 1.0),
        (QubitState.zero(), one_state(), 0.0),
        (QubitState.zero(), plus_state(), 0.5),
    ],
)
def test_state_fidelity_reference_values(a, b, expected):
    assert state_fidelity(a, b) == pytest.approx(expected, abs=1e-14)


def test_fidelity_global_phase_invariance():
    rng = np.random.default_rng(11)
    for _ in range(25):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = QubitState(amps / np.linalg.norm(amps))
        gamma = rng.uniform(0, 2 * np.pi)
        rotated = QubitState(np.exp(1j * gamma) * state.amplitudes)
        assert state_fidelity(state, rotated) == pytest.approx(1.0, abs=1e-12)


def test_bloch_rotates_with_z_rotation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = QubitState(amps / np.linalg.norm(amps))
        gamma = rng.uniform(-np.pi, np.pi)
        u = np.diag([np.exp(-1j * gamma / 2), np.exp(1j * gamma / 2)])
        x, y, z = bloch_vector(state.amplitudes)
        after = bloch_vector(state.apply(u).amplitudes)
        expected = (np.cos(gamma) * x - np.sin(gamma) * y, np.sin(gamma) * x + np.cos(gamma) * y, z)
        assert after == pytest.approx(expected, abs=1e-12)


def test_bloch_norm_is_unity_for_pure_states():
    rng = np.random.default_rng(19)
    for _ in range(30):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec = bloch_vector(QubitState(amps / np.linalg.norm(amps)).amplitudes)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_rotation_is_unitary_and_pi_about_x_flips():
    u = rotation(0.0, np.pi)
    assert np.abs(u.conj().T @ u - IDENTITY).max() <= 1e-10
    flipped = QubitState.zero().apply(u)
    assert state_fidelity(flipped, one_state()) == pytest.approx(1.0, abs=1e-14)

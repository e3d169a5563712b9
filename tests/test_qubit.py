import numpy as np
import pytest

from ccdsim.errors import NumericalError
from ccdsim.errors import ConfigError
from ccdsim.qubit import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    ZERO_STATE,
    bloch_vector,
    initial_state,
    normalized,
    pauli_axis,
    rotation,
)
from oracles import one_state, plus_state, state_fidelity


def test_basis_states_normalized():
    for state in (ZERO_STATE, one_state(), plus_state()):
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    assert not ZERO_STATE.flags.writeable


def test_construction_rejects_bad_norm():
    with pytest.raises(NumericalError):
        initial_state(np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_construction_rejects_non_finite_amplitudes(bad):
    with pytest.raises(NumericalError):
        initial_state(np.array([bad, 0.0]))


def test_construction_renormalizes_small_drift():
    state = initial_state(np.array([1.0 + 3e-9, 0.0], dtype=complex))
    assert abs(np.linalg.norm(state) - 1.0) < 1e-15


@pytest.mark.parametrize("shape", [(3,), (1, 2), (2, 1), ()])
def test_initial_state_refuses_any_shape_but_one_state(shape):
    with pytest.raises(ConfigError, match=r"psi0 must have shape \(2,\)"):
        initial_state(np.ones(shape, dtype=complex) / np.sqrt(max(1, np.prod(shape))))


def test_initial_state_has_the_bits_of_normalized():
    amps = np.array([0.6 + 0.0j, -0.0 + 0.8j])
    assert initial_state(amps).tobytes() == normalized(amps).tobytes()
    assert initial_state(ZERO_STATE).tobytes() == ZERO_STATE.tobytes()


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
    vec = bloch_vector(initial_state(amps))
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
        (ZERO_STATE, ZERO_STATE, 1.0),
        (ZERO_STATE, one_state(), 0.0),
        (ZERO_STATE, plus_state(), 0.5),
    ],
)
def test_state_fidelity_reference_values(a, b, expected):
    assert state_fidelity(a, b) == pytest.approx(expected, abs=1e-14)


def test_fidelity_global_phase_invariance():
    rng = np.random.default_rng(11)
    for _ in range(25):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = initial_state(amps / np.linalg.norm(amps))
        gamma = rng.uniform(0, 2 * np.pi)
        rotated = initial_state(np.exp(1j * gamma) * state)
        assert state_fidelity(state, rotated) == pytest.approx(1.0, abs=1e-12)


def test_bloch_rotates_with_z_rotation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = initial_state(amps / np.linalg.norm(amps))
        gamma = rng.uniform(-np.pi, np.pi)
        u = np.diag([np.exp(-1j * gamma / 2), np.exp(1j * gamma / 2)])
        x, y, z = bloch_vector(state)
        after = bloch_vector(u @ state)
        expected = (np.cos(gamma) * x - np.sin(gamma) * y, np.sin(gamma) * x + np.cos(gamma) * y, z)
        assert after == pytest.approx(expected, abs=1e-12)


def test_bloch_norm_is_unity_for_pure_states():
    rng = np.random.default_rng(19)
    for _ in range(30):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec = bloch_vector(initial_state(amps / np.linalg.norm(amps)))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_rotation_is_unitary_and_pi_about_x_flips():
    u = rotation(0.0, np.pi)
    assert np.abs(u.conj().T @ u - IDENTITY).max() <= 1e-10
    flipped = u @ ZERO_STATE
    assert state_fidelity(flipped, one_state()) == pytest.approx(1.0, abs=1e-14)

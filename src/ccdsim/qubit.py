"""SU(2) primitives: qubit states, Pauli operators, axis operators and fidelity.

States are pure two-component amplitude vectors; operators are plain 2x2
complex ndarrays. All values are immutable after construction and all
functions are pure, so everything here is safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY",
    "BlochVector",
    "QubitState",
    "NormalizationError",
    "bloch_vector",
    "pauli_axis",
    "rotation",
    "state_fidelity",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY):
    _m.setflags(write=False)

#: Norm deviation accepted at construction; larger deviations are treated as
#: upstream numerical failures rather than silently renormalized away.
NORM_TOLERANCE = 1e-8


class NormalizationError(ValueError):
    """Raised when a state vector is too far from unit norm."""


class BlochVector(NamedTuple):
    """Cartesian expectation values (<sigma_x>, <sigma_y>, <sigma_z>)."""

    x: float
    y: float
    z: float

    def norm(self) -> float:
        return float(np.sqrt(self.x**2 + self.y**2 + self.z**2))


@dataclass(frozen=True)
class QubitState:
    """Normalized two-component pure state.

    The constructor validates the norm within ``NORM_TOLERANCE`` and then
    renormalizes exactly, so ``|a0|^2 + |a1|^2 == 1`` holds to 1e-12 for
    every state instance.
    """

    amplitudes: np.ndarray = field()

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(2)
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOLERANCE:
            raise NormalizationError(
                f"state norm {norm!r} deviates from 1 by more than {NORM_TOLERANCE}"
            )
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls) -> "QubitState":
        return cls(np.array([1.0, 0.0], dtype=complex))

    @classmethod
    def one(cls) -> "QubitState":
        return cls(np.array([0.0, 1.0], dtype=complex))

    @classmethod
    def plus(cls) -> "QubitState":
        return cls(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0))

    def apply(self, unitary: np.ndarray) -> "QubitState":
        return QubitState(np.asarray(unitary, dtype=complex) @ self.amplitudes)

    def population_up(self) -> float:
        """Spin-up fraction |<1|psi>|^2."""
        return float(np.abs(self.amplitudes[1]) ** 2)


def bloch_vector(state: QubitState) -> BlochVector:
    """Bloch vector (<sigma_x>, <sigma_y>, <sigma_z>) of a pure state."""
    a0, a1 = state.amplitudes
    cross = a0.conjugate() * a1
    return BlochVector(
        x=float(2.0 * cross.real),
        y=float(2.0 * cross.imag),
        z=float(abs(a0) ** 2 - abs(a1) ** 2),
    )


def pauli_axis(phi: float) -> np.ndarray:
    """In-plane Pauli operator cos(phi) sigma_x + sin(phi) sigma_y.

    Hermitian, traceless, squares to the identity for any ``phi``.
    """
    return np.cos(phi) * SIGMA_X + np.sin(phi) * SIGMA_Y


def rotation(phi: float, angle: float) -> np.ndarray:
    """Rotation by ``angle`` about the in-plane axis at azimuth ``phi``."""
    return (
        np.cos(angle / 2.0) * IDENTITY
        - 1.0j * np.sin(angle / 2.0) * pauli_axis(phi)
    )


def state_fidelity(a: QubitState, b: QubitState) -> float:
    """Overlap fidelity |<b|a>|^2; invariant under global phases."""
    return float(np.abs(np.vdot(b.amplitudes, a.amplitudes)) ** 2)

"""SU(2) primitives: qubit states, Pauli operators, axis operators and fidelity.

States are pure two-component amplitude vectors, read out as arrays over
(..., 2): ``normalized`` is the one norm rule and ``bloch_vector`` the one
Bloch readout. ``QubitState`` is a single checked state (an initial state,
or the result of ``evolve``); operators are plain 2x2 complex ndarrays. All
values are immutable after construction and all functions are pure, so
everything here is safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY",
    "QubitState",
    "bloch_vector",
    "normalized",
    "population_up",
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


def normalized(amps) -> np.ndarray:
    """(..., 2) amplitudes divided by their norms, each checked within ``NORM_TOLERANCE`` of 1.

    Raises ``NumericalError`` at the worst row; a NaN norm fails. Each
    squared norm is two dot products of length 2 (stacked matmuls over the
    real and imaginary parts), which give the bits of ``np.linalg.norm`` of
    one row, so a batch and each of its rows alone normalize alike.
    """
    amps = np.asarray(amps, dtype=complex)
    flat = amps.reshape(-1, 2)
    re, im = flat.real, flat.imag
    norm = np.sqrt((re[:, None, :] @ re[:, :, None]) + (im[:, None, :] @ im[:, :, None]))[:, 0]
    deviation = np.abs(norm - 1.0)
    if not np.all(deviation <= NORM_TOLERANCE):
        worst = int(np.argmax(deviation))  # the first NaN, if any
        where = f"state {worst} of {len(flat)}: " if len(flat) > 1 else "state "
        raise NumericalError(
            f"{where}norm {float(norm[worst, 0])!r} deviates from 1 by more than {NORM_TOLERANCE}"
        )
    return (flat / norm).reshape(amps.shape)


@dataclass(frozen=True)
class QubitState:
    """Normalized two-component pure state.

    The constructor validates the norm within ``NORM_TOLERANCE`` and then
    renormalizes exactly, so ``|a0|^2 + |a1|^2 == 1`` holds to 1e-12 for
    every state instance.
    """

    amplitudes: np.ndarray = field()

    def __post_init__(self) -> None:
        amps = normalized(np.asarray(self.amplitudes, dtype=complex).reshape(2))
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls) -> "QubitState":
        return cls(np.array([1.0, 0.0], dtype=complex))

    def apply(self, unitary: np.ndarray) -> "QubitState":
        return QubitState(np.asarray(unitary, dtype=complex) @ self.amplitudes)

    def population_up(self) -> float:
        """Spin-up fraction |<1|psi>|^2."""
        return float(population_up(self.amplitudes))


def bloch_vector(amps) -> np.ndarray:
    """Bloch vectors (<sigma_x>, <sigma_y>, <sigma_z>) of (..., 2) amplitudes, shape (..., 3).

    Each value has the bits of the scalar readout it replaced, which the tests
    keep as its oracle. x + i y = 2 conj(a0) a1 is formed in real arithmetic,
    as a complex scalar product forms it (numpy's array complex product does
    not always), and z = |a0|^2 - |a1|^2 takes each modulus as libm hypot, as
    Python's ``abs`` of a complex scalar does (numpy's array ``abs`` does not
    always). Each square is ``np.float_power``, which is libm pow, as a float
    scalar's ``** 2``; an array's ``** 2`` is x * x.
    """
    amps = np.asarray(amps, dtype=complex)
    re0, im0 = amps[..., 0].real, amps[..., 0].imag
    re1, im1 = amps[..., 1].real, amps[..., 1].imag
    x = 2.0 * (re0 * re1 + im0 * im1)
    y = 2.0 * (re0 * im1 - im0 * re1)
    z = np.float_power(np.hypot(re0, im0), 2.0) - np.float_power(np.hypot(re1, im1), 2.0)
    return np.stack([x, y, z], axis=-1)


def population_up(amps) -> np.ndarray:
    """Spin-up fraction |a1|^2 of (..., 2) amplitudes.

    The modulus is numpy's ``abs`` and the square libm pow, the steps the
    one-state readout took (see :func:`bloch_vector`).
    """
    return np.float_power(np.abs(np.asarray(amps, dtype=complex)[..., 1]), 2.0)


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

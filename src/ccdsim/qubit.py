"""SU(2) primitives: qubit states, Pauli operators and axis operators.

A state is a pure two-component complex amplitude array, and a batch of
states a (..., 2) array: ``normalized`` is the one norm rule,
``initial_state`` the one check of a propagation's start, and
``bloch_vector`` and ``population_up`` the readouts. Every experiment starts
from ``ZERO_STATE``, |0>. Operators are plain 2x2 complex ndarrays. The
constants are read-only and all functions are pure, so everything here is
safe to share across threads.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericalError

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY",
    "ZERO_STATE",
    "bloch_vector",
    "initial_state",
    "normalized",
    "population_up",
    "pauli_axis",
    "rotation",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)
#: |0>, the start of every experiment
ZERO_STATE = np.array([1.0, 0.0], dtype=complex)

for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY, ZERO_STATE):
    _m.setflags(write=False)

#: Norm deviation ``normalized`` accepts; larger deviations are treated as
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


def initial_state(psi0) -> np.ndarray:
    """The start ``psi0`` of a propagation as a (2,) complex array, divided by its norm.

    Refuses another shape (``ConfigError``) and a norm off 1
    (``NumericalError``, from :func:`normalized`).
    """
    amps = np.asarray(psi0, dtype=complex)
    if amps.shape != (2,):
        raise ConfigError(f"psi0 must have shape (2,), got {amps.shape}")
    return normalized(amps)


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

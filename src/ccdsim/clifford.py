"""The 24 single-qubit Cliffords as exact rotations of the Bloch sphere.

Modulo global phase, the single-qubit Clifford group is the rotation group
of the cube: the 3x3 signed permutation matrices of determinant +1 (Magesan,
Gambetta & Emerson, PRL 106, 180504, 2011). ``ROTATIONS`` holds them as
integers, composed from the exact quarter turns about x and y, so every
product and every recovery below is exact.

Each element is stored with a fixed decomposition into primitive rotations
about the x and y axes (time-ordered, first pulse first). The table averages
1.875 primitives per Clifford, the standard figure used to convert an
average Clifford fidelity into an average single-gate fidelity.

Primitive realization on hardware: the dressed-qubit drive rotates about the
axis phi_mw + pi/2, so an X rotation is generated at phi_mw = -pi/2 and a
Y rotation at phi_mw = 0. A bare qubit rotates about phi_mw directly.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigError

__all__ = [
    "PRIMITIVES",
    "ROTATIONS",
    "composed_indices",
    "multiplication_table",
    "AVERAGE_PRIMITIVES_PER_CLIFFORD",
]

AVERAGE_PRIMITIVES_PER_CLIFFORD = 1.875

#: (name, axis, angle): a rotation by ``angle`` about the x or the y axis;
#: axis "i" is the zero-duration identity
PRIMITIVES: tuple[tuple[str, str, float], ...] = (
    ("I", "i", 0.0),
    ("X90", "x", math.pi / 2),
    ("X90m", "x", -math.pi / 2),
    ("Y90", "y", math.pi / 2),
    ("Y90m", "y", -math.pi / 2),
    ("X180", "x", math.pi),
    ("Y180", "y", math.pi),
)

# Time-ordered decompositions (first pulse listed first); 45 primitives over
# 24 elements = 1.875 average. Rows 0-3: identity and pi rotations; 4-11:
# +/-120 degree rotations about the cube diagonals; 12-15: +/-90 about x, y;
# 16-17: +/-90 about z; 18-23: pi rotations about the face diagonals.
_DECOMPOSITIONS: tuple[tuple[str, ...], ...] = (
    ("I",),
    ("X180",),
    ("Y180",),
    ("Y180", "X180"),
    ("X90", "Y90"),
    ("X90", "Y90m"),
    ("X90m", "Y90"),
    ("X90m", "Y90m"),
    ("Y90", "X90"),
    ("Y90", "X90m"),
    ("Y90m", "X90"),
    ("Y90m", "X90m"),
    ("X90",),
    ("X90m",),
    ("Y90",),
    ("Y90m",),
    ("X90m", "Y90", "X90"),
    ("X90m", "Y90m", "X90"),
    ("X180", "Y90"),
    ("X180", "Y90m"),
    ("Y180", "X90"),
    ("Y180", "X90m"),
    ("X90", "Y90", "X90"),
    ("X90m", "Y90", "X90m"),
)


def _rotations() -> np.ndarray:
    """The (24, 3, 3) integer rotation of each decomposition, later pulses on the left."""
    quarter_turn = {
        "i": np.eye(3, dtype=int),  # the identity turns by angle 0
        "x": np.array([[1, 0, 0], [0, 0, -1], [0, 1, 0]]),
        "y": np.array([[0, 0, 1], [0, 1, 0], [-1, 0, 0]]),
    }
    primitive = {
        name: np.linalg.matrix_power(quarter_turn[axis], round(angle / (math.pi / 2)) % 4)
        for name, axis, angle in PRIMITIVES
    }
    rotations = np.array([
        functools.reduce(lambda r, name: primitive[name] @ r, names, np.eye(3, dtype=int))
        for names in _DECOMPOSITIONS
    ])
    rotations.flags.writeable = False
    return rotations


#: R_c of each Clifford c on Bloch vectors, read-only
ROTATIONS = _rotations()


@functools.cache
def multiplication_table() -> np.ndarray:
    """``table[a, b]`` is the index of C_a C_b (C_b applied first)."""
    products = ROTATIONS[:, None] @ ROTATIONS[None, :]
    return np.argmax((products[:, :, None] == ROTATIONS).all(axis=(-2, -1)), axis=-1)


@functools.cache
def _recovery_table() -> np.ndarray:
    """``table[t, c]``: the lowest g with (R_g R_c)[2, 2] = +1 (t = 0, back to
    spin-down |0>) or -1 (t = 1, to spin-up |1>)."""
    zz = ROTATIONS[:, 2] @ ROTATIONS[:, :, 2].T  # zz[g, c] = (R_g R_c)[2, 2]
    return np.argmax(zz == np.array([1, -1])[:, None, None], axis=1)


def composed_indices(strings: np.ndarray) -> np.ndarray:
    """Index of the composed Clifford of each row of a (K, M) array of Clifford
    indices, first column applied first, read from the multiplication table."""
    strings = np.asarray(strings)
    if strings.ndim != 2 or strings.shape[1] == 0:
        raise ConfigError("strings must be a (K, M) array with M >= 1")
    if not (strings.min() >= 0 and strings.max() < 24):
        raise ConfigError("Clifford indices must be in [0, 24)")
    table = multiplication_table()
    net = strings[:, 0]
    for column in strings.T[1:]:
        net = table[column, net]
    return net

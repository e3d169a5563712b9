"""The 24-element single-qubit Clifford group over {I, X90, Y90, X180, Y180} pulses.

Each group element is stored with a fixed decomposition into primitive
rotations about the x and y axes (time-ordered, first pulse first). The table
averages 1.875 primitives per Clifford, the standard figure used to convert
an average Clifford fidelity into an average single-gate fidelity.

Primitive realization on hardware: the dressed-qubit drive rotates about the
axis phi_mw + pi/2, so an X rotation is generated at phi_mw = -pi/2 and a
Y rotation at phi_mw = 0. A bare qubit rotates about phi_mw directly.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .qubit import IDENTITY, rotation

__all__ = [
    "Primitive",
    "PRIMITIVES",
    "CliffordGate",
    "clifford_group",
    "compose_cliffords",
    "composed_indices",
    "recovery_clifford",
    "multiplication_table",
    "equal_up_to_phase",
    "AVERAGE_PRIMITIVES_PER_CLIFFORD",
]

AVERAGE_PRIMITIVES_PER_CLIFFORD = 1.875


@dataclass(frozen=True)
class Primitive:
    """A primitive pulse: rotation by ``angle`` about the x or y axis."""

    name: str
    axis: str  # "x", "y", or "i" for the zero-duration identity
    angle: float

    @property
    def matrix(self) -> np.ndarray:
        if self.axis == "i":
            return IDENTITY.copy()
        return rotation(self.drive_azimuth, self.angle)

    @property
    def drive_azimuth(self) -> float:
        """Rotation-axis azimuth in the equatorial plane (x = 0, y = pi/2)."""
        if self.axis == "i":
            raise ConfigError("identity primitive has no rotation axis")
        return 0.0 if self.axis == "x" else math.pi / 2

    @property
    def rotation_azimuth(self) -> float:
        """Axis azimuth realizing this primitive as a positive rotation by
        ``abs(angle)``: negative angles turn about the opposite axis."""
        return self.drive_azimuth + (math.pi if self.angle < 0.0 else 0.0)


PRIMITIVES: dict[str, Primitive] = {
    p.name: p
    for p in (
        Primitive("I", "i", 0.0),
        Primitive("X90", "x", math.pi / 2),
        Primitive("X90m", "x", -math.pi / 2),
        Primitive("Y90", "y", math.pi / 2),
        Primitive("Y90m", "y", -math.pi / 2),
        Primitive("X180", "x", math.pi),
        Primitive("Y180", "y", math.pi),
    )
}

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


@dataclass(frozen=True)
class CliffordGate:
    """One Clifford group element with its pulse decomposition."""

    index: int
    decomposition: tuple[str, ...]
    matrix: np.ndarray

    def primitives(self) -> list[Primitive]:
        return [PRIMITIVES[name] for name in self.decomposition]


def _compose(names: tuple[str, ...]) -> np.ndarray:
    u = IDENTITY.copy()
    for name in names:
        u = PRIMITIVES[name].matrix @ u
    return u


@functools.lru_cache(maxsize=1)
def clifford_group() -> tuple[CliffordGate, ...]:
    """The full group, index-stable across runs."""
    return tuple(
        CliffordGate(index=i, decomposition=seq, matrix=_compose(seq))
        for i, seq in enumerate(_DECOMPOSITIONS)
    )


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-9) -> bool:
    """True when a = exp(i gamma) b for some global phase gamma."""
    return bool(abs(abs(np.trace(a.conj().T @ b)) - 2.0) <= atol)


def compose_cliffords(gates: list[CliffordGate]) -> np.ndarray:
    """Ideal composed matrix, first gate applied first."""
    u = IDENTITY.copy()
    for gate in gates:
        u = gate.matrix @ u
    return u


def recovery_clifford(applied: list[CliffordGate], target: str) -> CliffordGate:
    """The lowest-index Clifford returning |0> through ``applied`` to ``target``.

    ``target`` is "up" (|1>) or "down" (|0>). Every Clifford maps |0> to a
    cardinal state of the Bloch sphere, and four group elements complete any
    cardinal state to a given pole; the lowest index is returned so draws are
    reproducible.
    """
    if target not in ("up", "down"):
        raise ConfigError("target must be 'up' or 'down'")
    if not applied:
        raise ConfigError("applied sequence must be non-empty")
    state = compose_cliffords(applied) @ np.array([1.0, 0.0], dtype=complex)
    component = 1 if target == "up" else 0
    for gate in clifford_group():
        amplitude = abs((gate.matrix @ state)[component])
        if amplitude >= 1.0 - 1e-9:
            return gate
    raise RuntimeError(
        "no recovery Clifford found; group closure violated (internal error)"
    )


@functools.cache
def multiplication_table() -> np.ndarray:
    """``table[a, b]`` is the index of C_a C_b (C_b applied first), up to phase."""
    mats = np.array([gate.matrix for gate in clifford_group()])
    products = mats[:, None] @ mats[None, :]
    # the equal_up_to_phase rule for every (a, b, candidate g) at once
    overlap = np.abs(np.einsum("gij,abij->abg", mats.conj(), products))
    return np.argmax(np.abs(overlap - 2.0) <= 1e-9, axis=-1)


@functools.cache
def _recovery_table() -> np.ndarray:
    """``table[t, c]``: ``recovery_clifford([C_c], target)`` index, t = 0 down, 1 up."""
    group = clifford_group()
    return np.array(
        [[recovery_clifford([gate], target).index for gate in group] for target in ("down", "up")]
    )


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

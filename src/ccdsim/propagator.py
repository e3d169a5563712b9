"""Time evolution under time-dependent 2x2 Hamiltonians.

The one integrator is the fourth-order commutator-free scheme of Alvermann &
Fehske, J. Comput. Phys. 230, 5930 (2011) (cf4): two Gauss-Legendre samples
per step and two SU(2) exponentials. It is unconditionally unitary, meets the
1e-8 step-halving budget at the default step counts and is exact for constant
H. It builds the per-step exponentials in closed form (axis-angle),
vectorized over steps and over batches of Hamiltonians. Each SU(2) value
u = [[a, -b*], [b, a*]] is held as its Cayley-Klein pair (a, b): a product
is four complex multiplies. Steps are reduced as pairwise trees (rounding
growth logarithmic in the step count) over chunks of at most ``_CHUNK``
steps, which bound memory. A chunk's tree is built from the trees of its
aligned power-of-two blocks, which give the same bits for any block size. The
calling thread steps an interval's blocks one at a time, in order, so memory
holds at most one serial block's steps (and a shorter last block's). A block
evaluates the batch's coefficients in one call per cf4 node
(``drive.batch_coefficients``): one call for rotating-frame data of one
frame, else one per Hamiltonian. The step kernel keeps numpy passes and
temporaries few, and each block writes its steps over those of the last block
of its size; every value takes the IEEE operations, in order, of the plain
numpy expressions it replaced (np.sinc, complex arithmetic), signed zeros
included, which ``tests/oracles.py`` keeps as oracles.

``evolve``, ``evolve_grid`` (the one sampled entry point), ``propagator_unitary``
and ``propagator_grid`` are thin callers of one core, which checks the times
(finite, ascending, none before t0) and returns the pairs of U(t, t0) for a
batch of Hamiltonians at every requested time, checked unitary within 1e-10.
Only the last two build the 2x2 form; the first two map a (2,) start psi0,
checked by ``qubit.initial_state``, straight from the pairs. The core takes
one of three paths, chosen from ``Hamiltonian.period`` and the requested
times:

* **closed form** — every Hamiltonian in the batch is constant
  (``period == 0``): U(t, t0) = exp(-i (t - t0) H) at any times;
* **Floquet power** — the batch shares one finite period T (constant
  members count as T-periodic) and t0 and every requested time sit on the
  lattice t = k T within ``LATTICE_TOLERANCE`` periods: U(T) is integrated
  once per Hamiltonian with the stepper over [0, T] at the usual step, and
  U(t, t0) = U(T)^(k - k0) follows from :func:`su2_power`;
* **stepped** — everything else (the lab frame, off-lattice times): the
  integrator steps through each interval between consecutive times and
  multiplies it onto the product so far. It is also the oracle the two fast
  paths are tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .drive import Hamiltonian, batch_coefficients
from .errors import ConfigError, NumericalError
from .qubit import initial_state, normalized

__all__ = [
    "IntegratorSpec",
    "LAB_SPEC",
    "ROTATING_SPEC",
    "su2_exp",
    "su2_power",
    "evolve",
    "propagator_unitary",
    "propagator_grid",
    "evolve_grid",
    "richardson_check",
]

#: Lattice tolerance: a time t is on the period-T lattice if t / T lies within
#: this many periods of an integer. It only absorbs rounding: t / T of a
#: lattice time k T is off by a few ulps of k (below 1e-12 for k up to about
#: 2,000). A time off by more is stepped, never moved onto the lattice, which
#: would cost up to |H| times the distance moved.
LATTICE_TOLERANCE = 1e-12

#: Steps per chunk, summed over the batch, when accumulating very long
#: products (memory bound: a few MB of pairs and temporaries per chunk).
_CHUNK = 1 << 16

#: Steps per serial block, summed over the batch: a chunk is reduced as aligned
#: power-of-two blocks of at most this many steps, stepped one at a time.
_BLOCK = 1 << 14

# Gauss-Legendre nodes and weights of the 4th-order commutator-free scheme.
_CF4_NODE_A = 0.5 - math.sqrt(3.0) / 6.0
_CF4_NODE_B = 0.5 + math.sqrt(3.0) / 6.0
_CF4_W1 = 0.25 - math.sqrt(3.0) / 6.0
_CF4_W2 = 0.25 + math.sqrt(3.0) / 6.0


@dataclass(frozen=True)
class IntegratorSpec:
    """Step-size policy of the propagators.

    The effective step is ``fastest_period / steps_per_fastest_period``, where
    the fastest period comes from the Hamiltonian being integrated.
    """

    steps_per_fastest_period: int = 200

    def __post_init__(self) -> None:
        if self.steps_per_fastest_period < 40:
            raise ConfigError("steps_per_fastest_period must be at least 40")

    def effective_step(self, fastest_period: float) -> float:
        step = fastest_period / self.steps_per_fastest_period
        if not (step > 0.0 and math.isfinite(step)):
            raise NumericalError(
                "cannot determine a finite step size; pass a Hamiltonian with a "
                "finite fastest_period"
            )
        return step

    def halved(self) -> "IntegratorSpec":
        return IntegratorSpec(steps_per_fastest_period=2 * self.steps_per_fastest_period)


#: Lab-frame default (steps resolve the carrier; each step is cheap in batch).
LAB_SPEC = IntegratorSpec(steps_per_fastest_period=40)

#: Rotating-frame default (steps are cheap, so resolve generously).
ROTATING_SPEC = IntegratorSpec(steps_per_fastest_period=200)


def _matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 2x2 form [[a, -b*], [b, a*]] of the Cayley-Klein pair (a, b)."""
    return np.stack([np.stack([a, -np.conj(b)], -1), np.stack([b, np.conj(a)], -1)], -2)


def _product(late, early, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """The pair of late @ early: four complex multiplies instead of a 2x2 matmul,
    written into ``out`` (two arrays apart from the inputs) when given."""
    (a1, b1), (a2, b2) = late, early
    a = np.multiply(a1, a2, out=out[0])
    a -= np.conj(b1) * b2
    b = np.multiply(b1, a2, out=out[1])
    b += np.conj(a1) * b2
    return a, b


def su2_exp(coeffs: np.ndarray, dt: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i dt (c . sigma)) for an (..., 3) array of real Pauli coefficients.

    Returns its Cayley-Klein pair (a, b), a = cos(theta) - i f c_z and
    b = f c_y - i f c_x with f = sin(theta) / |c|. ``dt`` is a scalar or an
    array broadcasting against ``coeffs[..., 0]``.
    """
    c = np.asarray(coeffs, dtype=float)
    theta = np.einsum("...i,...i->...", c, c, out=np.empty(c.shape[:-1]))
    theta = np.multiply(np.sqrt(theta, out=theta), dt, out=theta if np.ndim(dt) == 0 else None)
    a, b = np.empty(theta.shape, dtype=complex), np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=a.real)
    # f = dt * sinc(theta/pi) == sin(theta)/r, exact and smooth at r == 0, in np.sinc's steps
    y = np.multiply(np.pi, np.divide(theta, np.pi, out=theta), out=theta)
    y[y == 0.0] = np.finfo(float).eps
    f = np.sin(y, out=np.empty_like(y))
    f /= y
    f *= dt
    # complex arithmetic gives x - 1j * v the bits of (x - 0 v) + (0 - v) j, and
    # x - 0 v is x unless x is a zero, which cos(theta) never is
    np.subtract(0.0, np.multiply(f, c[..., 2], out=y), out=a.imag)
    np.multiply(f, c[..., 1], out=b.real)
    u = np.multiply(f, c[..., 0], out=y)
    b.real -= np.multiply(0.0, u, out=f)
    np.subtract(0.0, u, out=b.imag)
    return a, b


def su2_power(u, k) -> tuple[np.ndarray, np.ndarray]:
    """u**k for Cayley-Klein pairs u = (a, b) and integer powers ``k``, in closed form.

    Writes u = r (cos(theta) I - i sin(theta) n . sigma), theta = atan2 in
    [0, pi], and returns the pair of r**k (cos(k theta) I - i sin(k theta) n . sigma).
    The shapes of a and b broadcast against ``k``. U = +-I gives
    (+-1)**k I exactly and k = 0 gives I; r carries any norm defect of ``u``
    into the result, as repeated multiplication would.
    """
    a, b = (np.asarray(x, dtype=complex) for x in u)
    k = np.asarray(k)
    if k.dtype.kind not in "iu":
        raise TypeError(f"su2_power needs integer powers, got dtype {k.dtype}")
    # a = r (cos - i sin n_z), b = r sin (n_y - i n_x)
    sin = np.sqrt(b.real**2 + b.imag**2 + a.imag**2)
    cos = a.real
    theta = np.arctan2(sin, cos)
    scale = np.hypot(sin, cos) ** k
    axial = sin > 0.0
    angle = k * theta
    fac = np.where(axial, scale * np.sin(angle) / np.where(axial, sin, 1.0), 0.0)
    cos_k = np.where(axial, scale * np.cos(angle), cos**k)
    return cos_k + 1j * (fac * a.imag), fac * b


def _step_unitaries(
    coefficients: Callable[[np.ndarray], np.ndarray],
    t0: float,
    h: float,
    k: np.ndarray,
    out=(None, None),
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of the cf4 unitaries of the uniform steps k of size h from t0, steps last."""
    ca = coefficients(t0 + (k + _CF4_NODE_A) * h)
    cb = coefficients(t0 + (k + _CF4_NODE_B) * h)
    # both node combinations first, so that the samples are freed before the exponentials
    early = _CF4_W2 * ca
    early += _CF4_W1 * cb
    late = _CF4_W1 * ca
    del ca
    late += _CF4_W2 * cb
    del cb
    u_early = su2_exp(early, h)
    del early
    return _product(su2_exp(late, h), u_early, out)


def _tree_product(u) -> np.ndarray:
    """Pair of the time-ordered product u[..., -1] ... u[..., 0] along the last axis."""
    a, b = u  # each (batch..., steps)
    while a.shape[-1] > 1:
        even = a.shape[-1] - a.shape[-1] % 2
        pair = _product((a[..., 1:even:2], b[..., 1:even:2]), (a[..., :even:2], b[..., :even:2]))
        if even < a.shape[-1]:  # the odd last step joins the next level as it is
            pair = [np.concatenate([p, x[..., even:]], axis=-1) for p, x in zip(pair, (a, b))]
        a, b = pair
    return np.stack((a[..., 0], b[..., 0]))


def _interval_unitary(
    coefficients: Callable[[np.ndarray], np.ndarray],
    batch: tuple[int, ...],
    t0: float,
    t1: float,
    step: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair of the total propagator over [t0, t1], each of shape ``batch``.

    ``batch`` is the leading shape of ``coefficients``' output. Each chunk
    holds at most ``_CHUNK`` steps over the whole batch (at least one step),
    which bounds memory whatever the batch. A chunk is cut into blocks of a
    power-of-two step count B, starting at multiples of B. Every level of the
    chunk's pairwise tree below B pairs steps within one block, so the tree
    over the blocks' trees is the chunk's tree, bit for bit, for any B. The
    blocks are stepped in order, so at most one serial block's steps (plus a
    shorter last one) are held at a time. A step count that is not finite
    raises ``NumericalError``.
    """
    span = t1 - t0
    if span == 0.0:
        return np.ones(batch, dtype=complex), np.zeros(batch, dtype=complex)
    count = span / step
    if not math.isfinite(count):
        raise NumericalError(f"step count {count} over [{t0}, {t1}] s is not finite")
    n_steps = max(1, math.ceil(count - 1e-9))
    h = span / n_steps
    size = math.prod(batch)
    chunk_steps = max(1, _CHUNK // size)
    block = 1 << (min(chunk_steps, max(1, _BLOCK // size)).bit_length() - 1)
    steps, total = {}, None  # each block overwrites the last of its size: no page re-faults
    for done in range(0, n_steps, chunk_steps):
        m, trees = min(chunk_steps, n_steps - done), []
        for j in range(0, m, block):
            # sample times count steps from the chunk start, as in one chunk-wide call
            k = np.arange(j, min(j + block, m))
            out = steps.get(k.size, (None, None))
            steps[k.size] = _step_unitaries(coefficients, t0 + done * h, h, k, out)
            trees.append(_tree_product(steps[k.size]))
        chunk = _tree_product(np.stack(trees, -1))
        total = chunk if total is None else _product(chunk, total)
    return total


def _lattice_unitaries(
    hams: Sequence[Hamiltonian],
    coefficients: Callable[[np.ndarray], np.ndarray],
    batch: tuple[int, ...],
    t0: float,
    times: np.ndarray,
    step: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Pairs of U(t, t0) for every t in ``times`` without stepping, or None to step.

    Takes the closed-form or Floquet-power path (see the module docstring);
    a and b have shape batch + (len(times),).
    """
    periods = {h.period for h in hams}
    period = max(periods)
    if not period < math.inf or periods - {0.0, period}:
        return None
    if period == 0.0:
        c = coefficients(np.asarray(t0, dtype=float))
        return su2_exp(c[..., None, :], times - t0)
    marks = np.append(times, t0) / period
    counts = np.rint(marks)
    if not np.all(np.abs(marks - counts) <= LATTICE_TOLERANCE):
        return None
    counts = counts.astype(np.int64)
    a, b = _interval_unitary(coefficients, batch, 0.0, period, step)
    return su2_power((a[..., None], b[..., None]), counts[:-1] - counts[-1])


def _unitaries(
    hams: Sequence[Hamiltonian], t0: float, times, spec: IntegratorSpec, context: str
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (a, b) of U(t, t0) at every t in ascending ``times``, each (len(hams), len(times)).

    The core behind every entry point, and the one check of its times (1-D,
    finite, ascending, none before t0 by more than 1e-15 s) and of unitarity: a
    max | |a|^2 + |b|^2 - 1 | above 1e-10, or NaN, raises ``NumericalError``
    naming ``context``. All Hamiltonians share the smallest step any of them
    needs. A lattice path is taken where one applies, else each interval is
    stepped onto the product so far.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ConfigError("times must be a 1-D array")
    if not (math.isfinite(t0) and np.all(np.isfinite(times))):
        raise ConfigError("propagation times must be finite")
    if np.any(np.diff(times) < 0.0):
        raise ConfigError("propagation times must be ascending")
    if times.size and times[0] < t0 - 1e-15:
        raise ConfigError(f"propagation times must not precede t0 = {t0}")
    step = min(spec.effective_step(h.fastest_period) for h in hams)
    batch = (len(hams),)
    coefficients = batch_coefficients(hams)
    us = _lattice_unitaries(hams, coefficients, batch, t0, times, step)
    if us is None:
        us = np.empty((2,) + batch + times.shape, dtype=complex)
        total, prev = None, t0
        for j, t in enumerate(times):
            u = _interval_unitary(coefficients, batch, prev, float(t), step)
            total = u if total is None else _product(u, total)
            us[:, :, j] = total
            prev = float(t)
    a, b = us
    defect = float(np.abs(a.real**2 + a.imag**2 + b.real**2 + b.imag**2 - 1.0).max(initial=0.0))
    if not defect <= 1e-10:
        raise NumericalError(f"propagator unitarity defect {defect:.3e} in {context}")
    return a, b


def _states(a: np.ndarray, b: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """(a psi0 - b* psi1, b psi0 + a* psi1) on a new last axis, for amplitudes
    (psi0, psi1) on the last axis of ``amps``: the bits of 2x2 form @ amps."""
    p0, p1 = amps[..., 0], amps[..., 1]  # matmul sums from +0.0, which sets the signs of zeros
    return np.stack([(0.0 + a * p0) + -np.conj(b) * p1, (0.0 + b * p0) + np.conj(a) * p1], -1)


def evolve(
    h: Hamiltonian, psi0, t0: float, t1: float, spec: IntegratorSpec = ROTATING_SPEC
) -> np.ndarray:
    """Solve i dpsi/dt = H(t) psi from the (2,) state ``psi0`` at t0 to t1.

    Returns the final (2,) amplitudes, mapped from the core's pair and
    renormalized by :func:`qubit.normalized`.
    """
    psi0 = initial_state(psi0)
    a, b = _unitaries([h], t0, [t1], spec, f"evolve over [{t0}, {t1}]")
    return normalized(_states(a, b, psi0)[0, 0])


def propagator_unitary(
    h: Hamiltonian, t0: float, t1: float, spec: IntegratorSpec = ROTATING_SPEC
) -> np.ndarray:
    """Accumulated propagator U(t1, t0) as a 2x2 matrix; unitary within 1e-10."""
    a, b = _unitaries([h], t0, [t1], spec, f"propagator_unitary over [{t0}, {t1}]")
    return _matrix(a[0, 0], b[0, 0])


def propagator_grid(
    hamiltonians: Sequence[Hamiltonian],
    times: np.ndarray,
    spec: IntegratorSpec = ROTATING_SPEC,
) -> np.ndarray:
    """U(t, 0) for a batch of Hamiltonians at every time, shape (batch, len(times), 2, 2).

    All Hamiltonians share the global time axis (propagation starts at t=0)
    and the smallest step any of them needs. The reduction order is fixed by
    the time grid and the batch size, so a rerun gives the same bits. Built from
    the core's checked pairs, so unitary within 1e-10.
    """
    return _matrix(*_unitaries(hamiltonians, 0.0, times, spec, "propagator_grid"))


def evolve_grid(
    hamiltonians: Sequence[Hamiltonian],
    times: np.ndarray,
    psi0,
    spec: IntegratorSpec = ROTATING_SPEC,
) -> np.ndarray:
    """Evolve one (2,) initial state under a batch of Hamiltonians, sampling ``times``.

    Returns the states :func:`propagator_grid` carries ``psi0`` to, shape
    (batch, len(times), 2), mapped straight from the core's checked pairs.
    """
    psi0 = initial_state(psi0)
    return _states(*_unitaries(hamiltonians, 0.0, times, spec, "evolve_grid"), psi0)


def richardson_check(
    h: Hamiltonian, psi0, t0: float, t1: float, spec: IntegratorSpec = ROTATING_SPEC
) -> tuple[np.ndarray, float]:
    """Step-halving convergence check: evolve at h and h/2, report the gap."""
    coarse = evolve(h, psi0, t0, t1, spec)
    fine = evolve(h, psi0, t0, t1, spec.halved())
    gap = float(np.abs(coarse - fine).max())
    return fine, gap

"""Time evolution under time-dependent 2x2 Hamiltonians.

Two unconditionally unitary integrators are provided:

* ``cf4`` — fourth-order commutator-free scheme using two Gauss-Legendre
  samples per step (the default: it meets the 1e-8 step-halving budget at
  the default step counts and is still exact for constant H);
* ``midpoint`` — piecewise-constant matrix exponential with the Hamiltonian
  sampled at each step midpoint (second order, exact for constant H), kept
  as an independent cross-check of the default.

Both build per-step SU(2) exponentials in closed form (axis-angle) and are
vectorized over steps and over batches of Hamiltonians. Each SU(2) value
u = [[a, -b*], [b, a*]] is held as its Cayley-Klein pair (a, b): a product
is four complex multiplies, and the 2x2 form is built only for the returned
unitaries. Steps are reduced as pairwise trees (rounding growth logarithmic
in the step count) over chunks of at most ``_CHUNK`` steps, which bound memory.
A chunk's tree is built from the trees of its aligned power-of-two blocks,
which give the same bits; when an interval has several blocks they run on a
module-level thread pool of ``_WORKERS`` threads (one per usable CPU, at most
``_CHUNK // _BLOCK``), built on first use. The result is the same for any
thread count, and ``Hamiltonian.coefficients`` is then called from those
threads concurrently.

``evolve`` (with or without ``t_eval``), ``propagator_unitary`` and
``propagator_grid`` (with ``evolve_grid`` on top) are thin callers of one
core, which returns U(t, t0) for a batch of Hamiltonians at every requested
time. It takes one of three paths, chosen from ``Hamiltonian.period`` and
the requested times:

* **closed form** — every Hamiltonian in the batch is constant
  (``period == 0``): U(t, t0) = exp(-i (t - t0) H) at any times;
* **Floquet power** — the batch shares one finite period T (constant
  members count as T-periodic) and t0 and every requested time sit on the
  lattice t = k T within ``LATTICE_TOLERANCE`` periods: U(T) is integrated
  once per Hamiltonian with the stepper over [0, T] at the usual step, and
  U(t, t0) = U(T)^(k - k0) follows from :func:`su2_power`;
* **stepped** — everything else (the lab frame, wrapped callables, off-lattice
  times): the integrator steps through each interval between consecutive
  times and multiplies it onto the product so far. It is also the oracle the
  two fast paths are tested against.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .drive import Hamiltonian
from .qubit import QubitState

__all__ = [
    "IntegratorSpec",
    "IntegratorError",
    "LAB_SPEC",
    "ROTATING_SPEC",
    "su2_exp",
    "su2_power",
    "evolve",
    "propagator_unitary",
    "propagator_grid",
    "evolve_grid",
    "richardson_check",
    "as_hamiltonian",
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

#: Steps per block, summed over the batch: a chunk is reduced as aligned
#: power-of-two blocks of at most this many steps, run on the block pool.
_BLOCK = 1 << 14

#: Block pool threads: one per usable CPU, and at most _CHUNK // _BLOCK, so
#: the steps in flight never exceed _CHUNK whatever the CPU count.
_WORKERS = min(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
    _CHUNK // _BLOCK,
)

# Gauss-Legendre nodes and weights of the 4th-order commutator-free scheme.
_CF4_NODE_A = 0.5 - math.sqrt(3.0) / 6.0
_CF4_NODE_B = 0.5 + math.sqrt(3.0) / 6.0
_CF4_W1 = 0.25 - math.sqrt(3.0) / 6.0
_CF4_W2 = 0.25 + math.sqrt(3.0) / 6.0


class IntegratorError(RuntimeError):
    """Numerical failure during propagation (unitarity defect, bad step...)."""


@dataclass(frozen=True)
class IntegratorSpec:
    """Step-size policy and method selection for the propagators.

    The effective step is ``min(max_step, fastest_period / steps_per_fastest_period)``
    where the fastest period comes from the Hamiltonian being integrated.
    """

    method: str = "cf4"
    max_step: float = math.inf
    steps_per_fastest_period: int = 200

    def __post_init__(self) -> None:
        if self.method not in ("midpoint", "cf4"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.steps_per_fastest_period < 40:
            raise ValueError("steps_per_fastest_period must be at least 40")
        if not self.max_step > 0.0:
            raise ValueError("max_step must be positive")

    def effective_step(self, fastest_period: float) -> float:
        step = min(self.max_step, fastest_period / self.steps_per_fastest_period)
        if not (step > 0.0 and math.isfinite(step)):
            raise IntegratorError(
                "cannot determine a finite step size; pass a Hamiltonian with a "
                "fastest_period or set IntegratorSpec.max_step"
            )
        return step

    def halved(self) -> "IntegratorSpec":
        return replace(
            self,
            max_step=self.max_step / 2.0,
            steps_per_fastest_period=2 * self.steps_per_fastest_period,
        )


#: Lab-frame default (steps resolve the carrier; each step is cheap in batch).
LAB_SPEC = IntegratorSpec(steps_per_fastest_period=40)

#: Rotating-frame default (steps are cheap, so resolve generously).
ROTATING_SPEC = IntegratorSpec(steps_per_fastest_period=200)


def _matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 2x2 form [[a, -b*], [b, a*]] of the Cayley-Klein pair (a, b)."""
    return np.stack([np.stack([a, -np.conj(b)], -1), np.stack([b, np.conj(a)], -1)], -2)


def _product(late, early) -> tuple[np.ndarray, np.ndarray]:
    """The pair of late @ early: four complex multiplies instead of a 2x2 matmul."""
    (a1, b1), (a2, b2) = late, early
    return a1 * a2 - np.conj(b1) * b2, b1 * a2 + np.conj(a1) * b2


def su2_exp(coeffs: np.ndarray, dt: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i dt (c . sigma)) for an (..., 3) array of real Pauli coefficients.

    Returns its Cayley-Klein pair (a, b), a = cos(theta) - i f c_z and
    b = f c_y - i f c_x with f = sin(theta) / |c|. ``dt`` is a scalar or an
    array broadcasting against ``coeffs[..., 0]``.
    """
    c = np.asarray(coeffs, dtype=float)
    r = np.sqrt(np.einsum("...i,...i->...", c, c))
    theta = r * dt
    # dt * sinc(theta/pi) == sin(theta)/r, exact and smooth at r == 0
    f = dt * np.sinc(theta / np.pi)
    return np.cos(theta) - 1j * (f * c[..., 2]), f * c[..., 1] - 1j * (f * c[..., 0])


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


def as_hamiltonian(h, fastest_period: float | None = None) -> Hamiltonian:
    """Coerce a plain ``t -> 2x2 Hermitian ndarray`` callable to a Hamiltonian.

    The matrix is decomposed into Pauli coefficients per sample; a nonzero
    trace part only contributes a global phase and is dropped.
    """
    if isinstance(h, Hamiltonian):
        return h

    def coefficients(times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        flat = np.atleast_1d(times).ravel()
        out = np.empty(flat.shape + (3,))
        for idx, t in enumerate(flat):
            m = np.asarray(h(t), dtype=complex)
            out[idx, 0] = m[1, 0].real
            out[idx, 1] = m[1, 0].imag
            out[idx, 2] = (m[0, 0].real - m[1, 1].real) / 2.0
        return out.reshape(times.shape + (3,))

    return Hamiltonian(coefficients, fastest_period or math.inf, "wrapped")


def _step_unitaries(
    coefficients: Callable[[np.ndarray], np.ndarray],
    t0: float,
    h: float,
    k: np.ndarray,
    method: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of the unitaries of the uniform steps k of size h from t0, steps last."""
    if method == "midpoint":
        c = coefficients(t0 + (k + 0.5) * h)
        return su2_exp(c, h)
    ca = coefficients(t0 + (k + _CF4_NODE_A) * h)
    cb = coefficients(t0 + (k + _CF4_NODE_B) * h)
    u_early = su2_exp(_CF4_W2 * ca + _CF4_W1 * cb, h)
    u_late = su2_exp(_CF4_W1 * ca + _CF4_W2 * cb, h)
    return _product(u_late, u_early)


def _tree_product(u) -> np.ndarray:
    """Pair of the time-ordered product u[..., -1] ... u[..., 0] along the last axis."""
    u = np.asarray(u)  # (2, batch..., steps): a and b stacked
    while u.shape[-1] > 1:
        even = u.shape[-1] - u.shape[-1] % 2
        pairs = np.asarray(_product(u[..., 1:even:2], u[..., :even:2]))
        u = np.concatenate([pairs, u[..., even:]], axis=-1)
    return u[..., 0]


@functools.cache
def _pool(workers: int):
    """The block pool, built on first use so that importing starts no thread."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="ccdsim-block")


def _interval_unitary(
    coefficients: Callable[[np.ndarray], np.ndarray],
    batch: tuple[int, ...],
    t0: float,
    t1: float,
    step: float,
    method: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Pair of the total propagator over [t0, t1], each of shape ``batch``.

    ``batch`` is the leading shape of ``coefficients``' output. Each chunk
    holds at most ``_CHUNK`` steps over the whole batch (at least one step),
    which bounds memory whatever the batch. A chunk is cut into blocks of a
    power-of-two step count B, starting at multiples of B, with at most
    ``_BLOCK`` steps over the batch. Every level of the chunk's pairwise tree
    below B pairs steps within one block, so the tree over the blocks' trees
    is the chunk's tree, bit for bit, and the blocks can run on the pool.
    """
    span = t1 - t0
    if span == 0.0:
        return np.ones(batch, dtype=complex), np.zeros(batch, dtype=complex)
    n_steps = max(1, math.ceil(span / step - 1e-9))
    h = span / n_steps
    size = math.prod(batch)
    chunk_steps = max(1, _CHUNK // size)
    block = 1 << (min(chunk_steps, max(1, _BLOCK // size)).bit_length() - 1)
    total = None
    for done in range(0, n_steps, chunk_steps):
        m = min(chunk_steps, n_steps - done)
        start = t0 + done * h

        def block_tree(j: int) -> np.ndarray:
            # sample times count steps from the chunk start, as in one chunk-wide call
            k = np.arange(j, min(j + block, m))
            return _tree_product(_step_unitaries(coefficients, start, h, k, method))

        blocks = range(0, m, block)
        run = _pool(_WORKERS).map if len(blocks) > 1 and _WORKERS > 1 else map
        chunk = _tree_product(np.stack(list(run(block_tree, blocks)), axis=-1))
        total = chunk if total is None else _product(chunk, total)
    return total


def _lattice_unitaries(
    hams: Sequence[Hamiltonian],
    coefficients: Callable[[np.ndarray], np.ndarray],
    batch: tuple[int, ...],
    t0: float,
    times: np.ndarray,
    step: float,
    method: str,
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
    a, b = _interval_unitary(coefficients, batch, 0.0, period, step, method)
    return su2_power((a[..., None], b[..., None]), counts[:-1] - counts[-1])


def _unitaries(
    hams: Sequence[Hamiltonian], t0: float, times: np.ndarray, spec: IntegratorSpec
) -> np.ndarray:
    """U(t, t0) for every t in ascending ``times``, shape (len(hams), len(times), 2, 2).

    The propagation core behind every entry point. All Hamiltonians share the
    smallest step any of them needs. It takes a lattice path where one
    applies, else one stepped interval per sample time, each accumulated onto
    the product so far. Every path works on pairs up to the returned 2x2 form.
    """
    step = min(spec.effective_step(h.fastest_period) for h in hams)
    batch, method = (len(hams),), spec.method

    def coefficients(ts: np.ndarray) -> np.ndarray:
        return np.stack([h.coefficients(ts) for h in hams], axis=0)

    us = _lattice_unitaries(hams, coefficients, batch, t0, times, step, method)
    if us is None:
        us = np.empty((2,) + batch + times.shape, dtype=complex)
        total, prev = None, t0
        for j, t in enumerate(times):
            u = _interval_unitary(coefficients, batch, prev, float(t), step, method)
            total = u if total is None else _product(u, total)
            us[:, :, j] = total
            prev = float(t)
    return _matrix(*us)


def _check_unitary(us: np.ndarray, context: str) -> np.ndarray:
    defect = float(np.abs(us.conj().swapaxes(-1, -2) @ us - np.eye(2)).max(initial=0.0))
    if not defect <= 1e-10:
        raise IntegratorError(f"propagator unitarity defect {defect:.3e} during {context}")
    return us


def evolve(
    h,
    psi0: QubitState,
    t0: float,
    t1: float,
    spec: IntegratorSpec = ROTATING_SPEC,
    *,
    t_eval: Sequence[float] | None = None,
) -> QubitState | list[QubitState]:
    """Solve i dpsi/dt = H(t) psi from t0 to t1.

    Returns the final state, or the list of states at ``t_eval`` (ascending
    times within [t0, t1]) if given. Norm is preserved by construction.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    times = np.array([t1] if t_eval is None else t_eval, dtype=float)
    if t_eval is not None and np.any(np.diff(times) < 0.0):
        raise ValueError("t_eval must be ascending")
    if times.size and (times[0] < t0 - 1e-15 or times[-1] > t1 + 1e-12):
        raise ValueError("t_eval must lie within [t0, t1]")
    us = _unitaries([as_hamiltonian(h)], t0, times, spec)[0]
    amps = _check_unitary(us, f"evolve over [{t0}, {t1}]") @ psi0.amplitudes
    if t_eval is None:
        return QubitState(amps[0])
    return [QubitState(a) for a in amps]


def propagator_unitary(
    h, t0: float, t1: float, spec: IntegratorSpec = ROTATING_SPEC
) -> np.ndarray:
    """Accumulated propagator U(t1, t0); unitary within 1e-10 by construction."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    u = _unitaries([as_hamiltonian(h)], t0, np.array([t1]), spec)[0, 0]
    return _check_unitary(u, f"propagation over [{t0}, {t1}]")


def propagator_grid(
    hamiltonians: Sequence[Hamiltonian],
    times: np.ndarray,
    spec: IntegratorSpec = ROTATING_SPEC,
) -> np.ndarray:
    """U(t, 0) for a batch of Hamiltonians at every time, shape (batch, len(times), 2, 2).

    All Hamiltonians share the global time axis (propagation starts at t=0)
    and the smallest step any of them needs. The reduction order is fixed by
    the time grid and the batch size, so a rerun gives the same bits.
    Unitary within 1e-10, as :func:`propagator_unitary`.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or (times.size and times[0] < 0.0):
        raise ValueError("times must be a 1-D non-negative array")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("times must be ascending")
    return _check_unitary(_unitaries(hamiltonians, 0.0, times, spec), "grid propagation")


def evolve_grid(
    hamiltonians: Sequence[Hamiltonian],
    times: np.ndarray,
    psi0: QubitState,
    spec: IntegratorSpec = ROTATING_SPEC,
) -> np.ndarray:
    """Evolve one initial state under a batch of Hamiltonians, sampling ``times``.

    Returns a complex array of shape (batch, len(times), 2): the states
    :func:`propagator_grid` carries ``psi0`` to. Its unitarity check bounds
    the norm drift of every column by about 1e-10.
    """
    return propagator_grid(hamiltonians, times, spec) @ psi0.amplitudes


def richardson_check(
    h, psi0: QubitState, t0: float, t1: float, spec: IntegratorSpec = ROTATING_SPEC
) -> tuple[QubitState, float]:
    """Step-halving convergence check: evolve at h and h/2, report the gap."""
    coarse = evolve(h, psi0, t0, t1, spec)
    fine = evolve(h, psi0, t0, t1, spec.halved())
    gap = float(np.abs(coarse.amplitudes - fine.amplitudes).max())
    return fine, gap

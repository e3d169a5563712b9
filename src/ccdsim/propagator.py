"""Time evolution under time-dependent 2x2 Hamiltonians.

Two unconditionally unitary integrators are provided:

* ``cf4`` — fourth-order commutator-free scheme using two Gauss-Legendre
  samples per step (the default: it meets the 1e-8 step-halving budget at
  the default step counts and is still exact for constant H);
* ``midpoint`` — piecewise-constant matrix exponential with the Hamiltonian
  sampled at each step midpoint (second order, exact for constant H), kept
  as an independent cross-check of the default.

Both build per-step SU(2) exponentials in closed form (axis-angle) and are
vectorized over steps and over batches of Hamiltonians, so long multi-scale
lab-frame traces stay cheap. Total unitaries are accumulated by pairwise
tree reduction, which keeps rounding growth logarithmic in the step count.

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

import math
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

#: Accumulated norm drift beyond this is treated as an integrator failure.
NORM_DRIFT_LIMIT = 1e-8

#: Lattice tolerance: a time t is on the period-T lattice if t / T lies within
#: this many periods of an integer. It only absorbs rounding: t / T of a
#: lattice time k T is off by a few ulps of k (below 1e-12 for k up to about
#: 2,000). A time off by more is stepped, never moved onto the lattice, which
#: would cost up to |H| times the distance moved.
LATTICE_TOLERANCE = 1e-12

#: Step unitaries per chunk, summed over the batch, when accumulating very
#: long products (memory bound).
_CHUNK = 1 << 20

# Gauss-Legendre nodes and weights of the 4th-order commutator-free scheme.
_CF4_NODE_A = 0.5 - math.sqrt(3.0) / 6.0
_CF4_NODE_B = 0.5 + math.sqrt(3.0) / 6.0
_CF4_W1 = 0.25 - math.sqrt(3.0) / 6.0
_CF4_W2 = 0.25 + math.sqrt(3.0) / 6.0


class IntegratorError(RuntimeError):
    """Numerical failure during propagation (norm drift, bad step...)."""


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


def _su2_matrix(cos: np.ndarray, fac: np.ndarray, v: np.ndarray) -> np.ndarray:
    """cos I - i fac (v . sigma), broadcasting cos and fac against v[..., 0]."""
    shape = np.broadcast_shapes(np.shape(cos), np.shape(fac), v.shape[:-1])
    u = np.empty(shape + (2, 2), dtype=complex)
    u[..., 0, 0] = cos - 1j * fac * v[..., 2]
    u[..., 0, 1] = -1j * fac * (v[..., 0] - 1j * v[..., 1])
    u[..., 1, 0] = -1j * fac * (v[..., 0] + 1j * v[..., 1])
    u[..., 1, 1] = cos + 1j * fac * v[..., 2]
    return u


def su2_exp(coeffs: np.ndarray, dt: float | np.ndarray) -> np.ndarray:
    """exp(-i dt (c . sigma)) for an (..., 3) array of real Pauli coefficients.

    ``dt`` is a scalar or an array broadcasting against ``coeffs[..., 0]``.
    """
    c = np.asarray(coeffs, dtype=float)
    r = np.sqrt(np.einsum("...i,...i->...", c, c))
    theta = r * dt
    # dt * sinc(theta/pi) == sin(theta)/r, exact and smooth at r == 0
    return _su2_matrix(np.cos(theta), dt * np.sinc(theta / np.pi), c)


def su2_power(u: np.ndarray, k) -> np.ndarray:
    """u**k for (..., 2, 2) SU(2) matrices and integer powers ``k``, in closed form.

    Writes u = r (cos(theta) I - i sin(theta) n . sigma), theta = atan2 in
    [0, pi], and returns r**k (cos(k theta) I - i sin(k theta) n . sigma).
    The leading dimensions of ``u`` broadcast against ``k``. U = +-I gives
    (+-1)**k I exactly and k = 0 gives I; r carries any norm defect of ``u``
    into the result, as repeated multiplication would.
    """
    u = np.asarray(u, dtype=complex)
    k = np.asarray(k)
    if k.dtype.kind not in "iu":
        raise TypeError(f"su2_power needs integer powers, got dtype {k.dtype}")
    # project onto r [[a, -b*], [b, a*]] with a = cos - i sin n_z, b = sin (n_y - i n_x)
    a = 0.5 * (u[..., 0, 0] + u[..., 1, 1].conj())
    b = 0.5 * (u[..., 1, 0] - u[..., 0, 1].conj())
    v = np.stack([-b.imag, b.real, -a.imag], axis=-1)  # r sin(theta) n
    sin = np.sqrt(np.einsum("...i,...i->...", v, v))
    cos = a.real
    theta = np.arctan2(sin, cos)
    scale = np.hypot(sin, cos) ** k
    axial = sin > 0.0
    angle = k * theta
    fac = np.where(axial, scale * np.sin(angle) / np.where(axial, sin, 1.0), 0.0)
    cos_k = np.where(axial, scale * np.cos(angle), cos**k)
    return _su2_matrix(cos_k, fac, v)


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
    n_steps: int,
    method: str,
) -> np.ndarray:
    """Per-step unitaries for n uniform steps of size h starting at t0."""
    k = np.arange(n_steps)
    if method == "midpoint":
        c = coefficients(t0 + (k + 0.5) * h)
        return su2_exp(c, h)
    ca = coefficients(t0 + (k + _CF4_NODE_A) * h)
    cb = coefficients(t0 + (k + _CF4_NODE_B) * h)
    u_early = su2_exp(_CF4_W2 * ca + _CF4_W1 * cb, h)
    u_late = su2_exp(_CF4_W1 * ca + _CF4_W2 * cb, h)
    return u_late @ u_early


def _tree_product(us: np.ndarray) -> np.ndarray:
    """Time-ordered product us[-1] @ ... @ us[0] along axis 0 (batch-aware)."""
    while us.shape[0] > 1:
        n = us.shape[0]
        pairs = us[1 : n - (n % 2) : 2] @ us[0 : n - (n % 2) : 2]
        if n % 2:
            us = np.concatenate([pairs, us[-1:]], axis=0)
        else:
            us = pairs
    return us[0]


def _interval_unitary(
    coefficients: Callable[[np.ndarray], np.ndarray],
    batch: tuple[int, ...],
    t0: float,
    t1: float,
    step: float,
    method: str,
) -> np.ndarray:
    """Total propagator over [t0, t1], shape batch + (2, 2).

    ``batch`` is the leading shape of ``coefficients``' output. Each chunk
    holds at most ``_CHUNK`` step unitaries over the whole batch (at least
    one step), which bounds memory whatever the batch.
    """
    span = t1 - t0
    if span == 0.0:
        return np.broadcast_to(np.eye(2, dtype=complex), batch + (2, 2)).copy()
    n_steps = max(1, math.ceil(span / step - 1e-9))
    h = span / n_steps
    chunk_steps = max(1, _CHUNK // math.prod(batch))
    total = None
    done = 0
    while done < n_steps:
        m = min(chunk_steps, n_steps - done)
        # move the step axis first so the tree product broadcasts over batches
        us = np.moveaxis(_step_unitaries(coefficients, t0 + done * h, h, m, method), -3, 0)
        chunk = _tree_product(us)
        total = chunk if total is None else chunk @ total
        done += m
    return total


def _lattice_unitaries(
    hams: Sequence[Hamiltonian],
    coefficients: Callable[[np.ndarray], np.ndarray],
    batch: tuple[int, ...],
    t0: float,
    times: np.ndarray,
    step: float,
    method: str,
) -> np.ndarray | None:
    """U(t, t0) for every t in ``times`` without stepping, or None to step.

    Takes the closed-form or Floquet-power path (see the module docstring);
    the result has shape batch + (len(times), 2, 2).
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
    u_period = _interval_unitary(coefficients, batch, 0.0, period, step, method)
    return su2_power(u_period[..., None, :, :], counts[:-1] - counts[-1])


def _unitaries(
    hams: Sequence[Hamiltonian], t0: float, times: np.ndarray, spec: IntegratorSpec
) -> np.ndarray:
    """U(t, t0) for every t in ascending ``times``, shape (len(hams), len(times), 2, 2).

    The propagation core behind every entry point. All Hamiltonians share the
    smallest step any of them needs. It takes a lattice path where one
    applies, else one stepped interval per sample time, each accumulated onto
    the product so far.
    """
    step = min(spec.effective_step(h.fastest_period) for h in hams)
    batch, method = (len(hams),), spec.method

    def coefficients(ts: np.ndarray) -> np.ndarray:
        return np.stack([h.coefficients(ts) for h in hams], axis=0)

    us = _lattice_unitaries(hams, coefficients, batch, t0, times, step, method)
    if us is not None:
        return us
    us = np.empty(batch + (times.size, 2, 2), dtype=complex)
    total, prev = None, t0
    for j, t in enumerate(times):
        u = _interval_unitary(coefficients, batch, prev, float(t), step, method)
        total = u if total is None else u @ total
        us[..., j, :, :] = total
        prev = float(t)
    return us


def _check_unitary(us: np.ndarray, context: str) -> np.ndarray:
    defect = float(np.abs(us.conj().swapaxes(-1, -2) @ us - np.eye(2)).max(initial=0.0))
    if not defect <= 1e-10:
        raise IntegratorError(f"propagator unitarity defect {defect:.3e} during {context}")
    return us


def _check_norm(amps: np.ndarray, context: str) -> np.ndarray:
    norms = np.sqrt(np.einsum("...i,...i->...", amps, amps.conj()).real)
    drift = float(np.abs(norms - 1.0).max())
    if not drift <= NORM_DRIFT_LIMIT:
        raise IntegratorError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e} during {context}"
        )
    return amps / norms[..., None]


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
    times within [t0, t1]) if given. Norm is preserved by construction; a
    drift beyond 1e-8 raises :class:`IntegratorError`.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    times = np.array([t1] if t_eval is None else t_eval, dtype=float)
    if t_eval is not None and np.any(np.diff(times) < 0.0):
        raise ValueError("t_eval must be ascending")
    if times.size and (times[0] < t0 - 1e-15 or times[-1] > t1 + 1e-12):
        raise ValueError("t_eval must lie within [t0, t1]")
    us = _unitaries([as_hamiltonian(h)], t0, times, spec)[0]
    amps = _check_norm(us @ psi0.amplitudes, f"evolve over [{t0}, {t1}]")
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

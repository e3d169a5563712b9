"""Property tests of the propagation core against the stepped cf4 oracle.

Each example draws a scheme, a rotating frame, a small batch of (detuning,
Rabi error) pairs within +-0.3 Omega_0 and an ascending time grid that lies
on the modulation-period lattice, off it, or both. ``evolve(t_eval=...)``,
``evolve_grid`` and ``propagator_unitary`` must then agree with a stepped
oracle: the same Hamiltonian with ``period=math.inf`` (so no fast path
applies), stepped over each interval between consecutive times, with the
interval unitaries multiplied here rather than in the propagator.
"""
import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdsim.drive import Scheme, default_config, first_frame_hamiltonian, second_frame_hamiltonian
from ccdsim.propagator import evolve, evolve_grid, propagator_unitary
from ccdsim.qubit import QubitState

RABI = 2 * math.pi * 3.6e6
PERIOD = 2 * math.pi / RABI
#: largest lattice index drawn; keeps each example to a few thousand cf4 steps
SPAN = 24
TOLERANCE = 1e-9

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None, database=None)

errors = st.floats(-0.3, 0.3, allow_nan=False)


@st.composite
def time_grids(draw):
    """Ascending times in periods: on the lattice, off it, or a mix of both."""
    kind = draw(st.sampled_from(["on", "off", "mixed"]))
    on = draw(st.lists(st.integers(0, SPAN), min_size=1, max_size=6))
    off = draw(st.lists(st.floats(0.0, SPAN, allow_nan=False), min_size=1, max_size=6))
    counts = {"on": on, "off": off, "mixed": on + off}[kind]
    return np.sort(np.asarray(counts, dtype=float)) * PERIOD


@st.composite
def cases(draw):
    scheme = draw(st.sampled_from(list(Scheme)))
    build = draw(st.sampled_from([first_frame_hamiltonian, second_frame_hamiltonian]))
    pairs = draw(st.lists(st.tuples(errors, errors), min_size=1, max_size=3))
    hams = [
        build(default_config(scheme, detuning=d * RABI, rabi_error=e * RABI))
        for d, e in pairs
    ]
    return hams, draw(time_grids())


def stepped_oracle(ham, t0, times):
    """U(t, t0) at each time by stepping every interval with the period cleared."""
    ham = replace(ham, period=math.inf)
    total, prev, out = np.eye(2, dtype=complex), t0, []
    for t in times:
        total = propagator_unitary(ham, prev, float(t)) @ total
        out.append(total)
        prev = float(t)
    return np.array(out)


@PROPERTY
@given(cases())
def test_entry_points_match_stepped_oracle(case):
    hams, times = case
    psi0 = QubitState.plus()
    oracles = np.array([stepped_oracle(h, 0.0, times) for h in hams])
    expected = oracles @ psi0.amplitudes  # (batch, times, 2)

    grid = evolve_grid(hams, times, psi0)
    assert np.abs(grid - expected).max() <= TOLERANCE

    for ham, oracle, want in zip(hams, oracles, expected):
        states = evolve(ham, psi0, 0.0, float(times[-1]), t_eval=times)
        got = np.array([s.amplitudes for s in states])
        assert np.abs(got - want).max() <= TOLERANCE
        u = propagator_unitary(ham, 0.0, float(times[-1]))
        assert np.abs(u - oracle[-1]).max() <= TOLERANCE


@PROPERTY
@given(cases())
def test_nonzero_start_matches_stepped_oracle(case):
    hams, times = case
    psi0 = QubitState.zero()
    for ham in hams:
        oracle = stepped_oracle(ham, float(times[0]), times)
        states = evolve(ham, psi0, float(times[0]), float(times[-1]), t_eval=times)
        got = np.array([s.amplitudes for s in states])
        assert np.abs(got - oracle @ psi0.amplitudes).max() <= TOLERANCE
        u = propagator_unitary(ham, float(times[0]), float(times[-1]))
        assert np.abs(u - oracle[-1]).max() <= TOLERANCE

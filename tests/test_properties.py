"""Property tests of the propagation core against the stepped cf4 oracle.

Each example draws a scheme, a rotating frame, a small batch of (detuning,
Rabi error) pairs within +-0.3 Omega_0 and an ascending time grid that lies
on the modulation-period lattice, off it, or both. ``evolve(t_eval=...)``,
``evolve_grid`` and ``propagator_unitary`` must then agree with a stepped
oracle: the same Hamiltonian with ``period=math.inf`` (so no fast path
applies), stepped over each interval between consecutive times, with the
interval unitaries multiplied here rather than in the propagator.

The propagator stores each SU(2) value as its Cayley-Klein pair (a, b) of
u = [[a, -b*], [b, a*]]. Further properties pin the pair products, the tree
product and ``su2_power`` to plain 2x2 matrix products, and the lab-frame
stepper to itself under a much smaller chunk bound. The last property checks
that any valid ``RunConfig`` survives ``emit_config`` and ``parse_config``.
"""
import math
import string
from dataclasses import fields, replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdsim import propagator
from ccdsim.config import KEY_TYPES, RunConfig, emit_config, parse_config
from ccdsim.drive import (
    Scheme,
    default_config,
    first_frame_hamiltonian,
    lab_hamiltonian,
    second_frame_hamiltonian,
)
from ccdsim.propagator import LAB_SPEC, evolve, evolve_grid, propagator_unitary, su2_exp, su2_power
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


def matrix(pair):
    """[[a, -b*], [b, a*]] for a Cayley-Klein pair (a, b) of arrays."""
    a, b = np.asarray(pair[0]), np.asarray(pair[1])
    return np.stack([np.stack([a, -b.conj()], -1), np.stack([b, a.conj()], -1)], -2)


@st.composite
def step_pairs(draw):
    """Pairs of random SU(2) steps, shape (batch, steps), odd step counts included."""
    batch, steps = draw(st.integers(1, 3)), draw(st.integers(1, 65))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.normal(size=(batch, steps, 3))
    return su2_exp(coeffs, draw(st.floats(1e-3, 10.0)))


@PROPERTY
@given(step_pairs())
def test_pair_products_match_matrix_products(late):
    early = tuple(x[..., ::-1] for x in late)  # steps in reverse: mostly another step
    got = matrix(propagator._product(late, early))
    assert np.abs(got - matrix(late) @ matrix(early)).max() <= 1e-13


@PROPERTY
@given(step_pairs())
def test_tree_product_matches_ordered_matrix_product(pairs):
    us = matrix(pairs)
    total = us[:, 0]
    for j in range(1, us.shape[1]):
        total = us[:, j] @ total
    assert np.abs(matrix(propagator._tree_product(pairs)) - total).max() <= 1e-13


@PROPERTY
@given(step_pairs(), st.integers(0, 6))
def test_tree_product_is_the_tree_of_its_aligned_block_trees(pairs, log_block):
    # the stepped core reduces a chunk as the tree over its blocks' trees
    u, block = np.asarray(pairs), 1 << log_block
    blocks = [propagator._tree_product(u[..., j : j + block]) for j in range(0, u.shape[-1], block)]
    whole = propagator._tree_product(u)
    assert propagator._tree_product(np.stack(blocks, axis=-1)).tobytes() == whole.tobytes()


@PROPERTY
@given(
    st.floats(0.0, math.pi),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(lambda v: np.linalg.norm(v) > 0.1),
    st.integers(0, 300),
)
def test_pair_power_matches_repeated_multiplication(theta, axis, k):
    axis = np.asarray(axis) / np.linalg.norm(axis)
    pair = su2_exp(axis, theta)
    u, total = matrix(pair), np.eye(2, dtype=complex)
    for _ in range(k):
        total = u @ total
    assert np.abs(matrix(su2_power(pair, k)) - total).max() <= 1e-12


@PROPERTY
@given(
    st.sampled_from(list(Scheme)),
    errors,
    st.floats(0.0, 100.0 * PERIOD),
    st.floats(0.5e-9, 2e-9),  # 300 to 1,200 steps: 5 to 19 chunks of 64
)
def test_lab_frame_chunking_does_not_move_the_propagator(scheme, detuning, t0, span):
    ham = lab_hamiltonian(default_config(scheme, detuning=detuning * RABI))
    whole = propagator_unitary(ham, t0, t0 + span, LAB_SPEC)
    with mock.patch.object(propagator, "_CHUNK", 64):
        chunked = propagator_unitary(ham, t0, t0 + span, LAB_SPEC)
    assert np.abs(chunked - whole).max() <= 1e-12


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
#: values drawn for each key type; integers reach past 2^53, where floats
#: stop naming every integer
BY_TYPE = {
    float: finite,
    int: st.integers(-(2**64), 2**64),
    str: st.text(string.ascii_letters + string.digits + "/._-", max_size=12),
    tuple: st.lists(st.integers(1, 2**64), unique=True, max_size=6).map(
        lambda xs: tuple(sorted(xs))
    ),
}
#: keys whose values the parser restricts, with values it accepts
RESTRICTED = {
    "rabi_hz": positive,
    "mod_ratio": non_negative,
    "noise_detuning_sigma_hz": non_negative,
    "noise_rabi_sigma_frac": non_negative,
    "sample_rate_hz": positive,
    "threads": st.integers(0, 2**64),
    "format": st.sampled_from(["csv", "json"]),
    "dressed_kind": st.sampled_from(["ccd_rabi", "ccd_ramsey", "two_axis"]),
    **{
        key: st.integers(1, 2**64)
        for key in ("duration_points", "detuning_points", "rabi_error_points",
                    "sweep_points", "k_randomizations", "noise_samples")
    },
}


@st.composite
def run_configs(draw):
    values = {
        f.name: draw(RESTRICTED.get(f.name, BY_TYPE[KEY_TYPES[f.name]]))
        for f in fields(RunConfig)
    }
    name = draw(st.sampled_from(["bare", "am", "amccd", "pm", "pmccd", "cm", "cmccd"]))
    scheme = Scheme.parse(name)
    values.update(scheme=name, alpha_a=scheme.alpha_a, alpha_p=scheme.alpha_p)
    return RunConfig(**values)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(run_configs())
def test_config_text_round_trip(cfg):
    assert parse_config(emit_config(cfg)) == cfg
    dataset_text = emit_config(cfg, include_runtime=False)
    assert parse_config(dataset_text) == replace(cfg, threads=0, out="")

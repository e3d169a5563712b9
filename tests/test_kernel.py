"""Bit equality of the stepped cf4 kernel with the oracles of ``tests/oracles.py``.

``su2_exp`` writes its pair into preallocated arrays through their real and
imaginary views, ``_tree_product`` reduces (a, b) without restacking them,
``_step_unitaries`` forms both node combinations before the exponentials and
the lab-frame drive term is written straight into its column. Each must give
the bits of the plain numpy expressions they replaced, signed zeros included,
so the properties compare raw bit patterns rather than values.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdsim import propagator
from ccdsim.drive import Scheme, batch_coefficients, default_config, lab_hamiltonian
from ccdsim.propagator import su2_exp
from oracles import lab_coefficients, product, su2_exp as su2_exp_oracle, tree_product

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)
RABI = 2 * math.pi * 3.6e6


def bits(x):
    """The int64 bit patterns of a float or complex array, 0-d included."""
    x = np.asarray(x)
    return x.shape, x.dtype, x.reshape(-1).view(np.int64).tolist()


def same_pair(got, want):
    return bits(got[0]) == bits(want[0]) and bits(got[1]) == bits(want[1])


magnitudes = st.builds(
    lambda sign, exponent, mantissa: sign * mantissa * 10.0**exponent,
    st.sampled_from([1.0, -1.0]),
    st.integers(-300, 11),
    st.floats(1.0, 10.0, exclude_max=True),
)
entries = st.one_of(st.sampled_from([0.0, -0.0]), magnitudes)
#: a row of zeros (any signs), so |c| = 0, or three entries
rows = st.one_of(st.lists(st.sampled_from([0.0, -0.0]), min_size=3, max_size=3),
                 st.lists(entries, min_size=3, max_size=3))
steps = st.one_of(st.sampled_from([0.0, 1e-12, 0.5]), st.floats(1e-15, 10.0))


@st.composite
def coefficient_arrays(draw):
    """Pauli coefficients of shape batch + (3,) with 0 to 2 batch axes."""
    shape = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    flat = draw(st.lists(rows, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(flat, dtype=float).reshape(shape + (3,))


@PROPERTY
@given(coefficient_arrays(), steps)
def test_su2_exp_matches_its_oracle_for_a_scalar_step(coeffs, dt):
    assert same_pair(su2_exp(coeffs, dt), su2_exp_oracle(coeffs, dt))


@PROPERTY
@given(coefficient_arrays(), st.lists(st.one_of(steps, st.just(-1e-15)), min_size=1, max_size=5))
def test_su2_exp_matches_its_oracle_for_broadcast_steps(coeffs, dts):
    # the closed form's layout: one constant H per member, exponentiated at every time
    coeffs, dt = coeffs[..., None, :], np.array(dts)
    assert same_pair(su2_exp(coeffs, dt), su2_exp_oracle(coeffs, dt))


@st.composite
def step_pairs(draw):
    """Pairs of su2_exp steps, shape (batch, steps), odd step counts included."""
    batch, count = draw(st.integers(1, 3)), draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return su2_exp(rng.normal(size=(batch, count, 3)), draw(st.floats(1e-3, 10.0)))


@PROPERTY
@given(step_pairs())
def test_tree_product_matches_its_oracle(pairs):
    assert bits(propagator._tree_product(pairs)) == bits(tree_product(pairs))


lab_times = st.floats(0.0, 1e-5)


@st.composite
def lab_cases(draw):
    """A lab-frame drive of any scheme and its times as a 0-d, 1-D or 2-D array."""
    cfg = default_config(
        draw(st.sampled_from(list(Scheme))),
        detuning=draw(st.floats(-0.3, 0.3)) * RABI,
        rabi_error=draw(st.floats(-0.3, 0.3)) * RABI,
        mod_phase=draw(st.floats(-math.pi, math.pi)),
        mw_phase=draw(st.floats(-math.pi, math.pi)),
    )
    ndim = draw(st.integers(0, 2))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=ndim, max_size=ndim)))
    flat = draw(st.lists(lab_times, min_size=math.prod(shape), max_size=math.prod(shape)))
    return cfg, np.array(flat, dtype=float).reshape(shape)


@PROPERTY
@given(lab_cases())
def test_lab_coefficients_match_their_oracle(case):
    cfg, t = case
    assert bits(lab_hamiltonian(cfg).coefficients(t)) == bits(lab_coefficients(cfg)(t))


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(lab_cases(), st.integers(1, 40), st.floats(1e-13, 1e-11))
def test_step_unitaries_match_the_oracle_kernel(case, count, h):
    cfg, t = case
    t0 = float(np.asarray(t).reshape(-1)[0])
    k = np.arange(count)
    coefficients = batch_coefficients([lab_hamiltonian(cfg)])
    ca = coefficients(t0 + (k + propagator._CF4_NODE_A) * h)
    cb = coefficients(t0 + (k + propagator._CF4_NODE_B) * h)
    early = su2_exp_oracle(propagator._CF4_W2 * ca + propagator._CF4_W1 * cb, h)
    late = su2_exp_oracle(propagator._CF4_W1 * ca + propagator._CF4_W2 * cb, h)
    want = product(late, early)
    got = propagator._step_unitaries(coefficients, t0, h, k)
    assert same_pair(got, want)
    # written over the arrays of an earlier call, as a pool thread reuses them
    assert same_pair(propagator._step_unitaries(coefficients, t0, h, k, got), want)

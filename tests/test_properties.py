"""Property tests of the propagation core against the stepped cf4 oracle.

Each example draws a scheme, a rotating frame, a small batch of (detuning,
Rabi error) pairs within +-0.3 Omega_0 and an ascending time grid that lies
on the modulation-period lattice, off it, or both. ``evolve_grid``, and
``evolve`` and ``propagator_unitary`` at each time, must then agree with a
stepped oracle: the same Hamiltonian with ``period=math.inf`` (so no fast path
applies), stepped over each interval between consecutive times, with the
interval unitaries multiplied here rather than in the propagator.

The propagator stores each SU(2) value as its Cayley-Klein pair (a, b) of
u = [[a, -b*], [b, a*]]. ``evolve`` and ``evolve_grid`` map psi0 straight from
the core's pairs and must agree with ``propagator_grid``'s matrices applied
to it, bit for bit for |0> and |1>, and the core's one unitarity check must name the entry point
it fails in. Further properties pin the pair products, the tree
product and ``su2_power`` to plain 2x2 matrix products, and the lab-frame
stepper to itself under a much smaller chunk bound. The rotating frames'
coefficients, evaluated a batch at a time, must equal the per-member closures
of ``tests/oracles.py`` bit for bit, and the second frame must be the rotated
first frame. In both frames a microwave phase phi must turn the propagator
about z by phi, on the lattice and stepped paths alike. Permuting a
``propagator_grid`` batch must permute its output bit for bit. A batch of pulse
programs, composed one piece position at a time over all programs, must keep
the bits of a 2x2 ``@`` per piece per program. The array state
readout (``qubit.normalized``, ``bloch_vector``, ``population_up``) must
give the one-state readout of ``tests/oracles.py`` on any batch of rows near
unit norm, and refuse a batch with a row too far off. The last properties
check that any valid ``RunConfig`` survives ``emit_config`` and
``parse_config``, and that a dataset's bytes depend only on its contents:
emitted twice, or after that round trip of its config, they are the same.
"""
import math
import string
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccdsim import propagator
from ccdsim.config import KEY_TYPES, RunConfig, emit_config, parse_config
from ccdsim.dataset import FORMATS, Dataset, emit_dataset
from ccdsim.drive import (
    Scheme,
    batch_coefficients,
    default_config,
    first_frame_hamiltonian,
    lab_hamiltonian,
    second_frame_hamiltonian,
)
from ccdsim.errors import NumericalError
from ccdsim.experiments import DRESSED_KINDS, MAX_NOISE_SAMPLES, AxisDef
from ccdsim.propagator import (
    LAB_SPEC,
    evolve,
    evolve_grid,
    propagator_grid,
    propagator_unitary,
    su2_exp,
    su2_power,
)
from ccdsim.qubit import (
    NORM_TOLERANCE,
    ZERO_STATE,
    bloch_vector,
    normalized,
    pauli_axis,
    population_up,
)
from ccdsim.pulses import GATE_MOD_PHASE, IDLE_MOD_PHASE, simulate_program
from oracles import (
    first_frame_coefficients,
    one_state,
    plus_state,
    program_loop,
    scalar_bloch_vector,
    scalar_normalized,
    scalar_population_up,
    second_frame_coefficients,
    second_frame_unitary,
)
from oracles import matrix as frame_matrix

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
    psi0 = plus_state()
    oracles = np.array([stepped_oracle(h, 0.0, times) for h in hams])
    expected = oracles @ psi0  # (batch, times, 2)

    grid = evolve_grid(hams, times, psi0)
    assert np.abs(grid - expected).max() <= TOLERANCE

    for ham, oracle, want in zip(hams, oracles, expected):
        final = evolve(ham, psi0, 0.0, float(times[-1]))
        assert np.abs(final - want[-1]).max() <= TOLERANCE
        u = propagator_unitary(ham, 0.0, float(times[-1]))
        assert np.abs(u - oracle[-1]).max() <= TOLERANCE


@PROPERTY
@given(cases())
def test_nonzero_start_matches_stepped_oracle(case):
    hams, times = case
    psi0 = ZERO_STATE
    for ham in hams:
        t0 = float(times[0])
        oracle = stepped_oracle(ham, t0, times)
        got = np.array([propagator_unitary(ham, t0, float(t)) for t in times])
        assert np.abs(got - oracle).max() <= TOLERANCE
        final = evolve(ham, psi0, t0, float(times[-1]))
        assert np.abs(final - oracle[-1] @ psi0).max() <= TOLERANCE


@st.composite
def states(draw):
    """A random normalized state."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    amps = np.array([complex(*parts[:2]), complex(*parts[2:])])
    norm = np.linalg.norm(amps)
    return normalized(amps / norm) if norm > 0.1 else plus_state()


@PROPERTY
@given(cases(), states())
def test_state_entry_points_apply_the_matrix_entry_point(case, psi0):
    # evolve and evolve_grid map psi0 from the core's pairs without building
    # the 2x2 form; they must give what propagator_grid's matrices give
    hams, times = case
    unitaries = propagator_grid(hams, times)
    for psi, exact in ((psi0, False), (ZERO_STATE, True), (one_state(), True)):
        want = unitaries @ psi
        grid = evolve_grid(hams, times, psi)
        if exact:
            assert grid.tobytes() == want.tobytes()
        assert np.abs(grid - want).max() <= 1e-15
        # evolve renormalizes its final state: so is the matrix form's
        for h in hams:
            got = evolve(h, psi, 0.0, float(times[-1]))
            u = propagator_grid([h], times[-1:])[0, 0]
            want_state = normalized(u @ psi)
            if exact:
                assert got.tobytes() == want_state.tobytes()
            assert np.abs(got - want_state).max() <= 1e-15


@st.composite
def near_unit_batches(draw):
    """(n, 2) amplitudes, each row of unit norm times 1 + d, |d| <= 1e-9.

    Components are drawn as floats in [-1, 1], so zeros of either sign occur;
    a row of norm below 0.1 becomes |0>.
    """
    n = draw(st.integers(1, 12))
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * n, max_size=4 * n)))
    amps = (parts[0::2] + 1j * parts[1::2]).reshape(n, 2)
    norms = np.linalg.norm(amps, axis=-1)
    amps[norms < 0.1] = (1.0, 0.0)
    amps /= np.where(norms < 0.1, 1.0, norms)[:, None]
    drift = draw(st.lists(st.floats(-1e-9, 1e-9), min_size=n, max_size=n))
    return amps * (1.0 + np.array(drift))[:, None]


def bits(x) -> bytes:
    return np.asarray(x, dtype=complex if np.iscomplexobj(x) else float).tobytes()


READOUT = settings(derandomize=True, max_examples=200, deadline=None, database=None)


@READOUT
@given(near_unit_batches())
def test_array_readout_matches_the_one_state_readout(amps):
    got = normalized(amps)
    assert bits(got) == bits([normalized(row) for row in amps])
    assert bits(got) == bits([scalar_normalized(row) for row in amps])
    xyz, p_up = bloch_vector(got), population_up(got)
    want = np.array([scalar_bloch_vector(row) for row in got])
    want_p = np.array([scalar_population_up(row) for row in got])
    assert bits(xyz[:, :2]) == bits(want[:, :2])
    # z is a difference of two squares of at most 1, each within 1 ulp
    assert np.all(np.abs(xyz[:, 2] - want[:, 2]) <= np.spacing(1.0))
    assert np.all(np.abs(p_up - want_p) <= np.spacing(want_p))


@READOUT
@given(
    near_unit_batches(),
    st.integers(0, 11),
    st.one_of(st.floats(-0.9, -2 * NORM_TOLERANCE), st.floats(2 * NORM_TOLERANCE, 10.0),
              st.just(math.nan)),
)
def test_array_readout_refuses_the_worst_row(amps, row, off):
    row %= len(amps)
    bad = amps.copy()
    if math.isnan(off):
        bad[row, 1] = math.nan
    else:
        bad[row] *= 1.0 + off
    where = f"state {row} of {len(amps)}: " if len(amps) > 1 else "state "
    with pytest.raises(NumericalError, match=f"^{where}norm "):
        normalized(bad)


ENTRY_POINTS = {
    "evolve": lambda h, ts: evolve(h, ZERO_STATE, 0.0, float(ts[-1])),
    "evolve_grid": lambda h, ts: evolve_grid([h], ts, ZERO_STATE),
    "propagator_unitary": lambda h, ts: propagator_unitary(h, 0.0, float(ts[-1])),
    "propagator_grid": lambda h, ts: propagator_grid([h], ts),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_core_pair_check_names_the_entry_point(monkeypatch, name):
    # the core checks | |a|^2 + |b|^2 - 1 | <= 1e-10 on the pairs of every path
    ham = second_frame_hamiltonian(default_config(Scheme.CMCCD, detuning=0.1 * RABI))
    times = np.arange(1, 4) * PERIOD
    inner = propagator._lattice_unitaries

    def run(scale):
        scaled = lambda *args: tuple(x * scale for x in inner(*args))
        monkeypatch.setattr(propagator, "_lattice_unitaries", scaled)
        return ENTRY_POINTS[name](ham, times)

    run(1.0 + 1e-12)  # a defect of about 2e-12 passes
    with pytest.raises(NumericalError, match=rf"defect 2\.0\d*e-09 in {name}\b"):
        run(1.0 + 1e-9)


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


@st.composite
def frame_batches(draw):
    """A frame and drives of it in several (Omega_0, theta_m) groups, with 0-d or 1-d times."""
    frame = draw(st.sampled_from(["first", "second"]))
    groups = draw(
        st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(-math.pi, math.pi)), min_size=1, max_size=3)
    )
    drives = []
    for _ in range(draw(st.integers(1, 6))):
        scale, mod_phase = draw(st.sampled_from(groups))
        drives.append(
            default_config(
                draw(st.sampled_from(list(Scheme))),
                RABI * scale,
                detuning=draw(errors) * RABI,
                rabi_error=draw(errors) * RABI,
                mod_ratio=draw(st.floats(0.0, 0.5)),
                mod_phase=mod_phase,
                mw_phase=draw(st.floats(-math.pi, math.pi)),
            )
        )
    times = st.floats(0.0, SPAN * PERIOD)
    t = draw(st.one_of(times.map(np.asarray), st.lists(times, max_size=9).map(np.asarray)))
    return frame, drives, t


@PROPERTY
@given(frame_batches())
def test_batched_frame_coefficients_match_per_member_closures(case):
    frame, drives, t = case
    build, oracle = {
        "first": (first_frame_hamiltonian, first_frame_coefficients),
        "second": (second_frame_hamiltonian, second_frame_coefficients),
    }[frame]
    expected = np.stack([oracle(cfg)(t) for cfg in drives])
    hams = [build(cfg) for cfg in drives]
    assert batch_coefficients(hams)(t).tobytes() == expected.tobytes()
    for ham, want in zip(hams, expected):
        assert ham.coefficients(t).tobytes() == want.tobytes()


def test_signed_zero_phases_are_evaluated_apart():
    # at t = -0.0, theta_m = 0.0 and -0.0 give hx of opposite signs: the
    # batch must not share the trig of the two
    cfgs = [
        default_config(Scheme.BARE, rabi_error=-RABI, mw_phase=math.pi, mod_phase=phase)
        for phase in (0.0, -0.0)
    ]
    t = np.asarray(-0.0)
    expected = np.stack([first_frame_coefficients(cfg)(t) for cfg in cfgs])
    assert expected[0].tobytes() != expected[1].tobytes()
    got = batch_coefficients([first_frame_hamiltonian(cfg) for cfg in cfgs])(t)
    assert got.tobytes() == expected.tobytes()


@PROPERTY
@given(frame_batches())
def test_second_frame_is_the_rotated_first_frame(case):
    # H_2 = R^dagger (H_1 - (Omega_0 / 2) sigma_phi) R with R = second_frame_unitary
    _, drives, times = case
    for cfg in drives:
        second = second_frame_hamiltonian(cfg)
        first = first_frame_hamiltonian(cfg)
        for t in np.atleast_1d(times):
            r = second_frame_unitary(cfg, float(t))
            h1 = frame_matrix(first, t) - cfg.rabi / 2.0 * pauli_axis(cfg.mw_phase)
            expected = r.conj().T @ h1 @ r
            scale = np.abs(frame_matrix(first, t)).max()
            assert np.abs(frame_matrix(second, t) - expected).max() <= 1e-9 * scale


@PROPERTY
@given(
    st.sampled_from(list(Scheme)),
    st.sampled_from([first_frame_hamiltonian, second_frame_hamiltonian]),
    errors,
    errors,
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
    st.sampled_from([0.0, math.pi / 2]),
)
def test_microwave_phase_turns_the_propagator_about_z(
    scheme, build, detuning, rabi_error, phi_0, phi, mod_phase
):
    # H(phi_0 + phi) = R_z(phi) H(phi_0) R_z(phi)^dagger in both rotating
    # frames, so U turns alike: the rb primitives rest on it
    hams = [
        build(default_config(scheme, detuning=detuning * RABI, rabi_error=rabi_error * RABI,
                             mod_phase=mod_phase, mw_phase=mw_phase))
        for mw_phase in (phi_0, phi_0 + phi)
    ]
    r_z = np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])
    lattice, stepped = np.array([1.0, 3.0]) * PERIOD, np.array([0.37, 1.6]) * PERIOD
    for batch, times in ((hams, lattice), ([replace(h, period=math.inf) for h in hams], stepped)):
        base, turned = propagator.propagator_grid(batch, times)
        assert np.abs(turned - r_z @ base @ r_z.conj().T).max() <= 1e-13


@st.composite
def permuted_batches(draw):
    """A frame's batch of drives (schemes, Omega_0, theta_m and phi_mw mixed),
    times on the period lattice, off it or both, and a permutation of the batch."""
    build = draw(st.sampled_from([first_frame_hamiltonian, second_frame_hamiltonian]))
    hams = [
        build(
            default_config(
                draw(st.sampled_from(list(Scheme))),
                RABI * draw(st.sampled_from([1.0, 0.5])),
                detuning=draw(errors) * RABI,
                rabi_error=draw(errors) * RABI,
                mod_phase=draw(st.sampled_from([GATE_MOD_PHASE, IDLE_MOD_PHASE])),
                mw_phase=draw(st.floats(-math.pi, math.pi)),
            )
        )
        for _ in range(draw(st.integers(1, 5)))
    ]
    return hams, draw(time_grids()), draw(st.permutations(range(len(hams))))


@PROPERTY
@given(permuted_batches())
def test_batch_order_keeps_each_members_bits(case):
    # a member's propagators do not depend on where it sits in the batch, so
    # callers may order a batch as they like (``simulate_program`` sorts its pieces)
    hams, times, order = case
    base = propagator_grid(hams, times)
    permuted = propagator_grid([hams[i] for i in order], times)
    assert permuted.tobytes() == base[order].tobytes()


#: a start state with negative zeros, which a program of no pieces must keep
SIGNED_ZEROS = np.array([complex(1.0, -0.0), complex(-0.0, -0.0)])


@st.composite
def program_batches(draw):
    """Per-program drives, a (programs, pieces, 3) batch of programs of mixed
    lengths on the period lattice (zero-duration rows anywhere, zero rows at
    the end) and a start state."""
    scheme = draw(st.sampled_from([Scheme.AMCCD, Scheme.PMCCD, Scheme.CMCCD]))
    pairs = draw(st.lists(st.tuples(errors, errors), min_size=1, max_size=3))
    drives = [default_config(scheme, detuning=d * RABI, rabi_error=e * RABI) for d, e in pairs]
    count, width = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    programs = np.zeros((count, width, 3))
    for program in programs:
        for row in program[: draw(st.integers(0, width))]:
            row[:] = (
                draw(st.sampled_from([GATE_MOD_PHASE, IDLE_MOD_PHASE])),
                draw(st.sampled_from([0.0, -0.0]) | st.floats(-7.0, 7.0)),
                draw(st.integers(0, 3)) * PERIOD,
            )
    owners = [drives[draw(st.integers(0, len(drives) - 1))] for _ in range(count)]
    psi0 = draw(st.sampled_from([ZERO_STATE, one_state(), plus_state(), SIGNED_ZEROS]))
    return owners, programs, psi0


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(program_batches())
def test_program_composition_keeps_the_bits_of_the_per_program_loop(batch):
    # one piece position at a time over all programs, with the pair arithmetic
    # of the state map, must give the bits (signs of zeros included) of a 2x2
    # @ per piece per program
    drives, programs, psi0 = batch
    out = simulate_program(drives, programs, psi0)
    assert out.tobytes() == normalized(program_loop(drives, programs, psi0)).tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
#: values drawn for each key type; integers reach past 2^53, where floats
#: stop naming every integer
BY_TYPE = {
    float: finite,
    int: st.integers(-(2**64), 2**64),
    str: st.text(string.ascii_letters + string.digits + "/._-", max_size=12),
    Scheme: st.sampled_from(list(Scheme)),
    tuple: st.lists(st.integers(1, 2**64), unique=True, min_size=1, max_size=6).map(
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
    "gate_angle": positive,
    "threads": st.integers(0, 2**64),
    "seed": st.integers(0, 2**64 - 1),
    "format": st.sampled_from(FORMATS),
    "dressed_kind": st.sampled_from(DRESSED_KINDS),
    "noise_samples": st.integers(1, MAX_NOISE_SAMPLES),
    **{
        key: st.integers(1, 2**64)
        for key in ("duration_points", "detuning_points", "rabi_error_points", "quarter_turns",
                    "samples_per_quarter_turn", "sweep_points", "k_randomizations")
    },
}


@st.composite
def run_configs(draw):
    return RunConfig(**{
        f.name: draw(RESTRICTED.get(f.name, BY_TYPE[KEY_TYPES[f.name]]))
        for f in fields(RunConfig)
    })


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(run_configs())
def test_config_text_round_trip(cfg):
    assert parse_config(emit_config(cfg)) == cfg
    dataset_text = emit_config(cfg, include_runtime=False)
    assert parse_config(dataset_text) == replace(cfg, threads=0, out="")


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(
    run_configs(),
    st.lists(st.one_of(finite, st.sampled_from([math.nan, math.inf, -0.0])), min_size=1, max_size=8),
    st.sampled_from(["csv", "json"]),
)
def test_dataset_bytes_are_deterministic(cfg, values, fmt):
    def emitted(run):
        # as the CLI writes a dataset: meta and config text from the run's config
        return emit_dataset(
            Dataset(
                meta={"scheme": run.scheme.label, "seed": run.seed},
                axes=(AxisDef("duration", "s", np.arange(len(values)) * 1.5e-9),),
                value_names=("p_up",),
                values=np.array(values)[:, None],
                config_text=emit_config(run, include_runtime=False),
            ),
            fmt,
        )

    first = emitted(cfg)
    assert emitted(cfg) == first
    assert emitted(parse_config(emit_config(cfg))) == first

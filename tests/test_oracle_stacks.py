"""Property tests: each oracle, each collapse route, the Pauli correction and
the fidelity take one point or a stack under one name.

On small random grids, and over arrays of input states, every cell of a
stack call has the bits of its point call, and the stacked Kronecker
product has the bits of np.kron pair by pair. Examples are derandomized,
so every run draws the same ones.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qdot import linalg, model, oracles, teleport, verify

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=30)
SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _grids(draw, k0, r, T):
    """Arrays of one small random shape with elements from the given ranges."""
    shape = draw(SHAPES)
    return tuple(draw(hnp.arrays(float, shape, elements=_floats(*bounds))) for bounds in (k0, r, T))


def _cells(*fields):
    """(index, Python floats at that index) for every cell of equal-shaped arrays."""
    for idx in np.ndindex(fields[0].shape):
        yield idx, tuple(float(f[idx]) for f in fields)


@PROPERTY
@given(_grids((-20.0, 20.0), (-10.0, 10.0), (0.01, 10.0)))
def test_thermal_routes_stack_like_their_point_calls(grid):
    p = model.DotParams(*grid)
    hamiltonians = oracles.hamiltonian_matrix(p)
    closed = model.thermal_state(p)
    oracle = oracles.thermal_state_oracle(p)
    concurrence = oracles.wootters_concurrence(closed)
    for idx, point in _cells(*grid):
        q = model.DotParams(*point)
        assert hamiltonians[idx].tobytes() == oracles.hamiltonian_matrix(q).tobytes()
        assert closed[idx].tobytes() == model.thermal_state(q).tobytes()
        assert oracle[idx].tobytes() == oracles.thermal_state_oracle(q).tobytes()
        want = oracles.wootters_concurrence(model.thermal_state(q))
        assert concurrence.value[idx] == want.value
        assert concurrence.lambdas[idx].tobytes() == want.lambdas.tobytes()


@PROPERTY
@given(
    _grids((-8.0, 8.0), (-2.0, 2.0), (0.25, 10.0)),
    st.lists(st.tuples(_floats(0.0, math.pi), _floats(0.0, 2.0 * math.pi)), min_size=1, max_size=3),
)
def test_collapse_stacks_like_its_point_calls(grid, angles):
    # fields this mild keep every branch probability far above the floor;
    # the poles at phi = 0 put signed zeros into the sines and the phase
    angles = [*angles, (0.0, 0.0), (math.pi, 0.0)]
    states = teleport.InputState(*(np.array(axis) for axis in zip(*angles)))
    p = model.DotParams(*(field[..., None] for field in grid))  # every cell meets every state
    e = model.thermal_elements(p)
    vectors, inputs = oracles.input_vector(states), oracles.input_density(states)
    joint = oracles.joint_state(states, p)
    assert joint.tobytes() == linalg.kron(inputs, model.thermal_state(p)[..., None, :, :]).tobytes()
    rho_o, rho_e = teleport.output_states(states, p)
    for j, angle in enumerate(angles):
        s = teleport.InputState(*angle)
        assert vectors[j].tobytes() == oracles.input_vector(s).tobytes()
        assert inputs[j].tobytes() == oracles.input_density(s).tobytes()
    for outcome in teleport.BellOutcome:
        brute_state, brute_prob = oracles.collapse_bruteforce(joint, outcome)
        closed_state, closed_prob = teleport.collapsed_closed_form(states, e, outcome)
        for idx, point in _cells(*grid):
            q = model.DotParams(*point)
            e_q = model.thermal_elements(q)
            for j, angle in enumerate(angles):
                s, cell = teleport.InputState(*angle), (*idx, j)
                point_joint = oracles.joint_state(s, q)
                assert joint[cell].tobytes() == point_joint.tobytes()
                state, prob = oracles.collapse_bruteforce(point_joint, outcome)
                assert brute_state[cell].tobytes() == state.tobytes()
                assert brute_prob[cell] == prob
                state, prob = teleport.collapsed_closed_form(s, e_q, outcome)
                assert closed_state[cell].tobytes() == state.tobytes()
                assert closed_prob[cell].tobytes() == np.float64(prob).tobytes()
                if outcome is teleport.BellOutcome.PSI_MINUS:
                    point_o, point_e = teleport.output_states(s, q)
                    assert rho_o[cell].tobytes() == point_o.tobytes()
                    assert rho_e[cell].tobytes() == point_e.tobytes()


@PROPERTY
@given(_grids((0.5, 10.0), (-5.0, 5.0), (0.01, 0.1)), _floats(3.0, 5.0))
def test_bisection_stacks_like_its_point_calls(grid, hi):
    # lo < Tc = k0/(4 ln 3) < hi for every k0 drawn, whatever the field
    k0, r, lo = grid
    roots = verify.bisect_critical_temperature(k0, r, lo, hi)
    assert roots.shape == k0.shape
    for idx, (k, f, low) in _cells(k0, r, lo):
        assert roots[idx] == verify.bisect_critical_temperature(k, f, low, hi)


@PROPERTY
@given(st.data())
def test_kron_equals_np_kron_pair_by_pair(data):
    lead = data.draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
    m, n, p, q = (data.draw(st.integers(1, 4)) for _ in range(4))
    entries = st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False)
    b_lead = data.draw(hnp.broadcastable_shapes(lead))
    a = data.draw(hnp.arrays(complex, (*lead, m, n), elements=entries))
    b = data.draw(hnp.arrays(complex, (*b_lead, p, q), elements=entries))
    got = linalg.kron(a, b)
    lead = np.broadcast_shapes(lead, b_lead)
    assert got.shape == (*lead, m * p, n * q)
    a_cells, b_cells = np.broadcast_to(a, (*lead, m, n)), np.broadcast_to(b, (*lead, p, q))
    for idx in np.ndindex(lead):
        want = np.kron(a_cells[idx], b_cells[idx])
        assert got[idx].tobytes() == want.tobytes()
        assert linalg.kron(a_cells[idx], b_cells[idx]).tobytes() == want.tobytes()


ANGLES = st.lists(st.tuples(_floats(0.0, math.pi), _floats(0.0, 2.0 * math.pi)),
                  min_size=1, max_size=3)


def _states(angles):
    """The input states of a list of (theta, phi) as one stack, and one by one."""
    stack = teleport.InputState(*(np.array(axis) for axis in zip(*angles)))
    return stack, [teleport.InputState(*angle) for angle in angles]


@PROPERTY
@given(ANGLES, st.integers(1, 3), st.data())
def test_fidelity_stacks_like_its_point_calls(angles, count, data):
    # any finite 2x2 outputs: fidelity reads them as they are
    entries = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    outputs = data.draw(hnp.arrays(complex, (count, 2, 2), elements=entries))
    stack, states = _states(angles)
    every = oracles.fidelity(stack, outputs[:, None])  # every output meets every state
    assert every.shape == (count, len(states))
    for i, rho in enumerate(outputs):
        per_state = oracles.fidelity(stack, rho)  # a stack of states, one output
        assert per_state.shape == (len(states),)
        for j, s in enumerate(states):
            point = oracles.fidelity(s, rho)
            assert type(point) is float
            assert every[i, j].tobytes() == np.float64(point).tobytes()
            assert per_state[j].tobytes() == np.float64(point).tobytes()
    for j, s in enumerate(states):
        per_output = oracles.fidelity(s, outputs)  # a point state, a stack of outputs
        for i, rho in enumerate(outputs):
            assert per_output[i].tobytes() == np.float64(oracles.fidelity(s, rho)).tobytes()


def test_fidelity_refuses_shapes_that_do_not_broadcast():
    states = teleport.InputState(np.array([0.5, 1.0]))
    outputs = np.stack([np.eye(2) / 2.0] * 3)
    with pytest.raises(linalg.LinalgError, match=r"states of shape \(2,\) and outputs of shape "
                       r"\(3, 2, 2\) do not broadcast"):
        oracles.fidelity(states, outputs)


@pytest.mark.parametrize("stacked", ["states", "params", "both"])
@PROPERTY
@given(_grids((-8.0, 8.0), (-2.0, 2.0), (0.25, 10.0)), ANGLES)
def test_corrections_and_fidelities_stack_like_their_point_calls(stacked, grid, angles):
    # each branch, Pauli-corrected by the matrix route, and its fidelity: a
    # stack of states on one channel, one state on a parameter grid, or both
    stack, states = _states(angles)

    def corrected(s, p):
        """(outcome, probability, corrected state, fidelity) of each branch."""
        e = model.thermal_elements(p)
        rows = []
        for outcome in teleport.BellOutcome:
            state, prob = teleport.collapsed_closed_form(s, e, outcome)
            state = oracles.pauli_correction(outcome, state)
            rows.append((outcome, prob, state, oracles.fidelity(s, state)))
        return rows

    if stacked == "both":  # every cell meets every state
        whole = corrected(stack, model.DotParams(*(field[..., None] for field in grid)))
    elif stacked == "params":
        per_state = [corrected(s, model.DotParams(*grid)) for s in states]
    for idx, point in _cells(*grid):
        q = model.DotParams(*point)
        if stacked == "states":
            per_cell = corrected(stack, q)
        for j, s in enumerate(states):
            if stacked == "both":
                rows, cell = whole, (*idx, j)
            elif stacked == "params":
                rows, cell = per_state[j], idx
            else:
                rows, cell = per_cell, (j,)
            for got, want in zip(rows, corrected(s, q)):
                assert got[0] is want[0]
                assert got[1][cell].tobytes() == np.float64(want[1]).tobytes()
                assert got[2][cell].tobytes() == want[2].tobytes()
                assert type(want[3]) is float
                assert got[3][cell].tobytes() == np.float64(want[3]).tobytes()


@PROPERTY
@given(st.data(), st.integers(2, 96))
def test_quadrature_stacks_like_its_point_calls(data, nodes):
    # k0 and T on one axis, r on another: w and y vary with k0 and T only,
    # so the elements come in two shapes
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    k0, T = (data.draw(hnp.arrays(float, n, elements=_floats(*b))) for b in ((-20, 20), (0.01, 10)))
    r = data.draw(hnp.arrays(float, m, elements=_floats(-10.0, 10.0)))
    grid = oracles.average_fidelity(model.DotParams(k0[:, None], r, T[:, None]), nodes)
    assert grid.shape == (n, m)
    for i, j in np.ndindex(n, m):
        point = oracles.average_fidelity(model.DotParams(k0[i], r[j], T[i]), nodes)
        assert type(point) is float
        assert grid[i, j].tobytes() == np.float64(point).tobytes()

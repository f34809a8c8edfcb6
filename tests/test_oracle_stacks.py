"""Property tests: each oracle and each collapse route takes one point or a
stack under one name.

On small random grids, and over arrays of input states, every cell of a
stack call has the bits of its point call, and the stacked Kronecker
product has the bits of np.kron pair by pair. Examples are derandomized,
so every run draws the same ones.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qdot import entanglement, linalg, model, teleport, verify

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
    hamiltonians = model.hamiltonian_matrix(p)
    closed = model.thermal_state(p)
    oracle = model.thermal_state_oracle(p)
    concurrence = entanglement.wootters_concurrence(closed)
    for idx, point in _cells(*grid):
        q = model.DotParams(*point)
        assert hamiltonians[idx].tobytes() == model.hamiltonian_matrix(q).tobytes()
        assert closed[idx].tobytes() == model.thermal_state(q).tobytes()
        assert oracle[idx].tobytes() == model.thermal_state_oracle(q).tobytes()
        want = entanglement.wootters_concurrence(model.thermal_state(q))
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
    vectors, inputs = teleport.input_vector(states), teleport.input_density(states)
    joint = teleport.joint_state(states, p)
    assert joint.tobytes() == linalg.kron(inputs, model.thermal_state(p)[..., None, :, :]).tobytes()
    rho_o, rho_e = teleport.output_states(states, p)
    for j, angle in enumerate(angles):
        s = teleport.InputState(*angle)
        assert vectors[j].tobytes() == teleport.input_vector(s).tobytes()
        assert inputs[j].tobytes() == teleport.input_density(s).tobytes()
    for outcome in teleport.BellOutcome:
        brute_state, brute_prob = teleport.collapse_bruteforce(joint, outcome)
        closed_state, closed_prob = teleport.collapsed_closed_form(states, e, outcome)
        for idx, point in _cells(*grid):
            q = model.DotParams(*point)
            e_q = model.thermal_elements(q)
            for j, angle in enumerate(angles):
                s, cell = teleport.InputState(*angle), (*idx, j)
                point_joint = teleport.joint_state(s, q)
                assert joint[cell].tobytes() == point_joint.tobytes()
                state, prob = teleport.collapse_bruteforce(point_joint, outcome)
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

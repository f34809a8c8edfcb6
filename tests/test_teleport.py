"""Tests for the Bell measurement, collapsed branches, and fidelities."""

import cmath
import math
import threading
import warnings

import numpy as np
import pytest

import qdot.teleport as teleport_mod
from qdot.linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, LinalgError, kron
from qdot.model import DomainError, DotParams, thermal_elements, thermal_state
from qdot.teleport import (
    _MC_CHUNK,
    _SERIES_CUTOFF,
    BellOutcome,
    InputState,
    MonteCarloFidelity,
    _lifted_projector,
    _mean_branch_fidelity,
    average_fidelity,
    average_fidelity_closed_form,
    average_fidelity_mc,
    bell_projectors,
    collapse_bruteforce,
    collapsed_closed_form,
    fidelity,
    input_density,
    input_vector,
    joint_state,
    output_states,
    pauli_correction,
    subspace_fidelities,
    teleport_outcomes,
)
from qdot.verify import _MC_POINTS

CHANNEL = DotParams(k0=4.0, r=0.2, T=0.2)
STATE = InputState(theta=math.pi / 3, phi=0.7)


def test_input_vector_poles_and_norm():
    north = input_vector(InputState(theta=0.0))
    np.testing.assert_allclose(north, [1.0, 0.0], atol=1e-15)
    south = input_vector(InputState(theta=math.pi, phi=0.3))
    assert abs(south[0]) < 1e-15
    assert abs(abs(south[1]) - 1.0) < 1e-15
    rng = np.random.default_rng(12)
    for _ in range(10):
        s = InputState(theta=rng.uniform(0, math.pi), phi=rng.uniform(0, 2 * math.pi))
        assert abs(np.linalg.norm(input_vector(s)) - 1.0) < 1e-14


@pytest.mark.parametrize(
    "theta,phi", [(0.0, 0.0), (-0.0, -0.0), (math.pi, 0.0), (-0.0, 1.3), (1.0, -0.0), (-2.0, 0.7)]
)
def test_input_vector_has_the_bits_of_its_cmath_form(theta, phi):
    # signed zeros included: the phase is not built as cos + 1j * sin
    want = [math.cos(theta / 2.0), cmath.exp(1j * phi) * math.sin(theta / 2.0)]
    assert input_vector(InputState(theta, phi)).tobytes() == np.array(want, complex).tobytes()


def test_input_density_is_pure():
    rho = input_density(STATE)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-16)
    assert abs(np.trace(rho).real - 1.0) < 1e-15
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-15)


def test_bell_projectors_form_a_complete_orthogonal_set():
    projs = bell_projectors()
    assert set(projs) == set(BellOutcome)
    total = sum(projs.values())
    np.testing.assert_allclose(total, np.eye(4), atol=1e-15)
    keys = list(projs)
    for i, a in enumerate(keys):
        np.testing.assert_allclose(projs[a] @ projs[a], projs[a], atol=1e-15)
        for b in keys[i + 1 :]:
            np.testing.assert_allclose(
                projs[a] @ projs[b], np.zeros((4, 4)), atol=1e-15
            )


def test_joint_state_marginals():
    joint = joint_state(STATE, CHANNEL)
    assert joint.shape == (8, 8)
    assert abs(np.trace(joint).real - 1.0) < 1e-14
    # the marginals as explicit index sums over input (2) x channel (4)
    blocks = joint.reshape(2, 4, 2, 4)
    np.testing.assert_allclose(
        np.einsum("iaja->ij", blocks), input_density(STATE), atol=1e-14
    )
    np.testing.assert_allclose(
        np.einsum("iaib->ab", blocks), thermal_state(CHANNEL), atol=1e-14
    )


def test_probabilities_sum_to_one():
    joint = joint_state(STATE, CHANNEL)
    probs = [collapse_bruteforce(joint, o)[1] for o in BellOutcome]
    assert abs(sum(probs) - 1.0) < 1e-14


def test_maximally_mixed_channel():
    # an uncoupled channel at any field-free point erases the input: every
    # branch is equally likely and returns the maximally mixed qubit
    joint = joint_state(STATE, DotParams(k0=0.0, r=0.0, T=1.0))
    for outcome in BellOutcome:
        state, prob = collapse_bruteforce(joint, outcome)
        assert abs(prob - 0.25) < 1e-14
        np.testing.assert_allclose(state, IDENTITY_2 / 2, atol=1e-14)


def test_degenerate_branch_is_rejected():
    # input |1> with a fully polarized channel never triggers the Psi outcomes
    up = np.zeros((4, 4), dtype=complex)
    up[0, 0] = 1.0  # |11><11| channel
    joint = kron(input_density(InputState(theta=0.0)), up)
    with pytest.raises(DomainError):
        collapse_bruteforce(joint, BellOutcome.PSI_MINUS)
    with pytest.raises(DomainError):
        collapse_bruteforce(joint, BellOutcome.PSI_PLUS)


def test_collapse_bruteforce_takes_only_an_8x8_density_matrix():
    with pytest.raises(LinalgError, match="8x8"):
        collapse_bruteforce(thermal_state(CHANNEL), BellOutcome.PSI_MINUS)  # 4x4
    with pytest.raises(LinalgError, match="trace deviates"):
        collapse_bruteforce(2.0 * np.eye(8), BellOutcome.PSI_MINUS)  # probability 4
    bad = joint_state(STATE, CHANNEL)
    bad[0, 1] += 1e-6
    with pytest.raises(LinalgError, match="not Hermitian"):
        collapse_bruteforce(bad, BellOutcome.PSI_MINUS)


@pytest.mark.parametrize("outcome", [[], ["PsiMinus"], "PsiMinus"], ids=repr)
def test_collapse_bruteforce_refuses_what_is_not_an_outcome(monkeypatch, outcome):
    # unchecked, each would end in numpy's stack or the projector table
    projected = []
    monkeypatch.setattr(teleport_mod, "_lifted_projector", projected.append)
    with pytest.raises(DomainError, match="nonempty sequence of them, got "):
        collapse_bruteforce(joint_state(STATE, CHANNEL), outcome)
    assert projected == []


def test_collapse_stack_checks_every_joint_state():
    from qdot.linalg import LinalgError

    good = joint_state(STATE, CHANNEL)
    stack = np.stack([good, good, np.diag([2.0, -1.0, 0, 0, 0, 0, 0, 0])])
    with pytest.raises(LinalgError, match="joint state has negative eigenvalue -1.000e"):
        collapse_bruteforce(stack, BellOutcome.PHI_PLUS)
    states, probs = collapse_bruteforce(stack[:2], BellOutcome.PHI_PLUS)
    want_state, want_prob = collapse_bruteforce(good, BellOutcome.PHI_PLUS)
    assert states.shape == (2, 2, 2) and probs.shape == (2,)
    assert states[1].tobytes() == want_state.tobytes() and probs[1] == want_prob


def test_collapse_of_an_outcome_sequence_checks_the_joint_state_once(monkeypatch):
    import qdot.linalg as linalg_mod

    p = DotParams(np.array([0.5, 4.0]), np.array([[0.0], [1.0]]), 0.2)
    joint = kron(input_density(STATE), thermal_state(p))
    calls = []
    real = linalg_mod.validate_density_matrix
    monkeypatch.setattr(linalg_mod, "validate_density_matrix",
                        lambda m, name: calls.append(name) or real(m, name))
    outcomes = (BellOutcome.PHI_PLUS, BellOutcome.PSI_MINUS, BellOutcome.PHI_PLUS)
    states, probs = collapse_bruteforce(joint, outcomes)
    assert calls == ["joint state"]
    assert states.shape == (3, 2, 2, 2, 2) and probs.shape == (3, 2, 2)
    for i, outcome in enumerate(outcomes):
        state, prob = collapse_bruteforce(joint, outcome)
        assert states[i].tobytes() == state.tobytes() and probs[i].tobytes() == prob.tobytes()
    states, probs = collapse_bruteforce(joint[0, 1], list(BellOutcome))
    assert states.shape == (4, 2, 2) and probs.shape == (4,) and abs(probs.sum() - 1.0) < 1e-14
    bad = joint.copy()
    bad[1, 0, 0, 1] += 1e-6
    with pytest.raises(linalg_mod.LinalgError, match="joint state is not Hermitian"):
        collapse_bruteforce(bad, tuple(BellOutcome))


def test_closed_form_matches_bruteforce():
    rng = np.random.default_rng(13)
    for _ in range(15):
        p = DotParams(
            k0=rng.uniform(0.2, 8.0), r=rng.uniform(0, 2.0), T=rng.uniform(0.1, 2.0)
        )
        s = InputState(theta=rng.uniform(0.1, math.pi - 0.1), phi=rng.uniform(0, 7.0))
        joint = joint_state(s, p)
        e = thermal_elements(p)
        for outcome in BellOutcome:
            want_state, want_prob = collapse_bruteforce(joint, outcome)
            got_state, got_prob = collapsed_closed_form(s, e, outcome)
            np.testing.assert_allclose(got_state, want_state, atol=1e-13)
            assert abs(got_prob - want_prob) < 1e-13


def test_collapse_of_many_states_has_the_bits_of_each_point_call():
    # libm's pow squares differently from x * x in about 0.1% of results, so
    # the state axis must take its squares as a point call does; the assert
    # on `differ` shows that these angles hold such squares
    rng = np.random.default_rng(3)
    theta, phi = rng.uniform(0.0, math.pi, 4000), rng.uniform(0.0, 2.0 * math.pi, 4000)
    differ = sum(math.cos(t) ** 2 != math.cos(t) * math.cos(t) for t in (theta / 2.0).tolist())
    assert differ > 0
    e = thermal_elements(CHANNEL)
    for outcome in BellOutcome:
        states, probs = collapsed_closed_form(InputState(theta, phi), e, outcome)
        for j, (t, f) in enumerate(zip(theta.tolist(), phi.tolist())):
            state, prob = collapsed_closed_form(InputState(t, f), e, outcome)
            assert states[j].tobytes() == state.tobytes() and probs[j] == prob


def test_correction_identities_are_bitwise():
    # the Pauli corrections map every branch onto one of the two subspace
    # outputs without any floating-point drift: the correction matrices have
    # exact 0 / 1 / i entries, so the matmul just permutes and conjugates
    e = thermal_elements(CHANNEL)
    rho_o, rho_e = output_states(STATE, CHANNEL)
    psi_minus, _ = collapsed_closed_form(STATE, e, BellOutcome.PSI_MINUS)
    psi_plus, _ = collapsed_closed_form(STATE, e, BellOutcome.PSI_PLUS)
    phi_minus, _ = collapsed_closed_form(STATE, e, BellOutcome.PHI_MINUS)
    phi_plus, _ = collapsed_closed_form(STATE, e, BellOutcome.PHI_PLUS)

    assert np.array_equal(psi_minus, rho_o)
    assert np.array_equal(PAULI_Z @ psi_plus @ PAULI_Z, psi_minus)
    assert np.array_equal(PAULI_X @ phi_minus @ PAULI_X.conj().T, rho_e)
    assert np.array_equal(PAULI_Y @ phi_plus @ PAULI_Y.conj().T, rho_e)


def test_pauli_correction_dispatch():
    e = thermal_elements(CHANNEL)
    for outcome in BellOutcome:
        state, _ = collapsed_closed_form(STATE, e, outcome)
        corrected = pauli_correction(outcome, state)
        assert abs(np.trace(corrected).real - 1.0) < 1e-14
    ident = pauli_correction(BellOutcome.PSI_MINUS, np.eye(2, dtype=complex))
    np.testing.assert_array_equal(ident, np.eye(2))


def test_output_states_coincide_without_field():
    p = DotParams(k0=4.0, r=0.0, T=0.2)
    rho_o, rho_e = output_states(STATE, p)
    np.testing.assert_allclose(rho_o, rho_e, atol=1e-12)


def test_cold_channel_teleports_faithfully():
    p = DotParams(k0=2.0, r=0.2, T=1e-3)
    rho_o, rho_e = output_states(STATE, p)
    np.testing.assert_allclose(rho_o, input_density(STATE), atol=2e-3)
    np.testing.assert_allclose(rho_e, input_density(STATE), atol=2e-3)
    f_o, f_e = subspace_fidelities(STATE, p)
    assert abs(f_o - 1.0) < 1e-3
    assert abs(f_e - 1.0) < 1e-3


def test_frozen_subspace_fidelities():
    # regression pins, originally computed through the brute-force collapse
    s = InputState(theta=math.pi / 3)
    f_o, f_e = subspace_fidelities(s, CHANNEL)
    assert abs(f_o - 0.9900633844225393) < 1e-14
    assert abs(f_e - 0.9749206833514602) < 1e-14
    assert f_o > f_e


@pytest.mark.parametrize("k0,r,T", [(16.0, 0.0, 1e-4), (40.0, 0.0, 0.01), (1e308, 0.0, 1e10)])
def test_singlet_channel_fidelities_are_capped_at_one(k0, r, T):
    # N/z rounds to 1 + 2.2e-16 in these singlet channels
    s = InputState(theta=math.pi / 3)
    assert subspace_fidelities(s, DotParams(k0=k0, r=r, T=T)) == (1.0, 1.0)
    grid = DotParams(k0=np.array([k0, 4.0]), r=np.array([r, 1.0]), T=np.array([T, 0.5]))
    f_o, f_e = subspace_fidelities(s, grid)
    assert f_o.tolist() == [1.0, subspace_fidelities(s, DotParams(4.0, 1.0, 0.5))[0]]
    assert f_e.tolist() == [1.0, subspace_fidelities(s, DotParams(4.0, 1.0, 0.5))[1]]


@pytest.mark.parametrize("shape", [(4, 3), (12, 1), (3,)])
def test_subspace_fidelities_over_repeated_angles_keep_each_cells_bits(shape):
    # libm's cos and sin are taken once per distinct half-angle: repeats,
    # signed zeros and a theta column that broadcasts against the channel
    theta = np.array([0.0, -0.0, 1.0, 1.0, math.pi, -2.5, 1.0, 0.0, 3.0, -0.0, 2.0, 1.0])
    theta = theta[:math.prod(shape)].reshape(shape)
    T = np.linspace(0.0, 2.0, 3)
    p = DotParams(4.0, 1.0, T)
    f_o, f_e = subspace_fidelities(InputState(theta, 0.4), p)
    want = np.broadcast_shapes(shape, T.shape)
    assert f_o.shape == f_e.shape == want
    for index in np.ndindex(want):
        point = subspace_fidelities(InputState(float(np.broadcast_to(theta, want)[index]), 0.4),
                                    DotParams(4.0, 1.0, float(np.broadcast_to(T, want)[index])))
        assert [x.hex() for x in point] == [float(f_o[index]).hex(), float(f_e[index]).hex()]


def test_fidelities_ignore_the_azimuthal_phase():
    base_o, base_e = subspace_fidelities(InputState(theta=1.1, phi=0.0), CHANNEL)
    for phi in (0.3, math.pi / 2, 2.0, 5.9):
        f_o, f_e = subspace_fidelities(InputState(theta=1.1, phi=phi), CHANNEL)
        assert abs(f_o - base_o) < 1e-12
        assert abs(f_e - base_e) < 1e-12


def test_mirror_polar_angle_swaps_subspaces():
    for theta in (0.3, 1.0, math.pi / 2, 2.5):
        f_o, f_e = subspace_fidelities(InputState(theta=theta), CHANNEL)
        g_o, g_e = subspace_fidelities(InputState(theta=math.pi - theta), CHANNEL)
        assert abs(f_o - g_e) < 1e-13
        assert abs(f_e - g_o) < 1e-13


def test_equator_is_self_mirror():
    # cos^2 and sin^2 of pi/4 differ by one ulp, so equality is approximate
    f_o, f_e = subspace_fidelities(InputState(theta=math.pi / 2), CHANNEL)
    assert abs(f_o - f_e) < 1e-15


def test_teleport_outcomes_bundle():
    outs = teleport_outcomes(STATE, CHANNEL)
    assert tuple(o.outcome for o in outs) == tuple(BellOutcome)
    assert abs(sum(o.probability for o in outs) - 1.0) < 1e-14
    f_o, f_e = subspace_fidelities(STATE, CHANNEL)
    assert abs(outs[0].fidelity - f_o) < 1e-15
    assert abs(outs[1].fidelity - f_o) < 1e-13
    assert abs(outs[2].fidelity - f_e) < 1e-13
    assert abs(outs[3].fidelity - f_e) < 1e-13
    for o in outs:
        assert o.outcome.subspace in ("o", "e")


def test_records_holding_arrays_compare_by_value():
    outs, again = teleport_outcomes(STATE, CHANNEL), teleport_outcomes(STATE, CHANNEL)
    assert outs[0].state is not again[0].state
    assert outs == again and (outs[0] == again[1]) is False
    grid = DotParams(np.array([2.0, 4.0]), 0.2, 0.5)
    a, b = (average_fidelity_mc(grid, n=1_000, seed=3) for _ in range(2))
    assert (a == b) is True and (a != b) is False
    assert (a == average_fidelity_mc(grid, n=1_000, seed=4)) is False
    # a field that is one object on both sides is equal, a NaN float too, as in a tuple
    nan = MonteCarloFidelity(float("nan"), 0.0, 10, 1)
    assert (nan == nan) is True and nan != MonteCarloFidelity(float("nan"), 0.0, 10, 1)


def test_mean_branch_fidelity_matches_matrix_route():
    e = thermal_elements(CHANNEL)
    for theta in (0.2, 1.0, 2.0, 3.0):
        x = np.array([math.cos(theta)])
        got = _mean_branch_fidelity(e, x)[0]
        f_o, f_e = subspace_fidelities(InputState(theta=theta), CHANNEL)
        assert abs(got - 0.5 * (f_o + f_e)) < 1e-13


def test_fidelity_of_input_against_itself():
    assert abs(fidelity(STATE, input_density(STATE)) - 1.0) < 1e-14


@pytest.mark.parametrize("rho_out, message", [
    (np.stack([np.eye(3) / 3.0] * 2), r"output state must be 2x2, got \(2, 3, 3\)"),
    (np.eye(3) / 3.0, r"output state must be 2x2, got \(3, 3\)"),
], ids=["stack", "3x3"])
def test_fidelity_takes_one_2x2_output(rho_out, message):
    # each output is 2x2, alone or in a stack; stacks of them are in
    # test_oracle_stacks
    with pytest.raises(LinalgError, match=message):
        fidelity(STATE, rho_out)


def test_average_fidelity_classical_benchmark():
    # the uncoupled channel carries no entanglement and lands exactly on 1/2
    assert abs(average_fidelity(DotParams(k0=0.0, r=0.0, T=1.0)) - 0.5) < 1e-10
    # an overwhelming field fully polarizes the channel, same benchmark
    assert abs(average_fidelity(DotParams(k0=4.0, r=10.0, T=0.2)) - 0.5) < 1e-10


def test_average_fidelity_node_count_stability():
    p = DotParams(k0=2.0, r=0.2, T=0.5)
    assert abs(average_fidelity(p, nodes=64) - average_fidelity(p, nodes=96)) < 1e-13
    # the node count must be an integer of at least 2
    for nodes in (1, 2.5, "64"):
        with pytest.raises(DomainError, match="nodes"):
            average_fidelity(p, nodes=nodes)
    assert average_fidelity(p, nodes=np.int64(64)) == average_fidelity(p)


def test_average_fidelity_frozen_value():
    got = average_fidelity(DotParams(k0=2.0, r=0.2, T=0.5))
    assert abs(got - 0.6457047550050242) < 1e-14


def test_average_fidelity_closed_form_cells_keep_scalar_bits():
    # cells on both sides of the series cutoff and far into the polarised
    # regime: each cell is its scalar call, whatever the grid's shape
    k0, r = np.linspace(-2.0, 8.0, 1026), np.linspace(3.0, 0.0, 1026)
    cells = average_fidelity_closed_form(DotParams(k0, r, 0.3))
    assert cells.shape == (1026,)
    assert cells.tolist() == [average_fidelity_closed_form(DotParams(*pt, 0.3))
                              for pt in zip(k0.tolist(), r.tolist())]
    t = np.geomspace(0.02, 3.0, 9)
    grid = average_fidelity_closed_form(DotParams(4.0, r[::100, None], t))
    assert grid.shape == (11, 9)
    assert grid.ravel().tolist() == [average_fidelity_closed_form(DotParams(4.0, a, b))
                                     for a in r[::100].tolist() for b in t.tolist()]
    # exactly polarised (w + v or w + u is 0), on the crossing, and r = 0
    r = [10.0, -10.0, 1.0, 0.0]
    assert average_fidelity_closed_form(DotParams(4.0, np.array(r), 0.01)).tolist() == [
        average_fidelity_closed_form(DotParams(4.0, x, 0.01)) for x in r]
    assert isinstance(average_fidelity_closed_form(DotParams(4.0, 1.0, 0.5)), float)


def _branch_parameter(k0, r, T):
    """t = b/a of the closed form: the Psi weight z1 is a (1 + t cos theta)."""
    e = thermal_elements(DotParams(k0, r, T))
    return 0.5 * (e.v - e.u) / (e.w + 0.5 * (e.u + e.v))


def _closed_form_points():
    """Points that test the closed form: 60 seeded random ones, named ones
    (the 64-node rule's worst point, deep polarisation with w + v and w + u
    exactly 0), 28 small fields, and 40 within 2% of the series cutoff in
    |t|, on both sides."""
    rng = np.random.default_rng(2024)
    pts = list(zip(rng.uniform(-5, 10, 60).tolist(), rng.uniform(-5, 5, 60).tolist(),
                   rng.uniform(0.03, 3, 60).tolist()))
    pts += [(4.0, 1.6152, 0.08127), (4.0, 10.0, 0.2), (1.0, 3.0, 0.05), (2.0, 0.0, 0.5),
            (-3.0, 1.0, 0.3), (6.611572244654777, -1.0633520700581411, 0.08821324309828035),
            (-0.004989617116050837, 2.2708644442692005, 0.03918752054928734),
            (4.0, 10.0, 0.01), (4.0, -10.0, 0.01)]
    pts += [(4.0, r, 0.5) for r in np.geomspace(1e-4, 3e-2, 28).tolist()]
    targets = _SERIES_CUTOFF * (1.0 + rng.uniform(-0.02, 0.02, 40))
    for k0, T, target in zip(rng.uniform(-5, 10, 40).tolist(), rng.uniform(0.03, 3, 40).tolist(),
                             targets.tolist()):
        # |t| grows with |r|: bisect r to adjacent doubles
        lo, hi = 0.0, 50.0 * T + abs(k0)
        while (mid := 0.5 * lo + 0.5 * hi) not in (lo, hi):
            lo, hi = (mid, hi) if abs(_branch_parameter(k0, mid, T)) < target else (lo, mid)
        pts.append((k0, mid if len(pts) % 2 else -mid, T))
    return pts


def _mpmath_average_fidelity(p):
    """½∫(A x² + C)/(a + b x) dx over [-1, 1] in 120-digit arithmetic, from
    the same thermal elements; the exactly polarised limit where a weight sum
    is 0."""
    mpmath = pytest.importorskip("mpmath")
    e = thermal_elements(p)
    with mpmath.workdps(120):
        u, v, w, y = (mpmath.mpf(x) for x in (e.u, e.v, e.w, e.y))
        big_a, big_c = w / 2 - (u + v) / 4 + y / 2, w / 2 + (u + v) / 4 - y / 2
        a, b = w + (u + v) / 2, (v - u) / 2
        if b == 0:
            return (big_c + big_a / 3) / a
        t = b / a
        if w + v == 0 or w + u == 0:
            return -big_a / (a * t * t)
        big_l = mpmath.log((w + v) / (w + u)) / (2 * t)
        return big_c / a * big_l + big_a / a * (big_l - 1) / (t * t)


def test_closed_form_average_fidelity_against_mpmath():
    pts = _closed_form_points()
    near = [abs(_branch_parameter(*pt)) / _SERIES_CUTOFF for pt in pts]
    assert sum(0.98 < x < 1.0 for x in near) >= 10 and sum(1.0 <= x < 1.02 for x in near) >= 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [average_fidelity_closed_form(DotParams(*pt)) for pt in pts]
    worst = max(abs(float(_mpmath_average_fidelity(DotParams(*pt)) - f))
                for pt, f in zip(pts, got))
    # the docstring measured 3.3e-16 on larger sets; 137 points, held to 1e-15
    assert worst <= 1e-15
    # the exactly polarised cells are the classical 1/2
    assert got[pts.index((4.0, 10.0, 0.01))] == got[pts.index((4.0, -10.0, 0.01))] == 0.5


def _mpmath_quadrature(p, mpmath):
    """The sphere average of the mean branch fidelity by 40-digit mpmath.quad."""
    e = thermal_elements(p)
    with mpmath.workdps(40):
        u, v, w, y = (mpmath.mpf(x) for x in (e.u, e.v, e.w, e.y))

        def mean_branch(x):
            c2, s2 = (1 + x) / 2, (1 - x) / 2
            num = w * (c2 * c2 + s2 * s2) + (u + v - 2 * y) * c2 * s2
            return num * (1 / (w + u * s2 + v * c2) + 1 / (w + v * s2 + u * c2)) / 4

        return mpmath.quad(mean_branch, [-1, 1])


def test_closed_form_matches_an_independent_mpmath_quadrature():
    # the formula itself, against the two-branch integrand integrated at 40 digits
    mpmath = pytest.importorskip("mpmath")
    for pt in [(4.0, 1.6152, 0.08127), (2.0, 0.2, 0.5), (-3.0, 1.0, 0.3),
               (6.611572244654777, -1.0633520700581411, 0.08821324309828035),
               (-0.004989617116050837, 2.2708644442692005, 0.03918752054928734)]:
        p = DotParams(*pt)
        assert abs(float(_mpmath_quadrature(p, mpmath)) - average_fidelity_closed_form(p)) <= 1e-15


def test_quadrature_precision_claim_at_its_worst_point():
    # the 64-node docstring's 5.8e-9, measured against 40-digit mpmath.quad
    mpmath = pytest.importorskip("mpmath")
    p = DotParams(4.0, 1.6152, 0.08127)
    err = abs(average_fidelity(p) - float(_mpmath_quadrature(p, mpmath)))
    assert 5e-9 <= err <= 6e-9


def test_closed_form_against_its_quadrature_and_monte_carlo_oracles():
    pts = _closed_form_points()
    gap = max(abs(average_fidelity_closed_form(DotParams(*pt))
                  - average_fidelity(DotParams(*pt), nodes=256)) for pt in pts)
    assert gap <= 1e-10  # 1.7e-11 measured
    columns = DotParams(*(np.array(c) for c in zip(*_MC_POINTS)))
    mc = average_fidelity_mc(columns, n=200_000, seed=0)
    closed = average_fidelity_closed_form(columns)
    assert (np.abs(closed - mc.value) <= np.maximum(4.0 * mc.stderr, 1e-14)).all()


def test_average_fidelity_bounds():
    rng = np.random.default_rng(14)
    for _ in range(10):
        p = DotParams(
            k0=rng.uniform(0.0, 10.0), r=rng.uniform(0, 3.0), T=rng.uniform(0.05, 3.0)
        )
        f = average_fidelity(p)
        assert 0.25 <= f <= 1.0


def test_monte_carlo_is_reproducible():
    p = DotParams(k0=2.0, r=0.2, T=0.5)
    a = average_fidelity_mc(p, n=40_000, seed=3)
    b = average_fidelity_mc(p, n=40_000, seed=3)
    assert isinstance(a, MonteCarloFidelity)
    assert a == b
    c = average_fidelity_mc(p, n=40_000, seed=4)
    assert c.value != a.value


def test_monte_carlo_agrees_with_quadrature():
    p = DotParams(k0=2.0, r=0.2, T=0.5)
    mc = average_fidelity_mc(p, n=200_000, seed=0)
    exact = average_fidelity(p)
    assert abs(mc.value - exact) < 4 * mc.stderr
    assert mc.stderr > 0
    assert mc.samples == 200_000
    # frozen high-sample pin
    big = average_fidelity_mc(p, n=2_000_000, seed=11)
    assert abs(big.value - 0.6457041682228819) < 1e-15
    # The stderr pin is the exact value: the same 2e6 seed-11 samples summed
    # as rationals (every double is a dyadic fraction), M2 taken in two
    # passes, the square root rounded once. A fsum two-pass gives the same
    # double. The old pin 2.525905224351677e-07 was the rounding of the
    # single-pass sum f^2 - n mean^2 on one numpy build, 8.8e-10 relative off
    # the true value. 1e-13 relative passes any stable accumulation and fails
    # that formula (1.3e-9 relative) by four orders of magnitude.
    exact_stderr = 2.5259052221373887e-07
    assert abs(big.stderr - exact_stderr) <= 1e-13 * exact_stderr


def test_monte_carlo_rejects_tiny_sample_counts():
    with pytest.raises(DomainError):
        average_fidelity_mc(DotParams(k0=2.0, r=0.2, T=0.5), n=1)
    # and counts that are not integers
    for n in (2.5, "10"):
        with pytest.raises(DomainError, match="integer n"):
            average_fidelity_mc(DotParams(k0=2.0, r=0.2, T=0.5), n=n)
    # over arrays it returns one value and stderr per point, as the scalar calls do
    pair = average_fidelity_mc(DotParams(np.array([1.0, 2.0]), 0, 1), n=10)
    cells = [average_fidelity_mc(DotParams(k0, 0, 1), n=10) for k0 in (1.0, 2.0)]
    assert pair.value.tolist() == [c.value for c in cells]
    assert pair.stderr.tolist() == [c.stderr for c in cells]


def _reference_integrand(e, x):
    """The integrand written out of place, one temporary per operation."""
    c2 = 0.5 * (1.0 + x)
    s2 = 0.5 * (1.0 - x)
    cross = c2 * s2
    num = e.w * (c2 * c2 + s2 * s2) + (e.u + e.v) * cross - 2.0 * e.y * cross
    z1, z2 = e.w + e.u * s2 + e.v * c2, e.w + e.v * s2 + e.u * c2
    return 0.5 * num * (1.0 / z1 + 1.0 / z2)


def _reference_mc(p, n, seed):
    """(value, stderr) by the out-of-place chunk loop: a fresh draw and fresh
    temporaries per chunk, merged in order with the Chan-Golub-LeVeque update."""
    e = thermal_elements(p)
    rng = np.random.Generator(np.random.Philox(key=seed))
    shift = mean = m2 = 0.0
    done = 0
    for start in range(0, n, _MC_CHUNK):
        count = min(_MC_CHUNK, n - start)
        u01 = rng.random((count, 2))
        dev = _reference_integrand(e, 2.0 * u01[:, 0] - 1.0)
        if start == 0:
            shift = float(dev[0])
        dev -= shift
        chunk_mean = float(dev.sum()) / count
        dev -= chunk_mean
        chunk_m2 = float((dev * dev).sum())
        merged = done + count
        delta = chunk_mean - mean
        mean += delta * count / merged
        m2 += chunk_m2 + delta * delta * done * count / merged
        done = merged
    return shift + mean, math.sqrt(m2 / (n - 1) / n)


MC_POINTS = ((2.0, 0.2, 0.5), (0.5, 0.0, 1.0), (4.0, 1.0, 0.2), (2.0, 0.01, 5.0))


@pytest.mark.parametrize(
    "point,n,seed",
    [(pt, n, 0) for pt in MC_POINTS for n in (2, _MC_CHUNK, _MC_CHUNK + 1, 3 * _MC_CHUNK + 5)]
    + [((2.0, 0.2, 0.5), 2_000_000, 11)],
)
def test_monte_carlo_keeps_the_out_of_place_bits(point, n, seed):
    p = DotParams(*point)
    got = average_fidelity_mc(p, n=n, seed=seed)
    value, stderr = _reference_mc(p, n, seed)
    assert isinstance(got.value, float) and isinstance(got.stderr, float)
    assert (got.value.hex(), got.stderr.hex()) == (value.hex(), stderr.hex())


def test_monte_carlo_array_cells_are_their_scalar_calls():
    n, seed = 2 * _MC_CHUNK + 3, 5
    points = MC_POINTS + ((-3.0, 1.0, 0.3), (4.0, 1.6152, 0.08127))
    scalar = {pt: average_fidelity_mc(DotParams(*pt), n=n, seed=seed) for pt in points}

    def check(batch, shape=None):
        k0, r, T = (np.array(column).reshape(shape or -1) for column in zip(*batch))
        got = average_fidelity_mc(DotParams(k0, r, T), n=n, seed=seed)
        assert got.value.shape == got.stderr.shape == k0.shape
        assert (got.samples, got.seed) == (n, seed)
        assert got.value.ravel().tolist() == [scalar[pt].value for pt in batch]
        assert got.stderr.ravel().tolist() == [scalar[pt].stderr for pt in batch]

    # the whole set, reversed, in twos and alone: no cell depends on the others
    check(points)
    check(points[::-1])
    for i in range(0, len(points), 2):
        check(points[i : i + 2])
    check(points[:1])
    check(points, shape=(2, 3))
    # broadcast fields: one array field, the others scalar
    got = average_fidelity_mc(DotParams(4.0, np.array([0.0, 1.0]), 0.2), n=n, seed=seed)
    cells = [average_fidelity_mc(DotParams(4.0, r, 0.2), n=n, seed=seed) for r in (0.0, 1.0)]
    assert got.value.tolist() == [c.value for c in cells]


def _on_cpus(monkeypatch, cpus):
    """Make the Monte Carlo worker count see ``cpus`` usable CPUs."""
    monkeypatch.setattr(
        teleport_mod.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )


@pytest.mark.parametrize("seed", [0, 2**128 - 1])
@pytest.mark.parametrize(
    "n", [2, 3, 7, _MC_CHUNK, _MC_CHUNK + 1, 2 * _MC_CHUNK + 3, 3 * _MC_CHUNK + 5]
)
def test_monte_carlo_has_the_same_bits_on_one_worker_and_two(monkeypatch, n, seed):
    scalar = DotParams(4.0, 1.0, 0.2)
    six = MC_POINTS + ((-3.0, 1.0, 0.3), (4.0, 1.6152, 0.08127))
    grid = DotParams(*(np.reshape(column, (2, 3)) for column in zip(*six)))

    def bits(p):
        got = average_fidelity_mc(p, n=n, seed=seed)
        return [v.hex() for v in np.ravel(got.value)], [v.hex() for v in np.ravel(got.stderr)]

    _on_cpus(monkeypatch, 1)
    one = bits(scalar), bits(grid)
    _on_cpus(monkeypatch, 2)
    assert (bits(scalar), bits(grid)) == one
    # without sched_getaffinity the CPU count decides
    monkeypatch.delattr(teleport_mod.os, "sched_getaffinity")
    monkeypatch.setattr(teleport_mod.os, "cpu_count", lambda: None)
    assert (bits(scalar), bits(grid)) == one
    monkeypatch.setattr(teleport_mod.os, "cpu_count", lambda: 2)
    assert (bits(scalar), bits(grid)) == one


class _HelperFailure(Exception):
    pass


def test_monte_carlo_raises_the_helper_threads_exception(monkeypatch):
    _on_cpus(monkeypatch, 2)
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    caller = threading.get_ident()
    failure = _HelperFailure("chunk on the helper")
    real = teleport_mod._mean_branch_fidelity

    def failing_off_the_caller(e, x, work=None):
        if threading.get_ident() != caller:
            raise failure
        return real(e, x, work)

    before = threading.enumerate()
    monkeypatch.setattr(teleport_mod, "_mean_branch_fidelity", failing_off_the_caller)
    with pytest.raises(_HelperFailure) as raised:
        average_fidelity_mc(DotParams(2.0, 0.2, 0.5), n=3 * _MC_CHUNK, seed=1)
    assert raised.value is failure
    assert hooked == [] and threading.enumerate() == before

    # a failure on the calling thread still waits for the helper
    calls = []

    def failing_on_the_caller(e, x, work=None):
        calls.append(threading.get_ident())
        if threading.get_ident() == caller and len(calls) > 1:
            raise failure
        return real(e, x, work)

    monkeypatch.setattr(teleport_mod, "_mean_branch_fidelity", failing_on_the_caller)
    with pytest.raises(_HelperFailure) as raised:
        average_fidelity_mc(DotParams(2.0, 0.2, 0.5), n=3 * _MC_CHUNK, seed=1)
    assert raised.value is failure
    assert hooked == [] and threading.enumerate() == before


def test_monte_carlo_workers_see_the_callers_errstate(monkeypatch):
    _on_cpus(monkeypatch, 2)
    seen = set()
    real = teleport_mod._mean_branch_fidelity

    def recording(e, x, work=None):
        seen.add((threading.get_ident(), np.geterr()["over"]))
        return real(e, x, work)

    monkeypatch.setattr(teleport_mod, "_mean_branch_fidelity", recording)
    with np.errstate(over="raise"):
        average_fidelity_mc(DotParams(2.0, 0.2, 0.5), n=2 * _MC_CHUNK, seed=1)
    assert len(seen) == 2 and {over for _, over in seen} == {"raise"}


def test_mean_branch_fidelity_keeps_the_out_of_place_bits():
    rng = np.random.default_rng(3)
    # a scalar point on a sample vector, then a reused, dirty workspace
    e = thermal_elements(DotParams(4.0, 1.0, 0.2))
    x = rng.uniform(-1.0, 1.0, 1000)
    x_before = x.copy()
    want = _reference_integrand(e, x)
    assert _mean_branch_fidelity(e, x).tobytes() == want.tobytes()
    work = np.full((5, x.size), np.nan)
    assert _mean_branch_fidelity(e, x, work).tobytes() == want.tobytes()
    assert _mean_branch_fidelity(e, x, work).tobytes() == want.tobytes()
    assert x.tobytes() == x_before.tobytes()


def test_lifted_projectors_are_cached_and_read_only():
    for outcome in BellOutcome:
        m = _lifted_projector(outcome)
        assert m is _lifted_projector(outcome)
        assert m.tobytes() == kron(bell_projectors()[outcome], IDENTITY_2).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 1.0
    # bell_projectors still hands out fresh, writable arrays
    a, b = bell_projectors(), bell_projectors()
    assert a[BellOutcome.PSI_MINUS] is not b[BellOutcome.PSI_MINUS]
    a[BellOutcome.PSI_MINUS][0, 0] = 5.0
    assert bell_projectors()[BellOutcome.PSI_MINUS][0, 0] == 0.0


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, "3"])
def test_monte_carlo_rejects_seeds_outside_the_philox_key_range(seed):
    with pytest.raises(DomainError, match="seed"):
        average_fidelity_mc(DotParams(k0=2.0, r=0.2, T=0.5), n=10, seed=seed)
    # the largest key and numpy integers are accepted
    average_fidelity_mc(DotParams(k0=2.0, r=0.2, T=0.5), n=10, seed=2**128 - 1)
    average_fidelity_mc(DotParams(k0=2.0, r=0.2, T=0.5), n=10, seed=np.uint64(7))


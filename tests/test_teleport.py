"""Tests for the Bell measurement, collapsed branches, and fidelities."""

import math

import numpy as np
import pytest

from qdot.linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, kron, partial_trace
from qdot.model import DomainError, DotParams, hamiltonian_matrix, thermal_elements
from qdot.model import thermal_state, thermal_state_oracle
from qdot.teleport import (
    _QUADRATURE_BLOCK,
    BellOutcome,
    InputState,
    MonteCarloFidelity,
    _mean_branch_fidelity,
    average_fidelity,
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
from qdot.verify import bisect_critical_temperature

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
    np.testing.assert_allclose(
        partial_trace(joint, (2, 2, 2), (0,)), input_density(STATE), atol=1e-14
    )
    np.testing.assert_allclose(
        partial_trace(joint, (2, 2, 2), (1, 2)), thermal_state(CHANNEL), atol=1e-14
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


def test_mean_branch_fidelity_matches_matrix_route():
    e = thermal_elements(CHANNEL)
    for theta in (0.2, 1.0, 2.0, 3.0):
        x = np.array([math.cos(theta)])
        got = _mean_branch_fidelity(e, x)[0]
        f_o, f_e = subspace_fidelities(InputState(theta=theta), CHANNEL)
        assert abs(got - 0.5 * (f_o + f_e)) < 1e-13


def test_fidelity_of_input_against_itself():
    assert abs(fidelity(STATE, input_density(STATE)) - 1.0) < 1e-14


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


def test_average_fidelity_blocks_keep_scalar_bits():
    # two blocks, the second of two points: each cell is its scalar call
    n = _QUADRATURE_BLOCK + 2
    k0, r = np.linspace(-2.0, 8.0, n), np.linspace(3.0, 0.0, n)
    cells = average_fidelity(DotParams(k0, r, 0.3))
    assert cells.tolist() == [average_fidelity(DotParams(*pt, 0.3)) for pt in zip(k0, r)]


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
    # it takes one parameter point, not arrays
    with pytest.raises(DomainError, match="one parameter point"):
        average_fidelity_mc(DotParams(np.array([1.0, 2.0]), 0, 1), n=10)


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, "3"])
def test_monte_carlo_rejects_seeds_outside_the_philox_key_range(seed):
    with pytest.raises(DomainError, match="seed"):
        average_fidelity_mc(DotParams(k0=2.0, r=0.2, T=0.5), n=10, seed=seed)
    # the largest key and numpy integers are accepted
    average_fidelity_mc(DotParams(k0=2.0, r=0.2, T=0.5), n=10, seed=2**128 - 1)
    average_fidelity_mc(DotParams(k0=2.0, r=0.2, T=0.5), n=10, seed=np.uint64(7))


PAIR = DotParams(np.array([1.0, 2.0]), 0.0, 1.0)


@pytest.mark.parametrize(
    "fn,args",
    [
        (thermal_state, (PAIR,)),
        (hamiltonian_matrix, (PAIR,)),
        (thermal_state_oracle, (PAIR,)),
        (bisect_critical_temperature, (np.array([1.0, 4.0]), 0.0)),
        (input_vector, (InputState(np.array([0.5, 1.0])),)),
        (collapsed_closed_form,
         (InputState(np.array([0.5, 1.0])), thermal_elements(CHANNEL), BellOutcome.PSI_MINUS)),
        (output_states, (InputState(1.0), PAIR)),
    ],
)
def test_point_only_routes_refuse_arrays(fn, args):
    with pytest.raises(DomainError, match="one parameter point"):
        fn(*args)

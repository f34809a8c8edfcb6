"""Tests for the small complex linear-algebra toolkit."""

import numpy as np
import pytest

from qdot.linalg import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    LinalgError,
    as_complex_matrix,
    hermitian_eig,
    kron,
    trace_to_last_qubit,
    validate_density_matrix,
)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_as_complex_matrix_copies_and_casts():
    a = [[1, 2], [3, 4]]
    m = as_complex_matrix(a)
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


def test_as_complex_matrix_rejects_bad_shapes():
    with pytest.raises(LinalgError):
        as_complex_matrix([1.0, 2.0])
    with pytest.raises(LinalgError):
        as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_pauli_algebra():
    # sigma_x sigma_y = i sigma_z and cyclic permutations
    np.testing.assert_allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z)
    np.testing.assert_allclose(PAULI_Y @ PAULI_Z, 1j * PAULI_X)
    np.testing.assert_allclose(PAULI_Z @ PAULI_X, 1j * PAULI_Y)
    for g in (PAULI_X, PAULI_Y, PAULI_Z):
        np.testing.assert_allclose(g @ g, IDENTITY_2)


def test_kron_explicit_example():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[0, 1], [1, 0]], dtype=complex)
    expected = np.array(
        [
            [0, 1, 0, 2],
            [1, 0, 2, 0],
            [0, 3, 0, 4],
            [3, 0, 4, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(kron(a, b), expected)


def test_kron_product_vectors():
    # (A x B)(u x v) = (A u) x (B v)
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        left = kron(a, b) @ np.kron(u, v)
        right = np.kron(a @ u, b @ v)
        np.testing.assert_allclose(left, right, atol=1e-12)


def test_kron_associative():
    rng = np.random.default_rng(11)
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    np.testing.assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)


def test_kron_refuses_stacks_that_do_not_broadcast():
    with pytest.raises(LinalgError, match=r"shapes \(2, 2, 2\) and \(3, 2, 2\) do not broadcast"):
        kron(np.zeros((2, 2, 2)), np.zeros((3, 2, 2)))
    assert kron(np.zeros((2, 1, 2, 2)), np.zeros((3, 2, 2))).shape == (2, 3, 4, 4)


def explicit_partial_trace_two_qubits(m, keep):
    """Four-index reference implementation used as an oracle."""
    t = m.reshape(2, 2, 2, 2)
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if keep == (0,):
                    out[i, j] += t[i, k, j, k]
                else:
                    out[i, j] += t[k, i, k, j]
    return out


SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def test_partial_trace_against_explicit_sum():
    # one stack of 25 operators; the swap moves the first qubit last
    rng = np.random.default_rng(3)
    ms = rng.normal(size=(25, 4, 4)) + 1j * rng.normal(size=(25, 4, 4))
    got_b = trace_to_last_qubit(ms)
    got_a = trace_to_last_qubit(SWAP @ ms @ SWAP)
    assert got_b.shape == got_a.shape == (25, 2, 2)
    for m, b, a in zip(ms, got_b, got_a):
        np.testing.assert_allclose(b, explicit_partial_trace_two_qubits(m, (1,)), atol=1e-13)
        np.testing.assert_allclose(a, explicit_partial_trace_two_qubits(m, (0,)), atol=1e-13)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    np.testing.assert_allclose(trace_to_last_qubit(kron(rho_b, rho_a)), rho_a, atol=1e-13)
    np.testing.assert_allclose(trace_to_last_qubit(kron(rho_a, rho_b)), rho_b, atol=1e-13)


def test_partial_trace_bell_state_is_maximally_mixed():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    for m in (rho, SWAP @ rho @ SWAP):
        np.testing.assert_allclose(trace_to_last_qubit(m), IDENTITY_2 / 2, atol=1e-15)


def test_partial_trace_three_subsystems():
    # the leading two qubits go at once, for a single operator and a stack
    rng = np.random.default_rng(13)
    parts = [random_density(rng, 2) for _ in range(3)]
    joint = kron(kron(parts[0], parts[1]), parts[2])
    np.testing.assert_allclose(trace_to_last_qubit(joint), parts[2], atol=1e-13)
    stack = np.stack([joint, kron(kron(parts[2], parts[0]), parts[1])])
    got = trace_to_last_qubit(stack)
    np.testing.assert_allclose(got[0], parts[2], atol=1e-13)
    np.testing.assert_allclose(got[1], parts[1], atol=1e-13)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    reduced = trace_to_last_qubit(m)
    np.testing.assert_allclose(np.trace(reduced), np.trace(m), atol=1e-12)


def test_partial_trace_keep_everything_is_identity_map():
    # a lone qubit has nothing in front of it to trace out
    rng = np.random.default_rng(19)
    m = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    assert np.array_equal(trace_to_last_qubit(m), m)


def test_partial_trace_input_validation():
    with pytest.raises(LinalgError):
        trace_to_last_qubit(np.eye(3, dtype=complex))  # no trailing qubit
    with pytest.raises(LinalgError):
        trace_to_last_qubit(np.ones((4, 2), dtype=complex))  # not square
    with pytest.raises(LinalgError):
        trace_to_last_qubit(np.ones(4, dtype=complex))  # not a matrix
    with pytest.raises(LinalgError):
        trace_to_last_qubit(np.full((2, 2), np.nan))  # not finite


def test_hermitian_eig_known_spectrum():
    d = np.diag([2.0, -3.0, 1.0, 0.0]).astype(complex)
    evals, evecs = hermitian_eig(d)
    np.testing.assert_allclose(evals, [-3.0, 0.0, 1.0, 2.0])
    # columns are permuted standard basis vectors here
    np.testing.assert_allclose(np.abs(evecs[1, 0]), 1.0)


def test_hermitian_eig_reconstruction_and_order():
    rng = np.random.default_rng(23)
    for n in (2, 4, 8):
        for _ in range(10):
            h = random_hermitian(rng, n)
            evals, evecs = hermitian_eig(h)
            assert np.all(np.diff(evals) >= 0)
            rebuilt = (evecs * evals) @ evecs.conj().T
            np.testing.assert_allclose(rebuilt, h, atol=1e-12)
            gram = evecs.conj().T @ evecs
            np.testing.assert_allclose(gram, np.eye(n), atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(LinalgError, match="[Hh]ermitian"):
        hermitian_eig(m)


def test_validate_density_matrix_accepts_states():
    rng = np.random.default_rng(41)
    for n in (2, 4):
        validate_density_matrix(random_density(rng, n))


def test_validate_density_matrix_rejections():
    with pytest.raises(LinalgError):
        validate_density_matrix(np.diag([0.7, 0.7]).astype(complex))  # trace 1.4
    with pytest.raises(LinalgError):
        validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))  # negative
    bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(LinalgError):
        validate_density_matrix(bad)  # not Hermitian

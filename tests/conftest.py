"""Shared test fixtures."""

import math

import numpy as np
import pytest


@pytest.fixture
def singlet_triplet_unitary() -> tuple[np.ndarray, np.ndarray]:
    """Basis change from the coupled (triplet/singlet) basis to the product basis.

    (U, U_inv) such that U @ diag(coupled energies) @ U_inv equals the
    product-basis Hamiltonian; U is real orthogonal, so U_inv is its
    transpose. The coupled basis is ordered {|1,1>, |1,0>, |1,-1>, |0,0>}.
    """
    s = math.sqrt(2.0) / 2.0
    u = np.array(
        [
            [1, 0, 0, 0],
            [0, s, 0, s],
            [0, s, 0, -s],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )
    return u, u.conj().T

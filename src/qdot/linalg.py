"""Dense complex linear algebra helpers for few-qubit operators.

All routines work on plain numpy arrays with complex128 entries. The
matrices in this package are at most 8x8, and the oracles hand over whole
grids of them at once, so the Kronecker product, the eigensolver, the
density-matrix checks and the partial trace take stacks of shape
(..., n, n) and check every matrix in one vectorised pass. A failing check
reports the first failing matrix, in C order, with the message its
single-matrix call would give.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LinalgError"]

# Structural tolerances used across the package.
HERMITICITY_TOL = 1e-10
DENSITY_HERMITICITY_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-12
DENSITY_EIGENVALUE_FLOOR = -1e-10

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class LinalgError(ValueError):
    """Raised when a matrix fails a structural precondition."""


def as_complex_matrix(m: np.ndarray) -> np.ndarray:
    """Coerce input to a finite complex128 matrix or stack of them, shape
    (..., rows, cols)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise LinalgError(f"expected a 2-D matrix or a stack of them, got ndim={a.ndim}")
    if a.size == 0:
        raise LinalgError("empty matrix")
    if not np.isfinite(a).all():  # a complex entry is finite when both parts are
        raise LinalgError("matrix has non-finite entries")
    return a


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^dag)/2 of each matrix, halved before the sum so that entries
    near the float limit do not overflow; the same bits for normal entries.
    Sums in place, so a stack costs two temporaries of its size."""
    h = _adjoint(a)
    h *= 0.5
    h += 0.5 * a
    return h


def _first_above(values: np.ndarray, limit: float):
    """The first of ``values``, in C order, above ``limit`` as a Python float,
    or None when none is."""
    over = np.asarray(values)[values > limit]
    return over.flat[0].item() if over.size else None


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor indexing blocks, of two
    matrices or of stacks (..., m, n) and (..., p, q) whose leading axes
    broadcast, as (..., m p, n q): the entrywise products of np.kron, in
    its order and with its bits."""
    a, b = as_complex_matrix(a), as_complex_matrix(b)
    try:
        prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    except ValueError:  # numpy refuses leading axes that do not broadcast
        raise LinalgError(f"stacks of shapes {a.shape} and {b.shape} do not broadcast") from None
    return prod.reshape(*prod.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def trace_to_last_qubit(m: np.ndarray) -> np.ndarray:
    """Trace out every factor but the last qubit: (..., 2k, 2k) -> (..., 2, 2).

    The operator is on (first factors) (x) qubit, in the Kronecker order of
    :func:`kron`; a 2x2 operator is returned as it is.
    """
    a = as_complex_matrix(m)
    n = a.shape[-1]
    if a.shape[-2] != n or n % 2:
        raise LinalgError(f"shape {a.shape} is not an operator ending in a qubit")
    return np.einsum("...iaib->...ab", a.reshape(*a.shape[:-2], n // 2, 2, n // 2, 2))


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or a stack of them.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues in
    ascending order and orthonormal eigenvectors as columns. Rejects input
    whose anti-Hermitian part exceeds HERMITICITY_TOL entrywise.
    """
    a = as_complex_matrix(m)
    if a.shape[-1] != a.shape[-2]:
        raise LinalgError(f"matrix is not square: {a.shape}")
    dev = _first_above(np.abs(a - _adjoint(a)).max(axis=(-2, -1)), HERMITICITY_TOL)
    if dev is not None:
        raise LinalgError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    return np.linalg.eigh(_hermitian_part(a))


def validate_density_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check the density-matrix contract of a matrix, or of each matrix in a
    stack, and return the coerced array.

    Requirements: square, Hermitian to 1e-12, unit trace to 1e-12, and all
    eigenvalues at least -1e-10.
    """
    a = as_complex_matrix(m)
    if a.shape[-1] != a.shape[-2]:
        raise LinalgError(f"{name} is not square: {a.shape}")
    herm_dev = _first_above(np.abs(a - _adjoint(a)).max(axis=(-2, -1)), DENSITY_HERMITICITY_TOL)
    if herm_dev is not None:
        raise LinalgError(f"{name} is not Hermitian (max deviation {herm_dev:.3e})")
    trace_dev = _first_above(abs(np.trace(a, axis1=-2, axis2=-1) - 1.0), DENSITY_TRACE_TOL)
    if trace_dev is not None:
        raise LinalgError(f"{name} trace deviates from 1 by {trace_dev:.3e}")
    eig_min = np.linalg.eigvalsh(_hermitian_part(a)).min(axis=-1)
    low = _first_above(-eig_min, -DENSITY_EIGENVALUE_FLOOR)
    if low is not None:
        raise LinalgError(f"{name} has negative eigenvalue {-low:.3e}")
    return a

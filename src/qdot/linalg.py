"""Dense complex linear algebra helpers for few-qubit operators.

All routines work on plain numpy arrays with complex128 entries. The
matrices in this package are at most 8x8, so every function favors strict
validation and clarity over scale.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

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
    """Coerce input to a finite 2-D complex128 array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise LinalgError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise LinalgError("empty matrix")
    if not np.isfinite(a).all():  # a complex entry is finite when both parts are
        raise LinalgError("matrix has non-finite entries")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor indexing blocks."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def partial_trace(
    m: np.ndarray, dims: Sequence[int], keep: Iterable[int]
) -> np.ndarray:
    """Trace out all subsystems not listed in ``keep``.

    Parameters
    ----------
    m : array, shape (prod(dims), prod(dims))
        Operator on the tensor product of subsystems with dimensions ``dims``,
        ordered to match the Kronecker convention of :func:`kron`.
    dims : sequence of int
        Dimension of each subsystem, first factor first.
    keep : iterable of int
        Indices (into ``dims``) of the subsystems to retain, in original order.

    Returns
    -------
    array of shape (prod(kept dims), prod(kept dims)).
    """
    a = as_complex_matrix(m)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise LinalgError(f"subsystem dimensions must be positive, got {dims}")
    n = math.prod(dims)
    if a.shape != (n, n):
        raise LinalgError(f"shape {a.shape} does not factor as dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise LinalgError("keep must name at least one subsystem")
    if any(k < 0 or k >= len(dims) for k in keep):
        raise LinalgError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    t = a.reshape(dims + dims)
    nsub = len(dims)
    for ax in reversed(range(len(dims))):
        if ax in keep:
            continue
        t = np.trace(t, axis1=ax, axis2=ax + nsub)
        nsub -= 1
    d_keep = math.prod(dims[k] for k in keep)
    return t.reshape(d_keep, d_keep)


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues in
    ascending order and orthonormal eigenvectors as columns. Rejects input
    whose anti-Hermitian part exceeds HERMITICITY_TOL entrywise.
    """
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise LinalgError(f"matrix is not square: {a.shape}")
    dev = float(np.abs(a - a.conj().T).max())
    if dev > HERMITICITY_TOL:
        raise LinalgError(f"matrix is not Hermitian (max deviation {dev:.3e})")
    evals, evecs = np.linalg.eigh((a + a.conj().T) / 2.0)
    return evals, evecs


def validate_density_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check the density-matrix contract and return the coerced array.

    Requirements: square, Hermitian to 1e-12, unit trace to 1e-12, and all
    eigenvalues at least -1e-10.
    """
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise LinalgError(f"{name} is not square: {a.shape}")
    herm_dev = float(np.abs(a - a.conj().T).max())
    if herm_dev > DENSITY_HERMITICITY_TOL:
        raise LinalgError(f"{name} is not Hermitian (max deviation {herm_dev:.3e})")
    trace_dev = abs(complex(np.trace(a)) - 1.0)
    if trace_dev > DENSITY_TRACE_TOL:
        raise LinalgError(f"{name} trace deviates from 1 by {trace_dev:.3e}")
    eig_min = float(np.linalg.eigvalsh((a + a.conj().T) / 2.0).min())
    if eig_min < DENSITY_EIGENVALUE_FLOOR:
        raise LinalgError(f"{name} has negative eigenvalue {eig_min:.3e}")
    return a

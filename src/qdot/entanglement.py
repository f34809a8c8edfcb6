"""Concurrence of the dot's thermal state, by three routes.

The general Wootters algorithm works for any two-qubit density matrix; the
X-state form exploits the thermal state's sparsity pattern; the model form
evaluates the fully reduced closed expression in the log-shifted Boltzmann
domain. All three agree on the thermal state, which is what the test suite
pins down.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .model import DotParams, ThermalElements, _Record, _boltzmann_weights, _check_real
from .model import _maximum, _scalar, _where

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ConcurrenceResult",
    "wootters_concurrence",
    "xstate_concurrence",
    "model_concurrence",
    "ground_state_concurrence",
    "critical_temperature",
]


class ConcurrenceResult(_Record):
    """Concurrence value plus the four Wootters lambdas (descending, shape
    (4,)); over a stack of states, values (...) and lambdas (..., 4)."""

    __slots__ = ("value", "lambdas")

    def __init__(self, value: float, lambdas: np.ndarray) -> None:
        _Record.__init__(self, value, lambdas)


def wootters_concurrence(rho: np.ndarray) -> ConcurrenceResult:
    """Concurrence of an arbitrary two-qubit density matrix, or of each in a
    (..., 4, 4) stack from one eigensolver and one SVD call.

    The lambdas are the square roots of the eigenvalues of rho rho~, kept
    Hermitian through the similarity sqrt(rho) rho~ sqrt(rho). That product
    is the Gram matrix D D^dag of

        D = sqrt(P) (V^dag (sy x sy) V*) sqrt(P),

    with rho = V P V^dag its spectral form, so the lambdas are exactly the
    singular values of D. Taking them from an SVD instead of an
    eigendecomposition of the squared product keeps tiny lambdas at
    roundoff scale instead of inflating them to sqrt(eps); the triple
    agreement with the closed forms needs that headroom. The validator
    rejects eigenvalues of rho below its floor; those left round up to zero
    before the square root.
    """
    import numpy as np

    from . import linalg
    from .linalg import PAULI_Y, kron

    rho = linalg.validate_density_matrix(rho, name="input state")
    if rho.shape[-2:] != (4, 4):
        raise linalg.LinalgError(f"concurrence needs a 4x4 state, got {rho.shape}")
    evals, vecs = np.linalg.eigh(linalg._hermitian_part(rho))
    root_p = np.sqrt(np.clip(evals, 0.0, None))
    yy = kron(PAULI_Y, PAULI_Y)
    flip_overlap = linalg._adjoint(vecs) @ yy @ vecs.conj()
    d = root_p[..., :, None] * flip_overlap * root_p[..., None, :]
    lams = np.linalg.svd(d, compute_uv=False)
    values = np.maximum(lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3], 0.0)
    return ConcurrenceResult(value=_scalar(values), lambdas=lams)


def xstate_concurrence(e: ThermalElements) -> float:
    """Concurrence of the thermal X-state from its elements: (2/Z) max(|y| - sqrt(uv), 0).

    sqrt(uv) is taken as sqrt(u)*sqrt(v) so the product cannot underflow
    before the root. Broadcasts over array elements.
    """
    import numpy as np

    root_uv = np.sqrt(e.u) * np.sqrt(e.v)
    return _scalar((2.0 / e.big_z) * np.maximum(abs(e.y) - root_uv, 0.0))


def model_concurrence(p: DotParams) -> float:
    """Closed-form thermal concurrence of the dot model.

    Evaluates max((exp(3k0/16T) - 3 exp(-k0/16T)) / Z, 0) with the same
    log-domain shift as the thermal elements. The numerator is negative for
    every k0 < 0, so ferromagnetic coupling never entangles; T = 0 gives
    the ground-state limit. Overflowing exponents raise DomainError.
    """
    u, v, e1, e2, _ = _boltzmann_weights(p)
    return _scalar(_maximum((e2 - 3.0 * e1) / (u + v + e1 + e2), 0.0))


def ground_state_concurrence(k0: float, r: float) -> float:
    """Zero-temperature concurrence, model_concurrence at T = 0: 1 for the
    singlet at |r| < k0/4, 0 for the polarized state at |r| > k0/4, 1/2 for
    their equal mixture at |r| = k0/4 (an exact test of 4|r| against k0),
    and 0 for any k0 <= 0."""
    return model_concurrence(DotParams(k0, r, 0.0))


def critical_temperature(k0):
    """Temperature where thermal entanglement disappears: k0/(4 ln 3).

    Only antiferromagnetic coupling has one; returns None for k0 <= 0.
    Over an array k0 it broadcasts, with NaN in the cells without a
    transition, and each cell has the bits of the scalar call. The value
    does not depend on the field r.
    """
    k0 = _check_real(k0=k0)["k0"]
    tc = _scalar(_where(k0 > 0, k0 / (4.0 * math.log(3.0)), math.nan))
    return None if isinstance(tc, float) and math.isnan(tc) else tc

"""Reduced two-spin model of a gated quantum dot.

The low-energy physics is an isotropic Heisenberg exchange between two
spin-1/2 electrons plus a Zeeman term along z:

    H = (k0/4) S1.S2 - r (S1z + S2z),    r = gamma * B0,

in natural units (hbar = k_B = 1). The product basis is ordered
{|11>, |10>, |01>, |00>} with |1> the spin-up single-particle state, so
sigma_z |1> = +|1>. Both couplings may take either sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, is_dataclass

import numpy as np

from . import linalg
from .linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, kron

__all__ = [
    "DomainError",
    "DotParams",
    "hamiltonian_matrix",
    "ThermalElements",
    "thermal_elements",
    "thermal_state",
    "thermal_state_oracle",
]

BASIS_LABELS = ("11", "10", "01", "00")

# Cells per math.exp map in _exp: bounds its list of Python floats.
_EXP_BLOCK = 4096


class DomainError(ValueError):
    """Raised when a parameter lies outside an operation's numeric domain."""


@dataclass(frozen=True)
class DotParams:
    """Model parameters in natural units; floats, or arrays that broadcast.

    k0 : exchange coupling scale, any sign (antiferromagnetic for k0 > 0).
    r  : Zeeman energy gamma * B0, any sign.
    T  : temperature, >= 0. Thermal quantities require T > 0; T = 0 is
         served by the explicit ground-state limits.
    """

    k0: float
    r: float
    T: float

    def __post_init__(self) -> None:
        _check_real(k0=self.k0, r=self.r, T=self.T)
        if _any(self.T < 0):
            raise DomainError(f"temperature must be >= 0, got {_first(self.T, self.T < 0)}")


def _first(value, where):
    """``value`` where ``where`` first holds, as a Python scalar for messages."""
    return np.broadcast_to(value, np.shape(where))[where].flat[0].item()


def _check_real(**fields) -> None:
    """Raise DomainError unless each field is a finite real number or array of them."""
    for name, val in fields.items():
        arr = np.asarray(val)
        if arr.dtype.kind not in "biuf":
            raise DomainError(f"{name} must be a real number, got {val!r}")
        if not np.isfinite(arr).all():
            raise DomainError(f"{name} must be finite, got {_first(arr, ~np.isfinite(arr))!r}")


def _check_point(*values) -> None:
    """Raise DomainError if a value, or a field of a dataclass value, is an
    array: the matrix routes, the oracles and Monte Carlo take one point."""
    for value in values:
        for x in vars(value).values() if is_dataclass(value) else (value,):
            if not isinstance(x, (int, float)) and np.ndim(x):  # np.ndim costs 1 us
                raise DomainError(f"takes one parameter point, got an array of shape {np.shape(x)}")


def _any(mask) -> bool:
    """np.any without its 6 us on a single bool."""
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def _scalar(x):
    """A 0-d result as a Python float; arrays pass through."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _exp(x):
    """math.exp, elementwise over arrays: numpy's exp differs from libm in 4.6%
    of results on an AVX-512 build, and cells must match scalar calls bit for bit.
    Maps blocks of _EXP_BLOCK cells, so the Python floats in flight stay few."""
    if not isinstance(x, np.ndarray):
        return math.exp(x)
    flat = x.ravel()
    out = np.empty(flat.size)
    for i in range(0, flat.size, _EXP_BLOCK):
        block = flat[i : i + _EXP_BLOCK].tolist()
        out[i : i + len(block)] = np.fromiter(map(math.exp, block), float, len(block))
    return out.reshape(x.shape)


def hamiltonian_matrix(p: DotParams) -> np.ndarray:
    """4x4 Hamiltonian in the product basis, assembled from spin operators."""
    _check_point(p)
    sx, sy, sz = PAULI_X / 2.0, PAULI_Y / 2.0, PAULI_Z / 2.0
    exchange = kron(sx, sx) + kron(sy, sy) + kron(sz, sz)
    zeeman = kron(sz, IDENTITY_2) + kron(IDENTITY_2, sz)
    return (p.k0 / 4.0) * exchange - p.r * zeeman


@dataclass(frozen=True)
class ThermalElements:
    """Boltzmann-weight combinations entering the thermal state.

    u, v are the weights of |11> and |00>; w and y are the half-sum and
    half-difference of the symmetric and antisymmetric level weights; big_z
    is the partition function u + v + 2w. All five are stored rescaled by
    exp(-log_scale) so the largest underlying exponential is exp(0); every
    physical quantity downstream is a ratio, so the common scale cancels.
    Over a grid each field is an array.
    """

    u: float
    v: float
    w: float
    y: float
    big_z: float
    log_scale: float


def _boltzmann_weights(p: DotParams):
    """Boltzmann weights of the four levels, shifted by the largest exponent.

    Returns (u, v, e1, e2, m): the weights of |11>, |00>, and the
    exchange exponentials exp(-k0/16T) and exp(3k0/16T), each divided by
    exp(m), on floats or arrays. Raises DomainError for T <= 0 (the T = 0
    limits live in the ground-state helpers) and when the largest exponent
    overflows.
    """
    if _any(p.T <= 0):
        raise DomainError(
            f"thermal elements need T > 0, got T={_first(p.T, p.T <= 0)}; "
            "use the ground-state limits"
        )
    k0, r, T = p.k0, p.r, p.T
    with np.errstate(over="ignore", invalid="ignore"):
        t16 = 16.0 * T
        exps = (-(k0 - 16.0 * r) / t16, -(k0 + 16.0 * r) / t16, -k0 / t16, 3.0 * k0 / t16)
        # 3 k0, k0 -+ 16 r or 16 T can overflow where the exponents do not
        # (k0 = 1e308 at T = 1e10 or 1e308); only those cells divide first.
        bad = ~np.isfinite(exps[0]) | ~np.isfinite(exps[1])
        bad |= ~np.isfinite(exps[2]) | ~np.isfinite(exps[3])
        if _any(bad):
            q, s = k0 / T / 16.0, r / T
            exps = tuple(
                _scalar(np.where(bad, late, early))
                for late, early in zip((-(q - s), -(q + s), -q, 3.0 * q), exps)
            )
        a_u, a_v, b1, b2 = exps
        # An exponent at -inf only zeroes its weight; one at +inf (or NaN)
        # is the shift m itself, and the shifted exponents would be NaN.
        m = _scalar(np.maximum(np.maximum(a_u, a_v), np.maximum(b1, b2)))
    overflow = ~np.isfinite(m)
    if _any(overflow):
        k0, r, T = (_first(x, overflow) for x in (p.k0, p.r, p.T))
        raise DomainError(f"Boltzmann exponents overflow at k0={k0!r}, r={r!r}, T={T!r}")
    return _exp(a_u - m), _exp(a_v - m), _exp(b1 - m), _exp(b2 - m), m


def thermal_elements(p: DotParams) -> ThermalElements:
    """Closed-form thermal-state elements with a common log-domain shift;
    Python floats for a scalar p. Raises DomainError for T <= 0, where the
    ground-state helpers take over, and where the Boltzmann exponents overflow.
    """
    u, v, e1, e2, m = _boltzmann_weights(p)
    w = 0.5 * (e1 + e2)
    y = 0.5 * (e1 - e2)
    return ThermalElements(u=u, v=v, w=w, y=y, big_z=u + v + 2.0 * w, log_scale=m)


def thermal_state(p: DotParams) -> np.ndarray:
    """Closed-form Gibbs state: an X-form 4x4 matrix in the product basis."""
    _check_point(p)
    e = thermal_elements(p)
    z = e.big_z
    rho = np.array(
        [
            [e.u, 0.0, 0.0, 0.0],
            [0.0, e.w, e.y, 0.0],
            [0.0, e.y, e.w, 0.0],
            [0.0, 0.0, 0.0, e.v],
        ],
        dtype=complex,
    )
    return rho / z


def thermal_state_oracle(p: DotParams) -> np.ndarray:
    """Gibbs state by direct spectral assembly of exp(-H/T), trace-normalized.

    Independent of the closed form: diagonalizes the Hamiltonian matrix
    numerically and shifts by the ground energy before exponentiating, so the
    result stays finite at any T > 0.
    """
    h = hamiltonian_matrix(p)  # refuses arrays before T is compared
    if p.T <= 0:
        raise DomainError(f"thermal oracle needs T > 0, got T={p.T}")
    evals, evecs = linalg.hermitian_eig(h)
    weights = np.exp(-(evals - evals.min()) / p.T)
    rho = (evecs * weights) @ evecs.conj().T
    return rho / weights.sum()


def singlet_triplet_unitary() -> tuple[np.ndarray, np.ndarray]:
    """Basis change from the coupled (triplet/singlet) basis to the product basis.

    Returns (U, U_inv) such that U @ diag(coupled energies) @ U_inv equals the
    product-basis Hamiltonian; U is real orthogonal, so U_inv is its
    transpose. The coupled basis is ordered
    {|1,1>, |1,0>, |1,-1>, |0,0>}.
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

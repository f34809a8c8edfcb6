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

# Cells per math-function map in _libm: bounds its list of Python floats.
_LIBM_BLOCK = 4096


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
        _check_broadcast(k0=self.k0, r=self.r, T=self.T)
        if _any(self.T < 0):
            raise DomainError(f"temperature must be >= 0, got {_first(self.T, self.T < 0)}")


def _first(value, where):
    """``value`` where ``where`` first holds, as a Python scalar for messages."""
    return np.broadcast_to(value, np.shape(where))[where].flat[0].item()


def _check_real(**fields) -> None:
    """Raise DomainError unless each field is a finite real number or array of them.
    A finite Python float, or an int that numpy holds as int64 or uint64, passes
    without a numpy call; everything else, and every refusal, takes numpy's route."""
    for name, val in fields.items():
        if isinstance(val, float) and math.isfinite(val):
            continue
        if type(val) is int and -2**63 <= val < 2**64:
            continue
        arr = np.asarray(val)
        if arr.dtype.kind not in "biuf":
            raise DomainError(f"{name} must be a real number, got {val!r}")
        if not np.isfinite(arr).all():
            raise DomainError(f"{name} must be finite, got {_first(arr, ~np.isfinite(arr))!r}")


def _check_broadcast(**fields) -> None:
    """Raise DomainError unless the array fields broadcast together; fields
    that are not arrays broadcast with anything and cost no numpy call."""
    shapes = {name: val.shape for name, val in fields.items() if isinstance(val, np.ndarray)}
    if len(shapes) > 1:
        try:
            np.broadcast_shapes(*shapes.values())
        except ValueError:
            listed = ", ".join(f"{name} {shape}" for name, shape in shapes.items())
            raise DomainError(f"field shapes do not broadcast together: {listed}") from None


def _check_point(*values) -> None:
    """Raise DomainError if a value, or a field of a dataclass value, is an
    array: the routes built on one input state, and the quadrature, take one
    point."""
    for value in values:
        for x in vars(value).values() if is_dataclass(value) else (value,):
            if not isinstance(x, (int, float)) and np.ndim(x):  # np.ndim costs 1 us
                raise DomainError(f"takes one parameter point, got an array of shape {np.shape(x)}")


def _fields_equal(self, other) -> bool:
    """``==`` for a record whose fields may hold arrays: the same type, and
    each field equal by np.array_equal (the same shape, every entry equal).
    The dataclass default compares the fields as a tuple, which raises on
    two distinct arrays."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(x, y) for x, y in zip(vars(self).values(), vars(other).values()))


def _any(mask) -> bool:
    """np.any without its 6 us on a single bool."""
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def _scalar(x):
    """A 0-d result as a Python float; arrays pass through."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _libm(fn, x):
    """A math-module function such as math.exp or math.log, elementwise over
    arrays: numpy's exp and log differ from libm in 4.6% and about 0.1% of
    results on an AVX-512 build, and cells must match scalar calls bit for bit.
    Maps blocks of _LIBM_BLOCK cells, so the Python floats in flight stay few."""
    if not isinstance(x, np.ndarray):
        return fn(x)
    flat = x.ravel()
    out = np.empty(flat.size)
    for i in range(0, flat.size, _LIBM_BLOCK):
        block = flat[i : i + _LIBM_BLOCK].tolist()
        out[i : i + len(block)] = np.fromiter(map(fn, block), float, len(block))
    return out.reshape(x.shape)


def hamiltonian_matrix(p: DotParams) -> np.ndarray:
    """4x4 Hamiltonian in the product basis, assembled from spin operators;
    over a grid of k0 and r, a stack (..., 4, 4). Raises DomainError where an
    entry overflows, as k0/16 - r does at k0 = -r = 1.7e308."""
    sx, sy, sz = PAULI_X / 2.0, PAULI_Y / 2.0, PAULI_Z / 2.0
    exchange = kron(sx, sx) + kron(sy, sy) + kron(sz, sz)
    zeeman = kron(sz, IDENTITY_2) + kron(IDENTITY_2, sz)
    k0, r = np.asarray(p.k0)[..., None, None], np.asarray(p.r)[..., None, None]
    with np.errstate(over="ignore"):
        h = (k0 / 4.0) * exchange - r * zeeman
    bad = ~np.isfinite(h).all(axis=(-2, -1))
    if _any(bad):
        k0, r = (_first(x[..., 0, 0], bad) for x in (k0, r))
        raise DomainError(f"Hamiltonian entries overflow at k0={k0!r}, r={r!r}")
    return h


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
        # An exponent more than 1.8e308 below m shifts to -inf, its weight to 0.
        # One shifted exponent at a time: a grid holds no four at once.
        return (_libm(math.exp, a_u - m), _libm(math.exp, a_v - m),
                _libm(math.exp, b1 - m), _libm(math.exp, b2 - m), m)


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
    """Closed-form Gibbs state: an X-form 4x4 matrix in the product basis;
    over a grid, a stack (..., 4, 4)."""
    e = thermal_elements(p)
    rho = np.zeros((*np.shape(e.big_z), 4, 4), dtype=complex)
    rho[..., 0, 0] = e.u
    rho[..., 1, 1] = rho[..., 2, 2] = e.w
    rho[..., 1, 2] = rho[..., 2, 1] = e.y
    rho[..., 3, 3] = e.v
    return rho / np.asarray(e.big_z)[..., None, None]


def thermal_state_oracle(p: DotParams) -> np.ndarray:
    """Gibbs state by direct spectral assembly of exp(-H/T), trace-normalized.

    Independent of the closed form: diagonalizes the Hamiltonian matrix
    numerically and shifts by the ground energy before exponentiating, so the
    result stays finite at any T > 0. A level gap that overflows against T
    gives its level weight 0. Raises DomainError where the spectrum is not
    finite. Over a grid it returns a stack (..., 4, 4), from one eigensolver
    call and one weighted matmul over the Hamiltonian stack.
    """
    h = hamiltonian_matrix(p)
    if _any(p.T <= 0):
        raise DomainError(f"thermal oracle needs T > 0, got T={_first(p.T, p.T <= 0)}")
    evals, evecs = linalg.hermitian_eig(h)
    bad = ~np.isfinite(evals).all(axis=-1)
    if _any(bad):
        k0, r = (_first(x, bad) for x in (p.k0, p.r))
        raise DomainError(f"thermal oracle spectrum is not finite at k0={k0!r}, r={r!r}")
    with np.errstate(over="ignore"):  # a gap past the float range weighs exp(-inf) = 0
        weights = np.exp(-(evals - evals.min(axis=-1, keepdims=True)) / np.asarray(p.T)[..., None])
    rho = (evecs * weights[..., None, :]) @ linalg._adjoint(evecs)
    return rho / weights.sum(axis=-1)[..., None, None]

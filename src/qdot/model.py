"""Reduced two-spin model of a gated quantum dot.

The low-energy physics is an isotropic Heisenberg exchange between two
spin-1/2 electrons plus a Zeeman term along z:

    H = (k0/4) S1.S2 - r (S1z + S2z),    r = gamma * B0,

in natural units (hbar = k_B = 1). The product basis is ordered
{|11>, |10>, |01>, |00>} with |1> the spin-up single-particle state, so
sigma_z |1> = +|1>. Both couplings may take either sign.
"""

from __future__ import annotations

import contextlib
import math
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

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


# Sets a field of a record, past its frozen __setattr__. DotParams and
# ThermalElements, built on every kernel call, set theirs one by one: the loop
# in _Record.__init__ adds about 0.4 us a record.
_set_field = object.__setattr__


class _Record:
    """A frozen record: slots named for its fields, in order, set once in
    __init__. Assignment and deletion raise AttributeError; repr, == and hash
    take the fields in order, == only between records of one type."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set_field(self, name, value)

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields().items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(self._fields().values())


class _ArrayRecord(_Record):
    """A record whose fields may hold arrays: ``==`` holds when each field is
    equal by np.array_equal (the same shape, every entry equal), where the
    tuple rule would raise on two distinct arrays."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        import numpy as np

        pairs = zip(self._fields().values(), other._fields().values())
        return all(np.array_equal(x, y) for x, y in pairs)

    __hash__ = _Record.__hash__  # a class that defines __eq__ loses the inherited one


class DotParams(_Record):
    """Model parameters in natural units; floats, or arrays that broadcast,
    each held in float64 (an int or a float32 value is widened).

    k0 : exchange coupling scale, any sign (antiferromagnetic for k0 > 0).
    r  : Zeeman energy gamma * B0, any sign.
    T  : temperature, >= 0. At T = 0 every thermal quantity takes its
         ground-state limit: the levels of lowest energy weigh alike.
    """

    __slots__ = ("k0", "r", "T")

    def __init__(self, k0: float, r: float, T: float) -> None:
        k0, r, T = _check_real(k0=k0, r=r, T=T).values()
        _check_broadcast(k0=k0, r=r, T=T)
        _check_temperature(T)
        _set_field(self, "k0", k0)
        _set_field(self, "r", r)
        _set_field(self, "T", T)


def _check_temperature(T) -> None:
    """Raise DomainError where a real temperature, a float or an array, is
    below 0."""
    if _any(T < 0):
        raise DomainError(f"temperature must be >= 0, got {_first(T, T < 0)}")


def _first(value, where):
    """``value`` where ``where`` first holds, as a Python scalar for messages;
    a Python number is that scalar wherever ``where`` holds."""
    np = _numpy(value)
    if np is None:
        return value
    return np.broadcast_to(value, np.shape(where))[where].flat[0].item()


def _check_real(**fields) -> dict:
    """Each field as a finite real number or array of them in float64, or
    DomainError. A Python float is returned as it is, and an int or a bool
    as a Python float, without numpy; everything else takes numpy's route,
    where a float64 array passes through uncopied and other real dtypes are
    widened, so that every closed form computes in float64; Python numbers
    numpy holds as objects (an int past int64) are checked one by one."""
    widened = {}
    for name, val in fields.items():
        if type(val) in (int, bool):
            try:
                val = float(val)
            except OverflowError:
                raise DomainError(
                    f"{name} must be finite, got an int past the float range") from None
        if isinstance(val, float) and math.isfinite(val):
            widened[name] = val
            continue
        if type(val) is float:  # nan or inf; a numpy scalar's repr would differ
            raise DomainError(f"{name} must be finite, got {val!r}")
        import numpy as np

        arr = np.asarray(val)
        if arr.dtype.kind == "O" and all(isinstance(x, (int, float)) for x in arr.flat):
            arr = np.array([_check_real(**{name: x})[name] for x in arr.flat]).reshape(arr.shape)
        if arr.dtype.kind not in "biuf":
            try:
                got = repr(val)
            except ValueError:  # it holds an int past Python's int-to-str digit limit
                got = f"{type(val).__name__} holding an int too long to print"
            raise DomainError(f"{name} must be a real number, got {got}")
        with np.errstate(over="ignore"):  # a long double past float64's range is inf
            wide = arr.astype(float, copy=False)
        if not np.isfinite(wide).all():
            raise DomainError(f"{name} must be finite, got {_first(arr, ~np.isfinite(wide))!r}")
        widened[name] = wide[()] if isinstance(val, np.generic) else wide
    return widened


def _check_broadcast(**fields) -> None:
    """Raise DomainError unless the array fields broadcast together; fields
    that are not arrays broadcast with anything and cost no numpy call."""
    np = sys.modules.get("numpy")  # not loaded: no field is an array
    if np is None:
        return
    shapes = {name: val.shape for name, val in fields.items() if isinstance(val, np.ndarray)}
    if len(shapes) > 1:
        try:
            np.broadcast_shapes(*shapes.values())
        except ValueError:
            listed = ", ".join(f"{name} {shape}" for name, shape in shapes.items())
            raise DomainError(f"field shapes do not broadcast together: {listed}") from None


def _numpy(*values):
    """numpy if a value is a numpy array or scalar, else None. Python numbers
    take the math route of each guard below; while numpy is not loaded, no
    value can be one of its types, so asking never loads it."""
    np = sys.modules.get("numpy")
    if np is not None:
        for x in values:
            if isinstance(x, (np.ndarray, np.generic)):
                return np
    return None


def _is_array(x) -> bool:
    """isinstance(x, np.ndarray), without loading numpy to learn it is not."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def _any(mask) -> bool:
    """np.any without its 6 us on a single bool."""
    return bool(mask.any() if _is_array(mask) else mask)


def _scalar(x):
    """A 0-d result as a Python float; arrays pass through."""
    return x if _is_array(x) and x.ndim else float(x)


def _quiet(*values):
    """np.errstate that ignores overflow and invalid results, over numpy
    values; Python floats overflow to inf and NaN without a word."""
    np = _numpy(*values)
    if np is None:
        return contextlib.nullcontext()
    return np.errstate(over="ignore", invalid="ignore")


def _nonfinite(x):
    """~np.isfinite(x), or not math.isfinite(x) on a Python float."""
    np = _numpy(x)
    return not math.isfinite(x) if np is None else ~np.isfinite(x)


def _maximum(a, b):
    """np.maximum(a, b), or its rule on Python floats: a NaN wins, and of two
    equal values, 0.0 and -0.0 included, the second."""
    np = _numpy(a, b)
    if np is not None:
        return np.maximum(a, b)
    return a if a > b or a != a else b


def _where(cond, a, b):
    """np.where(cond, a, b), or a conditional expression on Python values."""
    np = _numpy(cond, a, b)
    if np is not None:
        return np.where(cond, a, b)
    return a if cond else b


def _libm(fn, x):
    """A math-module function such as math.exp or math.log, elementwise over
    arrays: numpy's exp and log differ from libm in 4.6% and about 0.1% of
    results on an AVX-512 build, and cells must match scalar calls bit for bit.
    Maps blocks of _LIBM_BLOCK cells, so the Python floats in flight stay few."""
    if not _is_array(x):
        return fn(x)
    import numpy as np

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
    import numpy as np

    from .linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, kron

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


class ThermalElements(_Record):
    """Boltzmann-weight combinations entering the thermal state.

    u, v are the weights of |11> and |00>; w and y are the half-sum and
    half-difference of the symmetric and antisymmetric level weights; big_z
    is the partition function u + v + 2w. All five are stored rescaled by
    exp(-log_scale) so the largest underlying exponential is exp(0); every
    physical quantity downstream is a ratio, so the common scale cancels.
    Over a grid each field is an array.
    """

    __slots__ = ("u", "v", "w", "y", "big_z", "log_scale")

    def __init__(self, u: float, v: float, w: float, y: float, big_z: float,
                 log_scale: float) -> None:
        _set_field(self, "u", u)
        _set_field(self, "v", v)
        _set_field(self, "w", w)
        _set_field(self, "y", y)
        _set_field(self, "big_z", big_z)
        _set_field(self, "log_scale", log_scale)


def _boltzmann_weights(p: DotParams):
    """Boltzmann weights of the four levels, shifted by the largest exponent.

    Returns (u, v, e1, e2, m): the weights of |11>, |00>, and the
    exchange exponentials exp(-k0/16T) and exp(3k0/16T), each divided by
    exp(m), on floats or arrays. A T = 0 cell holds their T -> 0+ limit:
    weight 1 for each level of lowest energy and 0 for the rest, m = 0.
    Raises DomainError when the largest exponent overflows.
    """
    k0, r, T = p.k0, p.r, p.T
    with _quiet(k0, r, T):
        cold = T == 0  # run at T = inf, with no division by 0; its exponents are set below
        T = _scalar(_where(cold, math.inf, T))
        t16 = 16.0 * T
        exps = (-(k0 - 16.0 * r) / t16, -(k0 + 16.0 * r) / t16, -k0 / t16, 3.0 * k0 / t16)
        # 3 k0, k0 -+ 16 r or 16 T can overflow where the exponents do not
        # (k0 = 1e308 at T = 1e10 or 1e308); only those cells divide first.
        bad = _nonfinite(exps[0]) | _nonfinite(exps[1])
        bad |= _nonfinite(exps[2]) | _nonfinite(exps[3])
        if _any(bad):
            q, s = k0 / T / 16.0, r / T
            exps = tuple(
                _scalar(_where(bad, late, early))
                for late, early in zip((-(q - s), -(q + s), -q, 3.0 * q), exps)
            )
        if _any(cold):  # exponent 0 for each level of lowest energy, -inf for the rest
            # (k0/16 -+ r, k0/16, -3k0/16): 4 r is exact, or inf, which compares right
            low = ((r >= 0) & (4.0 * r >= k0), (r <= 0) & (-4.0 * r >= k0),
                   (r == 0) & (k0 <= 0), k0 >= 4.0 * abs(r))
            exps = [_scalar(_where(cold, _where(g, 0.0, -math.inf), x)) for g, x in zip(low, exps)]
        a_u, a_v, b1, b2 = exps
        # An exponent at -inf only zeroes its weight; one at +inf (or NaN)
        # is the shift m itself, and the shifted exponents would be NaN.
        m = _scalar(_maximum(_maximum(a_u, a_v), _maximum(b1, b2)))
        overflow = _nonfinite(m)
        if _any(overflow):
            k0, r, T = (_first(x, overflow) for x in (p.k0, p.r, p.T))
            raise DomainError(f"Boltzmann exponents overflow at k0={k0!r}, r={r!r}, T={T!r}")
        # An exponent more than 1.8e308 below m shifts to -inf, its weight to 0.
        # One shifted exponent at a time: a grid holds no four at once.
        return (_libm(math.exp, a_u - m), _libm(math.exp, a_v - m),
                _libm(math.exp, b1 - m), _libm(math.exp, b2 - m), m)


def thermal_elements(p: DotParams) -> ThermalElements:
    """Closed-form thermal-state elements with a common log-domain shift;
    Python floats for a scalar p, and T = 0 cells at their limit. Raises
    DomainError where the Boltzmann exponents overflow.
    """
    u, v, e1, e2, m = _boltzmann_weights(p)
    w = 0.5 * (e1 + e2)
    y = 0.5 * (e1 - e2)
    return ThermalElements(u=u, v=v, w=w, y=y, big_z=u + v + 2.0 * w, log_scale=m)


def thermal_state(p: DotParams) -> np.ndarray:
    """Closed-form Gibbs state: an X-form 4x4 matrix in the product basis;
    over a grid, a stack (..., 4, 4)."""
    import numpy as np

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
    import numpy as np

    from . import linalg

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

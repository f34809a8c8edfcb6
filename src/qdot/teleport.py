"""Standard teleportation through the dot's thermal state as the channel.

A pure input qubit cos(t/2)|1> + e^{i phi} sin(t/2)|0> is teleported with a
Bell measurement on the input and channel qubit A, followed by the usual
Pauli correction on channel qubit B. The three-qubit order is always
input (x) channel-A (x) channel-B. Outcomes in the Psi subspace are the
"odd" branch (tag "o"), the Phi subspace is the "even" branch (tag "e").

Everything is expressed through ratios of the rescaled thermal elements, so
the common Boltzmann scale never appears.

The fidelity averaged over the input's Bloch sphere, F_a, has a closed form,
average_fidelity_closed_form, exact to about 1e-15 and evaluated over whole
grids. Its oracles, quadrature and Monte Carlo, share nothing with it but the
integrand; they live in qdot.oracles with the 8x8 projection route that
collapsed_closed_form is checked against and the matrix Pauli correction of
its branches. This module keeps the closed forms alone and imports neither
that module nor qdot.linalg: output_states' one correction, X on the Phi-
branch, is an index reversal.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

from .model import DomainError, DotParams, ThermalElements, _Arrays, _Record, _any
from .model import _check_broadcast, _check_real, _is_array, _libm, _rules, _scalar
from .model import thermal_elements

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "InputState",
    "BellOutcome",
    "collapsed_closed_form",
    "output_states",
    "subspace_fidelities",
    "average_fidelity_closed_form",
]

# |t| below this takes the series of K in average_fidelity_closed_form, and
# the logarithms of the shifted weights from it on. The first term the series
# leaves out, t^52/55, is below 2^-57 at the cutoff.
_SERIES_CUTOFF = 0.5
_K_SERIES = tuple(1.0 / (2 * k + 3) for k in range(26))
# _log_l's floor on a weight sum that underflows: the smallest subnormal
_TINY = math.ulp(0.0)


class InputState(_Record):
    """Bloch angles of the pure input qubit: polar theta, azimuthal phi;
    floats, or arrays that broadcast, one input state per cell."""

    __slots__ = ("theta", "phi")

    def __init__(self, theta: float, phi: float = 0.0) -> None:
        theta, phi = _check_real(theta=theta, phi=phi).values()
        _check_broadcast(theta=theta, phi=phi)
        _Record.__init__(self, theta, phi)


class BellOutcome(Enum):
    """The four Bell-measurement outcomes on (input, channel-A)."""

    PSI_MINUS = "PsiMinus"
    PSI_PLUS = "PsiPlus"
    PHI_MINUS = "PhiMinus"
    PHI_PLUS = "PhiPlus"

    @property
    def subspace(self) -> str:
        """Parity tag of the outcome: "o" for Psi-type, "e" for Phi-type."""
        if self in (BellOutcome.PSI_MINUS, BellOutcome.PSI_PLUS):
            return "o"
        return "e"


def _complex(re, im) -> np.ndarray:
    """re + i im of equal-shaped parts, signed zeros kept: re + 1j * im can
    turn a zero im's sign."""
    import numpy as np

    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _branch_weights(e: ThermalElements, c2, s2):
    """Unnormalized Psi/Phi branch weights (z1, z2) at cos^2 and sin^2 of
    theta/2; floats or arrays alike."""
    return e.w + e.u * s2 + e.v * c2, e.w + e.v * s2 + e.u * c2


def collapsed_closed_form(
    s: InputState, e: ThermalElements, outcome: BellOutcome
) -> tuple[np.ndarray, float]:
    """Closed-form collapsed state of qubit B and the branch probability,
    (..., 2, 2) and (...) over the state's and the elements' broadcast shape.

    The Psi branches share the weight z1, the Phi branches z2; the branch
    probability is z/(2Z). Off-diagonals differ only in sign between the
    minus and plus outcome of each subspace, and the Phi branches carry the
    conjugate azimuthal phase. The input's trig is libm's, squares by pow
    (x * x differs in about 0.1% of results), on floats and cells alike.
    Raises DomainError where the branch weight is 0: that branch has no state.
    """
    import numpy as np

    _check_broadcast(theta=s.theta, phi=s.phi, **e._fields())
    half = s.theta / 2.0
    c2 = _libm(lambda t: math.cos(t) ** 2, half)
    s2 = _libm(lambda t: math.sin(t) ** 2, half)
    z1, z2 = _branch_weights(e, c2, s2)
    off = 0.5 * e.y * _libm(math.sin, s.theta)
    if outcome.subspace == "o":
        top, bot, z, sign = e.w * c2 + e.u * s2, e.v * c2 + e.w * s2, z1, -1.0
    else:
        top, bot, z, sign = e.u * c2 + e.w * s2, e.w * c2 + e.v * s2, z2, 1.0
    if _any(z == 0):
        raise DomainError(f"branch {outcome.value} has probability 0; it has no collapsed state")
    if outcome in (BellOutcome.PSI_MINUS, BellOutcome.PHI_MINUS):
        off = -off
    # the phase of cmath.exp(-1j * phi), conjugated on the Phi branches
    corner = off * _complex(_libm(math.cos, s.phi), sign * _libm(math.sin, s.phi))
    cells = np.broadcast_arrays(top, corner, corner.conj(), bot)
    state = np.stack(cells, axis=-1).reshape(*cells[0].shape, 2, 2)
    return state / np.asarray(z)[..., None, None], _scalar(z / (2.0 * e.big_z))


def output_states(s: InputState, p: DotParams) -> tuple[np.ndarray, np.ndarray]:
    """Corrected output of the odd (Psi) and even (Phi) subspaces.

    The two Psi branches collapse to one state after correction and the two
    Phi branches to another; this returns that pair (rho_o, rho_e), each
    (..., 2, 2) over the state's and the parameters' broadcast shape. Psi-
    needs no correction; Phi- takes X, which swaps the two diagonal entries
    and the two corners, so rho_e is that branch with both axes reversed.
    """
    e = thermal_elements(p)
    rho_o, _ = collapsed_closed_form(s, e, BellOutcome.PSI_MINUS)
    rho_e, _ = collapsed_closed_form(s, e, BellOutcome.PHI_MINUS)
    return rho_o, rho_e[..., ::-1, ::-1]


def subspace_fidelities(s: InputState, p: DotParams) -> tuple[float, float]:
    """(F_o, F_e): fidelity conditioned on a Psi-type or Phi-type outcome,
    as the closed forms N/z1 and N/z2 of oracles._mean_branch_fidelity.
    Capped at 1 (a singlet channel rounds to 1 + 2.2e-16); NaN for a branch
    of weight 0, whose weight is replaced by NaN before the division. The
    azimuthal phase cancels. The input's trig is libm's on floats and cells
    alike, so Python floats give Python floats with their cell's bits, and
    load no numpy."""
    _check_broadcast(theta=s.theta, phi=s.phi, k0=p.k0, r=p.r, T=p.T)
    return _subspace_fidelities(s.theta, thermal_elements(p))


def _subspace_fidelities(theta, e: ThermalElements) -> tuple[float, float]:
    """subspace_fidelities at polar angle ``theta``, finite floats or arrays,
    from the channel's thermal elements, which a sweep shares with its other
    quantities. Over arrays, libm's cos and sin are taken once per distinct
    half-angle: a theta axis repeats each of its values across the other
    axis."""
    g = _rules(theta, e.u, e.v, e.w, e.y)
    half = theta / 2.0
    if g is _Arrays and _is_array(half):
        import numpy as np

        keys, inverse = np.unique(half.ravel(), return_inverse=True)
        inverse = inverse.reshape(half.shape)
        c, sn = _libm(math.cos, keys)[inverse], _libm(math.sin, keys)[inverse]
    else:
        c, sn = math.cos(half), math.sin(half)
    c2, s2 = c * c, sn * sn
    cross = c2 * s2
    num = e.w * (c2 * c2 + s2 * s2) + (e.u + e.v) * cross - 2.0 * e.y * cross
    z1, z2 = _branch_weights(e, c2, s2)
    return (g.scalar(g.minimum(num / g.where(z1 > 0, z1, math.nan), 1.0)),
            g.scalar(g.minimum(num / g.where(z2 > 0, z2, math.nan), 1.0)))


def average_fidelity_closed_form(p: DotParams):
    """Average fidelity over the Bloch sphere in closed form: a float for a
    scalar p, an array of the parameters' broadcast shape otherwise.

    With x = cos(theta), the integrand of oracles._mean_branch_fidelity is
    N/(2 z1) + N/(2 z2) with N = A x^2 + C, z1 = a + b x and z2 = a - b x:

        A = w/2 - (u+v)/4 + y/2,    C = w/2 + (u+v)/4 - y/2,
        a = w + (u+v)/2,            b = (v-u)/2.

    N is even in x, so F_a is half the integral of N/z1 over [-1, 1] (the
    sphere average of Horodecki^3, PRA 60, 1888 (1999), applied to the
    branch fidelities). With t = b/a, L = atanh(t)/t, K = (L - 1)/t^2 and
    C + A = w, that is F_a = (C/a) L + (A/a) K = (w/a) L + (A/a) (K - L),
    the form evaluated: _series_l and _log_l give (L, K - L) below and from
    _SERIES_CUTOFF in |t|.

    A scalar call runs them on Python floats and a grid on each side's
    cells, rounding alike and taking logarithms by math.log, so a scalar
    call has the bits of its cell in any grid. Against the same integral in
    120-digit mpmath, from the same elements, the error was at most 3.3e-16
    on two seeded sets of 3,240 points (k0 in [-5, 10], r in [-5, 5],
    T in [0.03, 3], small fields, 600 within 2% of the cutoff, and polarised
    points down to w + v = 0); the tests hold 137 of them to 1e-15.
    """
    return _average_fidelity_closed_form(thermal_elements(p))


def _average_fidelity_closed_form(e: ThermalElements):
    """average_fidelity_closed_form from the channel's thermal elements,
    which a sweep shares with its other quantities."""
    u, v, w, y = e.u, e.v, e.w, e.y
    g = _rules(u, v, w, y)
    a = w + 0.5 * (u + v)
    t = 0.5 * (v - u) / a
    t2 = t * t
    if g is _Arrays and _is_array(t):  # a grid: each cell takes its side of the cutoff
        import numpy as np

        big_l, k_minus_l = np.empty_like(t), np.empty_like(t)
        series = np.abs(t) < _SERIES_CUTOFF
        big_l[series], k_minus_l[series] = _series_l(t2[series])
        logs = ~series
        w_logs = np.broadcast_to(w, t.shape)[logs]  # w varies with k0 and T only
        big_l[logs], k_minus_l[logs] = _log_l(g, w_logs, u[logs], v[logs], a[logs], t[logs],
                                              t2[logs])
    elif abs(t) < _SERIES_CUTOFF:
        big_l, k_minus_l = _series_l(t2)
    else:
        big_l, k_minus_l = _log_l(g, w, u, v, a, t, t2)
    big_a = 0.5 * w - 0.25 * (u + v) + 0.5 * y
    return g.scalar(w / a * big_l + big_a / a * k_minus_l)


def _series_l(t2):
    """(L, K - L) for |t| below the cutoff: K is its series sum
    t^(2k)/(2k+3), L = 1 + t^2 K, and K - L does not cancel. Floats or
    arrays, rounded alike."""
    k = _K_SERIES[-1]
    for c in _K_SERIES[-2::-1]:
        k = k * t2 + c
    big_l = 1.0 + t2 * k
    return big_l, k - big_l


def _log_l(g, w, u, v, a, t, t2):
    """(L, K - L) for |t| from the cutoff on: atanh(t) = (ln(w+v) - ln(w+u))/2
    from the shifted weights a + b and a - b, and K - L = (L (1 - t^2) - 1)/t^2
    with 1 - t^2 = (w+u)(w+v)/a^2. As |t| -> 1, L grows like a logarithm
    while w/a and 1 - t^2 vanish, so neither product cancels. A weight sum
    that underflows to 0 is taken at the smallest subnormal: its 1 - t^2 is
    0, which gives the polarised limit. Floats or arrays under the caller's
    guard set ``g``, logarithms by math.log either way."""
    wu, wv = w + u, w + v
    ln_wu, ln_wv = g.log(g.maximum(wu, _TINY)), g.log(g.maximum(wv, _TINY))
    big_l = 0.5 * (ln_wv - ln_wu) / t
    return big_l, (big_l * (wu * wv / (a * a)) - 1.0) / t2

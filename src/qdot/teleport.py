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
grids. Two routes share nothing with it but the integrand: average_fidelity
integrates it by Gauss-Legendre quadrature, and average_fidelity_mc averages
it over seeded random inputs.

numpy and linalg are imported inside the functions that need them: on
Python floats, subspace_fidelities and average_fidelity_closed_form run
without either, as model's closed forms do.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Sequence
from enum import Enum
from typing import TYPE_CHECKING

from .model import DomainError, DotParams, ThermalElements, _Record, _any, _check_broadcast
from .model import _check_real, _first, _is_array, _libm, _maximum, _minimum, _scalar, _where
from .model import thermal_elements, thermal_state

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "InputState",
    "BellOutcome",
    "TeleportOutcome",
    "MonteCarloFidelity",
    "input_density",
    "bell_projectors",
    "joint_state",
    "collapse_bruteforce",
    "collapsed_closed_form",
    "pauli_correction",
    "output_states",
    "fidelity",
    "subspace_fidelities",
    "teleport_outcomes",
    "average_fidelity_closed_form",
    "average_fidelity",
    "average_fidelity_mc",
]

# Branch probabilities below this are degenerate: report, do not divide.
_PROBABILITY_FLOOR = 1e-15

# |t| below this takes the series of K in average_fidelity_closed_form, and
# the logarithms of the shifted weights from it on. The first term the series
# leaves out, t^52/55, is below 2^-57 at the cutoff.
_SERIES_CUTOFF = 0.5
_K_SERIES = tuple(1.0 / (2 * k + 3) for k in range(26))

# Monte Carlo samples per chunk. Chunks merge in order, so this size sets
# the merge order of the mean and M2: changing it moves their bits. It is
# even, so every chunk starts on a Philox counter step (two samples).
_MC_CHUNK = 1 << 16


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


class TeleportOutcome(_Record):
    """One measurement branch: probability, corrected output, and fidelity."""

    __slots__ = ("outcome", "probability", "state", "fidelity")

    def __init__(self, outcome: BellOutcome, probability: float, state: np.ndarray,
                 fidelity: float) -> None:
        _Record.__init__(self, outcome, probability, state, fidelity)


class MonteCarloFidelity(_Record):
    """Monte Carlo estimate of the average fidelity with its standard error;
    value and stderr are floats for one point, arrays over a grid."""

    __slots__ = ("value", "stderr", "samples", "seed")

    def __init__(self, value: float, stderr: float, samples: int, seed: int) -> None:
        _Record.__init__(self, value, stderr, samples, seed)


def _complex(re, im) -> np.ndarray:
    """re + i im of equal-shaped parts, signed zeros kept: re + 1j * im can
    turn a zero im's sign."""
    import numpy as np

    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def input_vector(s: InputState) -> np.ndarray:
    """State vector of the input qubit in the {|1>, |0>} basis, (..., 2). The
    phase has cmath.exp(1j * phi)'s bits, its sine taken at 0.0 + phi."""
    import numpy as np

    half = s.theta / 2.0
    lower = _complex(_libm(math.cos, s.phi), _libm(math.sin, s.phi + 0.0)) * _libm(math.sin, half)
    return np.stack(np.broadcast_arrays(_libm(math.cos, half), lower), axis=-1)


def input_density(s: InputState) -> np.ndarray:
    """Rank-one density matrix of the input qubit, (..., 2, 2)."""
    psi = input_vector(s)
    return psi[..., :, None] * psi.conj()[..., None, :]


def bell_projectors() -> dict[BellOutcome, np.ndarray]:
    """Rank-one projectors onto the four Bell states, product-basis order
    {|11>, |10>, |01>, |00>}."""
    import numpy as np

    s = 1.0 / math.sqrt(2.0)
    vectors = {
        BellOutcome.PSI_MINUS: np.array([0, s, -s, 0], dtype=complex),
        BellOutcome.PSI_PLUS: np.array([0, s, s, 0], dtype=complex),
        BellOutcome.PHI_MINUS: np.array([s, 0, 0, -s], dtype=complex),
        BellOutcome.PHI_PLUS: np.array([s, 0, 0, s], dtype=complex),
    }
    return {k: np.outer(v, v.conj()) for k, v in vectors.items()}


def joint_state(s: InputState, p: DotParams) -> np.ndarray:
    """8x8 state of input (x) channel before the measurement, (..., 8, 8)
    over the state's and the parameters' broadcast shape."""
    from .linalg import kron

    _check_broadcast(theta=s.theta, phi=s.phi, k0=p.k0, r=p.r, T=p.T)
    return kron(input_density(s), thermal_state(p))


@functools.cache
def _lifted_projector(outcome: BellOutcome) -> np.ndarray:
    """The outcome's Bell projector lifted to 8x8 as P (x) I, built once and
    read-only."""
    from .linalg import IDENTITY_2, kron

    m = kron(bell_projectors()[outcome], IDENTITY_2)
    m.flags.writeable = False
    return m


def collapse_bruteforce(
    joint: np.ndarray, outcome: BellOutcome | Sequence[BellOutcome]
) -> tuple[np.ndarray, float]:
    """Project the joint state on a Bell outcome and reduce to qubit B.

    Returns the normalized collapsed 2x2 state and the branch probability;
    for a (..., 8, 8) stack of joint states, the states (..., 2, 2) and the
    probabilities (...). A sequence of outcomes adds a leading axis to both,
    one entry per outcome, and checks ``joint`` once for all of them; the
    outcomes are projected one at a time, which keeps the peak heap at one
    outcome's sandwich. Purely mechanical: projector sandwich, partial trace
    over the first two qubits, trace normalization. Raises LinalgError unless
    ``joint`` is an 8x8 density matrix or a stack of them, and DomainError
    unless ``outcome`` is a BellOutcome or a nonempty sequence of them.
    """
    import numpy as np

    from . import linalg

    single = isinstance(outcome, BellOutcome)
    branches = (outcome,) if single else outcome
    if not (isinstance(branches, Sequence) and branches
            and all(isinstance(b, BellOutcome) for b in branches)):
        raise DomainError(
            f"expected a BellOutcome or a nonempty sequence of them, got {outcome!r}")
    joint = linalg.as_complex_matrix(joint)
    if joint.shape[-2:] != (8, 8):
        raise linalg.LinalgError(f"joint state must be 8x8, got {joint.shape}")
    joint = linalg.validate_density_matrix(joint, name="joint state")
    states, probabilities = [], []
    for branch in branches:
        m = _lifted_projector(branch)
        projected = m @ joint @ m.conj().T
        z = np.trace(projected, axis1=-2, axis2=-1).real
        low = z < _PROBABILITY_FLOOR
        if _any(low):
            raise DomainError(
                f"branch {branch.value} has probability {_first(z, low):.3e}, "
                f"below {_PROBABILITY_FLOOR}"
            )
        states.append(linalg.trace_to_last_qubit(projected) / z[..., None, None])
        probabilities.append(z)
    if single:
        return states[0], _scalar(probabilities[0])
    return np.stack(states), np.stack(probabilities)


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


def pauli_correction(outcome: BellOutcome, state: np.ndarray) -> np.ndarray:
    """Apply the protocol's conditional Pauli to a collapsed state."""
    from .linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z

    g = {
        BellOutcome.PSI_MINUS: IDENTITY_2,
        BellOutcome.PSI_PLUS: PAULI_Z,
        BellOutcome.PHI_MINUS: PAULI_X,
        BellOutcome.PHI_PLUS: PAULI_Y,
    }[outcome]
    return g @ state @ g.conj().T


def output_states(s: InputState, p: DotParams) -> tuple[np.ndarray, np.ndarray]:
    """Corrected output of the odd (Psi) and even (Phi) subspaces.

    The two Psi branches collapse to one state after correction and the two
    Phi branches to another; this returns that pair (rho_o, rho_e), each
    (..., 2, 2) over the state's and the parameters' broadcast shape.
    """
    e = thermal_elements(p)
    rho_o, _ = collapsed_closed_form(s, e, BellOutcome.PSI_MINUS)
    rho_e, _ = collapsed_closed_form(s, e, BellOutcome.PHI_MINUS)
    return rho_o, pauli_correction(BellOutcome.PHI_MINUS, rho_e)


def fidelity(s: InputState, rho_out: np.ndarray) -> float:
    """Transmission fidelity <psi_in| rho_out |psi_in> of a 2x2 output, or
    over a stack (..., 2, 2), with the state's and the stack's broadcast
    shape. Raises LinalgError unless ``rho_out`` is finite, each matrix 2x2,
    and its leading axes broadcast with the state's."""
    from . import linalg

    rho_out = linalg.as_complex_matrix(rho_out)
    if rho_out.shape[-2:] != (2, 2):
        raise linalg.LinalgError(f"output state must be 2x2, got {rho_out.shape}")
    psi = input_vector(s)
    try:
        value = psi.conj()[..., None, :] @ rho_out @ psi[..., :, None]
    except ValueError:  # numpy refuses leading axes that do not broadcast
        raise linalg.LinalgError(
            f"states of shape {psi.shape[:-1]} and outputs of shape {rho_out.shape} "
            "do not broadcast") from None
    return _scalar(value[..., 0, 0].real)


def subspace_fidelities(s: InputState, p: DotParams) -> tuple[float, float]:
    """(F_o, F_e): fidelity conditioned on a Psi-type or Phi-type outcome,
    as the closed forms N/z1 and N/z2 of _mean_branch_fidelity. Capped at 1
    (a singlet channel rounds to 1 + 2.2e-16); NaN for a branch of weight 0,
    whose weight is replaced by NaN before the division. The input's trig is
    libm's on floats and cells alike, so Python floats give Python floats
    with their cell's bits, and load no numpy."""
    _check_broadcast(theta=s.theta, phi=s.phi, k0=p.k0, r=p.r, T=p.T)
    return _subspace_fidelities(s, thermal_elements(p))


def _subspace_fidelities(s: InputState, e: ThermalElements) -> tuple[float, float]:
    """subspace_fidelities from the channel's thermal elements, which a sweep
    shares with its other quantities. Over arrays, libm's cos and sin are
    taken once per distinct half-angle: a theta axis repeats each of its
    values across the other axis."""
    half = s.theta / 2.0
    if _is_array(half):
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
    return tuple(_scalar(_minimum(num / _where(z > 0, z, math.nan), 1.0)) for z in (z1, z2))


def teleport_outcomes(s: InputState, p: DotParams) -> tuple[TeleportOutcome, ...]:
    """All four measurement branches with corrected outputs and fidelities;
    over a grid, each field of the state's and the parameters' broadcast
    shape."""
    e = thermal_elements(p)
    results = []
    for outcome in BellOutcome:
        state, prob = collapsed_closed_form(s, e, outcome)
        corrected = pauli_correction(outcome, state)
        results.append(
            TeleportOutcome(
                outcome=outcome,
                probability=prob,
                state=corrected,
                fidelity=fidelity(s, corrected),
            )
        )
    return tuple(results)


def _mean_branch_fidelity(e: ThermalElements, x: np.ndarray, work=None) -> np.ndarray:
    """Mean of the two subspace fidelities at polar angle arccos(x), over
    the broadcast shape of x and the elements.

    Shares its numerator between the branches:

        N = w (c^4 + s^4) + (u + v) c^2 s^2 - 2 y c^2 s^2,
        F = (N/z1 + N/z2) / 2.

    The azimuthal phase cancels out of both branch fidelities; the matrix
    route in the tests confirms that. Every intermediate is written into
    ``work``, five rows (c2, s2, cross, num, tmp) of that shape, in one
    array or as five views, and allocated here when None; the result is the
    num row, a view into ``work``, and ``x`` is only read. Each operation
    and its operand order are those of the out-of-place formula,
    so a reused workspace keeps its bits. Kept inline: in a helper shared
    with subspace_fidelities it slowed Monte Carlo by 10-20%.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    if work is None:
        work = np.empty((5, *np.broadcast_shapes(x.shape, np.shape(e.big_z))))
    c2, s2, cross, num, tmp = work
    np.multiply(0.5, np.add(1.0, x, out=c2), out=c2)
    np.multiply(0.5, np.subtract(1.0, x, out=s2), out=s2)
    np.multiply(c2, s2, out=cross)
    np.add(np.multiply(c2, c2, out=num), np.multiply(s2, s2, out=tmp), out=num)
    np.multiply(e.w, num, out=num)
    np.add(num, np.multiply(e.u + e.v, cross, out=tmp), out=num)
    np.subtract(num, np.multiply(2.0 * e.y, cross, out=tmp), out=num)
    # the branch weights as in _branch_weights: z1 into cross, z2 into tmp
    np.add(np.add(e.w, np.multiply(e.u, s2, out=cross), out=cross),
           np.multiply(e.v, c2, out=tmp), out=cross)
    np.add(np.add(e.w, np.multiply(e.v, s2, out=tmp), out=tmp),
           np.multiply(e.u, c2, out=s2), out=tmp)
    np.add(np.divide(1.0, cross, out=cross), np.divide(1.0, tmp, out=tmp), out=cross)
    return np.multiply(np.multiply(0.5, num, out=num), cross, out=num)


def average_fidelity_closed_form(p: DotParams):
    """Average fidelity over the Bloch sphere in closed form: a float for a
    scalar p, an array of the parameters' broadcast shape otherwise.

    With x = cos(theta), the integrand of _mean_branch_fidelity is
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
    a = w + 0.5 * (u + v)
    t = 0.5 * (v - u) / a
    t2 = t * t
    if _is_array(t):  # a grid: each cell takes its side of the cutoff
        import numpy as np

        big_l, k_minus_l = np.empty_like(t), np.empty_like(t)
        series = np.abs(t) < _SERIES_CUTOFF
        big_l[series], k_minus_l[series] = _series_l(t2[series])
        logs = ~series
        w_logs = np.broadcast_to(w, t.shape)[logs]  # w varies with k0 and T only
        big_l[logs], k_minus_l[logs] = _log_l(w_logs, u[logs], v[logs], a[logs], t[logs], t2[logs])
    elif abs(t) < _SERIES_CUTOFF:
        big_l, k_minus_l = _series_l(t2)
    else:
        big_l, k_minus_l = _log_l(w, u, v, a, t, t2)
    big_a = 0.5 * w - 0.25 * (u + v) + 0.5 * y
    return _scalar(w / a * big_l + big_a / a * k_minus_l)


def _series_l(t2):
    """(L, K - L) for |t| below the cutoff: K is its series sum
    t^(2k)/(2k+3), L = 1 + t^2 K, and K - L does not cancel. Floats or
    arrays, rounded alike."""
    k = _K_SERIES[-1]
    for c in _K_SERIES[-2::-1]:
        k = k * t2 + c
    big_l = 1.0 + t2 * k
    return big_l, k - big_l


def _log_l(w, u, v, a, t, t2):
    """(L, K - L) for |t| from the cutoff on: atanh(t) = (ln(w+v) - ln(w+u))/2
    from the shifted weights a + b and a - b, and K - L = (L (1 - t^2) - 1)/t^2
    with 1 - t^2 = (w+u)(w+v)/a^2. As |t| -> 1, L grows like a logarithm
    while w/a and 1 - t^2 vanish, so neither product cancels. A weight sum
    that underflows to 0 is taken at the smallest subnormal: its 1 - t^2 is
    0, which gives the polarised limit. Floats or arrays, logarithms by
    math.log either way."""
    wu, wv = w + u, w + v
    ln_wu, ln_wv = (_libm(math.log, _maximum(x, math.ulp(0.0))) for x in (wu, wv))
    big_l = 0.5 * (ln_wv - ln_wu) / t
    return big_l, (big_l * (wu * wv / (a * a)) - 1.0) / t2


def average_fidelity(p: DotParams, nodes: int = 64) -> float:
    """Average fidelity over the Bloch sphere by Gauss-Legendre quadrature:
    the quadrature oracle of average_fidelity_closed_form. A float for a
    scalar p, an array of the parameters' broadcast shape otherwise, each
    cell with the bits of its scalar call.

    The integrand does not depend on the azimuthal phase, so the sphere
    average is half the integral over cos(theta) in [-1, 1], taken with
    ``nodes`` Gauss-Legendre points; the integrand is a smooth rational
    function. With 64 nodes the error against 40-digit mpmath quadrature
    of the same integrand reaches 5.8e-9 at DotParams(4, 1.6152, 0.08127),
    the worst point of a 600x600 scan over k0 = 4, 0.04 <= T <= 2.1,
    0 <= r <= 4.5. At the same k0 and T it is at rounding level (<= 6e-16)
    for r = 0, 0.5, 1 and 3: the error sits past the level crossing
    |r| = k0/4 at low T, where it is above the package's 1e-10 tolerances.
    """
    import numpy as np

    if not isinstance(nodes, (int, np.integer)) or nodes < 2:
        raise DomainError(f"quadrature needs an integer nodes >= 2, got {nodes!r}")
    x, wx = np.polynomial.legendre.leggauss(nodes)
    # each element gains a trailing axis, along which the nodes lie
    fields = thermal_elements(p)._fields().values()
    e = ThermalElements(*(np.asarray(f)[..., None] for f in fields))
    return _scalar((_mean_branch_fidelity(e, x) * (wx / 2.0)).sum(axis=-1))


def average_fidelity_mc(
    p: DotParams, n: int = 1_000_000, seed: int = 0
) -> MonteCarloFidelity:
    """Monte Carlo estimate of the average fidelity.

    Samples cos(theta) uniform on [-1, 1] and the azimuthal phase uniform on
    [0, 2 pi), two doubles per sample, from one Philox stream read in
    fixed-size chunks. Results are reproducible for a given (n, seed);
    the seed is the Philox key, an integer in [0, 2**128). Returns the
    estimate with its standard error: floats for a scalar p, arrays of the
    parameters' broadcast shape for arrays. Every point of an array call
    reads the same samples, each chunk drawn once and evaluated at each
    point through reused buffers, so each cell has the bits of its scalar
    call whatever the other points are.

    The standard error comes from the sum of squared deviations M2. Samples
    are taken relative to the first one, so chunk means and merge deltas
    are of the size of the spread rather than of F. Each chunk gets its
    mean and M2 by two passes (the mean, then the squared deviations from
    it), and the chunks are merged in index order with the
    Chan-Golub-LeVeque update. No two large sums are subtracted; the
    one-pass form sum f^2 - n mean^2 cancels about nine digits here and
    gives 0 where the spread is small.

    The chunks run on min(2, usable CPUs, chunk count) workers: the first
    half of the chunk range on the calling thread, the rest on one helper
    thread that runs in a copy of the caller's context (numpy's errstate
    included) and whose exception is raised here. Philox is counter-based,
    and a counter step is four doubles, two samples, so the helper's own
    generator keyed by the seed starts at counter start/2 and reads exactly
    its slice of the one stream. Each worker returns every chunk's count,
    mean and M2, and the caller merges them in chunk order. The sums, the
    merge order and each sample's arithmetic are the same whichever worker
    ran a chunk, so the value and stderr have the same bits on one CPU and
    on two.

    Against the mean and stderr computed in exact rational arithmetic over
    the same samples, the mean is the correctly rounded one and the stderr
    is within 2.1e-16 relative at DotParams(2, 0.2, 0.5) with n = 2e6,
    seed = 11, and at (0.5, 0, 1), (4, 1, 0.2) and (2, 0.01, 5) with
    n = 1e6, seed = 0. That includes the zero-field point (0.5, 0, 1), whose
    spread is pure rounding (stderr 7.4e-20).
    """
    import contextvars
    import threading

    import numpy as np

    if not isinstance(n, (int, np.integer)) or n < 2:
        raise DomainError(f"Monte Carlo needs an integer n >= 2, got {n!r}")
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**128:
        raise DomainError(f"Monte Carlo seed must be an integer in [0, 2**128), got {seed!r}")
    e = thermal_elements(p)
    shape = np.shape(e.big_z)
    cells = zip(*(np.ravel(f).tolist() for f in e._fields().values()))
    points = [ThermalElements(*cell) for cell in cells]  # Python floats, as a scalar call's
    # each point's integrand at the first sample, computed as in a chunk
    x0 = 2.0 * np.random.Generator(np.random.Philox(key=seed)).random(2)[:1] - 1.0
    shift = [float(_mean_branch_fidelity(point, x0)[0]) for point in points]
    chunks = -(-n // _MC_CHUNK)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    split = -(-chunks // min(2, cpus or 1, chunks))  # the chunks the caller runs
    if split < chunks:
        context, rest, error = contextvars.copy_context(), [], []

        def helper() -> None:
            try:
                rest.extend(context.run(_mc_chunks, points, shift, seed, n, split, chunks))
            except BaseException as exc:  # raised on the calling thread below
                error.append(exc)

        thread = threading.Thread(target=helper, name="qdot-monte-carlo")
        thread.start()
        try:
            stats = _mc_chunks(points, shift, seed, n, 0, split)
        finally:
            thread.join()
        if error:
            raise error[0]
        stats += rest
    else:
        stats = _mc_chunks(points, shift, seed, n, 0, chunks)
    mean = [0.0] * len(points)  # of the shifted samples f - shift
    m2 = [0.0] * len(points)
    done = 0
    for count, per_point in stats:
        merged = done + count
        for i, (chunk_mean, chunk_m2) in enumerate(per_point):
            delta = chunk_mean - mean[i]
            mean[i] += delta * count / merged
            m2[i] += chunk_m2 + delta * delta * done * count / merged
        done = merged
    value = np.reshape([s + m for s, m in zip(shift, mean)], shape)
    stderr = np.reshape([math.sqrt(m / (n - 1) / n) for m in m2], shape)
    return MonteCarloFidelity(value=_scalar(value), stderr=_scalar(stderr), samples=n, seed=seed)


def _mc_chunks(points, shift, seed, n, first, stop):
    """(count, [(mean, M2) per point]) of chunks first to stop - 1 of the
    Monte Carlo stream, each point's samples taken relative to its shift.

    Draws from its own Philox at the first chunk's counter. Holds 2 MiB at
    the full chunk size: x, one chunk-long deviation row, and a
    (4, chunk/2) block buffer that takes the draws in two half-chunk pieces
    and then the integrand's other four rows in two half-chunk blocks, the
    num row being the deviation row's slice. Each sum runs over the whole
    chunk-long row. Calls only private helpers and numpy: the benchmark's
    tracer keeps one span stack and assumes one thread.
    """
    import numpy as np

    offset = first * _MC_CHUNK
    rng = np.random.Generator(np.random.Philox(key=seed, counter=offset // 2))
    size = min(n - offset, _MC_CHUNK)
    half = (size + 1) // 2
    x, dev, block = np.empty(size), np.empty(size), np.empty((4, half))
    pairs = block[:2].reshape(half, 2)
    c2, s2, cross, tmp = block
    stats = []
    for start in range(offset, min(n, stop * _MC_CHUNK), _MC_CHUNK):
        count = min(_MC_CHUNK, n - start)
        blocks = []
        for lo in range(0, count, half):
            hi = min(lo + half, count)
            m = hi - lo
            rng.random(out=pairs[:m])
            # The second double per sample is the azimuthal phase. The
            # closed form is phase-free, so it only fixes the stream layout.
            xs = np.subtract(np.multiply(2.0, pairs[:m, 0], out=x[lo:hi]), 1.0, out=x[lo:hi])
            blocks.append((xs, (c2[:m], s2[:m], cross[:m], dev[lo:hi], tmp[:m])))
        row = dev[:count]
        per_point = []
        for point, point_shift in zip(points, shift):
            for xs, work in blocks:
                _mean_branch_fidelity(point, xs, work)
            row -= point_shift
            chunk_mean = float(row.sum()) / count
            row -= chunk_mean
            per_point.append((chunk_mean, float(np.multiply(row, row, out=row).sum())))
        stats.append((count, per_point))
    return stats

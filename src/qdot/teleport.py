"""Standard teleportation through the dot's thermal state as the channel.

A pure input qubit cos(t/2)|1> + e^{i phi} sin(t/2)|0> is teleported with a
Bell measurement on the input and channel qubit A, followed by the usual
Pauli correction on channel qubit B. The three-qubit order is always
input (x) channel-A (x) channel-B. Outcomes in the Psi subspace are the
"odd" branch (tag "o"), the Phi subspace is the "even" branch (tag "e").

Everything is expressed through ratios of the rescaled thermal elements, so
the common Boltzmann scale never appears.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, kron, partial_trace
from .model import DomainError, DotParams, ThermalElements, _check_point, _check_real, _scalar
from .model import thermal_elements, thermal_state

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
    "average_fidelity",
    "average_fidelity_mc",
]

# Branch probabilities below this are degenerate: report, do not divide.
_PROBABILITY_FLOOR = 1e-15

# Points per quadrature block: bounds the (points x nodes) integrand.
_QUADRATURE_BLOCK = 1 << 10

# Monte Carlo samples per chunk. Chunks merge in order, so this size sets
# the merge order of the mean and M2: changing it moves their bits.
_MC_CHUNK = 1 << 16


@dataclass(frozen=True)
class InputState:
    """Bloch angles of the pure input qubit: polar theta, azimuthal phi."""

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        _check_real(theta=self.theta, phi=self.phi)


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


@dataclass(frozen=True)
class TeleportOutcome:
    """One measurement branch: probability, corrected output, and fidelity."""

    outcome: BellOutcome
    probability: float
    state: np.ndarray
    fidelity: float


@dataclass(frozen=True)
class MonteCarloFidelity:
    """Monte Carlo estimate of the average fidelity with its standard error."""

    value: float
    stderr: float
    samples: int
    seed: int


def input_vector(s: InputState) -> np.ndarray:
    """State vector of the input qubit in the {|1>, |0>} basis."""
    _check_point(s)
    return np.array(
        [math.cos(s.theta / 2.0), cmath.exp(1j * s.phi) * math.sin(s.theta / 2.0)],
        dtype=complex,
    )


def input_density(s: InputState) -> np.ndarray:
    """Rank-one density matrix of the input qubit."""
    psi = input_vector(s)
    return np.outer(psi, psi.conj())


def bell_projectors() -> dict[BellOutcome, np.ndarray]:
    """Rank-one projectors onto the four Bell states, product-basis order
    {|11>, |10>, |01>, |00>}."""
    s = 1.0 / math.sqrt(2.0)
    vectors = {
        BellOutcome.PSI_MINUS: np.array([0, s, -s, 0], dtype=complex),
        BellOutcome.PSI_PLUS: np.array([0, s, s, 0], dtype=complex),
        BellOutcome.PHI_MINUS: np.array([s, 0, 0, -s], dtype=complex),
        BellOutcome.PHI_PLUS: np.array([s, 0, 0, s], dtype=complex),
    }
    return {k: np.outer(v, v.conj()) for k, v in vectors.items()}


def joint_state(s: InputState, p: DotParams) -> np.ndarray:
    """8x8 state of input (x) channel before the measurement."""
    return kron(input_density(s), thermal_state(p))


def collapse_bruteforce(
    joint: np.ndarray, outcome: BellOutcome
) -> tuple[np.ndarray, float]:
    """Project the joint state on a Bell outcome and reduce to qubit B.

    Returns the normalized collapsed 2x2 state and the branch probability.
    Purely mechanical: projector sandwich, partial trace over the first two
    qubits, trace normalization.
    """
    m = kron(bell_projectors()[outcome], IDENTITY_2)
    projected = m @ joint @ m.conj().T
    z = float(np.trace(projected).real)
    if z < _PROBABILITY_FLOOR:
        raise DomainError(
            f"branch {outcome.value} has probability {z:.3e}, below {_PROBABILITY_FLOOR}"
        )
    reduced = partial_trace(projected, (2, 2, 2), keep=(2,))
    return reduced / z, z


def _branch_weights(e: ThermalElements, c2, s2):
    """Unnormalized Psi/Phi branch weights (z1, z2) at cos^2 and sin^2 of
    theta/2; floats or arrays alike."""
    return e.w + e.u * s2 + e.v * c2, e.w + e.v * s2 + e.u * c2


def collapsed_closed_form(
    s: InputState, e: ThermalElements, outcome: BellOutcome
) -> tuple[np.ndarray, float]:
    """Closed-form collapsed state of qubit B and the branch probability.

    The Psi branches share the weight z1, the Phi branches z2; the branch
    probability is z/(2Z). Off-diagonals differ only in sign between the
    minus and plus outcome of each subspace, and the Phi branches carry the
    conjugate azimuthal phase.
    """
    _check_point(s, e)
    c2 = math.cos(s.theta / 2.0) ** 2
    s2 = math.sin(s.theta / 2.0) ** 2
    z1, z2 = _branch_weights(e, c2, s2)
    off = 0.5 * e.y * math.sin(s.theta)
    ph = cmath.exp(-1j * s.phi)
    if outcome.subspace == "o":
        top, bot, z = e.w * c2 + e.u * s2, e.v * c2 + e.w * s2, z1
    else:
        top, bot, z, ph = e.u * c2 + e.w * s2, e.w * c2 + e.v * s2, z2, ph.conjugate()
    if outcome in (BellOutcome.PSI_MINUS, BellOutcome.PHI_MINUS):
        off = -off
    corner = off * ph

    state = np.array([[top, corner], [corner.conjugate(), bot]], dtype=complex) / z
    probability = z / (2.0 * e.big_z)
    return state, probability


_CORRECTIONS = {
    BellOutcome.PSI_MINUS: IDENTITY_2,
    BellOutcome.PSI_PLUS: PAULI_Z,
    BellOutcome.PHI_MINUS: PAULI_X,
    BellOutcome.PHI_PLUS: PAULI_Y,
}


def pauli_correction(outcome: BellOutcome, state: np.ndarray) -> np.ndarray:
    """Apply the protocol's conditional Pauli to a collapsed state."""
    g = _CORRECTIONS[outcome]
    return g @ state @ g.conj().T


def output_states(s: InputState, p: DotParams) -> tuple[np.ndarray, np.ndarray]:
    """Corrected output of the odd (Psi) and even (Phi) subspaces.

    The two Psi branches collapse to one state after correction and the two
    Phi branches to another; this returns that pair (rho_o, rho_e).
    """
    e = thermal_elements(p)
    rho_o, _ = collapsed_closed_form(s, e, BellOutcome.PSI_MINUS)
    rho_e, _ = collapsed_closed_form(s, e, BellOutcome.PHI_MINUS)
    rho_e = pauli_correction(BellOutcome.PHI_MINUS, rho_e)
    return rho_o, rho_e


def fidelity(s: InputState, rho_out: np.ndarray) -> float:
    """Transmission fidelity <psi_in| rho_out |psi_in> of a 2x2 output."""
    psi = input_vector(s)
    return float((psi.conj() @ rho_out @ psi).real)


def subspace_fidelities(s: InputState, p: DotParams) -> tuple[float, float]:
    """(F_o, F_e): fidelity conditioned on a Psi-type or Phi-type outcome,
    as the closed forms N/z1 and N/z2 of _mean_branch_fidelity. Capped at 1:
    a singlet channel rounds to 1 + 2.2e-16."""
    e = thermal_elements(p)
    c, sn = np.cos(s.theta / 2.0), np.sin(s.theta / 2.0)
    c2, s2 = c * c, sn * sn
    cross = c2 * s2
    num = e.w * (c2 * c2 + s2 * s2) + (e.u + e.v) * cross - 2.0 * e.y * cross
    z1, z2 = _branch_weights(e, c2, s2)
    return _scalar(np.minimum(num / z1, 1.0)), _scalar(np.minimum(num / z2, 1.0))


def teleport_outcomes(s: InputState, p: DotParams) -> tuple[TeleportOutcome, ...]:
    """All four measurement branches with corrected outputs and fidelities."""
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


def _mean_branch_fidelity(e: ThermalElements, x: np.ndarray) -> np.ndarray:
    """Mean of the two subspace fidelities at polar angle arccos(x).

    Shares its numerator between the branches:

        N = w (c^4 + s^4) + (u + v) c^2 s^2 - 2 y c^2 s^2,
        F = (N/z1 + N/z2) / 2.

    The azimuthal phase cancels out of both branch fidelities; the matrix
    route in the tests confirms that. Vectorized over x. Kept inline: in a
    helper shared with subspace_fidelities it slowed Monte Carlo by 10-20%.
    """
    x = np.asarray(x, dtype=float)
    c2 = 0.5 * (1.0 + x)
    s2 = 0.5 * (1.0 - x)
    cross = c2 * s2
    num = e.w * (c2 * c2 + s2 * s2) + (e.u + e.v) * cross - 2.0 * e.y * cross
    z1, z2 = _branch_weights(e, c2, s2)
    return 0.5 * num * (1.0 / z1 + 1.0 / z2)


def average_fidelity(p: DotParams, nodes: int = 64) -> float:
    """Average fidelity over the Bloch sphere by Gauss-Legendre quadrature.

    The integrand does not depend on the azimuthal phase, so the sphere
    average is half the integral over cos(theta) in [-1, 1], taken with
    ``nodes`` Gauss-Legendre points; the integrand is a smooth rational
    function. Over an array, each point's nodes are a row summed on its own,
    in blocks of _QUADRATURE_BLOCK rows, so a cell has the bits of the
    scalar call. With 64 nodes the error against 40-digit mpmath quadrature
    of the same integrand reaches 5.8e-9 at DotParams(4, 1.6152, 0.08127),
    the worst point of a 600x600 scan over k0 = 4, 0.04 <= T <= 2.1,
    0 <= r <= 4.5. At the same k0 and T it is at rounding level (<= 6e-16)
    for r = 0, 0.5, 1 and 3: the error sits past the level crossing
    |r| = k0/4 at low T, where it is above the package's 1e-10 tolerances.
    """
    if not isinstance(nodes, (int, np.integer)) or nodes < 2:
        raise DomainError(f"quadrature needs an integer nodes >= 2, got {nodes!r}")
    e = thermal_elements(p)
    cols = [np.ravel(v)[:, None] for v in vars(e).values()]
    x, wx = np.polynomial.legendre.leggauss(nodes)
    out = np.empty(len(cols[0]))
    for i in range(0, len(out), _QUADRATURE_BLOCK):
        rows = ThermalElements(*(c[i : i + _QUADRATURE_BLOCK] for c in cols))
        out[i : i + _QUADRATURE_BLOCK] = (_mean_branch_fidelity(rows, x) * (wx / 2.0)).sum(axis=-1)
    return _scalar(out.reshape(np.shape(e.big_z)))


def average_fidelity_mc(
    p: DotParams, n: int = 1_000_000, seed: int = 0
) -> MonteCarloFidelity:
    """Monte Carlo estimate of the average fidelity.

    Samples cos(theta) uniform on [-1, 1] and the azimuthal phase uniform on
    [0, 2 pi), two doubles per sample, from one Philox stream read in order
    in fixed-size chunks. Results are reproducible for a given (n, seed);
    the seed is the Philox key, an integer in [0, 2**128). It takes one
    parameter point, not arrays. Returns the estimate with its standard error.

    The standard error comes from the sum of squared deviations M2. Samples
    are taken relative to the first one, so chunk means and merge deltas
    are of the size of the spread rather than of F. Each chunk gets its
    mean and M2 by two passes (the mean, then the squared deviations from
    it), and the chunks are merged in index order with the
    Chan-Golub-LeVeque update. No two large sums are subtracted; the
    one-pass form sum f^2 - n mean^2 cancels about nine digits here and
    gives 0 where the spread is small.

    Against the mean and stderr computed in exact rational arithmetic over
    the same samples, the mean is the correctly rounded one and the stderr
    is within 2.1e-16 relative at DotParams(2, 0.2, 0.5) with n = 2e6,
    seed = 11, and at (0.5, 0, 1), (4, 1, 0.2) and (2, 0.01, 5) with
    n = 1e6, seed = 0. That includes the zero-field point (0.5, 0, 1), whose
    spread is pure rounding (stderr 7.4e-20).
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise DomainError(f"Monte Carlo needs an integer n >= 2, got {n!r}")
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**128:
        raise DomainError(f"Monte Carlo seed must be an integer in [0, 2**128), got {seed!r}")
    _check_point(p)
    e = thermal_elements(p)
    rng = np.random.Generator(np.random.Philox(key=seed))
    shift = 0.0
    done = 0
    mean = 0.0  # of the shifted samples f - shift
    m2 = 0.0
    for start in range(0, n, _MC_CHUNK):
        count = min(_MC_CHUNK, n - start)
        u01 = rng.random((count, 2))
        x = 2.0 * u01[:, 0] - 1.0
        # The second double per sample is the azimuthal phase. The closed
        # form is phase-free, so it only fixes the stream layout.
        dev = _mean_branch_fidelity(e, x)
        if start == 0:
            shift = float(dev[0])
        dev -= shift
        chunk_mean = float(dev.sum()) / count
        dev -= chunk_mean
        chunk_m2 = float((dev * dev).sum())
        merged = done + count
        delta = chunk_mean - mean
        mean += delta * count / merged
        m2 += chunk_m2 + delta * delta * done * count / merged
        done = merged
    var = m2 / (n - 1)
    return MonteCarloFidelity(
        value=shift + mean, stderr=math.sqrt(var / n), samples=n, seed=seed
    )

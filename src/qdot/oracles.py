"""Brute-force routes: the oracles the closed forms are checked against.

Each oracle reaches a closed form's result by a route of its own: the Gibbs
state by diagonalizing the Hamiltonian matrix, the concurrence of any
two-qubit state by Wootters' algorithm, the collapsed branches by 8x8 Bell
projection and a partial trace, their Pauli correction by matrix products,
and the sphere-average fidelity F_a by Gauss-Legendre quadrature and by
Monte Carlo over its integrand. Their value is that independence, so an
oracle shares no formula with the closed form it checks, and no closed-form
module (model, entanglement, teleport, sweep) imports this one or linalg:
verify and the tests do.

The public model and linalg functions called here are looked up on their
modules at call time, so a wrapper installed on those modules after import,
as qdotbench's layer tracer installs them, sees every call.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Sequence

import numpy as np

from . import linalg, model
from .linalg import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z
from .model import DomainError, DotParams, ThermalElements, _Record, _any, _check_broadcast
from .model import _first, _libm, _scalar
from .teleport import BellOutcome, InputState, _complex

__all__ = [
    "hamiltonian_matrix",
    "thermal_state_oracle",
    "ConcurrenceResult",
    "wootters_concurrence",
    "MonteCarloFidelity",
    "input_density",
    "bell_projectors",
    "joint_state",
    "collapse_bruteforce",
    "pauli_correction",
    "fidelity",
    "average_fidelity",
    "average_fidelity_mc",
]

# Branch probabilities below this are degenerate: report, do not divide.
_PROBABILITY_FLOOR = 1e-15

# Monte Carlo samples per chunk. Chunks merge in order, so this size sets
# the merge order of the mean and M2: changing it moves their bits. It is
# even, so every chunk starts on a Philox counter step (two samples).
_MC_CHUNK = 1 << 16


def hamiltonian_matrix(p: DotParams) -> np.ndarray:
    """4x4 Hamiltonian in the product basis, assembled from spin operators;
    over a grid of k0 and r, a stack (..., 4, 4). Raises DomainError where an
    entry overflows, as k0/16 - r does at k0 = -r = 1.7e308."""
    kron = linalg.kron
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
    rho = linalg.validate_density_matrix(rho, name="input state")
    if rho.shape[-2:] != (4, 4):
        raise linalg.LinalgError(f"concurrence needs a 4x4 state, got {rho.shape}")
    evals, vecs = np.linalg.eigh(linalg._hermitian_part(rho))
    root_p = np.sqrt(np.clip(evals, 0.0, None))
    yy = linalg.kron(PAULI_Y, PAULI_Y)
    flip_overlap = linalg._adjoint(vecs) @ yy @ vecs.conj()
    d = root_p[..., :, None] * flip_overlap * root_p[..., None, :]
    lams = np.linalg.svd(d, compute_uv=False)
    values = np.maximum(lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3], 0.0)
    return ConcurrenceResult(value=_scalar(values), lambdas=lams)


class MonteCarloFidelity(_Record):
    """Monte Carlo estimate of the average fidelity with its standard error;
    value and stderr are floats for one point, arrays over a grid."""

    __slots__ = ("value", "stderr", "samples", "seed")

    def __init__(self, value: float, stderr: float, samples: int, seed: int) -> None:
        _Record.__init__(self, value, stderr, samples, seed)


def input_vector(s: InputState) -> np.ndarray:
    """State vector of the input qubit in the {|1>, |0>} basis, (..., 2). The
    phase has cmath.exp(1j * phi)'s bits, its sine taken at 0.0 + phi."""
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
    _check_broadcast(theta=s.theta, phi=s.phi, k0=p.k0, r=p.r, T=p.T)
    return linalg.kron(input_density(s), model.thermal_state(p))


@functools.cache
def _lifted_projector(outcome: BellOutcome) -> np.ndarray:
    """The outcome's Bell projector lifted to 8x8 as P (x) I, built once and
    read-only."""
    m = linalg.kron(bell_projectors()[outcome], IDENTITY_2)
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


def pauli_correction(outcome: BellOutcome, state: np.ndarray) -> np.ndarray:
    """Apply the protocol's conditional Pauli g to a collapsed state, or to
    each of a (..., 2, 2) stack, as g state g^dag: I, Z, X and Y after
    Psi-, Psi+, Phi- and Phi+. The matrix route of the correction that
    teleport.output_states writes as an index reversal."""
    g = {
        BellOutcome.PSI_MINUS: IDENTITY_2,
        BellOutcome.PSI_PLUS: PAULI_Z,
        BellOutcome.PHI_MINUS: PAULI_X,
        BellOutcome.PHI_PLUS: PAULI_Y,
    }[outcome]
    return g @ state @ g.conj().T


def fidelity(s: InputState, rho_out: np.ndarray) -> float:
    """Transmission fidelity <psi_in| rho_out |psi_in> of a 2x2 output, or
    over a stack (..., 2, 2), with the state's and the stack's broadcast
    shape. Raises LinalgError unless ``rho_out`` is finite, each matrix 2x2,
    and its leading axes broadcast with the state's."""
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
    # the branch weights z1 = w + u s2 + v c2 into cross, z2 = w + v s2 + u c2 into tmp
    np.add(np.add(e.w, np.multiply(e.u, s2, out=cross), out=cross),
           np.multiply(e.v, c2, out=tmp), out=cross)
    np.add(np.add(e.w, np.multiply(e.v, s2, out=tmp), out=tmp),
           np.multiply(e.u, c2, out=s2), out=tmp)
    np.add(np.divide(1.0, cross, out=cross), np.divide(1.0, tmp, out=tmp), out=cross)
    return np.multiply(np.multiply(0.5, num, out=num), cross, out=num)


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
    if not isinstance(nodes, (int, np.integer)) or nodes < 2:
        raise DomainError(f"quadrature needs an integer nodes >= 2, got {nodes!r}")
    x, wx = np.polynomial.legendre.leggauss(nodes)
    # each element gains a trailing axis, along which the nodes lie
    fields = model.thermal_elements(p)._fields().values()
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

    if not isinstance(n, (int, np.integer)) or n < 2:
        raise DomainError(f"Monte Carlo needs an integer n >= 2, got {n!r}")
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**128:
        raise DomainError(f"Monte Carlo seed must be an integer in [0, 2**128), got {seed!r}")
    e = model.thermal_elements(p)
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

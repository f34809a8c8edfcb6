"""Independent reference values for the benchmark's output checks.

Nothing here imports qdot. The Hamiltonian is assembled from Pauli
matrices, the Gibbs state comes from a numerical diagonalisation, the
concurrence from Wootters' formula in its singular-value form, and the
teleported state from an explicit Bell projection of the 8x8 joint state,
a partial trace and a Pauli correction. Every function takes arrays of
parameter points and works on all of them at once.

Conventions: the one-qubit basis is (|1>, |0>) with |1> spin up, so
sigma_z = diag(1, -1); two-qubit states are ordered |11>, |10>, |01>, |00>;
the three-qubit order in teleportation is input, channel A, channel B.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

_H = 1.0 / np.sqrt(2.0)
# Bell vectors on (input, channel A), with the Pauli on channel B that
# returns the input when the channel is the singlet. Psi-type outcomes are
# the odd subspace, Phi-type the even one.
BELL = {
    "PsiMinus": (np.array([0, _H, -_H, 0], dtype=complex), I2),
    "PsiPlus": (np.array([0, _H, _H, 0], dtype=complex), SZ),
    "PhiMinus": (np.array([_H, 0, 0, -_H], dtype=complex), SX),
    "PhiPlus": (np.array([_H, 0, 0, _H], dtype=complex), SY),
}
ODD = ("PsiMinus", "PsiPlus")
EVEN = ("PhiMinus", "PhiPlus")


def hamiltonian(k0, r) -> np.ndarray:
    """(n, 4, 4) matrices (k0/4) S1.S2 - r (S1z + S2z) with S = sigma/2."""
    k0 = np.atleast_1d(np.asarray(k0, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    exchange = sum(np.kron(s, s) for s in (SX, SY, SZ)) / 4.0
    zeeman = (np.kron(SZ, I2) + np.kron(I2, SZ)) / 2.0
    return (k0[:, None, None] / 4.0) * exchange - r[:, None, None] * zeeman


def gibbs_state(k0, r, T) -> np.ndarray:
    """(n, 4, 4) states exp(-H/T)/Z, by diagonalising H.

    Energies are shifted by the ground energy before exponentiating, so the
    weights stay finite at any T > 0.
    """
    T = np.atleast_1d(np.asarray(T, dtype=float))
    energies, vectors = np.linalg.eigh(hamiltonian(k0, r))
    weights = np.exp(-(energies - energies[:, :1]) / T[:, None])
    weights /= weights.sum(axis=1, keepdims=True)
    return (vectors * weights[:, None, :]) @ vectors.conj().swapaxes(1, 2)


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh(rho)
    root = np.sqrt(np.clip(evals, 0.0, None))
    return (vecs * root[:, None, :]) @ vecs.conj().swapaxes(1, 2)


def wootters_concurrence(rho: np.ndarray) -> np.ndarray:
    """Concurrence max(0, l1 - l2 - l3 - l4) of (n, 4, 4) states.

    The l_i are the square roots of the eigenvalues of rho (Y rho* Y), with
    Y = sigma_y x sigma_y. They are the singular values of
    sqrt(rho) Y sqrt(rho)*, which keeps the small ones at rounding size
    instead of sqrt(rounding).
    """
    yy = np.kron(SY, SY)
    root = _psd_sqrt(rho)
    lam = np.linalg.svd(root @ yy @ root.conj(), compute_uv=False)
    return np.maximum(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3], 0.0)


def concurrence(k0, r, T) -> np.ndarray:
    """Thermal concurrence by the Gibbs-plus-Wootters route."""
    return wootters_concurrence(gibbs_state(k0, r, T))


def channel_maps(rho: np.ndarray) -> dict[str, np.ndarray]:
    """Teleportation maps of (n, 4, 4) channel states, one per outcome.

    ``maps[k][:, i, j]`` is the unnormalised, Pauli-corrected state of
    channel qubit B after outcome k, for the input operator |i><j|: the
    8x8 joint state |i><j| x rho is projected on the Bell vector of k,
    channel B is kept by a partial trace over the first two qubits, and
    the correction is applied. Every input state's output is the linear
    combination of these with the input's matrix entries.
    """
    n = rho.shape[0]
    maps = {}
    for name, (bell, pauli) in BELL.items():
        proj = np.kron(np.outer(bell, bell.conj()), I2)
        out = np.empty((n, 2, 2, 2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                joint = np.einsum("ab,ncd->nacbd", unit, rho).reshape(n, 8, 8)
                projected = (proj @ joint @ proj).reshape(n, 4, 2, 4, 2)
                reduced = np.einsum("nkakb->nab", projected)
                out[:, i, j] = pauli @ reduced @ pauli.conj().T
        maps[name] = out
    return maps


def subspace_fidelities(k0, r, T, theta, phi):
    """(F_o, F_e) for the input cos(theta/2)|1> + e^{i phi} sin(theta/2)|0>.

    Each is <psi| out |psi> / tr(out) with ``out`` the summed corrected
    output of the two outcomes of the subspace.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    psi = np.stack(
        [np.cos(theta / 2.0) + 0j, np.exp(1j * phi) * np.sin(theta / 2.0)], axis=1
    )
    rho_in = psi[:, :, None] * psi.conj()[:, None, :]
    maps = channel_maps(gibbs_state(k0, r, T))

    def fidelity(names):
        out = sum(np.einsum("nij,nijab->nab", rho_in, maps[k]) for k in names)
        num = np.einsum("na,nab,nb->n", psi.conj(), out, psi).real
        return num / np.einsum("naa->n", out).real

    return fidelity(ODD), fidelity(EVEN)


def _graded_rule(levels: int = 60, order: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Nodes d in (0, 1] and weights for integrating over d.

    Gauss-Legendre panels [2^-(k+1), 2^-k] for k < levels, halving toward
    d = 0: a pole at distance delta >= 0 below d = 0 then always lies at
    least one panel width from the panel, so each panel converges like
    5.8^(-2 order) whatever delta is. The last 2^-levels is left out; the
    integrands here are bounded by 1, so it costs below 1e-18.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for k in range(levels):
        lo, hi = 2.0 ** -(k + 1), 2.0 ** -k
        nodes.append(lo + (hi - lo) * (x + 1.0) / 2.0)
        weights.append(w * (hi - lo) / 2.0)
    return np.concatenate(nodes), np.concatenate(weights)


def average_fidelity(k0, r, T) -> np.ndarray:
    """Average over the Bloch sphere of (F_o + F_e)/2, by the route above.

    With c2 = cos^2(theta/2), s2 = sin^2(theta/2), the numerator of each
    subspace fidelity is a polynomial in c, s and e^{+-i phi}; averaging
    over phi keeps its phase-free terms, c2^2 M0000 + s2^2 M1111 +
    c2 s2 (M0011 + M1100 + M0101 + M1010) with M[i, j, a, b] the (a, b)
    entry of the map of |i><j|. The trace of the output is c2 tr M00 +
    s2 tr M11 plus phase terms in tr M01, which the X-shaped thermal state
    makes vanish (checked here). The polar integral runs over
    x = cos(theta) on [-1, 1], split at 0, with the graded rule toward both
    ends, where the branch weights can come close to zero. 1 + x and 1 - x
    are formed from the distance to the end, so they keep full precision.
    """
    maps = channel_maps(gibbs_state(k0, r, T))
    d, wd = _graded_rule()
    # Left half: 1 + x = d; right half: 1 - x = d.
    one_plus = np.concatenate([d, 2.0 - d])
    one_minus = np.concatenate([2.0 - d, d])
    weights = np.concatenate([wd, wd])
    c2 = one_plus[None, :] / 2.0
    s2 = one_minus[None, :] / 2.0

    def branch(names):
        m = sum(maps[k] for k in names)
        off = np.abs(np.einsum("naa->n", m[:, 0, 1])).max()
        scale = np.abs(m).max()
        if off > 1e-13 * scale:
            raise ValueError(f"output trace depends on phi (|tr M01| = {off:.3e})")
        def col(a):
            return a.real[:, None]

        num = (
            c2 * c2 * col(m[:, 0, 0, 0, 0])
            + s2 * s2 * col(m[:, 1, 1, 1, 1])
            + c2 * s2 * col(m[:, 0, 0, 1, 1] + m[:, 1, 1, 0, 0]
                            + m[:, 0, 1, 0, 1] + m[:, 1, 0, 1, 0])
        )
        den = c2 * col(np.einsum("naa->n", m[:, 0, 0])) + s2 * col(
            np.einsum("naa->n", m[:, 1, 1])
        )
        return num / den

    mean = 0.5 * (branch(ODD) + branch(EVEN))
    return 0.5 * (mean @ weights)

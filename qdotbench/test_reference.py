"""Tests of the benchmark's reference against closed values.

    python3 -m pytest -q qdotbench/test_reference.py
"""

import math

import mpmath
import numpy as np
import pytest

import reference


def _arr(*values):
    return [np.array(v, dtype=float) for v in values]


@pytest.mark.parametrize("k0,T", [(4.0, 0.5), (4.0, 2.0), (1.0, 0.05), (10.0, 3.0), (0.5, 0.1)])
def test_zero_field_concurrence_closed_form(k0, T):
    # C(r = 0) = max(0, (e^{k0/4T} - 3) / (e^{k0/4T} + 3)).
    e = math.exp(k0 / (4.0 * T))
    expected = max(0.0, (e - 3.0) / (e + 3.0))
    assert reference.concurrence(*_arr([k0], [0.0], [T]))[0] == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("k0", [1.0, 4.0, 10.0])
@pytest.mark.parametrize("share", [0.0, 0.5, 2.0])
def test_concurrence_vanishes_at_critical_temperature(k0, share):
    # Tc = k0 / (4 ln 3), whatever the field, also past the crossing k0/4.
    tc = k0 / (4.0 * math.log(3.0))
    r = share * k0 / 4.0
    below, above = reference.concurrence(*_arr([k0, k0], [r, r], [tc * 0.999, tc * 1.001]))
    assert below > 0.0
    assert above == 0.0


def test_ferromagnetic_coupling_never_entangles():
    k0, r, T = _arr([-4.0, -1.0, -0.1], [0.0, 0.5, 3.0], [0.05, 1.0, 0.2])
    assert (reference.concurrence(k0, r, T) == 0.0).all()


def test_singlet_channel_is_perfect():
    # Every outcome has probability 1/4 and, after its correction, returns
    # the input exactly.
    singlet = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2.0)
    rho = np.outer(singlet, singlet.conj())[None]
    maps = reference.channel_maps(rho)
    rng = np.random.default_rng(5)
    for theta, phi in rng.uniform(0, math.pi, (6, 2)):
        psi = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
        rho_in = np.outer(psi, psi.conj())
        for m in maps.values():
            out = np.einsum("ij,ijab->ab", rho_in, m[0])
            assert np.trace(out).real == pytest.approx(0.25, abs=1e-15)
            assert np.abs(out / np.trace(out) - rho_in).max() < 1e-15


@pytest.mark.parametrize("k0,T", [(4.0, 0.5), (2.0, 0.2), (0.5, 1.0), (-1.0, 0.3), (4.0, 50.0)])
def test_zero_field_fidelities_are_the_werner_value(k0, T):
    # At r = 0 the Gibbs state is a Werner state with singlet fraction f, and
    # every input teleports with fidelity (2f + 1)/3.
    singlet = math.exp(3.0 * k0 / (16.0 * T))
    f = singlet / (singlet + 3.0 * math.exp(-k0 / (16.0 * T)))
    expected = (2.0 * f + 1.0) / 3.0
    n = 4
    f_o, f_e = reference.subspace_fidelities(
        *_arr([k0] * n, [0.0] * n, [T] * n, [0.0, 1.0, 2.0, math.pi], [0.0, 0.7, 3.0, 5.0]))
    f_a = reference.average_fidelity(*_arr([k0], [0.0], [T]))
    assert np.abs(f_o - expected).max() < 1e-14
    assert np.abs(f_e - expected).max() < 1e-14
    assert abs(f_a[0] - expected) < 1e-14


def _average_fidelity_mpmath(k0, r, T):
    """F_a from the Boltzmann weights, integrated by mpmath at 40 digits."""
    mpmath.mp.dps = 40
    k0, r, T = (mpmath.mpf(x) for x in (k0, r, T))
    u = mpmath.exp((16 * r - k0) / (16 * T))  # |11>
    v = mpmath.exp(-(16 * r + k0) / (16 * T))  # |00>
    trip = mpmath.exp(-k0 / (16 * T))
    sing = mpmath.exp(3 * k0 / (16 * T))
    w, y = (trip + sing) / 2, (trip - sing) / 2

    def mean_fidelity(x):
        c2, s2 = (1 + x) / 2, (1 - x) / 2
        num = w * (c2 ** 2 + s2 ** 2) + (u + v - 2 * y) * c2 * s2
        return num * (1 / (w + u * s2 + v * c2) + 1 / (w + v * s2 + u * c2)) / 2

    return mpmath.quad(mean_fidelity, [-1, 0, 1]) / 2


@pytest.mark.parametrize("k0,r,T", [
    (4.0, 2.1224489795918364, 0.15),  # qdot's 64-node rule is off by 5.7e-9 here
    (4.0, 1.6151919866444073, 0.08126878130217029),
    (1.894, -1.261, 0.127),
    (4.0, 4.2, 0.05),
    (2.0, 0.2, 0.5),
    (-1.0, 1.0, 0.3),
])
def test_average_fidelity_against_mpmath(k0, r, T):
    got = reference.average_fidelity(*_arr([k0], [r], [T]))[0]
    assert abs(got - float(_average_fidelity_mpmath(k0, r, T))) < 1e-14

"""Tests for concurrence routines and the critical temperature."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdot
from qdot.entanglement import (
    critical_temperature,
    ground_state_concurrence,
    model_concurrence,
    wootters_concurrence,
    xstate_concurrence,
)
from qdot.linalg import PAULI_Y, LinalgError, kron
from qdot.model import DomainError, DotParams, thermal_elements, thermal_state, thermal_state_oracle
from qdot.verify import bisect_critical_temperature

SINGLET = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)


def wootters_reference(rho):
    """Textbook route: eigenvalues of sqrt(rho) rho~ sqrt(rho).

    Slower and noisier than the production code but completely independent
    of it, so it serves as an oracle.
    """
    yy = kron(PAULI_Y, PAULI_Y)
    rho_tilde = yy @ rho.conj() @ yy
    evals, vecs = np.linalg.eigh(rho)
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    m = root @ rho_tilde @ root
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    lams = np.sqrt(np.clip(evals, 0.0, None))[::-1]
    return max(lams[0] - lams[1] - lams[2] - lams[3], 0.0)


def random_density(rng, rank=4):
    a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def werner_state(p):
    return p * np.outer(SINGLET, SINGLET.conj()) + (1 - p) * np.eye(4) / 4


def test_concurrence_results_compare_by_value():
    # the lambdas are arrays: == compares them as arrays and gives a bool
    a = wootters_concurrence(thermal_state(DotParams(4, 1, 0.5)))
    b = wootters_concurrence(thermal_state(DotParams(4, 1, 0.5)))
    assert a.lambdas is not b.lambdas
    assert (a == b) is True and (a != b) is False
    c = wootters_concurrence(thermal_state(DotParams(4, 1, 0.6)))
    assert (a == c) is False and a != c
    stack = wootters_concurrence(thermal_state(DotParams(np.array([4.0, 2.0]), 1, 0.5)))
    assert stack == wootters_concurrence(thermal_state(DotParams(np.array([4.0, 2.0]), 1, 0.5)))
    assert (stack == a) is False and (a == "C") is False


def test_wootters_bell_state():
    res = wootters_concurrence(np.outer(SINGLET, SINGLET.conj()))
    assert abs(res.value - 1.0) < 1e-12
    np.testing.assert_allclose(res.lambdas, (1.0, 0.0, 0.0, 0.0), atol=1e-8)


def test_wootters_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |11><11|
    assert wootters_concurrence(rho).value == 0.0


def test_wootters_werner_family():
    assert abs(wootters_concurrence(werner_state(0.8)).value - 0.7) < 1e-12
    for p in np.linspace(0.0, 1.0, 21):
        expected = max(0.0, (3 * p - 1) / 2)
        assert abs(wootters_concurrence(werner_state(p)).value - expected) < 1e-12


def test_wootters_random_states_internal_consistency():
    rng = np.random.default_rng(8)
    for _ in range(30):
        res = wootters_concurrence(random_density(rng))
        lams = np.array(res.lambdas)
        assert np.all(np.diff(lams) <= 1e-14)
        want = max(lams[0] - lams[1] - lams[2] - lams[3], 0.0)
        assert abs(res.value - want) < 1e-12


def test_wootters_matches_reference_route():
    rng = np.random.default_rng(9)
    for rank in (4, 2, 1):
        for _ in range(15):
            rho = random_density(rng, rank=rank)
            got = wootters_concurrence(rho).value
            assert abs(got - wootters_reference(rho)) < 1e-7


def test_wootters_pure_state_closed_form():
    # for |psi> = a|11> + b|10> + c|01> + d|00>, C = 2|ad - bc|
    rng = np.random.default_rng(10)
    for _ in range(25):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        expected = 2 * abs(psi[0] * psi[3] - psi[1] * psi[2])
        assert abs(wootters_concurrence(rho).value - expected) < 1e-10


def test_wootters_rejects_non_state_input():
    with pytest.raises(LinalgError):
        wootters_concurrence(np.eye(4, dtype=complex))  # trace 4
    with pytest.raises(LinalgError):
        wootters_concurrence(np.eye(3, dtype=complex) / 3)  # wrong dimension
    with pytest.raises(LinalgError, match="negative eigenvalue"):
        wootters_concurrence(np.diag([0.6, 0.3, 0.2, -0.1]))  # Hermitian, unit trace


def test_xstate_uncoupled_point_is_separable():
    e = thermal_elements(DotParams(k0=0.0, r=0.0, T=1.0))
    assert xstate_concurrence(e) == 0.0


def test_xstate_boundary_elements_give_exact_zero():
    # |y| = sqrt(u v) exactly, so the clamp must return 0.0 rather than a
    # small negative residue
    e = thermal_elements(DotParams(k0=0.0, r=0.0, T=1.0))
    boundary = type(e)(u=0.25, v=0.25, w=0.5, y=-0.25, big_z=1.5, log_scale=0.0)
    assert xstate_concurrence(boundary) == 0.0


def test_xstate_broadcasts_with_scalar_bits():
    k0, r, T = (g.ravel() for g in np.meshgrid((-4.0, 0.5, 4.0), (0.0, 1.0), (0.05, 1.0)))
    cells = xstate_concurrence(thermal_elements(DotParams(k0, r, T)))
    points = zip(k0.tolist(), r.tolist(), T.tolist())
    assert cells.tolist() == [xstate_concurrence(thermal_elements(DotParams(*pt))) for pt in points]


def test_three_concurrence_routes_agree():
    for k0 in (-4.0, -1.0, 0.5, 2.0, 4.0, 16.0):
        for r in (0.0, 0.4, 1.0, 3.0):
            for T in (0.05, 0.3, 1.0, 4.0):
                p = DotParams(k0=k0, r=r, T=T)
                c_model = model_concurrence(p)
                c_x = xstate_concurrence(thermal_elements(p))
                c_w = wootters_concurrence(thermal_state_oracle(p)).value
                assert abs(c_model - c_x) < 1e-12
                assert abs(c_model - c_w) < 1e-10
                if k0 <= 0:
                    assert c_model == 0.0


def test_model_concurrence_frozen_value():
    # regression pin, originally cross-checked against the Gibbs-state oracle
    got = model_concurrence(DotParams(k0=16.0, r=1.0, T=1.0))
    assert abs(got - 0.8792494772057509) < 1e-14
    oracle = wootters_concurrence(thermal_state_oracle(DotParams(16.0, 1.0, 1.0)))
    assert abs(got - oracle.value) < 1e-10


def test_model_concurrence_vanishes_at_critical_temperature():
    for k0 in (1.0, 4.0, 10.0):
        tc = critical_temperature(k0)
        assert model_concurrence(DotParams(k0=k0, r=0.5, T=tc)) < 1e-12
        assert model_concurrence(DotParams(k0=k0, r=0.5, T=tc + 1e-6)) == 0.0
        assert model_concurrence(DotParams(k0=k0, r=0.5, T=tc - 1e-3)) > 0.0


def test_model_concurrence_zero_temperature_dispatch():
    assert model_concurrence(DotParams(k0=4.0, r=0.5, T=0.0)) == 1.0
    assert model_concurrence(DotParams(k0=4.0, r=1.0, T=0.0)) == 0.5
    assert model_concurrence(DotParams(k0=4.0, r=2.0, T=0.0)) == 0.0


def test_ground_state_cases():
    assert ground_state_concurrence(4.0, 0.0) == 1.0
    assert ground_state_concurrence(4.0, 0.999) == 1.0
    assert ground_state_concurrence(4.0, 1.0) == 0.5  # exactly at r = k0/4
    assert ground_state_concurrence(4.0, 1.0 + 1e-12) == 0.0
    assert ground_state_concurrence(-4.0, 0.0) == 0.0
    assert ground_state_concurrence(0.0, 0.0) == 0.0
    assert ground_state_concurrence(4.0, -1.0) == 0.5  # field sign is irrelevant


def _case_analysis(k0, r):
    """The ground-state concurrence by cases against the rounded boundary
    k0/4, as ground_state_concurrence computed it before T = 0 became a cell
    of model_concurrence; exact wherever k0/4 is, that is for |k0| >= 2^-1020."""
    if k0 <= 0:
        return 0.0
    return 1.0 if abs(r) < k0 / 4.0 else 0.5 if abs(r) == k0 / 4.0 else 0.0


def _ulps(x, n):
    """x and the n floats on each side of it."""
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


@pytest.mark.parametrize("k0", [4.0, 3.0, 0.1, 1e-300, 2.0**-1020, 1e300, 1.7e308, sys.float_info.max])
def test_ground_state_ties_follow_the_case_analysis(k0):
    # |r| at k0/4 and 1-2 ulps either side, field of either sign, both
    # couplings' signs: the exact sign tests give the cases' values
    for r in _ulps(k0 / 4.0, 2):
        for kk, rr in ((k0, r), (k0, -r), (-k0, r)):
            want = _case_analysis(kk, rr)
            assert ground_state_concurrence(kk, rr) == want
            assert model_concurrence(DotParams(kk, rr, 0.0)) == want
            assert ground_state_concurrence(np.array([kk]), np.array([rr])).tolist() == [want]


def test_ground_state_of_subnormal_couplings():
    # below 2^-1020 the rounded k0/4 is not the boundary: the exact test of
    # 4|r| against k0 decides, where the case analysis gave 1/2
    tiny = 5e-324
    assert _case_analysis(2 * tiny, 0.0) == 0.5  # k0/4 rounds to 0
    assert ground_state_concurrence(2 * tiny, 0.0) == 1.0  # the singlet alone
    assert _case_analysis(3 * tiny, tiny) == 0.5  # k0/4 rounds to tiny
    assert ground_state_concurrence(3 * tiny, tiny) == 0.0  # |11> alone: 4r > k0
    assert ground_state_concurrence(4 * tiny, -tiny) == 0.5  # 4|r| = k0, a true tie
    assert ground_state_concurrence(tiny, 0.0) == 1.0


def test_zero_temperature_limits_are_reached_smoothly():
    # T = 1e-3 sits deep in the ground state away from the level crossing
    assert abs(model_concurrence(DotParams(k0=4.0, r=0.5, T=1e-3)) - 1.0) < 1e-3
    assert abs(model_concurrence(DotParams(k0=4.0, r=2.0, T=1e-3))) < 1e-3


def test_concurrence_even_in_field():
    for k0 in (0.5, 2.0, 4.0, 16.0):
        for r in (0.1, 0.7, 1.5, 4.0):
            for T in (0.05, 0.5, 2.0):
                a = model_concurrence(DotParams(k0=k0, r=r, T=T))
                b = model_concurrence(DotParams(k0=k0, r=-r, T=T))
                assert abs(a - b) < 1e-12


def test_concurrence_decreases_with_temperature():
    for k0 in (4.0, 5.0, 10.0):
        tc = critical_temperature(k0)
        grid = np.arange(0.05, tc, 0.05)
        vals = [model_concurrence(DotParams(k0=k0, r=1.0, T=t)) for t in grid]
        assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))


def test_weak_coupling_reentrant_branch():
    # k0 = 3, r = 1 has an unentangled ground state; heating first creates
    # entanglement, then destroys it again
    assert model_concurrence(DotParams(k0=3.0, r=1.0, T=0.01)) < 1e-3
    grid = np.arange(0.05, 0.7, 0.01)
    vals = [model_concurrence(DotParams(k0=3.0, r=1.0, T=t)) for t in grid]
    assert max(vals) > 0.1
    assert model_concurrence(DotParams(k0=3.0, r=1.0, T=0.7)) == 0.0


def test_critical_temperature_values():
    assert critical_temperature(-1.0) is None
    assert critical_temperature(0.0) is None
    assert abs(critical_temperature(4.0) - 0.9102392266268373) < 1e-15
    assert critical_temperature(4.0 * math.log(3.0)) == 1.0
    np.testing.assert_allclose(critical_temperature(1.0), 1 / (4 * math.log(3.0)))
    # over an array: NaN where there is no transition, the scalar bits elsewhere
    k0s = [-1.0, 0.0, 1.0, 4.0, 4.0 * math.log(3.0), 1e308]
    tc = critical_temperature(np.array(k0s))
    assert tc.shape == (6,) and np.isnan(tc[:2]).all()
    assert tc[2:].tolist() == [critical_temperature(k0) for k0 in k0s[2:]]
    # a bisection bracket that does not straddle Tc is a domain error
    with pytest.raises(DomainError, match="bracket low end"):
        bisect_critical_temperature(-1.0, 0.0)
    with pytest.raises(DomainError, match="bracket high end"):
        bisect_critical_temperature(4.0, 0.0, hi=0.5)


# (k0, r, lo, hi): one ulp at Tc = 9.1e6 exceeds 1e-9, Tc = 2.3e-13 is far
# below it, and lo + hi overflows in the last bracket
_BRACKETS = (
    (4e7, 0.0, 1e6, 1e8),
    (4.0, 0.0, 0.02, 3.0),
    (1e-12, 0.0, 1e-14, 1e-12),
    (1.6e308, 0.0, 1e307, 1.7e308),
)


def test_bisection_ends_at_adjacent_doubles():
    # a bisection that stops on a bracket width can loop forever, so the
    # calls run in a child process that the timeout ends
    code = (
        "from qdot.verify import bisect_critical_temperature as b; "
        f"print([b(k0, r, lo=lo, hi=hi) for k0, r, lo, hi in {_BRACKETS!r}])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qdot.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert child.returncode == 0, child.stderr
    for (k0, *_), root in zip(_BRACKETS, ast.literal_eval(child.stdout)):
        expected = critical_temperature(k0)
        assert abs(root - expected) <= 2 * math.ulp(expected), (k0, root, expected)


def test_transition_consistency_on_grid():
    # concurrence is positive strictly below the critical temperature and
    # zero strictly above it, for any field strength
    for k0 in (1.0, 4.0, 10.0):
        tc = critical_temperature(k0)
        for r in (0.0, 1.0, 4.0):
            for frac in (0.5, 0.9, 0.99):
                assert model_concurrence(DotParams(k0, r, frac * tc)) > 0.0
            for frac in (1.01, 1.5, 3.0):
                assert model_concurrence(DotParams(k0, r, frac * tc)) == 0.0


def test_wootters_on_thermal_state_not_just_oracle():
    # the closed-form X matrix feeds the general routine without complaint
    p = DotParams(k0=4.0, r=1.0, T=0.5)
    got = wootters_concurrence(thermal_state(p)).value
    assert abs(got - model_concurrence(p)) < 1e-12

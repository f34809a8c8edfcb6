"""Tests for the Hamiltonian, spectrum, and Gibbs-state construction."""

import math
import warnings

import numpy as np
import pytest

from qdot.entanglement import ground_state_concurrence, model_concurrence
from qdot.linalg import kron, IDENTITY_2, PAULI_Z, validate_density_matrix
from qdot.model import (
    _libm,
    DomainError,
    DotParams,
    hamiltonian_matrix,
    thermal_elements,
    thermal_state,
    thermal_state_oracle,
)
from qdot.teleport import InputState, average_fidelity, average_fidelity_closed_form
from qdot.teleport import subspace_fidelities


def test_params_validation():
    with pytest.raises(DomainError):
        DotParams(k0=1.0, r=0.0, T=-0.1)
    with pytest.raises(DomainError):
        DotParams(k0=math.inf, r=0.0, T=1.0)
    with pytest.raises(DomainError):
        DotParams(k0=1.0, r=math.nan, T=1.0)
    with pytest.raises(DomainError):
        DotParams(k0="4", r=1.0, T=1.0)
    with pytest.raises(DomainError):
        DotParams(k0=4.0, r=1j, T=1.0)
    with pytest.raises(DomainError):
        InputState(theta="1")
    with pytest.raises(DomainError):
        InputState(theta=1.0, phi=1j)
    with pytest.raises(DomainError, match="theta must be finite, got nan"):
        InputState(theta=np.array([0.5, math.nan]))
    with pytest.raises(DomainError, match="r must be finite, got inf"):
        DotParams(k0=1.0, r=np.array([0.0, math.inf]), T=1.0)
    with pytest.raises(DomainError, match="got -0.5"):
        DotParams(k0=1.0, r=0.0, T=np.array([1.0, -0.5]))
    # the ground-state couplings are checked by the same rule
    for k0, r in (("1", 0), (1j, 0), (4, "x")):
        with pytest.raises(DomainError, match="must be a real number"):
            ground_state_concurrence(k0, r)
    with pytest.raises(DomainError, match="k0 must be finite, got nan"):
        ground_state_concurrence(math.nan, 0.0)
    # T = 0 is allowed at construction; only thermal quantities reject it
    DotParams(k0=1.0, r=0.0, T=0.0)
    # numpy scalars are real numbers too
    DotParams(k0=np.float64(4.0), r=np.int64(1), T=np.float32(0.5))


_PAIR, _TRIPLE = np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: thermal_elements(DotParams(_PAIR, _TRIPLE, 1.0)),
        lambda: model_concurrence(DotParams(_PAIR, _TRIPLE, 1.0)),
        lambda: subspace_fidelities(InputState(_TRIPLE), DotParams(_PAIR, 0, 1)),
    ],
    ids=["thermal_elements", "model_concurrence", "subspace_fidelities"],
)
def test_fields_that_do_not_broadcast_raise_domain_error(call):
    # these raised numpy's plain ValueError from inside the kernels
    with pytest.raises(DomainError, match="do not broadcast together"):
        call()


def test_fields_that_broadcast_evaluate_on_their_common_shape():
    f_o, f_e = subspace_fidelities(InputState(_PAIR[:, None]), DotParams(_TRIPLE, 0, 1))
    assert f_o.shape == f_e.shape == (2, 3)
    assert f_o[1, 2] == subspace_fidelities(InputState(2.0), DotParams(3.0, 0, 1))[0]


def test_hamiltonian_trivial_point():
    h = hamiltonian_matrix(DotParams(k0=0.0, r=0.0, T=1.0))
    np.testing.assert_array_equal(h, np.zeros((4, 4)))


def test_hamiltonian_is_hermitian_and_traceless():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k0, r = rng.normal(size=2) * 5
        h = hamiltonian_matrix(DotParams(k0=k0, r=r, T=1.0))
        np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
        assert abs(np.trace(h)) < 1e-14


def test_hamiltonian_explicit_entries():
    # diagonal k0/16 * (1,-1,-1,1) shifted by -r (0, 0) +r from the field,
    # off-diagonal k0/8 coupling |10> and |01>
    k0, r = 8.0, 0.5
    h = hamiltonian_matrix(DotParams(k0=k0, r=r, T=1.0))
    expected = np.array(
        [
            [k0 / 16 - r, 0, 0, 0],
            [0, -k0 / 16, k0 / 8, 0],
            [0, k0 / 8, -k0 / 16, 0],
            [0, 0, 0, k0 / 16 + r],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(h, expected, atol=1e-15)


def test_hamiltonian_commutes_with_total_sz():
    sz_total = kron(PAULI_Z, IDENTITY_2) / 2 + kron(IDENTITY_2, PAULI_Z) / 2
    h = hamiltonian_matrix(DotParams(k0=3.7, r=1.2, T=1.0))
    np.testing.assert_allclose(h @ sz_total, sz_total @ h, atol=1e-14)


def test_reference_spectrum():
    # k0 = 16, r = 1 gives the integer spectrum {-3, 0, 1, 2}
    h = hamiltonian_matrix(DotParams(k0=16.0, r=1.0, T=1.0))
    np.testing.assert_allclose(np.linalg.eigvalsh(h), [-3.0, 0.0, 1.0, 2.0], atol=1e-14)


def test_thermal_elements_trivial_point():
    e = thermal_elements(DotParams(k0=0.0, r=0.0, T=1.0))
    assert (e.u, e.v, e.w, e.y) == (1.0, 1.0, 1.0, 0.0)
    assert e.big_z == 4.0
    assert e.log_scale == 0.0


def test_thermal_elements_symmetric_at_zero_field():
    e = thermal_elements(DotParams(k0=2.5, r=0.0, T=0.7))
    assert e.u == e.v


def test_thermal_elements_sum_identities():
    # w + y and w - y recover the two exchange exponentials. When one weight
    # underflows next to the other the sum cancels, so the guarantee is
    # absolute (w, y are bounded by the shift), not relative.
    rng = np.random.default_rng(3)
    for _ in range(40):
        k0 = rng.uniform(-6, 12)
        r = rng.uniform(-3, 3)
        T = rng.uniform(0.02, 5.0)
        e = thermal_elements(DotParams(k0=k0, r=r, T=T))
        m = e.log_scale
        b1 = math.exp(-k0 / (16 * T) - m)
        b2 = math.exp(3 * k0 / (16 * T) - m)
        np.testing.assert_allclose(e.w + e.y, b1, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(e.w - e.y, b2, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(e.big_z, e.u + e.v + 2 * e.w, rtol=1e-15)


def test_thermal_elements_y_sign_tracks_coupling():
    assert thermal_elements(DotParams(k0=3.0, r=0.4, T=0.5)).y < 0
    assert thermal_elements(DotParams(k0=-3.0, r=0.4, T=0.5)).y > 0
    assert thermal_elements(DotParams(k0=0.0, r=0.4, T=0.5)).y == 0.0


def test_thermal_elements_survive_deep_cold():
    # naive exponentials overflow here; the shifted form must stay finite
    e = thermal_elements(DotParams(k0=16.0, r=1.0, T=1e-4))
    for x in (e.u, e.v, e.w, e.y, e.big_z):
        assert math.isfinite(x)
    assert e.big_z > 0


def test_thermal_elements_reject_zero_temperature():
    with pytest.raises(DomainError):
        thermal_elements(DotParams(k0=1.0, r=0.0, T=0.0))


@pytest.mark.parametrize("k0,r,T", [(1.0, 0.0, 1e-310), (1e308, 0.0, 1e-308)])
@pytest.mark.parametrize(
    "quantity",
    [
        thermal_elements,
        model_concurrence,
        lambda p: subspace_fidelities(InputState(theta=math.pi / 3.0), p),
        average_fidelity,
        average_fidelity_closed_form,
    ],
    ids=["thermal_elements", "model_concurrence", "subspace_fidelities", "average_fidelity",
         "average_fidelity_closed_form"],
)
def test_overflowing_exponents_raise_instead_of_nan(quantity, k0, r, T):
    # exp(-E/T) overflows here and the log shift would compute inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflow"):
            quantity(DotParams(k0=k0, r=r, T=T))


@pytest.mark.parametrize("k0,r,T", [(1e308, 0.0, 1e10), (1e308, 0.0, 1e308)])
def test_finite_exponents_survive_overflowing_intermediates(k0, r, T):
    # 3 k0 (and at T = 1e308 also 16 T) overflows although every true
    # exponent is finite: these cells divide first and stay in range.
    # F_o and F_e are capped at 1 (the singlet channel rounds to 1 + 2.2e-16);
    # F_a keeps a rounding slack.
    slack = 1e-15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = DotParams(k0=k0, r=r, T=T)
        e = thermal_elements(p)
        c = model_concurrence(p)
        fids = subspace_fidelities(InputState(theta=math.pi / 3.0), p)
        f_a = average_fidelity(p)
        f_a_closed = average_fidelity_closed_form(p)
        # an array call divides first in the same cells and keeps the others
        grid = DotParams(k0=np.array([4.0, k0]), r=np.array([1.0, r]), T=np.array([0.5, T]))
        cells = model_concurrence(grid).tolist()
    assert all(math.isfinite(x) and x >= 0.0 for x in (e.u, e.v, e.w, e.big_z))
    assert e.big_z > 0 and math.isfinite(e.y)
    assert 0.0 <= c <= 1.0
    assert all(0.0 <= f <= 1.0 for f in fids)
    assert -slack <= f_a <= 1.0 + slack
    assert 0.0 <= f_a_closed <= 1.0
    assert cells == [model_concurrence(DotParams(4.0, 1.0, 0.5)), c]
    if T == k0:
        # k0/T is exactly 1, so the exponents are those of (1, 0, 1)
        assert e == thermal_elements(DotParams(k0=1.0, r=0.0, T=1.0))


def test_exp_maps_math_exp_across_blocks():
    # blocks of 4,096 cells, a partial last block and a non-contiguous view
    x = np.linspace(-700.0, 700.0, 3 * 4096 + 6).reshape(3, -1)[:, ::2]
    got = _libm(math.exp, x)
    assert got.shape == x.shape
    assert got.ravel().tolist() == [math.exp(v) for v in x.ravel().tolist()]
    assert _libm(math.exp, np.empty((0, 3))).shape == (0, 3)


def test_libm_maps_any_math_function_as_its_scalar_calls():
    x = np.geomspace(1e-300, 1e300, 2 * 4096 + 3)
    assert _libm(math.log, x).tolist() == [math.log(v) for v in x.tolist()]
    assert _libm(math.log, 2.5) == math.log(2.5)


def test_check_real_keeps_its_messages_on_python_numbers():
    # finite Python floats and int64/uint64-range ints pass without numpy;
    # every refusal reads as it did through numpy
    DotParams(k0=-2**63, r=2**64 - 1, T=True)
    with pytest.raises(DomainError, match="k0 must be finite, got nan"):
        DotParams(k0=math.nan, r=0.0, T=1.0)
    with pytest.raises(DomainError, match="T must be finite, got inf"):
        DotParams(k0=1.0, r=0.0, T=math.inf)
    with pytest.raises(DomainError, match="r must be finite, got -inf"):
        DotParams(k0=1.0, r=np.float64(-math.inf), T=1.0)
    for big in (2**64, -2**63 - 1, 10**400):
        with pytest.raises(DomainError, match=f"k0 must be a real number, got {big}"):
            DotParams(k0=big, r=0.0, T=1.0)


def test_far_shifted_exponents_do_not_warn():
    # exponents finite but more than 1.8e308 below the shift: x - m goes to
    # -inf, the weight to 0, and no overflow warning leaks from the array route
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = DotParams(np.array([1e151, 1e151]), np.array([6e264, 7e264]), 4e-44)
        assert model_concurrence(p).tolist() == [0.0, 0.0]
        e = thermal_elements(p)
    assert e.v.tolist() == [0.0, 0.0]


def test_thermal_elements_frozen_reference_point():
    # spectral weights exp(-E/T) at k0=4, r=1, T=0.5 are
    # [0.0820849986238988, 4.4816890703380645, 0.6065306597126334, 4.4816890703380645]
    # for the levels paired with |00>, |11>, (01+10), (01-10); the shifted
    # elements below divide out the largest of them.
    e = thermal_elements(DotParams(k0=4.0, r=1.0, T=0.5))
    np.testing.assert_allclose(e.u, 1.0, rtol=1e-15)
    np.testing.assert_allclose(e.v, 0.01831563888873418, rtol=1e-14)
    np.testing.assert_allclose(e.w, 0.5676676416183064, rtol=1e-14)
    np.testing.assert_allclose(e.y, -0.43233235838169365, rtol=1e-14)
    np.testing.assert_allclose(e.big_z, 2.153650922125347, rtol=1e-14)
    assert e.log_scale == 1.5


def test_thermal_state_infinite_temperature_limit():
    rho = thermal_state(DotParams(k0=1.0, r=0.3, T=1e9))
    np.testing.assert_allclose(rho, np.eye(4) / 4, atol=1e-9)


def test_thermal_state_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        p = DotParams(
            k0=rng.uniform(-6, 12), r=rng.uniform(-3, 3), T=rng.uniform(0.05, 5.0)
        )
        np.testing.assert_allclose(
            thermal_state(p), thermal_state_oracle(p), atol=1e-12
        )


def test_thermal_state_is_valid_and_stationary():
    for (k0, r, T) in [(4.0, 1.0, 0.5), (-2.0, 0.3, 0.2), (16.0, 1.0, 0.05)]:
        p = DotParams(k0=k0, r=r, T=T)
        rho = thermal_state(p)
        validate_density_matrix(rho)
        h = hamiltonian_matrix(p)
        np.testing.assert_allclose(rho @ h, h @ rho, atol=1e-13)


def test_thermal_state_x_shape():
    rho = thermal_state(DotParams(k0=3.0, r=0.7, T=0.4))
    zero_mask = np.array(
        [
            [False, True, True, True],
            [True, False, False, True],
            [True, False, False, True],
            [True, True, True, False],
        ]
    )
    assert np.all(rho[zero_mask] == 0)


def test_thermal_state_cold_limit_is_singlet():
    rho = thermal_state(DotParams(k0=4.0, r=0.5, T=1e-3))
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1 / math.sqrt(2)
    singlet[2] = -1 / math.sqrt(2)
    np.testing.assert_allclose(rho, np.outer(singlet, singlet.conj()), atol=1e-12)


def test_field_polarizes_populations():
    pops = []
    for r in (0.0, 0.5, 1.0, 2.0):
        rho = thermal_state(DotParams(k0=4.0, r=r, T=0.3))
        pops.append(rho[0, 0].real)  # |11> population grows with the field
    assert all(b > a for a, b in zip(pops, pops[1:]))


def test_oracle_eigenvalues_are_boltzmann_weights():
    p = DotParams(k0=5.0, r=0.8, T=0.6)
    k0, r = p.k0, p.r
    energies = np.array([k0 / 16 + r, k0 / 16 - r, k0 / 16, -3 * k0 / 16])
    weights = np.exp(-(energies - energies.min()) / p.T)
    weights /= weights.sum()
    got = np.sort(np.linalg.eigvalsh(thermal_state_oracle(p)))
    np.testing.assert_allclose(got, np.sort(weights), atol=1e-14)


def test_singlet_triplet_unitary_inverse_pair(singlet_triplet_unitary):
    u, u_inv = singlet_triplet_unitary
    np.testing.assert_allclose(u @ u_inv, np.eye(4), atol=1e-15)
    np.testing.assert_allclose(u_inv, u.conj().T, atol=1e-15)


def test_oracle_at_extreme_points_warns_nothing_and_returns_no_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # T = 1e-320: every level gap over T overflows to an excited weight of 0
        rho = thermal_state_oracle(DotParams(1, 0, 1e-320))
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(rho, np.outer(singlet, singlet), atol=1e-15)
        # entries near 1e308: (h + h^dag)/2 would overflow before the eigensolver
        rho = thermal_state_oracle(DotParams(1e308, 1e308, 1e-300))
        assert np.isfinite(rho).all()
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-15)
        # k0/16 - r past the float range is a domain error, not an infinite matrix
        with pytest.raises(DomainError, match="Hamiltonian entries overflow at k0=1.7e"):
            thermal_state_oracle(DotParams(1.7e308, -1.7e308, 1.0))
        with pytest.raises(DomainError, match="overflow"):
            hamiltonian_matrix(DotParams(1.7e308, -1.7e308, 1.0))


def test_oracle_stack_names_the_first_cold_point():
    from qdot.model import _thermal_state_oracles

    p = DotParams(np.array([1.0, 2.0, 3.0]), 0.0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DomainError, match=r"needs T > 0, got T=0.0$"):
        _thermal_state_oracles(p)
    with pytest.raises(DomainError, match=r"needs T > 0, got T=0$"):
        thermal_state_oracle(DotParams(1, 0, 0))

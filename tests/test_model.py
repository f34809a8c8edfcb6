"""Tests for the Hamiltonian, spectrum, and Gibbs-state construction."""

import math
import warnings

import numpy as np
import pytest

from qdot.entanglement import model_concurrence
from qdot.linalg import kron, IDENTITY_2, PAULI_Z, validate_density_matrix
from qdot.model import _libm, DomainError, DotParams, thermal_elements, thermal_state
from qdot.oracles import average_fidelity, collapse_bruteforce, hamiltonian_matrix, input_density
from qdot.oracles import joint_state, thermal_state_oracle, wootters_concurrence
from qdot.teleport import BellOutcome, InputState, average_fidelity_closed_form
from qdot.teleport import collapsed_closed_form, output_states, subspace_fidelities


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
            model_concurrence(DotParams(k0, r, 0.0))
    with pytest.raises(DomainError, match="k0 must be finite, got nan"):
        model_concurrence(DotParams(math.nan, 0.0, 0.0))
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
        lambda: InputState(np.zeros(2), np.zeros(3)),
        lambda: joint_state(InputState(_TRIPLE), DotParams(_PAIR, 0, 1)),
        lambda: collapsed_closed_form(
            InputState(_TRIPLE), thermal_elements(DotParams(_PAIR, 0, 1)), BellOutcome.PSI_MINUS),
        lambda: output_states(InputState(0.5, _TRIPLE), DotParams(_PAIR, 0, 1)),
    ],
    ids=["thermal_elements", "model_concurrence", "subspace_fidelities", "input_state",
         "joint_state", "collapsed_closed_form", "output_states"],
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


def test_thermal_elements_at_zero_temperature_weigh_the_ground_levels():
    # weight 1 for each level of lowest energy, 0 for the rest, shift 0:
    # the singlet, the singlet tied with |11> at r = k0/4, and at k0 < 0
    # the triplet levels |11>, |00> and triplet-0 at r = 0
    for k0, r, fields in ((1.0, 0.0, (0.0, 0.0, 0.5, -0.5, 1.0)),
                          (4.0, 1.0, (1.0, 0.0, 0.5, -0.5, 2.0)),
                          (-4.0, 0.0, (1.0, 1.0, 0.5, 0.5, 3.0)),
                          (0.0, 0.0, (1.0, 1.0, 1.0, 0.0, 4.0))):
        e = thermal_elements(DotParams(k0=k0, r=r, T=0.0))
        assert (e.u, e.v, e.w, e.y, e.big_z, e.log_scale) == (*fields, 0.0)
        assert all(type(x) is float for x in e._fields().values())


def _ground_mixture(p):
    """Test-only T = 0 oracle: the equal mixture of the eigenvectors of
    hamiltonian_matrix whose eigenvalues lie within 1e-9 (relative to the
    couplings) of the lowest."""
    evals, vecs = np.linalg.eigh(hamiltonian_matrix(p))
    ground = vecs[:, evals - evals[0] <= 1e-9 * max(1.0, abs(p.k0), abs(p.r))]
    return ground @ ground.conj().T / ground.shape[1]


@pytest.mark.parametrize("k0, r", [(4.0, 1.0), (4.0, -1.0), (4.0, 0.5), (4.0, 2.5),
                                   (-4.0, 0.5), (-4.0, -1.5), (-4.0, 0.0), (0.0, 0.0),
                                   (0.0, 0.7), (4.0, 0.0), (1e3, 250.0)])
def test_zero_temperature_state_is_the_ground_mixture(k0, r):
    # the crossing, k0 of both signs, k0 = 0 and r = 0
    p = DotParams(k0, r, 0.0)
    want = _ground_mixture(p)
    np.testing.assert_allclose(thermal_state(p), want, atol=1e-12)
    assert abs(model_concurrence(p) - wootters_concurrence(want).value) < 1e-12
    # the collapse through the oracle's channel, at an input with no branch of weight 0
    s = InputState(1.1, 0.4)
    joint = kron(input_density(s), want)
    for outcome in BellOutcome:
        state, prob = collapse_bruteforce(joint, outcome)
        closed_state, closed_prob = collapsed_closed_form(s, thermal_elements(p), outcome)
        np.testing.assert_allclose(closed_state, state, atol=1e-12)
        assert abs(closed_prob - prob) < 1e-12


def test_zero_temperature_cells_have_the_bits_of_t_1e_30():
    # |k0|, |r| log-uniform in [1e-3, 1e3] with random signs, 10% of the
    # points at the crossing |r| = k0/4 and 5% at r = 0; the input state at
    # random angles, with theta = 0 and pi among them (at theta = 0 a
    # polarised channel has a branch of weight 0, F_o or F_e absent on both sides)
    rng = np.random.default_rng(26)
    n = 10_000
    k0 = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    r = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    kind = rng.uniform(size=n)
    r = np.where(kind < 0.1, np.sign(r) * k0 / 4.0, np.where(kind < 0.15, 0.0, r))
    edge = rng.uniform(size=n)
    theta = np.where(edge < 0.1, 0.0, np.where(edge < 0.2, math.pi, rng.uniform(0.0, math.pi, n)))
    s = InputState(theta, rng.uniform(0.0, 2.0 * math.pi, n))

    def quantities(T):
        p = DotParams(k0, r, T)
        e = thermal_elements(p)
        return [model_concurrence(p), *subspace_fidelities(s, p), average_fidelity_closed_form(p),
                e.u / e.big_z, e.w / e.big_z, e.v / e.big_z]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cold, near = quantities(0.0), quantities(1e-30)
    for a, b in zip(cold, near):
        assert a.view(np.int64).tolist() == b.view(np.int64).tolist()
    assert np.isnan(cold[1]).any() and np.isnan(cold[2]).any()  # the zero branches were hit


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
    # finite Python floats, and ints as the Python floats nearest them, pass
    # without numpy; every refusal reads as it did through numpy
    p = DotParams(k0=-2**63 - 1, r=10**20, T=True)
    assert (p.k0, p.r, p.T) == (-2.0**63, 1e20, 1.0)
    assert type(p.k0) is float and type(p.r) is float
    with pytest.raises(DomainError, match="k0 must be finite, got nan"):
        DotParams(k0=math.nan, r=0.0, T=1.0)
    with pytest.raises(DomainError, match="T must be finite, got inf"):
        DotParams(k0=1.0, r=0.0, T=math.inf)
    with pytest.raises(DomainError, match="r must be finite, got -inf"):
        DotParams(k0=1.0, r=np.float64(-math.inf), T=1.0)
    for big in (10**400, -2**1024, 10**5000):  # 10**5000 has no repr in Python 3.11
        with pytest.raises(DomainError, match="k0 must be finite, got an int past the float range"):
            DotParams(k0=big, r=0.0, T=1.0)
    with pytest.raises(DomainError, match="k0 must be a real number, got 'x'"):
        DotParams(k0="x", r=0.0, T=1.0)


def test_a_bool_is_taken_as_an_int():
    # a Python float, as an int gives, so the record hashes and prints as one
    p = DotParams(4, 1, True)
    assert repr(p) == "DotParams(k0=4.0, r=1.0, T=1.0)"
    assert type(p.T) is float and type(DotParams(False, 0, 1).k0) is float
    assert hash(p) == hash(DotParams(4.0, 1.0, 1.0))
    assert InputState(theta=False).theta == 0.0


def test_a_sequence_holding_an_int_with_no_repr_is_a_domain_error():
    # numpy holds such an int as an object. Beside other numbers it is
    # widened as a bare int is, past the float range refused alike; beside a
    # non-number its repr raises ValueError past Python's 4,300-digit limit,
    # so the refusal names only the type
    for value in ([10**5000], (1.0, 10**5000), np.array([10**5000], dtype=object)):
        with pytest.raises(DomainError, match="k0 must be finite, got an int past the float range"):
            DotParams(value, 0.0, 1.0)
    with pytest.raises(DomainError, match="theta must be finite, got an int past the float range"):
        InputState([10**5000])
    for value in ([10**5000, "x"], (None, 10**5000), np.array([10**5000, 1j], dtype=object)):
        message = f"k0 must be a real number, got {type(value).__name__} holding an int"
        with pytest.raises(DomainError, match=message):
            DotParams(value, 0.0, 1.0)
    with pytest.raises(DomainError, match="theta must be a real number"):
        InputState([10**5000, "x"])


def test_a_sequence_of_ints_past_int64_is_widened_as_a_bare_int():
    # numpy holds 2**70 as an object, not an int64; each int becomes the
    # float nearest it, as DotParams(2**70, 0, 1) makes its k0
    p = DotParams([2**70, 1], [[-2**70], [True]], (1, 2.5))
    assert p.k0.dtype == p.r.dtype == p.T.dtype == np.float64
    assert p.k0.tolist() == [2.0**70, 1.0] and p.r.tolist() == [[-2.0**70], [1.0]]
    assert p.T.tolist() == [1.0, 2.5]
    assert DotParams(2**70, 0, 1).k0 == p.k0[0]
    assert model_concurrence(p).shape == (2, 2)
    with pytest.raises(DomainError, match="r must be finite, got nan"):
        DotParams(1.0, [2**70, math.nan], 1.0)


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
    p = DotParams(np.array([1.0, 2.0, 3.0]), 0.0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DomainError, match=r"needs T > 0, got T=0.0$"):
        thermal_state_oracle(p)
    with pytest.raises(DomainError, match=r"needs T > 0, got T=0.0$"):
        thermal_state_oracle(DotParams(1, 0, 0))  # an int T is held as a float

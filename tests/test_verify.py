"""verify's stacked checks against per-point references.

Each check runs its routes over whole stacks of grid points. The loops
below are the per-point form of the same checks, built from the public
point functions; every stacked cell must equal its point call bit for bit,
and every check must report the reference's max deviation exactly.
"""

import itertools
import math

import numpy as np
import pytest

import qdot.teleport as teleport_mod
from qdot import entanglement, linalg, model, oracles, teleport, verify
from qdot.cli import main

GRID_POINTS = [
    model.DotParams(k0=k0, r=r, T=T)
    for k0, r, T in itertools.product(*(verify.GRID[name] for name in ("k0", "r", "T")))
]
TELEPORT_POINTS = [
    model.DotParams(k0=k0, r=r, T=T)
    for k0, r, T in itertools.product(*(verify.TELEPORT_GRID[name] for name in ("k0", "r", "T")))
]
STATES = [
    teleport.InputState(theta=theta, phi=phi)
    for theta, phi in itertools.product(verify.TELEPORT_GRID["theta"], verify.TELEPORT_GRID["phi"])
]
TC_BRACKETS = [(k0, r) for k0 in (1.0, 4.0, 10.0) for r in (0.0, 1.0, 4.0)]


def reference_thermal_oracle():
    dev = 0.0
    for p in GRID_POINTS:
        closed = model.thermal_state(p)
        oracle = oracles.thermal_state_oracle(p)
        dev = max(dev, float(np.abs(closed - oracle).max()))
    return dev


def reference_concurrence_triple():
    dev = 0.0
    for p in GRID_POINTS:
        c_model = entanglement.model_concurrence(p)
        c_x = entanglement.xstate_concurrence(model.thermal_elements(p))
        c_w = oracles.wootters_concurrence(model.thermal_state(p)).value
        dev = max(dev, abs(c_model - c_x), abs(c_model - c_w), abs(c_x - c_w))
    return dev


def reference_critical_temperature():
    dev = 0.0
    for k0, r in TC_BRACKETS:
        expected = entanglement.critical_temperature(k0)
        dev = max(dev, abs(verify.bisect_critical_temperature(k0, r) - expected))
    return dev


def reference_collapse():
    dev = 0.0
    for p in TELEPORT_POINTS:
        e = model.thermal_elements(p)
        for s in STATES:
            joint = oracles.joint_state(s, p)
            for outcome in teleport.BellOutcome:
                closed_state, closed_prob = teleport.collapsed_closed_form(s, e, outcome)
                brute_state, brute_prob = oracles.collapse_bruteforce(joint, outcome)
                dev = max(
                    dev,
                    float(np.abs(closed_state - brute_state).max()),
                    abs(closed_prob - brute_prob),
                )
                if outcome in (teleport.BellOutcome.PSI_MINUS, teleport.BellOutcome.PHI_MINUS):
                    f_closed = teleport.subspace_fidelities(s, p)[
                        outcome is teleport.BellOutcome.PHI_MINUS]
                    corrected = oracles.pauli_correction(outcome, brute_state)
                    dev = max(dev, abs(f_closed - oracles.fidelity(s, corrected)))
    return dev


def reference_completeness():
    dev = 0.0
    for p in TELEPORT_POINTS:
        e = model.thermal_elements(p)
        for s in STATES:
            total = sum(
                teleport.collapsed_closed_form(s, e, outcome)[1]
                for outcome in teleport.BellOutcome
            )
            dev = max(dev, abs(total - 1.0))
    return dev


def reference_r0_coincidence():
    dev = 0.0
    for p in TELEPORT_POINTS:
        if p.r != 0.0:
            continue
        for s in STATES:
            rho_o, rho_e = teleport.output_states(s, p)
            dev = max(dev, float(np.abs(rho_o - rho_e).max()))
    return dev


def reference_subspace_order():
    # the sign law: F_o - F_e takes the sign of r cos(theta), r of both signs
    worst = math.inf
    for p in TELEPORT_POINTS:
        for q in (p, model.DotParams(p.k0, -p.r, p.T)) if p.r else (p,):
            for s in STATES:
                f_o, f_e = teleport.subspace_fidelities(s, q)
                worst = min(worst, (f_o - f_e) * np.sign(q.r * math.cos(s.theta)))
    return max(0.0, -worst)


@pytest.mark.parametrize(
    "check,reference",
    [
        (verify.check_thermal_oracle, reference_thermal_oracle),
        (verify.check_concurrence_triple, reference_concurrence_triple),
        (verify.check_critical_temperature, reference_critical_temperature),
        (verify.check_collapse, reference_collapse),
        (verify.check_completeness, reference_completeness),
        (verify.check_r0_coincidence, reference_r0_coincidence),
        (verify.check_subspace_order, reference_subspace_order),
    ],
    ids=lambda f: f.__name__,
)
def test_stacked_check_reports_the_per_point_max_deviation(check, reference):
    res = check(1e-10)
    assert res.passed
    assert res.max_dev == reference()


def test_grid_params_follow_the_point_order():
    p = verify._params(verify.GRID)
    assert [(k0, r, T) for k0, r, T in zip(p.k0, p.r, p.T)] == [
        (q.k0, q.r, q.T) for q in GRID_POINTS
    ]


def test_thermal_stacks_equal_their_point_calls():
    p = verify._params(verify.GRID)
    hamiltonians = oracles.hamiltonian_matrix(p)
    closed = model.thermal_state(p)
    oracle = oracles.thermal_state_oracle(p)
    stacked = oracles.wootters_concurrence(closed)
    for i, q in enumerate(GRID_POINTS):
        assert hamiltonians[i].tobytes() == oracles.hamiltonian_matrix(q).tobytes()
        assert closed[i].tobytes() == model.thermal_state(q).tobytes()
        assert oracle[i].tobytes() == oracles.thermal_state_oracle(q).tobytes()
        point = oracles.wootters_concurrence(model.thermal_state(q))
        assert type(point.value) is float and point.lambdas.shape == (4,)
        assert stacked.value[i] == point.value
        assert stacked.lambdas[i].tobytes() == point.lambdas.tobytes()


def test_collapse_stacks_equal_their_point_calls():
    states, p = verify._teleport_grid()
    assert states.theta.shape == (len(STATES),) and p.k0.shape == (len(TELEPORT_POINTS), 1)
    e = model.thermal_elements(p)
    joint = oracles.joint_state(states, p)
    rho_o, rho_e = teleport.output_states(states, p)
    for outcome in teleport.BellOutcome:
        brute_state, brute_prob = oracles.collapse_bruteforce(joint, outcome)
        closed_state, closed_prob = teleport.collapsed_closed_form(states, e, outcome)
        for i, q in enumerate(TELEPORT_POINTS):
            e_q = model.thermal_elements(q)
            for j, s in enumerate(STATES):
                assert (states.theta[j], states.phi[j]) == (s.theta, s.phi)
                point_joint = oracles.joint_state(s, q)
                assert joint[i, j].tobytes() == point_joint.tobytes()
                state, prob = oracles.collapse_bruteforce(point_joint, outcome)
                assert type(prob) is float
                assert brute_state[i, j].tobytes() == state.tobytes() and brute_prob[i, j] == prob
                state, prob = teleport.collapsed_closed_form(s, e_q, outcome)
                assert type(prob) is float
                assert closed_state[i, j].tobytes() == state.tobytes() and closed_prob[i, j] == prob
    for i, q in enumerate(TELEPORT_POINTS):
        for j, s in enumerate(STATES):
            point_o, point_e = teleport.output_states(s, q)
            assert rho_o[i, j].tobytes() == point_o.tobytes()
            assert rho_e[i, j].tobytes() == point_e.tobytes()


def test_bisection_stack_equals_its_point_calls():
    k0 = np.array([k for k, _ in TC_BRACKETS])
    r = np.array([f for _, f in TC_BRACKETS])
    roots = verify.bisect_critical_temperature(k0, r)
    points = [verify.bisect_critical_temperature(k, f) for k, f in TC_BRACKETS]
    assert all(type(point) is float for point in points)
    assert roots.tolist() == points


def test_bisection_stack_names_the_first_bad_bracket():
    k0 = np.array([4.0, -1.0, -2.0])
    r = np.zeros(3)
    with pytest.raises(model.DomainError, match=r"bracket low end T=0.02 .* k0=-1.0, r=0.0$"):
        verify.bisect_critical_temperature(k0, r)


def test_checks_cover_their_stated_edge_points(monkeypatch):
    # each check's grid holds the point its docstring or floor is for: the
    # thermal grid starts at its deepest quantum temperature, T = 0.05; the
    # Tc bisection runs at zero field, where r drops out exactly; and the
    # quadrature-vs-MC check holds the zero-field point (0.5, 0, 1), whose
    # constant integrand is why its 1e-14 rounding floor exists. Read from
    # what each check passes to its oracle, not from the constants alone
    seen = {}

    def spy(owner, name):
        real = getattr(owner, name)

        def record(*args, **kwargs):
            seen[name] = args
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, record)

    spy(oracles, "thermal_state_oracle")
    spy(verify, "bisect_critical_temperature")
    spy(oracles, "average_fidelity_mc")
    assert verify.GRID["T"][0] == 0.05
    assert verify.check_thermal_oracle(1e-10).passed
    assert verify.check_critical_temperature(1e-10).passed
    assert verify.check_quadrature_mc(1e-10, 2000, 0).passed
    (p,) = seen["thermal_state_oracle"]
    assert p.T.min() == 0.05
    k0, r = seen["bisect_critical_temperature"]
    assert 0.0 in r[k0 > 0].tolist()
    p = seen["average_fidelity_mc"][0]
    assert (0.5, 0.0, 1.0) in zip(p.k0.tolist(), p.r.tolist(), p.T.tolist())


def test_corrupted_collapsed_closed_form_fails_the_collapse_check(monkeypatch, capsys):
    real = teleport_mod.collapsed_closed_form

    def crooked(s, e, outcome):
        state, probability = real(s, e, outcome)
        state[..., 0, 0] += 1e-6
        return state, probability

    monkeypatch.setattr(teleport_mod, "collapsed_closed_form", crooked)
    assert main(["verify", "--mc-samples", "2000"]) == 2
    lines = capsys.readouterr().out.splitlines()
    collapse = [line for line in lines if "teleportation collapse vs brute force" in line]
    assert collapse and collapse[0].startswith("[FAIL]")
    assert lines[-1].endswith("checks failed")


def test_shifted_subspace_fidelities_fail_the_collapse_check(monkeypatch, capsys):
    real = teleport_mod.subspace_fidelities

    def shifted(s, p):
        f_o, f_e = real(s, p)
        return f_o + 1e-6, f_e + 1e-6

    monkeypatch.setattr(teleport_mod, "subspace_fidelities", shifted)
    assert main(["verify", "--mc-samples", "2000"]) == 2
    lines = capsys.readouterr().out.splitlines()
    collapse = [line for line in lines if "teleportation collapse vs brute force" in line]
    assert collapse and collapse[0].startswith(
        "[FAIL] teleportation collapse vs brute force: max deviation 1.000e-06 vs threshold")
    assert collapse[0].endswith("F_o 1.000e-06, F_e 1.000e-06)")
    # the ordering check reads the same function, and F_o - F_e did not move
    assert lines[-1] == "1 of 8 checks failed"


def test_nan_subspace_fidelities_fail_the_collapse_check(monkeypatch, capsys):
    # a NaN deviation must not be dropped by the max over the check's parts
    real = teleport_mod.subspace_fidelities

    def nan_f_o(s, p):
        f_o, f_e = real(s, p)
        return f_o * math.nan, f_e

    monkeypatch.setattr(teleport_mod, "subspace_fidelities", nan_f_o)
    assert main(["verify", "--mc-samples", "2000"]) == 2
    lines = capsys.readouterr().out.splitlines()
    collapse = [line for line in lines if "teleportation collapse vs brute force" in line]
    assert collapse and collapse[0].startswith(
        "[FAIL] teleportation collapse vs brute force: max deviation nan vs threshold")
    assert collapse[0].endswith(", F_o nan, F_e 4.441e-16)")


def test_shifted_closed_form_average_fidelity_fails_the_quadrature_check(monkeypatch, capsys):
    real = teleport_mod.average_fidelity_closed_form
    monkeypatch.setattr(teleport_mod, "average_fidelity_closed_form", lambda p: real(p) + 1e-6)
    assert main(["verify", "--mc-samples", "2000"]) == 2
    lines = capsys.readouterr().out.splitlines()
    quadrature = [line for line in lines if "quadrature vs Monte Carlo" in line]
    assert quadrature and quadrature[0].startswith(
        "[FAIL] quadrature vs Monte Carlo: max deviation 1.000e-06 vs threshold 1.000e-10")
    assert lines[-1] == "1 of 8 checks failed"


def test_ordered_subspace_fidelities_fail_the_sign_law(monkeypatch, capsys):
    # (max, min) is the real pair at theta = pi/3 with r >= 0, where
    # F_o >= F_e; the law needs F_o < F_e where r cos(theta) < 0
    real = teleport_mod.subspace_fidelities

    def ordered(s, p):
        f_o, f_e = real(s, p)
        return np.maximum(f_o, f_e), np.minimum(f_o, f_e)

    s, p = teleport.InputState(theta=math.pi / 3.0), verify._params(verify.TELEPORT_GRID)
    assert all((a == b).all() for a, b in zip(ordered(s, p), real(s, p)))
    monkeypatch.setattr(teleport_mod, "subspace_fidelities", ordered)
    assert main(["verify", "--mc-samples", "2000"]) == 2
    lines = capsys.readouterr().out.splitlines()
    order = [line for line in lines if "subspace fidelity ordering" in line]
    assert order and order[0].startswith("[FAIL] subspace fidelity ordering: max deviation ")
    assert "r of both signs)" in order[0]

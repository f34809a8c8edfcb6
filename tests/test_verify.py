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
from qdot import entanglement, model, teleport, verify
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
        oracle = model.thermal_state_oracle(p)
        dev = max(dev, float(np.abs(closed - oracle).max()))
    return dev


def reference_concurrence_triple():
    dev = 0.0
    for p in GRID_POINTS:
        c_model = entanglement.model_concurrence(p)
        c_x = entanglement.xstate_concurrence(model.thermal_elements(p))
        c_w = entanglement.wootters_concurrence(model.thermal_state(p)).value
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
            joint = teleport.joint_state(s, p)
            for outcome in teleport.BellOutcome:
                closed_state, closed_prob = teleport.collapsed_closed_form(s, e, outcome)
                brute_state, brute_prob = teleport.collapse_bruteforce(joint, outcome)
                dev = max(
                    dev,
                    float(np.abs(closed_state - brute_state).max()),
                    abs(closed_prob - brute_prob),
                )
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
    worst = math.inf
    s = teleport.InputState(theta=math.pi / 3.0, phi=0.0)
    for p in TELEPORT_POINTS:
        f_o, f_e = teleport.subspace_fidelities(s, p)
        worst = min(worst, f_o - f_e)
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
    e = model.thermal_elements(p)
    closed = model._thermal_states(e)
    oracle = model._thermal_state_oracles(p)
    values, lams = entanglement._wootters(closed)
    for i, q in enumerate(GRID_POINTS):
        assert np.array_equal(closed[i], model.thermal_state(q))
        assert np.array_equal(oracle[i], model.thermal_state_oracle(q))
        point = entanglement.wootters_concurrence(model.thermal_state(q))
        assert values[i] == point.value
        assert tuple(lams[i].tolist()) == point.lambdas


def test_collapse_stacks_equal_their_point_calls():
    p = verify._params(verify.TELEPORT_GRID)
    e = model.thermal_elements(p)
    inputs = np.array([teleport.input_density(s) for s in STATES])
    joint = teleport._joint_stack(teleport._joint_states(inputs, model._thermal_states(e)[:, None]))
    rho_o, rho_e = teleport._output_states(STATES, e)
    for outcome in teleport.BellOutcome:
        brute_state, brute_prob = teleport._collapse_bruteforce(joint, outcome)
        closed_state, closed_prob = teleport._collapsed_closed_form(STATES, e, outcome)
        for i, q in enumerate(TELEPORT_POINTS):
            e_q = model.thermal_elements(q)
            for j, s in enumerate(STATES):
                point_joint = teleport.joint_state(s, q)
                assert np.array_equal(joint[i, j], point_joint)
                state, prob = teleport.collapse_bruteforce(point_joint, outcome)
                assert np.array_equal(brute_state[i, j], state) and brute_prob[i, j] == prob
                state, prob = teleport.collapsed_closed_form(s, e_q, outcome)
                assert np.array_equal(closed_state[i, j], state) and closed_prob[i, j] == prob
    for i, q in enumerate(TELEPORT_POINTS):
        for j, s in enumerate(STATES):
            point_o, point_e = teleport.output_states(s, q)
            assert np.array_equal(rho_o[i, j], point_o) and np.array_equal(rho_e[i, j], point_e)


def test_bisection_stack_equals_its_point_calls():
    k0 = np.array([k for k, _ in TC_BRACKETS])
    r = np.array([f for _, f in TC_BRACKETS])
    roots = verify._bisect(k0, r, np.full(k0.shape, 0.02), np.full(k0.shape, 3.0))
    assert roots.tolist() == [verify.bisect_critical_temperature(k, f) for k, f in TC_BRACKETS]


def test_bisection_stack_names_the_first_bad_bracket():
    k0 = np.array([4.0, -1.0, -2.0])
    r = np.zeros(3)
    with pytest.raises(model.DomainError, match=r"bracket low end T=0.02 .* k0=-1.0, r=0.0$"):
        verify._bisect(k0, r, np.full(3, 0.02), np.full(3, 3.0))


def test_corrupted_collapsed_closed_form_fails_the_collapse_check(monkeypatch, capsys):
    real = teleport_mod._collapsed_closed_form

    def crooked(states, e, outcome):
        state, probability = real(states, e, outcome)
        state[..., 0, 0] += 1e-6
        return state, probability

    monkeypatch.setattr(teleport_mod, "_collapsed_closed_form", crooked)
    assert main(["verify", "--mc-samples", "2000"]) == 2
    lines = capsys.readouterr().out.splitlines()
    collapse = [line for line in lines if "teleportation collapse vs brute force" in line]
    assert collapse and collapse[0].startswith("[FAIL]")
    assert lines[-1].endswith("checks failed")

"""Self-checks pitting every closed form against an independent route.

Each check reports its maximum observed deviation and the threshold it was
held to. Two checks carry method floors of their own: the critical
temperature is located by bisection (floor 1e-6) and the quadrature versus
Monte Carlo comparison is statistical (floor 4 standard errors, at least
1e-14, per point); the closed-form F_a it also holds to the quadrature
gets the 1e-14 floor alone. The caller tolerance applies to everything else.

Every check evaluates its whole grid as arrays, so a check reports the max
deviation a loop over point calls would. The oracles and the closed forms
are called by the public names that also take one point.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import entanglement, model, teleport
from .linalg import LinalgError
from .model import DomainError, _Record

__all__ = ["CheckResult", "bisect_critical_temperature", "verify_all"]

# Thermal grid: couplings of both signs, fields up to far past k0/4,
# temperatures from deep quantum to classical.
GRID = {
    "k0": (-4.0, -1.0, 0.0, 1.0, 4.0, 16.0),
    "r": (0.0, 0.2, 1.0, 4.0),
    "T": (0.05, 0.2, 1.0, 5.0),
}

TELEPORT_GRID = {
    "k0": (0.5, 2.0, 4.0),
    "r": (0.0, 0.2, 1.0),
    "T": (0.1, 0.2, 1.0),
    "theta": (0.0, math.pi / 3.0, math.pi / 2.0, math.pi),
    "phi": (0.0, math.pi / 2.0, 1.3),
}

_TC_FLOOR = 1e-6
_MC_POINTS = ((2.0, 0.2, 0.5), (4.0, 1.0, 0.2), (0.5, 0.0, 1.0))
_MC_ROUNDING_FLOOR = 1e-14


class CheckResult(_Record):
    __slots__ = ("name", "passed", "max_dev", "threshold", "detail")

    def __init__(self, name: str, passed: bool, max_dev: float, threshold: float,
                 detail: str = "") -> None:
        _Record.__init__(self, name, passed, max_dev, threshold, detail)

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"[{status}] {self.name}: max deviation {self.max_dev:.3e}"
            f" vs threshold {self.threshold:.3e}{extra}"
        )


def _max_dev(*devs) -> float:
    """The largest deviation as a float; NaN if any is NaN, which max() would
    drop, so that a NaN fails the check that reports it."""
    return math.nan if any(map(math.isnan, devs)) else float(max(devs))


def _params(grid) -> model.DotParams:
    """DotParams of flat arrays over the product of a grid's k0, r and T
    values, in itertools.product order (T fastest)."""
    axes = np.meshgrid(grid["k0"], grid["r"], grid["T"], indexing="ij")
    return model.DotParams(*(axis.ravel() for axis in axes))


def _teleport_grid(grid=TELEPORT_GRID):
    """The grid's input states as a row (m,) and its channels as a column
    (n, 1), each in itertools.product order: every channel meets every state."""
    theta, phi = np.meshgrid(grid["theta"], grid["phi"], indexing="ij")
    p = _params(grid)
    return (teleport.InputState(theta.ravel(), phi.ravel()),
            model.DotParams(p.k0[:, None], p.r[:, None], p.T[:, None]))


def _check(name: str):
    """Name a check. The check returns (passed, max_dev, threshold[, detail]);
    a contract violation inside it is itself a failure."""

    def decorate(fn):
        @functools.wraps(fn)
        def run(tolerance: float, *args) -> CheckResult:
            try:
                return CheckResult(name, *fn(tolerance, *args))
            except (LinalgError, DomainError) as exc:
                return CheckResult(
                    name, False, math.inf, tolerance, f"raised {type(exc).__name__}: {exc}"
                )

        return run

    return decorate


def bisect_critical_temperature(k0: float, r: float, lo: float = 0.02, hi: float = 3.0) -> float:
    """Locate the entanglement-vanishing temperature by bisection.

    The predicate is a strictly positive closed-form concurrence. The
    bracket must straddle the transition, entangled at ``lo`` and separable
    at ``hi``, or it raises DomainError naming the first bad bracket. It
    halves until the midpoint equals an endpoint, that is until ``lo`` and
    ``hi`` are adjacent doubles, so it ends on every finite bracket and
    needs no width. A float for floats; arrays that broadcast give an array
    of their shape, every bracket bisected at once. Each step evaluates the
    predicate at the midpoints of the brackets still open; a bracket closes,
    and keeps its midpoint, once that equals an end.
    """
    k0, r, lo, hi = np.broadcast_arrays(k0, r, lo, hi)
    shape = k0.shape
    k0, r, lo, hi = (x.ravel() for x in (k0, r, lo, hi))

    def entangled(k0, r, T):
        return entanglement.model_concurrence(model.DotParams(k0=k0, r=r, T=T)) > 0.0

    for end, name, want in ((lo, "low", True), (hi, "high", False)):
        bad = entangled(k0, r, end) != want
        if bad.any():
            T, k, f = (model._first(x, bad) for x in (end, k0, r))
            state = "is not entangled" if want else "is still entangled"
            raise DomainError(f"bracket {name} end T={T} {state} for k0={k}, r={f}")
    lo, hi = lo.astype(float), hi.astype(float)  # copies, which the steps overwrite
    # halving each end first cannot overflow, and gives 0.5 * (lo + hi) where that does not
    mid = 0.5 * lo + 0.5 * hi
    while (open_ := (mid != lo) & (mid != hi)).any():
        m = mid[open_]
        below = entangled(k0[open_], r[open_], m)
        lo[open_], hi[open_] = np.where(below, m, lo[open_]), np.where(below, hi[open_], m)
        mid = 0.5 * lo + 0.5 * hi
    return model._scalar(mid.reshape(shape))


@_check("thermal state vs spectral oracle")
def check_thermal_oracle(tolerance: float):
    """Closed-form Gibbs state against spectral exp(-H/T)/Z, entrywise."""
    p = _params(GRID)
    closed = model.thermal_state(p)
    oracle = model.thermal_state_oracle(p)
    dev = float(np.abs(closed - oracle).max())
    return dev <= tolerance, dev, tolerance


@_check("concurrence triple agreement")
def check_concurrence_triple(tolerance: float):
    """Model form vs X-state form vs Wootters, plus zero for k0 < 0."""
    p = _params(GRID)
    e = model.thermal_elements(p)
    c_model = entanglement.model_concurrence(p)
    c_x = entanglement.xstate_concurrence(e)
    c_w = entanglement.wootters_concurrence(model.thermal_state(p)).value
    dev = _max_dev(np.abs(c_model - c_x).max(), np.abs(c_model - c_w).max(),
                   np.abs(c_x - c_w).max())
    ferro = p.k0 < 0
    ferro_max = float(np.max([c_model[ferro], c_x[ferro], c_w[ferro]], initial=0.0))
    passed = dev <= tolerance and ferro_max == 0.0
    detail = "ferromagnetic points all exactly 0" if ferro_max == 0.0 else (
        f"nonzero concurrence {ferro_max:.3e} at k0 < 0"
    )
    return passed, dev, tolerance, detail


@_check("critical temperature by bisection")
def check_critical_temperature(tolerance: float):
    """Bisection transition temperature against k0/(4 ln 3), at several fields."""
    threshold = max(tolerance, _TC_FLOOR)
    k0, r = (a.ravel() for a in np.meshgrid((1.0, 4.0, 10.0), (0.0, 1.0, 4.0), indexing="ij"))
    roots = bisect_critical_temperature(k0, r)
    dev = float(np.abs(roots - entanglement.critical_temperature(k0)).max())
    return (
        dev <= threshold,
        dev,
        threshold,
        f"bisection floor {_TC_FLOOR:g}; transition independent of r",
    )


@_check("teleportation collapse vs brute force")
def check_collapse(tolerance: float):
    """Closed-form collapsed branches against 8x8 projection, and the
    closed-form F_o and F_e against the fidelity of the Pauli-corrected
    Psi- and Phi- branches of that projection."""
    states, p = _teleport_grid()
    # every channel with every input, (27, 12, 8, 8), checked as density
    # matrices once for all four outcomes
    joint = teleport.joint_state(states, p)
    outcomes = tuple(teleport.BellOutcome)
    brute_states, brute_probs = teleport.collapse_bruteforce(joint, outcomes)
    e = model.thermal_elements(p)
    devs = []
    for outcome, brute_state, brute_prob in zip(outcomes, brute_states, brute_probs):
        closed_state, closed_prob = teleport.collapsed_closed_form(states, e, outcome)
        devs += np.abs(closed_state - brute_state).max(), np.abs(closed_prob - brute_prob).max()
    dev = _max_dev(*devs)
    branches = dict(zip(outcomes, brute_states))
    fids = []
    for outcome, closed in zip((teleport.BellOutcome.PSI_MINUS, teleport.BellOutcome.PHI_MINUS),
                               teleport.subspace_fidelities(states, p)):
        corrected = teleport.pauli_correction(outcome, branches[outcome])
        fids.append(float(np.abs(closed - teleport.fidelity(states, corrected)).max()))
    worst = _max_dev(dev, *fids)
    detail = f"branches {dev:.3e}, F_o {fids[0]:.3e}, F_e {fids[1]:.3e}"
    return worst <= tolerance, worst, tolerance, detail


@_check("branch probability completeness")
def check_completeness(tolerance: float):
    """The four branch probabilities sum to one at every grid point."""
    states, p = _teleport_grid()
    e = model.thermal_elements(p)
    total = 0.0
    for outcome in teleport.BellOutcome:  # summed in outcome order, as a point call would
        total = total + teleport.collapsed_closed_form(states, e, outcome)[1]
    dev = float(np.abs(total - 1.0).max())
    return dev <= tolerance, dev, tolerance


@_check("output states coincide at r = 0")
def check_r0_coincidence(tolerance: float):
    """With the field off, the two corrected outputs are one state."""
    rho_o, rho_e = teleport.output_states(*_teleport_grid({**TELEPORT_GRID, "r": (0.0,)}))
    dev = float(np.abs(rho_o - rho_e).max())
    return dev <= tolerance, dev, tolerance


@_check("subspace fidelity ordering")
def check_subspace_order(tolerance: float):
    """The ordering of F_o and F_e as a sign law. F_o - F_e is
    N (u - v) cos(theta) / (z1 z2), and u - v has the sign of r, so
    (F_o - F_e) sign(r cos theta) >= -tol over the grid's input states and
    channels, with r of both signs; where r = 0 or theta = pi/2 the two tie."""
    r = TELEPORT_GRID["r"]
    states, p = _teleport_grid({**TELEPORT_GRID, "r": (*r, *(-x for x in r if x))})
    f_o, f_e = teleport.subspace_fidelities(states, p)
    # + 0.0: an exact tie times -1 is -0.0, and reads as 0
    worst = float(((f_o - f_e) * np.sign(p.r * np.cos(states.theta))).min()) + 0.0
    return (
        worst >= -tolerance,
        _max_dev(0.0, -worst),
        tolerance,
        f"min((F_o - F_e) sign(r cos theta)) = {worst:.3e}, theta 0 to pi, r of both signs",
    )


@_check("quadrature vs Monte Carlo")
def check_quadrature_mc(tolerance: float, mc_samples: int, seed: int):
    """Quadrature average fidelity against the Monte Carlo estimate, each
    point held to max(tolerance, its 4 SE, a 1e-14 rounding floor), and the
    closed form (the F_a column) against the quadrature, held to
    max(tolerance, the rounding floor).

    Reports the comparison with the largest gap / bound. The floor is for
    the zero-field point: its integrand is constant, so its SE is rounding.
    At these points the 64-node rule is at rounding level, so the closed
    form must match it there.
    """
    columns = model.DotParams(*(np.array(column) for column in zip(*_MC_POINTS)))
    mc = teleport.average_fidelity_mc(columns, n=mc_samples, seed=seed)  # one stream, all points
    quadratures = teleport.average_fidelity(columns).tolist()
    closed = teleport.average_fidelity_closed_form(columns).tolist()
    passed = True
    worst = (-1.0, 0.0, 0.0)  # (gap / bound, gap, bound)
    floors = []
    for quadrature, value, stderr, f_a in zip(quadratures, mc.value.tolist(),
                                               mc.stderr.tolist(), closed):
        for gap, bound in (
            (abs(quadrature - value), max(tolerance, 4.0 * stderr, _MC_ROUNDING_FLOOR)),
            (abs(f_a - quadrature), max(tolerance, _MC_ROUNDING_FLOOR)),
        ):
            passed = passed and gap <= bound
            worst = max(worst, (gap / bound, gap, bound))
        floors.append(4.0 * stderr)
    detail = f"statistical floor 4*SE up to {max(floors):.3e}, n={mc_samples}, seed={seed}"
    if tolerance < max(floors):
        detail += "; requested tolerance is below Monte Carlo resolution"
    return passed, worst[1], worst[2], detail


def verify_all(
    tolerance: float = 1e-10, mc_samples: int = 200_000, seed: int = 0
) -> list[CheckResult]:
    """Run every cross-check; order is stable for reporting."""
    return [
        check_thermal_oracle(tolerance),
        check_concurrence_triple(tolerance),
        check_critical_temperature(tolerance),
        check_collapse(tolerance),
        check_completeness(tolerance),
        check_r0_coincidence(tolerance),
        check_subspace_order(tolerance),
        check_quadrature_mc(tolerance, mc_samples, seed),
    ]

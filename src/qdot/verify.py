"""Self-checks pitting every closed form against an independent route.

Each check reports its maximum observed deviation and the threshold it was
held to. Two checks carry method floors of their own: the critical
temperature is located by bisection (floor 1e-6) and the quadrature versus
Monte Carlo comparison is statistical (floor 4 standard errors, at least
1e-14, per point). The caller tolerance applies to everything else.

Every check evaluates its whole grid as arrays, so a check reports the max
deviation a loop over point calls would. The oracles and the closed forms
are called by the public names that also take one point; only the
closed-form collapse and output states go through their stacked twins
in teleport, which cross a list of input states with a grid of elements.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import entanglement, linalg, model, teleport
from .linalg import LinalgError
from .model import DomainError

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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_dev: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"[{status}] {self.name}: max deviation {self.max_dev:.3e}"
            f" vs threshold {self.threshold:.3e}{extra}"
        )


def _params(grid) -> model.DotParams:
    """DotParams of flat arrays over the product of a grid's k0, r and T
    values, in itertools.product order (T fastest)."""
    axes = np.meshgrid(grid["k0"], grid["r"], grid["T"], indexing="ij")
    return model.DotParams(*(axis.ravel() for axis in axes))


def _input_states():
    return [
        teleport.InputState(theta=theta, phi=phi)
        for theta, phi in itertools.product(TELEPORT_GRID["theta"], TELEPORT_GRID["phi"])
    ]


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
    dev = float(max(np.abs(c_model - c_x).max(), np.abs(c_model - c_w).max(),
                    np.abs(c_x - c_w).max()))
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
    """Closed-form collapsed branches against 8x8 projection."""
    p = _params(TELEPORT_GRID)
    e = model.thermal_elements(p)
    states = _input_states()
    inputs = np.array([teleport.input_density(s) for s in states])
    # every channel with every input, (27, 20, 8, 8), checked as density
    # matrices once for all four outcomes
    joint = linalg.kron(inputs, model.thermal_state(p)[:, None])
    outcomes = tuple(teleport.BellOutcome)
    brute_states, brute_probs = teleport.collapse_bruteforce(joint, outcomes)
    dev = 0.0
    for outcome, brute_state, brute_prob in zip(outcomes, brute_states, brute_probs):
        closed_state, closed_prob = teleport._collapsed_closed_form(states, e, outcome)
        dev = max(
            dev,
            float(np.abs(closed_state - brute_state).max()),
            float(np.abs(closed_prob - brute_prob).max()),
        )
    return dev <= tolerance, dev, tolerance


@_check("branch probability completeness")
def check_completeness(tolerance: float):
    """The four branch probabilities sum to one at every grid point."""
    e = model.thermal_elements(_params(TELEPORT_GRID))
    states = _input_states()
    total = 0.0
    for outcome in teleport.BellOutcome:  # summed in outcome order, as a point call would
        total = total + teleport._collapsed_closed_form(states, e, outcome)[1]
    dev = float(np.abs(total - 1.0).max())
    return dev <= tolerance, dev, tolerance


@_check("output states coincide at r = 0")
def check_r0_coincidence(tolerance: float):
    """With the field off, the two corrected outputs are one state."""
    e = model.thermal_elements(_params({**TELEPORT_GRID, "r": (0.0,)}))
    rho_o, rho_e = teleport._output_states(_input_states(), e)
    dev = float(np.abs(rho_o - rho_e).max())
    return dev <= tolerance, dev, tolerance


@_check("subspace fidelity ordering")
def check_subspace_order(tolerance: float):
    """F_o >= F_e on the grid at theta = pi/3 (the ordering can reverse
    past theta = pi/2, so the scan pins the representative angle)."""
    s = teleport.InputState(theta=math.pi / 3.0, phi=0.0)
    f_o, f_e = teleport.subspace_fidelities(s, _params(TELEPORT_GRID))
    worst = float((f_o - f_e).min())
    dev = max(0.0, -worst)
    return (
        worst >= -tolerance,
        dev,
        tolerance,
        f"min(F_o - F_e) = {worst:.3e} at theta = pi/3",
    )


@_check("quadrature vs Monte Carlo")
def check_quadrature_mc(tolerance: float, mc_samples: int, seed: int):
    """Quadrature average fidelity against the Monte Carlo estimate, each
    point held to max(tolerance, its 4 SE, a 1e-14 rounding floor).

    Reports the point with the largest gap / bound. The floor is for the
    zero-field point: its integrand is constant, so its SE is rounding.
    """
    columns = model.DotParams(*(np.array(column) for column in zip(*_MC_POINTS)))
    mc = teleport.average_fidelity_mc(columns, n=mc_samples, seed=seed)  # one stream, all points
    passed = True
    worst = (-1.0, 0.0, 0.0)  # (gap / bound, gap, bound)
    floors = []
    for point, value, stderr in zip(_MC_POINTS, mc.value.tolist(), mc.stderr.tolist()):
        gap = abs(teleport.average_fidelity(model.DotParams(*point)) - value)
        bound = max(tolerance, 4.0 * stderr, _MC_ROUNDING_FLOOR)
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

"""Concurrence of the dot's thermal state in closed form, and its critical
temperature.

The X-state form exploits the thermal state's sparsity pattern; the model
form evaluates the fully reduced closed expression in the log-shifted
Boltzmann domain. Both agree on the thermal state with the general Wootters
algorithm, the oracle for any two-qubit density matrix, which lives in
qdot.oracles; verify and the test suite pin the three down.
"""

from __future__ import annotations

import math

from .model import DotParams, ThermalElements, _boltzmann_weights, _check_real, _rules, _scalar

__all__ = [
    "xstate_concurrence",
    "model_concurrence",
    "critical_temperature",
]


def xstate_concurrence(e: ThermalElements) -> float:
    """Concurrence of the thermal X-state from its elements: (2/Z) max(|y| - sqrt(uv), 0).

    sqrt(uv) is taken as sqrt(u)*sqrt(v) so the product cannot underflow
    before the root. Broadcasts over array elements.
    """
    import numpy as np

    root_uv = np.sqrt(e.u) * np.sqrt(e.v)
    return _scalar((2.0 / e.big_z) * np.maximum(abs(e.y) - root_uv, 0.0))


def model_concurrence(p: DotParams) -> float:
    """Closed-form thermal concurrence of the dot model.

    Evaluates max((exp(3k0/16T) - 3 exp(-k0/16T)) / Z, 0) with the same
    log-domain shift as the thermal elements. The numerator is negative for
    every k0 < 0, so ferromagnetic coupling never entangles. T = 0 gives the
    ground-state limit: 1 for the singlet at |r| < k0/4, 0 for the polarized
    state at |r| > k0/4, 1/2 for their equal mixture at |r| = k0/4 (an exact
    test of 4|r| against k0), and 0 for any k0 <= 0. Overflowing exponents
    raise DomainError.
    """
    g = _rules(p.k0, p.r, p.T)
    u, v, e1, e2, _ = _boltzmann_weights(p, g)
    return g.scalar(g.maximum((e2 - 3.0 * e1) / (u + v + e1 + e2), 0.0))


def critical_temperature(k0):
    """Temperature where thermal entanglement disappears: k0/(4 ln 3).

    Only antiferromagnetic coupling has one; returns None for k0 <= 0.
    Over an array k0 it broadcasts, with NaN in the cells without a
    transition, and each cell has the bits of the scalar call. The value
    does not depend on the field r.
    """
    k0 = _check_real(k0=k0)["k0"]
    g = _rules(k0)
    tc = g.scalar(g.where(k0 > 0, k0 / (4.0 * math.log(3.0)), math.nan))
    return None if isinstance(tc, float) and math.isnan(tc) else tc

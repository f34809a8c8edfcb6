"""Thermal entanglement and teleportation fidelity of a two-spin quantum dot.

The package models two exchange-coupled electron spins in a magnetic field,
builds their Gibbs state in closed form, quantifies its entanglement, and
drives the standard teleportation protocol through it. A sweep layer and a
CLI sit on top.
"""

from .entanglement import (
    ConcurrenceResult,
    critical_temperature,
    ground_state_concurrence,
    model_concurrence,
    wootters_concurrence,
    xstate_concurrence,
)
from .linalg import LinalgError
from .model import (
    DomainError,
    DotParams,
    ThermalElements,
    hamiltonian_matrix,
    thermal_elements,
    thermal_state,
    thermal_state_oracle,
)
from .sweep import Axis, FigurePreset, SweepSpec, figure_preset, run_figure, run_sweep
from .teleport import (
    BellOutcome,
    InputState,
    MonteCarloFidelity,
    TeleportOutcome,
    average_fidelity,
    average_fidelity_mc,
    bell_projectors,
    collapse_bruteforce,
    collapsed_closed_form,
    fidelity,
    input_density,
    joint_state,
    output_states,
    pauli_correction,
    subspace_fidelities,
    teleport_outcomes,
)
from .verify import CheckResult, bisect_critical_temperature, verify_all

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConcurrenceResult",
    "critical_temperature",
    "ground_state_concurrence",
    "model_concurrence",
    "wootters_concurrence",
    "xstate_concurrence",
    "LinalgError",
    "DomainError",
    "DotParams",
    "ThermalElements",
    "hamiltonian_matrix",
    "thermal_elements",
    "thermal_state",
    "thermal_state_oracle",
    "Axis",
    "FigurePreset",
    "SweepSpec",
    "figure_preset",
    "run_figure",
    "run_sweep",
    "BellOutcome",
    "InputState",
    "MonteCarloFidelity",
    "TeleportOutcome",
    "average_fidelity",
    "average_fidelity_mc",
    "bell_projectors",
    "collapse_bruteforce",
    "collapsed_closed_form",
    "fidelity",
    "input_density",
    "joint_state",
    "output_states",
    "pauli_correction",
    "subspace_fidelities",
    "teleport_outcomes",
    "CheckResult",
    "bisect_critical_temperature",
    "verify_all",
]

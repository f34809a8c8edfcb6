"""The package namespace: its API list, and what each command imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdot

# The package API in its published order, as the eager imports gave it.
API = [
    "__version__",
    "ConcurrenceResult", "wootters_concurrence", "xstate_concurrence", "model_concurrence",
    "ground_state_concurrence", "critical_temperature",
    "LinalgError",
    "DomainError", "DotParams", "hamiltonian_matrix", "ThermalElements", "thermal_elements",
    "thermal_state", "thermal_state_oracle",
    "Axis", "SweepSpec", "FigurePreset", "run_sweep", "figure_preset", "run_figure",
    "InputState", "BellOutcome", "TeleportOutcome", "MonteCarloFidelity", "input_density",
    "bell_projectors", "joint_state", "collapse_bruteforce", "collapsed_closed_form",
    "pauli_correction", "output_states", "fidelity", "subspace_fidelities",
    "teleport_outcomes", "average_fidelity_closed_form", "average_fidelity",
    "average_fidelity_mc",
    "CheckResult", "bisect_critical_temperature", "verify_all",
]
MODULES = ("entanglement", "linalg", "model", "sweep", "teleport", "verify")
WATCHED = ("qdot.teleport", "qdot.verify", "json")


def run_child(code: str) -> str:
    """Run ``code`` in a fresh interpreter, warnings as errors, with this
    checkout's qdot first on the path; return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(qdot.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def loaded_after(argv: list[str], out: Path) -> list[str]:
    """The watched modules in sys.modules after one CLI command."""
    code = (
        "import sys; from qdot.cli import main; "
        f"assert main({[*argv, '--out', str(out)]!r}) == 0; "
        f"print([m for m in {WATCHED!r} if m in sys.modules])"
    )
    return ast.literal_eval(run_child(code))


@pytest.mark.parametrize("argv", [
    ["concurrence", "--k0", "4", "--sweep", "r:0:2:30", "--sweep", "T:0.05:2:30"],
    ["tc", "--sweep", "k0:-2:4:7"],
    ["ground-state", "--k0", "4", "--r", "1"],
    ["fig", "1"],
], ids=lambda argv: argv[0])
def test_concurrence_commands_load_neither_teleport_nor_verify(tmp_path, argv):
    assert loaded_after(argv, tmp_path / "out.csv") == []


def test_fidelity_sweep_loads_teleport_but_not_verify(tmp_path):
    argv = ["fidelity", "--k0", "4", "--sweep", "T:0.05:2:5", "--sweep", "r:0:4:4",
            "--theta", "1", "--quantities", "F_o,F_e,F_a", "--format", "json"]
    assert loaded_after(argv, tmp_path / "map.json") == ["qdot.teleport", "json"]


def test_importing_the_package_loads_no_module():
    code = "import sys, qdot; print(sorted(m for m in sys.modules if m.startswith('qdot')))"
    assert ast.literal_eval(run_child(code)) == ["qdot"]


@pytest.mark.parametrize("name, loaded", [
    ("teleport", ["qdot", "qdot.linalg", "qdot.model", "qdot.teleport"]),
    ("cli", ["qdot", "qdot.cli", "qdot.entanglement", "qdot.linalg", "qdot.model",
             "qdot.sweep"]),
])
def test_a_submodule_name_loads_that_module_alone(name, loaded):
    code = (
        f"import sys; from qdot import {name}; import qdot; "
        f"assert qdot.{name} is {name} and {name}.__name__ == 'qdot.{name}'; "
        "print(sorted(m for m in sys.modules if m.startswith('qdot')))"
    )
    assert ast.literal_eval(run_child(code)) == loaded


def test_all_lists_the_api_in_order():
    assert qdot.__all__ == API


def test_star_import_binds_each_name_to_its_module_object():
    namespace = {}
    exec("from qdot import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(API)
    assert namespace["__version__"] == qdot.__version__ == "0.1.0"
    owners = {}
    for module in MODULES:
        mod = getattr(qdot, module)
        owners.update((name, mod) for name in mod.__all__)
    for name in API[1:]:
        assert namespace[name] is getattr(owners[name], name), name
        assert getattr(qdot, name) is namespace[name], name


def test_star_import_in_a_fresh_interpreter_binds_the_api():
    code = (
        "from qdot import *; import qdot.teleport as t, qdot.verify as v; "
        "print(joint_state is t.joint_state, verify_all is v.verify_all)"
    )
    assert run_child(code).split() == ["True", "True"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'qdot' has no attribute 'no_such_name'"):
        qdot.no_such_name  # noqa: B018
    assert not hasattr(qdot, "cli_main")
    with pytest.raises(ImportError):
        exec("from qdot import no_such_name", {})

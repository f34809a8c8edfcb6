"""The package namespace: its API list, what each command imports, and the
process entry's use of the garbage collector."""

import ast
import gc
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qdot
from qdot import sweep
from qdot.cli import main

# The package API in its published order: each module's names, modules in
# _MODULES order.
API = [
    "__version__",
    "xstate_concurrence", "model_concurrence", "critical_temperature",
    "LinalgError",
    "DomainError", "DotParams", "ThermalElements", "thermal_elements", "thermal_state",
    "hamiltonian_matrix", "thermal_state_oracle", "ConcurrenceResult", "wootters_concurrence",
    "MonteCarloFidelity", "input_density", "bell_projectors", "joint_state",
    "collapse_bruteforce", "pauli_correction", "fidelity", "average_fidelity",
    "average_fidelity_mc",
    "Axis", "SweepSpec", "run_sweep", "run_figure",
    "InputState", "BellOutcome", "collapsed_closed_form", "output_states",
    "subspace_fidelities", "average_fidelity_closed_form",
    "CheckResult", "bisect_critical_temperature", "verify_all",
]
MODULES = ("entanglement", "linalg", "model", "oracles", "sweep", "teleport", "verify")
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


def loaded_after(argv: list[str], watched=WATCHED, exit_code: int = 0) -> list[str]:
    """The watched modules in sys.modules after one CLI command that exits
    with ``exit_code``; its standard output and error are discarded."""
    code = (
        "import contextlib, io, sys; from qdot.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    assert main({argv!r}) == {exit_code}\n"
        f"print([m for m in {watched!r} if m in sys.modules])"
    )
    return ast.literal_eval(run_child(code))


@pytest.mark.parametrize("argv", [
    ["concurrence", "--k0", "4", "--sweep", "r:0:2:30", "--sweep", "T:0.05:2:30"],
    ["tc", "--sweep", "k0:-2:4:7"],
    ["ground-state", "--k0", "4", "--r", "1"],
    ["fig", "1"],
], ids=lambda argv: argv[0])
def test_concurrence_commands_load_neither_teleport_nor_verify(tmp_path, argv):
    assert loaded_after([*argv, "--out", str(tmp_path / "out.csv")]) == []


def test_fidelity_sweep_loads_teleport_but_not_verify(tmp_path):
    argv = ["fidelity", "--k0", "4", "--sweep", "T:0.05:2:5", "--sweep", "r:0:4:4",
            "--theta", "1", "--quantities", "F_o,F_e,F_a", "--format", "json",
            "--out", str(tmp_path / "map.json")]
    assert loaded_after(argv) == ["qdot.teleport"]


@pytest.mark.parametrize("argv", [
    ["concurrence", "--k0", "4", "--sweep", "r:0:2:30", "--sweep", "T:0.05:2:30"],
    ["concurrence", "--k0", "4", "--r", "1", "--t", "0.5"],
], ids=["sweep", "point"])
def test_json_output_loads_no_json_module(argv):
    # JSON goes through the CSV chunk loop, with its own cell texts
    assert loaded_after([*argv, "--format", "json"], ("json",)) == []


@pytest.mark.parametrize("argv", [
    ["concurrence", "--k0", "4", "--r", "1", "--t", "0.5"],
    ["tc", "--k0", "4"],
    ["tc", "--k0", "-1"],  # no transition: an empty cell, or null
    ["ground-state", "--k0", "4", "--r", "1"],
], ids=" ".join)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_point_commands_load_neither_numpy_nor_linalg(argv, fmt):
    # nor dataclasses and inspect: the records are plain classes
    watched = ("numpy", "qdot.linalg", "dataclasses", "inspect")
    assert loaded_after([*argv, "--format", fmt], watched) == []


@pytest.mark.parametrize("argv", [
    ["concurrence", "--k0", "nan", "--r", "1", "--t", "0.5"],
    ["concurrence", "--k0", "1", "--t", "1e-310"],  # the exponents overflow
    ["concurrence", "--k0", "4", "--t", "-1"],
    ["ground-state", "--k0", "inf"],
], ids=" ".join)
def test_point_domain_errors_load_no_numpy(argv):
    assert loaded_after(argv, ("numpy", "qdot.linalg"), exit_code=3) == []


# The largest grid that runs on Python floats: one output chunk of rows.
SMALL_GRID = sweep._CHUNK_ROWS


@pytest.mark.parametrize("argv", [
    ["concurrence", "--k0", "4", "--t", "0.5", "--sweep", f"r:0:2:{SMALL_GRID + 1}"],
    ["fidelity", "--k0", "4", "--sweep", "T:0.05:2:41", "--sweep", "r:0:4:50"],  # 2,050 cells
    ["verify", "--mc-samples", "2000"],
], ids=lambda argv: argv[0])
def test_grid_fidelity_and_verify_commands_load_numpy(argv):
    # a grid past one output chunk fills arrays; verify's oracles are numpy's
    assert loaded_after(argv, ("numpy",)) == ["numpy"]


@pytest.mark.parametrize("argv", [
    *(["fig", str(n)] for n in range(1, 6)),
    ["fidelity", "--k0", "4", "--r", "1", "--t", "0.5"],
    ["fidelity", "--k0", "4", "--r", "1.5", "--t", "0", "--theta", "0",  # an absent F_o
     "--quantities", "C,Tc,F_o,F_e,F_a,populations"],
    ["concurrence", "--k0", "4", "--t", "0.5", "--sweep", f"r:0:2:{SMALL_GRID}"],
    ["fidelity", "--k0", "4", "--sweep", "T:0:2:32", "--sweep", "theta:0:pi:64"],
], ids=" ".join)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_figures_fidelity_points_and_one_chunk_grids_load_neither_numpy_nor_linalg(argv, fmt):
    # at most one output chunk of cells runs cell by cell on Python floats
    assert loaded_after([*argv, "--format", fmt], ("numpy", "qdot.linalg")) == []


def test_a_small_grid_runs_on_python_floats_only_while_numpy_is_not_loaded():
    # without numpy, a grid of one output chunk is lists of Python floats;
    # once the caller has loaded it, arrays cost far less per cell than the
    # float route, so the same spec fills arrays, and so does a larger grid.
    # qdot.sweep loads no numpy; `from qdot import Axis` binds the whole API,
    # whose oracle modules import it
    code = (
        "import sys; from qdot.sweep import Axis, SweepSpec, run_figure, run_sweep\n"
        "def kinds(table): return sorted({type(c).__name__ for c in table.values()})\n"
        "def grid(n): return SweepSpec((Axis('r', 0.0, 2.0, n),), {'k0': 4.0, 'T': 0.5})\n"
        f"small, large = grid({SMALL_GRID}), grid({SMALL_GRID + 1})\n"
        "print([kinds(run_sweep(small)), kinds(run_figure(1)),\n"
        "       'numpy' in sys.modules, kinds(run_sweep(large)), kinds(run_sweep(small)),\n"
        "       kinds(run_figure(1))])\n"
    )
    assert ast.literal_eval(run_child(code)) == [
        ["list"], ["list"], False, ["ndarray"], ["ndarray"], ["ndarray"]]


# Python-level calls (sys.setprofile "call" events: function frames and
# generator resumes) per cell of a float sweep, as measured, plus a margin;
# each guard deciding per operation whether a value is an array made 73.5
# and 47.1
CALL_BUDGETS = {
    "fidelity-map's 25x40 T x r cells of F_o, F_e and F_a": (
        "SweepSpec((Axis('T', 0.05, 2.0, 25), Axis('r', 0.0, 4.0, 40)),"
        " {'k0': 4.0, 'theta': 1.0, 'phi': 0.0}, ('F_o', 'F_e', 'F_a'))", 24.3 + 1.5),
    "fig 1's 41x41 k0 x r panel of C at T = 0.2": (
        "SweepSpec((Axis('k0', 0.0, 10.0, 41), Axis('r', 0.0, 2.0, 41)), {'T': 0.2})",
        13.1 + 1.5),
}


@pytest.mark.parametrize("spec, budget", CALL_BUDGETS.values(), ids=CALL_BUDGETS)
def test_a_float_cell_makes_few_python_calls(spec, budget):
    # each kernel picks its guard set once per call, from its inputs' types,
    # so a cell of Python floats pays no per-operation question; the first
    # run binds the kernels, the second is counted
    code = (
        "import sys; from qdot.sweep import Axis, SweepSpec, run_sweep\n"
        f"spec = {spec}\n"
        "size = len(run_sweep(spec)['r'])\n"
        "calls = []\n"
        "sys.setprofile(lambda frame, event, arg: event == 'call' and calls.append(1))\n"
        "table = run_sweep(spec)\n"
        "sys.setprofile(None)\n"
        "assert 'numpy' not in sys.modules and isinstance(table['r'], list)\n"
        "print(len(calls) / size)\n"
    )
    per_cell = float(run_child(code))
    assert per_cell <= budget, per_cell


def test_importing_the_cli_loads_no_code_introspection_module():
    # what `from dataclasses import dataclass` would load: 8-12 ms of start-up
    watched = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, qdot.cli; print([m for m in {watched!r} if m in sys.modules])"
    assert ast.literal_eval(run_child(code)) == []


def test_comparing_records_of_floats_loads_no_numpy():
    # one __eq__ serves every record: it asks whether a field is an array
    # without loading numpy to learn that it is not
    code = ("import sys; from qdot.model import DotParams; from qdot.sweep import Axis; "
            "p, q = DotParams(4.0, 1.0, 0.5), DotParams(4.0, 1.0, 0.25); "
            "print([p == DotParams(4, 1, 0.5), p == q, Axis('r', 0.0, 2.0, 5) == "
            "Axis('r', 0, 2, 5), 'numpy' in sys.modules])")
    assert ast.literal_eval(run_child(code)) == [True, False, True, False]


def test_importing_the_package_loads_no_module():
    code = "import sys, qdot; print(sorted(m for m in sys.modules if m.startswith('qdot')))"
    assert ast.literal_eval(run_child(code)) == ["qdot"]


@pytest.mark.parametrize("name, loaded", [
    ("teleport", ["qdot", "qdot.model", "qdot.teleport"]),  # numpy on use, linalg never
    ("cli", ["qdot", "qdot.cli", "qdot.entanglement", "qdot.model", "qdot.sweep"]),
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
        "from qdot import *; import qdot.oracles as o, qdot.verify as v; "
        "print(joint_state is o.joint_state, verify_all is v.verify_all)"
    )
    assert run_child(code).split() == ["True", "True"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'qdot' has no attribute 'no_such_name'"):
        qdot.no_such_name  # noqa: B018
    assert not hasattr(qdot, "cli_main")
    with pytest.raises(ImportError):
        exec("from qdot import no_such_name", {})


def test_verify_names_no_private_teleport_attribute():
    # the checks set the closed forms a user calls against the oracles a user
    # calls, of teleport and of oracles alike
    tree = ast.parse(Path(qdot.__file__).with_name("verify.py").read_text())
    for module, public in (("teleport", "collapsed_closed_form"),
                           ("oracles", "collapse_bruteforce")):
        used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == module}
        used |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == module
                 for alias in node.names}
        assert public in used, module
        assert [name for name in used if name.startswith("_")] == [], module


@pytest.mark.parametrize("module", ["model", "entanglement", "teleport", "sweep"])
def test_a_closed_form_module_imports_neither_oracles_nor_verify(module):
    # nor linalg, the oracles' matrix helpers: at any level, function-local
    # imports included, the oracles stay apart from the forms they check
    tree = ast.parse(Path(qdot.__file__).with_name(f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert parts & {"linalg", "oracles", "verify"} == set(), sorted(imported)


# Each teleport closed form on stacks of states and channels, in its own
# interpreter, and the shapes it returns
CLOSED_FORM_CALLS = {
    "output_states": ("[x.shape for x in teleport.output_states(s, p)]", [(2, 3, 2, 2)] * 2),
    "subspace_fidelities": ("[x.shape for x in teleport.subspace_fidelities(s, p)]", [(2, 3)] * 2),
    "collapsed_closed_form": (
        "[x.shape for o in teleport.BellOutcome for x in teleport.collapsed_closed_form(s, e, o)]",
        [(2, 3, 2, 2), (2, 3)] * 4),
    "average_fidelity_closed_form": ("[teleport.average_fidelity_closed_form(p).shape]", [(2, 1)]),
}


@pytest.mark.parametrize("call, shapes", CLOSED_FORM_CALLS.values(), ids=CLOSED_FORM_CALLS)
def test_a_teleport_closed_form_on_arrays_loads_neither_linalg_nor_oracles(call, shapes):
    # numpy fills the arrays; no oracle or matrix helper is loaded on the way
    code = (
        "import sys; import numpy as np; from qdot import model, teleport\n"
        "s = teleport.InputState(np.array([0.0, 1.0, np.pi]), np.array([0.0, 2.0, 1.3]))\n"
        "p = model.DotParams(np.array([[4.0], [-1.0]]), np.array([[0.2], [1.5]]), 0.5)\n"
        "e = model.thermal_elements(p)\n"
        f"print([{call}, [m for m in ('qdot.linalg', 'qdot.oracles') if m in sys.modules]])\n"
    )
    assert ast.literal_eval(run_child(code)) == [shapes, []]


@pytest.mark.parametrize("argv", [
    *(["fidelity", "--k0", "4", "--r", "1", "--t", "0.5", "--theta", "1", "--phi", "2",
       "--quantities", q] for q in ("C", "Tc", "F_o", "F_e", "F_a", "populations")),
    *(["fidelity", "--k0", "4", "--t", "0.5", "--sweep", f"r:0:4:{cells}", "--theta", "1",
       "--phi", "2", "--quantities", "F_o,F_e,F_a"] for cells in (SMALL_GRID, SMALL_GRID + 1)),
    *(["fig", str(n)] for n in range(1, 6)),
], ids=" ".join)
def test_closed_form_commands_load_neither_oracles_nor_linalg(tmp_path, argv):
    # points of every quantity, fidelity sweeps on both sides of one output
    # chunk and every figure evaluate closed forms alone
    watched = ("qdot.oracles", "qdot.linalg")
    assert loaded_after([*argv, "--out", str(tmp_path / "out")], watched) == []


def test_verify_loads_the_oracles():
    assert loaded_after(["verify", "--mc-samples", "2000"], ("qdot.oracles",)) == ["qdot.oracles"]


def test_in_process_main_leaves_the_collector_as_it_found_it(tmp_path):
    found = gc.isenabled(), gc.get_freeze_count()
    assert main(["fig", "3", "--out", str(tmp_path / "fig3.csv")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == found


@pytest.mark.parametrize("argv, numpy_loaded", [
    (["concurrence", "--k0", "4", "--t", "0.5", "--sweep", f"r:0:2:{SMALL_GRID + 1}"], True),
    (["concurrence", "--k0", "4", "--r", "1", "--t", "0.5"], False),
], ids=["sweep", "point"])
def test_the_process_entry_never_collects(tmp_path, argv, numpy_loaded):
    # runs qdot's __main__ as `python -m qdot` does; a collection counts from
    # the entry on: once the collector is off, or the CLI's import has begun
    code = (
        "import gc, runpy, sys\n"
        "starts = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start'\n"
        "                    and (not gc.isenabled() or 'qdot.cli' in sys.modules)\n"
        "                    and starts.append(info))\n"
        f"sys.argv = ['qdot', *{argv!r}, '--out', {str(tmp_path / 'out.csv')!r}]\n"
        "try:\n"
        "    runpy.run_module('qdot', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print([starts, 'numpy' in sys.modules, gc.get_freeze_count()])\n"
    )
    starts, loaded, frozen = ast.literal_eval(run_child(code))
    assert starts == []
    assert loaded == numpy_loaded
    # what the command left alive is frozen before the shutdown collections
    assert frozen > 0


@pytest.mark.parametrize("runs", [
    # (small, large) on Python floats, then on arrays
    ((["concurrence", "--k0", "4", "--t", "0.5", "--sweep", "r:0:2:10"],
      ["concurrence", "--t", "0.5", "--sweep", "k0:-2:10:40", "--sweep", "r:0:2:50"]),
     (["concurrence", "--k0", "4", "--t", "0.5", "--sweep", f"r:0:2:{SMALL_GRID + 1}"],
      ["concurrence", "--t", "0.5", "--sweep", "k0:-2:10:300", "--sweep", "r:0:2:300"])),
    ((["fidelity", "--k0", "4", "--sweep", "T:0.05:2:5", "--sweep", "r:0:4:2", "--format=json"],
      ["fidelity", "--k0", "4", "--sweep", "T:0.05:2:25", "--sweep", "r:0:4:40", "--format=json"]),
     (["fidelity", "--k0", "4", "--sweep", "T:0.05:2:41", "--sweep", "r:0:4:50", "--format=json"],
      ["fidelity", "--k0", "4", "--sweep", "T:0.05:2:150", "--sweep", "r:0:4:150",
       "--format=json"])),
    ((["verify", "--mc-samples", "20000"], ["verify", "--mc-samples", "8000000", "--seed", "1"]),),
], ids=["concurrence", "fidelity", "verify"])
def test_a_command_leaves_cyclic_garbage_that_does_not_grow_with_its_work(tmp_path, runs):
    # why the process entry never collects: with the collector off, what a
    # command leaves for it is the same after a small and a large run. A grid
    # of one output chunk and a larger one take different routes, so each
    # route has its own pair of sizes
    if runs[0][0][0] != "verify":
        runs = [[[*argv, "--out", str(tmp_path / "out")] for argv in pair] for pair in runs]
    for small, large in runs:
        code = (
            "import contextlib, gc, io; from qdot.cli import main\n"
            "gc.disable()\n"
            "def garbage(argv):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "    return gc.collect()\n"
            f"garbage({small!r})  # first-use imports and caches\n"
            f"print([garbage({small!r}), garbage({large!r})])\n"
        )
        after_small, after_large = ast.literal_eval(run_child(code))
        assert after_small == after_large > 0, (small, after_small, after_large)


def test_the_console_script_runs_what_python_m_qdot_runs():
    pyproject = Path(qdot.__file__).resolve().parents[2] / "pyproject.toml"
    module, name = re.search(r'^qdot = "([\w.]+):(\w+)"$', pyproject.read_text(), re.M).groups()
    entry = importlib.import_module(module)
    assert entry.__name__ == "qdot.__main__" and callable(getattr(entry, name))
    guard = next(node for node in ast.parse(Path(entry.__file__).read_text()).body
                 if isinstance(node, ast.If))
    called = {node.func.id for node in ast.walk(guard)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called == {"SystemExit", name}

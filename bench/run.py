"""Per-layer timings of qdot checkouts, written as one JSON file.

    python3 bench/run.py --src parent=../parent --src change=. --repeat 5 --out BENCH.json

Each ``--src LABEL=PATH`` names a checkout; its ``src/`` is the qdot that
is measured (default: ``checkout=`` the checkout holding this script). Every
repeat starts one fresh interpreter per checkout, in turn, so the checkouts
interleave and share the machine's drift; the turn order rotates by one
each repeat, so no checkout always meets the drift first. That interpreter
times each in-process row once with ``timeit`` (autorange: as many calls as
fill 0.2 s, per call). Then ``import qdot.cli`` is timed inside a fresh
child of its own, and each CLI row runs as another child, whose ``wait4``
gives its wall time and peak resident size. Each row keeps the median of
its ``--repeat`` samples per checkout, and the samples beside it, and, for
each checkout after the first, its ``wins``: in how many repeats its sample
was lower than the first checkout's. Only the standard library is used
here; the children import qdot, and numpy where they fill arrays: the
in-process rows, verify's oracles and grids past 2,048 cells.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SMALL = "sweep 300x300 k0 x r (T=0.5, C)"
LARGE = "sweep 1000x1000 r x T (k0=4, C)"
FIDELITY = "sweep 200x200 r x T (k0=4, F_a)"
# a grid of one output chunk, run by a caller that has numpy loaded: arrays
SMALL_FIDELITY = "sweep 25x40 T x r (k0=4, F_o, F_e, F_a)"
# the same grid forced cell by cell onto Python floats, as the CLI runs it
# without numpy: the per-cell cost of the sweep's evaluation step
FLOAT_FIDELITY = "sweep 25x40 T x r (k0=4, F_o, F_e, F_a) on Python floats"
# an input-angle axis: the fidelities take libm's cos and sin of each cell
THETA = "sweep 300x300 theta x T (k0=4, r=1, F_o, F_e)"
# qdot's __init__ imports nothing until a name is used, so the import row
# times what every command starts with: the CLI module and what it loads.
IMPORT = "import qdot.cli, fresh interpreter"
CLI_ARGVS = (
    ["concurrence", "--k0", "4", "--sweep", "r:0:2:1000", "--sweep", "T:0.05:2:1000"],
    # points: start-up is most of them, and they load no numpy
    ["concurrence", "--k0", "4", "--r", "1", "--t", "0.5"],
    ["tc", "--k0", "4"],
    ["ground-state", "--k0", "4", "--r", "1"],
    ["fidelity", "--k0", "4", "--r", "1", "--t", "0.5"],
    # shaped like qdotbench's fidelity-map: a 25x40 F_a sweep written as JSON
    ["fidelity", "--k0", "4", "--sweep", "T:0.05:2:25", "--sweep", "r:0:4:40",
     "--quantities", "F_o,F_e,F_a", "--format", "json"],
    # 3,362 cells of C in two 1,681-cell panels, each on Python floats
    ["fig", "1"],
    # 7.6 MB of JSON: formatting and writing, as concurrence-map's CSV
    ["concurrence", "--sweep", "k0:-2:10:300", "--sweep", "r:0:2:300", "--t", "0.5",
     "--format", "json"],
)
CLIS = ["CLI " + " ".join(argv) for argv in CLI_ARGVS]

# Scalar rows: each statement is timed as written, with POINT as its setup and
# the names of qdot.__all__ in scope. A checkout that lacks a name in a row
# (an older commit) records no sample for it, and that row's median is null.
POINT = "p = DotParams(4.0, 1.0, 0.5); s = InputState(1.0, 0.0)"
SCALAR_CALLS = (
    "DotParams(4.0, 1.0, 0.5)",
    "thermal_elements(p)",
    "model_concurrence(p)",
    "subspace_fidelities(s, p)",
    "wootters_concurrence(thermal_state(p))",
    "hamiltonian_matrix(p)",
    "thermal_state_oracle(p)",
    "collapse_bruteforce(joint_state(s, p), BellOutcome.PSI_MINUS)",
    "average_fidelity_closed_form(p)",
    "average_fidelity(p)",
    "average_fidelity_mc(p, n=1_000_000)",
    "bisect_critical_temperature(4.0, 1.0)",
    "verify_all()",
)

# Row name -> unit: the in-process rows are sampled by _child, the import row by
# _import_time, the CLI rows by _cli.
ROWS = {
    **{f"{q}, {label}": "s" for label in (SMALL, LARGE) for q in ("run_sweep", "format_csv")},
    **{f"run_sweep, {label}": "s"
       for label in (FIDELITY, SMALL_FIDELITY, FLOAT_FIDELITY, THETA)},
    IMPORT: "s",
    **{f"{call}, per call": "s" for call in SCALAR_CALLS},
    **{f"{cli}, {q}": unit for cli in CLIS for q, unit in (("wall", "s"), ("peak RSS", "MiB"))},
}


def _per_call(timer: timeit.Timer) -> float:
    number, total = timer.autorange()
    return total / number


def _child() -> None:
    """One sample of each in-process row, from the qdot on PYTHONPATH; prints
    the samples and numpy's version as one JSON object."""
    import numpy as np

    import qdot
    import qdot.sweep
    from qdot import Axis, SweepSpec, run_sweep
    from qdot.sweep import format_csv

    src = Path(os.environ["PYTHONPATH"]).resolve()
    assert Path(qdot.__file__).resolve().is_relative_to(src), "qdot imported from elsewhere"
    specs = {
        SMALL: SweepSpec((Axis("k0", -2.0, 10.0, 300), Axis("r", 0.0, 2.0, 300)), {"T": 0.5}),
        LARGE: SweepSpec((Axis("r", 0.0, 2.0, 1000), Axis("T", 0.05, 2.0, 1000)), {"k0": 4.0}),
    }
    samples = {}
    for label, spec in specs.items():
        samples[f"run_sweep, {label}"] = _per_call(timeit.Timer(lambda: run_sweep(spec)))
        table = run_sweep(spec)
        samples[f"format_csv, {label}"] = _per_call(timeit.Timer(lambda: format_csv(table)))
        del table
    specs = {
        FIDELITY: SweepSpec((Axis("r", 0.0, 2.0, 200), Axis("T", 0.05, 2.0, 200)),
                            {"k0": 4.0}, ("F_a",)),
        SMALL_FIDELITY: SweepSpec((Axis("T", 0.05, 2.0, 25), Axis("r", 0.0, 4.0, 40)),
                                  {"k0": 4.0, "theta": 1.0, "phi": 0.0}, ("F_o", "F_e", "F_a")),
        THETA: SweepSpec((Axis("theta", 0.0, 3.0, 300), Axis("T", 0.05, 2.0, 300)),
                         {"k0": 4.0, "r": 1.0, "phi": 0.0}, ("F_o", "F_e")),
    }
    for label, spec in specs.items():
        samples[f"run_sweep, {label}"] = _per_call(timeit.Timer(lambda: run_sweep(spec)))
    spec = SweepSpec((Axis("T", 0.05, 2.0, 25), Axis("r", 0.0, 4.0, 40)),
                     {"k0": 4.0, "theta": 1.0, "phi": 2.0}, ("F_o", "F_e", "F_a"))
    route = qdot.sweep._on_floats
    qdot.sweep._on_floats = lambda size: True  # numpy is loaded here: force the float route
    try:
        assert isinstance(run_sweep(spec)["F_a"], list)
        samples[f"run_sweep, {FLOAT_FIDELITY}"] = _per_call(timeit.Timer(lambda: run_sweep(spec)))
    finally:
        qdot.sweep._on_floats = route
    api = {name: getattr(qdot, name) for name in qdot.__all__}
    for call in SCALAR_CALLS:
        try:
            samples[f"{call}, per call"] = _per_call(timeit.Timer(call, POINT, globals=api))
        except NameError:
            pass
    print(json.dumps({"numpy": np.__version__, "samples": samples}))


def _import_time(env: dict[str, str]) -> float:
    """Seconds of `import qdot.cli` in a fresh interpreter, timed inside it."""
    code = "import time; t = time.perf_counter(); import qdot.cli; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out)


def _cli(env: dict[str, str], cli_argv: list[str]) -> tuple[float, float]:
    """Wall seconds and peak RSS (MiB) of one CLI run, from its own wait4."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [sys.executable, "-m", "qdot", *cli_argv, "--out", str(Path(tmp) / "out.csv")]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _sample(path: Path) -> tuple[str, dict[str, float]]:
    """numpy's version and one sample of every row for the checkout at path."""
    env = {**os.environ, "PYTHONPATH": str(path / "src")}
    out = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out)
    samples = result["samples"]
    samples[IMPORT] = _import_time(env)
    for cli, argv in zip(CLIS, CLI_ARGVS):
        samples[f"{cli}, wall"], samples[f"{cli}, peak RSS"] = _cli(env, argv)
    return result["numpy"], samples


def _wins(samples: list[float], first: list[float]) -> int | None:
    """In how many repeats ``samples`` was lower than the first checkout's;
    None where either has no sample."""
    if not samples or not first:
        return None
    return sum(x < y for x, y in zip(samples, first))


def _commit(path: Path) -> str | None:
    """The checkout's commit, suffixed -dirty if tracked files differ from it."""
    try:
        proc = subprocess.run(["git", "-C", str(path), "describe", "--always", "--dirty",
                               "--abbrev=40"], capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() or None


def _checkout(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {text!r}")
    if not (Path(path) / "src" / "qdot").is_dir():
        raise argparse.ArgumentTypeError(f"{path!r} has no src/qdot")
    return label, Path(path).resolve()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append", type=_checkout, metavar="LABEL=PATH",
                        help="a checkout to measure; repeat to compare (default: this one)")
    parser.add_argument("--repeat", type=int, default=5, help="samples per row (median)")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args()
    srcs = args.src or [("checkout", ROOT)]
    checkouts = dict(srcs)
    if len(checkouts) < len(srcs):
        parser.error("each --src needs its own label")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    samples = {label: {name: [] for name in ROWS} for label in checkouts}
    numpy_versions = set()
    labels = list(checkouts)
    for i in range(args.repeat):
        turn = i % len(labels)
        for label in labels[turn:] + labels[:turn]:
            version, sample = _sample(checkouts[label])
            numpy_versions.add(version)
            for name, value in sample.items():
                samples[label][name].append(value)
    report = {
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": ", ".join(sorted(numpy_versions)),
        },
        "repeat": args.repeat,
        "point": POINT,
        "checkouts": {label: {"commit": _commit(path)} for label, path in checkouts.items()},
        "rows": [
            {
                "name": name,
                "unit": unit,
                "median": {label: statistics.median(samples[label][name])
                           if samples[label][name] else None for label in checkouts},
                "samples": {label: samples[label][name] for label in checkouts},
                "wins": {label: _wins(samples[label][name], samples[labels[0]][name])
                         for label in labels[1:]},
            }
            for name, unit in ROWS.items()
        ],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        _child()
    else:
        main()

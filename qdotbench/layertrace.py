"""Traced run of one qdot CLI command, and the per-layer table from it.

Run as a script, this is the traced child: it times ``import numpy`` and
``import qdot.cli``, wraps every public function (and public method of a
public class) of the layer modules, runs ``qdot.cli.main`` in-process on
the given argv, and writes the spans to a JSON file when the command ends.

A wrapper is installed under every module-level name that holds the
function, in every layer module, because that is where its callers look it
up: ``cli`` calls ``qdot.cli.run_sweep``, ``sweep`` calls
``qdot.sweep.average_fidelity``, ``verify`` goes through
``teleport.<name>``. A span is (name, start, end, parent); the parent is
the span that was open when the call began.

    python3 qdotbench/layertrace.py --src SRC --spans FILE -- concurrence ...
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("model", "entanglement", "teleport", "linalg", "sweep", "verify", "cli")

VERIFY_CHECKS = (
    "check_thermal_oracle",
    "check_concurrence_triple",
    "check_critical_temperature",
    "check_collapse",
    "check_completeness",
    "check_r0_coincidence",
    "check_subspace_order",
    "check_quadrature_mc",
)

# Work counted at a span boundary, from the wrapped call's result.
WORK = {
    "sweep.format_csv": ("bytes", len),
    "sweep.format_json": ("bytes", len),
    "teleport.average_fidelity_mc": ("samples", lambda res: res.samples),
}


class Tracer:
    """Spans and work counts, kept in memory until the command ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.work: dict[str, float] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        unit, measure = WORK.get(name, (None, None))
        work = self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)
            if measure is not None:
                key = f"{name}.{unit}"
                work[key] = work.get(key, 0) + measure(result)
            return result

        return traced

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "work": self.work, **extra}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the layer modules' public functions where their callers find them."""
    modules = [importlib.import_module(f"qdot.{name}") for name in LAYERS]
    wrapped = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth, tracer.wrap(f"{layer}.{attr}.{meth}", fn))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    # teleport looks the Gauss-Legendre rule up on numpy's legendre module.
    legendre = importlib.import_module("numpy.polynomial.legendre")
    legendre.leggauss = tracer.wrap("teleport.leggauss", legendre.leggauss)


def layer_stats(trace: dict) -> dict[str, dict[str, float]]:
    """Calls, total time and self time per span name.

    Self time is the span's duration minus the durations of its direct
    children; the command runs on one thread, so children nest inside
    their parent.
    """
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in trace["names"]}
    for (index, start, end, _), inner in zip(spans, child):
        s = stats[trace["names"][index]]
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - inner
    return stats


def per_layer_metrics(trace: dict) -> dict[str, float]:
    """The per-layer metrics of one traced command (all but the overhead)."""
    stats = layer_stats(trace)
    work = trace["work"]

    def get(name, field):
        return stats[name][field] if name in stats else 0.0

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    csv_s = get("sweep.format_csv", "total_s")
    mc_s = get("teleport.average_fidelity_mc", "total_s")
    metrics = {
        "import.numpy_s": trace["import_numpy_s"],
        "import.qdot_s": trace["import_qdot_s"],
        "cli.main_s": get("cli.main", "total_s"),
        "sweep.points_s": get("sweep.SweepSpec.points", "total_s"),
        "sweep.run_sweep_self_s": get("sweep.run_sweep", "self_s"),
        "sweep.format_csv_s": csv_s,
        "sweep.format_csv_mib_per_s": rate(
            work.get("sweep.format_csv.bytes", 0) / 2**20, csv_s),
        "sweep.format_json_s": get("sweep.format_json", "total_s"),
        "entanglement.model_concurrence.calls": get("entanglement.model_concurrence", "calls"),
        "entanglement.model_concurrence.self_s": get("entanglement.model_concurrence", "self_s"),
        "teleport.average_fidelity.calls": get("teleport.average_fidelity", "calls"),
        "teleport.average_fidelity.self_s": get("teleport.average_fidelity", "self_s"),
        "teleport.leggauss.calls": get("teleport.leggauss", "calls"),
        "teleport.leggauss.s": get("teleport.leggauss", "total_s"),
        "teleport.subspace_fidelities.self_s": get("teleport.subspace_fidelities", "self_s"),
        "model.thermal_elements.calls": get("model.thermal_elements", "calls"),
        "teleport.average_fidelity_mc.samples_per_s": rate(
            work.get("teleport.average_fidelity_mc.samples", 0), mc_s),
        "teleport.collapse_bruteforce.self_s": get("teleport.collapse_bruteforce", "self_s"),
        "entanglement.wootters_concurrence.self_s": get(
            "entanglement.wootters_concurrence", "self_s"),
        "model.thermal_state_oracle.self_s": get("model.thermal_state_oracle", "self_s"),
    }
    for fn in ("hermitian_eig", "kron", "partial_trace", "validate_density_matrix"):
        metrics[f"linalg.{fn}.self_s"] = get(f"linalg.{fn}", "self_s")
    for check in VERIFY_CHECKS:
        metrics[f"verify.{check}_s"] = get(f"verify.{check}", "total_s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the qdot package")
    parser.add_argument("--spans", required=True, help="file the spans are written to")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the qdot argv")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    sys.path.insert(0, args.src)
    import qdot.cli

    t2 = time.perf_counter()
    src = os.path.realpath(args.src)
    if not os.path.realpath(qdot.cli.__file__).startswith(src + os.sep):
        print(f"qdot imported from {qdot.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = Tracer()
    install(tracer)
    code = qdot.cli.main(argv)
    tracer.dump(args.spans, {"import_numpy_s": t1 - t0, "import_qdot_s": t2 - t1,
                             "exit_code": code})
    return code


if __name__ == "__main__":
    sys.exit(main())

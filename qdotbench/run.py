"""Benchmark of the qdot command line: three workloads with checked outputs.

    python3 qdotbench/run.py --workload concurrence-map --seed 1 --seconds 25 --trace 0

Run it from anywhere; it benchmarks the qdot package in ``src/`` next to
this directory. Every child process is started serially, one at a time, with
``PYTHONPATH`` pointing at that ``src/``.

With ``--trace 0`` it runs the workload's CLI command once to warm up and
check its output, then for ``--seconds`` seconds repeats rounds of one run
of the command, one run of control.py and one fresh interpreter's
``import qdot.cli``, and reports the median import time (setup_s) and the
median wall time (both scaled by the control, see measure) and peak
resident size of the CLI child. With ``--trace 1`` it runs pairs of one
untraced and one traced run (layertrace.py) for ``--seconds`` seconds and
reports the per-layer metrics and the tracing overhead. Every output must be byte-identical to
the first, which checks.py checks against the reference.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; it is also written to
``qdotbench/out/``, next to the last output and span file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layertrace import per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CHILD_TIMEOUT_S = 60
MIN_ROUNDS = 3
MC_SAMPLES = 8_000_000
# control.py's wall time and its `import numpy` on the reference host
# (2 vCPU, Python 3.11.7, numpy 2.4.6), about their medians.
CONTROL_S = 0.38
NUMPY_IMPORT_S = 0.14

PROBE = (
    "import time; t = time.perf_counter(); import qdot.cli; "
    "d = time.perf_counter() - t; print(repr(d)); print(qdot.cli.__file__)"
)


def workload(name: str, seed: int) -> tuple[list[str], dict, int]:
    """The CLI argv, the spec the checks need, and the grid point count.

    Grid bounds, temperature and input angles move a little with the seed;
    the sizes do not, so every seed does the same amount of work.
    """
    rng = random.Random(f"{name}/{seed}")
    if name == "concurrence-map":
        axes = [("k0", -2.0 + rng.uniform(0, 0.5), 10.0 + rng.uniform(0, 0.5), 300),
                ("r", rng.uniform(0, 0.1), 2.0 + rng.uniform(0, 0.2), 300)]
        spec = {"axes": axes, "T": 0.5 + rng.uniform(0, 0.1)}
        argv = ["concurrence", *_sweeps(axes), "--t", repr(spec["T"])]
        return argv + ["--out", str(OUT / f"{name}.csv")], spec, 300 * 300
    if name == "fidelity-map":
        # r = 0 stays on the grid (F_o = F_e there); r runs past the level
        # crossing at k0/4 = 1 into the polarised regime.
        axes = [("T", 0.05 + rng.uniform(0, 0.01), 2.0 + rng.uniform(0, 0.01), 25),
                ("r", 0.0, 4.0 + rng.uniform(0, 0.2), 40)]
        spec = {"axes": axes, "k0": 4.0,
                "theta": rng.uniform(0.8, 1.3), "phi": rng.uniform(0, 6.28)}
        argv = ["fidelity", "--k0", "4", *_sweeps(axes),
                "--theta", repr(spec["theta"]), "--phi", repr(spec["phi"]),
                "--quantities", "F_o,F_e,F_a", "--format", "json"]
        return argv + ["--out", str(OUT / f"{name}.json")], spec, 25 * 40
    if name == "oracle-verify":
        spec = {"mc_samples": MC_SAMPLES, "seed": seed}
        return ["verify", "--mc-samples", str(MC_SAMPLES), "--seed", str(seed)], spec, 0
    raise SystemExit(f"unknown workload {name!r}")


def _sweeps(axes) -> list[str]:
    out = []
    for name, lo, hi, steps in axes:
        out += ["--sweep", f"{name}:{lo!r}:{hi!r}:{steps}"]
    return out


def spawn(cmd: list[str], stdout: Path, stderr: Path) -> tuple[float, float, int]:
    """Run one child from spawn to exit: (wall seconds, its peak RSS in MiB,
    exit code).

    The peak resident size comes from wait4. Linux carries the spawning
    process's own peak over into the child's at exec, so this process stays
    small: it never imports numpy, and the output checks run in a child of
    their own.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    """Runs the workload's commands, counts them, and checks their outputs.

    The first successful output is checked against the reference by
    checks.py; every later one must be byte-identical to it.
    """

    def __init__(self, name: str, spec: dict, output: Path | None) -> None:
        self.name = name
        self.spec = spec
        self.stdout = OUT / f"{name}.stdout"
        self.stderr = OUT / f"{name}.stderr"
        self.output = output or self.stdout
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: str | None = None

    def invoke(self, cmd: list[str]) -> tuple[float, float] | None:
        """One operation: run the command and check what it wrote."""
        self.attempted += 1
        self.output.unlink(missing_ok=True)
        wall, rss, code = spawn(cmd, self.stdout, self.stderr)
        if code != 0:
            self.failed += 1
            tail = self.stderr.read_text(errors="replace")[-2000:]
            print(f"exit code {code}: {tail}", file=sys.stderr)
            return None
        if not self.output.exists():
            self.problems.append(f"exit code 0 but no output at {self.output}")
            return None
        digest = _digest(self.output)
        if self.first is None:
            self.first = digest
            self._check()
        elif digest != self.first:
            self.problems.append("output differs from the first run's")
        return wall, rss

    def _check(self) -> None:
        report = OUT / f"{self.name}.check"
        cmd = [sys.executable, str(HERE / "checks.py"), self.name,
               json.dumps(self.spec), str(self.output)]
        _, _, code = spawn(cmd, report, self.stderr)
        if code != 0:
            tail = self.stderr.read_text(errors="replace")[-2000:]
            self.problems.append(f"output check crashed: {tail}")
        else:
            self.problems += json.loads(report.read_text())


def rounds(seconds: float, body) -> None:
    """Call ``body`` at least MIN_ROUNDS times, and again while one more
    call as long as the last still fits in ``seconds``."""
    start = time.perf_counter()
    done = 0
    last = 0.0
    while done < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        body()
        last = time.perf_counter() - begin
        done += 1


def import_time() -> float:
    """A fresh interpreter's ``import qdot.cli``, timed inside the child."""
    stdout, stderr = OUT / "probe.stdout", OUT / "probe.stderr"
    _, _, code = spawn([sys.executable, "-c", PROBE], stdout, stderr)
    lines = stdout.read_text().split("\n")
    if code != 0 or len(lines) < 2 or not Path(lines[1]).resolve().is_relative_to(
            SRC.resolve()):
        raise SystemExit(f"import probe failed or found qdot outside {SRC}: {lines}")
    return float(lines[0])


def control() -> tuple[float, float]:
    """control.py's wall time and its ``import numpy`` time."""
    stdout, stderr = OUT / "control.stdout", OUT / "control.stderr"
    wall, _, code = spawn([sys.executable, str(HERE / "control.py")], stdout, stderr)
    if code != 0:
        raise SystemExit(f"control run failed: {stderr.read_text()[-2000:]}")
    return wall, float(stdout.read_text())


def measure(runner: Runner, cli: list[str], seconds: int) -> tuple[dict, dict]:
    """End-to-end metrics, and the raw medians behind the scaled ones.

    A round is one run of the command, one run of control.py and one
    import probe, so all three sample the whole run. The command's wall
    time is scaled by CONTROL_S over control.py's wall time in the same
    round, and the import time by NUMPY_IMPORT_S over control.py's
    ``import numpy``. That takes out the drift of a shared host's speed,
    which moved raw medians of 25-second runs by up to 27% between runs on
    the reference host.
    """
    runner.invoke(cli)  # warm-up run: fills the bytecode cache; checked, not timed
    walls, scaled, rss, setup, setup_raw = [], [], [], [], []

    def body():
        result = runner.invoke(cli)
        control_wall, numpy_import = control()
        setup_raw.append(import_time())
        setup.append(setup_raw[-1] * NUMPY_IMPORT_S / numpy_import)
        if result is not None:
            walls.append(result[0])
            scaled.append(result[0] * CONTROL_S / control_wall)
            rss.append(result[1])

    rounds(seconds, body)
    if not walls:
        raise SystemExit("no CLI run succeeded")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(scaled),
        "peak_rss_mib": statistics.median(rss),
    }
    raw = {"raw setup_s": statistics.median(setup_raw),
           "raw wall_s": statistics.median(walls), "runs timed": len(walls)}
    return metrics, raw


def measure_traced(runner: Runner, cli: list[str], argv: list[str],
                   seconds: int) -> tuple[dict, dict]:
    """Pairs of one untraced and one traced run, so that drift in the
    machine's speed falls on both sides of the overhead."""
    spans = OUT / f"spans-{runner.name}.json"
    traced_cmd = [sys.executable, str(HERE / "layertrace.py"), "--src", str(SRC),
                  "--spans", str(spans), "--", *argv]
    untraced, traced, tables = [], [], []

    def body():
        plain = runner.invoke(cli)
        spans.unlink(missing_ok=True)
        with_trace = runner.invoke(traced_cmd)
        if plain is not None and with_trace is not None:
            untraced.append(plain[0])
            traced.append(with_trace[0])
            tables.append(per_layer_metrics(json.loads(spans.read_text())))

    runner.invoke(cli)  # warm-up run: fills the bytecode cache; checked, not timed
    rounds(seconds, body)
    if not tables:
        raise SystemExit("no CLI run succeeded")
    metrics = {key: statistics.median(t[key] for t in tables) for key in tables[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics, {"pairs timed": len(tables)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("concurrence-map", "fidelity-map", "oracle-verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "qdot" / "cli.py").is_file():
        print(f"no qdot package at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    argv, spec, points = workload(args.workload, args.seed)
    output = Path(argv[-1]) if "--out" in argv else None
    cli = [sys.executable, "-m", "qdot", *argv]
    runner = Runner(args.workload, spec, output)
    if args.trace:
        values, notes = measure_traced(runner, cli, argv, args.seconds)
        listed = bench["per_layer"]
    else:
        values, notes = measure(runner, cli, args.seconds)
        listed = bench["end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        raise SystemExit(f"measured {sorted(values)} but BENCHMARK.json lists "
                         f"{sorted(m['name'] for m in listed)}")

    print(f"workload {args.workload}, seed {args.seed}: qdot {' '.join(argv)}")
    for m in listed:
        print(f"  {m['name']:<44} {values[m['name']]:.6g} {m['unit']}")
    for key, value in notes.items():
        print(f"  ({key}: {value:.6g})")
    if points and not args.trace:
        print(f"  (raw points_per_s: {points / notes['raw wall_s']:.6g})")
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

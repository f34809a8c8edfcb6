"""Output checks of the three workloads.

Each check returns a list of problems (empty when the output is right).
They compare against the benchmark's own reference (reference.py) and
against properties the model must have, never against a stored copy of an
earlier output. Every row is checked, so one wrong cell fails the run.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

import reference

# The reference routes are accurate to a few 1e-16 (see test_reference.py).
C_TOL = 1e-12
F_TOL = 1e-12
# qdot's F_a is a 64-node Gauss-Legendre rule, off by up to 5.8e-9 on the
# fidelity-map region (k0 = 4, 0.05 <= T <= 2.01, 0 <= r <= 4.2) against
# 40-digit mpmath. A more accurate F_a also passes.
FA_TOL = 1e-8
R0_TOL = 1e-15
# Rows this close to the transition k0/(4T) = ln 3 may round either way.
TC_BAND = 1e-9
CHUNK = 16384

VERIFY_CHECKS = (
    "thermal state vs spectral oracle",
    "concurrence triple agreement",
    "critical temperature by bisection",
    "teleportation collapse vs brute force",
    "branch probability completeness",
    "output states coincide at r = 0",
    "subspace fidelity ordering",
    "quadrature vs Monte Carlo",
)
_VERIFY_LINE = re.compile(
    r"^\[(ok  |FAIL)\] (.+?): max deviation (\S+) vs threshold (\S+)(?: \((.*)\))?$"
)


def _axis_problems(name, got, lo, hi, steps, index) -> list[str]:
    """Axis column ``got`` must read lo + i (hi - lo)/(steps - 1), i = index."""
    expected = lo + (hi - lo) / (steps - 1) * index
    dev = np.abs(got - expected).max()
    if dev > 1e-12 * max(abs(lo), abs(hi)):
        return [f"axis {name} deviates from lo + i*step by {dev:.3e}"]
    return []


def _grid_index(spec) -> tuple[np.ndarray, np.ndarray]:
    """Row-major axis indices of a two-axis grid, first axis outermost."""
    (_, _, _, n0), (_, _, _, n1) = spec["axes"]
    return np.repeat(np.arange(n0), n1), np.tile(np.arange(n1), n0)


def _chunks(n):
    for start in range(0, n, CHUNK):
        yield slice(start, min(start + CHUNK, n))


def check_concurrence_map(text: str, spec) -> list[str]:
    lines = text.split("\n")
    if lines[0] != "k0,r,C" or lines[-1] != "":
        return [f"unexpected CSV framing: header {lines[0]!r}"]
    (_, klo, khi, kn), (_, rlo, rhi, rn) = spec["axes"]
    rows = lines[1:-1]
    if len(rows) != kn * rn:
        return [f"{len(rows)} rows, expected {kn * rn}"]
    data = np.array([[float(x) for x in row.split(",")] for row in rows])
    if data.shape != (kn * rn, 3) or not np.isfinite(data).all():
        return ["rows are not three finite numbers each"]
    k0, r, c = data.T
    i, j = _grid_index(spec)
    problems = _axis_problems("k0", k0, klo, khi, kn, i)
    problems += _axis_problems("r", r, rlo, rhi, rn, j)
    T = spec["T"]
    if not ((c >= 0.0) & (c <= 1.0)).all():
        problems.append("C outside [0, 1]")
    margin = k0 / (4.0 * T) - math.log(3.0)
    clear = np.abs(margin) > TC_BAND
    wrong = clear & ((c > 0.0) != (margin > 0.0))
    if wrong.any():
        problems.append(f"{int(wrong.sum())} rows where C > 0 disagrees with T < Tc")
    dev = 0.0
    for s in _chunks(len(c)):
        ref = reference.concurrence(k0[s], r[s], np.full(s.stop - s.start, T))
        dev = max(dev, float(np.abs(c[s] - ref).max()))
    if dev > C_TOL:
        problems.append(f"C deviates from the Gibbs+Wootters reference by {dev:.3e}")
    return problems


def check_fidelity_map(text: str, spec) -> list[str]:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if payload.get("columns") != ["T", "r", "F_o", "F_e", "F_a"]:
        return [f"unexpected columns {payload.get('columns')!r}"]
    (_, tlo, thi, tn), (_, rlo, rhi, rn) = spec["axes"]
    data = np.array(payload["rows"], dtype=float)
    if data.shape != (tn * rn, 5) or not np.isfinite(data).all():
        return [f"rows have shape {data.shape}, expected {(tn * rn, 5)} finite numbers"]
    T, r, f_o, f_e, f_a = data.T
    i, j = _grid_index(spec)
    problems = _axis_problems("T", T, tlo, thi, tn, i)
    problems += _axis_problems("r", r, rlo, rhi, rn, j)
    fids = data[:, 2:]
    if not ((fids >= 0.0) & (fids <= 1.0)).all():
        problems.append("a fidelity lies outside [0, 1]")
    zero_field = r == 0.0
    if not zero_field.any():
        problems.append("no r = 0 rows")
    elif np.abs(f_o - f_e)[zero_field].max() > R0_TOL:
        problems.append("F_o != F_e on an r = 0 row")
    k0 = np.full(len(T), spec["k0"])
    theta = np.full(len(T), spec["theta"])
    phi = np.full(len(T), spec["phi"])
    dev_f = dev_a = 0.0
    for s in _chunks(len(T)):
        ref_o, ref_e = reference.subspace_fidelities(k0[s], r[s], T[s], theta[s], phi[s])
        ref_a = reference.average_fidelity(k0[s], r[s], T[s])
        dev_f = max(dev_f, float(np.abs(f_o[s] - ref_o).max()),
                    float(np.abs(f_e[s] - ref_e).max()))
        dev_a = max(dev_a, float(np.abs(f_a[s] - ref_a).max()))
    if dev_f > F_TOL:
        problems.append(f"F_o/F_e deviate from the 8x8 reference by {dev_f:.3e}")
    if dev_a > FA_TOL:
        problems.append(f"F_a deviates from the reference integral by {dev_a:.3e}")
    return problems


def check_oracle_verify(text: str, spec) -> list[str]:
    lines = text.strip("\n").split("\n")
    problems = []
    seen = []
    for line in lines[:-1]:
        m = _VERIFY_LINE.match(line)
        if not m:
            problems.append(f"unparsed line {line!r}")
            continue
        status, name, dev, threshold, detail = m.groups()
        seen.append(name)
        if status != "ok  ":
            problems.append(f"check {name!r} reports FAIL")
        if not float(dev) <= float(threshold):
            problems.append(f"check {name!r}: deviation {dev} above threshold {threshold}")
        if name == "quadrature vs Monte Carlo":
            echo = f"n={spec['mc_samples']}, seed={spec['seed']}"
            if echo not in (detail or ""):
                problems.append(f"Monte Carlo line does not echo {echo!r}")
    if tuple(seen) != VERIFY_CHECKS:
        problems.append(f"checks reported {seen}, expected {list(VERIFY_CHECKS)}")
    if lines[-1] != f"all {len(VERIFY_CHECKS)} checks passed":
        problems.append(f"unexpected summary line {lines[-1]!r}")
    return problems


CHECKS = {
    "concurrence-map": check_concurrence_map,
    "fidelity-map": check_fidelity_map,
    "oracle-verify": check_oracle_verify,
}


if __name__ == "__main__":
    # checks.py WORKLOAD SPEC_JSON OUTPUT_FILE: prints the problems as JSON.
    import sys

    workload, spec_json, path = sys.argv[1:]
    with open(path, encoding="utf-8") as fh:
        print(json.dumps(CHECKS[workload](fh.read(), json.loads(spec_json))))

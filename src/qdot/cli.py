"""Command line front end.

Subcommands: concurrence, fidelity, tc, ground-state, fig, verify.
Exit codes: 0 success, 1 usage error, 2 verification failure, 3 numeric
domain error (for example a sweep that touches T = 0).
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from .entanglement import ground_state_concurrence
from .model import DomainError
from .sweep import (
    Axis,
    SweepSpec,
    UsageError,
    figure_preset,
    format_csv,
    format_json,
    run_figure,
    run_sweep,
)
from .verify import verify_all

__all__ = ["main"]

_DEFAULT_THETA = math.pi / 3.0

_PI_FORM = re.compile(r"^(-)?(?:(\d+(?:\.\d+)?)\*)?pi(?:/(\d+(?:\.\d+)?))?$")


def parse_angle(text: str) -> float:
    """Angles accept plain floats or pi forms: pi, pi/3, 2*pi/3, -pi/2."""
    t = text.replace(" ", "").lower()
    m = _PI_FORM.match(t)
    if m:
        sign = -1.0 if m.group(1) else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        div = float(m.group(3)) if m.group(3) else 1.0
        return sign * coef * math.pi / div
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"cannot parse angle {text!r}") from None


def parse_axis(text: str) -> Axis:
    parts = text.split(":")
    if len(parts) != 4:
        raise UsageError(f"expected name:min:max:steps, got {text!r}")
    name, lo, hi, steps = (p.strip() for p in parts)
    convert = parse_angle if name == "theta" else _parse_float
    try:
        n = int(steps)
    except ValueError:
        raise UsageError(f"axis steps must be an integer, got {steps!r}") from None
    return Axis(name=name, lo=convert(lo), hi=convert(hi), steps=n)


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"expected a number, got {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"expected an integer, got {text!r}") from None


def parse_quantities(text: str) -> tuple[str, ...]:
    items = tuple(q.strip() for q in text.split(",") if q.strip())
    if not items:
        raise UsageError("empty quantity list")
    return items


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _flag(convert):
    """argparse shows an ArgumentTypeError's text but hides a UsageError's."""

    def parse(text: str):
        try:
            return convert(text)
        except UsageError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None

    return parse


# Config key -> (argument destination, converter). Only sweep may repeat.
_CONFIG_KEYS = {
    "k0": ("k0", _parse_float),
    "r": ("r", _parse_float),
    "t": ("T", _parse_float),
    "theta": ("theta", parse_angle),
    "phi": ("phi", parse_angle),
    "sweep": ("sweep", parse_axis),
    "out": ("out", str),
    "format": ("format", str),
    "workers": ("workers", _parse_int),
    "quantities": ("quantities", str),
    "tol": ("tol", _parse_float),
    "seed": ("seed", _parse_int),
    "mc-samples": ("mc_samples", _parse_int),
}


def load_config(path: str) -> dict[str, list[str]]:
    """Read `key = value` lines; later duplicates append (for sweep)."""
    entries: dict[str, list[str]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        entries.setdefault(key.lower(), []).append(value)
    return entries


def apply_config(args: argparse.Namespace) -> None:
    """Fill unset argument slots from the config file; flags win."""
    entries = load_config(args.config)
    for key, values in entries.items():
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        dest, convert = _CONFIG_KEYS[key]
        if not hasattr(args, dest):
            raise UsageError(f"config key {key!r} does not apply to this subcommand")
        if getattr(args, dest) is not None:
            continue
        if key == "sweep":
            setattr(args, dest, [convert(v) for v in values])
        else:
            if len(values) > 1:
                raise UsageError(f"config key {key!r} given more than once")
            setattr(args, dest, convert(values[0]))


def _add_common(sp: argparse.ArgumentParser, angles: bool) -> None:
    sp.add_argument("--k0", type=float, default=None, help="exchange coupling")
    sp.add_argument("--r", type=float, default=None, help="Zeeman energy (default 0)")
    sp.add_argument("--t", dest="T", type=float, default=None, help="temperature")
    if angles:
        sp.add_argument("--theta", type=_flag(parse_angle), default=None,
                        help="input polar angle (accepts pi forms; default pi/3)")
        sp.add_argument("--phi", type=_flag(parse_angle), default=None,
                        help="input azimuthal angle (default 0)")
    sp.add_argument("--sweep", action="append", type=_flag(parse_axis), default=None,
                    metavar="NAME:MIN:MAX:STEPS", help="sweep axis, up to twice")
    sp.add_argument("--quantities", default=None, help="comma-separated quantity list")
    _add_output(sp)


def _add_output(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default=None)
    sp.add_argument("--workers", type=int, default=None, help="no effect (kept for compatibility)")
    sp.add_argument("--config", default=None, help="key = value defaults file")


# Subcommands that evaluate a sweep: help text and default quantities.
_SWEEP_COMMANDS = {
    "concurrence": ("thermal concurrence at a point or on a sweep", ("C",)),
    "fidelity": ("teleportation fidelities at a point or on a sweep", ("F_o", "F_e", "F_a")),
    "tc": ("critical temperature", ("Tc",)),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="qdot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (text, quantities) in _SWEEP_COMMANDS.items():
        p = sub.add_parser(name, help=text)
        _add_common(p, angles=name == "fidelity")
        p.set_defaults(func=cmd_sweep, default_quantities=quantities)

    p = sub.add_parser("ground-state", help="zero-temperature concurrence")
    p.add_argument("--k0", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    _add_output(p)
    p.set_defaults(func=cmd_ground_state)

    p = sub.add_parser("fig", help="emit a preset figure sweep")
    p.add_argument("fig_id", type=int, metavar="N", help="figure number, 1 to 5")
    _add_output(p)
    p.set_defaults(func=cmd_fig)

    p = sub.add_parser("verify", help="run the oracle cross-checks")
    p.add_argument("--tol", type=float, default=None, help="comparison tolerance (default 1e-10)")
    p.add_argument("--seed", type=int, default=None, help="Monte Carlo seed (default 0)")
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=None,
                   help="Monte Carlo sample count (default 200000)")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def _emit(table: dict[str, np.ndarray], args) -> None:
    fmt = args.format or "csv"
    text = format_csv(table) if fmt == "csv" else format_json(table)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def _fixed_params(args) -> dict[str, float]:
    fixed: dict[str, float] = {}
    if args.k0 is not None:
        fixed["k0"] = args.k0
    fixed["r"] = args.r if args.r is not None else 0.0
    if args.T is not None:
        fixed["T"] = args.T
    if hasattr(args, "theta"):  # only fidelity takes the input angles
        fixed["theta"] = args.theta if args.theta is not None else _DEFAULT_THETA
        fixed["phi"] = args.phi if args.phi is not None else 0.0
    return fixed


def cmd_sweep(args) -> int:
    quantities = (
        parse_quantities(args.quantities) if args.quantities else args.default_quantities
    )
    spec = SweepSpec(
        axes=tuple(args.sweep or ()),
        fixed=_fixed_params(args),
        quantities=quantities,
    )
    _emit(run_sweep(spec), args)
    return 0


def cmd_ground_state(args) -> int:
    if args.k0 is None:
        raise UsageError("ground-state needs --k0")
    r = args.r if args.r is not None else 0.0
    value = ground_state_concurrence(args.k0, r)
    _emit({"k0": np.array([args.k0]), "r": np.array([r]), "C": np.array([value])}, args)
    return 0


def cmd_fig(args) -> int:
    _emit(run_figure(figure_preset(args.fig_id)), args)
    return 0


def cmd_verify(args) -> int:
    tol = args.tol if args.tol is not None else 1e-10
    seed = args.seed if args.seed is not None else 0
    mc_samples = args.mc_samples if args.mc_samples is not None else 200_000
    results = verify_all(tolerance=tol, mc_samples=mc_samples, seed=seed)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed")
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            apply_config(args)
        workers = getattr(args, "workers", None)
        if workers is not None and workers < 1:
            raise UsageError(f"--workers must be at least 1, got {workers}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3

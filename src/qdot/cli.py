"""Command line front end.

Subcommands: concurrence, fidelity, tc, ground-state, fig, verify.
Exit codes: 0 success, 1 usage error or unwritable output (an --out path,
or stdout on a full disk or closed early by its reader), 2 verification
failure, 3 numeric domain error (for example a negative temperature).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from typing import TYPE_CHECKING

from .model import DomainError
from .sweep import (
    PARAMETER_NAMES,
    Axis,
    SweepSpec,
    UsageError,
    iter_csv,
    iter_json,
    run_figure,
    run_sweep,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = ["main"]

_PI_FORM = re.compile(r"^(-)?(?:(\d+(?:\.\d+)?)\*)?pi(?:/(\d+(?:\.\d+)?))?$")


def _pi_form(text: str) -> re.Match | None:
    """parse_angle's reading of ``text`` as a pi form, or None."""
    return _PI_FORM.match(text.replace(" ", "").lower())


def parse_angle(text: str) -> float:
    """Angles accept plain floats or pi forms: pi, pi/3, 2*pi/3, -pi/2."""
    m = _pi_form(text)
    if m:
        sign = -1.0 if m.group(1) else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        div = float(m.group(3)) if m.group(3) else 1.0
        if div == 0.0:
            raise UsageError(f"angle {text!r} divides by zero")
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


def parse_quantities(text: str) -> tuple[str, ...]:
    items = tuple(q.strip() for q in text.split(",") if q.strip())
    if not items:
        raise UsageError("empty quantity list")
    return items


class _NegativeNumber:
    """argparse's test of a token that starts with "-": a value exactly when
    float() or parse_angle's pi form reads it, so "--k0 -1_000" reads as
    "--k0=-1_000"; "-h" stays help."""

    @staticmethod
    def match(text: str) -> bool:
        if _pi_form(text):
            return True
        try:
            float(text)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own matcher (3.10, 3.11) knows only decimals: -1e-3 read as an option
        self._negative_number_matcher = _NegativeNumber

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _flag(convert, ok=None, reason: str = ""):
    """A flag's converter, used for the flag and the config file alike.

    argparse shows an ArgumentTypeError's text but hides a UsageError's; a
    value failing ``ok`` is refused with ``reason``.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except UsageError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None
        if ok is not None and not ok(value):
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {reason}")
        return value

    parse.__name__ = convert.__name__  # argparse names it: "invalid int value: 'x'"
    return parse


def _option(parser: argparse.ArgumentParser, key: str) -> str:
    """The flag a config key names, as argparse resolves it: the exact long
    name, else a unique prefix, else ``--key`` as written."""
    flag = f"--{key}"
    matches = [o for o in parser._option_string_actions if o.startswith(flag)]
    return flag if flag in matches or len(matches) != 1 else matches[0]


def load_config(path: str, parser: argparse.ArgumentParser) -> list[str]:
    """Read `key = value` lines as `--option=value` tokens for the subcommand's
    parser, so a key takes the same converter, choices and range as its flag.
    The checks see the resolved flag: `k` and `k0` clash, `con` is `config`."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    tokens: list[str] = []
    seen: set[str] = set()
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip().lower()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        flag = _option(parser, key)
        if flag == "--config":
            raise UsageError(f"{path}:{lineno}: a config file cannot name another")
        if flag in seen and flag != "--sweep":
            raise UsageError(f"{path}:{lineno}: config key {flag[2:]!r} given more than once")
        seen.add(flag)
        tokens.append(f"{flag}={value.strip()}")
    return tokens


def _add_couplings(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--k0", type=float, default=None, help="exchange coupling")
    sp.add_argument("--r", type=float, default=0.0, help="Zeeman energy (default 0)")


def _add_common(sp: argparse.ArgumentParser, angles: bool) -> None:
    _add_couplings(sp)
    sp.add_argument("--t", dest="T", type=float, default=None, help="temperature")
    if angles:
        sp.add_argument("--theta", type=_flag(parse_angle), default=math.pi / 3.0,
                        help="input polar angle (accepts pi forms; default pi/3)")
        sp.add_argument("--phi", type=_flag(parse_angle), default=0.0,
                        help="input azimuthal angle (default 0)")
    sp.add_argument("--sweep", action="append", type=_flag(parse_axis), default=None,
                    metavar="NAME:MIN:MAX:STEPS", help="sweep axis, up to twice")
    sp.add_argument("--quantities", type=_flag(parse_quantities),
                    help="comma-separated quantity list")
    _add_output(sp)


def _add_output(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--workers", type=_flag(int, lambda n: n >= 1, "must be at least 1"),
                    default=1, help="no effect (kept for compatibility)")


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
        p.set_defaults(func=cmd_sweep, quantities=quantities)

    p = sub.add_parser("ground-state", help="zero-temperature concurrence")
    _add_couplings(p)
    _add_output(p)
    p.set_defaults(func=cmd_ground_state)

    p = sub.add_parser("fig", help="emit a preset figure sweep")
    p.add_argument("fig_id", type=int, metavar="N", help="figure number, 1 to 5")
    _add_output(p)
    p.set_defaults(func=cmd_fig)

    p = sub.add_parser("verify", help="run the oracle cross-checks")
    p.add_argument("--tol", type=_flag(float, lambda x: 0.0 <= x < math.inf,
                                       "must be finite and at least 0"),
                   default=1e-10, help="comparison tolerance (default 1e-10)")
    p.add_argument("--seed", type=_flag(int, lambda n: 0 <= n < 2**128, "must be in [0, 2**128)"),
                   default=0, help="Monte Carlo seed (default 0)")
    p.add_argument("--mc-samples", dest="mc_samples",
                   type=_flag(int, lambda n: n >= 2, "must be at least 2"),
                   default=200_000, help="Monte Carlo sample count (default 200000)")
    p.set_defaults(func=cmd_verify)

    for p in sub.choices.values():  # load_config resolves its keys through it
        p.add_argument("--config", default=None, help="key = value defaults file")
        p.set_defaults(parser=p)
    return parser


def _emit(table: dict[str, np.ndarray] | dict[str, list[float]], args) -> None:
    # either format is written chunk by chunk as it is formatted, never held
    # whole; the file opens only now, so a sweep that raised has left none. A
    # table of Python floats is written without numpy
    pieces = (iter_csv if args.format == "csv" else iter_json)(table)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out!r}: {exc}") from None
    else:
        sys.stdout.writelines(pieces)


def _fixed_params(args) -> dict[str, float]:
    # k0 and T have no default; only fidelity takes the input angles
    return {n: v for n in PARAMETER_NAMES if (v := getattr(args, n, None)) is not None}


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        axes=tuple(args.sweep or ()),
        fixed=_fixed_params(args),
        quantities=args.quantities,
    )
    _emit(run_sweep(spec), args)
    return 0


def cmd_ground_state(args) -> int:
    spec = SweepSpec((), {**_fixed_params(args), "T": 0.0}, ("C",))
    _emit({"k0": [args.k0], "r": [args.r], **run_sweep(spec)}, args)
    return 0


def cmd_fig(args) -> int:
    _emit(run_figure(args.fig_id), args)
    return 0


def cmd_verify(args) -> int:
    from .verify import verify_all  # imported here: no other command loads verify

    results = verify_all(tolerance=args.tol, mc_samples=args.mc_samples, seed=args.seed)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        path = args.config
        if path:
            # the file's flags go first, so the command line's win by position
            tokens = load_config(path, args.parser)
            if getattr(args, "sweep", None):  # flag sweeps replace the file's
                tokens = [t for t in tokens if not t.startswith("--sweep=")]
            try:
                args = parser.parse_args([args.command, *tokens, *argv[1:]])
            except UsageError as exc:  # argv parsed cleanly, so the file is at fault
                raise UsageError(f"{path}: {exc}") from None
        code = args.func(args)
        sys.stdout.flush()  # a closed reader raises here, not at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # stdout failed (--out and config files raise UsageError): send what is
        # left to devnull, so that the flush at exit stays quiet, and fail as an
        # unwritable --out does; a reader that closed the pipe needs no message
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 1

"""The CLI contract as a property: whatever the argv and config file,
``qdot`` exits 0, 1, 2 or 3, raises nothing, and on a success prints no NaN
and was given only finite parameter values.

Argv is drawn over the six subcommands, their flags and edge values (NaN,
infinities, a float past the range, -0, an int past int64, a division of pi
by zero, the empty string, negative exponents), each flag spaced or joined
with "=". Some commands move some of their flags into a config file in a
temporary directory, which argv names with --config. Runs in-process under
warnings as errors. Grids stay at 12 steps an axis and Monte Carlo at 2e4
samples, so that the file runs in seconds. Examples are derandomized, so
every run draws the same ones.
"""

import contextlib
import io
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdot.cli import main, parse_angle
from qdot.sweep import QUANTITY_NAMES

# plain values three times as often as edge values, and plain choices of
# every other kind more often than bad ones, so that most commands run
PLAIN = ["0", "-0", "1", "-1", "4", "0.5", "-2.5", "1e-3", "-1e-3", "2E-1", "3e+0"]
EDGE = ["1e-310", "1e-400", "1e308", "-1e308", "1e400", "-1e400", "nan", "-nan", "inf", "-inf",
        str(2**70), "", "x"]
NUMBERS = st.sampled_from(PLAIN * 3 + EDGE)
ANGLES = NUMBERS | st.sampled_from(["pi", "pi/3", "2*pi/3", "-pi/2", "pi/0", "2*pi/0"])
STEPS = st.sampled_from([str(n) for n in range(2, 13)] * 2 + ["-1", "0", "1", "", "2.5", "x"])


@st.composite
def _axes(draw):
    name = draw(st.sampled_from(["k0", "r", "T", "theta"] * 3 + ["phi", "x"]))
    if draw(st.sampled_from([True, True, False])):  # an axis with lo below hi
        lo = draw(st.sampled_from(["-2", "0", "-0", "1e-3"]))
        hi = draw(st.sampled_from(["1", "4"]))
        return f"{name}:{lo}:{hi}:{draw(STEPS)}"
    values = ANGLES if name == "theta" else NUMBERS
    parts = [name, draw(values), draw(values), draw(STEPS)]
    return ":".join(parts[:draw(st.sampled_from([2, 4, 4, 4]))])


QUANTITIES = st.lists(st.sampled_from([*QUANTITY_NAMES, "x", ""]), min_size=1, max_size=3,
                      unique=True).map(",".join)
OUTPUT = {
    "--format": st.sampled_from(["csv", "json"] * 3 + ["xml"]),
    "--workers": st.sampled_from(["1", "2"] * 3 + ["0", "-1", "x"]),
}
SWEEP = {"--k0": NUMBERS, "--r": NUMBERS, "--t": NUMBERS, "--sweep": _axes(),
         "--quantities": QUANTITIES, **OUTPUT}
FLAGS = {
    "concurrence": SWEEP,
    "tc": SWEEP,
    "fidelity": {**SWEEP, "--theta": ANGLES, "--phi": ANGLES},
    "ground-state": {"--k0": NUMBERS, "--r": NUMBERS, **OUTPUT},
    "fig": OUTPUT,
    "verify": {"--tol": NUMBERS,
               "--seed": st.sampled_from(["0", "1", "-1", str(2**70), str(2**128), "x"])},
}
# the flags a command needs, drawn more often than the others
NEEDED = {"--k0", "--t"}
# at exit 0, the last value given to each of these is a finite number
PARAMETERS = ("--k0", "--r", "--t", "--theta", "--phi")
# verify always takes a sample count at most 2e4: its default is 2e5
MC_SAMPLES = st.sampled_from(["2", "3", "1000", "20000", "2e4", "-2", "x", ""])
FIG_IDS = st.sampled_from(["1", "2", "3", "4", "5", "0", "6", "-1", str(2**70), "x", ""])


@st.composite
def _command(draw):
    """(argv, config lines): one command in three moves some of its flags
    into a config file, as `key = value` lines."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    pairs = []
    for name in sorted(flags):
        counts = [0, 1, 1, 1, 1, 2] if name in NEEDED else [0, 0, 0, 1, 1, 2]
        times = draw(st.sampled_from(counts))
        pairs += [(name, draw(flags[name])) for _ in range(times)]
    if command == "verify":
        pairs.append(("--mc-samples", draw(MC_SAMPLES)))
    argv = [command] if command != "fig" else [command, draw(FIG_IDS)]
    config = draw(st.sampled_from([False, False, True]))
    lines = []
    for name, value in draw(st.permutations(pairs)):
        if config and draw(st.booleans()):
            lines.append(f"{name[2:]} = {value}")
        else:
            argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    return argv, lines


def _parameter_values(argv, lines):
    """The last value given to each parameter flag: the config file's go
    first, so the command line's win by position."""
    pairs = [(f"--{key.strip()}", value.strip())
             for key, _, value in (line.partition("=") for line in lines)]
    tokens = iter(argv)
    for token in tokens:
        name, joined, value = token.partition("=")
        if name in PARAMETERS:
            pairs.append((name, value if joined else next(tokens)))
    return {name: value for name, value in pairs if name in PARAMETERS}


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_command())
@example((["verify", "--tol", "0", "--mc-samples", "1000"], []))  # exit 2
@example((["concurrence", "--k0", "4", "--sweep", "T:0.5:1:3", "--t", "-1"], []))  # exit 3
@example((["tc", "--quantities", "Tc,C", "--k0", "nan", "--t", "1"], []))  # exit 3
@example((["tc", "--sweep", "k0:-4:4:9", "--format", "json"], []))  # Tc is null where k0 <= 0
@example((["tc", "--k0", "4", "--t", "nan"], []))  # exit 3: Tc reads no T, but T is checked
@example((["fidelity", "--k0", "4", "--t", "1", "--quantities", "F_a"], ["theta = nan"]))
def test_every_argv_exits_with_a_documented_code(command):
    argv, lines = command
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if lines:
            path = os.path.join(tmp, "qdot.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(f"{line}\n" for line in lines)
            argv = [*argv, "--config", path]
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, lines, code, err.getvalue())
    if code == 0:
        assert "nan" not in out.getvalue().lower(), (argv, lines, out.getvalue())
        values = _parameter_values(argv, lines)
        assert all(math.isfinite(parse_angle(v)) for v in values.values()), (argv, lines)

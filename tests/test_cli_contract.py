"""The CLI contract as a property: whatever the argv, ``qdot`` exits 0, 1, 2
or 3, raises nothing, and prints no NaN on a success.

Argv is drawn over the six subcommands, their flags and edge values (NaN,
infinities, a float past the range, -0, an int past int64, a division of pi
by zero, the empty string, negative exponents), each flag spaced or joined
with "=". Runs in-process under warnings as errors. Grids stay at 12 steps
an axis and Monte Carlo at 2e4 samples, so that the file runs in seconds.
Examples are derandomized, so every run draws the same ones.
"""

import contextlib
import io
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdot.cli import main
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
# verify always takes a sample count at most 2e4: its default is 2e5
MC_SAMPLES = st.sampled_from(["2", "3", "1000", "20000", "2e4", "-2", "x", ""])
FIG_IDS = st.sampled_from(["1", "2", "3", "4", "5", "0", "6", "-1", str(2**70), "x", ""])


@st.composite
def _argv(draw):
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
    for name, value in draw(st.permutations(pairs)):
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    return argv


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_argv())
@example(["verify", "--tol", "0", "--mc-samples", "1000"])  # exit 2
@example(["concurrence", "--k0", "4", "--sweep", "T:0.5:1:3", "--t", "-1"])  # exit 3
@example(["tc", "--quantities", "Tc,C", "--k0", "nan", "--t", "1"])  # exit 3
@example(["tc", "--sweep", "k0:-4:4:9", "--format", "json"])  # Tc is null where k0 <= 0
def test_every_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    if code == 0:
        assert "nan" not in out.getvalue().lower(), (argv, out.getvalue())

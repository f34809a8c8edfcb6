"""Parameter sweeps over the model, with CSV/JSON emission.

A sweep varies one or two parameters on inclusive uniform grids while the
rest stay fixed, and evaluates each requested quantity into one named column,
block by block over the grid. Rows run in lexicographic axis order and are
byte-stable: the same spec always renders the same text. numpy, teleport
and json are imported where a grid, a fidelity or a JSON table first needs
them: a concurrence sweep to CSV loads neither teleport nor json, and a spec
with no axes is one row of Python floats, which loads no numpy but for the
fidelities.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import TYPE_CHECKING

from .entanglement import critical_temperature, model_concurrence
from .model import DomainError, DotParams, _Record, thermal_elements

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Axis", "SweepSpec", "FigurePreset", "run_sweep", "figure_preset", "run_figure"]

PARAMETER_NAMES = ("k0", "r", "T", "theta", "phi")
SWEEPABLE = ("k0", "r", "T", "theta")
QUANTITY_NAMES = ("C", "Tc", "F_o", "F_e", "F_a", "populations")
_FIDELITY_QUANTITIES = frozenset({"F_o", "F_e", "F_a"})
_POPULATION_COLUMNS = ("p11", "p10", "p01", "p00")
# Grid cells per evaluation block: run_sweep's temporaries scale with this,
# not with the grid.
_EVAL_BLOCK = 1 << 14


class UsageError(ValueError):
    """Raised for malformed sweep requests (bad axes, unknown quantities)."""


class Axis(_Record):
    """Inclusive uniform grid over one parameter."""

    __slots__ = ("name", "lo", "hi", "steps")

    def __init__(self, name: str, lo: float, hi: float, steps: int) -> None:
        _Record.__init__(self, name, lo, hi, steps)
        if self.name not in SWEEPABLE:
            raise UsageError(f"cannot sweep {self.name!r}; choose one of {SWEEPABLE}")
        # also false for a span hi - lo that overflows between finite bounds
        if not math.isfinite(self.hi - self.lo):
            raise UsageError(f"axis {self.name} bounds and span must be finite")
        if self.steps < 2:
            raise UsageError(f"axis {self.name} needs at least 2 steps, got {self.steps}")
        if not self.lo < self.hi:
            raise UsageError(f"axis {self.name} needs lo < hi, got [{self.lo}, {self.hi}]")

    def values(self) -> np.ndarray:
        """Grid points lo + i (hi - lo) / (steps - 1), endpoints inclusive."""
        import numpy as np

        step = (self.hi - self.lo) / (self.steps - 1)
        return self.lo + step * np.arange(self.steps)


class SweepSpec(_Record):
    """One sweep: up to two axes, fixed parameters (none by default),
    requested quantities."""

    __slots__ = ("axes", "fixed", "quantities")

    def __init__(self, axes: tuple[Axis, ...], fixed: dict[str, float] | None = None,
                 quantities: tuple[str, ...] = ("C",)) -> None:
        _Record.__init__(self, axes, {} if fixed is None else fixed, quantities)
        if len(self.axes) > 2:
            raise UsageError(f"at most two sweep axes, got {len(self.axes)}")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate sweep axis in {names}")
        if len(set(self.quantities)) != len(self.quantities):
            raise UsageError(f"duplicate quantity in {list(self.quantities)}")
        for key in self.fixed:
            if key not in PARAMETER_NAMES:
                raise UsageError(f"unknown parameter {key!r}")
        if not self.quantities:
            raise UsageError("no quantities requested")
        for q in self.quantities:
            if q not in QUANTITY_NAMES:
                raise UsageError(f"unknown quantity {q!r}; choose from {QUANTITY_NAMES}")
        if "theta" in names and not (_FIDELITY_QUANTITIES & set(self.quantities)):
            raise UsageError("a theta axis only makes sense for fidelity quantities")
        for axis in self.axes:
            if axis.name == "T" and axis.lo <= 0:
                raise DomainError(
                    "temperature axis touches T <= 0; thermal sweeps need T > 0 "
                    "(the T = 0 point is served by the ground-state limits)"
                )
        needed = self._needed_parameters()
        missing = [
            k for k in needed if k not in names and k not in self.fixed
        ]
        if missing:
            raise UsageError(f"missing parameter value(s): {', '.join(missing)}")

    def _needed_parameters(self) -> tuple[str, ...]:
        needed = ["k0"]
        thermal = set(self.quantities) - {"Tc"}
        if thermal:
            needed += ["r", "T"]
        # F_a integrates the angles out, so only the conditional fidelities
        # pin the input state.
        if {"F_o", "F_e"} & set(self.quantities):
            needed += ["theta", "phi"]
        return tuple(needed)

    def grid(self) -> dict[str, np.ndarray | float]:
        """A flat column per axis, lexicographic in the axes (the last varies
        fastest), and the fixed values as scalars that broadcast."""
        import numpy as np

        try:
            mesh = np.meshgrid(*(a.values() for a in self.axes), indexing="ij")
        except (MemoryError, ValueError) as exc:  # numpy refuses before it allocates
            shape = " x ".join(f"{a.name}:{a.steps}" for a in self.axes)
            raise UsageError(f"grid {shape} is too large: {exc}") from None
        return {**self.fixed, **{a.name: m.ravel() for a, m in zip(self.axes, mesh)}}


def run_sweep(spec: SweepSpec) -> dict[str, np.ndarray] | dict[str, float]:
    """Evaluate a sweep into a table: column name -> one flat float column.

    The axis columns come first, then the quantities in request order; NaN
    marks an absent value (Tc where there is no transition). Tc is one call
    over k0. The other quantities fill their columns over blocks of
    _EVAL_BLOCK cells in grid order; each is elementwise, so a cell has the
    bits of the whole-grid call and a sweep raises at its first bad cell.
    A column whose inputs are all fixed is a zero-stride view. A spec with
    no axes is one point, as every closed form takes one: its row of Python
    floats, with the bits of the matching cell of a grid through it, which
    loads numpy only for the fidelities.
    """
    thermal = _thermal_columns(spec)
    if not spec.axes:
        row = {}
        if "Tc" in spec.quantities:  # first, as on a grid, so the same error wins
            tc = critical_temperature(spec.fixed["k0"])
            row["Tc"] = math.nan if tc is None else tc
        if thermal:
            row.update(_evaluate(thermal, spec.fixed))
        return {name: row[name] for q in spec.quantities for name in thermal.get(q, (q,))}
    import numpy as np

    grid = spec.grid()
    size = math.prod(a.steps for a in spec.axes)
    table = {a.name: grid[a.name] for a in spec.axes}
    for q in spec.quantities:
        if q == "Tc":
            # an array k0, so that no transition reads NaN rather than None
            table[q] = critical_temperature(np.atleast_1d(grid["k0"]))
        else:
            table.update((name, np.empty(size)) for name in thermal[q])
    for start in range(0, size if thermal else 0, _EVAL_BLOCK):
        cells = slice(start, start + _EVAL_BLOCK)
        at = {n: v[cells] if isinstance(v, np.ndarray) else v for n, v in grid.items()}
        for name, value in _evaluate(thermal, at):
            if np.ndim(value):
                table[name][cells] = value
            else:  # every input fixed: one value, broadcast below
                table[name] = value
    return {name: np.broadcast_to(np.asarray(c, float), size) for name, c in table.items()}


def _thermal_columns(spec: SweepSpec) -> dict[str, tuple[str, ...]]:
    """Each requested quantity but Tc -> the columns it fills."""
    return {q: _POPULATION_COLUMNS if q == "populations" else (q,)
            for q in spec.quantities if q != "Tc"}


def _evaluate(thermal: dict[str, tuple[str, ...]], at: dict) -> Iterator[tuple[str, object]]:
    """(column, values) of each quantity in ``thermal`` at the parameters in
    ``at``: Python floats for a point, arrays over a block of cells."""
    params = DotParams(at["k0"], at["r"], at["T"])
    fids = None  # (F_o, F_e), evaluated together
    for q, names in thermal.items():
        if q == "C":
            values = (model_concurrence(params),)
        elif q in ("F_o", "F_e"):
            from .teleport import InputState, subspace_fidelities

            fids = fids or subspace_fidelities(InputState(at["theta"], at["phi"]), params)
            values = (fids[q == "F_e"],)
        elif q == "F_a":
            from .teleport import average_fidelity_closed_form

            values = (average_fidelity_closed_form(params),)
        else:  # populations
            e = thermal_elements(params)
            values = (e.u / e.big_z, e.w / e.big_z, e.w / e.big_z, e.v / e.big_z)
        yield from zip(names, values)


class FigurePreset(_Record):
    """A multi-panel sweep; panels share axes and quantities."""

    __slots__ = ("panel_key", "panels")

    def __init__(self, panel_key: str | None, panels: tuple[SweepSpec, ...]) -> None:
        _Record.__init__(self, panel_key, panels)


# Figure id -> (panel key, panel values, axes, fixed values, quantities); a
# figure without a panel key is one panel. Fidelities are cut at theta = pi/3.
_CUT = {"theta": math.pi / 3.0, "phi": 0.0}
_FIDELITIES = ("F_o", "F_e", "F_a")
_FIGURES = {
    1: ("T", (0.2, 1.0), (Axis("k0", 0.0, 10.0, 41), Axis("r", 0.0, 2.0, 41)), {}, ("C",)),
    2: ("k0", (3.0, 4.0, 5.0, 10.0), (Axis("T", 0.05, 2.5, 50),), {"r": 1.0}, ("C",)),
    3: (None, (), (Axis("T", 0.02, 2.0, 50),), {"k0": 2.0, "r": 0.2, **_CUT}, _FIDELITIES),
    4: (None, (), (Axis("k0", 0.0, 10.0, 50),), {"T": 0.2, "r": 0.2, **_CUT}, _FIDELITIES),
    5: (None, (), (Axis("r", 0.0, 10.0, 50),), {"T": 0.2, "k0": 4.0, **_CUT}, _FIDELITIES),
}


def figure_preset(fig_id: int) -> FigurePreset:
    """Preset sweeps behind the `fig` subcommand.

    Fixed parameters follow the standard presentation of this model:
    concurrence maps and cuts (1, 2), then fidelity versus temperature,
    coupling, and field at theta = pi/3 (3, 4, 5). Grid ranges and step
    counts are chosen for smooth plots; panel values are part of the preset.
    """
    if fig_id not in _FIGURES:
        raise UsageError(f"unknown figure {fig_id}; presets are 1 through 5")
    key, values, axes, fixed, quantities = _FIGURES[fig_id]
    panels = [{key: v} for v in values] if key else [{}]
    return FigurePreset(
        panel_key=key,
        panels=tuple(SweepSpec(axes, {**panel, **fixed}, quantities) for panel in panels),
    )


def run_figure(preset: FigurePreset) -> dict[str, np.ndarray]:
    """Evaluate all panels and concatenate their tables; the panel value
    becomes the leading column."""
    import numpy as np

    tables = []
    for spec in preset.panels:
        table = run_sweep(spec)
        if preset.panel_key is not None:
            size = math.prod(a.steps for a in spec.axes)
            table = {preset.panel_key: np.full(size, spec.fixed[preset.panel_key]), **table}
        tables.append(table)
    return {name: np.concatenate([t[name] for t in tables]) for name in tables[0]}


# Rows formatted per chunk; a chunk reuses its predecessor's texts, so an axis
# shorter than it is formatted once. At 4,096 rows the chunk's object arrays
# left a 300x300 CLI sweep's peak RSS 0.3-0.4 MiB higher.
_CSV_CHUNK_ROWS = 1 << 11


def _cells(values: list[float]) -> list[str]:
    """CSV cells: format(x, ".17g"), which keeps the sign of -0.0; NaN (Tc
    without a transition) is an empty cell."""
    return ["" if x != x else format(x, ".17g") for x in values]


def iter_csv(table: dict[str, np.ndarray] | dict[str, float]) -> Iterator[str]:
    """A table's CSV text in pieces: the header line, then one string per
    chunk of rows, so a writer never holds the whole text. Texts are keyed on
    float64 bit patterns (-0.0 and +0.0 apart), and a chunk formats only those
    its column's previous chunk lacked: an axis shorter than a chunk costs its
    distinct values once. A point's row of Python floats is one line, written
    without numpy."""
    columns = list(table.values())
    yield ",".join(table) + "\n"
    if isinstance(columns[0], float):
        yield ",".join(_cells(columns)) + "\n"
        return
    import numpy as np

    size = len(columns[0])
    # Rows as cell, ",", cell, ..., "\n", one join per chunk from one buffer. A
    # string per row ran as fast, but the CLI's peak RSS was up to 3 MiB higher
    # in 5-25% of runs, depending on the lengths of its paths.
    cells = np.full((min(size, _CSV_CHUNK_ROWS), 2 * len(columns)), ",", object)
    cells[:, -1] = "\n"
    # per column, the last chunk's sorted bit patterns and texts; "0" (+0.0) keeps it nonempty
    seen = [(np.zeros(1, np.int64), np.array(["0"], object))] * len(columns)
    for start in range(0, size, _CSV_CHUNK_ROWS):
        rows = cells[:size - start]
        for j, col in enumerate(columns):
            bits = np.ascontiguousarray(col[start:start + len(rows)], float).view(np.int64)
            keys, inverse = np.unique(bits, return_inverse=True)
            old_keys, old_texts = seen[j]
            at = np.minimum(np.searchsorted(old_keys, keys), len(old_keys) - 1)
            texts, new = old_texts[at], old_keys[at] != keys
            fresh = keys[new].view(float).tolist()
            texts[new] = _cells(fresh)
            seen[j] = keys, texts
            rows[:, 2 * j] = texts[inverse]
        yield "".join(rows.ravel().tolist())


def format_csv(table: dict[str, np.ndarray] | dict[str, float]) -> str:
    """Render a table as CSV: format(x, ".17g") cells, LF newlines, no trailing
    delimiter; NaN (Tc without a transition) is an empty cell. The joined
    pieces of iter_csv."""
    return "".join(iter_csv(table))


def format_json(table: dict[str, np.ndarray] | dict[str, float]) -> str:
    """Render a table, or a point's row, as a JSON object with columns and
    row arrays; NaN is null."""
    import json

    lists = ([c] if isinstance(c, float) else c.tolist() for c in table.values())
    columns = [[None if math.isnan(x) else x for x in col] for col in lists]
    payload = {"columns": list(table), "rows": list(zip(*columns))}
    return json.dumps(payload, indent=2) + "\n"

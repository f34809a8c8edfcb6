"""Parameter sweeps over the model, with CSV/JSON emission.

A sweep varies up to two parameters on inclusive uniform grids while the
rest stay fixed, and evaluates each requested quantity into one named column;
a table's columns share one length, and a point, with no axis, is one row.
Rows run in lexicographic axis order and are byte-stable: the same spec
always renders the same text, CSV or JSON, chunk by chunk. One loop fills
every table. A point, and while numpy is not loaded a grid that fits one
output chunk, runs cell by cell into lists of Python floats and loads none;
any other grid fills arrays block by block. teleport is imported once per
sweep that requests a fidelity, so a concurrence sweep loads none.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING

from .entanglement import critical_temperature, model_concurrence
from .model import DomainError, DotParams, _check_real, _check_temperature, _is_array, _Record
from .model import thermal_elements

if TYPE_CHECKING:
    import numpy as np

    # a table: columns of one length, float arrays or lists of Python floats
    Table = dict[str, np.ndarray] | dict[str, list[float]]

__all__ = ["Axis", "SweepSpec", "run_sweep", "run_figure"]

PARAMETER_NAMES = ("k0", "r", "T", "theta", "phi")
SWEEPABLE = ("k0", "r", "T", "theta")
# Quantity -> (the parameters it reads, the columns it fills). Tc needs only
# k0; F_a integrates the angles out, so only the conditional fidelities pin
# the input state.
_QUANTITIES = {
    "C": (("k0", "r", "T"), ("C",)),
    "Tc": (("k0",), ("Tc",)),
    "F_o": (("k0", "r", "T", "theta", "phi"), ("F_o",)),
    "F_e": (("k0", "r", "T", "theta", "phi"), ("F_e",)),
    "F_a": (("k0", "r", "T"), ("F_a",)),
    "populations": (("k0", "r", "T"), ("p11", "p10", "p01", "p00")),
}
QUANTITY_NAMES = tuple(_QUANTITIES)
# a theta axis needs one of these among the quantities, F_a too, which reads no angle
_FIDELITIES = ("F_o", "F_e", "F_a")
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
        try:  # math.isfinite takes real numbers alone, where float() parses a str;
            # the span is not finite either where it overflows between finite bounds
            finite = (math.isfinite(self.lo) and math.isfinite(self.hi)
                      and math.isfinite(float(self.hi) - float(self.lo)))
        except TypeError:
            raise UsageError(f"axis {self.name} bounds must be real numbers, "
                             f"got {self.lo!r} and {self.hi!r}") from None
        except OverflowError:  # an int bound past the float range
            finite = False
        if not finite:
            raise UsageError(f"axis {self.name} bounds and span must be finite")
        try:  # np.int64 too, but not 3.0 or "3"
            operator.index(self.steps)
        except TypeError:
            raise UsageError(f"axis {self.name} needs a whole number of steps, "
                             f"got {self.steps!r}") from None
        if self.steps < 2:
            raise UsageError(f"axis {self.name} needs at least 2 steps, got {self.steps}")
        if not self.lo < self.hi:
            raise UsageError(f"axis {self.name} needs lo < hi, got [{self.lo}, {self.hi}]")

    def _value(self, i):
        """Grid point i, lo + i (hi - lo) / (steps - 1) with both endpoints
        inclusive, the one formula of both routes: a Python float at an int,
        float64 cells at an int array."""
        return float(self.lo) + float((self.hi - self.lo) / (self.steps - 1)) * i


class SweepSpec(_Record):
    """One sweep: up to two axes, fixed parameters (none by default),
    requested quantities. Every fixed value must be a finite real number,
    and every temperature at least 0, whether a requested quantity reads it
    or not: DomainError otherwise, by the rules of DotParams. A fixed value
    is one number (a 0-d array or a numpy scalar too): an array of one
    dimension or more raises DomainError, since the axes alone span the
    grid."""

    __slots__ = ("axes", "fixed", "quantities")

    def __init__(self, axes: tuple[Axis, ...], fixed: dict[str, float] | None = None,
                 quantities: tuple[str, ...] = ("C",)) -> None:
        _Record.__init__(self, axes, {} if fixed is None else fixed, quantities)
        if not (isinstance(axes, (tuple, list)) and all(isinstance(a, Axis) for a in axes)):
            raise UsageError(f"axes must be a tuple of Axis, got {axes!r}")
        if not isinstance(quantities, (tuple, list)):  # a str would be read letter by letter
            raise UsageError(f"quantities must be a tuple of names, got {quantities!r}")
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
        if "theta" in names and not set(_FIDELITIES) & set(self.quantities):
            raise UsageError("a theta axis only makes sense for fidelity quantities")
        needed = {k for q in self.quantities for k in _QUANTITIES[q][0]}
        missing = [k for k in PARAMETER_NAMES
                   if k in needed and k not in names and k not in self.fixed]
        if missing:
            raise UsageError(f"missing parameter value(s): {', '.join(missing)}")
        # checked, not stored: the spec keeps the values it was given. The
        # temperatures are a T axis's lo and a fixed T, which the axis overrides
        held = _check_real(**self.fixed)
        for low in (*(a.lo for a in self.axes if a.name == "T"), held.get("T", 0.0)):
            _check_temperature(low)
        for key, value in held.items():
            if _is_array(value) and value.ndim:
                raise DomainError(f"{key} must be one number, got an array of shape {value.shape}")


def run_sweep(spec: SweepSpec) -> Table:
    """Evaluate a sweep into a table: column name -> one flat float column,
    every column of one length, a row per grid cell.

    The axis columns come first, then the quantities in request order; NaN
    marks an absent value (Tc where there is no transition). A spec with no
    axes is one point: a table of one row. Every closed form is elementwise
    and rounds alike on Python floats and arrays, so a cell has the same bits
    on either route, and a sweep raises at its first bad cell in grid order.
    Every column is built first, then one loop fills the quantities: cell by
    cell into lists of Python floats where _on_floats picks the grid, else
    over blocks of _EVAL_BLOCK cells into float arrays, where a column whose
    inputs are all fixed is a zero-stride view. So wrap a column in
    np.asarray for arithmetic.
    """
    size = math.prod(a.steps for a in spec.axes)
    names = [a.name for a in spec.axes]
    quantities = [name for q in spec.quantities for name in _QUANTITIES[q][1]]
    floats = _on_floats(size)
    if floats:
        axes = zip(*itertools.product(*(map(a._value, range(a.steps)) for a in spec.axes)))
        table = dict(zip(names, map(list, axes)))
        table.update((q, [0.0] * size) for q in quantities)
        blocks = range(size)
    else:
        import numpy as np

        try:
            mesh = np.meshgrid(*(a._value(np.arange(a.steps)) for a in spec.axes), indexing="ij")
        except (MemoryError, ValueError) as exc:  # numpy refuses before it allocates
            shape = " x ".join(f"{a.name}:{a.steps}" for a in spec.axes)
            raise UsageError(f"grid {shape} is too large: {exc}") from None
        table = {n: m.ravel() for n, m in zip(names, mesh)}
        table.update((q, np.empty(size)) for q in quantities)
        blocks = (slice(start, start + _EVAL_BLOCK) for start in range(0, size, _EVAL_BLOCK))
    at = {k: float(v) for k, v in spec.fixed.items()}  # numpy scalars too
    inputs = [(n, table[n]) for n in names]
    outputs = [(q, table[q]) for q in quantities]
    evaluate = _evaluator(spec.quantities)
    for cells in blocks:
        for name, axis in inputs:
            at[name] = axis[cells]
        for (name, column), value in zip(outputs, evaluate(at)):
            if floats or _is_array(value):
                column[cells] = value
            else:  # every input fixed: one value, broadcast below
                table[name] = value
    if floats:
        return table
    return {name: np.broadcast_to(np.asarray(c, float), size) for name, c in table.items()}


def _on_floats(size: int) -> bool:
    """Whether a grid of ``size`` cells runs on Python floats: a point, one
    cell, always; a grid of at most _CHUNK_ROWS cells while numpy is not
    loaded, whose import costs more (75-140 ms) than their cells. Once
    loaded, arrays ran 1,000-2,048 cells 10 to 20 times faster."""
    return size == 1 or (size <= _CHUNK_ROWS and "numpy" not in sys.modules)


def _evaluator(quantities: tuple[str, ...]) -> Callable[[dict], list]:
    """A function of ``at`` that returns the values of each column the
    quantities fill, in order, at the parameters in ``at``: Python floats
    for one cell, arrays over a block of cells. Tc, which needs neither r
    nor T, reads NaN where there is no transition. A step builds its
    DotParams and thermal elements at most once, shared by the fidelities
    and the populations; C takes its own Boltzmann weights. F_o and F_e read
    theta alone, since phi cancels; SweepSpec and Axis have checked it
    finite. teleport's kernels are bound here, once per sweep, where a
    fidelity is requested."""
    if set(_FIDELITIES) & set(quantities):
        from .teleport import _average_fidelity_closed_form, _subspace_fidelities

    def evaluate(at: dict) -> list:
        params = e = fids = None  # fids: (F_o, F_e), evaluated together
        values = []
        for q in quantities:
            if q == "Tc":
                tc = critical_temperature(at["k0"])
                values.append(math.nan if tc is None else tc)
                continue
            params = params or DotParams(at["k0"], at["r"], at["T"])
            if q == "C":
                values.append(model_concurrence(params))
                continue
            e = e or thermal_elements(params)
            if q in ("F_o", "F_e"):
                fids = fids or _subspace_fidelities(at["theta"], e)
                values.append(fids[q == "F_e"])
            elif q == "F_a":
                values.append(_average_fidelity_closed_form(e))
            else:  # populations
                values += (e.u / e.big_z, e.w / e.big_z, e.w / e.big_z, e.v / e.big_z)
        return values

    return evaluate


# Figure id -> (panel key, panel values, axes, fixed values, quantities); a
# figure without a panel key is one panel. A panel key is fixed in every
# panel and swept in none. Fidelities are cut at theta = pi/3.
_CUT = {"theta": math.pi / 3.0, "phi": 0.0}
_FIGURES = {
    1: ("T", (0.2, 1.0), (Axis("k0", 0.0, 10.0, 41), Axis("r", 0.0, 2.0, 41)), {}, ("C",)),
    2: ("k0", (3.0, 4.0, 5.0, 10.0), (Axis("T", 0.05, 2.5, 50),), {"r": 1.0}, ("C",)),
    3: (None, (), (Axis("T", 0.02, 2.0, 50),), {"k0": 2.0, "r": 0.2, **_CUT}, _FIDELITIES),
    4: (None, (), (Axis("k0", 0.0, 10.0, 50),), {"T": 0.2, "r": 0.2, **_CUT}, _FIDELITIES),
    5: (None, (), (Axis("r", 0.0, 10.0, 50),), {"T": 0.2, "k0": 4.0, **_CUT}, _FIDELITIES),
}


def run_figure(fig_id: int) -> Table:
    """Evaluate the preset figure behind the `fig` subcommand: each panel of
    its _FIGURES row through run_sweep, their tables concatenated, the
    panel value as the leading column where the figure has a panel key.

    Fixed parameters follow the standard presentation of this model:
    concurrence maps and cuts (1, 2), then fidelity versus temperature,
    coupling, and field at theta = pi/3 (3, 4, 5). Grid ranges and step
    counts are chosen for smooth plots; panel values are part of the preset.
    Panels of lists join as lists, without numpy, others as float arrays:
    wrap a column in np.asarray for arithmetic.
    """
    if isinstance(fig_id, bool) or not isinstance(fig_id, int):  # True == 1, and 1.0 too
        raise UsageError(f"a figure is named by an int, got {fig_id!r}")
    if fig_id not in _FIGURES:
        raise UsageError(f"unknown figure {fig_id}; presets are 1 through 5")
    key, values, axes, fixed, quantities = _FIGURES[fig_id]
    tables = []
    for value in values or (None,):  # a figure without a panel key is one panel
        panel = {key: value} if key else {}
        table = run_sweep(SweepSpec(axes, {**panel, **fixed}, quantities))
        if key:  # a list, which the array route's concatenation turns into float64
            table = {key: [value] * len(next(iter(table.values()))), **table}
        tables.append(table)
    # joined even for one panel: the result's arrays are writable copies, not
    # run_sweep's zero-stride views
    if all(isinstance(column, list) for t in tables for column in t.values()):
        return {name: [x for t in tables for x in t[name]] for name in tables[0]}
    import numpy as np

    return {name: np.concatenate([t[name] for t in tables]) for name in tables[0]}


# Rows formatted per chunk, in either format; a chunk reuses its predecessor's
# texts, so an axis shorter than it is formatted once. At 4,096 rows the
# chunk's object arrays left a 300x300 CLI sweep's peak RSS 0.3-0.4 MiB higher.
# It also bounds _on_floats's grids: at 2,048 cells of C, F_o, F_e, F_a and
# the populations, a fresh interpreter ran them on floats in 96-131 ms,
# against 207-279 ms for numpy's import and arrays (medians of 21, 2 vCPU);
# the two meet near 10,000-18,000 cells, but RSS keeps the value.
_CHUNK_ROWS = 1 << 11
_JSON_INFINITIES = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _cells(values: list[float]) -> list[str]:
    """CSV cells: format(x, ".17g"), which keeps the sign of -0.0; NaN (Tc
    without a transition) is an empty cell."""
    return ["" if x != x else format(x, ".17g") for x in values]


def _json_cells(values: list[float]) -> list[str]:
    """JSON cells as json.dumps writes floats: float.__repr__, which keeps
    the sign of -0.0, and Infinity, -Infinity; NaN of either sign is null."""
    return ["null" if x != x else _JSON_INFINITIES.get(x) or float.__repr__(x) for x in values]


def _iter_rows(table: Table,
               cells: Callable[[list[float]], list[str]], zero: str, sep: str, eol: str,
               last: str) -> Iterator[str]:
    """A table's rows as text, one string per chunk of rows: each cell's text
    from ``cells`` (``zero`` is its text of +0.0), ``sep`` after each cell but
    a row's last, ``eol`` after each row but the table's last, and ``last``
    after that one. List columns are formatted cell by cell as Python
    floats, without numpy. In array columns texts are keyed on float64 bit
    patterns (-0.0 and +0.0 apart), and a chunk formats only those its
    column's previous chunk lacked: an axis shorter than a chunk costs its
    distinct values once."""
    columns = list(table.values())
    if isinstance(columns[0], list):
        texts = [cells(list(map(float, column))) for column in columns]
        size = len(texts[0])
        for start in range(0, size, _CHUNK_ROWS):
            rows = zip(*(t[start:start + _CHUNK_ROWS] for t in texts))
            yield eol.join(map(sep.join, rows)) + (eol if start + _CHUNK_ROWS < size else last)
        return
    import numpy as np

    size = len(columns[0])
    # Rows as cell, sep, cell, ..., eol, one join per chunk from one buffer. A
    # string per row ran as fast, but the CLI's peak RSS was up to 3 MiB higher
    # in 5-25% of runs, depending on the lengths of its paths. Every sep is one
    # shared string: np.full makes a string per cell from a numpy str array
    # (0.3 MiB of JSON separators on fidelity-map's 1,000 rows)
    buffer = np.empty((min(size, _CHUNK_ROWS), 2 * len(columns)), object)
    buffer[:] = sep
    buffer[:, -1] = eol
    # per column, the last chunk's sorted bit patterns and texts; +0.0 keeps it nonempty
    seen = [(np.zeros(1, np.int64), np.array([zero], object))] * len(columns)
    for start in range(0, size, _CHUNK_ROWS):
        rows = buffer[:size - start]
        for j, col in enumerate(columns):
            bits = np.ascontiguousarray(col[start:start + len(rows)], float).view(np.int64)
            keys, inverse = np.unique(bits, return_inverse=True)
            old_keys, old_texts = seen[j]
            at = np.minimum(np.searchsorted(old_keys, keys), len(old_keys) - 1)
            texts, new = old_texts[at], old_keys[at] != keys
            fresh = keys[new].view(float).tolist()
            texts[new] = cells(fresh)
            seen[j] = keys, texts
            rows[:, 2 * j] = texts[inverse]
        if start + len(rows) == size:
            rows[-1, -1] = last
        yield "".join(rows.ravel().tolist())


def iter_csv(table: Table) -> Iterator[str]:
    """A table's CSV text in pieces: the header line, then one string per
    chunk of rows (see _iter_rows), so a writer never holds the whole text.
    Cells are format(x, ".17g"), NaN (Tc without a transition) an empty
    cell; LF newlines, no trailing delimiter."""
    yield ",".join(table) + "\n"
    yield from _iter_rows(table, _cells, "0", ",", "\n", "\n")


def iter_json(table: Table) -> Iterator[str]:
    """A table's JSON text in pieces, as iter_csv gives CSV: the header up to
    the first row's first cell, one string per chunk of rows, then the
    closing. Joined, it is json.dumps({"columns": ..., "rows": ...},
    indent=2) and a newline, byte for byte; a column name is written as it
    is, since none needs an escape."""
    names = ",\n    ".join(f'"{name}"' for name in table)
    yield '{\n  "columns": [\n    ' + names + '\n  ],\n  "rows": [\n    [\n      '
    yield from _iter_rows(table, _json_cells, "0.0", ",\n      ", "\n    ],\n    [\n      ", "")
    yield "\n    ]\n  ]\n}\n"

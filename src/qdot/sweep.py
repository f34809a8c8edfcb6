"""Parameter sweeps over the model, with CSV/JSON emission.

A sweep varies one or two parameters on inclusive uniform grids while the
rest stay fixed, and evaluates each requested quantity once over the whole
grid into one named column. Rows run in lexicographic axis order and are
byte-stable: the same spec always renders the same text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .entanglement import critical_temperature, model_concurrence
from .model import DomainError, DotParams, thermal_elements
from .teleport import InputState, average_fidelity, subspace_fidelities

__all__ = ["Axis", "SweepSpec", "FigurePreset", "run_sweep", "figure_preset", "run_figure"]

PARAMETER_NAMES = ("k0", "r", "T", "theta", "phi")
SWEEPABLE = ("k0", "r", "T", "theta")
QUANTITY_NAMES = ("C", "Tc", "F_o", "F_e", "F_a", "populations")
_FIDELITY_QUANTITIES = frozenset({"F_o", "F_e", "F_a"})
_POPULATION_COLUMNS = ("p11", "p10", "p01", "p00")


class UsageError(ValueError):
    """Raised for malformed sweep requests (bad axes, unknown quantities)."""


@dataclass(frozen=True)
class Axis:
    """Inclusive uniform grid over one parameter."""

    name: str
    lo: float
    hi: float
    steps: int

    def __post_init__(self) -> None:
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
        step = (self.hi - self.lo) / (self.steps - 1)
        return self.lo + step * np.arange(self.steps)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: up to two axes, fixed parameters, requested quantities."""

    axes: tuple[Axis, ...]
    fixed: dict[str, float] = field(default_factory=dict)
    quantities: tuple[str, ...] = ("C",)

    def __post_init__(self) -> None:
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
        try:
            mesh = np.meshgrid(*(a.values() for a in self.axes), indexing="ij")
        except (MemoryError, ValueError) as exc:  # numpy refuses before it allocates
            shape = " x ".join(f"{a.name}:{a.steps}" for a in self.axes)
            raise UsageError(f"grid {shape} is too large: {exc}") from None
        return {**self.fixed, **{a.name: m.ravel() for a, m in zip(self.axes, mesh)}}


def run_sweep(spec: SweepSpec) -> dict[str, np.ndarray]:
    """Evaluate a sweep into a table: column name -> one flat float column.

    Each quantity is evaluated once, over the whole grid. The axis columns
    come first, then the quantities in request order; NaN marks an absent
    value (Tc where there is no transition).
    """
    grid = spec.grid()
    size = math.prod(a.steps for a in spec.axes)
    thermal = set(spec.quantities) != {"Tc"}
    params = DotParams(grid["k0"], grid["r"], grid["T"]) if thermal else None
    table = {a.name: grid[a.name] for a in spec.axes}
    fids = None  # (F_o, F_e), evaluated together
    for q in spec.quantities:
        if q == "Tc":
            # an array k0, so that no transition reads NaN rather than None
            table[q] = critical_temperature(np.atleast_1d(grid["k0"]))
        elif q == "C":
            table[q] = model_concurrence(params)
        elif q in ("F_o", "F_e"):
            fids = fids or subspace_fidelities(InputState(grid["theta"], grid["phi"]), params)
            table[q] = fids[q == "F_e"]
        elif q == "F_a":
            table[q] = average_fidelity(params)
        elif q == "populations":
            e = thermal_elements(params)
            pops = (e.u / e.big_z, e.w / e.big_z, e.w / e.big_z, e.v / e.big_z)
            table.update(zip(_POPULATION_COLUMNS, pops))
    return {name: np.broadcast_to(np.asarray(c, float), size) for name, c in table.items()}


@dataclass(frozen=True)
class FigurePreset:
    """A multi-panel sweep; panels share axes and quantities."""

    panel_key: str | None
    panels: tuple[SweepSpec, ...]


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
    tables = []
    for spec in preset.panels:
        table = run_sweep(spec)
        if preset.panel_key is not None:
            size = math.prod(a.steps for a in spec.axes)
            table = {preset.panel_key: np.full(size, spec.fixed[preset.panel_key]), **table}
        tables.append(table)
    return {name: np.concatenate([t[name] for t in tables]) for name in tables[0]}


# Rows formatted per batch: bounds the per-cell string lists of a large table.
_CSV_CHUNK_ROWS = 1 << 12


def format_csv(table: dict[str, np.ndarray]) -> str:
    """Render a table as CSV: 17 significant digits, LF newlines, no trailing
    delimiter; NaN (Tc without a transition) is an empty cell."""
    size = len(next(iter(table.values())))
    parts = [",".join(table)]
    for start in range(0, size, _CSV_CHUNK_ROWS):
        cells = [
            [format(x, ".17g") for x in col[start:start + _CSV_CHUNK_ROWS].tolist()]
            for col in table.values()
        ]
        # .17g writes NaN as "nan", which no rendered number contains
        parts.append("\n".join(map(",".join, zip(*cells))).replace("nan", ""))
    parts.append("")
    return "\n".join(parts)


def format_json(table: dict[str, np.ndarray]) -> str:
    """Render a table as a JSON object with columns and row arrays; NaN is null."""
    columns = [[None if math.isnan(x) else x for x in col.tolist()] for col in table.values()]
    payload = {"columns": list(table), "rows": list(zip(*columns))}
    return json.dumps(payload, indent=2) + "\n"

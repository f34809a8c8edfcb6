"""Parameter sweeps over the model, with CSV/JSON emission.

A sweep varies one or two parameters on inclusive uniform grids while the
rest stay fixed, and evaluates each requested quantity once over the whole
grid. Rows come out in lexicographic axis order and are byte-stable: the
same spec always renders the same text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .entanglement import critical_temperature, model_concurrence
from .model import DomainError, DotParams, thermal_elements
from .teleport import InputState, average_fidelity, subspace_fidelities

__all__ = [
    "Axis",
    "SweepSpec",
    "FigurePreset",
    "PARAMETER_NAMES",
    "QUANTITY_NAMES",
    "run_sweep",
    "figure_preset",
    "run_figure",
    "format_csv",
    "format_json",
]

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

    def columns(self) -> list[str]:
        cols = [a.name for a in self.axes]
        for q in self.quantities:
            if q == "populations":
                cols.extend(_POPULATION_COLUMNS)
            else:
                cols.append(q)
        return cols

    def grid(self) -> dict[str, np.ndarray | float]:
        """A flat column per axis, lexicographic in the axes (the last varies
        fastest), and the fixed values as scalars that broadcast."""
        mesh = np.meshgrid(*(a.values() for a in self.axes), indexing="ij")
        return {**self.fixed, **{a.name: m.ravel() for a, m in zip(self.axes, mesh)}}


def run_sweep(spec: SweepSpec) -> tuple[list[str], list[list[float | None]]]:
    """Evaluate a sweep; returns (column names, rows).

    Each quantity is evaluated once, over the whole grid. Rows carry the
    axis values first, then the quantity columns.
    """
    grid = spec.grid()
    size = math.prod(a.steps for a in spec.axes)
    thermal = set(spec.quantities) != {"Tc"}
    params = DotParams(grid["k0"], grid["r"], grid["T"]) if thermal else None
    columns = [grid[a.name] for a in spec.axes]
    fids = None  # (F_o, F_e), evaluated together
    for q in spec.quantities:
        if q == "Tc":
            k0s = np.broadcast_to(grid["k0"], size).tolist()
            columns.append([critical_temperature(k0) for k0 in k0s])
        elif q == "C":
            columns.append(model_concurrence(params))
        elif q in ("F_o", "F_e"):
            fids = fids or subspace_fidelities(InputState(grid["theta"], grid["phi"]), params)
            columns.append(fids[q == "F_e"])
        elif q == "F_a":
            columns.append(average_fidelity(params))
        elif q == "populations":
            e = thermal_elements(params)
            columns += [e.u / e.big_z, e.w / e.big_z, e.w / e.big_z, e.v / e.big_z]
    cells = [np.broadcast_to(c, size).tolist() for c in columns]
    return spec.columns(), [list(row) for row in zip(*cells)]


@dataclass(frozen=True)
class FigurePreset:
    """A named multi-panel sweep; panels share axes and quantities."""

    name: str
    panel_key: str | None
    panels: tuple[SweepSpec, ...]


def figure_preset(fig_id: int) -> FigurePreset:
    """Preset sweeps behind the `fig` subcommand.

    Fixed parameters follow the standard presentation of this model:
    concurrence maps and cuts (1, 2), then fidelity versus temperature,
    coupling, and field at theta = pi/3 (3, 4, 5). Grid ranges and step
    counts are chosen for smooth plots; panel values are part of the preset.
    """
    third = math.pi / 3.0
    if fig_id == 1:
        panels = tuple(
            SweepSpec(
                axes=(Axis("k0", 0.0, 10.0, 41), Axis("r", 0.0, 2.0, 41)),
                fixed={"T": t},
                quantities=("C",),
            )
            for t in (0.2, 1.0)
        )
        return FigurePreset(name="fig1", panel_key="T", panels=panels)
    if fig_id == 2:
        panels = tuple(
            SweepSpec(
                axes=(Axis("T", 0.05, 2.5, 50),),
                fixed={"k0": k, "r": 1.0},
                quantities=("C",),
            )
            for k in (3.0, 4.0, 5.0, 10.0)
        )
        return FigurePreset(name="fig2", panel_key="k0", panels=panels)
    if fig_id == 3:
        spec = SweepSpec(
            axes=(Axis("T", 0.02, 2.0, 50),),
            fixed={"k0": 2.0, "r": 0.2, "theta": third, "phi": 0.0},
            quantities=("F_o", "F_e", "F_a"),
        )
        return FigurePreset(name="fig3", panel_key=None, panels=(spec,))
    if fig_id == 4:
        spec = SweepSpec(
            axes=(Axis("k0", 0.0, 10.0, 50),),
            fixed={"T": 0.2, "r": 0.2, "theta": third, "phi": 0.0},
            quantities=("F_o", "F_e", "F_a"),
        )
        return FigurePreset(name="fig4", panel_key=None, panels=(spec,))
    if fig_id == 5:
        spec = SweepSpec(
            axes=(Axis("r", 0.0, 10.0, 50),),
            fixed={"T": 0.2, "k0": 4.0, "theta": third, "phi": 0.0},
            quantities=("F_o", "F_e", "F_a"),
        )
        return FigurePreset(name="fig5", panel_key=None, panels=(spec,))
    raise UsageError(f"unknown figure {fig_id}; presets are 1 through 5")


def run_figure(preset: FigurePreset) -> tuple[list[str], list[list[float | None]]]:
    """Evaluate all panels; the panel value becomes the leading column."""
    first = preset.panels[0]
    header = first.columns()
    if preset.panel_key is not None:
        header = [preset.panel_key] + header
    rows: list[list[float | None]] = []
    for spec in preset.panels:
        cols, panel_rows = run_sweep(spec)
        if preset.panel_key is not None:
            pv = spec.fixed[preset.panel_key]
            panel_rows = [[pv] + row for row in panel_rows]
        rows.extend(panel_rows)
    return header, rows


def _format_cell(x: float | None) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def format_csv(header: list[str], rows: list[list[float | None]]) -> str:
    """Render rows as CSV: 17 significant digits, LF newlines, no trailing
    delimiter; absent values (Tc without a transition) are empty cells."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def format_json(header: list[str], rows: list[list[float | None]]) -> str:
    """Render rows as a JSON object with columns and row arrays."""
    payload = {"columns": list(header), "rows": [list(r) for r in rows]}
    return json.dumps(payload, indent=2) + "\n"

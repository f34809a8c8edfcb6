"""Tests for the sweep engine, figure presets, formatters, and the CLI."""

import argparse
import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import qdot
import qdot.cli as cli_mod
import qdot.model as model_mod
import qdot.sweep as sweep_mod
from qdot.cli import main, parse_angle, parse_axis, parse_quantities
from qdot.entanglement import critical_temperature, model_concurrence
from qdot.model import DomainError, DotParams, thermal_elements
from qdot.sweep import (
    PARAMETER_NAMES,
    QUANTITY_NAMES,
    Axis,
    SweepSpec,
    UsageError,
    _FIGURES,
    iter_csv,
    iter_json,
    run_figure,
    run_sweep,
)
from qdot.teleport import InputState, average_fidelity_closed_form, subspace_fidelities


# a table's whole text in either format, as the CLI writes it piece by piece
def format_csv(table):
    return "".join(iter_csv(table))


def format_json(table):
    return "".join(iter_json(table))


# ---------------------------------------------------------------- sweep core


def test_axis_grid_formula():
    # run_sweep's axis column, forced onto either route, is lo + i * step
    # with both endpoints inclusive
    spec = SweepSpec((Axis("T", 0.1, 2.0, 20),), {"k0": 4.0, "r": 1.0}, ("C",))
    for on_floats in (True, False):
        with mock.patch.object(sweep_mod, "_on_floats", lambda size: on_floats):
            vals = run_sweep(spec)["T"]
        assert isinstance(vals, list) == on_floats
        assert [float(v) for v in vals] == [0.1 + (2.0 - 0.1) / 19 * i for i in range(20)]
        assert vals[0] == 0.1
        np.testing.assert_allclose(vals[-1], 2.0, rtol=1e-15)
        np.testing.assert_allclose(np.diff(vals), (2.0 - 0.1) / 19, rtol=1e-12)


def test_axis_validation():
    with pytest.raises(UsageError):
        Axis("phi", 0.0, 1.0, 5)  # not sweepable
    with pytest.raises(UsageError):
        Axis("T", 0.1, 1.0, 1)  # too few steps
    with pytest.raises(UsageError):
        Axis("T", 1.0, 0.1, 5)  # reversed bounds
    with pytest.raises(UsageError):
        Axis("T", 0.0, math.inf, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match="span"):
            Axis("k0", -1e308, 1e308, 3)  # hi - lo overflows, the bounds do not
        axis = Axis("k0", -1e308, 0.5e308, 3)
        assert axis._value(np.arange(3)).tolist() == [axis._value(i) for i in range(3)]
    # an int bound past the float range is refused as an infinite one
    with pytest.raises(UsageError, match="axis k0 bounds and span must be finite"):
        Axis("k0", 0, 2**1100, 3)
    with pytest.raises(UsageError, match="axis T bounds and span must be finite"):
        Axis("T", -2**1100, 1, 3)
    # a step count is an integer and a bound a real number, or the axis names
    # what it got: 2.5 steps would run past hi, and "0" < "1" compares text
    for steps in (2.5, 3.0, "3"):
        with pytest.raises(UsageError, match=f"^axis k0 needs a whole number of steps, "
                                             f"got {steps!r}$"):
            Axis("k0", 0.0, 1.0, steps)
    for lo, hi in (("0", "1"), (0.0, "1"), (0.0, 1j)):
        with pytest.raises(UsageError, match=rf"^axis k0 bounds must be real numbers, "
                                             rf"got {lo!r} and {hi!r}$"):
            Axis("k0", lo, hi, 3)
    axis = Axis("k0", np.float64(0.0), np.array(1.0), np.int64(3))
    spec = SweepSpec((axis,), {"r": 0.0, "T": 0.5})
    for on_floats in (True, False):
        with mock.patch.object(sweep_mod, "_on_floats", lambda size: on_floats):
            assert list(run_sweep(spec)["k0"]) == [0.0, 0.5, 1.0]


def test_spec_validation():
    t_axis = Axis("T", 0.1, 1.0, 5)
    k_axis = Axis("k0", 1.0, 2.0, 5)
    r_axis = Axis("r", 0.0, 1.0, 5)
    with pytest.raises(UsageError):
        SweepSpec(axes=(t_axis, k_axis, r_axis), fixed={"r": 0.0})
    with pytest.raises(UsageError):
        SweepSpec(axes=(t_axis, Axis("T", 0.2, 0.9, 3)), fixed={"k0": 1.0, "r": 0.0})
    with pytest.raises(UsageError):
        SweepSpec(axes=(t_axis,), fixed={"k0": 1.0, "r": 0.0, "bogus": 2.0})
    with pytest.raises(UsageError):
        SweepSpec(axes=(t_axis,), fixed={"k0": 1.0, "r": 0.0}, quantities=("nope",))
    with pytest.raises(UsageError):
        SweepSpec(axes=(t_axis,), fixed={"k0": 1.0, "r": 0.0}, quantities=())
    with pytest.raises(UsageError):
        # a polar-angle axis is meaningless for concurrence
        SweepSpec(
            axes=(Axis("theta", 0.0, math.pi, 5),),
            fixed={"k0": 1.0, "r": 0.0, "T": 0.5},
            quantities=("C",),
        )
    # but not for a fidelity, F_a included, though F_a does not read theta
    table = run_sweep(SweepSpec((Axis("theta", 0.0, 3.0, 3),), {"k0": 4.0, "r": 0.0, "T": 1.0},
                                ("F_a",)))
    assert list(table) == ["theta", "F_a"] and len(set(table["F_a"].tolist())) == 1
    with pytest.raises(UsageError, match="missing parameter"):
        SweepSpec(axes=(k_axis,), fixed={}, quantities=("C",))
    # axes and quantities are sequences: a str is not read letter by letter,
    # and a bare Axis is not taken for its fields
    for quantities in ("C", "F_a"):
        with pytest.raises(UsageError, match=rf"^quantities must be a tuple of names, "
                                             rf"got '{quantities}'$"):
            SweepSpec((), {"k0": 4.0, "r": 1.0, "T": 0.5}, quantities)
    for axes in (t_axis, ("T:0.1:1:5",)):
        with pytest.raises(UsageError, match=r"^axes must be a tuple of Axis, got "):
            SweepSpec(axes, {"k0": 1.0, "r": 0.0})
    with pytest.raises(UsageError, match="duplicate quantity"):
        # a table holds one column per name
        SweepSpec(axes=(t_axis,), fixed={"k0": 1.0, "r": 0.0}, quantities=("C", "C"))
    # every fixed value is finite, whether a requested quantity reads it or not
    for fixed, name, value in (({"k0": 4.0, "T": math.nan}, "T", "nan"),
                               ({"k0": 4.0, "r": math.inf}, "r", "inf")):
        with pytest.raises(DomainError, match=f"^{name} must be finite, got {value}$"):
            SweepSpec((), fixed, ("Tc",))
    with pytest.raises(DomainError, match="^T must be finite, got nan$"):
        SweepSpec((t_axis,), {"k0": 1.0, "r": 0.0, "T": math.nan})
    # a fixed value is one number: an array would pair its entries with the
    # axis cells, or make a point of two rows
    for axes in ((Axis("T", 0.1, 1.0, 2),), ()):
        for k0 in (np.array([4.0, 2.0]), [4.0, 2.0], np.ones((1, 1))):
            with pytest.raises(DomainError, match=r"^k0 must be one number, got an array of shape"):
                SweepSpec(axes, {"k0": k0, "r": 1.0, "T": 0.5}, ("C",))
    # a 0-d array or a numpy scalar is one, on an axis and at a point
    for axes in ((t_axis,), ()):
        want = run_sweep(SweepSpec(axes, {"k0": 4.0, "r": 1.0, "T": 0.5}, ("C", "Tc")))
        got = run_sweep(SweepSpec(axes, {"k0": np.array(4.0), "r": np.float64(1.0), "T": 0.5},
                                  ("C", "Tc")))
        assert format_csv(got) == format_csv(want)


def test_spec_rejects_negative_temperature():
    # one rule for an axis and a fixed value alike, Tc (which needs no T)
    # included; an axis from T = 0 is ordinary, its first cell the ground state
    with pytest.raises(DomainError, match=r"^temperature must be >= 0, got -1.0$"):
        SweepSpec(axes=(Axis("T", -1.0, 1.0, 5),), fixed={"k0": 1.0, "r": 0.0}, quantities=("C",))
    with pytest.raises(DomainError, match=r"^temperature must be >= 0, got -0.5$"):
        SweepSpec(axes=(), fixed={"k0": 1.0, "T": -0.5}, quantities=("Tc",))
    spec = SweepSpec(axes=(Axis("T", 0.0, 1.0, 5),), fixed={"k0": 1.0, "r": 0.0}, quantities=("C",))
    assert run_sweep(spec)["C"][0] == 1.0
    # a fixed T beside an axis over T is not used, but it is checked all the same
    with pytest.raises(DomainError, match=r"^temperature must be >= 0, got -1.0$"):
        SweepSpec(axes=(Axis("T", 0.5, 1.0, 5),), fixed={"k0": 1.0, "r": 0.0, "T": -1.0})


def test_average_fidelity_needs_no_angles():
    # F_a integrates over the input sphere, so theta/phi are not required
    spec = SweepSpec(
        axes=(Axis("T", 0.1, 1.0, 3),),
        fixed={"k0": 2.0, "r": 0.2},
        quantities=("F_a",),
    )
    table = run_sweep(spec)
    assert list(table) == ["T", "F_a"]
    assert len(table["F_a"]) == 3
    with pytest.raises(UsageError, match="theta"):
        SweepSpec(
            axes=(Axis("T", 0.1, 1.0, 3),),
            fixed={"k0": 2.0, "r": 0.2},
            quantities=("F_o",),
        )


def _scalar_row(point, quantities):
    """The quantities at one grid point, from the scalar public functions."""
    p = DotParams(k0=point["k0"], r=point["r"], T=point["T"])
    e = thermal_elements(p)
    f_o, f_e = subspace_fidelities(InputState(point["theta"], point["phi"]), p)
    values = {
        "C": [model_concurrence(p)],
        "Tc": [critical_temperature(point["k0"])],
        "F_o": [f_o],
        "F_e": [f_e],
        "F_a": [average_fidelity_closed_form(p)],
        "populations": [e.u / e.big_z, e.w / e.big_z, e.w / e.big_z, e.v / e.big_z],
    }
    return [v for q in quantities for v in values[q]]


def test_run_sweep_point_values():
    # one evaluation over the grid gives, bit for bit, the scalar call at
    # every point, whatever the point's row
    quantities = ("C", "Tc", "F_o", "F_e", "F_a", "populations")
    grids = [
        # past the level crossing r = k0/4, k0 of both signs (Tc absent)
        ((Axis("k0", -1.0, 6.0, 8), Axis("r", 0.0, 2.5, 9)),
         {"T": 0.3, "theta": math.pi / 3, "phi": 0.4}),
        ((Axis("T", 0.05, 2.0, 7), Axis("theta", 0.0, math.pi, 11)),
         {"k0": 4.0, "r": 1.3, "phi": 1.1}),
    ]
    names = ["C", "Tc", "F_o", "F_e", "F_a", "p11", "p10", "p01", "p00"]
    for axes, fixed in grids:
        spec = SweepSpec(axes=axes, fixed=fixed, quantities=quantities)
        table = run_sweep(spec)
        assert list(table) == [a.name for a in axes] + names
        size = axes[0].steps * axes[1].steps
        assert all(col.shape == (size,) and col.dtype == float for col in table.values())
        for row in zip(*(col.tolist() for col in table.values())):
            point = dict(fixed, **{a.name: v for a, v in zip(axes, row)})
            # NaN in a Tc cell is the scalar call's None
            cells = [None if math.isnan(x) else x for x in row[len(axes):]]
            assert cells == _scalar_row(point, quantities)


def _whole_grid_columns(spec):
    """run_sweep's quantity columns from one array call each over the whole grid."""
    mesh = np.meshgrid(*(a.lo + (a.hi - a.lo) / (a.steps - 1) * np.arange(a.steps)
                         for a in spec.axes), indexing="ij")
    grid = {**spec.fixed, **{a.name: m.ravel() for a, m in zip(spec.axes, mesh)}}
    p = DotParams(grid["k0"], grid["r"], grid["T"])
    e = thermal_elements(p)
    f_o, f_e = subspace_fidelities(InputState(grid["theta"], grid["phi"]), p)
    columns = {
        "C": model_concurrence(p),
        "Tc": critical_temperature(np.atleast_1d(grid["k0"])),
        "F_o": f_o,
        "F_e": f_e,
        "F_a": average_fidelity_closed_form(p),
        "p11": e.u / e.big_z,
        "p10": e.w / e.big_z,
        "p01": e.w / e.big_z,
        "p00": e.v / e.big_z,
    }
    size = math.prod(a.steps for a in spec.axes)
    return {k: np.broadcast_to(np.asarray(v, float), size) for k, v in columns.items()}


@pytest.mark.parametrize("axes, fixed, fixed_columns", [
    # past the level crossing, k0 of both signs (Tc absent): every column varies
    ((Axis("k0", -1.0, 6.0, 150), Axis("r", 0.0, 2.5, 150)),
     {"T": 0.3, "theta": math.pi / 3, "phi": 0.4}, set()),
    # Tc at a fixed k0 is one value over the grid
    ((Axis("theta", 0.0, math.pi, 130), Axis("T", 0.05, 2.0, 131)),
     {"k0": 4.0, "r": 1.3, "phi": 1.1}, {"Tc"}),
    # only the conditional fidelities see a lone theta axis
    ((Axis("theta", 0.0, math.pi, 40_000),),
     {"k0": 4.0, "r": 0.3, "T": 0.4, "phi": 0.0},
     {"C", "Tc", "F_a", "p11", "p10", "p01", "p00"}),
])
def test_run_sweep_blocks_keep_the_whole_grid_bits(axes, fixed, fixed_columns):
    # the grid spans at least two evaluation blocks and ends in a partial one;
    # every cell equals the whole-grid array call, and a column whose inputs
    # are all fixed stays a zero-stride view
    spec = SweepSpec(axes, fixed, ("C", "Tc", "F_o", "F_e", "F_a", "populations"))
    size = math.prod(a.steps for a in axes)
    assert size > sweep_mod._EVAL_BLOCK and size % sweep_mod._EVAL_BLOCK
    table = run_sweep(spec)
    expected = _whole_grid_columns(spec)
    assert list(table) == [a.name for a in axes] + list(expected)
    for name, column in expected.items():
        assert table[name].tobytes() == column.tobytes(), name
        assert (table[name].strides == (0,)) == (name in fixed_columns), name


def test_run_sweep_peak_memory_is_one_block():
    # 300x300 cells of C: evaluated over the whole grid at once, run_sweep's
    # traced peak stood 6.6 MiB above the three columns it returns; over
    # blocks of 16,384 cells it is 1.5-1.7 MiB, and the bound is 3 MiB
    spec = SweepSpec((Axis("k0", -2.0, 10.0, 300), Axis("r", 0.0, 2.0, 300)), {"T": 0.5}, ("C",))
    run_sweep(spec)  # first-call caches stay out of the measure
    tracemalloc.start()
    try:
        table = run_sweep(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = sum(c.nbytes for c in table.values())
    assert columns == 3 * 300 * 300 * 8
    assert peak - columns < 3 * 2**20


def test_run_sweep_two_axes_is_lexicographic():
    spec = SweepSpec(
        axes=(Axis("k0", 1.0, 2.0, 2), Axis("r", 0.0, 1.0, 3)),
        fixed={"T": 0.5},
        quantities=("C",),
    )
    table = run_sweep(spec)
    grid = list(zip(table["k0"].tolist(), table["r"].tolist()))
    assert grid == [
        (1.0, 0.0),
        (1.0, 0.5),
        (1.0, 1.0),
        (2.0, 0.0),
        (2.0, 0.5),
        (2.0, 1.0),
    ]


def test_absent_critical_temperature_cell():
    spec = SweepSpec(
        axes=(Axis("k0", -1.0, 1.0, 3),),
        fixed={"r": 0.0, "T": 0.5},
        quantities=("Tc",),
    )
    table = run_sweep(spec)
    tc = table["Tc"]
    assert math.isnan(tc[0])  # k0 = -1
    assert math.isnan(tc[1])  # k0 = 0
    assert tc[2] == pytest.approx(1 / (4 * math.log(3)))
    csv = format_csv(table)
    lines = csv.splitlines()
    assert lines[1] == "-1,"
    payload = json.loads(format_json(table))
    assert payload["rows"][0][1] is None


def test_population_columns_expand():
    spec = SweepSpec(
        axes=(),
        fixed={"k0": 4.0, "r": 1.0, "T": 0.5},
        quantities=("populations",),
    )
    table = run_sweep(spec)
    assert list(table) == ["p11", "p10", "p01", "p00"]
    row = [column for column, in table.values()]  # one row
    assert abs(sum(row) - 1.0) < 1e-14
    assert row[1] == row[2]  # symmetric mid populations


@pytest.mark.parametrize("fixed, quantities, axis", [
    ({"k0": 4.0, "r": 1.0, "T": 0.5}, ("C", "Tc", "populations"), "T"),
    ({"k0": -1.0, "r": 0.0, "T": 0.5}, ("populations", "Tc", "C"), "T"),  # no transition
    ({"k0": -0.0, "r": -0.0, "T": 5e-324}, ("C", "populations"), "T"),
    ({"k0": 4.0, "r": 1.0, "T": 0.0}, ("C",), "r"),  # the ground-state limit
    ({"k0": 4.0}, ("Tc",), "k0"),
    ({"k0": 4.0, "r": 1.0, "T": 0.5, "theta": 1.0, "phi": 0.5}, ("F_a", "F_e", "C", "F_o"), "T"),
    ({"k0": 4.0, "r": 1.5, "T": 0.0, "theta": 0.0, "phi": 0.0},  # a T axis from 0; F_o absent
     ("C", "F_o", "F_e", "F_a", "populations"), "T"),
], ids=lambda v: ",".join(v) if isinstance(v, tuple) else None)
def test_a_point_is_the_cell_of_a_grid_through_it(fixed, quantities, axis):
    # a spec with no axes is a table of one row, lists of one Python float:
    # the quantity columns in order, with the bits of the first cell of a
    # 2-step axis from the point's value
    row = run_sweep(SweepSpec((), fixed, quantities))
    grid = run_sweep(SweepSpec((Axis(axis, fixed[axis], fixed[axis] + 1.0, 2),), fixed, quantities))
    assert grid[axis][0] == fixed[axis]
    assert list(row) == list(grid)[1:]
    assert all(type(c) is list and len(c) == 1 and type(c[0]) is float for c in row.values())
    assert [c[0].hex() for c in row.values()] == [float(grid[name][0]).hex() for name in row]
    cell = {name: grid[name][:1] for name in row}
    assert format_csv(row) == format_csv(cell)
    assert format_json(row) == format_json(cell)


@pytest.mark.parametrize("on_floats", [True, False], ids=["floats", "arrays"])
def test_a_theta_axis_overrides_a_fixed_theta_in_every_cell(on_floats):
    # the CLI fixes theta at pi/3 beside a theta axis; each cell of the
    # sweep holds the bits of the point at its own theta, not the fixed one
    quantities = ("F_o", "F_e", "F_a")
    fixed = {"k0": 4.0, "r": 1.0, "theta": math.pi / 3.0, "phi": 0.3}
    spec = SweepSpec((Axis("T", 0.5, 1.0, 2), Axis("theta", 0.0, 3.0, 4)), fixed, quantities)
    with mock.patch.object(sweep_mod, "_on_floats", lambda size: on_floats):
        grid = run_sweep(spec)
    for i in range(8):
        at = {**fixed, "T": float(grid["T"][i]), "theta": float(grid["theta"][i])}
        point = run_sweep(SweepSpec((), at, quantities))
        assert [point[q][0].hex() for q in quantities] == [float(grid[q][i]).hex() for q in quantities]


# ------------------------------------------------------------ figure presets


def test_figure_presets_pin_model_parameters():
    cut = {"theta": math.pi / 3, "phi": 0.0}
    fidelities = ("F_o", "F_e", "F_a")
    # figure -> (panel key, panel values, axes, fixed values, quantities)
    expected = {
        1: ("T", (0.2, 1.0), (Axis("k0", 0.0, 10.0, 41), Axis("r", 0.0, 2.0, 41)), {}, ("C",)),
        2: ("k0", (3.0, 4.0, 5.0, 10.0), (Axis("T", 0.05, 2.5, 50),), {"r": 1.0}, ("C",)),
        3: (None, (), (Axis("T", 0.02, 2.0, 50),), {"k0": 2.0, "r": 0.2, **cut}, fidelities),
        4: (None, (), (Axis("k0", 0.0, 10.0, 50),), {"T": 0.2, "r": 0.2, **cut}, fidelities),
        5: (None, (), (Axis("r", 0.0, 10.0, 50),), {"T": 0.2, "k0": 4.0, **cut}, fidelities),
    }
    assert _FIGURES == expected


# True == 1 and 1.0 == 1 are keys of the presets, but name no figure
@pytest.mark.parametrize("fig_id, message", [
    (0, "^unknown figure 0; presets are 1 through 5$"),
    (6, "^unknown figure 6; presets are 1 through 5$"),
    (True, "^a figure is named by an int, got True$"),
    (1.0, r"^a figure is named by an int, got 1\.0$"),
    ("1", "^a figure is named by an int, got '1'$"),
], ids=["0", "6", "True", "1.0", "str"])
def test_run_figure_refuses_what_names_no_figure(fig_id, message):
    with pytest.raises(UsageError, match=message):
        run_figure(fig_id)


@pytest.mark.parametrize("fig_id", sorted(_FIGURES))
def test_every_figure_row_joins_its_panels(fig_id):
    # what run_figure takes on trust from each _FIGURES row: a keyed figure
    # has a panel value, and its key is a parameter that no axis sweeps and
    # no fixed value overrides, since the panel column leads the table; a
    # figure without a key lists no values; every quantity is a known name
    key, values, axes, fixed, quantities = _FIGURES[fig_id]
    if key is None:
        assert values == ()
    else:
        assert values
        assert key in PARAMETER_NAMES
        assert key not in [a.name for a in axes] and key not in fixed
    assert quantities and set(quantities) <= set(QUANTITY_NAMES)


@pytest.mark.parametrize("fig_id", sorted(_FIGURES))
def test_a_figure_is_its_panels_sweeps_in_order(fig_id):
    # each panel's rows are run_sweep's table of that panel, bit for bit,
    # behind a leading panel column; every column is a writable array of its
    # own, where run_sweep hands out zero-stride views for the axis columns
    key, values, axes, fixed, quantities = _FIGURES[fig_id]
    table = run_figure(fig_id)
    start = 0
    for value in values or (None,):
        panel = run_sweep(SweepSpec(axes, {**({key: value} if key else {}), **fixed}, quantities))
        size = len(next(iter(panel.values())))
        if key:
            assert list(table) == [key, *panel]
            assert table[key][start:start + size].tolist() == [value] * size
        else:
            assert list(table) == list(panel)
        for name, column in panel.items():
            assert table[name][start:start + size].tobytes() == np.asarray(column).tobytes(), name
        start += size
    assert all(len(column) == start for column in table.values())
    for name, column in table.items():
        assert isinstance(column, np.ndarray) and column.flags.writeable, name


def test_fig1_transition_boundary_in_emitted_data():
    table = run_figure(1)
    assert list(table)[:3] == ["T", "k0", "r"]
    for t, k0, c in zip(table["T"], table["k0"], table["C"]):
        if k0 > 0 and t < k0 / (4 * math.log(3)):
            assert c > 0.0
        else:
            assert c == 0.0


def test_fig2_reentrant_series_present():
    # the k0 = 3 series starts almost unentangled, is heated into
    # entanglement, and loses it again above the transition
    table = run_figure(2)
    values = table["C"][table["k0"] == 3.0].tolist()
    assert values[0] < 0.05
    assert max(values) > 0.2
    assert values[-1] == 0.0


def _mp_figure_cell(mpmath, k0, r, T, theta):
    """C of one concurrence-figure cell, or F_o and F_e of one at the polar
    angle theta, by their closed forms in mpmath from the cell's exact
    doubles: C = max((e2 - 3 e1)/Z, 0), F_o = N/z1 and F_e = N/z2."""
    k0, r, T = (mpmath.mpf(x) for x in (k0, r, T))
    u, v = mpmath.exp(-(k0 - 16 * r) / (16 * T)), mpmath.exp(-(k0 + 16 * r) / (16 * T))
    e1, e2 = mpmath.exp(-k0 / (16 * T)), mpmath.exp(3 * k0 / (16 * T))
    if theta is None:
        return {"C": max((e2 - 3 * e1) / (u + v + e1 + e2), 0)}
    w, y = (e1 + e2) / 2, (e1 - e2) / 2
    c2, s2 = mpmath.cos(mpmath.mpf(theta) / 2) ** 2, mpmath.sin(mpmath.mpf(theta) / 2) ** 2
    num = w * (c2 * c2 + s2 * s2) + (u + v) * c2 * s2 - 2 * y * c2 * s2
    return {"F_o": num / (w + u * s2 + v * c2), "F_e": num / (w + v * s2 + u * c2)}


def test_figure_columns_are_within_1e_15_of_50_digit_mpmath():
    # every C, F_o and F_e cell of fig 1..5 against the same formula in
    # 50-digit mpmath: the worst measured was 4.9e-16 (fig 4's F_e), and C
    # was within 2.4e-16
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for fig_id, (_, _, _, fixed, _) in _FIGURES.items():
            table = run_figure(fig_id)
            size = len(next(iter(table.values())))
            cells = {name: table[name].tolist() if name in table else [fixed[name]] * size
                     for name in ("k0", "r", "T")}
            theta = fixed.get("theta")
            for i, (k0, r, T) in enumerate(zip(cells["k0"], cells["r"], cells["T"])):
                for name, want in _mp_figure_cell(mpmath, k0, r, T, theta).items():
                    err = abs(table[name][i] - want)
                    assert err <= 1e-15, (fig_id, name, k0, r, T, float(err))


# ------------------------------------------------------------- format layer


def test_format_csv_shape():
    text = format_csv({"a": np.array([1.0, 2.0]), "b": np.array([0.1, math.nan])})
    assert text == "a,b\n1,0.10000000000000001\n2,\n"


def test_format_csv_17_digits():
    text = format_csv({"x": np.array([math.pi])})
    assert "3.1415926535897931" in text


def test_format_csv_rows_across_chunks():
    # one more row than a formatting chunk holds, NaN cells on both sides
    size = sweep_mod._CHUNK_ROWS + 1
    x = np.arange(size) * 0.1
    y = np.where(np.arange(size) % 3 == 0, math.nan, -x)
    text = format_csv({"x": x, "y": y})
    cells = [[format(v, ".17g") for v in col.tolist()] for col in (x, y)]
    rows = [f"{a},{'' if b == 'nan' else b}" for a, b in zip(*cells)]
    assert text.split("\n") == ["x,y", *rows, ""]


def _reference_csv(table):
    """format_csv rebuilt cell by cell: format(x, ".17g"), NaN as ""."""
    def cell(x):
        return "" if math.isnan(x) else format(x, ".17g")
    rows = [",".join(map(cell, row)) for row in zip(*(c.tolist() for c in table.values()))]
    return "\n".join([",".join(table), *rows, ""])


def test_format_csv_matches_per_cell_reference():
    # signed zeros, a quiet and a negative NaN, subnormals and repeats, cycled
    # so that every value recurs on both sides of every chunk boundary; over
    # three full chunks and a partial one, "gap" triples its values in odd
    # chunks, so 0.1 is in chunks 0 and 2 but not in chunk 1 between them
    pool = np.array([0.0, -0.0, math.nan, np.copysign(math.nan, -1.0), 5e-324,
                     2.2250738585072014e-308 / 3, 0.1, 1e300, -1.5])
    size = 3 * sweep_mod._CHUNK_ROWS + 2 * len(pool) + 1
    rng = np.random.default_rng(12)
    odd_chunk = np.arange(size) // sweep_mod._CHUNK_ROWS % 2 == 1
    table = {
        "mixed": np.resize(pool, size),
        "gap": np.resize(pool, size) * np.where(odd_chunk, 3.0, 1.0),
        "few": rng.choice(np.array([1.0, 1.0 + 2**-52, -0.0, 1e-310]), size),
        "distinct": rng.standard_normal(size),
    }
    text = format_csv(table)
    assert text == _reference_csv(table)
    mixed = {line.split(",")[0] for line in text.splitlines()[1:]}
    assert mixed == {"0", "-0", "", "4.9406564584124654e-324",
                     "7.4169128616906696e-309", "0.10000000000000001",
                     "1.0000000000000001e+300", "-1.5"}
    chunks = list(iter_csv(table))[1:]
    assert len(chunks) == 4 and chunks[-1].count("\n") < sweep_mod._CHUNK_ROWS
    assert ["0.10000000000000001" in {row.split(",")[1] for row in c.splitlines()}
            for c in chunks] == [True, False, True, False]


def test_iter_csv_formats_each_axis_value_once(monkeypatch):
    # a 30 x 300 grid is five chunks, each holding every inner-axis value: a
    # chunk takes the texts its predecessor formatted, so every value of
    # either axis is formatted once in the whole table
    calls = Counter()

    def counting_format(x, spec):
        calls[x] += 1
        return format(x, spec)

    monkeypatch.setattr(sweep_mod, "format", counting_format, raising=False)
    outer, inner = 1.0 + np.arange(30.0), 0.5 + np.arange(300.0)
    table = {"k0": np.repeat(outer, len(inner)), "r": np.tile(inner, len(outer))}
    assert len(table["r"]) > 4 * sweep_mod._CHUNK_ROWS
    assert format_csv(table) == _reference_csv(table)
    assert calls == Counter([*outer.tolist(), *inner.tolist()])


def test_format_csv_sweep_table_matches_per_cell_reference():
    # two axes over more rows than a chunk; Tc at fixed k0 is a zero-stride column
    spec = SweepSpec((Axis("r", -1.0, 1.0, 67), Axis("T", 0.05, 2.0, 67)), {"k0": 4.0},
                     ("C", "Tc", "populations"))
    table = run_sweep(spec)
    assert len(table["r"]) > sweep_mod._CHUNK_ROWS
    assert table["Tc"].strides == (0,)
    assert format_csv(table) == _reference_csv(table)


def test_iter_csv_pieces_are_the_header_and_one_per_chunk():
    table = {"x": np.arange(2 * sweep_mod._CHUNK_ROWS + 1) * 0.5}
    pieces = list(iter_csv(table))
    assert pieces[0] == "x\n"
    assert [p.count("\n") for p in pieces[1:]] == [sweep_mod._CHUNK_ROWS] * 2 + [1]
    assert "".join(pieces) == format_csv(table) == _reference_csv(table)


def test_format_json_round_trip():
    payload = json.loads(format_json({"x": np.array([1.5]), "y": np.array([math.nan])}))
    assert payload == {"columns": ["x", "y"], "rows": [[1.5, None]]}


def _reference_json(table):
    """format_json rebuilt by json.dumps: NaN cells of either sign as None."""
    lists = (np.atleast_1d(np.asarray(c, float)).tolist() for c in table.values())
    rows = [[None if math.isnan(x) else x for x in row] for row in zip(*lists)]
    return json.dumps({"columns": list(table), "rows": rows}, indent=2) + "\n"


@pytest.mark.parametrize("make_table", [
    lambda: run_sweep(SweepSpec((), {"k0": 4.0, "r": 1.0, "T": 0.5, "theta": 1.0, "phi": 0.5},
                                QUANTITY_NAMES)),
    lambda: run_sweep(SweepSpec((Axis("k0", -1.0, 1.0, 3),), {"r": 0.0, "T": 0.5},
                                ("Tc", "C"))),
    lambda: {"x": np.array([0.0, -0.0, 0.0, math.inf, -math.inf, -math.nan, 5e-324]),
             "y": np.array([-0.0, 0.0, 1e300, 0.1, math.nan, -0.0, 1.0])},
    lambda: run_figure(2),  # a panel-key column leads
    # 50 x 100 rows: two full chunks and a partial third; Tc is NaN at k0 <= 0
    lambda: run_sweep(SweepSpec((Axis("k0", -2.0, 10.0, 50), Axis("r", 0.0, 2.0, 100)),
                                {"T": 0.5}, ("C", "Tc", "populations"))),
    lambda: {"k0": np.array([4.0]), "C": np.array([0.5]), "Tc": np.array([math.nan])},
    # list columns are written as Python floats, an int or a numpy scalar too
    lambda: {"x": [1, 0.5, -0.0, 2**70], "y": [math.nan, np.float32(0.25), 1e300, -math.inf]},
], ids=["point", "tc-nan", "signed-zeros", "fig2", "sweep-5000", "one-row", "lists"])
def test_format_json_is_json_dumps_byte_for_byte(make_table):
    table = make_table()
    expected = _reference_json(table)
    assert format_json(table) == expected
    pieces = list(iter_json(table))
    assert "".join(pieces) == format_json(table)
    # the header, one piece per chunk, the closing
    size = len(np.atleast_1d(next(iter(table.values()))))
    assert len(pieces) == 2 + -(-size // sweep_mod._CHUNK_ROWS)
    assert pieces[-1] == "\n    ]\n  ]\n}\n"


def test_every_column_name_needs_no_json_escape():
    # iter_json writes a column name between quotes as it is
    panel_keys = {key for key, *_ in _FIGURES.values()} - {None}
    columns = {name for _, names in sweep_mod._QUANTITIES.values() for name in names}
    names = {*PARAMETER_NAMES, *columns, *panel_keys}
    assert {"k0", "theta", "Tc", "F_a", "p00"} <= names
    for name in names:
        assert json.dumps(name) == f'"{name}"'


# ------------------------------------------------------------------ parsers


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("pi/3", math.pi / 3),
        ("2*pi", 2 * math.pi),
        ("-pi/4", -math.pi / 4),
        ("1.5*pi", 1.5 * math.pi),
        ("0.75", 0.75),
        ("-2.5", -2.5),
    ],
)
def test_parse_angle_forms(text, expected):
    assert parse_angle(text) == pytest.approx(expected, rel=1e-15)


def test_parse_angle_rejects_garbage():
    for bad in ("pie", "pi//2", "two*pi", ""):
        with pytest.raises(UsageError):
            parse_angle(bad)


def test_parse_axis():
    ax = parse_axis("T:0.1:2:25")
    assert (ax.name, ax.lo, ax.hi, ax.steps) == ("T", 0.1, 2.0, 25)
    for bad in ("T:0.1:2", "T:a:b:5", "T:0.1:2:25:9"):
        with pytest.raises(UsageError):
            parse_axis(bad)


def test_parse_quantities():
    assert parse_quantities("C, Tc") == ("C", "Tc")
    assert parse_quantities("C,,Tc") == ("C", "Tc")  # empty segments are skipped
    with pytest.raises(UsageError):
        parse_quantities("  ,  ")


# ---------------------------------------------------------------------- CLI


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cli_concurrence_point(capsys):
    rc, out, err = run_cli(
        capsys, "concurrence", "--k0", "4", "--r", "1", "--t", "0.5"
    )
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "C"
    want = model_concurrence(DotParams(k0=4.0, r=1.0, T=0.5))
    assert float(lines[1]) == want


def test_cli_output_is_deterministic(capsys):
    argv = ("fidelity", "--k0", "2", "--r", "0.2", "--sweep", "T:0.1:1:7")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_cli_angle_flags(capsys):
    rc, out, _ = run_cli(
        capsys,
        "fidelity",
        "--k0", "4", "--r", "0.2", "--t", "0.2",
        "--theta", "pi/3", "--quantities", "F_o,F_e",
    )
    assert rc == 0
    header, row = out.splitlines()
    assert header == "F_o,F_e"
    f_o, f_e = map(float, row.split(","))
    assert abs(f_o - 0.9900633844225393) < 1e-14
    assert abs(f_e - 0.9749206833514602) < 1e-14


def test_cli_tc_empty_cell(capsys):
    rc, out, _ = run_cli(capsys, "tc", "--k0", "-1")
    assert rc == 0
    assert out.splitlines()[1] == ""


def test_cli_ground_state(capsys):
    rc, out, _ = run_cli(capsys, "ground-state", "--k0", "4", "--r", "1")
    assert rc == 0
    assert out.splitlines()[0] == "k0,r,C"
    assert out.splitlines()[1].endswith(",0.5")
    rc, _, err = run_cli(capsys, "ground-state")
    assert rc == 1
    assert err == "error: missing parameter value(s): k0\n"


def test_cli_usage_error_exit_code(capsys):
    rc, _, err = run_cli(capsys, "concurrence", "--k0", "4")
    assert rc == 1
    assert "missing parameter" in err
    assert "T" in err
    # a flag's converter shows its own reason, as the config route does
    for argv, reason in (
        (("concurrence", "--sweep", "k0:-1e308:1e308:3", "--t", "1"),
         "axis k0 bounds and span must be finite"),
        (("concurrence", "--sweep", "k0:2:1:3", "--t", "1"), "axis k0 needs lo < hi"),
        (("fidelity", "--theta", "foo"), "cannot parse angle 'foo'"),
        (("fidelity", "--k0", "4", "--t", "1", "--theta", "pi/0"), "angle 'pi/0' divides by zero"),
        (("fidelity", "--k0", "4", "--t", "1", "--theta", "0*pi/0"),
         "angle '0*pi/0' divides by zero"),
        (("fidelity", "--k0", "4", "--t", "1", "--sweep", "theta:0:pi/0:3"),
         "angle 'pi/0' divides by zero"),
        (("concurrence", "--k0", "4", "--t", "1", "--quantities", ""), "empty quantity list"),
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1 and out == ""
        assert err.startswith("error: argument") and reason in err


@pytest.mark.parametrize(
    "argv,flag,value,code",
    [
        (("concurrence", "--k0", "4", "--t", "0.5"), "--r", "-1e-3", 0),
        (("concurrence", "--t", "0.5"), "--k0", "-2E0", 0),
        (("concurrence", "--k0", "4", "--t", "0.5"), "--r", "-1.5e+2", 0),
        (("concurrence", "--k0", "4"), "--t", "-1e-3", 3),
        (("fidelity", "--k0", "4", "--t", "1"), "--theta", "-1e-1", 0),
        (("fidelity", "--k0", "4", "--t", "1"), "--phi", "-2E0", 0),
        (("tc",), "--k0", "-1.5e+2", 0),
        (("ground-state", "--k0", "4"), "--r", "-1e-3", 0),
        (("concurrence", "--k0", "4", "--t", "1"), "--workers", "-1e0", 1),
        (("verify",), "--tol", "-1e-3", 1),
        (("verify",), "--seed", "-1e3", 1),
        (("verify",), "--mc-samples", "-2E0", 1),
    ],
)
def test_cli_negative_numbers_in_exponent_form(capsys, argv, flag, value, code):
    # "--r -1e-3" parses as "--r=-1e-3" does, on every subparser, exit code kept
    spaced = run_cli(capsys, *argv, flag, value)
    joined = run_cli(capsys, *argv, f"{flag}={value}")
    assert spaced == joined
    assert spaced[0] == code
    assert "expected one argument" not in spaced[2]


def test_cli_domain_error_exit_code(capsys):
    rc, out, err = run_cli(
        capsys, "concurrence", "--k0", "4", "--r", "0", "--sweep", "T:-1:1:5"
    )
    assert rc == 3 and out == ""
    assert err == "domain error: temperature must be >= 0, got -1.0\n"
    rc, out, err = run_cli(capsys, "tc", "--k0", "4", "--t", "-1")
    assert rc == 3 and out == ""
    assert err == "domain error: temperature must be >= 0, got -1.0\n"
    # a negative --t beside an axis over T: the axis wins, but --t is checked
    for t in ("-1", "-1e-300"):
        rc, out, err = run_cli(capsys, "concurrence", "--k0", "4", "--r", "0",
                               "--sweep", "T:0.5:1:3", "--t", t)
        assert rc == 3 and out == ""
        assert err == f"domain error: temperature must be >= 0, got {float(t)!r}\n"
    # exp(k0/16T) overflows at T = 1e-310
    rc, out, err = run_cli(capsys, "fidelity", "--k0", "1", "--t", "1e-310")
    assert rc == 3 and out == ""
    assert err.startswith("domain error: Boltzmann exponents overflow at k0=1.0")


def test_cli_zero_temperature_is_the_limit_of_the_cold_cells(capsys):
    # T = 0 prints what T = 1e-30 prints, byte for byte; at theta = 0 the
    # polarised channel's Psi branch has weight 0, and its F_o is absent
    args = ("fidelity", "--k0", "4", "--r", "1.5", "--theta", "0",
            "--quantities", "C,F_o,F_e,F_a,populations")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fmt in ("csv", "json"):
            cold = run_cli(capsys, *args, "--t", "0", "--format", fmt)
            assert cold == run_cli(capsys, *args, "--t", "1e-30", "--format", fmt)
    assert cold[0] == 0 and cold[2] == ""
    assert json.loads(cold[1])["rows"] == [[0.0, None, 0.0, 0.5, 1.0, 0.0, 0.0, 0.0]]
    _, out, _ = run_cli(capsys, *args, "--t", "0")
    assert out == "C,F_o,F_e,F_a,p11,p10,p01,p00\n0,,0,0.5,1,0,0,0\n"


def test_cli_json_format(capsys):
    rc, out, _ = run_cli(
        capsys, "concurrence", "--k0", "4", "--r", "1", "--t", "0.5",
        "--format", "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["columns"] == ["C"]


def test_cli_writes_output_file(tmp_path, capsys):
    target = tmp_path / "fig3.csv"
    rc, out, _ = run_cli(capsys, "fig", "3", "--out", str(target))
    assert rc == 0 and out == ""
    text = target.read_text()
    assert text.startswith("T,F_o,F_e,F_a\n")
    assert len(text.splitlines()) == 51


def test_cli_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\nk0 = 3\nt = 0.5\nr = 1\n")
    rc, out, _ = run_cli(
        capsys, "concurrence", "--config", str(cfg), "--k0", "4"
    )
    assert rc == 0
    got = float(out.splitlines()[1])
    assert got == model_concurrence(DotParams(k0=4.0, r=1.0, T=0.5))


def test_cli_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k0 = 3\nvolume = 11\n")
    rc, _, err = run_cli(capsys, "concurrence", "--config", str(cfg), "--t", "1")
    assert rc == 1
    assert "volume" in err


# (command, option, good value, bad value, reason the bad value must show)
_FLAG_CONFIG_CASES = [
    (("concurrence", "--k0", "4", "--t", "0.5"), "format", "json", "xml",
     "invalid choice: 'xml'"),
    (("fig", "3"), "workers", "2", "0", "must be at least 1"),
    (("fidelity", "--k0", "2", "--t", "0.5"), "theta", "-pi/2", "foo",
     "cannot parse angle 'foo'"),
    (("concurrence", "--t", "0.5"), "sweep", "k0:0:2:3", "k0:2:1:3", "axis k0 needs lo < hi"),
    (("verify", "--mc-samples", "2000"), "seed", "3", "-1", "must be in [0, 2**128)"),
    (("verify",), "mc-samples", "2000", "1", "must be at least 2"),
    (("verify", "--mc-samples", "2000"), "tol", "1e-9", "nan", "must be finite and at least 0"),
]


@pytest.mark.parametrize(
    "command,option,good,bad,reason", _FLAG_CONFIG_CASES,
    ids=[case[1] for case in _FLAG_CONFIG_CASES],
)
def test_cli_flag_and_config_parity(tmp_path, capsys, command, option, good, bad, reason):
    # a config key is its long flag: same converter, choices and range
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{option} = {good}\n")
    by_flag = run_cli(capsys, *command, f"--{option}={good}")
    by_file = run_cli(capsys, *command, "--config", str(cfg))
    assert by_flag == by_file and by_flag[0] == 0 and by_flag[1]
    cfg.write_text(f"{option} = {bad}\n")
    rc, out, err = run_cli(capsys, *command, f"--{option}={bad}")
    assert rc == 1 and out == "" and reason in err
    rc, out, err = run_cli(capsys, *command, "--config", str(cfg))
    assert rc == 1 and out == "" and reason in err and str(cfg) in err


def test_cli_flag_sweeps_replace_config_sweeps(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    # `swe` is argparse's abbreviation of `sweep`, so it is a sweep line too
    cfg.write_text("k0 = 4\nt = 0.5\nsweep = r:0:2:5\nswe = T:0.1:1:3\n")
    both = run_cli(capsys, "concurrence", "--k0", "4", "--sweep", "r:0:2:5",
                   "--sweep", "T:0.1:1:3")
    assert run_cli(capsys, "concurrence", "--config", str(cfg)) == both
    replaced = run_cli(capsys, "concurrence", "--config", str(cfg), "--sweep", "k0:1:3:3")
    only_flag = run_cli(capsys, "concurrence", "--t", "0.5", "--sweep", "k0:1:3:3")
    assert replaced == only_flag and only_flag[1].startswith("k0,C\n")


def test_cli_config_file_errors(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for text, reason in (
        ("k0 = 3\n# note\nk0 = 4\n", ":3: config key 'k0' given more than once"),
        ("k0 = 3\nt 1\n", ":2: expected key = value"),
        ("config = other.cfg\n", ":1: a config file cannot name another"),
        # keys resolve to their flag as argparse does, prefixes included
        ("k = 3\nk0 = 4\nt = 1\n", ":2: config key 'k0' given more than once"),
        ("con = x\n", ":1: a config file cannot name another"),
        ("k0 = 4\nt = 1\ntheta = pi\n", ": unrecognized arguments: --theta=pi"),
        ("k0 = four\nt = 1\n", ": argument --k0: invalid float value: 'four'"),
    ):
        cfg.write_text(text)
        rc, out, err = run_cli(capsys, "concurrence", "--config", str(cfg))
        assert rc == 1 and out == ""
        assert err.startswith(f"error: {cfg}") and reason in err
    cfg.write_text("k0 = 4\nt = 1\ntheta = pi/0\n")
    rc, out, err = run_cli(capsys, "fidelity", "--config", str(cfg))
    assert rc == 1 and out == ""
    assert err.startswith(f"error: {cfg}") and "angle 'pi/0' divides by zero" in err
    rc, _, err = run_cli(capsys, "concurrence", "--config", str(tmp_path / "missing.cfg"))
    assert rc == 1 and err.startswith("error: cannot read config")


def test_cli_verify_smoke(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--mc-samples", "20000")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert all(line.startswith("[ok  ]") for line in lines[:8])
    assert lines[-1] == "all 8 checks passed"


def test_cli_verify_catches_corruption(monkeypatch, capsys):
    real = model_mod.thermal_elements

    def crooked(p):
        e = real(p)
        return type(e)(
            u=e.u * (1 + 1e-6), v=e.v, w=e.w, y=e.y,
            big_z=e.big_z, log_scale=e.log_scale,
        )

    monkeypatch.setattr(model_mod, "thermal_elements", crooked)
    rc, out, _ = run_cli(capsys, "verify", "--mc-samples", "2000")
    assert rc == 2
    assert "[FAIL]" in out
    assert "checks failed" in out.splitlines()[-1]


def test_cli_overflowing_exponents_exit_3(capsys):
    rc, out, err = run_cli(capsys, "concurrence", "--k0", "1", "--t", "1e-310")
    assert rc == 3 and out == ""
    assert "domain error" in err and "overflow" in err


def test_cli_overflowing_axis_span_is_a_usage_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(
            capsys, "concurrence", "--sweep", "k0:-1e308:1e308:3", "--t", "1"
        )
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "k0:-1e308:1e308:3" in err


@pytest.mark.parametrize("steps", ["100000000000", "100000000000000000000"])
def test_cli_grid_too_large_is_a_usage_error(capsys, steps):
    # numpy refuses both sizes before it allocates anything
    rc, out, err = run_cli(capsys, "concurrence", "--k0", "4", "--t", "1", "--sweep", f"r:0:1:{steps}")
    assert rc == 1 and out == ""
    assert err.startswith(f"error: grid r:{steps} is too large:")


def test_cli_zero_temperature_concurrence_sweep(capsys):
    # T = 0 takes the ground-state limit over the whole grid
    rc, out, err = run_cli(
        capsys, "concurrence", "--sweep", "k0:0:8:3", "--r", "0.5", "--t", "0"
    )
    assert rc == 0 and err == ""
    assert out == "k0,C\n0,0\n4,1\n8,1\n"


def test_cli_errors_name_scalar_values(capsys):
    rc, _, err = run_cli(capsys, "concurrence", "--k0", "nan", "--t", "1")
    assert rc == 3
    assert err == "domain error: k0 must be finite, got nan\n"
    # a flag's value is checked whether the requested quantities read it or not
    for argv, name, value in (
        (("tc", "--k0", "4", "--t", "nan"), "T", "nan"),
        (("tc", "--k0", "4", "--r", "inf"), "r", "inf"),
        (("fidelity", "--k0", "4", "--t", "1", "--quantities", "F_a", "--theta", "nan"),
         "theta", "nan"),
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 3 and out == ""
        assert err == f"domain error: {name} must be finite, got {value}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _, err = run_cli(
            capsys, "concurrence", "--sweep", "T:1e-310:1:3", "--k0", "1"
        )
    assert rc == 3
    assert err == (
        "domain error: Boltzmann exponents overflow at k0=1.0, r=0.0, T=1e-310\n"
    )


def test_cli_domain_error_writes_no_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    rc, out, err = run_cli(
        capsys, "concurrence", "--k0", "1", "--sweep", "T:1e-310:1:3", "--out", str(target)
    )
    assert rc == 3 and out == "" and err.startswith("domain error:")
    assert not target.exists()


@pytest.mark.parametrize("t", ["1e10", "1e308"])
def test_cli_finite_exponents_print_no_nan(capsys, t):
    # 3 k0 overflows before the division; the exponents themselves are finite
    for argv in (("concurrence", "--quantities", "C,F_a,populations"), ("fidelity",)):
        rc, out, err = run_cli(capsys, *argv, "--k0", "1e308", "--t", t)
        assert rc == 0 and err == ""
        _, row = out.splitlines()
        assert "nan" not in row and all(row.split(","))  # no empty cell either


def test_cli_sweep_output_is_format_csv_on_stdout_and_in_a_file(tmp_path, capsys):
    # 22,500 cells: two evaluation blocks and 11 CSV chunks, written as they come
    axes = ["--sweep", "r:0:2:150", "--sweep", "T:0.05:2:150"]
    spec = SweepSpec((Axis("r", 0.0, 2.0, 150), Axis("T", 0.05, 2.0, 150)), {"k0": 4.0}, ("C",))
    expected = format_csv(run_sweep(spec)).encode()
    rc, out, err = run_cli(capsys, "concurrence", "--k0", "4", *axes)
    assert rc == 0 and err == "" and out.encode() == expected
    target = tmp_path / "map.csv"
    rc, out, err = run_cli(capsys, "concurrence", "--k0", "4", *axes, "--out", str(target))
    assert rc == 0 and out == err == ""
    assert target.read_bytes() == expected


def test_cli_json_sweep_is_format_json_on_stdout_and_in_a_file(tmp_path, capsys):
    # 22,500 rows: 11 JSON chunks, written as they come, as CSV's are
    axes = ["--sweep", "r:0:2:150", "--sweep", "T:0.05:2:150", "--format", "json"]
    spec = SweepSpec((Axis("r", 0.0, 2.0, 150), Axis("T", 0.05, 2.0, 150)), {"k0": 4.0}, ("C",))
    expected = format_json(run_sweep(spec)).encode()
    rc, out, err = run_cli(capsys, "concurrence", "--k0", "4", *axes)
    assert rc == 0 and err == "" and out.encode() == expected
    target = tmp_path / "map.json"
    rc, out, err = run_cli(capsys, "concurrence", "--k0", "4", *axes, "--out", str(target))
    assert rc == 0 and out == err == ""
    assert target.read_bytes() == expected


def test_cli_overflow_past_the_first_block_names_its_first_cell(tmp_path, capsys):
    # the first overflowing cell is 19,100, in the second evaluation block
    assert sweep_mod._EVAL_BLOCK < 19_100
    target = tmp_path / "map.csv"
    rc, out, err = run_cli(capsys, "concurrence", "--sweep", "k0:1:1e306:200",
                           "--sweep", "T:1e-3:1:100", "--out", str(target))
    assert rc == 3 and out == ""
    assert err == ("domain error: Boltzmann exponents overflow at "
                   "k0=9.597989949748744e+305, r=0.0, T=0.001\n")
    assert not target.exists()


def _emit_peak(table, fmt, target):
    """Bytes that tracemalloc sees at the peak of cli._emit writing ``table``
    to ``target``, above what was allocated before."""
    args = argparse.Namespace(format=fmt, out=str(target))
    cli_mod._emit(table, args)  # first-call caches stay out of the measure
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        cli_mod._emit(table, args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def _table_300x300():
    spec = SweepSpec((Axis("k0", -2.0, 10.0, 300), Axis("r", 0.0, 2.0, 300)), {"T": 0.5}, ("C",))
    return run_sweep(spec)


def test_streamed_csv_write_peak_memory(tmp_path):
    # writing a 300x300 C sweep: format_csv and one write of its text peaked
    # 9.2 MiB above the table; chunk by chunk it is 0.5 MiB, and the bound is 2 MiB
    table = _table_300x300()
    peak = _emit_peak(table, "csv", tmp_path / "map.csv")
    assert (tmp_path / "map.csv").read_bytes() == format_csv(table).encode()
    assert peak < 2 * 2**20


def test_streamed_json_write_peak_memory(tmp_path):
    # the same sweep as JSON: json.dumps of its row tuples peaked 50 MiB above
    # the table; through the chunk loop it is 1.1 MiB
    table = _table_300x300()
    peak = _emit_peak(table, "json", tmp_path / "map.json")
    assert (tmp_path / "map.json").read_bytes() == format_json(table).encode()
    assert peak < 2 * 2**20


def _child_env(**extra):
    env = {**os.environ, "PYTHONPATH": str(Path(qdot.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return {**env, **extra}


@pytest.mark.parametrize("unbuffered", [False, True])
def test_cli_verify_into_a_closed_pipe_exits_1_without_a_traceback(unbuffered):
    # verify prints its report in one burst after the checks, so a reader
    # that has gone before the first line is the case that always meets it
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = _child_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    try:
        child = subprocess.run(
            [sys.executable, "-m", "qdot", "verify", "--mc-samples", "100"], stdout=write_end,
            stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert child.stderr == ""


def test_cli_sweep_into_a_pipe_closed_after_the_first_line_exits_1():
    # 4.4 MB of CSV fill the pipe, so the child is still writing chunks when
    # the reader closes after the header
    argv = ["concurrence", "--k0", "4", "--sweep", "r:0:2:300", "--sweep", "T:0.05:2:300"]
    with subprocess.Popen([sys.executable, "-m", "qdot", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=_child_env()) as child:
        try:
            header = child.stdout.readline()
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        finally:
            child.kill()
    assert header == b"r,T,C\n"
    assert child.returncode == 1
    assert err == b""


class _FullDisk(io.TextIOBase):
    """A stdout whose disk fills after ``room`` characters: from then on,
    every write and flush raises ENOSPC."""

    def __init__(self, fd, room):
        self._fd, self._room = fd, room

    def fileno(self):
        return self._fd

    def write(self, text):
        self._room -= len(text)
        if self._room < 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(text)

    def flush(self):
        self.write("")


_ENOSPC_LINE = "error: cannot write stdout: {}\n".format(
    OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))


@pytest.mark.parametrize("argv,room", [
    # 10,000 rows are five CSV chunks; the disk fills during the second
    (["concurrence", "--k0", "4", "--sweep", "r:0:2:100", "--sweep", "T:0.05:2:100"], 150_000),
    (["verify", "--mc-samples", "100"], 0),
])
def test_cli_stdout_on_a_full_disk_exits_1_without_a_traceback(tmp_path, capsys, argv, room):
    # main points the stub's descriptor, a file of the test's own, at devnull
    with open(tmp_path / "stdout", "w") as fh:
        with contextlib.redirect_stdout(_FullDisk(fh.fileno(), room)):
            rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err == _ENOSPC_LINE


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [["fig", "1"], ["verify", "--mc-samples", "100"],
                                  ["fig", "1", "--format", "json"]])
def test_cli_stdout_to_dev_full_exits_1_without_a_traceback(argv):
    # /dev/full refuses every write: the flush at exit must stay quiet too
    with open("/dev/full", "w") as full:
        child = subprocess.run([sys.executable, "-W", "error", "-m", "qdot", *argv], stdout=full,
                               stderr=subprocess.PIPE, env=_child_env(), text=True, timeout=60)
    assert child.returncode == 1
    assert child.stderr == _ENOSPC_LINE


def test_cli_unwritable_output_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    rc, out, err = run_cli(capsys, "fig", "3", "--out", str(target))
    assert rc == 1 and out == ""
    assert err.startswith("error: cannot write")


def test_fidelity_sweeps_and_figures_never_import_numpy_polynomial(tmp_path):
    # F_a is closed form on the sweep path; the Gauss-Legendre rule, and the
    # numpy.polynomial import it costs, belong to the oracle only
    code = (
        "import sys; from qdot.cli import main; "
        "a = main(['fidelity', '--k0', '4', '--sweep', 'T:0.05:2:25', '--sweep', 'r:0:4:40', "
        "'--theta', '1', '--quantities', 'F_o,F_e,F_a', '--format', 'json', "
        f"'--out', {str(tmp_path / 'map.json')!r}]); "
        f"b = main(['fig', '3', '--out', {str(tmp_path / 'fig3.csv')!r}]); "
        "print(a, b, 'numpy.polynomial' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qdot.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["0", "0", "False"]


def test_importing_the_cli_loads_no_executor_or_logging():
    # Monte Carlo's helper thread is a plain threading.Thread: importing
    # concurrent.futures would pull in logging, about 9 ms on every start
    code = (
        "import qdot.cli, sys; "
        "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qdot.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_workers_below_one(tmp_path, capsys, workers):
    rc, _, err = run_cli(capsys, "fig", "3", "--workers", workers)
    assert rc == 1 and "--workers" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"workers = {workers}\n")
    rc, _, err = run_cli(capsys, "fig", "3", "--config", str(cfg))
    assert rc == 1 and "--workers" in err


def test_verify_quadrature_check_holds_each_point_to_its_own_bound(monkeypatch):
    import qdot.oracles as oracles
    from qdot.verify import check_quadrature_mc

    real = oracles.average_fidelity
    shapes = []

    def shifted(p, nodes=64):  # shifts one cell of the stack of the three points
        shapes.append(np.shape(p.k0))
        off = np.where((p.k0 == 2.0) & (p.r == 0.2) & (p.T == 0.5), 5e-5, 0.0)
        return real(p, nodes) + off

    assert check_quadrature_mc(1e-10, 200_000, 0).passed
    # below the 1e-14 rounding floor the zero-field point still passes
    assert check_quadrature_mc(1e-16, 200_000, 0).passed
    monkeypatch.setattr(oracles, "average_fidelity", shifted)
    res = check_quadrature_mc(1e-10, 200_000, 0)
    assert res.line().startswith("[FAIL] quadrature vs Monte Carlo")
    assert shapes == [(3,)]  # one quadrature call over all three points

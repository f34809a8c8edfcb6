"""Property tests: a point of Python floats takes the math route of each
guard, and that route has the bits of the numpy route; every closed form
stays in its range and keeps the model's field-reversal symmetries exactly.

For the Boltzmann elements, the concurrences, the populations, Tc, the
subspace fidelities and the closed-form F_a, a call on Python floats must
give Python floats with the same hex bits as the call on one-element
arrays, signed zeros included; where one raises, both raise DomainError
with the same message, non-finite inputs included. The
draws lean on the edges: subnormal couplings and temperatures, fields
within a few ulps of the level crossing |r| = k0/4, shifted Boltzmann
exponents within a few ulps of -708.40 and -745.13 (where exp turns
subnormal and underflows), exponents that lie more than 1.8e308 apart
(where the shifted exponent is -inf), and values a few ulps from each
overflow guard of _boltzmann_weights; the input state's angles are drawn
beside them. Examples are derandomized, so every run draws the same ones.

Inputs narrower than float64, or Python ints, are widened to float64 first,
so they give the bits of the float64 call at the widened values.

A sweep grid of one output chunk, while numpy is not loaded, is evaluated
the same way, cell by cell on Python floats, and writes the bytes that the
array route writes for it.
"""

import math
import sys
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
import pytest
from hypothesis import strategies as st

import qdot.sweep as sweep_mod
import qdot.teleport as teleport_mod
from qdot.entanglement import critical_temperature, model_concurrence
from qdot.model import DomainError, DotParams, thermal_elements
from qdot.teleport import InputState, average_fidelity_closed_form, subspace_fidelities

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=400)

_ANY = st.floats(allow_nan=False, allow_infinity=False)
_TINY = st.floats(-1e-300, 1e-300, allow_nan=False)  # subnormals included
_SIGN = st.sampled_from((-1.0, 1.0))
_MAX = sys.float_info.max
# every subnormal, each a whole number of the smallest one
_SUBNORMAL = st.integers(1 - 2**52, 2**52 - 1).map(lambda n: n * math.ulp(0.0))
# powers of two: a product or quotient by one is exact while it stays normal
_POW2 = st.integers(-20, 20).map(lambda n: 2.0**n)
# shifted exponents where exp turns subnormal (-708.40), underflows to 0
# (-745.13) and where a positive argument would overflow (709.78)
_EXP_EDGES = (708.3964185322641, 745.1332191019411, 709.782712893384)
# below 1.8e308, where a gap between two exponents overflows (MAX/2 at zero
# k0), 3 k0 (MAX/3), 4 k0/16T (MAX/4) and 16 r or 16 T (MAX/16) do
_GUARD_EDGES = (_MAX, _MAX / 2.0, _MAX / 3.0, _MAX / 4.0, _MAX / 16.0, 3.0 * _MAX / 16.0)


@st.composite
def _ulps_off(draw, values, ulps=4):
    """One of ``values``, moved up to ``ulps`` ulps either way."""
    x = draw(st.sampled_from(values))
    for _ in range(draw(st.integers(0, ulps))):
        x = math.nextafter(x, draw(st.sampled_from((math.inf, -math.inf))))
    return x


@st.composite
def _points(draw):
    """(k0, r, T) as Python floats, drawn from one of several edge regimes."""
    regime = draw(st.sampled_from(
        ("any", "tiny", "subnormal", "crossing", "exp", "shift", "guard")))
    T = draw(st.one_of(st.floats(0.0, 1e308), _TINY, st.sampled_from((0.0, -0.0, -1.0))))
    if regime == "any":  # non-finite values too: both routes refuse them alike
        wild = st.one_of(_ANY, st.sampled_from((math.nan, math.inf, -math.inf)))
        return draw(wild), draw(wild), draw(st.one_of(st.just(T), wild))
    if regime == "tiny":
        return draw(_TINY), draw(_TINY), draw(st.one_of(_TINY, st.floats(0.0, 10.0)))
    if regime == "subnormal":  # k0 and T subnormal, r subnormal or beside them
        T = draw(st.one_of(_SUBNORMAL.map(abs), st.just(0.0)))
        return draw(_SUBNORMAL), draw(st.one_of(_SUBNORMAL, _TINY, st.floats(-10.0, 10.0))), T
    if regime == "crossing":  # |r| at k0/4, or a few ulps off it
        k0 = draw(st.one_of(_ANY, _TINY, _SUBNORMAL))
        r = draw(_ulps_off((k0 / 4.0,)))
        return k0, draw(_SIGN) * r, T
    T = draw(st.one_of(st.floats(1e-300, 1e300), _TINY.filter(lambda t: t > 0)))
    if regime == "exp":  # a shifted exponent, or a gap between two, near 709-745
        gap = draw(st.one_of(st.floats(700.0, 750.0), _ulps_off(_EXP_EDGES)))
        T = draw(st.one_of(st.just(T), _POW2))  # exact exponents on a power of two
        k0 = draw(_SIGN) * draw(st.sampled_from((0.0, 1.0, 4.0 * gap, 16.0 / 3.0 * gap))) * T
        r = draw(_SIGN) * draw(st.sampled_from((0.0, gap / 2.0, gap))) * T
        return k0, r, T
    if regime == "guard":  # k0/T, r/T and T a few ulps from an overflow guard
        T = draw(st.one_of(_POW2.filter(lambda t: t <= 1.0), _ulps_off(_GUARD_EDGES)))
        k0 = draw(_SIGN) * draw(st.one_of(st.just(0.0), _ulps_off(_GUARD_EDGES))) * min(T, 1.0)
        r = draw(_SIGN) * draw(st.one_of(st.just(0.0), _ulps_off(_GUARD_EDGES))) * min(T, 1.0)
        return k0, r, T
    # shift: a gap 2 r/T or 4 k0/16T past the float range, its exponent at -inf
    k0 = draw(_SIGN) * draw(st.floats(0.0, _MAX)) * min(T, 1.0)
    r = draw(_SIGN) * draw(st.floats(8e307, _MAX)) * min(T, 1.0)
    return k0, r, T


# Bloch angles: a turn and a bit either way, the exact cuts, any finite
# float and the non-finite values, which InputState refuses on both routes
_ANGLE = st.one_of(st.floats(-7.0, 7.0), st.sampled_from((0.0, -0.0, math.pi / 2, math.pi)),
                   _ANY, st.sampled_from((math.nan, math.inf, -math.inf)))
_ANGLES = st.tuples(_ANGLE, _ANGLE)
_CUT = (math.pi / 3.0, 0.0)


def _run(fn, *args):
    """(result, None) or (None, the DomainError's message)."""
    try:
        return fn(*args), None
    except DomainError as exc:
        return None, str(exc)


def _bits(point, array) -> None:
    """A Python float and a one-element array hold the same bits."""
    assert type(point) is float, type(point)
    assert array.shape == (1,)
    assert point.hex() == float(array[0]).hex()


def _ground_state(k0, r):
    return model_concurrence(DotParams(k0, r, 0.0))


def _populations(e):
    return e.u / e.big_z, e.w / e.big_z, e.v / e.big_z


def _same_route(k0, r, T, theta, phi) -> None:
    """Every routed quantity at (k0, r, T) and the input state (theta, phi):
    floats against one-element arrays."""
    arrays = tuple(np.array([x]) for x in (k0, r, T))
    point, point_error = _run(DotParams, k0, r, T)
    stack, stack_error = _run(DotParams, *arrays)
    assert point_error == stack_error
    state, state_error = _run(InputState, theta, phi)
    states, states_error = _run(InputState, np.array([theta]), np.array([phi]))
    assert state_error == states_error
    if point_error is None and state_error is None:
        want, want_error = _run(subspace_fidelities, state, point)
        got, got_error = _run(subspace_fidelities, states, stack)
        assert want_error == got_error
        for a, b in zip(want or (), got or ()):
            _bits(a, b)
    if point_error is None:
        for fn in (thermal_elements, model_concurrence, average_fidelity_closed_form):
            want, want_error = _run(fn, point)
            got, got_error = _run(fn, stack)
            assert want_error == got_error
            assert want_error is None or T != 0  # a T = 0 cell never overflows
            if fn is thermal_elements and want is not None:
                for name in ("u", "v", "w", "y", "big_z", "log_scale"):
                    _bits(getattr(want, name), getattr(got, name))
                for a, b in zip(_populations(want), _populations(got)):
                    _bits(a, b)
            elif want is not None:
                _bits(want, got)
    want, want_error = _run(_ground_state, k0, r)
    got, got_error = _run(_ground_state, *arrays[:2])
    assert want_error == got_error
    if want is not None:
        _bits(want, got)
    tc, tc_error = _run(critical_temperature, k0)
    tc_array, tc_array_error = _run(critical_temperature, arrays[0])
    assert tc_error == tc_array_error
    if tc is None and tc_error is None:  # no transition: None, or NaN in its cell
        assert math.isnan(tc_array[0])
    elif tc is not None:
        _bits(tc, tc_array)


@PROPERTY
@given(_points(), _ANGLES)
@example((0.0, 0.0, 0.5), _CUT)  # every exponent a zero of either sign: the shift m is -0.0
@example((-0.0, -0.0, 5e-324), _CUT)
@example((4.0, 1.0, 0.0), _CUT)  # T = 0 at the crossing: values, singlet and |11> tied
@example((4.0, 1.0, -0.0), _CUT)
@example((-4.0, 0.0, 0.0), _CUT)  # three triplet levels tied
@example((3 * 5e-324, 5e-324, 0.0), _CUT)  # subnormal couplings at T = 0: 4r > k0
@example((1.7e308, 4.25e307, 0.0), _CUT)  # 16 r overflows at T = 0; 4r = k0, a tie
@example((1.0, 0.0, 1e-310), _CUT)  # the exponents overflow
@example((1e308, 0.0, 1e-300), _CUT)
@example((1e308, 0.0, 1e10), _CUT)  # 3 k0 overflows where 3 k0/16T does not
@example((0.0, 1e308, 1.0), _CUT)  # 16 r overflows; a_v - m is -inf
@example((1.7e308, -1.7e308, 1.0), _CUT)
@example((2836.0, 0.0, 1.0), _CUT)  # exp(-4 k0/16T) near its underflow
@example((4.0, 1.0, -1.0), _CUT)
@example((5e-324, 1.25e-324, 5e-324), _CUT)  # subnormal k0, r and T
@example((-5e-324, 0.0, 5e-324), _CUT)
@example((1e-300, 2.5e-301, 1e-320), _CUT)  # at the crossing, T subnormal
@example((4.0, 1.5, 0.0), (0.0, 0.0))  # a polarised channel at theta = 0: F_o is NaN
@example((4.0, -1.5, 0.0), (math.pi, 0.0))  # and F_e at theta = pi
@example((0.0, 372.56660955097055, 1.0), _CUT)  # a shifted exponent -745.13: v = 5e-324
@example((0.0, 372.5666095509706, 1.0), _CUT)  # one ulp further: v = 0
@example((2980.5328764077644, 0.0, 1.0), _CUT)  # the same edge through -4 k0/16T
@example((0.0, 354.19820926613204, 1.0), _CUT)  # -708.40: v at the smallest normal
@example((_MAX / 3.0, 0.0, 1.0), _CUT)  # 3 k0 at the top of the float range
@example((math.nextafter(_MAX / 3.0, math.inf), 0.0, 1.0), _CUT)  # 3 k0 overflows
@example((0.0, _MAX / 2.0, 1.0), _CUT)  # a gap 2 r/T of 1.8e308, the shift guard
@example((0.0, math.nextafter(_MAX / 2.0, math.inf), 1.0), _CUT)  # past it: -inf
def test_a_float_point_has_the_bits_of_its_one_element_array(point, angles):
    _same_route(*point, *angles)


@PROPERTY
@given(_points(), _ANGLES)
@example((4.0, 1.5, 0.0), (0.0, 0.0))  # F_o's branch has weight 0
@example((4.0, 0.0, 1e-300), (math.pi / 2, 0.0))  # a singlet channel: F_o, F_e round to 1
def test_closed_forms_stay_in_their_ranges(point, angles):
    # each closed form gives finite values in its range, or raises
    # DomainError; F_o and F_e are NaN exactly where their branch weighs 0
    p, error = _run(DotParams, *point)
    s, state_error = _run(InputState, *angles)
    if error is not None or state_error is not None:
        return
    c, _ = _run(model_concurrence, p)
    if c is not None:
        assert 0.0 <= c <= 1.0, c
    fa, _ = _run(average_fidelity_closed_form, p)
    if fa is not None:
        assert 0.0 <= fa <= 1.0, fa
    e, error = _run(thermal_elements, p)
    if e is None:
        return
    populations = (e.u / e.big_z, e.w / e.big_z, e.w / e.big_z, e.v / e.big_z)
    assert all(x >= 0.0 for x in populations), populations
    assert abs(sum(populations) - 1.0) <= 4 * math.ulp(1.0), populations
    c2, s2 = np.cos(s.theta / 2.0) ** 2, np.sin(s.theta / 2.0) ** 2
    weights = (e.w + e.u * s2 + e.v * c2, e.w + e.v * s2 + e.u * c2)
    for f, z in zip(subspace_fidelities(s, p), weights):
        assert math.isnan(f) == (z == 0.0), (f, z)
        assert math.isnan(f) or 0.0 <= f <= 1.0, f


@PROPERTY
@given(_points(), _ANGLES)
@example((4.0, 1.0, 0.0), _CUT)  # the crossing at T = 0
@example((0.0, 1e308, 1.0), _CUT)  # a weight shifted to 0
def test_field_reversal_symmetries_hold_bit_for_bit(point, angles):
    # r -> -r swaps the weights u and v, so C and F_a are even in r, and it
    # swaps the branch weights z1 and z2, so F_o at -r is F_e at r
    k0, r, T = point
    plus, error = _run(DotParams, k0, r, T)
    s, state_error = _run(InputState, *angles)
    if error is not None or state_error is not None:
        return
    minus = DotParams(k0, -r, T)
    for fn in (model_concurrence, average_fidelity_closed_form):
        want, _ = _run(fn, plus)
        got, _ = _run(fn, minus)  # an overflow raises at both, naming its own r
        assert (want is None) == (got is None)
        assert want is None or want.hex() == got.hex(), (want, got)
    want, _ = _run(subspace_fidelities, s, plus)
    got, _ = _run(subspace_fidelities, s, minus)
    assert (want is None) == (got is None)
    if want is not None:
        assert [x.hex() for x in want] == [x.hex() for x in got[::-1]], (want, got)


def _quantities(k0, r, T, theta, phi):
    """Every closed form at one point or over one grid, element by element."""
    p = DotParams(k0, r, T)
    e = thermal_elements(p)
    return [e.u, e.v, e.w, e.y, e.big_z, model_concurrence(p),
            *subspace_fidelities(InputState(theta, phi), p), average_fidelity_closed_form(p),
            critical_temperature(k0), model_concurrence(DotParams(k0, r, 0.0))]


@pytest.mark.parametrize("point", [(4.0, 1.0, 0.3, 1.1, 0.4), (2.0, 0.2, 0.5, 0.3, 2.9),
                                   (0.5, -0.7, 1.3, 2.5, 0.0)])
def test_float32_inputs_give_the_bits_of_the_float64_call(point):
    # computed at float32 precision, critical_temperature(np.float32(4))
    # would be 0.9102392196655273, not 0.9102392266268373
    narrow = [np.float32(x) for x in point]
    want = [x.hex() for x in _quantities(*map(float, narrow))]
    assert [float(x).hex() for x in _quantities(*narrow)] == want
    columns = _quantities(*(np.array([x, x]) for x in narrow))
    assert all(c.dtype == np.float64 for c in columns)
    assert [float(c[1]).hex() for c in columns] == want


def test_wide_values_are_held_in_float64():
    k0 = np.array([1.0, 4.0])
    assert DotParams(k0, 0.0, 1.0).k0 is k0  # a float64 array, uncopied
    assert DotParams(np.arange(2), 0.0, 1.0).k0.dtype == np.float64
    assert critical_temperature(10**20) == critical_temperature(1e20)
    assert DotParams(10**20, 0.0, 1.0) == DotParams(1e20, 0.0, 1.0)
    with pytest.raises(DomainError, match="k0 must be finite"):
        critical_temperature(10**400)
    huge = np.finfo(np.longdouble).max
    if huge > np.finfo(float).max:  # a long double wider than float64
        with pytest.raises(DomainError, match="T must be finite"):
            DotParams(1.0, 0.0, np.array([1.0, huge]))


# Per parameter: values at an edge of the model, beside ordinary draws. With
# k0 = 4 the crossing |r| = k0/4 is r = +-1; k0 = 1e306 overflows the
# exponents below T = 1e-3, and T = 1e-310 overflows them at k0 = 1
_EDGES = {
    "k0": (-4.0, 0.0, 1.0, 4.0, 1e306),
    "r": (-1.0, 0.0, 1.0, 1.5),
    "T": (0.0, 1e-310, 1e-3, 0.5),
    "theta": (0.0, math.pi / 3.0, math.pi),
    "phi": (0.0, 1.1),
}
_KINDS = (float, np.float64, np.float32, np.array)  # how a fixed value is given


@st.composite
def _small_sweeps(draw):
    """(axes, fixed, quantities) of a sweep of one or two short axes, any
    mix of quantities in any order, and every other parameter fixed, as a
    Python float, a numpy scalar or a 0-d array."""
    quantities = draw(st.permutations(sweep_mod.QUANTITY_NAMES))[:draw(st.integers(1, 6))]
    names = draw(st.lists(st.sampled_from(sweep_mod.SWEEPABLE), min_size=1, max_size=2,
                          unique=True))
    if "theta" in names and not set(quantities) & {"F_o", "F_e", "F_a"}:
        quantities = (*quantities, "F_e")
    axes = []
    for name in names:
        low = st.floats(0.0, 10.0) if name == "T" else st.floats(-10.0, 10.0)
        lo = draw(st.one_of(st.sampled_from(_EDGES[name]), low))
        span = draw(st.one_of(st.sampled_from((1.0, 2.0, 8.0)), st.floats(1e-3, 1e3)))
        hi = lo + span * max(1.0, abs(lo) / 1e3)  # above lo where lo is huge
        axes.append(sweep_mod.Axis(name, lo, hi, draw(st.integers(2, 7))))
    fixed = {}
    for name in sweep_mod.PARAMETER_NAMES:
        if name not in names:
            value = draw(st.one_of(st.sampled_from(_EDGES[name]), st.floats(0.0, 10.0)))
            kinds = _KINDS if abs(value) < 1e38 else (float, np.float64, np.array)  # float32's range
            fixed[name] = draw(st.sampled_from(kinds))(value)
    return tuple(axes), fixed, tuple(quantities)


def _routed(spec, on_floats):
    """run_sweep's table of ``spec`` on Python floats or on arrays, or the
    DomainError's message."""
    with mock.patch.object(sweep_mod, "_on_floats", lambda size: on_floats):
        try:
            return sweep_mod.run_sweep(spec)
        except DomainError as exc:
            return str(exc)


@PROPERTY
@given(_small_sweeps())
@example(((sweep_mod.Axis("k0", 1.0, 1e306, 4), sweep_mod.Axis("T", 1e-3, 1.0, 3)),
          {"r": 0.0}, ("Tc", "C")))  # the first bad cell is the last k0's first T
@example(((sweep_mod.Axis("T", 0.0, 1.0, 3), sweep_mod.Axis("theta", 0.0, math.pi, 3)),
          {"k0": np.float64(4.0), "r": np.array(1.5), "phi": np.float32(1.1)},
          ("C", "Tc", "F_o", "F_e", "F_a", "populations")))  # F_o absent at T = 0, theta = 0
@example(((sweep_mod.Axis("r", -1.0, 1.0, 3),), {"k0": 4.0, "T": 0.0, "theta": 1.0, "phi": 0.0},
          ("F_a", "C")))  # the crossing at T = 0
@example(((sweep_mod.Axis("T", 0.05, 2.0, 5), sweep_mod.Axis("r", 0.0, 4.0, 7)),
          {"k0": 4.0, "theta": 1.0, "phi": 2.0}, ("F_o", "F_e", "F_a")))  # fidelity-map's shape
@example(((sweep_mod.Axis("theta", 0.0, math.pi, 5), sweep_mod.Axis("T", 0.0, 2.0, 4)),
          {"k0": 4.0, "r": 1.5, "theta": 1.0, "phi": 0.3},
          ("F_e", "populations", "F_o")))  # theta outer, overriding a fixed theta
@example(((sweep_mod.Axis("r", 0.0, 2.0, 4), sweep_mod.Axis("theta", -3.0, 3.0, 7)),
          {"k0": 4.0, "T": 0.5, "phi": 0.3}, ("F_a", "F_o", "C")))  # theta inner
def test_a_small_grid_on_python_floats_writes_the_bytes_of_its_arrays(sweep):
    # forced cell by cell onto Python floats, and then onto arrays, the
    # same spec writes the same CSV and JSON bytes, or
    # raises the same DomainError, which names the same first bad cell
    spec = sweep_mod.SweepSpec(*sweep)
    cells, arrays = _routed(spec, True), _routed(spec, False)
    if isinstance(cells, str) or isinstance(arrays, str):
        assert cells == arrays
        return
    assert all(type(x) is float for column in cells.values() for x in column)
    assert all(isinstance(column, np.ndarray) for column in arrays.values())
    for fmt in (sweep_mod.iter_csv, sweep_mod.iter_json):
        assert "".join(fmt(cells)) == "".join(fmt(arrays))


_STEP_SPECS = {
    "fixed theta": ((sweep_mod.Axis("T", 0.0, 2.0, 5), sweep_mod.Axis("r", 0.0, 4.0, 4)),
                    {"k0": 4.0, "theta": 1.0, "phi": 2.0}),
    "theta axis": ((sweep_mod.Axis("T", 0.0, 2.0, 5), sweep_mod.Axis("theta", 0.0, 3.0, 4)),
                   {"k0": 4.0, "r": 1.0, "theta": 1.0, "phi": 2.0}),
}


@pytest.mark.parametrize("on_floats", [True, False], ids=["floats", "arrays"])
@pytest.mark.parametrize("axes, fixed", _STEP_SPECS.values(), ids=_STEP_SPECS)
def test_an_evaluation_step_builds_its_thermal_elements_once(axes, fixed, on_floats):
    # F_o, F_e, F_a and the populations share one build of the elements per
    # step (a cell on Python floats, a block of arrays), and teleport builds
    # none of its own; the fidelities read theta alone, so no input state
    spec = sweep_mod.SweepSpec(axes, fixed, ("F_o", "F_e", "F_a", "populations"))
    steps = 20 if on_floats else 1
    with mock.patch.object(sweep_mod, "thermal_elements", wraps=thermal_elements) as built, \
            mock.patch.object(teleport_mod, "thermal_elements", wraps=thermal_elements) as own, \
            mock.patch.object(teleport_mod, "InputState", wraps=InputState) as states:
        table = _routed(spec, on_floats)
    assert isinstance(table["F_a"], list) == on_floats
    assert (built.call_count, own.call_count) == (steps, 0)
    assert states.call_count == 0

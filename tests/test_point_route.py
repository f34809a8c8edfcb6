"""Property tests: a point of Python floats takes the math route of each
guard, and that route has the bits of the numpy route.

For the Boltzmann elements, the concurrences, the populations and Tc, a
call on Python floats must give Python floats with the same hex bits as the
call on one-element arrays, signed zeros included; where one raises, both
raise DomainError with the same message, non-finite inputs included. The
draws lean on the edges: subnormal couplings and temperatures, fields at
the level crossing |r| = k0/4, Boltzmann exponents near +-709 (where exp
overflows or underflows) and exponents that lie more than 1.8e308 apart
(where the shifted exponent is -inf). Examples are derandomized, so every
run draws the same ones.

Inputs narrower than float64, or Python ints, are widened to float64 first,
so they give the bits of the float64 call at the widened values.
"""

import math
import sys

import numpy as np
from hypothesis import example, given, settings
import pytest
from hypothesis import strategies as st

from qdot.entanglement import critical_temperature, ground_state_concurrence, model_concurrence
from qdot.model import DomainError, DotParams, thermal_elements
from qdot.teleport import InputState, average_fidelity_closed_form, subspace_fidelities

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=400)

_ANY = st.floats(allow_nan=False, allow_infinity=False)
_TINY = st.floats(-1e-300, 1e-300, allow_nan=False)  # subnormals included
_SIGN = st.sampled_from((-1.0, 1.0))
_MAX = sys.float_info.max


@st.composite
def _points(draw):
    """(k0, r, T) as Python floats, drawn from one of several edge regimes."""
    regime = draw(st.sampled_from(("any", "tiny", "crossing", "exp", "shift")))
    T = draw(st.one_of(st.floats(0.0, 1e308), _TINY, st.sampled_from((0.0, -0.0, -1.0))))
    if regime == "any":  # non-finite values too: both routes refuse them alike
        wild = st.one_of(_ANY, st.sampled_from((math.nan, math.inf, -math.inf)))
        return draw(wild), draw(wild), draw(st.one_of(st.just(T), wild))
    if regime == "tiny":
        return draw(_TINY), draw(_TINY), draw(st.one_of(_TINY, st.floats(0.0, 10.0)))
    if regime == "crossing":  # |r| at k0/4, or a few ulps off it
        k0 = draw(st.one_of(_ANY, _TINY))
        r = k0 / 4.0
        for _ in range(draw(st.integers(0, 3))):
            r = math.nextafter(r, draw(st.sampled_from((math.inf, -math.inf))))
        return k0, draw(_SIGN) * r, T
    T = draw(st.one_of(st.floats(1e-300, 1e300), _TINY.filter(lambda t: t > 0)))
    if regime == "exp":  # an exponent, or a gap between two, near 709-745
        gap = draw(st.floats(700.0, 750.0))
        k0 = draw(_SIGN) * draw(st.sampled_from((0.0, 1.0, 4.0 * gap, 16.0 / 3.0 * gap))) * T
        r = draw(_SIGN) * draw(st.sampled_from((0.0, gap / 2.0, gap))) * T
        return k0, r, T
    # shift: a gap 2 r/T or 4 k0/16T past the float range, its exponent at -inf
    k0 = draw(_SIGN) * draw(st.floats(0.0, _MAX)) * min(T, 1.0)
    r = draw(_SIGN) * draw(st.floats(8e307, _MAX)) * min(T, 1.0)
    return k0, r, T


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


def _populations(e):
    return e.u / e.big_z, e.w / e.big_z, e.v / e.big_z


def _same_route(k0, r, T) -> None:
    """Every routed quantity at (k0, r, T): floats against one-element arrays."""
    arrays = tuple(np.array([x]) for x in (k0, r, T))
    point, point_error = _run(DotParams, k0, r, T)
    stack, stack_error = _run(DotParams, *arrays)
    assert point_error == stack_error
    if point_error is None:
        for fn in (thermal_elements, model_concurrence):
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
    want, want_error = _run(ground_state_concurrence, k0, r)
    got, got_error = _run(ground_state_concurrence, *arrays[:2])
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
@given(_points())
@example((0.0, 0.0, 0.5))  # every exponent a zero of either sign: the shift m is -0.0
@example((-0.0, -0.0, 5e-324))
@example((4.0, 1.0, 0.0))  # T = 0 at the crossing: values, singlet and |11> tied
@example((4.0, 1.0, -0.0))
@example((-4.0, 0.0, 0.0))  # three triplet levels tied
@example((3 * 5e-324, 5e-324, 0.0))  # subnormal couplings at T = 0: 4r > k0
@example((1.7e308, 4.25e307, 0.0))  # 16 r overflows at T = 0; 4r = k0, a tie
@example((1.0, 0.0, 1e-310))  # the exponents overflow
@example((1e308, 0.0, 1e-300))
@example((1e308, 0.0, 1e10))  # 3 k0 overflows where 3 k0/16T does not
@example((0.0, 1e308, 1.0))  # 16 r overflows; a_v - m is -inf
@example((1.7e308, -1.7e308, 1.0))
@example((2836.0, 0.0, 1.0))  # exp(-4 k0/16T) near its underflow
@example((4.0, 1.0, -1.0))
@example((5e-324, 1.25e-324, 5e-324))  # subnormal k0, r and T
@example((-5e-324, 0.0, 5e-324))
@example((1e-300, 2.5e-301, 1e-320))  # at the crossing, T subnormal
def test_a_float_point_has_the_bits_of_its_one_element_array(point):
    _same_route(*point)


def _quantities(k0, r, T, theta, phi):
    """Every closed form at one point or over one grid, element by element."""
    p = DotParams(k0, r, T)
    e = thermal_elements(p)
    return [e.u, e.v, e.w, e.y, e.big_z, model_concurrence(p),
            *subspace_fidelities(InputState(theta, phi), p), average_fidelity_closed_form(p),
            critical_temperature(k0), ground_state_concurrence(k0, r)]


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

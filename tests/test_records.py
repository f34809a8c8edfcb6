"""The contract of the package's eight records: construction by position and
by keyword with their defaults, the repr text, ``==``, ``hash``, pickling and
deep copies, and that no field can be assigned or deleted. Every record
compares its arrays by value, those of a grid's parameters included."""

import copy
import pickle

import numpy as np
import pytest

from qdot import (
    Axis, CheckResult, ConcurrenceResult, DotParams, InputState, MonteCarloFidelity, SweepSpec,
    ThermalElements,
)

AXIS = Axis("r", 0.0, 2.0, 5)
LAMBDAS = np.array([1.0, 0.5, 0.0, 0.0])

K0S = np.array([4.0, 2.0])
THETAS = np.array([1.0, 2.0])
WEIGHTS = np.array([1.0, 0.5])

# case -> (type, field names, fields, fields of an unequal record, repr); a
# case named for its type holds what one point holds, an "-arrays" case a grid
RECORDS = {case[0].__name__: case for case in [
    (DotParams, ("k0", "r", "T"), (4.0, 1.0, 0.5), (4.0, 1.0, 0.25),
     "DotParams(k0=4.0, r=1.0, T=0.5)"),
    (ThermalElements, ("u", "v", "w", "y", "big_z", "log_scale"),
     (1.0, 0.5, 0.25, -0.125, 2.0, 3.0), (1.0, 0.5, 0.25, 0.125, 2.0, 3.0),
     "ThermalElements(u=1.0, v=0.5, w=0.25, y=-0.125, big_z=2.0, log_scale=3.0)"),
    (ConcurrenceResult, ("value", "lambdas"), (0.5, LAMBDAS), (0.5, LAMBDAS[::-1]),
     f"ConcurrenceResult(value=0.5, lambdas={LAMBDAS!r})"),
    (Axis, ("name", "lo", "hi", "steps"), ("r", 0.0, 2.0, 5), ("r", 0.0, 2.0, 6),
     "Axis(name='r', lo=0.0, hi=2.0, steps=5)"),
    (SweepSpec, ("axes", "fixed", "quantities"), ((AXIS,), {"k0": 4.0, "T": 0.5}, ("C",)),
     ((AXIS,), {"k0": 4.0, "T": 0.5}, ("populations",)),
     "SweepSpec(axes=(Axis(name='r', lo=0.0, hi=2.0, steps=5),), "
     "fixed={'k0': 4.0, 'T': 0.5}, quantities=('C',))"),
    (InputState, ("theta", "phi"), (1.0, 0.5), (1.0, -0.5), "InputState(theta=1.0, phi=0.5)"),
    (MonteCarloFidelity, ("value", "stderr", "samples", "seed"), (0.75, 1e-4, 1000, 7),
     (0.75, 1e-4, 1000, 8), "MonteCarloFidelity(value=0.75, stderr=0.0001, samples=1000, seed=7)"),
    (CheckResult, ("name", "passed", "max_dev", "threshold", "detail"),
     ("check", True, 1e-16, 1e-10, "3 points"), ("check", False, 1e-16, 1e-10, "3 points"),
     "CheckResult(name='check', passed=True, max_dev=1e-16, threshold=1e-10, detail='3 points')"),
]}
RECORDS.update({
    "DotParams-arrays": (DotParams, ("k0", "r", "T"), (K0S, 1.0, 0.5), (K0S[::-1], 1.0, 0.5),
                         f"DotParams(k0={K0S!r}, r=1.0, T=0.5)"),
    "InputState-arrays": (InputState, ("theta", "phi"), (THETAS, 0.5), (THETAS, -0.5),
                          f"InputState(theta={THETAS!r}, phi=0.5)"),
    "ThermalElements-arrays": (
        ThermalElements, ("u", "v", "w", "y", "big_z", "log_scale"),
        (WEIGHTS, 0.5, 0.25, -0.125, 2.0, 3.0), (WEIGHTS[:1], 0.5, 0.25, -0.125, 2.0, 3.0),
        f"ThermalElements(u={WEIGHTS!r}, v=0.5, w=0.25, y=-0.125, big_z=2.0, log_scale=3.0)"),
})
# Cases that hold an array or a dict have no hash: the key is the case, since
# a DotParams of floats hashes and one of arrays does not.
UNHASHABLE = {"ConcurrenceResult", "SweepSpec",
              "DotParams-arrays", "InputState-arrays", "ThermalElements-arrays"}


def copied(values):
    """The same values, each array a distinct copy."""
    return tuple(v.copy() if isinstance(v, np.ndarray) else v for v in values)


def same(x, y) -> bool:
    return np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y and type(x) is type(y)


@pytest.fixture(params=list(RECORDS))
def case_name(request):
    return request.param


@pytest.fixture
def case(case_name):
    return RECORDS[case_name]


def test_positional_and_keyword_construction(case):
    cls, names, values, _, _ = case
    for record in (cls(*values), cls(**dict(zip(names, values)))):
        assert type(record) is cls
        for name, value in zip(names, values):
            assert same(getattr(record, name), value), name


def test_defaults():
    assert InputState(1.0).phi == 0.0
    assert InputState(1.0) == InputState(1.0, 0.0)
    spec = SweepSpec((Axis("k0", 0.0, 4.0, 3),), quantities=("Tc",))
    assert spec.fixed == {}
    assert SweepSpec((AXIS,), {"k0": 4.0, "T": 0.5}).quantities == ("C",)
    assert CheckResult("check", True, 0.0, 1.0).detail == ""


def test_repr(case):
    cls, _, values, _, text = case
    assert repr(cls(*values)) == text


def test_equality(case):
    cls, _, values, other, _ = case
    record = cls(*values)
    assert record == cls(*copied(values))
    assert not record != cls(*copied(values))
    assert record != cls(*other)
    assert record != values
    assert (record == object()) is False


def test_hash(case_name, case):
    cls, _, values, _, _ = case
    record = cls(*values)
    if case_name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values)) == hash(values)


def test_equal_records_of_widened_inputs_hash_alike():
    assert DotParams(4, 1, 0.5) == DotParams(4.0, 1.0, 0.5)
    assert hash(DotParams(4, 1, 0.5)) == hash(DotParams(4.0, 1.0, 0.5))
    assert hash(InputState(1)) == hash(InputState(1.0, 0.0))


def test_pickle_round_trip(case):
    cls, _, values, _, _ = case
    record = cls(*values)
    for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(again) is cls and again == record


def test_fields_are_frozen(case):
    cls, names, values, _, _ = case
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    for name, value in zip(names, values):
        assert same(getattr(record, name), value), name

"""Boundary checks shared by the DRAM parameter sets.

Every numeric field of :class:`DramGeometry`, :class:`DramTimingParameters`
and :class:`DramEnergyParameters` refuses, at construction, a value no
device has: a bool (an ``int`` to Python), a non-finite number, and a value
of the wrong type.  A NaN timing would otherwise pass ``value <= 0`` and an
infinite data rate would price a burst at 0 ns.
"""

import dataclasses

import pytest

from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters

CLASSES = (DramGeometry, DramTimingParameters, DramEnergyParameters)


def _fields(kind):
    """(class, field) pairs whose field annotation is ``kind``."""
    return [
        pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
        for cls in CLASSES
        for f in dataclasses.fields(cls)
        if f.type == kind
    ]


INTEGRAL = _fields("int")
REAL = _fields("float")


def test_every_numeric_field_is_covered():
    numeric = {(p.values[0], p.values[1]) for p in INTEGRAL + REAL}
    named = {(cls, f.name) for cls in CLASSES for f in dataclasses.fields(cls)}
    assert named - numeric == {
        (DramTimingParameters, "name"),
        (DramEnergyParameters, "name"),
    }


@pytest.mark.parametrize("cls, field", INTEGRAL + REAL)
def test_a_bool_is_refused(cls, field):
    with pytest.raises(ValueError):
        cls(**{field: True})


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("cls, field", REAL)
def test_a_non_finite_value_is_refused(cls, field, value):
    with pytest.raises(ValueError):
        cls(**{field: value})


@pytest.mark.parametrize("cls, field", INTEGRAL)
def test_an_integral_field_refuses_a_float(cls, field):
    with pytest.raises(TypeError):
        cls(**{field: 2.0})


@pytest.mark.parametrize(
    "cls, field", [p for p in INTEGRAL + REAL if p.values[0] is DramEnergyParameters]
)
def test_an_energy_parameter_refuses_a_non_positive_value_or_a_string(cls, field):
    with pytest.raises(ValueError):
        cls(**{field: -1})
    with pytest.raises(TypeError):
        cls(**{field: "1"})


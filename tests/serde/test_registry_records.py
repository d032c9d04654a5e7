"""Tests for the user-type registry and the fixed-record fast path."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.pdes.packer import pack, unpack
from repro.serde import RecordSpec, register, registered
from repro.serde.registry import clear_registry


@pytest.fixture(autouse=True)
def fresh_registry():
    clear_registry()
    yield
    clear_registry()


def test_dataclass_roundtrip():
    @registered(1)
    @dataclass
    class Update:
        vertex: int
        label: int

    u = Update(7, 3)
    out = unpack(pack(u))
    assert isinstance(out, Update)
    assert out == u


def test_custom_converters():
    class Point:
        def __init__(self, x, y):
            self.x, self.y = x, y

        def __eq__(self, other):
            return (self.x, self.y) == (other.x, other.y)

    register(Point, 2, to_state=lambda p: (p.x, p.y), from_state=lambda s: Point(*s))
    assert unpack(pack(Point(1.5, -2.0))) == Point(1.5, -2.0)


def test_nested_registered_types():
    @registered(3)
    @dataclass
    class Inner:
        v: int

    @registered(4)
    @dataclass
    class Outer:
        items: list

    out = unpack(pack(Outer([Inner(1), Inner(2)])))
    assert out.items == [Inner(1), Inner(2)]


def test_conflicting_type_id_raises():
    @registered(5)
    @dataclass
    class A:
        x: int

    with pytest.raises(ValueError):

        @registered(5)
        @dataclass
        class B:
            y: int


def test_double_registration_same_class_is_noop():
    @dataclass
    class A:
        x: int

    register(A, 6)
    register(A, 6)  # no error


def test_non_dataclass_requires_converters():
    class Plain:
        pass

    with pytest.raises(ValueError):
        register(Plain, 7)


# ----------------------------------------------------------- record specs
def test_record_spec_basics():
    spec = RecordSpec("labels", [("vertex", "u8"), ("label", "u8")])
    assert spec.itemsize == 16
    assert spec.field_names == ("vertex", "label")
    batch = spec.zeros(4)
    assert batch.shape == (4,)
    assert spec.nbytes(batch) == 64


def test_record_spec_build():
    spec = RecordSpec("spmv", [("row", "u8"), ("val", "f8")])
    batch = spec.build(row=np.arange(3, dtype="u8"), val=np.ones(3))
    assert list(batch["row"]) == [0, 1, 2]
    assert list(batch["val"]) == [1.0, 1.0, 1.0]


def test_record_spec_build_validates_fields():
    spec = RecordSpec("x", [("a", "u4")])
    with pytest.raises(ValueError):
        spec.build(b=np.zeros(1, dtype="u4"))
    with pytest.raises(ValueError):
        spec.build()


def test_record_spec_build_validates_lengths():
    spec = RecordSpec("x", [("a", "u4"), ("b", "u4")])
    with pytest.raises(ValueError):
        spec.build(a=np.zeros(2, dtype="u4"), b=np.zeros(3, dtype="u4"))


def test_record_spec_validate_dtype():
    spec = RecordSpec("x", [("a", "u4")])
    with pytest.raises(TypeError):
        spec.validate(np.zeros(3, dtype="f8"))


def test_record_spec_rejects_object_fields():
    with pytest.raises(ValueError):
        RecordSpec("bad", [("o", "O")])


def test_record_spec_equality_hash():
    a = RecordSpec("x", [("a", "u4")])
    b = RecordSpec("x", [("a", "u4")])
    c = RecordSpec("y", [("a", "u4")])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_record_batches_serialisable():
    spec = RecordSpec("m", [("dest", "u4"), ("val", "f4")])
    batch = spec.build(
        dest=np.array([1, 2], dtype="u4"), val=np.array([0.5, 1.5], dtype="f4")
    )
    out = unpack(pack(batch))
    assert np.array_equal(out, batch)

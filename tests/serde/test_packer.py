"""Unit + property tests for the binary serializer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pdes.packer import pack, unpack
from repro.serde import SerdeError, packed_size


SIMPLE_CASES = [
    None,
    True,
    False,
    0,
    1,
    -1,
    2**40,
    -(2**70),
    3.14159,
    float("inf"),
    b"",
    b"\x00\xff" * 10,
    "",
    "héllo wörld",
    [],
    [1, "two", 3.0, None],
    (1, 2),
    {"a": 1, "b": [2, 3]},
    {1: {2: {3: "deep"}}},
    set(),
    {1, 2, 3},
    [[[]]],
]


@pytest.mark.parametrize("obj", SIMPLE_CASES, ids=repr)
def test_roundtrip_simple(obj):
    assert unpack(pack(obj)) == obj


def test_roundtrip_preserves_types():
    packed = pack((1, [2], "3"))
    out = unpack(packed)
    assert isinstance(out, tuple)
    assert isinstance(out[0], int)
    assert isinstance(out[1], list)
    assert isinstance(out[2], str)


def test_bool_not_confused_with_int():
    assert unpack(pack(True)) is True
    assert unpack(pack(1)) == 1
    assert unpack(pack(1)) is not True or unpack(pack(1)) == 1


def test_ndarray_roundtrip():
    arr = np.arange(12, dtype=np.int32).reshape(3, 4)
    out = unpack(pack(arr))
    assert out.dtype == arr.dtype
    assert out.shape == arr.shape
    assert np.array_equal(out, arr)


def test_structured_array_roundtrip():
    dt = np.dtype([("v", "u8"), ("w", "f4")])
    arr = np.zeros(5, dtype=dt)
    arr["v"] = np.arange(5)
    arr["w"] = 0.5
    out = unpack(pack(arr))
    assert out.dtype == dt
    assert np.array_equal(out, arr)


def test_numpy_scalar_roundtrip():
    for val in (np.uint64(2**63), np.float32(1.5), np.int8(-4)):
        out = unpack(pack(val))
        assert out == val
        assert out.dtype == val.dtype


def test_packed_size_matches_len():
    for obj in SIMPLE_CASES:
        assert packed_size(obj) == len(pack(obj))


def test_packed_size_is_reentrant_through_to_state():
    # A length-prefixed state: to_state itself measures its field.  With a
    # shared scratch buffer the inner call wiped what the outer one had
    # written so far (20 instead of 23 here).
    from repro.serde import register
    from repro.serde.registry import clear_registry

    class P:
        def __init__(self, x):
            self.x = x

    register(P, 901, lambda p: (p.x, packed_size(p.x)), lambda s: P(s[0]))
    try:
        obj = ["abc", P("hello"), 5]
        assert len(pack(obj)) == 23
        assert packed_size(obj) == 23
    finally:
        clear_registry()


def test_small_ints_are_compact():
    assert packed_size(0) == 2  # tag + 1 varint byte
    assert packed_size(63) == 2
    assert packed_size(2**40) < 9


def test_object_dtype_rejected():
    arr = np.array([object()], dtype=object)
    with pytest.raises(SerdeError):
        pack(arr)


def test_unregistered_custom_type_rejected():
    class Foo:
        pass

    with pytest.raises(SerdeError):
        pack(Foo())


def test_trailing_bytes_rejected():
    with pytest.raises(SerdeError):
        unpack(pack(1) + b"\x00")


def test_truncated_data_rejected():
    data = pack([1, 2, 3])
    with pytest.raises(SerdeError):
        unpack(data[:-1])


def test_deterministic_encoding():
    obj = {"x": [1, 2, {3, 4}], "y": (None, True)}
    assert pack(obj) == pack(obj)


# ------------------------------------------------------- property tests
json_like = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.binary(max_size=64)
    | st.text(max_size=64),
    lambda children: st.lists(children, max_size=8)
    | st.dictionaries(st.text(max_size=8), children, max_size=8),
    max_leaves=24,
)


@given(json_like)
def test_roundtrip_property(obj):
    assert unpack(pack(obj)) == obj


@given(st.integers())
def test_int_roundtrip_property(n):
    assert unpack(pack(n)) == n


@given(
    st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=32),
    st.sampled_from(["u8", "i8", "u4", "f8"]),
)
def test_array_roundtrip_property(values, dtype):
    values = [v % 2**31 for v in values] if dtype == "u4" else values
    arr = np.array(values, dtype=dtype)
    out = unpack(pack(arr))
    assert np.array_equal(out, arr)
    assert out.dtype == arr.dtype

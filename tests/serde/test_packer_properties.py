"""Seeded property-based round-trip tests for the serde layer.

Random record specs and payloads through ``pack``/``unpack`` and
``RecordSpec``: arbitrary field dtypes, empty batches, varint
boundaries, and large (max-size) payloads.  ``derandomize=True`` keeps
the generated examples a pure function of the test code, so the suite
is reproducible run-to-run (failures shrink to stable seeds).
"""

import enum
import re
from dataclasses import dataclass
from typing import Any

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pdes import packer
from repro.pdes.packer import pack, unpack
from repro.serde import RecordSpec, SerdeError, packed_size, register, sizing
from repro.serde.registry import clear_registry

SEEDED = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Field dtypes the record layer supports (fixed-width only).
FIELD_DTYPES = ["u1", "u2", "u4", "u8", "i1", "i2", "i4", "i8", "f4", "f8"]


@st.composite
def record_specs(draw):
    names = draw(
        st.lists(
            st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    fields = [(name, draw(st.sampled_from(FIELD_DTYPES))) for name in names]
    return RecordSpec(draw(st.from_regex(r"[a-z]{1,8}", fullmatch=True)), fields)


@st.composite
def spec_and_batch(draw):
    spec = draw(record_specs())
    n = draw(st.integers(0, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = spec.empty(n)
    for name in spec.field_names:
        dt = batch.dtype[name]
        if dt.kind == "f":
            batch[name] = rng.standard_normal(n).astype(dt)
        else:
            info = np.iinfo(dt)
            batch[name] = rng.integers(
                info.min, info.max, size=n, endpoint=True, dtype=dt
            )
    return spec, batch


@given(spec_and_batch())
@SEEDED
def test_random_record_batches_roundtrip(params):
    spec, batch = params
    out = unpack(pack(batch))
    assert out.dtype == spec.dtype
    assert out.shape == batch.shape
    assert out.tobytes() == batch.tobytes()
    assert packed_size(batch) == len(pack(batch))


@given(record_specs())
@SEEDED
def test_empty_batches_roundtrip(spec):
    for make in (spec.empty, spec.zeros):
        batch = make(0)
        out = unpack(pack(batch))
        assert out.dtype == spec.dtype
        assert out.shape == (0,)
    assert spec.nbytes(spec.zeros(0)) == 0


@given(record_specs())
@SEEDED
def test_build_matches_columns(spec):
    n = 7
    columns = {
        name: np.arange(n).astype(spec.dtype[name])
        for name in spec.field_names
    }
    batch = spec.build(**columns)
    out = unpack(pack(batch))
    for name in spec.field_names:
        assert np.array_equal(out[name], columns[name])


# Recursive payloads covering every container the packer supports.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.binary(max_size=64),
    st.text(max_size=32),
)
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
        st.sets(_scalars, max_size=5),
        st.frozensets(_scalars, max_size=5),
    ),
    max_leaves=20,
)


@given(_payloads)
@SEEDED
def test_arbitrary_payloads_roundtrip_with_exact_size(obj):
    data = pack(obj)
    assert unpack(data) == obj
    assert packed_size(obj) == len(data)
    assert pack(obj) == data  # deterministic encoding


@given(st.integers(min_value=0, max_value=11))
@SEEDED
def test_varint_boundaries_roundtrip(k):
    # 2**(7k) is exactly where the varint grows another byte; zigzag
    # doubles magnitudes, so probe both signs around every boundary.
    for delta in (-1, 0, 1):
        for sign in (1, -1):
            value = sign * (2 ** (7 * k) + delta)
            assert unpack(pack(value)) == value


def test_max_size_payloads_roundtrip():
    blob = bytes(range(256)) * 1024  # 256 KiB
    assert unpack(pack(blob)) == blob
    assert packed_size(blob) == len(pack(blob))

    text = "x" * (1 << 18)
    assert unpack(pack(text)) == text

    arr = np.random.default_rng(0).standard_normal(1 << 15)
    out = unpack(pack(arr))
    assert out.tobytes() == arr.tobytes()
    # Size accounting stays byte-accurate at scale: the payload body
    # dominates and the framing overhead is tiny.
    assert abs(packed_size(arr) - arr.nbytes) < 64


# ------------------------------------------------- reference encoding
# The optimised packer (dispatch tables, batched APIs) must emit the
# exact bytes of the pre-optimisation elif-chain encoder, frozen in
# ``reference_packer.py``.

from repro.pdes.packer import pack_many, unpack_many  # noqa: E402

from . import reference_packer as reference  # noqa: E402


@given(_payloads)
@SEEDED
def test_pack_matches_reference_encoding(obj):
    assert pack(obj) == reference.pack(obj)


@given(spec_and_batch())
@SEEDED
def test_record_batches_match_reference_encoding(params):
    _, batch = params
    assert pack(batch) == reference.pack(batch)


@given(st.lists(_payloads, max_size=8))
@SEEDED
def test_pack_many_is_concatenation_of_reference_singles(objs):
    blob = pack_many(objs)
    assert blob == b"".join(reference.pack(obj) for obj in objs)
    assert unpack_many(blob) == [reference.unpack(reference.pack(o)) for o in objs]


@given(st.lists(st.integers(min_value=-(2**80), max_value=2**80), max_size=32))
@SEEDED
def test_packed_size_many_matches_reference_per_element(values):
    from repro.serde import packed_size_many

    sizes = packed_size_many(values)
    assert sizes.dtype == np.int64 and sizes.shape == (len(values),)
    assert sizes.tolist() == [len(reference.pack(v)) for v in values]


@given(st.integers(min_value=0, max_value=9))
@SEEDED
def test_packed_size_many_varint_boundaries(k):
    # The vectorized zigzag/size kernel must agree with the scalar
    # packer at every byte-growth boundary and at the int64 extremes
    # (where the fast path's ``v >> 63`` arithmetic shift matters).
    probes = []
    for delta in (-1, 0, 1):
        for sign in (1, -1):
            probes.append(sign * (2 ** (7 * k) + delta))
    probes += [0, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1]
    from repro.serde import packed_size_many

    assert packed_size_many(probes).tolist() == [
        len(reference.pack(v)) for v in probes
    ]


@given(st.lists(_payloads, max_size=12))
@SEEDED
def test_packed_size_many_generic_fallback_matches_reference(objs):
    from repro.serde import packed_size_many

    assert packed_size_many(objs).tolist() == [
        len(reference.pack(o)) for o in objs
    ]


def test_packed_size_many_excludes_bools_from_int_fast_path():
    # bool is an int subclass but packs differently; the fast path's
    # ``type(o) is int`` check must route mixed lists to the fallback.
    from repro.serde import packed_size_many

    mixed = [True, False, 1, 0, np.int64(7)]
    assert packed_size_many(mixed).tolist() == [
        len(reference.pack(o)) for o in mixed
    ]
    assert packed_size_many([]).tolist() == []


@given(spec_and_batch(), st.integers(1, 4))
@SEEDED
def test_pack_many_record_stream_matches_reference(params, copies):
    _, batch = params
    objs = [batch] * copies + [("hdr", len(batch))]
    blob = pack_many(objs)
    assert blob == b"".join(reference.pack(o) for o in objs)
    out = unpack_many(blob)
    assert len(out) == copies + 1
    for got in out[:copies]:
        assert got.tobytes() == batch.tobytes()
        assert got.dtype == batch.dtype
    assert out[-1] == ("hdr", len(batch))


# ------------------------------------------------- every row of the table
# ``packed_size`` walks the size column and never packs, so each row --
# and each branch of the fallback -- is held to the frozen reference
# encoder's length, alone and nested inside every container.

@dataclass(frozen=True)
class _Point:
    x: Any
    label: str


class _SubArray(np.ndarray):
    pass


class _Colour(enum.IntEnum):
    RED = 1


@pytest.fixture(scope="module", autouse=True)
def _point_registered():
    register(_Point, 900)
    yield
    clear_registry()


_np_scalars = st.one_of(
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.floats(allow_nan=False).map(np.float64),
    st.booleans().map(np.bool_),
    st.text(max_size=6).map(np.str_),
    st.binary(max_size=6).map(np.bytes_),
    st.integers(-(2**40), 2**40).map(lambda t: np.datetime64(t, "s")),
)

_ARRAY_DTYPES = [
    "u1", "<i4", ">i4", "f8", "c16", "?", "S3", "<U2", "M8[s]", "m8[ns]",
    [("v", "<u4"), ("w", "<f8", (2,))],
    np.dtype([("a", "i1"), ("b", "i8")], align=True),
]


@st.composite
def _ndarrays(draw):
    dtype = np.dtype(draw(st.sampled_from(_ARRAY_DTYPES)))
    # max_size=3 includes () -- a 0-d array -- and 0 makes zero-size ones.
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    count = int(np.prod(shape, dtype=np.int64))
    raw = draw(st.binary(min_size=count * dtype.itemsize, max_size=count * dtype.itemsize))
    arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
    layout = draw(st.sampled_from(["c", "transposed", "strided", "fortran", "subclass"]))
    if layout == "transposed":
        arr = arr.T
    elif layout == "strided" and arr.ndim:
        arr = arr[::2]
    elif layout == "fortran":
        arr = np.asfortranarray(arr)
    elif layout == "subclass":
        arr = arr.view(_SubArray)
    return arr


_hashable_leaves = st.one_of(_scalars, _np_scalars)
_all_rows = st.recursive(
    st.one_of(_hashable_leaves, _ndarrays()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), inner, max_size=3),
        st.sets(_hashable_leaves, max_size=4),
        st.frozensets(_hashable_leaves, max_size=4),
        st.builds(_Point, inner, st.text(max_size=4)),
    ),
    max_leaves=12,
)


@given(_all_rows)
@settings(SEEDED, max_examples=150)
def test_packed_size_matches_reference_on_every_row(obj):
    data = reference.pack(obj)
    assert packed_size(obj) == len(data)
    assert pack(obj) == data


#: One hand-picked payload per row and per fallback branch, with the
#: varint-length and non-ASCII edges Hypothesis may not draw in 150 tries.
ROW_EXAMPLES = [
    None, True, False, 0, 63, 64, -64, -65, 2**63, -(2**200), 0.0, float("inf"),
    b"", b"x" * 127, b"x" * 128, bytes(20000),
    "", "a" * 127, "a" * 128, "h\u00e9llo", "\u00e9" * 64, "\U0001f600" * 40,
    [], list(range(200)), [[], [[1]], "two", 3.0],
    (), (1, "rpc", (2.5, None)),
    {}, {"k": 1, "tag": "put", "w": 0.5}, {i: str(i) for i in range(130)},
    set(), {1, 2, 2**40}, set(range(130)), frozenset(), frozenset({"a", (1, 2)}),
    np.arange(6, dtype="<i4").reshape(2, 3), np.arange(6.0).reshape(2, 3).T,
    np.array(7, dtype="u2"), np.empty((0, 3), dtype="f4"), np.arange(300)[::3],
    np.zeros(3, dtype=[("v", "<u4"), ("w", "<f8", (2,))]),
    np.array(["2020-01-01", "NaT"], dtype="M8[D]"),
    np.arange(4).view(_SubArray),
    np.int8(-4), np.uint64(2**63), np.float32(1.5), np.bool_(True),
    np.str_("h\u00e9"), np.bytes_(b"ab"), np.datetime64("2020-01-01T00:00", "m"),
    np.str_(""), np.bytes_(b""), np.void(b""),  # zero-width: tobytes() widens two
    np.zeros(1, dtype=[("v", "<u4"), ("w", "<f8")])[0],
    _Point(3, "p"), _Point([np.arange(3), {_Point(1, "in")}], "nested"),
]


@pytest.mark.parametrize("obj", ROW_EXAMPLES, ids=lambda o: type(o).__name__)
def test_row_examples_size_to_the_reference_encoding(obj):
    assert packed_size(obj) == len(reference.pack(obj))
    assert packed_size([obj, (obj,), {"k": obj}]) == len(
        reference.pack([obj, (obj,), {"k": obj}])
    )


def test_type_table_shape_and_example_coverage():
    table = sizing._SIZE_HANDLERS
    assert set(packer._PACK_HANDLERS) == set(table)
    for tp, size_fn in table.items():
        pack_fn = packer._PACK_HANDLERS[tp]  # the two columns, one per module
        assert callable(pack_fn) and callable(size_fn)
    # A row added to the table fails here until it gets an example above.
    assert set(table) <= {type(obj) for obj in ROW_EXAMPLES}


@pytest.mark.parametrize(
    "bad",
    [
        object(),
        _Colour.RED,
        np.array([object()], dtype=object),
        np.zeros(2, dtype=[("v", "<u4"), ("o", "O")]),
        [1, ("ok", {"k": object()})],
        {frozenset({_Colour.RED})},
        "lone surrogate \ud800",
    ],
    # An object's repr carries its address, which changes run to run.
    ids=lambda bad: "object()"
    if type(bad) is object
    else re.sub(r" at 0x[0-9a-f]+", "", repr(bad)),
)
def test_packed_size_raises_what_pack_raises(bad):
    with pytest.raises(Exception) as packed:
        pack(bad)
    with pytest.raises(Exception) as sized:
        packed_size(bad)
    assert sized.type is packed.type
    assert str(sized.value) == str(packed.value)
    if not isinstance(bad, str):
        assert packed.type is SerdeError

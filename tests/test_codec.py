"""Wire packing: array packers, one-value codecs and key/value blocks."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from hierpart import _codec

I64 = st.integers(-2**63, 2**63 - 1)


@given(x=I64)
def test_one_i64_unpacks_from_a_one_element_array(x):
    back = _codec.unpack_one_i64(_codec.pack_i64([x]))
    assert type(back) is int and back == x


@given(x=st.floats(width=64))
def test_one_f64_packs_like_a_one_element_array(x):
    # A weight travels as one value of a pack_kv_f64 message.
    data = _codec.pack_kv_f64(np.array([7]), np.array([x]))
    assert data == _codec.pack_kv([(7, _codec.pack_f64([x]))])
    _, back = _codec.unpack_kv_f64(data)
    assert back.tobytes() == _codec.pack_f64([x])  # sign of zero and NaN bits kept


def test_one_value_packers_take_numpy_scalars_and_ints():
    assert _codec.pack_kv_f64(np.array([1]), [np.float64(2.5)]) == \
        _codec.pack_kv([(1, _codec.pack_f64([2.5]))])
    assert _codec.pack_kv_f64([1], [4]) == \
        _codec.pack_kv([(1, _codec.pack_f64([4]))])


@given(values=st.lists(I64, max_size=20))
def test_array_and_iterator_inputs_pack_alike(values):
    want = _codec.pack_i64(list(values))
    assert _codec.pack_i64(iter(values)) == want
    assert _codec.pack_i64(np.array(values, dtype=np.int64)) == want
    floats = [float(v) for v in values]
    assert _codec.pack_f64(np.array(floats)) == _codec.pack_f64(iter(floats))


@given(pairs=st.lists(st.tuples(I64, st.binary(max_size=16)), max_size=10))
def test_kv_round_trip_gives_python_int_keys(pairs):
    back = _codec.unpack_kv(_codec.pack_kv(pairs))
    assert back == pairs
    assert all(type(k) is int and type(v) is bytes for k, v in back)

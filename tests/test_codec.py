"""Wire packing: array packers, weight columns, one-value codecs and
key/value blocks."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hierpart import _codec

I64 = st.integers(-2**63, 2**63 - 1)
# The largest span each offset width holds, and the width after it.
EDGES = [(2**8 - 1, 1), (2**8, 2), (2**16 - 1, 2), (2**16, 4),
         (2**32 - 1, 4), (2**32, 8), (2**64 - 1, 8)]


def assert_round_trip(values, shape=None):
    data = _codec.pack_i64(np.array(values, dtype=np.int64).reshape(
        shape or -1))
    back = _codec.unpack_i64(data)
    assert back.dtype == np.int64 and back.tolist() == list(values)
    return data


@given(values=st.lists(I64, max_size=40))
def test_i64_blocks_round_trip(values):
    assert_round_trip(values)


@given(base=I64, offsets=st.lists(st.integers(0, 2**64 - 1), max_size=12),
       edge=st.sampled_from(EDGES))
def test_i64_blocks_take_the_narrowest_width_of_their_span(base, offsets,
                                                           edge):
    span, width = edge
    lo = min(base, 2**63 - 1 - span)
    values = [lo, lo + span] + [lo + o % (span + 1) for o in offsets]
    data = assert_round_trip(values)
    # A width byte, the minimum as int64, then one offset per value.
    assert len(data) == 1 + 8 + width * len(values)
    assert data[0] == width


@pytest.mark.parametrize("values", [
    [], [0], [-2**63], [2**63 - 1], [-2**63, 2**63 - 1],
    [2**63 - 1, -2**63, 0, -1, 1], [5] * 7])
def test_i64_extremes_round_trip(values):
    data = assert_round_trip(values)
    assert (data == b"") == (values == [])


def test_two_dimensional_blocks_pack_row_by_row():
    rows = np.array([[7, -3, 2**40], [0, 9, -2**40]], dtype=np.int64)
    assert _codec.pack_i64(rows) == _codec.pack_i64(rows.reshape(-1))
    assert _codec.unpack_i64(_codec.pack_i64(rows)).reshape(2, 3).tolist() \
        == rows.tolist()
    assert_round_trip([], shape=(0, 3))


def test_an_unknown_width_is_refused():
    with pytest.raises(ValueError, match="width 3"):
        _codec.unpack_i64(b"\x03" + bytes(8) + bytes(3))


@given(x=I64)
def test_one_i64_unpacks_from_a_one_element_array(x):
    back = _codec.unpack_one_i64(_codec.pack_i64([x]))
    assert type(back) is int and back == x


def bit_patterns(values) -> list[int]:
    """Each float64's bits as a signed 64-bit integer."""
    return [struct.unpack("<q", struct.pack("<d", v))[0] for v in values]


def weight_block_length(values) -> int:
    """Exact size of a ``pack_weights`` block: nothing when empty, else a
    width byte, the minimum and one offset per value, in the narrowest
    width that holds the span of the bit patterns."""
    if not len(values):
        return 0
    bits = bit_patterns(values)
    span = max(bits) - min(bits)
    width = next(w for w in (1, 2, 4, 8) if span < 1 << 8 * w)
    return 9 + width * len(values)


def kv_f64_length(keys, values) -> int:
    """Exact size of a ``pack_kv_f64`` message: the block count, then the
    keys' block and the values' weight block, each with its length."""
    return 8 + 8 + len(_codec.pack_i64(keys)) + 8 + \
        weight_block_length(values)


# Bit patterns a weight column must keep: signed zeros, NaN payloads and
# signs, infinities, subnormals and the float64 extremes.
ODD_FLOATS = [0.0, -0.0, float("inf"), float("-inf"), float("nan"),
              struct.unpack("<d", struct.pack("<q", 0x7FF0000000000001))[0],
              struct.unpack("<d", struct.pack("<q", -0x0007FFFFFFFFFFFF))[0],
              5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
              -1.7976931348623157e308, 1.0, 4.0]


def assert_weights_round_trip(values):
    column = np.array(values, dtype=np.float64)
    data = _codec.pack_weights(column)
    back = _codec.unpack_weights(data)
    assert back.dtype == np.float64
    assert back.tobytes() == column.tobytes()
    assert len(data) == weight_block_length(values)
    return data


@given(values=st.lists(st.floats(width=64), max_size=40))
def test_weight_columns_round_trip_bit_for_bit(values):
    assert_weights_round_trip(values)


@pytest.mark.parametrize("value", ODD_FLOATS)
def test_odd_weights_round_trip_bit_for_bit(value):
    data = assert_weights_round_trip([value])
    # One value spans nothing: a width-1 block.
    assert len(data) == 10 and data[0] == 1


def test_odd_weights_round_trip_together():
    data = assert_weights_round_trip(ODD_FLOATS)
    assert data[0] == 8


def above_one(ulps: int) -> list[float]:
    """1.0 and the float ``ulps`` units in the last place above it."""
    one = 0x3FF0000000000000
    return np.array([one, one + ulps], dtype=np.int64).view(np.float64) \
        .tolist()


@pytest.mark.parametrize("values, width", [
    ([4.0] * 6, 1),
    ([1.0, 4.0], 8),
    (above_one(1), 1),
    (above_one(2**8 - 1), 1),
    (above_one(2**8), 2),
    (above_one(2**16), 4),
    (above_one(2**32), 8),
    # Across the sign the int64 patterns span nearly 2^64.
    ([-0.0, 0.0], 8),
])
def test_weight_blocks_take_the_width_of_their_bit_span(values, width):
    data = assert_weights_round_trip(values)
    assert data[0] == width
    assert len(data) == 9 + width * len(values)


def test_an_empty_weight_column_packs_to_no_bytes():
    assert _codec.pack_weights([]) == b""
    assert _codec.pack_weights(np.empty(0)) == b""
    assert _codec.unpack_weights(b"").tolist() == []
    assert _codec.unpack_weights(b"").dtype == np.float64


@given(x=st.floats(width=64))
def test_one_f64_round_trips_in_ten_bytes(x):
    # A weight travels as one value of a pack_kv_f64 message: a one-value
    # weight block is a width byte, the value's bits and one offset byte.
    data = _codec.pack_kv_f64(np.array([7]), np.array([x]))
    assert len(data) == kv_f64_length([7], [x]) == 44
    keys, back = _codec.unpack_kv_f64(data)
    assert keys.tolist() == [7]
    assert back.tobytes() == _codec.pack_f64([x])  # sign of zero and NaN bits kept


def test_one_value_packers_take_numpy_scalars_and_ints():
    want = _codec.pack_kv_f64(np.array([1]), np.array([2.5]))
    assert _codec.pack_kv_f64(np.array([1]), [np.float64(2.5)]) == want
    assert _codec.pack_kv_f64([1], [2.5]) == want
    assert _codec.pack_kv_f64([1], [4]) == \
        _codec.pack_kv_f64([1], [4.0])
    keys, values = _codec.unpack_kv_f64(_codec.pack_kv_f64([1], [4]))
    assert keys.tolist() == [1] and values.tolist() == [4.0]


def test_a_kv_f64_message_with_unequal_lengths_is_refused():
    data = _codec.pack_blocks([_codec.pack_i64([1, 2]),
                               _codec.pack_weights([1.0])])
    assert len(data) == 8 + 8 + 11 + 8 + 10
    with pytest.raises(ValueError, match="2 keys, 1 values"):
        _codec.unpack_kv_f64(data)


@given(values=st.lists(I64, max_size=20))
def test_array_and_iterator_inputs_pack_alike(values):
    want = _codec.pack_i64(list(values))
    assert _codec.pack_i64(iter(values)) == want
    assert _codec.pack_i64(np.array(values, dtype=np.int64)) == want
    floats = [float(v) for v in values]
    assert _codec.pack_f64(np.array(floats)) == _codec.pack_f64(iter(floats))
    assert _codec.pack_weights(np.array(floats)) == \
        _codec.pack_weights(iter(floats)) == _codec.pack_weights(floats)


@given(pairs=st.lists(st.tuples(I64, st.binary(max_size=16)), max_size=10))
def test_kv_round_trip_gives_python_int_keys(pairs):
    back = _codec.unpack_kv(_codec.pack_kv(pairs))
    assert back == pairs
    assert all(type(k) is int and type(v) is bytes for k, v in back)

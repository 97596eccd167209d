"""Packing helpers for protocol payloads.

Messages on the simulated network are raw bytes; these helpers give the
protocols a compact, deterministic packed form with explicit length
framing.  An integer block travels in frame-of-reference form (Lemire &
Boytsov, 2015): a one-byte width, the block's minimum as a little-endian
int64, then each value minus that minimum as a little-endian unsigned
integer of the narrowest width of 1, 2, 4 or 8 bytes that holds the
block's span; an empty block is no bytes.
Connectivity rows and owner replies span a few thousand values per block,
so most of them travel in 2 bytes instead of 8.  ``unpack_i64`` gives the
int64 array back, whatever the width; a single int read on its own (a kind
code or a flag) unpacks to a Python int.

An ascending id column travels in gap form (``pack_gaps``, the
differential coding of the same paper): the same 9-byte frame holds the
width and the first value, then each value minus the one before it
follows at the narrowest of 1, 2, 4 or 8 bytes that holds the largest gap;
at width 8 a gap wraps modulo 2^64, as an offset does in ``pack_i64``.
The largest gap is at most the span, so a gap block is never wider than
the frame-of-reference block of the same column, and it carries one value
fewer: a run of ids with gaps below 256 takes one byte an id however far
it spans.  It carries every sorted id column on the wire: a chunk's
element ids, node ids and boundary tags, the team summaries' element ids,
the weight round's keys and each member's survey keys.

A weight column travels in the frame-of-reference form, as its float64
bit patterns read as int64 (``pack_weights``), so every bit comes back:
the sign of zero, NaN payloads, infinities and subnormals.  Weights repeat
a few values per block, so a column of equal weights costs 9 + n bytes
instead of 8n; a block whose bit patterns span 2^32 or more costs 9 bytes
more than raw.  Coordinates stay raw little-endian float64 (``pack_f64``):
their bit patterns span more than 2^32 in every block, so the frame would
only add those 9 bytes.

Keyed data travels as a keys block and a values block: ``pack_kv`` takes
byte values, one framed block each, and ``pack_kv_f64`` ascending keys in
gap form with float64 values in the weight form.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np

_I64 = np.dtype("<i8")
_F64 = np.dtype("<f8")
_LEN = struct.Struct("<q")
# Width in bytes, then the block minimum.
_FRAME = struct.Struct("<Bq")
_OFFSET = {w: np.dtype(f"<u{w}") for w in (1, 2, 4, 8)}


def _seq(values):
    # An array converts in one call, without a Python scalar per item.
    return values if isinstance(values, np.ndarray) else list(values)


def _width(largest: int) -> int:
    """The narrowest of 1, 2, 4 or 8 bytes that holds 0..largest."""
    return 1 if largest < 1 << 8 else 2 if largest < 1 << 16 else \
        4 if largest < 1 << 32 else 8


def _frame(data: bytes) -> tuple[int, int]:
    """(width, first int64) of a non-empty block; an unknown width is an
    error."""
    width, value = _FRAME.unpack_from(data)
    if width not in _OFFSET:
        raise ValueError(f"malformed int block: width {width}")
    return width, value


def pack_i64(values: Iterable[int]) -> bytes:
    """Frame-of-reference form of the values, in order (a 2-D array row
    by row)."""
    a = np.asarray(_seq(values), dtype=_I64).reshape(-1)
    if not len(a):
        return b""
    lo = int(a.min())
    width = _width(int(a.max()) - lo)
    # At width 8 the int64 difference wraps; as uint64 it is exact.
    return _FRAME.pack(width, lo) + (a - lo).astype(_OFFSET[width]).tobytes()


def unpack_i64(data: bytes) -> np.ndarray:
    """The int64 values of a ``pack_i64`` block, flat."""
    if not data:
        return np.empty(0, dtype=_I64)
    width, lo = _frame(data)
    # Wraps back at width 8, as in pack_i64.
    return np.frombuffer(data, dtype=_OFFSET[width],
                         offset=_FRAME.size).astype(_I64) + lo


def pack_gaps(values: Iterable[int]) -> bytes:
    """Gap form of a non-decreasing column: the first value, then each
    value minus the one before it; a descending column is an error."""
    a = np.asarray(_seq(values), dtype=_I64).reshape(-1)
    if not len(a):
        return b""
    head, tail = a[:-1], a[1:]
    down = tail < head
    if down.any():
        i = int(np.argmax(down)) + 1
        raise ValueError(f"gap block not ascending: value {i} ({a[i]}) "
                         f"below {a[i - 1]}")
    # The int64 difference wraps past 2^63; as uint64 it is exact.
    gaps = (tail - head).view(np.uint64)
    width = _width(int(gaps.max()) if len(gaps) else 0)
    return _FRAME.pack(width, int(a[0])) + \
        gaps.astype(_OFFSET[width]).tobytes()


def unpack_gaps(data: bytes) -> np.ndarray:
    """The int64 values of a ``pack_gaps`` block."""
    if not data:
        return np.empty(0, dtype=_I64)
    width, first = _frame(data)
    gaps = np.frombuffer(data, dtype=_OFFSET[width], offset=_FRAME.size)
    out = np.empty(len(gaps) + 1, dtype=_I64)
    out[0] = first
    out[1:] = gaps
    # The running sum wraps back at width 8, as in pack_gaps.
    return np.add.accumulate(out, out=out)


def pack_f64(values: Iterable[float]) -> bytes:
    return np.asarray(_seq(values), dtype=_F64).tobytes()


def unpack_f64(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=_F64)


def pack_weights(values: Iterable[float]) -> bytes:
    """Frame-of-reference form of a float64 column's bit patterns."""
    return pack_i64(np.asarray(_seq(values), dtype=_F64).reshape(-1)
                    .view(_I64))


def unpack_weights(data: bytes) -> np.ndarray:
    """The float64 values of a ``pack_weights`` block, bit for bit."""
    return unpack_i64(data).view(_F64)


def unpack_one_i64(data: bytes) -> int:
    """The one value of a one-value ``pack_i64`` block."""
    (value,) = unpack_i64(data).tolist()
    return value


def pack_blocks(blocks: Sequence[bytes]) -> bytes:
    """Length-prefixed concatenation of byte blocks."""
    parts = [_LEN.pack(len(blocks))]
    for b in blocks:
        parts.append(_LEN.pack(len(b)))
        parts.append(b)
    return b"".join(parts)


def unpack_blocks(data: bytes) -> list[bytes]:
    (n,) = _LEN.unpack_from(data, 0)
    off = _LEN.size
    out = []
    for _ in range(n):
        (ln,) = _LEN.unpack_from(data, off)
        off += _LEN.size
        out.append(data[off:off + ln])
        off += ln
    return out


def pack_kv(pairs: Sequence[tuple[int, bytes]]) -> bytes:
    """Pack (int key, byte value) pairs preserving order."""
    keys = pack_i64(k for k, _ in pairs)
    values = pack_blocks([v for _, v in pairs])
    return pack_blocks([keys, values])


def unpack_kv(data: bytes) -> list[tuple[int, bytes]]:
    keys_raw, values_raw = unpack_blocks(data)
    return list(zip(unpack_i64(keys_raw).tolist(), unpack_blocks(values_raw)))


def pack_kv_f64(keys: Sequence[int], values: Sequence[float]) -> bytes:
    """Ascending int keys and their float64 values as two blocks: the keys'
    ``pack_gaps`` block, then the values' ``pack_weights`` block."""
    return pack_blocks([pack_gaps(keys), pack_weights(values)])


def unpack_kv_f64(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(keys, values) of a ``pack_kv_f64`` message, in the order packed."""
    keys_raw, values_raw = unpack_blocks(data)
    keys, values = unpack_gaps(keys_raw), unpack_weights(values_raw)
    if len(keys) != len(values):
        raise ValueError(f"malformed key/value message: {len(keys)} keys, "
                         f"{len(values)} values")
    return keys, values

"""Packing helpers for protocol payloads.

Messages on the simulated network are raw bytes; these helpers give the
protocols a compact, deterministic packed form with explicit length
framing.  An integer block travels in frame-of-reference form (Lemire &
Boytsov, 2015): a one-byte width, the block's minimum as a little-endian
int64, then each value minus that minimum as a little-endian unsigned
integer of the narrowest width of 1, 2, 4 or 8 bytes that holds the
block's span; an empty block is no bytes.
Ids, connectivity and owner replies span a few thousand values per block,
so most of them travel in 2 bytes instead of 8.  ``unpack_i64`` gives the
int64 array back, whatever the width; a single int read on its own (a kind
code or a flag) unpacks to a Python int.

A weight column travels in the same form, as its float64 bit patterns read
as int64 (``pack_weights``), so every bit comes back: the sign of zero, NaN
payloads, infinities and subnormals.  Weights repeat a few values per
block, so a column of equal weights costs 9 + n bytes instead of 8n; a
block whose bit patterns span 2^32 or more costs 9 bytes more than raw.
Coordinates stay raw little-endian float64 (``pack_f64``): their bit
patterns span more than 2^32 in every block, so the frame would only add
those 9 bytes.

Keyed data travels as a keys block and a values block: ``pack_kv`` takes
byte values, one framed block each, and ``pack_kv_f64`` float64 values in
the weight form.
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


def pack_i64(values: Iterable[int]) -> bytes:
    """Frame-of-reference form of the values, in order (a 2-D array row
    by row)."""
    a = np.asarray(_seq(values), dtype=_I64).reshape(-1)
    if not len(a):
        return b""
    lo = int(a.min())
    span = int(a.max()) - lo
    width = 1 if span < 1 << 8 else 2 if span < 1 << 16 else \
        4 if span < 1 << 32 else 8
    # At width 8 the int64 difference wraps; as uint64 it is exact.
    return _FRAME.pack(width, lo) + (a - lo).astype(_OFFSET[width]).tobytes()


def unpack_i64(data: bytes) -> np.ndarray:
    """The int64 values of a ``pack_i64`` block, flat."""
    if not data:
        return np.empty(0, dtype=_I64)
    width, lo = _FRAME.unpack_from(data)
    if width not in _OFFSET:
        raise ValueError(f"malformed int block: width {width}")
    # Wraps back at width 8, as in pack_i64.
    return np.frombuffer(data, dtype=_OFFSET[width],
                         offset=_FRAME.size).astype(_I64) + lo


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
    """Aligned int keys and float64 values as two blocks: the keys' block,
    then the values' ``pack_weights`` block."""
    return pack_blocks([pack_i64(keys), pack_weights(values)])


def unpack_kv_f64(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(keys, values) of a ``pack_kv_f64`` message, in the order packed."""
    keys_raw, values_raw = unpack_blocks(data)
    keys, values = unpack_i64(keys_raw), unpack_weights(values_raw)
    if len(keys) != len(values):
        raise ValueError(f"malformed key/value message: {len(keys)} keys, "
                         f"{len(values)} values")
    return keys, values

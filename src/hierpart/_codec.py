"""Packing helpers for protocol payloads.

Messages on the simulated network are raw bytes; these helpers give the
protocols a compact, deterministic packed form (little-endian int64/float64
arrays with explicit length framing).  A single int64 read on its own (a
kind code or a flag) unpacks through a ``struct`` to a Python int.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np

_I64 = np.dtype("<i8")
_F64 = np.dtype("<f8")
_LEN = struct.Struct("<q")


def _seq(values):
    # An array converts in one call, without a Python scalar per item.
    return values if isinstance(values, np.ndarray) else list(values)


def pack_i64(values: Iterable[int]) -> bytes:
    return np.asarray(_seq(values), dtype=_I64).tobytes()


def unpack_i64(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=_I64)


def pack_f64(values: Iterable[float]) -> bytes:
    return np.asarray(_seq(values), dtype=_F64).tobytes()


def unpack_f64(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=_F64)


def unpack_one_i64(data: bytes) -> int:
    return _LEN.unpack(data)[0]


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


def pack_kv_f64(keys: np.ndarray, values: np.ndarray) -> bytes:
    """``pack_kv`` of (key, ``pack_f64([value])``) pairs, built as one
    int64 array: the block count 2, the keys' length and the keys, then the
    value blocks' length, their count, and one (8, value bits) pair each."""
    n = len(keys)
    pairs = np.empty((n, 2), dtype=_I64)
    pairs[:, 0] = _F64.itemsize
    pairs[:, 1] = np.asarray(values, dtype=_F64).view(_I64)
    return np.concatenate((
        [2, 8 * n], np.asarray(keys, dtype=_I64), [8 + 16 * n, n],
        pairs.reshape(-1))).astype(_I64, copy=False).tobytes()


def unpack_kv_f64(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(keys, values) of a ``pack_kv_f64`` message, in the order packed."""
    words = np.frombuffer(data, dtype=_I64)
    n = int(words[1]) // 8
    if len(words) != 4 + 3 * n or words[0] != 2 or words[3 + n] != n:
        raise ValueError("malformed key/value message")
    return words[2:2 + n], np.frombuffer(data, dtype=_F64)[5 + n::2]

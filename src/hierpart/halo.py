"""Shared-node halo exchange over the partitioned mesh.

Partitions replicate only node records, so the halo consists of nodes that
appear on more than one rank.  A schedule lists, per neighbor rank, the
shared node ids in ascending order; both sides hold the identical list, which
fixes the wire layout without any per-message header.  Neighbors on the same
tree node use the buffer-handoff channel instead of network sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .runtime import RankContext
from .topology import TopologyTree

_TAG_HALO = 41

MODES = ("replicate_owner", "accumulate_sum")


@dataclass(frozen=True)
class HaloSchedule:
    # (neighbor rank, shared node ids ascending, "intranode" | "internode")
    neighbors: tuple[tuple[int, tuple[int, ...], str], ...]


def schedule_for_rank(rows: Mapping[int, Sequence[int]], tree: TopologyTree,
                      rank: int) -> HaloSchedule:
    """Schedule from this rank's shared-node table (other rank -> node ids)."""
    neighbors = []
    for other in sorted(rows):
        nodes = tuple(sorted(int(n) for n in rows[other]))
        if not nodes:
            continue
        channel = "intranode" if tree.same_node(rank, other) else "internode"
        neighbors.append((other, nodes, channel))
    return HaloSchedule(neighbors=tuple(neighbors))


def exchange(ctx: RankContext, schedule: HaloSchedule,
             field: Mapping[int, object], mode: str) -> dict[int, np.ndarray]:
    """One halo update of a per-node field; collective over all sharers.

    ``field`` maps every local node id to a fixed-arity float vector.  Mode
    ``replicate_owner`` overwrites each shared node with the lowest sharing
    rank's value; ``accumulate_sum`` replaces it with the sum of all sharers'
    values, added in ascending rank order so every replica is bitwise
    identical.  Returns a full copy of the field with shared nodes updated.
    """
    if mode not in MODES:
        raise ValueError(f"unknown exchange mode {mode!r}; expected one of {MODES}")
    vecs = {int(n): np.asarray(v, dtype=np.float64).ravel()
            for n, v in field.items()}
    arity = None
    for n, v in vecs.items():
        if arity is None:
            arity = v.size
        elif v.size != arity:
            raise ValueError(f"field arity mismatch at node {n}: "
                             f"{v.size} values, expected {arity}")
    for _, nodes, _ in schedule.neighbors:
        for n in nodes:
            if n not in vecs:
                raise ValueError(f"no field value for shared node {n}")

    # Post everything outbound first; both channels buffer, so no rank can
    # stall another by receiving in a different order than it sends.
    for other, nodes, channel in schedule.neighbors:
        payload = np.concatenate([vecs[n] for n in nodes]) if nodes else \
            np.empty(0, dtype=np.float64)
        data = payload.tobytes()
        if channel == "intranode":
            ctx.copy_to(other, data)
        else:
            ctx.send(other, data, tag=_TAG_HALO)

    # Each shared node's (rank, value) pairs, this rank's own included.
    pairs: dict[int, list[tuple[int, np.ndarray]]] = {}
    for other, nodes, channel in schedule.neighbors:
        if channel == "intranode":
            data = ctx.copy_from(other)
        else:
            _, _, data = ctx.recv(source=other, tag=_TAG_HALO)
        values = np.frombuffer(data, dtype=np.float64)
        if values.size != len(nodes) * arity:
            raise ValueError(f"halo payload from rank {other} holds "
                             f"{values.size} values, expected {len(nodes) * arity}")
        for i, n in enumerate(nodes):
            pairs.setdefault(n, [(ctx.rank, vecs[n])]).append(
                (other, values[i * arity:(i + 1) * arity]))

    result = {n: v.copy() for n, v in vecs.items()}
    for n, got in pairs.items():
        got.sort(key=lambda rv: rv[0])
        if mode == "replicate_owner":
            result[n] = got[0][1].copy()
        else:
            total = np.zeros(arity, dtype=np.float64)
            for _, v in got:
                total = total + v
            result[n] = total
    return result

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

from .directory import _unique
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

    ``field`` maps every local node id to a fixed-arity float vector (or a
    number, arity 1).  Mode ``replicate_owner`` overwrites each shared node
    with the lowest sharing rank's value; ``accumulate_sum`` replaces it
    with the sum of all sharers' values, added in ascending rank order so
    every replica is bitwise identical.  Returns a full copy of the field
    with shared nodes updated.

    The field is stacked into one (nodes, arity) array; each neighbor's
    payload is one gather of its rows, and each received payload is applied
    to its rows in one step.
    """
    if mode not in MODES:
        raise ValueError(f"unknown exchange mode {mode!r}; expected one of {MODES}")
    nodes = np.fromiter(field.keys(), dtype=np.int64, count=len(field))
    values = _stack(field)
    order = np.argsort(nodes, kind="stable")
    ordered = nodes[order]

    def rows_of(shared: tuple[int, ...]) -> np.ndarray:
        want = np.array(shared, dtype=np.int64)
        at = np.searchsorted(ordered, want)
        hit = at < len(ordered)
        hit[hit] = ordered[at[hit]] == want[hit]
        if not hit.all():
            raise ValueError(f"no field value for shared node "
                             f"{want[np.argmin(hit)]}")
        return order[at]

    rows = [rows_of(shared) for _, shared, _ in schedule.neighbors]

    # Post everything outbound first; both channels buffer, so no rank can
    # stall another by receiving in a different order than it sends.
    for (other, _, channel), idx in zip(schedule.neighbors, rows):
        data = values[idx].tobytes()
        if channel == "intranode":
            ctx.copy_to(other, data)
        else:
            ctx.send(other, data, tag=_TAG_HALO)

    arity = values.shape[1]
    received = []
    for (other, shared, channel), idx in zip(schedule.neighbors, rows):
        if channel == "intranode":
            data = ctx.copy_from(other)
        else:
            _, _, data = ctx.recv(source=other, tag=_TAG_HALO)
        got = np.frombuffer(data, dtype=np.float64)
        if got.size != len(shared) * arity:
            raise ValueError(f"halo payload from rank {other} holds "
                             f"{got.size} values, expected {len(shared) * arity}")
        received.append((other, idx, got.reshape(len(shared), arity)))
    received.sort(key=lambda r: r[0])

    result = values.copy()
    if mode == "replicate_owner":
        # Lower ranks applied last win; higher ranks never beat this one.
        for other, idx, got in reversed(received):
            if other < ctx.rank:
                result[idx] = got
    elif received:
        shared = _unique(np.concatenate([idx for _, idx, _ in received]))
        total = np.zeros_like(values)
        mine = [(ctx.rank, shared, values[shared])]
        for _, idx, got in sorted(received + mine, key=lambda r: r[0]):
            total[idx] += got
        result[shared] = total[shared]
    return dict(zip(nodes.tolist(), result))


def _stack(field: Mapping[int, object]) -> np.ndarray:
    """The field's values as one (nodes, arity) float64 array; raises
    ValueError naming the first node whose arity differs from the first."""
    try:
        values = np.array(list(field.values()), dtype=np.float64)
        return values.reshape(len(values), -1 if len(values) else 0)
    except ValueError:
        pass  # ragged: stack node by node, naming the first that differs
    arity = None
    vecs = []
    for n, v in field.items():
        v = np.asarray(v, dtype=np.float64).ravel()
        if arity is None:
            arity = v.size
        elif v.size != arity:
            raise ValueError(f"field arity mismatch at node {n}: "
                             f"{v.size} values, expected {arity}")
        vecs.append(v)
    return np.array(vecs)

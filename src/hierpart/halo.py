"""Shared-node halo exchange over the partitioned mesh.

Partitions replicate only node records, so the halo consists of nodes that
appear on more than one rank.  A schedule lists, per neighbor rank, the
shared node ids in ascending order; both sides hold the identical list, which
fixes the wire layout without any per-message header.

Traffic goes through the node, as in the shared-memory halo communicators
of Hoefler et al. ("MPI+MPI", 2013) and Bienz, Gropp & Olson (2019):
neighbors on the same tree node hand each other their rows over the copy
channel, and every rank hands its rows for other nodes to its node's
leader, the rank that led its node in the shared-node survey.  The leaders
send one network message per node pair, holding one value per sending rank
and node, and hand each member the rows its remote neighbors sent.  Each
rank then resolves the same per-neighbor rows as a direct exchange would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .directory import CoHolders, _concat, _fresh, _unique
from .runtime import RankContext
from .topology import TopologyTree

# Same-node rows between neighbors, and the leaders' network messages.
_TAG_HALO = 41
# Rows for other nodes handed to the leader, and the leader's hand-on.
_TAG_ROUTE = 42

MODES = ("replicate_owner", "accumulate_sum")


@dataclass(frozen=True, eq=False)
class HaloSchedule:
    # (neighbor rank, shared node ids ascending, "intranode" | "internode")
    neighbors: tuple[tuple[int, tuple[int, ...], str], ...]
    # Its node's leader (maybe itself), which carries its internode rows.
    leader: int
    # At a leader only, how its node's internode rows travel.  The pool is
    # the leader's own internode rows, then those of each (member, rows)
    # of ``gather``; each (leader, pool positions) of ``sends`` is one
    # network message, and each (leader, rows) of ``recvs`` one incoming.
    # Their concatenation in leader order is the inbound pool, and each
    # (member, inbound positions) of ``hands`` is what the member gets.
    gather: tuple[tuple[int, int], ...] = ()
    sends: tuple[tuple[int, np.ndarray], ...] = ()
    recvs: tuple[tuple[int, int], ...] = ()
    hands: tuple[tuple[int, np.ndarray], ...] = ()


def schedule_for_rank(rows: CoHolders, tree: TopologyTree,
                      rank: int) -> HaloSchedule:
    """Schedule from this rank's shared-node survey (``find_shared_nodes``).

    The survey's node lists already ascend and are taken as they are; its
    ``leaders`` name the rank's leader, which builds its routes from its
    node's survey rows (``rows.node``).
    """
    others = sorted(rows)
    same = tree.group_index(np.array(others, dtype=np.int64), 0) == \
        tree.group_index(rank, 0)
    neighbors = tuple((other, tuple(rows[other]),
                       "intranode" if near else "internode")
                      for other, near in zip(others, same.tolist())
                      if rows[other])
    leader = int(rows.leaders[tree.group_index(rank, 0)])
    if leader != rank:
        return HaloSchedule(neighbors, leader)
    leads = rows.leaders[tree.group_index(rows.node[:, 2], 0)]
    return HaloSchedule(neighbors, leader, *_routes(rows.node, leads, rank))


def _routes(rows: np.ndarray, leads: np.ndarray, leader: int) -> tuple:
    """``gather``, ``sends``, ``recvs`` and ``hands`` of ``leader`` from its
    node's (rank, node id, other holder) rows, ascending by rank, other
    holder, then node id, and ``leads``, the leader of each other holder."""
    off = leads != leader
    rows, leads = rows[off], leads[off]
    rank, node, other = rows.T
    # Row positions in the outbound pool, the distinct (rank, node id)
    # pairs, and in the inbound pool, the distinct (other holder, node id)
    # pairs: remote ranks ascend with their leaders, so message by message.
    out, out_first = _pool(rank, node)
    into, in_first = _pool(other, node)
    sent = _pool(leads, out)[1]
    return (tuple((m, len(part)) for m, part in
                  _split_by(rank[out_first], out_first) if m != leader),
            _split_by(leads[sent], out[sent]),
            tuple((lead, len(part)) for lead, part in
                  _split_by(leads[in_first], in_first)),
            _split_by(rank, into))


def _pool(major: np.ndarray, minor: np.ndarray) -> tuple:
    """Each row's position among the distinct (major, minor) pairs in
    ascending order, and the first row of each pair."""
    order = np.lexsort((minor, major))
    fresh = _fresh(major[order], minor[order])
    at = np.empty(len(order), dtype=np.int64)
    at[order] = np.cumsum(fresh) - 1
    return at, order[fresh]


def _split_by(keys: np.ndarray, values: np.ndarray) -> tuple:
    """(key, values) of each run of equal entries of the sorted ``keys``."""
    starts = np.flatnonzero(_fresh(keys))
    return tuple(zip(keys[starts].tolist(), np.split(values, starts[1:])))


def _union(blocks) -> np.ndarray:
    return _unique(_concat(list(blocks)))


def exchange(ctx: RankContext, schedule: HaloSchedule,
             field: Mapping[int, object], mode: str) -> dict[int, np.ndarray]:
    """One halo update of a per-node field; collective over all sharers and
    their node leaders.

    ``field`` maps every local node id to a fixed-arity float vector (or a
    number, arity 1).  Mode ``replicate_owner`` overwrites each shared node
    with the lowest sharing rank's value; ``accumulate_sum`` replaces it
    with the sum of all sharers' values, added in ascending rank order so
    every replica is bitwise identical.  Returns a full copy of the field
    with shared nodes updated.

    The field is stacked into one (nodes, arity) array; each payload is
    one gather of its rows, and each neighbor's rows are applied in one
    step.  Rows for other nodes travel through the leaders (see the
    module docstring), which forward every sending rank's values, so both
    modes see exactly the values a direct exchange delivers.
    """
    if mode not in MODES:
        raise ValueError(f"unknown exchange mode {mode!r}; expected one of {MODES}")
    nodes = np.fromiter(field.keys(), dtype=np.int64, count=len(field))
    values = _stack(field)
    order = np.argsort(nodes, kind="stable")
    ordered = nodes[order]

    def rows_of(shared) -> np.ndarray:
        want = np.asarray(shared, dtype=np.int64)
        at = np.searchsorted(ordered, want)
        hit = at < len(ordered)
        hit[hit] = ordered[at[hit]] == want[hit]
        if not hit.all():
            raise ValueError(f"no field value for shared node "
                             f"{want[np.argmin(hit)]}")
        return order[at]

    rows = [rows_of(shared) for _, shared, _ in schedule.neighbors]
    inter = [(other, shared) for other, shared, channel in schedule.neighbors
             if channel == "internode"]
    outbound = values[rows_of(_union(shared for _, shared in inter))]
    counts = [len(shared) for _, shared in inter]
    leader = schedule.leader
    arity = values.shape[1]

    # Post everything outbound first; both channels buffer, so no rank can
    # stall another by receiving in a different order than it sends.
    for (other, _, channel), idx in zip(schedule.neighbors, rows):
        if channel == "intranode":
            ctx.copy_to(other, values[idx].tobytes(), _TAG_HALO)
    if leader == ctx.rank:
        routed = _lead(ctx, schedule, outbound, arity if len(values) else None)
    elif inter:
        ctx.copy_to(leader, outbound.tobytes(), _TAG_ROUTE)
        routed = _rows(leader, ctx.copy_from(leader, _TAG_ROUTE), sum(counts),
                       arity)
    remote = dict(zip((other for other, _ in inter),
                      np.split(routed, np.cumsum(counts)[:-1]))) if inter else {}

    received = []
    for (other, shared, channel), idx in zip(schedule.neighbors, rows):
        if channel == "intranode":
            got = _rows(other, ctx.copy_from(other, _TAG_HALO), len(shared),
                        arity)
        else:
            got = remote[other]
        received.append((other, idx, got))
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


def _lead(ctx: RankContext, schedule: HaloSchedule, own: np.ndarray,
          arity: int | None) -> np.ndarray:
    """A leader's part of one exchange: send its node's internode rows,
    one message per remote leader, and hand each member what arrives for
    it; returns its own share.  ``arity`` None: the leader holds no
    nodes, and its members' rows set the width."""
    handed = [(m, ctx.copy_from(m, _TAG_ROUTE), count)
              for m, count in schedule.gather]
    if arity is None:
        arity = len(handed[0][1]) // (8 * handed[0][2]) if handed else 0
    pool = np.concatenate([own.reshape(len(own), arity)] + [
        _rows(m, data, count, arity) for m, data, count in handed])
    for other, at in schedule.sends:
        ctx.send(other, pool[at].tobytes(), _TAG_HALO)
    pool = np.concatenate([np.empty((0, arity))] + [
        _rows(other, ctx.recv(source=other, tag=_TAG_HALO)[2], count, arity)
        for other, count in schedule.recvs])
    own_share = pool[:0]
    for m, at in schedule.hands:
        if m == ctx.rank:
            own_share = pool[at]
        else:
            ctx.copy_to(m, pool[at].tobytes(), _TAG_ROUTE)
    return own_share


def _rows(source: int, data: bytes, count: int, arity: int) -> np.ndarray:
    """A payload from ``source`` as its (count, arity) rows."""
    got = np.frombuffer(data, dtype=np.float64)
    if got.size != count * arity:
        raise ValueError(f"halo payload from rank {source} holds "
                         f"{got.size} values, expected {count * arity}")
    return got.reshape(count, arity)


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

"""One-sided distributed dictionary over integer keys.

Keys from a dense space [0, key_space) are spread over the participating
ranks in closed-form contiguous blocks, so any rank can compute a key's
owner without communication.  Every operation rides on one rendezvous,
``blind_exchange``, built from ``blind_count`` plus point-to-point
messages: no rank ever needs an all-to-all exchange to learn who talks to
it.  Lookups then answer each asker with an addressed reply.

``_ask_owners`` is one such round of int64 arrays (the rendezvous of
Plimpton, Hendrickson & Stewart, 2004), each travelling in ``_codec``'s
narrowest integer width: rows go to the owners of their first keys, and
each owner answers every sender with pairs, as a rule the items of each
run of equal keys (``_run_pairs``).  ``mesh.build_dual_graph`` is such a
round.  ``co_holders`` (the shared-key survey) runs it among node leaders
only: the ranks of a node hand their keys to their leader, and take their
answers back, over the same-node copy channel (Hoefler et al., "MPI+MPI",
2013), so the network carries one round between nodes.

``Directory`` is the byte-valued multimap (``build``, then ``query`` or
``range_query``): inserting the same key from several ranks keeps every
value, ordered by source rank (then insertion order within a source),
which keeps results independent of message arrival order.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import _codec
from .runtime import ANY_SOURCE, RankContext, _normalize_team


def block_size(key_space: int, nranks: int) -> int:
    """Keys per owner block: ceil(key_space / nranks)."""
    if key_space <= 0 or nranks <= 0:
        raise ValueError("key_space and nranks must be positive")
    return -(-key_space // nranks)


def owner(key: int, key_space: int, nranks: int) -> int:
    """Owner index of ``key``; the last rank absorbs the remainder block."""
    if not (0 <= key < key_space):
        raise KeyError(f"key {key} outside key space [0, {key_space})")
    return min(key // block_size(key_space, nranks), nranks - 1)


# One fixed tag for blind data and one for replies.  Blind drains are safe
# with a fixed tag because every exchange instance is bracketed by
# blind_count fences: nobody can inject data for the next instance before
# everyone drained the current one.  The explicitly addressed replies ride on
# per-pair FIFO order.
_TAG_DATA = 21
_TAG_REPLY = 22
# The survey's hand-offs between a node's ranks and its leader, both ways.
_TAG_SURVEY = 23


def blind_exchange(ctx: RankContext, outgoing: dict[int, bytes],
                   team: Sequence[int] | None = None) -> list[tuple[int, bytes]]:
    """Deliver one payload per destination; collect whatever arrives here.

    Collective over the team.  No rank knows in advance who will contact it:
    each first learns its incoming message count from ``blind_count``, then
    receives exactly that many messages from any source.  Payloads destined
    to the caller itself never touch the network.  A tuple ``team`` is
    taken as given, as the collectives hand theirs on normalized; any
    other team is normalized here.

    Returns (source, payload) pairs sorted by source rank.
    """
    team_t = team if isinstance(team, tuple) else \
        _normalize_team(team, ctx.size)
    if ctx.rank not in team_t:
        raise ValueError(f"rank {ctx.rank} not in team {team_t}")
    local = None
    remote = {}
    for dest, payload in outgoing.items():
        if dest == ctx.rank:
            local = bytes(payload)
        else:
            if dest not in team_t:
                raise ValueError(f"destination {dest} not in team {team_t}")
            remote[dest] = payload
    n_incoming = ctx.blind_count(sorted(remote), team=team_t)
    for dest in sorted(remote):
        ctx.send(dest, remote[dest], _TAG_DATA)
    received = []
    for _ in range(n_incoming):
        source, _, data = ctx.recv(source=ANY_SOURCE, tag=_TAG_DATA)
        received.append((source, data))
    if local is not None:
        received.append((ctx.rank, local))
    received.sort(key=lambda sv: sv[0])
    return received


def _rendezvous(ctx: RankContext, team: tuple[int, ...],
                requests: dict[int, bytes],
                answer: Callable[[list[tuple[int, bytes]]], list[bytes]]
                ) -> dict[int, bytes]:
    """Send each owner its request, answer every asker, collect replies.

    Collective over the team.  ``answer(received)`` gets the (source,
    request) pairs that reached this rank, ascending by source, and returns
    one reply for each; replies go out in that order, and the caller's own
    stays local.  Returns the reply of every owner in ``requests``.
    """
    received = blind_exchange(ctx, requests, team=team)
    replies: dict[int, bytes] = {}
    for (source, _), reply in zip(received, answer(received)):
        if source == ctx.rank:
            replies[source] = reply
        else:
            ctx.send(source, reply, _TAG_REPLY)
    for dest in sorted(requests):
        if dest != ctx.rank:
            replies[dest] = ctx.recv(source=dest, tag=_TAG_REPLY)[2]
    return replies


class CoHolders(dict):
    """{other rank: ascending keys}, as ``co_holders`` returns it, and how
    the survey ran on this rank's node.

    ``leaders`` holds, by level-0 vertex, its lowest team rank (-1: none),
    the leader that spoke for it.  At a leader, ``node`` is its node's
    survey, int64 (rank, key, other holder) rows ascending by rank, other
    holder, then key; elsewhere it is None.
    """

    def __init__(self, pairs, leaders: np.ndarray,
                 node: np.ndarray | None = None):
        super().__init__(pairs)
        self.leaders = leaders
        self.node = node


def co_holders(ctx: RankContext, keys: Sequence[int], key_space: int,
               team: Sequence[int] | None = None) -> CoHolders:
    """The keys this rank holds together with each other rank.

    Collective over the team.  Each rank checks its distinct keys and hands
    them to its node's leader, the lowest team rank on its level-0 vertex,
    over the copy channel.  The leaders run one ``_ask_owners`` round of
    (key, holder) rows, in which each owner answers a leader with every
    holder on other nodes of the keys it sent, and then hand each rank of
    their node its (key, other holder) pairs back.  Returns {other rank:
    ascending keys}; a key held by k ranks shows up in every one of their
    pairwise lists.
    """
    team_t = _team_of(ctx, team)
    mine = _unique(np.asarray(keys, dtype=np.int64))
    _check_keys(mine, key_space)
    ranks = np.asarray(team_t, dtype=np.int64)
    vertices = ctx.tree.group_index(ranks, 0)
    first = _fresh(vertices)
    leaders = np.full(ctx.tree.group_count(0), -1, dtype=np.int64)
    leaders[vertices[first]] = ranks[first]
    vertex = ctx.tree.group_index(ctx.rank, 0)
    leader = int(leaders[vertex])
    if ctx.rank != leader:
        ctx.copy_to(leader, _codec.pack_i64(mine), _TAG_SURVEY)
        pairs = _codec.unpack_i64(ctx.copy_from(leader, _TAG_SURVEY))
        return CoHolders(_by_holder(pairs.reshape(-1, 2)), leaders)

    members = ranks[vertices == vertex].tolist()
    held = [mine] + [_codec.unpack_i64(ctx.copy_from(m, _TAG_SURVEY))
                     for m in members[1:]]
    rows = np.stack([np.concatenate(held),
                     np.repeat(members, [len(h) for h in held])], axis=1)
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    remote = _ask_owners(ctx, rows, key_space, tuple(ranks[first].tolist()),
                         _match_nodes)
    # Every member's key with each other holder, on this node or elsewhere.
    both = np.concatenate([rows, remote])
    order = np.argsort(both[:, 0], kind="stable")
    i, j = _run_pairs(both[order, 0])
    i, j = order[i], order[j]
    i, j = i[i < len(rows)], j[i < len(rows)]
    triples = np.stack([both[i, 1], both[i, 0], both[j, 1]], axis=1)
    triples = triples[np.lexsort((triples[:, 1], triples[:, 2], triples[:, 0]))]
    parts = np.split(triples[:, 1:], np.searchsorted(triples[:, 0], members[1:]))
    for m, part in zip(members[1:], parts[1:]):
        ctx.copy_to(m, _codec.pack_i64(part), _TAG_SURVEY)
    return CoHolders(_by_holder(parts[0]), leaders, triples)


def _by_holder(pairs: np.ndarray) -> dict[int, list[int]]:
    # (key, holder) pairs ascending by holder -> {holder: ascending keys}.
    cuts = np.flatnonzero(_fresh(pairs[:, 1]))
    return {h: part.tolist() for h, part in
            zip(pairs[cuts, 1].tolist(), np.split(pairs[:, 0], cuts[1:]))}


def _match_nodes(src: np.ndarray, rows: np.ndarray) -> tuple:
    # Each leader's first (key, holder) row of a key with every row of the
    # key from another leader: the holders of the key on other nodes.
    keys = rows[:, 0]
    order = np.argsort(keys, kind="stable")
    first = _fresh(keys[order], src[order])
    i, j = _run_pairs(keys[order])
    keep = first[i] & (src[order[i]] != src[order[j]])
    return order[i[keep]], order[j[keep]], keys, rows[:, 1]


def _team_of(ctx: RankContext, team: Sequence[int] | None) -> tuple[int, ...]:
    """The normalized team, which must hold the calling rank."""
    team_t = _normalize_team(team, ctx.size)
    if ctx.rank not in team_t:
        raise ValueError(f"rank {ctx.rank} not in directory team {team_t}")
    return team_t


def _check_keys(keys: np.ndarray, key_space: int) -> None:
    outside = keys[(keys < 0) | (keys >= key_space)]
    if len(outside):
        raise KeyError(f"key {outside[0]} outside key space [0, {key_space})")


def _ask_owners(ctx: RankContext, rows: np.ndarray, key_space: int,
                team: tuple[int, ...],
                pair: Callable[[np.ndarray, np.ndarray], tuple]) -> np.ndarray:
    """Send each row to the owner of its first key, in one rendezvous over
    the normalized ``team``; return the int64 pairs the owners answer, in
    team order.

    ``rows`` ascend by their first column; every entry but a 2-D array's
    last column is a key in [0, key_space).  ``pair(src, rows)`` gets the
    rows that reached an owner, and each row's source, and returns (i, j,
    left, right): each sender gets the (left[i], right[j]) pairs of its
    rows i, ascending by i, then j.
    """
    width = 1 if rows.ndim == 1 else rows.shape[1]
    _check_keys(rows if width == 1 else rows[:, :-1], key_space)
    requests = {}
    if len(rows):
        P = len(team)
        first = rows if width == 1 else rows[:, 0]
        owners = np.minimum(first // block_size(key_space, P), P - 1)
        cuts = np.flatnonzero(owners[1:] != owners[:-1]) + 1
        for o, part in zip(owners[np.r_[0, cuts]].tolist(), np.split(rows, cuts)):
            requests[team[o]] = _codec.pack_i64(part)

    def answer(received: list[tuple[int, bytes]]) -> list[bytes]:
        sources = np.array([source for source, _ in received], dtype=np.int64)
        got = [_codec.unpack_i64(blob) for _, blob in received]
        src = np.repeat(sources, [len(g) // width for g in got])
        got = _concat(got).reshape(-1, *rows.shape[1:])
        i, j, left, right = pair(src, got)
        order = np.lexsort((j, i, src[i]))
        i, j = i[order], j[order]
        flat = np.stack([left[i], right[j]], axis=1)
        cuts = np.searchsorted(src[i], sources[1:])
        return [_codec.pack_i64(part) for part in np.split(flat, cuts)]

    replies = _rendezvous(ctx, team, requests, answer)
    return _concat([_codec.unpack_i64(replies[dest])
                    for dest in sorted(replies)]).reshape(-1, 2)


def _concat(blocks: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)


def _unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array (a sort, which is several
    times faster here than ``np.unique``'s hash table, and which leaves
    ``numpy.ma`` unimported)."""
    ordered = np.sort(values, axis=None)
    return ordered[_fresh(ordered)]


def _fresh(*columns: np.ndarray) -> np.ndarray:
    """Where a row of sorted, aligned columns differs from the row before."""
    fresh = np.ones(len(columns[0]), dtype=bool)
    fresh[1:] = np.any([c[1:] != c[:-1] for c in columns], axis=0)
    return fresh


def _run_pairs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j), i != j, of positions in one run of equal values of the
    sorted array ``key``: the pairs one apart, then two apart, and so on."""
    i, j = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    gap = 1
    while (same := key[gap:] == key[:-gap]).any():
        a = np.flatnonzero(same)
        i += (a, a + gap)
        j += (a + gap, a)
        gap += 1
    return np.concatenate(i), np.concatenate(j)


class Directory:
    """Distributed multimap handle returned by :meth:`Directory.build`.

    The handle is per rank: it holds this rank's shard plus the parameters
    needed to route queries.  All operations are collective over the team
    the directory was built on.
    """

    def __init__(self, ctx: RankContext, key_space: int, team: tuple[int, ...],
                 shard: dict[int, list[bytes]]):
        self._ctx = ctx
        self.key_space = key_space
        self.team = team
        self._shard = shard

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, ctx: RankContext, pairs: Sequence[tuple[int, bytes]],
              key_space: int, team: Sequence[int] | None = None) -> "Directory":
        """Insert local (key, value) pairs; collective over the team.

        Values for one key end up on its owner, ordered by source rank and,
        within a source, by the order the source listed them.
        """
        team_t = _team_of(ctx, team)
        P = len(team_t)
        by_owner: dict[int, list[tuple[int, bytes]]] = {}
        for key, value in pairs:
            o = owner(int(key), key_space, P)
            by_owner.setdefault(team_t[o], []).append((int(key), bytes(value)))
        outgoing = {dest: _codec.pack_kv(kvs) for dest, kvs in by_owner.items()}
        received = blind_exchange(ctx, outgoing, team=team_t)
        shard: dict[int, list[bytes]] = {}
        for _, blob in received:  # sources already sorted ascending
            for key, value in _codec.unpack_kv(blob):
                shard.setdefault(key, []).append(value)
        return cls(ctx, key_space, team_t, shard)

    # -- lookups ------------------------------------------------------------

    def query(self, keys: Sequence[int]) -> dict[int, list[bytes]]:
        """Fetch value lists for the given keys; collective over the team.

        Missing keys map to empty lists.  Each rank contacts only the owners
        of the keys it asks about; owners learn the number of requesters
        blindly and reply directly.
        """
        P = len(self.team)
        by_owner: dict[int, list[int]] = {}
        for key in sorted({int(k) for k in keys}):
            by_owner.setdefault(self.team[owner(key, self.key_space, P)],
                                []).append(key)

        def serve(request: bytes) -> bytes:
            # The value lists, in the asker's key order.
            return _codec.pack_blocks([
                _codec.pack_blocks(self._shard.get(k, []))
                for k in _codec.unpack_i64(request).tolist()
            ])

        replies = _rendezvous(
            self._ctx, self.team,
            {dest: _codec.pack_i64(asked) for dest, asked in by_owner.items()},
            lambda received: [serve(r) for _, r in received])
        result: dict[int, list[bytes]] = {}
        for dest, asked in by_owner.items():
            for key, block in zip(asked, _codec.unpack_blocks(replies[dest])):
                result[key] = _codec.unpack_blocks(block)
        return result

    def range_query(self, lo: int, hi: int) -> dict[int, list[bytes]]:
        """All pairs with lo <= key < hi, available on every team rank.

        Only owners whose intervals intersect the range are contacted; an
        empty range exchanges no messages at all.
        """
        P = len(self.team)
        if not (0 <= lo <= hi <= self.key_space):
            raise KeyError(f"range [{lo}, {hi}) outside key space "
                           f"[0, {self.key_space})")
        if lo == hi:
            return {}
        first = owner(lo, self.key_space, P)
        last = owner(hi - 1, self.key_space, P)
        targets = self.team[first:last + 1]

        def serve(request: bytes) -> bytes:
            qlo, qhi = _codec.unpack_i64(request).tolist()
            return _codec.pack_kv([
                (k, _codec.pack_blocks(self._shard[k]))
                for k in sorted(self._shard) if qlo <= k < qhi
            ])

        request = _codec.pack_i64([lo, hi])
        replies = _rendezvous(self._ctx, self.team,
                              {dest: request for dest in targets},
                              lambda received: [serve(r) for _, r in received])
        # Owners in team order hold ascending key blocks, so this is key order.
        result: dict[int, list[bytes]] = {}
        for dest in targets:
            for key, block in _codec.unpack_kv(replies[dest]):
                result[key] = _codec.unpack_blocks(block)
        return result

    # -- local introspection (tests, diagnostics) ------------------------------

    def local_items(self) -> list[tuple[int, list[bytes]]]:
        return [(k, list(vs)) for k, vs in sorted(self._shard.items())]

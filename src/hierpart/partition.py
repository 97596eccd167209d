"""Partition back-ends and the topology-driven hierarchical pipeline.

Two sequential back-ends are built in: recursive coordinate bisection over
element centroids, and a greedy graph-growing partitioner with one boundary
refinement sweep.  The pipeline reaches them through one call, ``_backend``,
on one summary of the elements to split (sorted ids and one centroid or
connectivity row per element) and their weight column; it returns the part
of each element as an owner array, so another back-end slots in at that one
place.  The graph back-end reads the CSR arrays of
the ``mesh.DualGraph`` the connectivity rows give.

Each rank's weights are its chunk's own column (``MeshChunk.weights``,
None for unit weights), so the carve, the merge, every payload and the
migration of a team split keep each weight with its element.  The public
entry points also take a column or an element -> weight mapping, set on
the chunk once, and give the result back in the form given.

The hierarchical pipeline mirrors the machine tree: mesh payloads are
collected up to the bootstrap level, split across the bootstrap groups, and
then pushed down level by level, so all traffic below a tree vertex stays
inside that vertex's rank range.  At each level the group leader carves its
chunk into one group per child leader with ``mesh.split_chunk``: finished
parts when it runs the back-end itself (approach 2), or equal id blocks that
the child leaders then split among themselves (approach 1).  A split among
several ranks (the bootstrap, approach 1, and in-group rebalancing) ships
each rank's summary to the team leader, runs the same back-end call there,
and migrates the elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

from . import _codec
from .mesh import (DualGraph, MeshChunk, adjacency_from_elements,
                   gather_mean, kind_info, merge_chunks, migrate, pack_chunk,
                   split_chunk, split_contiguous, unpack_chunk)
from .runtime import RankContext
from .topology import TopologyTree, aggregate, cascade

METHODS = ("rcb", "graph")


def check_method(method: str) -> None:
    """Reject a back-end name other than those of ``METHODS``."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def check_tolerance(tolerance: float) -> None:
    """Reject a part weight cap that is not a finite number >= 1.0."""
    if not (math.isfinite(tolerance) and tolerance >= 1.0):
        raise ValueError(f"tolerance must be a finite number >= 1.0, "
                         f"got {tolerance}")


@dataclass(frozen=True)
class HierarchicalPlan:
    """How to drive the hierarchy: where to start, how to split each level.

    ``method`` is a single back-end name or one name per step, step 0 being
    the bootstrap split and step i the split producing level
    ``bootstrap_level + i`` groups; a shorter list repeats its last name, and
    ``hierarchical_partition`` rejects a list longer than its splits.  ``approach`` 1 spreads equal element
    blocks over the next level's leaders and partitions among them; approach
    2 partitions at the current leader and hands finished parts down, which
    keeps sub-level phases free of partitioning messages entirely.
    """

    bootstrap_level: int = 0
    method: str | tuple[str, ...] = "rcb"
    approach: int = 2
    tolerance: float = 1.02

    def __post_init__(self):
        methods = (self.method,) if isinstance(self.method, str) else tuple(self.method)
        for m in methods:
            check_method(m)
        if self.approach not in (1, 2):
            raise ValueError(f"approach must be 1 or 2, got {self.approach}")
        check_tolerance(self.tolerance)

    def method_for(self, step: int) -> str:
        if isinstance(self.method, str):
            return self.method
        return self.method[min(step, len(self.method) - 1)]


def _check_each_weight(ids: np.ndarray, weights: np.ndarray) -> None:
    """Raise ValueError naming the first element, in the order given, whose
    weight is not a finite positive number."""
    finite = np.isfinite(weights)
    bad = ~finite | (weights <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        what = "non-positive" if finite[i] else "non-finite"
        raise ValueError(f"{what} weight {weights[i]} on element {ids[i]}")


def _check_weights(ids: np.ndarray, weights: np.ndarray, k: int) -> None:
    """:func:`_check_each_weight`, then raise ValueError when the total
    times the part count ``k`` is not a float64: a cut aims at the total
    times a part count below k."""
    _check_each_weight(ids, weights)
    with np.errstate(over="ignore"):
        total = weights.sum()
        if not np.isfinite(total * k):
            raise ValueError(f"weights total {total:g} beyond the float64 "
                             f"range when split {k} ways")


# -- recursive coordinate bisection ----------------------------------------------

def rcb(ids: Sequence[int], points: np.ndarray, weights: np.ndarray | None,
        k: int, m: int = 1) -> dict[int, int]:
    """Recursive coordinate bisection into parts 0..k-1.

    Splits along the axis of largest extent at the weighted median, sending
    weight fraction floor(k/2)/k to the low side.  Points are ordered by
    (coordinate, id) so equal coordinates break toward lower ids on the low
    side, making the split a pure function of the input set.  Every part
    gets at least ``m`` points, whatever the weights.  The result maps each
    (distinct) id to its part, in the order of ``ids``.

    Each axis is sorted once per call, by (coordinate, id).  A bisection
    stable-filters every axis order into its two sides, so each side keeps
    the restriction of the call's order, which is the order a sort of the
    side alone gives; an extent is the last minus the first coordinate of
    its axis order.
    """
    ids = np.asarray(ids, dtype=np.int64)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(ids) != len(points) or not points.shape[1]:
        raise ValueError("points must be (n, dim) aligned with ids, dim >= 1")
    if k < 1:
        raise ValueError(f"part count must be >= 1, got {k}")
    if weights is None:
        weights = np.ones(len(ids), dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != ids.shape:
            raise ValueError("weights must align with ids")
        _check_weights(ids, weights, k)

    part = np.zeros(len(ids), dtype=np.int64)
    low = np.zeros(len(ids), dtype=bool)    # the side of the current cut

    def recurse(orders: Sequence[np.ndarray], parts: int,
                offset: int) -> None:
        if parts == 1:
            part[orders[0]] = offset
            return
        size = len(orders[0])
        if size < parts * m:
            raise ValueError(f"too few points: {size} left for {parts} "
                             f"parts of at least {m} each")
        low_parts = parts // 2
        extents = np.array([points[o[-1], a] - points[o[0], a]
                            for a, o in enumerate(orders)])
        axis = int(np.argmax(extents))
        s = orders[axis]
        cum = np.cumsum(weights[s])
        target = cum[-1] * low_parts / parts
        i = int(np.searchsorted(cum, target, side="left"))
        # Each side keeps at least m points per part it must fill.  A
        # prefix's distance to the target falls, then rises, so clamping
        # the two counts around the target gives the nearest feasible one.
        lo, hi = low_parts * m, s.size - (parts - low_parts) * m
        count = min({min(max(c, lo), hi) for c in (i, i + 1)},
                    key=lambda c: (abs(cum[c - 1] - target), c))
        low[s[:count]] = True
        low[s[count:]] = False
        lows, highs = zip(*((s[:count], s[count:]) if a == axis else
                            (o[low[o]], o[~low[o]])
                            for a, o in enumerate(orders)))
        recurse(lows, low_parts, offset)
        recurse(highs, parts - low_parts, offset + low_parts)

    if k > 1:
        recurse([np.lexsort((ids, points[:, a]))
                 for a in range(points.shape[1])], k, 0)
    return dict(zip(ids.tolist(), part.tolist()))


# -- greedy graph growing --------------------------------------------------------

def graph_partition(adjacency: Mapping[int, Sequence[int]],
                    weights: Mapping[int, float] | np.ndarray | None,
                    k: int, tolerance: float = 1.02, m: int = 1
                    ) -> dict[int, int]:
    """Greedy graph growing into k parts plus one boundary refinement sweep.

    Seeds are spread farthest-point style over BFS distance: the first is the
    lowest vertex id, each next one the vertex farthest from all seeds so far
    (an unreachable vertex counts as farthest), ties going to the lowest id.
    Parts grow one at a time: part p absorbs its best-connected frontier
    vertex, the one maximising (2 * neighbours in p - degree, -id), until it
    reaches its weight target (remaining weight over remaining parts) and
    holds at least ``m`` vertices, leaving ``m`` for every later part; the
    last part takes whatever is left.  A part whose seed is already taken
    starts from the unassigned vertex farthest from every assigned one, and
    an empty frontier continues at the lowest unassigned id.  The sweep
    moves a boundary vertex to a neighboring part only when that strictly
    reduces the edge cut, keeps the target part within tolerance and leaves
    the source part at least ``m`` vertices, so the cut never increases.

    ``adjacency`` is a DualGraph or a mapping ``DualGraph.of`` converts;
    ``weights`` map ids to weights or align with a DualGraph's ids.  The
    result maps ids, ascending, to parts.  The grower runs on the graph's
    rows as index lists in id order (one argsort when the ids are not).
    Each part grows from a fresh min-heap keyed (degree - 2 * neighbours in
    p, index); a vertex joining p re-pushes only its unassigned neighbours,
    and stale entries are dropped when popped: O(E log V) in all.  One level
    BFS places each seed after the first and one restarts each taken seed,
    O(k (V + E)).  Without weights the last part takes what is left without
    growing or a seed: unit loads sum exactly in any order.  One array pass
    over the CSR rows finds the sweep's boundary.
    """
    n = len(adjacency)
    if k < 1 or k * m > n:
        raise ValueError(f"part count {k} outside 1..{n // m}")
    graph = DualGraph.of(adjacency)
    order, index, nbrs = np.arange(n), np.arange(n), graph.adjncy
    if (graph.ids[1:] < graph.ids[:-1]).any():
        # Neighbour positions become id-order indices, so rows stay sorted.
        order = np.argsort(graph.ids, kind="stable")
        index[order] = np.arange(n)
        nbrs = index[nbrs]
    vertices = graph.ids[order].tolist()
    if weights is None:
        w = [1.0] * n
    else:
        if isinstance(weights, Mapping):
            column = np.array([weights[v] for v in vertices], dtype=np.float64)
        else:
            column = np.asarray(weights, dtype=np.float64)[order]
        _check_weights(graph.ids[order], column, k)
        w = column.tolist()
    if k == 1:
        return {v: 0 for v in vertices}

    adj = _neighbour_lists(graph.xadj, nbrs, order)
    seeds = _spread_seeds(adj, k - 1 if weights is None else k)
    part, load, count = [-1] * n, [0.0] * k, [0] * k
    left, lowest, remaining_weight = n, 0, sum(w)
    # Heap codes (deg - 2 * neighbours in p) * n + i order by key, then index.
    base = (np.diff(graph.xadj)[order] * n + np.arange(n)).tolist()
    step = 2 * n

    for p, seed in enumerate(seeds):
        if part[seed] >= 0:
            seed = _farthest_unassigned(adj, part)
        target = remaining_weight / (k - p)
        now = base.copy()   # each vertex's latest heap code for part p
        heap = [now[seed]]
        # The weight target never starves a later part of its m vertices.
        room = left - (k - 1 - p) * m
        got, size = 0.0, 0
        while size < room and (p == k - 1 or size < m or got < target):
            while heap:
                code = heappop(heap)
                v = code % n
                # Skip taken vertices and entries pushed before the latest.
                if part[v] < 0 and code == now[v]:
                    break
            else:
                # Empty frontier: continue at the lowest unassigned index.
                while part[lowest] >= 0:
                    lowest += 1
                v = lowest
            part[v] = p
            got += w[v]
            size += 1
            for u in adj[v]:
                if part[u] < 0:
                    now[u] -= step
                    heappush(heap, now[u])
        load[p], count[p] = got, size
        left -= size
        remaining_weight -= got

    owner = np.array(part)
    owner[owner < 0] = k - 1    # without weights, every vertex left
    part = owner.tolist()
    load[-1] += left
    count[-1] += left
    rows = np.repeat(index, np.diff(graph.xadj))
    cut_ends = np.bincount(rows[owner[nbrs] != owner[rows]], minlength=n)
    _refine_once(np.flatnonzero(cut_ends).tolist(), adj, part, w, load, count,
                 k, tolerance, m)
    return dict(zip(vertices, part))


def _neighbour_lists(xadj: np.ndarray, adjncy: np.ndarray,
                     order: np.ndarray) -> Sequence[list[int]]:
    """The neighbour list of CSR row ``order[i]`` at index i.

    The rows of one degree are gathered as one (rows, degree) array and
    converted by one ``tolist``, so the conversion costs one call per
    degree rather than a slice per row; one ``itemgetter`` then puts the
    lists in ``order``."""
    degree = np.diff(xadj)[order]
    by_degree = np.argsort(degree, kind="stable")
    lists: list[list[int]] = []
    start = 0
    for d, count in enumerate(np.bincount(degree).tolist()):
        if count:
            rows = order[by_degree[start:start + count]]
            lists += adjncy[xadj[rows][:, None] + np.arange(d)].tolist()
            start += count
    at = np.empty(len(order), dtype=np.int64)
    at[by_degree] = np.arange(len(order))
    return itemgetter(*at.tolist())(lists) if len(lists) > 1 else lists


def _bfs(adj: list[list[int]], sources: list[int], dist: list[float]) -> None:
    """Lower ``dist`` in place to the hop distance from ``sources``.

    A level only expands through vertices whose distance it lowers; since
    ``dist`` is itself a minimum of BFS distances, nothing beyond a vertex
    that is not lowered can be lowered either, so the result is
    min(dist, distance from sources) exactly.
    """
    for s in sources:
        dist[s] = 0
    frontier = sources
    level = 0
    while frontier:
        level += 1
        reached = []
        for v in frontier:
            for u in adj[v]:
                if dist[u] > level:
                    dist[u] = level
                    reached.append(u)
        frontier = reached


def _spread_seeds(adj: list[list[int]], k: int) -> list[int]:
    """k seed indices: index 0, then each vertex farthest from all seeds
    so far (the first maximum, so ties go to the lowest index)."""
    mindist = [float("inf")] * len(adj)
    seeds = [0]
    while len(seeds) < k:
        _bfs(adj, seeds[-1:], mindist)
        # Seeds sit at distance 0 and every other vertex at 1 or more.
        seeds.append(mindist.index(max(mindist)))
    return seeds


def _farthest_unassigned(adj: list[list[int]], part: list[int]) -> int:
    """Unassigned index with the largest BFS distance to any assigned one."""
    dist = [float("inf")] * len(part)
    _bfs(adj, [i for i, p in enumerate(part) if p >= 0], dist)
    # Assigned indices stay at 0 and unassigned ones reach 1 or more.
    return dist.index(max(dist))


def _refine_once(vertices, adj, part, w, load, count, k, tolerance,
                 m=1) -> None:
    total = sum(load)
    cap = tolerance * total / k
    # The boundary is fixed before any move.  Until it or a neighbour
    # moves, a vertex keeps the links it starts with, and it can gain only
    # if some other part holds more of them than its own, which needs
    # more than half of them outside; the others are skipped then.
    boundary, hopeful = [], []
    for v in vertices:
        around = [part[u] for u in adj[v]]
        inside = around.count(part[v])
        if inside < len(around):
            boundary.append(v)
            hopeful.append(2 * inside < len(around))
    touched = set()     # vertices that moved or have a neighbour that did
    for v, hope in zip(boundary, hopeful):
        if not hope and v not in touched:
            continue
        p = part[v]
        if count[p] <= m:
            continue
        links: dict[int, int] = {}
        for u in adj[v]:
            q = part[u]
            links[q] = links.get(q, 0) + 1
        internal = links.get(p, 0)
        best_q, best_gain = None, 0
        for q in sorted(links):
            if q == p:
                continue
            gain = links[q] - internal
            if gain > best_gain and load[q] + w[v] <= cap:
                best_q, best_gain = q, gain
        if best_q is not None:
            part[v] = best_q
            load[p] -= w[v]
            load[best_q] += w[v]
            count[p] -= 1
            count[best_q] += 1
            touched.add(v)
            touched.update(adj[v])


# -- hierarchical pipeline ----------------------------------------------------------

_WEIGHTS_NONE = 0
_WEIGHTS_SOME = 1
# What a leader sends itself in place of the piece it keeps.
_KEPT = b""

Weights = Mapping[int, float] | np.ndarray | None


def _column(weights: Mapping[int, float], ids: Sequence[int]) -> np.ndarray:
    """The float64 weight of each of ``ids``; an id ``weights`` misses
    raises ValueError naming it."""
    try:
        return np.fromiter(map(weights.__getitem__, ids), dtype=np.float64,
                           count=len(ids))
    except KeyError as err:
        raise ValueError(f"no weight for element {err.args[0]}") from None


def _with_weights(chunk: MeshChunk, weights: Weights) -> MeshChunk:
    """The chunk with ``weights`` as its column, or as it is for None: an
    array is taken as aligned with the element ids already, a mapping is
    read once per element.  Each weight the chunk then carries must be
    finite and positive, so a bad one is refused on the rank that holds
    it, before any traffic."""
    if isinstance(weights, Mapping):
        chunk = replace(chunk, weights=_column(weights,
                                               chunk.element_ids.tolist()))
    elif weights is not None:
        column = np.asarray(weights, dtype=np.float64)
        if column.shape != chunk.element_ids.shape:
            raise ValueError(f"{column.shape} weights for {chunk.n_elements} "
                             f"elements")
        chunk = replace(chunk, weights=column)
    if chunk.weights is not None:
        _check_each_weight(chunk.element_ids, chunk.weights)
    return chunk


def _as_given(chunk: MeshChunk, given: Weights) -> Weights:
    """The chunk's column in the form ``given`` came in: a mapping becomes a
    dict in ascending id order."""
    if chunk.weights is None or not isinstance(given, Mapping):
        return chunk.weights
    return dict(zip(chunk.element_ids.tolist(), chunk.weights.tolist()))


def _pack_payload(chunk: MeshChunk) -> bytes:
    """The chunk and its weight column in the chunk's wire order, ascending
    id."""
    return _codec.pack_blocks([
        pack_chunk(chunk),
        _codec.pack_i64([_WEIGHTS_NONE if chunk.weights is None
                         else _WEIGHTS_SOME]),
        _codec.pack_weights([] if chunk.weights is None else chunk.weights),
    ])


def _unpack_payload(data: bytes) -> MeshChunk:
    chunk_raw, flag_raw, wvals_raw = _codec.unpack_blocks(data)
    chunk = unpack_chunk(chunk_raw)
    if _codec.unpack_one_i64(flag_raw) == _WEIGHTS_SOME:
        chunk.weights = _codec.unpack_weights(wvals_raw)
    return chunk


def _backend(kind: str, method: str, ids: np.ndarray, rows: np.ndarray,
             weights: np.ndarray | None, k: int, tolerance: float, where: str,
             m: int) -> np.ndarray:
    """Run the named back-end on a summary, at least ``m`` elements per
    part; returns the part of each element, aligned with ``ids``.  Errors
    are prefixed ``where``."""
    try:
        if method == "rcb":
            part_of = rcb(ids, rows, weights, k, m)
        else:
            part_of = graph_partition(adjacency_from_elements(ids, rows, kind),
                                      weights, k, tolerance, m)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from err
    # rcb keys its result in the order of ids, graph_partition ascending.
    part = np.fromiter(part_of.values(), dtype=np.int64, count=len(ids))
    if method == "rcb":
        return part
    owner = np.empty(len(ids), dtype=np.int64)
    owner[np.argsort(ids, kind="stable")] = part
    return owner


def _team_partition(ctx: RankContext, team: Sequence[int], chunk: MeshChunk,
                    method: str, tolerance: float, where: str,
                    remap_overlap: bool = False, m: int = 1) -> MeshChunk:
    """K-way split of the union of the team's chunks, one part per team rank.

    Stand-in for a distributed partitioner back-end: each rank's summary
    (``_team_assignment``: its ids, its geometry for rcb or connectivity for
    graph, and its weights) travels to the team leader, the leader runs the
    back-end on the union, and each rank migrates its elements straight to
    their new owners.  With ``remap_overlap`` the part labels are matched to
    the ranks already holding most of each part, which keeps already-good
    distributions in place, and a split whose largest part load is not
    below the largest member load today is dropped: every element stays.
    Each part gets at least ``m`` elements.
    """
    team = tuple(sorted(team))
    if len(team) == 1:
        return chunk

    # The summaries, gathered payloads and replies are freed with
    # _team_assignment's frame, so none of them is held through the
    # migration, where the team's memory peaks.
    dest = _team_assignment(ctx, team, chunk, method, tolerance, where,
                            remap_overlap, m)
    return migrate(ctx, chunk, dest, team=team)


def _team_assignment(ctx, team, chunk, method, tolerance, where,
                     remap_overlap, m) -> np.ndarray:
    """New owner of each local element, aligned with its ids: the rank's
    summary goes to the team leader, which runs the back-end on the union
    and replies to each rank.

    The summary is the element ids in gap form, the rows the back-end reads
    and the weights.  For graph the rows are the connectivity.  For rcb they
    are the chunk's coordinates and its connectivity as rows of them, from
    which the leader computes the centroids: a 768-tet chunk of a tet box
    holds about 225 nodes, so this takes 8,505 bytes against the centroids'
    18,432.
    """
    if method == "rcb":
        rows = _codec.pack_blocks([_codec.pack_f64(chunk.coords),
                                   _codec.pack_i64(chunk._node_rows())])
    else:
        rows = _codec.pack_i64(chunk.conn)
    gathered = aggregate(ctx, team, _codec.pack_blocks([
        _codec.pack_gaps(chunk.element_ids), rows,
        _codec.pack_weights([] if chunk.weights is None else chunk.weights),
    ]))
    replies = None
    if gathered is not None:
        replies = _leader_assign(gathered, team, chunk.kind,
                                 chunk.weights is not None, method, tolerance,
                                 where, remap_overlap, m)
    # The reply holds the new owners in the order of this rank's ids.
    return _codec.unpack_i64(cascade(ctx, team, replies))


def _unpack_rows(kind: str, method: str, blocks: list[bytes]) -> np.ndarray:
    """The rows a back-end reads from the members' summary blocks, one
    member after another: for graph the connectivity, for rcb the
    centroids, bit for bit those ``MeshChunk.centroids`` gives each member.

    The centroids come from one ``gather_mean`` over every member's
    coordinates, each member's node rows offset by the coordinate rows of
    the members before it; each centroid still sums its own nodes in
    connectivity order."""
    _, dim, npe, _ = kind_info(kind)
    if method != "rcb":
        return np.concatenate([_codec.unpack_i64(b) for b in blocks]
                              ).reshape(-1, npe)
    coords, rows = [], []
    offset = 0
    for block in blocks:
        xyz, at = _codec.unpack_blocks(block)
        coords.append(_codec.unpack_f64(xyz).reshape(-1, dim))
        rows.append(_codec.unpack_i64(at).reshape(-1, npe) + offset)
        offset += len(coords[-1])
    return gather_mean(np.concatenate(coords), np.concatenate(rows))


def _leader_assign(gathered, team, kind, has_weights, method, tolerance,
                   where, remap_overlap, m) -> list[bytes]:
    """Split the union at the team leader, one part per member; each
    member's reply is the new owner of each of its elements, in the order
    the member sent them."""
    blocks = [_codec.unpack_blocks(payload) for payload in gathered]
    id_blocks = [_codec.unpack_gaps(b[0]) for b in blocks]
    ids = np.concatenate(id_blocks)
    rows = _unpack_rows(kind, method, [b[1] for b in blocks])
    weights = np.concatenate([_codec.unpack_weights(b[2]) for b in blocks]) \
        if has_weights else None
    part = _backend(kind, method, ids, rows, weights, len(team), tolerance,
                    where, m)

    # aggregate returns one payload per member, in member order.
    sizes = [len(block) for block in id_blocks]
    members = np.array(team, dtype=np.int64)
    if not remap_overlap:
        dest = members[part]
    else:
        holder = np.repeat(np.arange(len(team)), sizes)
        # A split whose largest part is no lighter than the largest member
        # load today cannot help, so every element stays where it is.
        if _max_load(part, weights, len(team)) >= _max_load(
                holder, weights, len(team)):
            dest = members[holder]
        else:
            dest = _overlap_remap(part, holder, team)[part]
    return [_codec.pack_i64(d)
            for d in np.split(dest, np.cumsum(sizes)[:-1])]


def _max_load(owner: np.ndarray, weights: np.ndarray | None, k: int) -> float:
    """The largest load of parts 0..k-1: weights added in array order, or
    element counts."""
    return float(np.bincount(owner, weights=weights, minlength=k).max())


def _overlap_remap(part: np.ndarray, holder: np.ndarray,
                   team: Sequence[int]) -> np.ndarray:
    """Match part labels to team ranks so overlapping pairs stay together.

    ``part`` and ``holder`` give each element's part label and the team
    index of the rank holding it now, both in 0..k-1.  Pairs are matched
    greedily by falling overlap, ties to the lower (part, rank); parts and
    ranks left over pair up in ascending order.  Returns the rank of each
    part label.
    """
    k = len(team)
    overlap = np.bincount(part * k + holder, minlength=k * k)
    pairs = np.flatnonzero(overlap)
    order = pairs[np.lexsort((pairs, -overlap[pairs]))]
    assigned: dict[int, int] = {}
    used: set[int] = set()
    for p, r in zip((order // k).tolist(), (order % k).tolist()):
        if p not in assigned and r not in used:
            assigned[p] = r
            used.add(r)
    free_parts = [p for p in range(k) if p not in assigned]
    free_ranks = [r for r in range(k) if r not in used]
    assigned.update(zip(free_parts, free_ranks))
    members = np.array(team, dtype=np.int64)
    return members[[assigned[p] for p in range(k)]]


def hierarchical_partition(ctx: RankContext, tree: TopologyTree,
                           chunk: MeshChunk, plan: HierarchicalPlan,
                           weights: Weights = None,
                           ) -> tuple[MeshChunk, Weights]:
    """Partition the global mesh over all leaf ranks, level by level.

    Collective over all ranks.  Phase labels on the ledger: ``collect``
    (payloads move up to the bootstrap groups' leaders), ``bootstrap`` (the
    first split, across bootstrap leaders), then ``level<i>`` for the split
    that creates level-i groups.  ``weights`` is a float64 column aligned
    with the chunk's element ids or a mapping from element id to weight,
    and becomes the chunk's column; None keeps the chunk's own column (None
    for unit weights).  Returns this rank's final chunk and its column in
    the form given: the array itself, or a dict in ascending id order.
    """
    given, chunk = weights, _with_weights(chunk, weights)
    bpl = plan.bootstrap_level
    my_group = tree.group_of(ctx.rank, bpl)
    splits = tree.n_levels - bpl
    if not isinstance(plan.method, str) and len(plan.method) > splits:
        raise ValueError(f"method lists {len(plan.method)} back-ends, one per "
                         f"split, but the hierarchy makes only {splits}")
    kind = chunk.kind

    # A leader keeps its own piece as it is: it sends itself a placeholder.
    ctx.set_phase("collect")
    gathered = aggregate(ctx, my_group, _KEPT if ctx.rank == my_group[0]
                         else _pack_payload(chunk))
    chunk = MeshChunk.empty(kind) if gathered is None else merge_chunks(
        kind, [chunk, *map(_unpack_payload, gathered[1:])])

    # Every split gives each child group at least one element per leaf.
    ctx.set_phase("bootstrap")
    leaders = range(0, tree.total_ranks, tree.group_size(bpl))
    if ctx.rank in leaders:
        chunk = _team_partition(
            ctx, leaders, chunk, plan.method_for(0), plan.tolerance,
            where="bootstrap split", m=tree.group_size(bpl))

    for level in range(bpl, tree.n_levels - 1):
        ctx.set_phase(f"level{level + 1}")
        step = level - bpl + 1
        method = plan.method_for(step)
        leaves = tree.group_size(level + 1)
        kids = tree.group_of(ctx.rank, level)[::leaves]
        if ctx.rank not in kids:
            continue
        where = (f"level {level + 1} split of {tree.level_name(level)} "
                 f"group {tree.group_index(ctx.rank, level)}")

        # The group leader carves its chunk into one group per child leader:
        # finished parts (approach 2) or equal id blocks the child leaders
        # then partition among themselves (approach 1).  It keeps the first
        # piece as it is, node rows and carriers included.
        if ctx.rank == kids[0]:
            if plan.approach == 2:
                rows = chunk.centroids()[1] if method == "rcb" else chunk.conn
                part = _backend(kind, method, chunk.element_ids, rows,
                                chunk.weights, len(kids), plan.tolerance,
                                where, leaves)
                subs = split_chunk(chunk, part, len(kids))
            else:
                subs = split_contiguous(chunk, len(kids))
            chunk, *rest = subs
            cascade(ctx, kids, [_KEPT, *map(_pack_payload, rest)])
        else:
            chunk = _unpack_payload(cascade(ctx, kids, None))
        if plan.approach == 1:
            chunk = _team_partition(ctx, kids, chunk, method, plan.tolerance,
                                    where, m=leaves)
    return chunk, _as_given(chunk, given)

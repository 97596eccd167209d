"""Partition back-ends and the topology-driven hierarchical pipeline.

Two sequential back-ends are built in: recursive coordinate bisection over
element centroids, and a greedy graph-growing partitioner with one boundary
refinement sweep.  Both fill the same request shape a heavyweight external
partitioner would, so one can be slotted in later without touching the
pipeline.

The hierarchical pipeline mirrors the machine tree: mesh payloads are
collected up to the bootstrap level, split across the bootstrap groups, and
then pushed down level by level, so all traffic below a tree vertex stays
inside that vertex's rank range.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _codec
from .mesh import (MeshChunk, adjacency_from_elements, exchange_keyed_values,
                   merge_chunks, migrate, pack_chunk, split_ids_evenly,
                   subset_chunk, unpack_chunk)
from .runtime import RankContext
from .topology import TopologyTree, aggregate, cascade, child_leaders, level_groups

METHODS = ("rcb", "graph")


@dataclass(frozen=True)
class HierarchicalPlan:
    """How to drive the hierarchy: where to start, how to split each level.

    ``method`` is a single back-end name or one name per step, step 0 being
    the bootstrap split and step i the split producing level
    ``bootstrap_level + i`` groups.  ``approach`` 1 spreads equal element
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
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
        if self.approach not in (1, 2):
            raise ValueError(f"approach must be 1 or 2, got {self.approach}")
        if self.tolerance < 1.0:
            raise ValueError(f"tolerance must be >= 1.0, got {self.tolerance}")

    def method_for(self, step: int) -> str:
        if isinstance(self.method, str):
            return self.method
        return self.method[min(step, len(self.method) - 1)]


# -- recursive coordinate bisection ----------------------------------------------

def rcb(ids: Sequence[int], points: np.ndarray, weights: np.ndarray | None,
        k: int, tolerance: float = 1.02) -> dict[int, int]:
    """Recursive coordinate bisection into parts 0..k-1.

    Splits along the axis of largest extent at the weighted median, sending
    weight fraction floor(k/2)/k to the low side.  Points are ordered by
    (coordinate, id) so equal coordinates break toward lower ids on the low
    side, making the split a pure function of the input set.
    """
    ids = np.asarray(ids, dtype=np.int64)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(ids) != len(points):
        raise ValueError("points must be (n, dim) aligned with ids")
    if k < 1:
        raise ValueError(f"part count must be >= 1, got {k}")
    if weights is None:
        weights = np.ones(len(ids), dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != ids.shape:
            raise ValueError("weights must align with ids")
        if np.any(weights <= 0):
            bad = int(ids[np.argmax(weights <= 0)])
            raise ValueError(f"non-positive weight on element {bad}")

    out: dict[int, int] = {}

    def recurse(sel: np.ndarray, parts: int, offset: int) -> None:
        if parts == 1:
            for i in sel:
                out[int(ids[i])] = offset
            return
        if sel.size < parts:
            raise ValueError(f"empty point set with {parts} parts remaining "
                             f"({sel.size} points left)")
        low_parts = parts // 2
        coords = points[sel]
        extents = coords.max(axis=0) - coords.min(axis=0)
        axis = int(np.argmax(extents))
        order = np.lexsort((ids[sel], coords[:, axis]))
        s = sel[order]
        cum = np.cumsum(weights[s])
        target = cum[-1] * low_parts / parts
        i = int(np.searchsorted(cum, target, side="left"))
        # Each side keeps at least one point per part it must fill.  A
        # prefix's distance to the target falls, then rises, so clamping
        # the two counts around the target gives the nearest feasible one.
        lo, hi = low_parts, s.size - (parts - low_parts)
        count = min({min(max(c, lo), hi) for c in (i, i + 1)},
                    key=lambda c: (abs(cum[c - 1] - target), c))
        recurse(s[:count], low_parts, offset)
        recurse(s[count:], parts - low_parts, offset + low_parts)

    recurse(np.arange(len(ids)), k, 0)
    return out


# -- greedy graph growing --------------------------------------------------------

def graph_partition(adjacency: Mapping[int, Sequence[int]],
                    weights: Mapping[int, float] | None,
                    k: int, tolerance: float = 1.02) -> dict[int, int]:
    """Greedy graph growing into k parts plus one boundary refinement sweep.

    Seeds are spread farthest-point style over BFS distance: the first is the
    lowest vertex id, each next one the vertex farthest from all seeds so far
    (an unreachable vertex counts as farthest), ties going to the lowest id.
    Parts grow one at a time: part p absorbs its best-connected frontier
    vertex, the one maximising (2 * neighbours in p - degree, -id), until it
    reaches its weight target (remaining weight over remaining parts); then
    the next part starts, and the last part takes whatever is left.  A part
    whose seed is already taken starts from the unassigned vertex farthest
    from every assigned one, and an empty frontier continues at the lowest
    unassigned id.  The refinement sweep moves a boundary vertex to a
    neighboring part only when that strictly reduces the edge cut and keeps
    the target part within tolerance, so the cut never increases.

    Vertex ids are integers.  They are mapped once to indices 0..n-1 in id
    order, with sorted, deduplicated neighbor index lists.  Each part grows
    from a fresh min-heap keyed (degree - 2 * neighbours in p, index), whose
    minimum is the maximum above; a vertex joining p re-pushes only its
    unassigned neighbours, and taken or outdated entries are dropped when
    popped, so growth costs O(E log V) overall.  Distances come from level
    BFS over the index lists: k - 1 passes place the seeds, each expanding
    only where the new seed is closer than all earlier ones, and one more
    pass runs per taken seed, at most O(k (V + E)) in all.
    """
    vertices = sorted(adjacency)
    n = len(vertices)
    if k < 1 or k > n:
        raise ValueError(f"part count {k} outside 1..{n}")
    adj = _index_lists(adjacency, vertices)
    if weights is None:
        w = [1.0] * n
    else:
        w = [float(weights[v]) for v in vertices]
    if k == 1:
        return {v: 0 for v in vertices}

    deg = [len(nbrs) for nbrs in adj]
    seeds = _spread_seeds(adj, k)
    part = [-1] * n
    load = [0.0] * k
    count = [0] * k
    left = n
    lowest = 0
    remaining_weight = sum(w)

    for p in range(k):
        seed = seeds[p]
        if part[seed] >= 0:
            seed = _farthest_unassigned(adj, part)
        target = remaining_weight / (k - p)
        # Heap codes (deg - 2 * inside) * n + i order by key, then index.
        inside: dict[int, int] = {}
        heap = [deg[seed] * n + seed]
        # The weight target never starves a later part of its one vertex.
        keep = 0 if p == k - 1 else k - 1 - p
        while left > keep and (p == k - 1 or load[p] < target):
            while heap:
                code = heapq.heappop(heap)
                v = code % n
                # Skip taken vertices, and entries pushed before v's
                # inside count last rose.
                if part[v] < 0 and \
                        code == (deg[v] - 2 * inside.get(v, 0)) * n + v:
                    break
            else:
                # Empty frontier: continue at the lowest unassigned index.
                while part[lowest] >= 0:
                    lowest += 1
                v = lowest
            part[v] = p
            load[p] += w[v]
            count[p] += 1
            left -= 1
            for u in adj[v]:
                if part[u] < 0:
                    c = inside.get(u, 0) + 1
                    inside[u] = c
                    heapq.heappush(heap, (deg[u] - 2 * c) * n + u)
        remaining_weight -= load[p]

    _refine_once(range(n), adj, part, w, load, count, k, tolerance)
    return dict(zip(vertices, part))


def _index_lists(adjacency: Mapping[int, Sequence[int]], vertices: list[int]
                 ) -> list[list[int]]:
    """Sorted neighbor index lists over ``vertices``, self-loops dropped.

    The first (v, u) pair, in sorted order, whose u is no vertex or does not
    list v back is an error.
    """
    index = {v: i for i, v in enumerate(vertices)}
    nbr_sets = [set(adjacency[v]) for v in vertices]
    adj = []
    for v, nbrs in zip(vertices, nbr_sets):
        row = []
        for u in sorted(nbrs):
            if u == v:
                continue
            j = index.get(u)
            if j is None or v not in nbr_sets[j]:
                raise ValueError(f"adjacency not symmetric at edge ({v}, {u})")
            row.append(j)
        adj.append(row)
    return adj


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
    seeds: list[int] = []
    while True:
        # All inf picks index 0; after that, seeds sit at distance 0 and
        # every other vertex at 1 or more.
        seeds.append(mindist.index(max(mindist)))
        if len(seeds) == k:
            return seeds
        _bfs(adj, seeds[-1:], mindist)


def _farthest_unassigned(adj: list[list[int]], part: list[int]) -> int:
    """Unassigned index with the largest BFS distance to any assigned one."""
    dist = [float("inf")] * len(part)
    _bfs(adj, [i for i, p in enumerate(part) if p >= 0], dist)
    # Assigned indices stay at 0 and unassigned ones reach 1 or more.
    return dist.index(max(dist))


def _refine_once(vertices, adj, part, w, load, count, k, tolerance) -> None:
    total = sum(load)
    cap = tolerance * total / k
    boundary = [v for v in vertices
                if any(part[u] != part[v] for u in adj[v])]
    for v in boundary:
        p = part[v]
        if count[p] <= 1:
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


# -- hierarchical pipeline ----------------------------------------------------------

_WEIGHTS_NONE = 0
_WEIGHTS_SOME = 1


def _pack_payload(chunk: MeshChunk, weights: Mapping[int, float] | None) -> bytes:
    if weights is None:
        wflag, wids, wvals = _WEIGHTS_NONE, [], []
    else:
        wflag = _WEIGHTS_SOME
        wids = sorted(int(e) for e in chunk.elements)
        wvals = [float(weights[e]) for e in wids]
    return _codec.pack_blocks([
        pack_chunk(chunk),
        _codec.pack_i64([wflag]),
        _codec.pack_i64(wids),
        _codec.pack_f64(wvals),
    ])


def _unpack_payload(data: bytes) -> tuple[MeshChunk, dict[int, float] | None]:
    chunk_raw, flag_raw, wids_raw, wvals_raw = _codec.unpack_blocks(data)
    chunk = unpack_chunk(chunk_raw)
    if int(_codec.unpack_i64(flag_raw)[0]) == _WEIGHTS_NONE:
        return chunk, None
    wids = _codec.unpack_i64(wids_raw)
    wvals = _codec.unpack_f64(wvals_raw)
    return chunk, {int(e): float(v) for e, v in zip(wids, wvals)}


def _local_partition(chunk: MeshChunk, weights: Mapping[int, float] | None,
                     k: int, method: str, tolerance: float, where: str
                     ) -> dict[int, int]:
    try:
        if method == "rcb":
            ids, pts = chunk.centroids()
            wv = None if weights is None else \
                np.array([weights[int(e)] for e in ids], dtype=np.float64)
            return rcb(ids, pts, wv, k, tolerance)
        adj = adjacency_from_elements(chunk.elements, chunk.kind)
        return graph_partition(adj, weights, k, tolerance)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from err


def _team_partition(ctx: RankContext, team: Sequence[int], chunk: MeshChunk,
                    weights: Mapping[int, float] | None, k: int, method: str,
                    tolerance: float, where: str, remap_overlap: bool = False
                    ) -> tuple[MeshChunk, dict[int, float] | None]:
    """K-way split of the union of the team's chunks, one part per team rank.

    Stand-in for a distributed partitioner back-end: light per-element
    summaries (centroid or connectivity, plus weight) travel to the team
    leader, the leader runs the sequential method, and each rank migrates
    its elements straight to their new owners.  With ``remap_overlap`` the
    part labels are matched to the ranks already holding most of each part,
    which keeps already-good distributions in place.
    """
    team = tuple(sorted(team))
    if len(team) == 1:
        return chunk, dict(weights) if weights is not None else None
    if k != len(team):
        raise ValueError(f"need one part per team rank: k={k}, team={team}")

    eids = sorted(chunk.elements)
    if method == "rcb":
        ids_arr, pts = chunk.centroids()
        summary = _codec.pack_blocks([
            _codec.pack_i64(ids_arr),
            _codec.pack_f64(pts.ravel()),
            _pack_weight_vector(weights, eids),
        ])
    else:
        conn = [n for e in eids for n in chunk.elements[e]]
        summary = _codec.pack_blocks([
            _codec.pack_i64(eids),
            _codec.pack_i64(conn),
            _pack_weight_vector(weights, eids),
        ])

    gathered = aggregate(ctx, team, summary)
    replies = None
    if gathered is not None:
        replies = _leader_assign(ctx, gathered, team, chunk, weights, k,
                                 method, tolerance, where, remap_overlap)
    my_reply = cascade(ctx, team, replies)
    rids = _codec.unpack_i64(_codec.unpack_blocks(my_reply)[0])
    rdest = _codec.unpack_i64(_codec.unpack_blocks(my_reply)[1])
    dest_of = {int(e): int(d) for e, d in zip(rids, rdest)}

    new_chunk = migrate(ctx, chunk, dest_of, team=team)
    new_weights = None
    if weights is not None:
        packed = {e: _codec.pack_f64([weights[e]]) for e in eids}
        moved = exchange_keyed_values(ctx, packed, dest_of, team=team)
        new_weights = {e: float(_codec.unpack_f64(v)[0]) for e, v in moved.items()}
    return new_chunk, new_weights


def _pack_weight_vector(weights: Mapping[int, float] | None,
                        eids: Sequence[int]) -> bytes:
    if weights is None:
        return _codec.pack_f64([])
    return _codec.pack_f64([float(weights[e]) for e in eids])


def _leader_assign(ctx, gathered, team, chunk, weights, k, method, tolerance,
                   where, remap_overlap) -> list[bytes]:
    """Compute the k-way assignment at the team leader; build reply payloads."""
    all_ids: list[int] = []
    holder_of: dict[int, int] = {}
    pts_rows: list[np.ndarray] = []
    conn_rows: list[np.ndarray] = []
    wparts: list[np.ndarray] = []
    has_weights = weights is not None
    dim = chunk.dim
    npe = chunk.nodes_per_element
    for payload in gathered:
        ids_raw, data_raw, w_raw = _codec.unpack_blocks(payload.data)
        ids = _codec.unpack_i64(ids_raw)
        all_ids.extend(int(e) for e in ids)
        for e in ids:
            holder_of[int(e)] = payload.owner
        if method == "rcb":
            pts_rows.append(_codec.unpack_f64(data_raw).reshape(-1, dim))
        else:
            conn_rows.append(_codec.unpack_i64(data_raw).reshape(-1, npe))
        wparts.append(_codec.unpack_f64(w_raw))

    ids_arr = np.asarray(all_ids, dtype=np.int64)
    wvec = np.concatenate(wparts) if has_weights else None
    try:
        if method == "rcb":
            pts = np.vstack(pts_rows) if pts_rows else np.empty((0, dim))
            part_of = rcb(ids_arr, pts, wvec, k, tolerance)
        else:
            elements = {}
            for ids, rows in zip(
                    (_codec.unpack_i64(_codec.unpack_blocks(p.data)[0])
                     for p in gathered), conn_rows):
                for e, row in zip(ids, rows):
                    elements[int(e)] = tuple(int(x) for x in row)
            adj = adjacency_from_elements(elements, chunk.kind)
            wmap = None if wvec is None else \
                {int(e): float(v) for e, v in zip(ids_arr, wvec)}
            part_of = graph_partition(adj, wmap, k, tolerance)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from err

    if remap_overlap:
        rank_of_part = _overlap_remap(part_of, holder_of, team)
    else:
        rank_of_part = {p: team[p] for p in range(k)}

    replies: list[bytes] = []
    for member in team:
        mids = [e for e in all_ids if holder_of[e] == member]
        dests = [rank_of_part[part_of[e]] for e in mids]
        replies.append(_codec.pack_blocks([
            _codec.pack_i64(mids), _codec.pack_i64(dests),
        ]))
    return replies


def _overlap_remap(part_of: Mapping[int, int], holder_of: Mapping[int, int],
                   team: Sequence[int]) -> dict[int, int]:
    """Match part labels to team ranks so overlapping pairs stay together."""
    overlap: dict[tuple[int, int], int] = {}
    for e, p in part_of.items():
        key = (p, holder_of[e])
        overlap[key] = overlap.get(key, 0) + 1
    order = sorted(overlap.items(), key=lambda kv: (-kv[1], kv[0]))
    assigned: dict[int, int] = {}
    used: set[int] = set()
    for (p, r), _ in order:
        if p not in assigned and r not in used:
            assigned[p] = r
            used.add(r)
    free_parts = [p for p in range(len(team)) if p not in assigned]
    free_ranks = [r for r in team if r not in used]
    for p, r in zip(sorted(free_parts), sorted(free_ranks)):
        assigned[p] = r
    return assigned


def hierarchical_partition(ctx: RankContext, tree: TopologyTree,
                           chunk: MeshChunk, plan: HierarchicalPlan,
                           weights: Mapping[int, float] | None = None,
                           ) -> tuple[MeshChunk, dict[int, float] | None]:
    """Partition the global mesh over all leaf ranks, level by level.

    Collective over all ranks.  Phase labels on the ledger: ``collect``
    (payloads move up to the bootstrap groups' leaders), ``bootstrap`` (the
    first split, across bootstrap leaders), then ``level<i>`` for the split
    that creates level-i groups.  Returns this rank's final chunk and its
    element weights.
    """
    bpl = plan.bootstrap_level
    if not (0 <= bpl < tree.n_levels):
        raise ValueError(f"bootstrap level {bpl} outside 0..{tree.n_levels - 1}")
    kind = chunk.kind

    ctx.set_phase("collect")
    lg = level_groups(tree, bpl)
    my_group = lg.group_of(ctx.rank)
    gathered = aggregate(ctx, my_group, _pack_payload(chunk, weights))
    if gathered is not None:
        parts = [_unpack_payload(p.data) for p in gathered]
        chunk = merge_chunks(kind, [c for c, _ in parts])
        if any(w is not None for _, w in parts):
            weights = {}
            for _, wmap in parts:
                if wmap:
                    weights.update(wmap)
        else:
            weights = None
    else:
        chunk = MeshChunk(kind)
        weights = None

    ctx.set_phase("bootstrap")
    leaders = lg.leaders
    if ctx.rank in leaders and len(leaders) > 1:
        chunk, weights = _team_partition(
            ctx, leaders, chunk, weights, len(leaders), plan.method_for(0),
            plan.tolerance, where="bootstrap split")

    for level in range(bpl, tree.n_levels - 1):
        ctx.set_phase(f"level{level + 1}")
        step = level - bpl + 1
        method = plan.method_for(step)
        gidx = tree.group_index(ctx.rank, level)
        kids = child_leaders(tree, level, gidx)
        if ctx.rank not in kids:
            continue
        leader = kids[0]
        where = f"level {level + 1} split of {tree.level_name(level)} group {gidx}"

        if plan.approach == 2:
            payloads = None
            if ctx.rank == leader:
                part_of = _local_partition(chunk, weights, len(kids), method,
                                           plan.tolerance, where)
                payloads = _split_payloads(chunk, weights, part_of, len(kids))
            chunk, weights = _unpack_payload(cascade(ctx, kids, payloads))
        else:
            payloads = None
            if ctx.rank == leader:
                blocks = split_ids_evenly(list(chunk.elements), len(kids))
                payloads = [
                    _pack_payload(subset_chunk(chunk, block),
                                  _slice_weights(weights, block))
                    for block in blocks
                ]
            chunk, weights = _unpack_payload(cascade(ctx, kids, payloads))
            chunk, weights = _team_partition(ctx, kids, chunk, weights,
                                             len(kids), method, plan.tolerance,
                                             where)
    return chunk, weights


def _split_payloads(chunk: MeshChunk, weights, part_of: Mapping[int, int],
                    k: int) -> list[bytes]:
    groups: list[list[int]] = [[] for _ in range(k)]
    for e in sorted(chunk.elements):
        groups[part_of[e]].append(e)
    return [
        _pack_payload(subset_chunk(chunk, g), _slice_weights(weights, g))
        for g in groups
    ]


def _slice_weights(weights: Mapping[int, float] | None,
                   eids: Sequence[int]) -> dict[int, float] | None:
    if weights is None:
        return None
    return {int(e): float(weights[e]) for e in eids}

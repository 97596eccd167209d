"""graph_partition against the original greedy grower it replaced.

``oracle_graph_partition`` below is the first implementation of greedy graph
growing, kept verbatim apart from names: it rescans and re-scores the whole
frontier on every step and runs a full dict-based BFS per seed.  The heap
implementation must return the same dict or raise the same error on every
input.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpart import partition
from hierpart.mesh import local_dual_graph
from hierpart.meshgen import tet_box, triangle_grid
from hierpart.partition import graph_partition


# -- oracle: the original grower -------------------------------------------------

def oracle_graph_partition(adjacency, weights, k, tolerance=1.02):
    vertices = sorted(adjacency)
    n = len(vertices)
    if k < 1 or k > n:
        raise ValueError(f"part count {k} outside 1..{n}")
    adj = {v: sorted(set(adjacency[v]) - {v}) for v in vertices}
    for v, nbrs in adj.items():
        for u in nbrs:
            if u not in adj or v not in adj[u]:
                raise ValueError(f"adjacency not symmetric at edge ({v}, {u})")
    if weights is None:
        w = {v: 1.0 for v in vertices}
    else:
        w = {v: float(weights[v]) for v in vertices}
    if k == 1:
        return {v: 0 for v in vertices}

    seeds = oracle_spread_seeds(vertices, adj, k)
    part = {}
    load = [0.0] * k
    count = [0] * k
    unassigned = set(vertices)
    remaining_weight = sum(w.values())

    for p in range(k):
        seed = seeds[p]
        if seed not in unassigned:
            seed = oracle_farthest_unassigned(vertices, adj, unassigned)
        target = remaining_weight / (k - p)
        frontier = {seed}
        while len(unassigned) > (0 if p == k - 1 else k - 1 - p) and \
                (p == k - 1 or load[p] < target):
            frontier &= unassigned
            if frontier:
                v = oracle_best_frontier_vertex(frontier, adj, part, p)
            else:
                v = min(unassigned)
            part[v] = p
            load[p] += w[v]
            count[p] += 1
            unassigned.discard(v)
            frontier.update(u for u in adj[v] if u in unassigned)
        remaining_weight -= load[p]

    oracle_refine_once(vertices, adj, part, w, load, count, k, tolerance)
    return part


def oracle_spread_seeds(vertices, adj, k):
    start = vertices[0]
    seeds = [start]
    mindist = oracle_bfs_distances(start, vertices, adj)
    while len(seeds) < k:
        nxt = max(vertices,
                  key=lambda v: (mindist[v] if v not in seeds else -1.0, -v))
        seeds.append(nxt)
        d = oracle_bfs_distances(nxt, vertices, adj)
        for v in vertices:
            if d[v] < mindist[v]:
                mindist[v] = d[v]
    return seeds


def oracle_farthest_unassigned(vertices, adj, unassigned):
    dist = {v: (0.0 if v not in unassigned else float("inf")) for v in vertices}
    queue = deque(v for v in vertices if v not in unassigned)
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] == float("inf"):
                dist[u] = dist[v] + 1.0
                queue.append(u)
    return max(sorted(unassigned), key=lambda v: dist[v])


def oracle_bfs_distances(source, vertices, adj):
    dist = {v: float("inf") for v in vertices}
    dist[source] = 0.0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] == float("inf"):
                dist[u] = dist[v] + 1.0
                queue.append(u)
    return dist


def oracle_best_frontier_vertex(frontier, adj, part, p):
    best = None
    best_key = None
    for v in sorted(frontier):
        inside = sum(1 for u in adj[v] if part.get(u) == p)
        key = (inside - (len(adj[v]) - inside), -v)
        if best_key is None or key > best_key:
            best, best_key = v, key
    return best


def oracle_refine_once(vertices, adj, part, w, load, count, k, tolerance):
    total = sum(load)
    cap = tolerance * total / k
    boundary = [v for v in vertices
                if any(part[u] != part[v] for u in adj[v])]
    for v in boundary:
        p = part[v]
        if count[p] <= 1:
            continue
        links = {}
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


# -- helpers ---------------------------------------------------------------------

def outcome(fn, *args):
    """('ok', assignment) or ('error', type name, message)."""
    try:
        return ("ok", fn(*args))
    except (ValueError, KeyError) as err:
        return ("error", type(err).__name__, str(err))


def assert_same(adjacency, weights, k, tolerance=1.02):
    got = outcome(graph_partition, adjacency, weights, k, tolerance)
    want = outcome(oracle_graph_partition, adjacency, weights, k, tolerance)
    assert got == want


@st.composite
def graphs(draw, max_vertices=24):
    """Symmetric adjacency over sparse, non-contiguous ids.

    Edge density ranges from none (all isolated) to dense, so isolated
    vertices and several components are common; some lists repeat a
    neighbor or name the vertex itself.
    """
    ids = draw(st.lists(st.integers(-30, 500), min_size=1,
                        max_size=max_vertices, unique=True))
    n = len(ids)
    adjacency = {v: [] for v in ids}
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)),
                          max_size=3 * n))
    for a, b in pairs:
        adjacency[ids[a]].append(ids[b])
        adjacency[ids[b]].append(ids[a])
    return adjacency


@st.composite
def weightings(draw, vertices):
    style = draw(st.sampled_from(["none", "unit", "skewed"]))
    if style == "none":
        return None
    if style == "unit":
        return {v: 1.0 for v in vertices}
    exps = draw(st.lists(st.floats(-3.0, 6.0), min_size=len(vertices),
                         max_size=len(vertices)))
    return {v: 10.0 ** x for v, x in zip(vertices, exps)}


# -- properties ------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matches_oracle_on_random_graphs_for_every_k(data):
    adjacency = data.draw(graphs())
    weights = data.draw(weightings(sorted(adjacency)))
    tolerance = data.draw(st.sampled_from([1.0, 1.02, 1.1, 1.5]))
    for k in range(0, len(adjacency) + 2):  # 0 and n+1 take the error path
        assert_same(adjacency, weights, k, tolerance)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_matches_oracle_on_asymmetric_and_dangling_adjacency(data):
    adjacency = data.draw(graphs(max_vertices=12))
    vertices = sorted(adjacency)
    extra = data.draw(st.lists(
        st.tuples(st.sampled_from(vertices),
                  st.one_of(st.sampled_from(vertices), st.integers(-40, 520))),
        min_size=1, max_size=4))
    for v, u in extra:  # one-sided edges, some to ids that are no vertex
        adjacency[v].append(u)
    k = data.draw(st.integers(1, len(vertices)))
    assert_same(adjacency, None, k)


@pytest.mark.parametrize("k", [2, 3, 4, 8, 32])
def test_matches_oracle_on_mesh_dual_graphs(k):
    for mesh in (triangle_grid(12, 12), tet_box(4, 4, 4)):
        assert_same(local_dual_graph(mesh), None, k)


# -- one case per branch -----------------------------------------------------------

def test_empty_frontier_continues_at_lowest_unassigned():
    # No edges: part 0 grows from seed 0, finds no frontier, and takes the
    # lowest unassigned id (1) to reach its target of two vertices.
    adjacency = {0: [], 1: [], 2: [], 3: []}
    assert graph_partition(adjacency, None, 2) == {0: 0, 1: 0, 2: 1, 3: 1}
    assert_same(adjacency, None, 2)


def test_taken_seed_restarts_at_farthest_unassigned(monkeypatch):
    # Seeds of the path 0-1-2-3 at k=3 are 0, 3 and 1.  Part 0 grows over
    # 1, so part 2 restarts at the unassigned vertex farthest from every
    # assigned one, which is 2.
    calls = []
    original = partition._farthest_unassigned

    def spy(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(partition, "_farthest_unassigned", spy)
    path = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
    part = graph_partition(path, None, 3)
    assert calls == [2]
    assert part == {0: 0, 1: 0, 3: 1, 2: 2}
    assert part == oracle_graph_partition(path, None, 3)


def test_asymmetric_adjacency_names_first_pair_in_sorted_order():
    adjacency = {5: [9, 2, 7], 2: [5], 7: [], 9: [5]}
    with pytest.raises(ValueError, match=r"not symmetric at edge \(5, 7\)"):
        graph_partition(adjacency, None, 2)
    assert_same(adjacency, None, 2)
    dangling = {0: [1, 3], 1: [0]}
    with pytest.raises(ValueError, match=r"not symmetric at edge \(0, 3\)"):
        graph_partition(dangling, None, 1)
    assert_same(dangling, None, 1)
    # 10 lists only a dangling neighbor; the missing back edge 10 -> 5 of
    # (5, 10) comes first in sorted order and is the one named.
    masked = {0: [], 5: [10], 10: [3]}
    with pytest.raises(ValueError, match=r"not symmetric at edge \(5, 10\)"):
        graph_partition(masked, None, 1)
    assert_same(masked, None, 1)

"""graph_partition against the original greedy grower it replaced.

``oracle_graph_partition`` below is the first implementation of greedy graph
growing, kept verbatim apart from names: it rescans and re-scores the whole
frontier on every step and runs a full dict-based BFS per seed.  The heap
implementation must return the same dict or raise the same error on every
input.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpart import partition
from hierpart.mesh import adjacency_from_elements, local_dual_graph
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


@st.composite
def mesh_unions(draw):
    """Dual graph of one to three disjoint generated meshes of one kind,
    its vertices in a drawn order, so the union has several components and
    its ids are seldom ascending."""
    if draw(st.booleans()):
        sizes = st.tuples(st.integers(1, 4), st.integers(1, 4))
        make = triangle_grid
    else:
        sizes = st.tuples(st.integers(1, 2), st.integers(1, 2),
                          st.integers(1, 2))
        make = tet_box
    meshes = [make(*dims) for dims in draw(st.lists(sizes, min_size=1,
                                                    max_size=3))]
    ids, conn = [], []
    for mesh in meshes:  # shift ids and nodes past those of earlier meshes
        ids.append(mesh.element_ids + sum(map(len, ids)))
        conn.append(mesh.conn + sum(int(c.max()) + 1 for c in conn))
    ids, conn = np.concatenate(ids), np.concatenate(conn)
    order = draw(st.permutations(range(len(ids))))
    return adjacency_from_elements(ids[order], conn[order], meshes[0].kind)


@settings(max_examples=40, deadline=None)
@given(graph=mesh_unions(), m=st.integers(1, 3),
       tolerance=st.sampled_from([1.0, 1.02, 1.1]))
def test_unweighted_last_part_equals_the_grown_one(graph, m, tolerance):
    # Without weights the last part takes what is left ungrown.  A column of
    # 0.5 takes the growing path, and a power of two scales every load sum
    # and comparison exactly, so the two must return the same parts; so
    # must the graph's dict form, whose rows are in id order already.
    n = len(graph)
    half, in_id_order = np.full(n, 0.5), dict(graph)
    for k in range(2, n // m + 1):
        got = graph_partition(graph, None, k, tolerance, m)
        assert got == graph_partition(graph, half, k, tolerance, m)
        assert got == graph_partition(in_id_order, None, k, tolerance, m)


# -- one case per branch -----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_refine_once_matches_oracle_on_dict_graphs(data):
    # Random parts on dict adjacency, swept over the whole graph or any
    # shuffled part of it, interior vertices included, with caps that
    # block some moves: the sweep that skips vertices which cannot gain
    # moves exactly the vertices the full sweep moves.
    adjacency = data.draw(graphs())
    vertices = sorted(adjacency)
    n = len(vertices)
    k = data.draw(st.integers(1, 5))
    part = dict(zip(vertices, data.draw(
        st.lists(st.integers(0, k - 1), min_size=n, max_size=n))))
    w = dict(zip(vertices, data.draw(
        st.lists(st.sampled_from([0.25, 1.0, 3.0]), min_size=n, max_size=n))))
    load, count = [0.0] * k, [0] * k
    for v in vertices:
        load[part[v]] += w[v]
        count[part[v]] += 1
    listed = data.draw(st.permutations(vertices))[
        :data.draw(st.integers(0, n))]
    tolerance = data.draw(st.sampled_from([1.0, 1.02, 1.5, 100.0]))
    got = (dict(part), list(load), list(count))
    want = (dict(part), list(load), list(count))
    partition._refine_once(listed, adjacency, got[0], w, got[1], got[2], k,
                           tolerance)
    oracle_refine_once(listed, adjacency, want[0], w, want[1], want[2], k,
                       tolerance)
    assert got == want


def test_empty_frontier_continues_at_lowest_unassigned():
    # No edges: part 0 grows from seed 0, finds no frontier, and takes the
    # lowest unassigned id (1) to reach its target of two vertices.
    adjacency = {0: [], 1: [], 2: [], 3: []}
    assert graph_partition(adjacency, None, 2) == {0: 0, 1: 0, 2: 1, 3: 1}
    assert_same(adjacency, None, 2)


def test_taken_seed_restarts_at_farthest_unassigned(monkeypatch):
    # Seeds of the path 0-1-...-10 at k=5 are 0, 10, 5, 2 and 7.  Parts 0-2
    # grow over {0, 1, 2}, {10, 9} and {5, 4}, so part 3, not the last,
    # finds its seed 2 taken and restarts at the unassigned vertex farthest
    # from every assigned one: 7, two hops from 5 and 9.
    calls = []
    original = partition._farthest_unassigned

    def spy(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(partition, "_farthest_unassigned", spy)
    path = {i: [j for j in (i - 1, i + 1) if 0 <= j <= 10] for i in range(11)}
    part = graph_partition(path, None, 5)
    assert calls == [7]
    assert part == {0: 0, 1: 0, 2: 0, 9: 1, 10: 1, 4: 2, 5: 2, 6: 3, 7: 3,
                    3: 4, 8: 4}
    assert part == oracle_graph_partition(path, None, 5)


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


@st.composite
def csr_rows(draw):
    """CSR rows of up to 20 vertices, some of degree 0, and an order to list
    them in."""
    degrees = draw(st.lists(st.integers(0, 5), min_size=1, max_size=20))
    n = len(degrees)
    xadj = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    adjncy = np.array(draw(st.lists(st.integers(0, n - 1),
                                    min_size=int(xadj[-1]),
                                    max_size=int(xadj[-1]))), dtype=np.int64)
    order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return xadj, adjncy, order


@given(case=csr_rows())
def test_neighbour_lists_per_degree_equal_per_vertex_slices(case):
    xadj, adjncy, order = case
    want = [adjncy[xadj[i]:xadj[i + 1]].tolist() for i in order.tolist()]
    assert list(partition._neighbour_lists(xadj, adjncy, order)) == want


def test_descending_ids_with_an_isolated_element_match_the_oracle():
    # Ids descend, so the grower lists rows through the argsort; 4 has no
    # neighbour, so one degree group is empty rows.
    adjacency = {9: [8, 7], 8: [9, 6], 7: [9, 6], 6: [8, 7], 4: []}
    for k in (2, 3):
        assert_same(adjacency, None, k)
        assert_same(adjacency, {v: 1.0 + v % 3 for v in adjacency}, k)

"""Mesh chunks, generators, dual graphs, and element migration."""

from __future__ import annotations

import random
import re
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpart.mesh import (KINDS, MeshChunk, adjacency_from_elements,
                           find_shared_nodes, halo_growth,
                           kind_info, local_dual_graph,
                           merge_chunks, migrate, pack_chunk, split_chunk,
                           split_contiguous, split_ids_evenly, subset_chunk,
                           unpack_chunk, build_dual_graph,
                           exchange_keyed_values)
from hierpart import _codec
from hierpart import mesh as mesh_module
from hierpart.directory import blind_exchange, block_size, co_holders
from hierpart.meshgen import tet_box, triangle_grid
from hierpart.partition import _pack_payload, _unpack_payload
from hierpart.runtime import ProtocolError, Runtime
from hierpart.topology import build_topology

from dict_era import DictChunk, dict_chunk, element_faces


def pairwise_adjacency(elements: dict[int, tuple[int, ...]], npf: int) -> dict[int, list[int]]:
    """Oracle: quadratic all-pairs test for a full shared face.

    Independent of any face hashing: two elements are neighbors exactly when
    their connectivities overlap in npf or more nodes.
    """
    ids = sorted(elements)
    adj: dict[int, list[int]] = {e: [] for e in ids}
    for a, b in combinations(ids, 2):
        if len(set(elements[a]) & set(elements[b])) >= npf:
            adj[a].append(b)
            adj[b].append(a)
    return {e: sorted(ns) for e, ns in adj.items()}


def node_sharers(chunks: list[MeshChunk]) -> dict[int, dict[int, list[int]]]:
    """Oracle for find_shared_nodes: per rank, {other: sorted shared nodes}."""
    holders: dict[int, set[int]] = {}
    for r, ch in enumerate(chunks):
        for conn in ch.elements.values():
            for n in conn:
                holders.setdefault(n, set()).add(r)
    out: dict[int, dict[int, list[int]]] = {r: {} for r in range(len(chunks))}
    for n, rs in holders.items():
        for a in rs:
            for b in rs:
                if a != b:
                    out[a].setdefault(b, []).append(n)
    return {r: {o: sorted(ns) for o, ns in sorted(row.items())}
            for r, row in out.items()}


def tree_of(p: int):
    return build_topology([("node", p)])


# -- generators and chunk basics -------------------------------------------------


def test_triangle_grid_counts():
    mesh = triangle_grid(4, 3)
    assert mesh.kind == "triangle"
    assert mesh.n_elements == 2 * 4 * 3
    assert len(mesh.nodes) == 5 * 4
    mesh.validate()


def test_tet_box_counts():
    mesh = tet_box(2, 2, 2)
    assert mesh.kind == "tetrahedron"
    assert mesh.n_elements == 6 * 8
    assert len(mesh.nodes) == 27
    mesh.validate()


@pytest.mark.parametrize("make, message", [
    (lambda: triangle_grid(0, 3), "grid needs nx >= 1 and ny >= 1"),
    (lambda: tet_box(2, 0, 2), "box needs nx, ny, nz >= 1"),
], ids=["grid", "box"])
def test_generators_refuse_an_empty_size(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_grid_boundary_is_perimeter():
    mesh = triangle_grid(3, 2)
    # 2(nx + ny) edges on the rectangle outline.
    assert len(mesh.boundary) == 2 * (3 + 2)
    for _, edge in mesh.boundary:
        assert len(edge) == 2


def test_kind_info_rejects_unknown():
    with pytest.raises(ValueError, match="unknown element kind"):
        kind_info("hexahedron")


def test_validate_catches_bad_references():
    bad = MeshChunk.from_records("triangle",
                                 nodes={0: (0.0, 0.0), 1: (1.0, 0.0)},
                                 elements={7: (0, 1, 2)})
    with pytest.raises(ValueError, match="element 7 references unknown node 2"):
        bad.validate()


def test_validate_catches_repeated_node():
    bad = MeshChunk.from_records("triangle",
                                 nodes={0: (0.0, 0.0), 1: (1.0, 0.0)},
                                 elements={0: (0, 1, 1)})
    with pytest.raises(ValueError, match="repeated node"):
        bad.validate()


def test_element_faces_triangle_edges():
    assert element_faces((5, 2, 9), "triangle") == [(2, 5), (5, 9), (2, 9)]


def test_element_faces_tet_has_four():
    faces = element_faces((0, 1, 2, 3), "tetrahedron")
    assert len(faces) == 4
    assert all(len(f) == 3 for f in faces)


def test_centroids_sorted_by_id():
    mesh = triangle_grid(2, 1)
    ids, pts = mesh.centroids()
    assert list(ids) == sorted(mesh.elements)
    assert pts.shape == (4, 2)


def oracle_centroids(chunk):
    """One np.mean per element: the reference the gather-mean must match."""
    ids = np.array(sorted(chunk.elements), dtype=np.int64)
    pts = np.empty((len(ids), chunk.dim), dtype=np.float64)
    for i, eid in enumerate(ids):
        conn = chunk.elements[int(eid)]
        pts[i] = np.mean([chunk.nodes[n] for n in conn], axis=0)
    return ids, pts


@st.composite
def scattered_chunks(draw):
    """Triangle or tet chunks with non-contiguous, unordered node and
    element ids and signed coordinates, from subnormal to 1e300 (the sum
    of four stays finite)."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    _, dim, npe, _ = kind_info(kind)
    nids = draw(st.lists(st.integers(-10**6, 10**6), min_size=npe,
                         max_size=24, unique=True))
    coord = st.floats(-1e300, 1e300)
    nodes = {n: tuple(draw(st.lists(coord, min_size=dim, max_size=dim)))
             for n in nids}
    eids = draw(st.lists(st.integers(-10**6, 10**6), max_size=30, unique=True))
    elements = {e: tuple(draw(st.permutations(nids))[:npe]) for e in eids}
    return MeshChunk.from_records(kind, nodes=nodes, elements=elements)


@settings(max_examples=150, deadline=None)
@given(chunk=scattered_chunks())
def test_centroids_equal_per_element_mean_bit_for_bit(chunk):
    ids, pts = chunk.centroids()
    want_ids, want_pts = oracle_centroids(chunk)
    assert ids.dtype == want_ids.dtype and ids.tolist() == want_ids.tolist()
    assert pts.shape == want_pts.shape == (len(chunk.elements), chunk.dim)
    assert pts.dtype == np.float64
    assert pts.tobytes() == want_pts.tobytes()


@pytest.mark.parametrize("mesh", [tet_box(4, 3, 2), triangle_grid(6, 5)],
                         ids=["tet", "tri"])
def test_centroids_equal_per_element_mean_on_generated_meshes(mesh):
    assert mesh.centroids()[1].tobytes() == oracle_centroids(mesh)[1].tobytes()


# -- sequential dual graph vs oracle ----------------------------------------------


def test_local_dual_graph_matches_pairwise_oracle_triangles():
    mesh = triangle_grid(5, 4)
    expect = pairwise_adjacency(mesh.elements, mesh.nodes_per_face)
    assert local_dual_graph(mesh) == expect


def test_local_dual_graph_matches_pairwise_oracle_tets():
    mesh = tet_box(3, 2, 2)
    expect = pairwise_adjacency(mesh.elements, mesh.nodes_per_face)
    assert local_dual_graph(mesh) == expect


def test_adjacency_two_triangles_one_shared_edge():
    elements = {0: (0, 1, 2), 1: (1, 2, 3)}
    assert adjacency_from_elements(list(elements), list(elements.values()),
                                   "triangle") == {0: [1], 1: [0]}


def oracle_adjacency_from_elements(elements, kind):
    """The face-hash dual graph as first written: every face of every
    element sorted on its own, single-user faces included."""
    face_users = {}
    for eid in sorted(elements):
        for face in element_faces(elements[eid], kind):
            face_users.setdefault(face, []).append(eid)
    adj = {int(e): set() for e in elements}
    for users in face_users.values():
        for a in users:
            for b in users:
                if a != b:
                    adj[a].add(b)
    return {e: sorted(nbrs) for e, nbrs in adj.items()}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_adjacency_from_elements_matches_oracle_with_key_order(data):
    # Few nodes and unordered ids give faces with one, two or more users
    # (non-manifold) and elements with repeated nodes.
    kind = data.draw(st.sampled_from(sorted(KINDS)))
    npe = kind_info(kind)[2]
    eids = data.draw(st.lists(st.integers(-50, 50), max_size=25, unique=True))
    node = st.integers(0, 7)
    elements = {e: tuple(data.draw(st.lists(node, min_size=npe, max_size=npe)))
                for e in eids}
    got = adjacency_from_elements(list(elements),
                                  list(elements.values()), kind)
    want = oracle_adjacency_from_elements(elements, kind)
    assert list(got.items()) == list(want.items())


# -- wire form ---------------------------------------------------------------------


def test_pack_unpack_round_trip():
    mesh = triangle_grid(3, 3)
    back = unpack_chunk(pack_chunk(mesh))
    assert back.kind == mesh.kind
    assert back.nodes == mesh.nodes
    assert back.elements == mesh.elements
    assert sorted(back.boundary) == sorted(mesh.boundary)


def test_pack_unpack_tets_with_boundary():
    mesh = tet_box(2, 1, 1)
    back = unpack_chunk(pack_chunk(mesh))
    assert back.elements == mesh.elements
    assert sorted(back.boundary) == sorted(mesh.boundary)


def assert_python_scalars(chunk):
    """Every id, tag and coordinate is a Python int or float, never numpy."""
    for nid, xyz in chunk.nodes.items():
        assert type(nid) is int and type(xyz) is tuple
        assert all(type(c) is float for c in xyz)
    for eid, conn in chunk.elements.items():
        assert type(eid) is int and type(conn) is tuple
        assert all(type(n) is int for n in conn)
    for tag, conn in chunk.boundary:
        assert type(tag) is int and type(conn) is tuple
        assert all(type(n) is int for n in conn)


@pytest.mark.parametrize("mesh", [tet_box(2, 2, 1), triangle_grid(3, 2)],
                         ids=["tet", "tri"])
def test_unpack_chunk_gives_python_scalars(mesh):
    back = unpack_chunk(pack_chunk(mesh))
    assert back.boundary and back == mesh
    assert_python_scalars(back)


def test_unpack_payload_gives_python_scalars():
    # The chunk's records are Python scalars; its weights come back as the
    # float64 column they were sent as.
    mesh = tet_box(2, 1, 1)
    weights = 1.5 + mesh.element_ids
    chunk = _unpack_payload(_pack_payload(replace(mesh, weights=weights)))
    assert_python_scalars(chunk)
    back = chunk.weights
    assert back.dtype == np.float64 and back.tobytes() == weights.tobytes()
    assert _unpack_payload(_pack_payload(mesh)).weights is None


# -- splitting -----------------------------------------------------------------------


def test_split_ids_evenly_sizes():
    assert split_ids_evenly(range(10), 4) == [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]
    assert split_ids_evenly([3, 1, 2], 1) == [[1, 2, 3]]
    assert split_ids_evenly([], 2) == [[], []]


def test_split_contiguous_partitions_everything():
    mesh = triangle_grid(4, 4)
    parts = split_contiguous(mesh, 4)
    all_ids = sorted(e for p in parts for e in p.elements)
    assert all_ids == sorted(mesh.elements)
    whole = merge_chunks(mesh.kind, parts)
    assert whole.elements == mesh.elements
    assert sorted(whole.boundary) == sorted(mesh.boundary)


def test_subset_keeps_only_referenced_nodes():
    mesh = triangle_grid(2, 2)
    sub = subset_chunk(mesh, [0])
    assert set(sub.elements) == {0}
    assert set(sub.nodes) == set(mesh.elements[0])
    sub.validate()


def test_boundary_face_travels_with_unique_carrier():
    mesh = triangle_grid(2, 1)
    parts = split_contiguous(mesh, 2)
    for part in parts:
        part.validate()  # every boundary face has its nodes locally
    total = sum(len(p.boundary) for p in parts)
    assert total == len(mesh.boundary)


# -- split_chunk against the per-group carve it replaced ---------------------
#
# oracle_boundary_carriers and oracle_subset_chunk are the original carve,
# kept verbatim apart from names: every call rebuilds the carrier map over
# the whole chunk.  split_chunk builds it once for all groups and must give
# the same chunks, in the same order, or raise the same error.


def oracle_boundary_carriers(chunk):
    node_elems = {}
    for eid in sorted(chunk.elements):
        for n in chunk.elements[eid]:
            node_elems.setdefault(n, []).append(eid)
    carriers = {}
    for tag, conn in chunk.boundary:
        candidates = None
        for n in conn:
            owners = set(node_elems.get(n, ()))
            candidates = owners if candidates is None else candidates & owners
            if not candidates:
                break
        if not candidates:
            raise ValueError(f"boundary face {conn} (tag {tag}) has no local "
                             f"containing element")
        carriers.setdefault(min(candidates), []).append((tag, conn))
    return carriers


def oracle_subset_chunk(chunk, element_ids, carriers=None):
    if carriers is None:
        carriers = oracle_boundary_carriers(chunk)
    sub = DictChunk(chunk.kind)
    for eid in sorted(element_ids):
        conn = chunk.elements[eid]
        sub.elements[eid] = conn
        for n in conn:
            sub.nodes[n] = chunk.nodes[n]
        sub.boundary.extend(carriers.get(eid, ()))
    return sub.sorted_copy()


def carve_outcome(fn, *args):
    """Each chunk as ordered records, or the error's type and message."""
    try:
        return [(c.kind, list(c.nodes.items()), list(c.elements.items()),
                 c.boundary) for c in fn(*args)]
    except (ValueError, KeyError) as err:
        return (type(err).__name__, str(err))


def split_groups(chunk, groups):
    """split_chunk for disjoint groups of element ids."""
    slot = {e: i for i, e in enumerate(chunk.element_ids.tolist())}
    owner = [-1] * chunk.n_elements
    for g, ids in enumerate(groups):
        for e in ids:
            owner[slot[e]] = g
    return split_chunk(chunk, owner, len(groups))


def assert_same_carve(chunk, groups):
    got = carve_outcome(split_groups, chunk, groups)
    want = carve_outcome(
        lambda ch, gs: [oracle_subset_chunk(ch, g) for g in gs],
        dict_chunk(chunk), groups)
    assert got == want


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_split_chunk_matches_per_group_carve(data):
    mesh = data.draw(st.sampled_from([
        triangle_grid(3, 2), triangle_grid(5, 4), tet_box(1, 1, 1),
        tet_box(2, 2, 1)]))
    eids = sorted(mesh.elements)
    # Faces of random elements tagged as boundary too: an interior one is
    # contained by two elements, and the lower id must carry it.
    extra = data.draw(st.lists(st.sampled_from(eids), max_size=3))
    mesh = MeshChunk.from_records(mesh.kind, mesh.nodes, mesh.elements,
                                  mesh.boundary + [
        (9, element_faces(mesh.elements[e], mesh.kind)[-1]) for e in extra])
    n_groups = data.draw(st.integers(1, 6))
    # -1 leaves an element out; groups may come out empty.
    owner = data.draw(st.lists(st.integers(-1, n_groups - 1),
                               min_size=len(eids), max_size=len(eids)))
    groups = [[e for e, g in zip(eids, owner) if g == i]
              for i in range(n_groups)]
    groups = [data.draw(st.permutations(g)) for g in groups]
    assert_same_carve(mesh, groups)
    # A chunk that lost some elements but kept every boundary face fails
    # both carves with the same message whenever a face lost its carrier.
    kept = {e for e, g in zip(eids, owner) if g >= 0}
    part = MeshChunk.from_records(mesh.kind, mesh.nodes,
                                  {e: mesh.elements[e] for e in kept},
                                  mesh.boundary)
    assert_same_carve(part, [sorted(kept)[::2], sorted(kept)[1::2]])


def test_split_chunk_empty_groups():
    mesh = triangle_grid(2, 2)
    empty = split_groups(mesh, [[], [], []])
    assert [(c.nodes, c.elements, c.boundary) for c in empty] == [({}, {}, [])] * 3
    assert split_groups(mesh, []) == []
    assert_same_carve(mesh, [[], sorted(mesh.elements), []])


def test_split_chunk_degenerate_face_goes_to_lowest_containing_id():
    # Elements 0 and 1 of the 1x1 grid share the diagonal (0, 3).  Tagged
    # as a boundary face, it is contained by both, and element 0 carries it
    # whatever group order or id order the caller uses.
    grid = triangle_grid(1, 1)
    mesh = MeshChunk.from_records(grid.kind, grid.nodes, grid.elements,
                                  grid.boundary + [(9, (3, 0))])
    first, second = split_groups(mesh, [[1], [0]])
    assert (9, (3, 0)) not in first.boundary
    assert (9, (3, 0)) in second.boundary
    assert_same_carve(mesh, [[1], [0]])
    assert_same_carve(mesh, [[1, 0]])


# -- halo growth -------------------------------------------------------------------


def test_halo_growth_two_triangles_hand_case():
    # Two triangles sharing an edge, one per part.  One layer pulls the
    # neighbor into each part: 4 grown elements over 2 owned = 100% overhead.
    adjacency = {0: [1], 1: [0]}
    assignment = {0: 0, 1: 1}
    assert halo_growth(adjacency, assignment, 1) == pytest.approx(100.0)
    assert halo_growth(adjacency, assignment, 0) == pytest.approx(0.0)


def test_halo_growth_monotone_in_layers():
    mesh = triangle_grid(6, 6)
    adjacency = local_dual_graph(mesh)
    assignment = {e: (0 if e < 36 else 1) for e in mesh.elements}
    g1 = halo_growth(adjacency, assignment, 1)
    g2 = halo_growth(adjacency, assignment, 2)
    assert 0.0 < g1 < g2


# -- distributed operations -----------------------------------------------------------


def test_build_dual_graph_matches_sequential():
    mesh = triangle_grid(6, 4)
    expect = pairwise_adjacency(mesh.elements, mesh.nodes_per_face)
    n_nodes = 1 + max(mesh.nodes)
    for p in (2, 4):
        chunks = split_contiguous(mesh, p)

        def prog(ctx):
            return build_dual_graph(ctx, chunks[ctx.rank], n_nodes)

        res = Runtime(tree_of(p), seed=1).run(prog)
        merged = {}
        for r in res:
            merged.update(r)
        assert merged == expect


def test_find_shared_nodes_matches_oracle():
    mesh = triangle_grid(4, 4)
    n_nodes = 1 + max(mesh.nodes)
    chunks = split_contiguous(mesh, 4)
    expect = node_sharers(chunks)

    def prog(ctx):
        return find_shared_nodes(ctx, chunks[ctx.rank], n_nodes)

    res = Runtime(tree_of(4), seed=2).run(prog)
    assert res == [expect[r] for r in range(4)]


@st.composite
def shared_node_cases(draw):
    """A small triangle or tet mesh on a two-level tree, a team of ranks
    (which may leave out a node's lowest rank) and random owners."""
    if draw(st.booleans()):
        mesh = triangle_grid(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    else:
        mesh = tet_box(*(draw(st.integers(1, 3)) for _ in range(3)))
    tree = build_topology([("node", draw(st.integers(1, 4))),
                           ("core", draw(st.integers(1, 4)))])
    p = tree.total_ranks
    team = draw(st.lists(st.integers(0, p - 1), min_size=1, unique=True))
    owner = draw(st.lists(st.sampled_from(team), min_size=mesh.n_elements,
                          max_size=mesh.n_elements))
    passed = None if len(team) == p and draw(st.booleans()) else team
    return mesh, tree, passed, split_chunk(mesh, owner, p)


def remote_rendezvous_traffic(chunks, team, n_nodes, tree):
    """Oracle: (messages, bytes) co_holders must put on the ledger.

    Only the node leaders, the lowest team rank on each node, talk over
    the network: each sends its node's (key, holder) rows to the key
    owners among the leaders, and each owner replies with every holder of
    those keys on other nodes.
    """
    size = tree.group_size(0)
    members: dict[int, list[int]] = {}
    for r in sorted(team):
        members.setdefault(r // size, []).append(r)
    leaders = sorted(ranks[0] for ranks in members.values())
    bs = block_size(n_nodes, len(leaders))
    held = {r: sorted(set(chunks[r].conn.ravel().tolist())) for r in team}
    holders: dict[int, set[int]] = {}
    for r in team:
        for n in held[r]:
            holders.setdefault(n, set()).add(r)
    messages = nbytes = 0
    for vertex, ranks in members.items():
        asked: dict[int, list[tuple[int, int]]] = {}
        for n, r in sorted((n, r) for r in ranks for n in held[r]):
            o = leaders[min(n // bs, len(leaders) - 1)]
            if o != ranks[0]:
                asked.setdefault(o, []).append((n, r))
        # A request of the rows and a reply of (key, holder elsewhere)
        # pairs per (leader, remote owner) pair, and one blind_count
        # accumulate per pair.
        for rows in asked.values():
            replied = [v for n in sorted({n for n, _ in rows})
                       for h in sorted(holders[n]) if h // size != vertex
                       for v in (n, h)]
            messages += 2
            nbytes += (len(_codec.pack_i64([v for row in rows for v in row]))
                       + len(_codec.pack_i64(replied)) + 4)
    return messages, nbytes


@settings(max_examples=60, deadline=None)
@given(case=shared_node_cases(), seed=st.integers(0, 3))
def test_find_shared_nodes_matches_oracle_on_random_owners(case, seed):
    mesh, tree, team, chunks = case
    p = tree.total_ranks
    members = range(p) if team is None else team
    n_nodes = int(mesh.node_ids[-1]) + 1
    expect = node_sharers(chunks)

    def prog(ctx):
        ctx.set_phase("shared_nodes")
        if ctx.rank in members:
            return find_shared_nodes(ctx, chunks[ctx.rank], n_nodes, team=team)
        return None

    rt = Runtime(tree, seed=seed)
    res = rt.run(prog)
    for r in range(p):
        assert res[r] == (expect[r] if r in members else None)
    messages, nbytes = remote_rendezvous_traffic(chunks, members, n_nodes, tree)
    assert rt.ledger.message_count(phase="shared_nodes") == messages
    assert rt.ledger.bytes_total(phase="shared_nodes") == nbytes
    assert rt.ledger.message_count(phase="shared_nodes",
                                   locality="intranode") == 0


def test_co_holders_error_texts_unchanged():
    def outside(ctx):
        co_holders(ctx, [3, 12, -1, 40], 10)

    with pytest.raises(KeyError, match=r"key -1 outside key space \[0, 10\)"):
        Runtime(tree_of(2), seed=0).run(outside)

    def beyond(ctx):
        co_holders(ctx, [3, 40, 12], 10)

    with pytest.raises(KeyError, match=r"key 12 outside key space \[0, 10\)"):
        Runtime(tree_of(2), seed=0).run(beyond)

    def not_member(ctx):
        co_holders(ctx, [1], 10, team=(0, 1))

    with pytest.raises(ValueError,
                       match=r"rank 2 not in directory team \(0, 1\)"):
        Runtime(tree_of(3), seed=0).run(not_member)


def test_migrate_round_robin_conserves_mesh():
    mesh = triangle_grid(4, 3)
    chunks = split_contiguous(mesh, 3)
    assignment = {e: e % 3 for e in mesh.elements}

    def prog(ctx):
        local = {e: assignment[e] for e in chunks[ctx.rank].elements}
        return migrate(ctx, chunks[ctx.rank], local)

    res = Runtime(tree_of(3), seed=0).run(prog)
    for r, got in enumerate(res):
        got.validate()
        assert sorted(got.elements) == sorted(e for e, p in assignment.items()
                                              if p == r)
    whole = merge_chunks(mesh.kind, res)
    assert whole.elements == mesh.elements
    assert sorted(whole.boundary) == sorted(mesh.boundary)
    # Nodes may be replicated across chunks but never invented or dropped.
    assert set(whole.nodes) == set(mesh.nodes)


def test_migrate_missing_assignment_is_an_error():
    mesh = triangle_grid(2, 1)
    chunks = split_contiguous(mesh, 2)

    def prog(ctx):
        local = {e: 0 for e in chunks[ctx.rank].elements}
        if ctx.rank == 1:
            local.pop(max(local))
        return migrate(ctx, chunks[ctx.rank], local)

    with pytest.raises(ValueError, match="missing from migration assignment"):
        Runtime(tree_of(2), seed=0).run(prog)


def test_exchange_keyed_values_follows_destinations():
    # Each receiver gets what was addressed to it, one (keys, values) pair
    # per source, in source order; rank 2 sends nothing.
    def prog(ctx):
        keys = np.array([ctx.rank * 10, ctx.rank * 10 + 1], dtype=np.int64)
        outgoing = [{1: (keys[:1], keys[:1] + 0.5), 2: (keys, keys + 0.25)},
                    {2: (keys, keys + 0.25)}, {}][ctx.rank]
        got = exchange_keyed_values(ctx, outgoing)
        return [[k.tolist(), v.tolist()] for k, v in got]

    res = Runtime(tree_of(3), seed=0).run(prog)
    assert res[0] == []
    assert res[1] == [[[0], [0.5]]]
    assert res[2] == [[[0, 1], [0.25, 1.25]], [[10, 11], [10.25, 11.25]]]


def test_migrate_randomized_conservation():
    rng = random.Random(9)
    mesh = triangle_grid(5, 3)
    n_boundary = len(mesh.boundary)
    for trial in range(10):
        p = rng.choice([2, 3, 4])
        chunks = split_contiguous(mesh, p)
        assignment = {e: rng.randrange(p) for e in mesh.elements}

        def prog(ctx):
            local = {e: assignment[e] for e in chunks[ctx.rank].elements}
            return migrate(ctx, chunks[ctx.rank], local)

        res = Runtime(tree_of(p), seed=trial).run(prog)
        whole = merge_chunks(mesh.kind, res)
        assert whole.elements == mesh.elements
        assert len(whole.boundary) == n_boundary


def migrate_through_codec(ctx, chunk, assignment, team=None):
    """Oracle: migrate as first written, packing every destination's
    sub-chunk and its weights, the rank's own included, and merging what
    arrives.  A rank that gets nothing holds the chunk's empty carve."""
    by_dest: dict[int, list[int]] = {}
    for eid in sorted(chunk.elements):
        by_dest.setdefault(assignment[eid], []).append(eid)
    outgoing = {dest: _pack_payload(subset_chunk(chunk, ids))
                for dest, ids in by_dest.items()}
    received = blind_exchange(ctx, outgoing, team=team)
    if not received:
        return subset_chunk(chunk, [])
    return merge_chunks(chunk.kind, [_unpack_payload(b) for _, b in received])


def test_migrate_packs_nothing_when_every_element_stays(monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(mesh_module, name, wrapped)

    spy("pack_chunk", pack_chunk)
    spy("unpack_chunk", unpack_chunk)
    chunks = split_contiguous(tet_box(2, 2, 1), 3)

    def prog(ctx):
        chunk = chunks[ctx.rank]
        return migrate(ctx, chunk, {e: ctx.rank for e in chunk.elements})

    assert Runtime(tree_of(3), seed=1).run(prog) == chunks
    assert calls == []


def _items(chunk):
    return (chunk.kind, list(chunk.nodes.items()),
            list(chunk.elements.items()), chunk.boundary,
            None if chunk.weights is None else chunk.weights.tolist())


def migration_trials(mesh, team, rng):
    """(trial, chunks, assignment) over ``team``: one member keeps all its
    elements, one receives none, one neither sends nor receives, nobody
    moves, then random destinations."""
    chunks = dict(zip(team, split_contiguous(mesh, len(team))))
    a, b, c = team
    home = {e: r for r, ch in chunks.items() for e in ch.elements}
    for trial in range(8):
        assignment = {e: rng.choice(team) for e in mesh.elements}
        if trial == 0:      # b keeps everything and may receive
            assignment.update((e, b) for e in chunks[b].elements)
        elif trial == 1:    # c sends everything and receives nothing
            assignment = {e: rng.choice((a, b)) for e in mesh.elements}
        elif trial == 2:    # a neither sends nor receives
            assignment = {e: a if r == a else rng.choice((b, c))
                          for e, r in home.items()}
        elif trial == 3:    # nothing moves
            assignment = home
        yield trial, chunks, assignment


@pytest.mark.parametrize("mesh", [triangle_grid(5, 3), tet_box(2, 2, 2)],
                         ids=["triangles", "tets"])
def test_migrate_equals_the_pack_everything_path(mesh):
    # Ranks 1-3 of four migrate among themselves; rank 0 sits out.  Each
    # rank keeps some elements and sends the rest, keeps all of them, or
    # sends all of them; some trials leave a whole rank with nothing
    # arriving.  Unweighted and weighted chunks alike.
    weighted = replace(mesh, weights=1.0 + (mesh.element_ids % 7) * 0.375)
    team = (1, 2, 3)
    for trial, chunks, assignment in [
            *migration_trials(mesh, team, random.Random(4)),
            *migration_trials(weighted, team, random.Random(5))]:

        def prog(ctx, migrate_fn):
            if ctx.rank not in team:
                return None
            chunk = chunks[ctx.rank]
            local = {e: assignment[e] for e in chunk.elements}
            return _items(migrate_fn(ctx, chunk, local, team=team))

        got = Runtime(tree_of(4), seed=trial).run(
            lambda ctx: prog(ctx, migrate))
        want = Runtime(tree_of(4), seed=trial).run(
            lambda ctx: prog(ctx, migrate_through_codec))
        assert got == want


@pytest.mark.parametrize("call, message", [
    (lambda m: split_chunk(m, [0, 0], 2), "2 owners for 4 elements"),
    (lambda m: split_chunk(m, [0, 2, 0, -1], 2), "owners must lie in -1..1"),
    (lambda m: subset_chunk(m, [0, 99]), "element 99 not in chunk"),
    (lambda m: merge_chunks("tetrahedron", [m]),
     "cannot merge triangle chunk into tetrahedron mesh"),
    (lambda m: MeshChunk.from_records("triangle", nodes={0: (0.0,)}),
     "node 0: expected 2 coordinates, got 1"),
    (lambda m: MeshChunk.from_records("triangle", elements={5: (0, 1)}),
     "element 5: expected 3 nodes, got 2"),
    (lambda m: MeshChunk.from_records("triangle", boundary=[(7, (0, 1, 2))]),
     "boundary face 0 (tag 7): expected 2 nodes, got 3"),
], ids=["owner-count", "owner-range", "subset-unknown", "merge-kinds",
        "record-node", "record-element", "record-face"])
def test_chunk_operations_name_their_bad_input(call, message):
    mesh = triangle_grid(2, 1)
    assert mesh.n_elements == 4
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(mesh)


@pytest.mark.parametrize("dest, message", [
    (lambda chunk: np.zeros(chunk.n_elements - 1), "{n_1} destinations for "
                                                   "{n} elements"),
    (lambda chunk: np.full(chunk.n_elements, 2),
     "element {first} assigned to rank 2 outside team (0, 1)"),
], ids=["count", "outside-team"])
def test_migrate_names_a_bad_destination_array(dest, message):
    # Each rank refuses its own array before any traffic.
    chunks = split_contiguous(triangle_grid(4, 2), 2)

    def prog(ctx):
        chunk = chunks[ctx.rank]
        with pytest.raises(ValueError) as err:
            migrate(ctx, chunk, dest(chunk), team=(0, 1))
        return str(err.value)

    rt = Runtime(tree_of(3), seed=0)
    got = rt.run(lambda ctx: prog(ctx) if ctx.rank < 2 else None)
    assert got[:2] == [message.format(n=ch.n_elements, n_1=ch.n_elements - 1,
                                      first=ch.element_ids[0])
                       for ch in chunks]
    assert rt.ledger.phase_totals() == []


@pytest.mark.parametrize("tamper", [lambda got: [(k[::-1], v) for k, v in got],
                                    lambda got: got[:-1]],
                         ids=["other-order", "one-source-short"])
def test_migrate_refuses_weights_that_miss_the_elements(monkeypatch, tamper):
    # Each piece takes the weights of its own source, checked by id.
    mesh = replace(triangle_grid(2, 2), weights=np.arange(1.0, 9.0))
    chunks = split_contiguous(mesh, 2)
    real = mesh_module.exchange_keyed_values
    monkeypatch.setattr(mesh_module, "exchange_keyed_values",
                        lambda *args, **kw: tamper(real(*args, **kw)))

    def prog(ctx):
        return migrate(ctx, chunks[ctx.rank], np.full(4, 1 - ctx.rank))

    with pytest.raises(ProtocolError, match="weights that arrived do not "
                                            "match the elements"):
        Runtime(tree_of(2), seed=0).run(prog)


@pytest.mark.parametrize("weighted", [False, True],
                         ids=["unweighted", "weighted"])
def test_a_rank_with_nothing_moving_neither_carves_nor_merges(monkeypatch,
                                                              weighted):
    # Rank 0 keeps its elements and gets none; ranks 1 and 2 swap some.
    # Rank 0 gets its own chunk back, and only ranks 1 and 2 carve and
    # merge.  The weight round still runs on every rank.
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, args))
            return fn(*args, **kwargs)
        monkeypatch.setattr(mesh_module, name, wrapped)

    mesh = tet_box(2, 2, 2)
    if weighted:
        mesh = replace(mesh, weights=1.0 + mesh.element_ids % 3)
    chunks = split_contiguous(mesh, 3)
    for name in ("split_chunk", "merge_chunks", "exchange_keyed_values"):
        spy(name, getattr(mesh_module, name))

    def prog(ctx):
        chunk = chunks[ctx.rank]
        ids = chunk.element_ids.tolist()
        dest = {e: ctx.rank if ctx.rank == 0 or i % 2 else 3 - ctx.rank
                for i, e in enumerate(ids)}
        return migrate(ctx, chunk, dest)

    res = Runtime(tree_of(3), seed=2).run(prog)
    assert res[0] is chunks[0]
    carved = [args[0] for name, args in calls if name == "split_chunk"]
    merged = [args[1] for name, args in calls if name == "merge_chunks"]
    assert len(carved) == 2 and all(c is not chunks[0] for c in carved)
    assert len(merged) == 2
    assert all(c is not chunks[0] for pieces in merged for c in pieces)
    assert sum(name == "exchange_keyed_values"
               for name, _ in calls) == (3 if weighted else 0)
    assert merge_chunks(mesh.kind, res) == mesh

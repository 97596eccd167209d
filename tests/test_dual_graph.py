"""The CSR dual graph against its dict form and the dict-era quality block,
and the distributed dual graph against the sequential one.

``adjacency_from_elements`` returns a ``DualGraph``; the graph back-end and
the quality block read its arrays, while tests and tools may read it as an
id -> neighbour-list mapping.  On dual graphs of random meshes whose ids are
shuffled (so the graph's vertices are not in id order), the back-end must
give the same parts for the graph as for its dict form, and the array edge
cut, halo growth and quality block must equal the dict-era code in
``dict_era``, loads bit for bit.
"""

from __future__ import annotations

import logging
import random
import struct
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_era
from hierpart.directory import block_size
from hierpart.mesh import (KINDS, DualGraph, MeshChunk, _halo_growths,
                           adjacency_from_elements, build_dual_graph,
                           halo_growth, kind_info)
from hierpart.meshgen import tet_box, triangle_grid
from hierpart.metrics import edge_cut, quality_metrics
from hierpart.partition import _backend, graph_partition
from hierpart.runtime import RankContext, Runtime
from hierpart.topology import build_topology


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def element_tables(draw):
    """(kind, shuffled distinct ids, connectivity rows): a structured mesh,
    or a random table over few nodes, whose faces may have three or more
    users and whose elements may repeat a node."""
    if draw(st.booleans()):
        if draw(st.booleans()):
            mesh = triangle_grid(draw(st.integers(1, 7)),
                                 draw(st.integers(1, 7)))
        else:
            mesh = tet_box(*(draw(st.integers(1, 3)) for _ in range(3)))
        kind, conn = mesh.kind, mesh.conn.tolist()
    else:
        kind = draw(st.sampled_from(sorted(KINDS)))
        npe = kind_info(kind)[2]
        node = st.integers(0, 6)
        conn = draw(st.lists(st.lists(node, min_size=npe, max_size=npe),
                             min_size=1, max_size=30))
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=len(conn),
                        max_size=len(conn), unique=True))
    random.Random(draw(st.integers(0, 99))).shuffle(ids)
    return kind, ids, conn


@st.composite
def graphs(draw):
    kind, ids, conn = draw(element_tables())
    return adjacency_from_elements(ids, conn, kind)


def outcome(fn, *args):
    try:
        return ("ok", list(fn(*args).items()))
    except (ValueError, KeyError) as err:
        return ("error", type(err).__name__, str(err))


# -- the graph ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(graph=graphs())
def test_graph_is_symmetric_sorted_and_free_of_self_loops(graph):
    n = len(graph)
    src = np.repeat(np.arange(n), np.diff(graph.xadj))
    dst = graph.adjncy
    assert graph.xadj[0] == 0 and graph.xadj[-1] == len(dst)
    assert not (src == dst).any()
    pairs = set(zip(src.tolist(), dst.tolist()))
    assert pairs == {(b, a) for a, b in pairs}
    nbr_ids = graph.ids[dst]
    inside = src[1:] == src[:-1]
    assert (nbr_ids[1:][inside] > nbr_ids[:-1][inside]).all()
    # Its dict form converts back to the same graph in id order.
    again = DualGraph.of(dict(graph))
    assert again.ids.tolist() == sorted(graph)
    assert list(again.items()) == sorted(graph.items())
    assert DualGraph.of(graph) is graph


# -- the back-end --------------------------------------------------------------------


@st.composite
def partition_cases(draw):
    graph = draw(graphs())
    n = len(graph)
    k = draw(st.integers(0, n + 1))  # 0 and n + 1 take the error path
    m = draw(st.integers(1, max(1, n // max(k, 1))))
    style = draw(st.sampled_from(["none", "unit", "skewed"]))
    weights = None
    if style != "none":
        exps = draw(st.lists(st.floats(-3.0, 6.0), min_size=n, max_size=n))
        weights = np.array([1.0 if style == "unit" else 10.0 ** x
                            for x in exps])
    tolerance = draw(st.sampled_from([1.0, 1.02, 1.1, 1.5]))
    return graph, weights, k, tolerance, m


@settings(max_examples=200, deadline=None)
@given(case=partition_cases())
def test_graph_partition_of_a_dual_graph_equals_its_dict_form(case):
    graph, weights, k, tolerance, m = case
    wmap = None if weights is None else \
        dict(zip(graph.ids.tolist(), weights.tolist()))
    want = outcome(graph_partition, dict(graph), wmap, k, tolerance, m)
    assert outcome(graph_partition, graph, weights, k, tolerance, m) == want
    assert outcome(graph_partition, graph, wmap, k, tolerance, m) == want


@settings(max_examples=100, deadline=None)
@given(table=element_tables(), data=st.data())
def test_backend_on_gathered_blocks_equals_the_dict_form(table, data):
    # A team leader concatenates its members' sorted id blocks, so the
    # graph it builds is not in id order.
    kind, ids, conn = table
    ids = np.array(ids, dtype=np.int64)
    held = np.array(data.draw(st.permutations(range(len(ids)))), dtype=np.intp)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(ids)), max_size=3)))
    rows = np.concatenate([b[np.argsort(ids[b])]
                           for b in np.split(held, cuts)])
    gathered = ids[rows]
    conn = np.array(conn, dtype=np.int64)[rows]
    weights = np.array(data.draw(st.lists(
        st.floats(1e-3, 1e3), min_size=len(ids), max_size=len(ids))))
    k = data.draw(st.integers(1, len(ids)))
    elements = dict(zip(gathered.tolist(), map(tuple, conn.tolist())))
    want = graph_partition(dict_era.adjacency_from_elements(elements, kind),
                           dict(zip(gathered.tolist(), weights.tolist())),
                           k, 1.02, 1)
    got = _backend(kind, "graph", gathered, conn, weights, k, 1.02, "here", 1)
    assert got.tolist() == [want[e] for e in gathered.tolist()]


# -- the quality block ------------------------------------------------------------------


@st.composite
def owned_graphs(draw):
    """A graph, a part count and each vertex's part; some parts are empty."""
    graph = draw(graphs())
    nparts = draw(st.integers(1, 6))
    owner = np.array(draw(st.lists(st.integers(0, nparts - 1),
                                   min_size=len(graph), max_size=len(graph))),
                     dtype=np.int64)
    return graph, nparts, owner


@settings(max_examples=200, deadline=None)
@given(case=owned_graphs(), layers=st.integers(0, 3))
def test_edge_cut_and_halo_growth_equal_the_dict_era(case, layers):
    graph, _, owner = case
    adjacency = dict(graph)
    assignment = dict(zip(graph.ids.tolist(), owner.tolist()))
    cut = dict_era.edge_cut(adjacency, assignment)
    assert edge_cut(graph, owner) == cut
    assert edge_cut(graph, assignment) == cut
    assert edge_cut(adjacency, assignment) == cut
    growth = dict_era.halo_growth(adjacency, assignment, layers)
    assert halo_growth(graph, owner, layers) == growth
    assert halo_growth(graph, assignment, layers) == growth
    assert halo_growth(adjacency, assignment, layers) == growth


@settings(max_examples=200, deadline=None)
@given(case=owned_graphs(), data=st.data())
def test_quality_block_equals_the_dict_era(case, data):
    graph, nparts, owner = case
    weights = np.array(data.draw(st.lists(
        st.floats(1e-3, 1e6) | st.sampled_from([0.1, 0.2, 0.3, 2.0 / 3.0]),
        min_size=len(graph), max_size=len(graph))))
    # Imbalance needs a non-empty part; the oracle divides by the mean.
    owner[0] = 0
    assignment = dict(zip(graph.ids.tolist(), owner.tolist()))
    for w in (None, weights):
        got = quality_metrics(graph, owner, nparts, w)
        want = dict_era.quality_metrics(dict(graph), assignment, nparts, w)
        assert got == want
        for key in ("element_imbalance", "weight_imbalance"):
            if key in want:
                assert bits(got[key]) == bits(want[key])


@settings(max_examples=100, deadline=None)
@given(case=owned_graphs(), layers=st.lists(st.integers(0, 3), min_size=1,
                                            max_size=4))
def test_one_growth_pass_gives_each_layer_count_bit_for_bit(case, layers):
    graph, _, owner = case
    got = _halo_growths(graph, owner, layers)
    assert list(map(bits, got)) == \
        [bits(halo_growth(graph, owner, k)) for k in layers]


def test_halo_growth_rejects_what_the_dict_era_rejected():
    graph = adjacency_from_elements([4, 2], [(0, 1, 2), (1, 2, 3)], "triangle")
    with pytest.raises(ValueError, match="layers must be >= 0"):
        halo_growth(graph, np.array([0, 1]), -1)
    with pytest.raises(ValueError, match="empty assignment"):
        halo_growth(graph, {}, 1)


# -- the distributed dual graph -------------------------------------------------------


def chunk_of(kind, ids, conn):
    """A chunk of the given elements; the dual graph reads no coordinates."""
    conn = np.asarray(conn, dtype=np.int64).reshape(len(ids), kind_info(kind)[2])
    nodes = np.unique(conn)
    return MeshChunk.from_arrays(kind, ids, conn, nodes,
                                 np.zeros((len(nodes), kind_info(kind)[1])),
                                 [], [])


def run_dual_graph(chunks, p, n_nodes, team=None, seed=0):
    """(per-rank results, blind_count calls per rank, the runtime) of
    ``build_dual_graph`` on the ranks of ``team``; the others return None."""
    members = range(p) if team is None else team
    rounds = Counter()
    blind_count = RankContext.blind_count

    def counting(ctx, targets, team=None):
        rounds[ctx.rank] += 1
        return blind_count(ctx, targets, team)

    def prog(ctx):
        if ctx.rank in members:
            return build_dual_graph(ctx, chunks[ctx.rank], n_nodes, team=team)
        return None

    rt = Runtime(build_topology([("node", p)]), seed=seed)
    with mock.patch.object(RankContext, "blind_count", counting):
        res = rt.run(prog)
    return res, rounds, rt


@st.composite
def distributed_cases(draw):
    """An element table spread over the members of a team of P ranks."""
    kind, ids, conn = draw(element_tables())
    p = draw(st.integers(1, 8))
    team = sorted(draw(st.lists(st.integers(0, p - 1), min_size=1,
                                unique=True)))
    owner = draw(st.lists(st.sampled_from(team), min_size=len(ids),
                          max_size=len(ids)))
    passed = None if len(team) == p and draw(st.booleans()) else team
    chunks = {r: chunk_of(kind, [e for e, o in zip(ids, owner) if o == r],
                          [c for c, o in zip(conn, owner) if o == r])
              for r in range(p)}
    return kind, ids, conn, p, team, passed, chunks


def face_owners(chunk, n_nodes, team):
    """Oracle: the team ranks owning the lowest node of the chunk's faces."""
    bs = block_size(n_nodes, len(team))
    return {team[min(face[0] // bs, len(team) - 1)]
            for conn in chunk.conn.tolist()
            for face in dict_era.element_faces(conn, chunk.kind)}


@settings(max_examples=150, deadline=None)
@given(case=distributed_cases(), seed=st.integers(0, 3))
def test_distributed_dual_graph_equals_the_sequential_one(case, seed):
    # Meshes with repeated nodes, faces of three or more elements and
    # shuffled (also negative) element ids.
    kind, ids, conn, p, team, passed, chunks = case
    n_nodes = int(np.max(conn)) + 1
    res, rounds, rt = run_dual_graph(chunks, p, n_nodes, passed, seed)
    want = dict(adjacency_from_elements(ids, conn, kind))
    merged = {}
    for r in range(p):
        if r not in team:
            assert res[r] is None and rounds[r] == 0
            continue
        assert list(res[r]) == chunks[r].element_ids.tolist()
        merged.update(res[r])
        # One rendezvous: one blind_count round.
        assert rounds[r] == 1
    assert merged == want
    asks = {r: face_owners(chunks[r], n_nodes, team) - {r} for r in team}
    for r in team:
        owed = sum(r in asks[s] for s in team)
        assert rt.ledger.rank_message_count(r) <= len(asks[r]) + owed


def test_a_node_outside_the_key_space_is_named():
    chunks = {0: chunk_of("triangle", [0], [(0, 1, 2)]),
              1: chunk_of("triangle", [1], [(1, 2, 12)])}
    with pytest.raises(KeyError, match=r"key 12 outside key space \[0, 10\)"):
        run_dual_graph(chunks, 2, 10)
    chunks[1] = chunk_of("triangle", [1], [(-1, 2, 3)])
    with pytest.raises(KeyError, match=r"key -1 outside key space \[0, 10\)"):
        run_dual_graph(chunks, 2, 10)


def test_a_rank_outside_the_team_is_rejected():
    chunk = chunk_of("triangle", [0], [(0, 1, 2)])

    def prog(ctx):
        build_dual_graph(ctx, chunk, 3, team=(0, 1))

    with pytest.raises(ValueError,
                       match=r"rank 2 not in directory team \(0, 1\)"):
        Runtime(build_topology([("node", 3)]), seed=0).run(prog)


@pytest.mark.parametrize("kind, conn, face", [
    ("triangle", [(0, 1, 2), (1, 0, 3), (4, 1, 0), (2, 1, 3)], (0, 1)),
    ("tetrahedron", [(0, 1, 2, 3), (2, 1, 0, 4), (5, 0, 1, 2), (1, 2, 3, 4)],
     (0, 1, 2)),
])
@pytest.mark.parametrize("p", [2, 3])
def test_a_face_of_three_elements_is_warned_about_once(caplog, kind, conn,
                                                       face, p):
    # Elements 10, 11 and 12 share one face and lie on different ranks.
    ids = [10, 11, 12, 13]
    chunks = {r: chunk_of(kind, ids[r::p], conn[r::p]) for r in range(p)}
    with caplog.at_level(logging.WARNING, logger="hierpart.mesh"):
        run_dual_graph(chunks, p, 6)
    assert [rec.getMessage() for rec in caplog.records] == [
        f"face {face} shared by 3 elements [10, 11, 12]; mesh is not manifold"]

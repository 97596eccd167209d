"""The CSR dual graph against its dict form and the dict-era quality block.

``adjacency_from_elements`` returns a ``DualGraph``; the graph back-end and
the quality block read its arrays, while tests and tools may read it as an
id -> neighbour-list mapping.  On dual graphs of random meshes whose ids are
shuffled (so the graph's vertices are not in id order), the back-end must
give the same parts for the graph as for its dict form, and the array edge
cut, halo growth and quality block must equal the dict-era code in
``dict_era``, loads bit for bit.
"""

from __future__ import annotations

import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_era
from hierpart.mesh import (KINDS, DualGraph, adjacency_from_elements,
                           halo_growth, kind_info)
from hierpart.meshgen import tet_box, triangle_grid
from hierpart.metrics import edge_cut, quality_metrics
from hierpart.partition import _backend, graph_partition


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


def test_halo_growth_rejects_what_the_dict_era_rejected():
    graph = adjacency_from_elements([4, 2], [(0, 1, 2), (1, 2, 3)], "triangle")
    with pytest.raises(ValueError, match="layers must be >= 0"):
        halo_growth(graph, np.array([0, 1]), -1)
    with pytest.raises(ValueError, match="empty assignment"):
        halo_growth(graph, {}, 1)

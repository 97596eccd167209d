"""The array kernels against the dict-era chunk code they replaced.

``dict_era`` keeps the kernels as they were when a chunk was a dict of
tuples.  On random triangle and tet chunks (unordered, non-contiguous ids;
few nodes, so faces shared by three or more elements; elements and boundary
faces that repeat a node; boundary faces no element carries) every kernel
must give the same records, graphs and error messages, and the wire form
the same records in no more bytes.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_era
from dict_era import dict_chunk, element_faces
from hierpart import _codec
from hierpart.mesh import (KINDS, MeshChunk, adjacency_from_elements,
                           kind_info, local_dual_graph,
                           merge_chunks, pack_chunk, split_chunk, unpack_chunk)
from hierpart.meshgen import tet_box, triangle_grid


@st.composite
def record_chunks(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    _, dim, npe, npf = kind_info(kind)
    # Ids spread over most of int64 make face keys too wide for one number.
    nids = draw(st.lists(st.integers(-10**6, 10**6)
                         | st.integers(-2**62, 2**62), min_size=npe,
                         max_size=9, unique=True))
    coord = st.floats(-1e6, 1e6)
    nodes = {n: tuple(draw(st.lists(coord, min_size=dim, max_size=dim)))
             for n in nids}
    node = st.sampled_from(nids)
    elements = {}
    for e in draw(st.lists(st.integers(-10**4, 10**4), max_size=20,
                           unique=True)):
        if draw(st.booleans()):
            elements[e] = tuple(draw(st.permutations(nids))[:npe])
        else:  # may repeat a node
            elements[e] = tuple(draw(st.lists(node, min_size=npe,
                                              max_size=npe)))
    boundary = []
    for tag in draw(st.lists(st.integers(-3, 9), max_size=6)):
        if elements and draw(st.booleans()):
            conn = elements[draw(st.sampled_from(sorted(elements)))]
            face = draw(st.sampled_from(element_faces(conn, kind)))
            boundary.append((tag, tuple(draw(st.permutations(face)))))
        else:  # may repeat a node or have no carrier
            boundary.append((tag, tuple(draw(st.lists(node, min_size=npf,
                                                      max_size=npf)))))
    return MeshChunk.from_records(kind, nodes, elements, boundary)


def records(chunk):
    return (chunk.kind, list(chunk.nodes.items()),
            list(chunk.elements.items()), list(chunk.boundary))


def outcome(fn, *args):
    """Each chunk's records, or the error's type and message."""
    try:
        return [records(c) for c in fn(*args)]
    except ValueError as err:
        return type(err).__name__, str(err)


@st.composite
def carves(draw):
    chunk = draw(record_chunks())
    parts = draw(st.integers(0, 5))
    owner = draw(st.lists(st.integers(-1, parts - 1), min_size=chunk.n_elements,
                          max_size=chunk.n_elements))
    return chunk, owner, parts


@settings(max_examples=300, deadline=None)
@given(carve=carves())
def test_split_chunk_matches_dict_era(carve):
    chunk, owner, parts = carve
    ids = chunk.element_ids.tolist()
    groups = [[e for e, g in zip(ids, owner) if g == p] for p in range(parts)]
    got = outcome(split_chunk, chunk, owner, parts)
    assert got == outcome(dict_era.split_chunk, dict_chunk(chunk), groups)
    if isinstance(got, list):
        for sub in split_chunk(chunk, owner, parts):
            data = pack_chunk(sub)
            old = dict_era.pack_chunk(dict_chunk(sub))
            assert records(unpack_chunk(data)) == \
                records(dict_era.unpack_chunk(old))
            assert len(data) <= len(old)


@settings(max_examples=200, deadline=None)
@given(carve=carves())
def test_merge_chunks_matches_dict_era(carve):
    chunk, owner, parts = carve
    try:
        subs = split_chunk(chunk, owner, parts)
    except ValueError:
        subs = []
    # A second copy with other coordinates: the last record of an id wins.
    moved = MeshChunk(chunk.kind, chunk.element_ids, chunk.conn,
                      chunk.node_ids, chunk.coords + 1.0,
                      chunk.boundary_tags, chunk.boundary_conn)
    for pieces in (subs, subs + [moved], [moved, chunk]):
        got = merge_chunks(chunk.kind, pieces)
        want = dict_era.merge_chunks(chunk.kind, map(dict_chunk, pieces))
        assert records(got) == records(want)


@settings(max_examples=300, deadline=None)
@given(chunk=record_chunks(), data=st.data())
def test_dual_graph_matches_dict_era(chunk, data):
    got = local_dual_graph(chunk)
    want = dict_era.local_dual_graph(dict_chunk(chunk))
    assert list(got.items()) == list(want.items())
    # Ids in any order: the result keeps it.
    elements = dict(data.draw(st.permutations(list(chunk.elements.items()))))
    got = adjacency_from_elements(list(elements), list(elements.values()),
                                  chunk.kind)
    want = dict_era.adjacency_from_elements(elements, chunk.kind)
    assert list(got.items()) == list(want.items())


@settings(max_examples=200, deadline=None)
@given(chunk=record_chunks())
def test_validate_and_centroids_match_dict_era(chunk):
    old = dict_chunk(chunk)
    try:
        old.validate()
        want = None
    except ValueError as err:
        want = str(err)
    try:
        chunk.validate()
        got = None
    except ValueError as err:
        got = str(err)
    assert got == want
    ids, pts = chunk.centroids()
    old_ids, old_pts = old.centroids()
    assert ids.tolist() == old_ids.tolist()
    assert pts.tobytes() == old_pts.tobytes()


def test_pack_chunk_decodes_to_the_dict_era_records_on_generated_meshes():
    for mesh in (triangle_grid(5, 3), tet_box(2, 2, 1)):
        old = dict_era.pack_chunk(dict_chunk(mesh))
        assert records(unpack_chunk(pack_chunk(mesh))) == \
            records(dict_era.unpack_chunk(old))
        assert len(pack_chunk(mesh)) < len(old)
        assert unpack_chunk(pack_chunk(mesh)) == mesh
        assert np.array_equal(unpack_chunk(pack_chunk(mesh)).coords,
                              mesh.coords)


@settings(max_examples=200, deadline=None)
@given(chunk=record_chunks() | st.sampled_from(
    [MeshChunk.empty("triangle"), tet_box(2, 1, 1), triangle_grid(4, 3)]))
def test_pack_chunk_round_trips_and_no_block_grows(chunk):
    data = pack_chunk(chunk)
    back = unpack_chunk(data)
    assert back == chunk
    # The rows a chunk of the same arrays with nothing derived finds.
    want = MeshChunk(chunk.kind, *chunk._arrays())._node_rows()
    assert back._conn_rows.dtype == want.dtype
    assert np.array_equal(back._conn_rows, want)
    assert back._carriers is None
    old = dict_era.pack_chunk(dict_chunk(chunk))
    for new_block, old_block in zip(_codec.unpack_blocks(data),
                                    _codec.unpack_blocks(old), strict=True):
        assert len(new_block) <= len(old_block)


@pytest.mark.parametrize("block, at, value, message", [
    (2, None, None,
     "malformed triangle connectivity: row 3 holds 2 of 3 nodes"),
    (2, 4, 6, "malformed triangle connectivity: row 1 names node row 6 of 6"),
    (6, None, None, "malformed triangle boundary: row 5 holds 1 of 2 nodes"),
    (6, 3, -1, "malformed triangle boundary: row 1 names node row -1 of 6"),
], ids=["ragged-conn", "outside-conn", "ragged-boundary",
        "outside-boundary"])
def test_unpack_chunk_names_a_malformed_rows_block(block, at, value, message):
    # A node-rows block loses its last entry (at None) or names ``value``.
    mesh = triangle_grid(2, 1)
    assert (mesh.n_elements, len(mesh.node_ids),
            len(mesh.boundary_tags)) == (4, 6, 6)
    blocks = _codec.unpack_blocks(pack_chunk(mesh))
    rows = _codec.unpack_i64(blocks[block])
    if at is None:
        rows = rows[:-1]
    else:
        rows[at] = value
    blocks[block] = _codec.pack_i64(rows)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        unpack_chunk(_codec.pack_blocks(blocks))


@pytest.mark.parametrize("elements, boundary, message", [
    ({0: (0, 1, 2), 1: (1, 2, 9)}, [(1, (0, 1))],
     "element 1 references unknown node 9"),
    ({0: (0, 1, 2)}, [(1, (0, 1)), (4, (2, 9))],
     "boundary face 1 (tag 4) references unknown node 9"),
], ids=["element", "boundary"])
def test_pack_chunk_refuses_a_node_missing_from_the_node_list(
        elements, boundary, message):
    nodes = {n: (float(n), 0.0) for n in range(4)}
    chunk = MeshChunk.from_records("triangle", nodes, elements, boundary)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pack_chunk(chunk)


def test_dense_node_ids_still_reject_unknown_references():
    # Node ids 0..m-1 are their own rows; ids outside that range are unknown.
    nodes = {n: (float(n), 0.0) for n in range(4)}
    for bad in (-1, 4):
        chunk = MeshChunk.from_records("triangle", nodes,
                                       {0: (0, 1, 2), 1: (1, 2, bad)},
                                       [(1, (bad, 0))])
        message = f"element 1 references unknown node {bad}"
        with pytest.raises(ValueError, match=message):
            chunk.validate()
        with pytest.raises(ValueError, match=message):
            chunk.centroids()
        chunk = MeshChunk.from_records("triangle", nodes, {0: (0, 1, 2)},
                                       [(1, (bad, 0))])
        with pytest.raises(ValueError, match=f"boundary face 0 \\(tag 1\\) "
                                             f"references unknown node {bad}"):
            chunk.validate()


@st.composite
def node_id_queries(draw):
    """Sorted distinct node ids, one contiguous range or with gaps, near
    int64's ends or not, and ids to look up: known ones and unknown ones
    below, inside and above the range."""
    first = draw(st.sampled_from([0, -7, 2**62, -2**63]))
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 5]), max_size=12))
    ids = first + np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)
    if draw(st.booleans()):
        ids = np.arange(first, first + len(ids), dtype=np.int64)
    lo, hi = int(ids[0]), int(ids[-1])
    queries = draw(st.lists(st.integers(max(lo - 3, -2**63),
                                        min(hi + 3, 2**63 - 1)),
                            max_size=20))
    return ids, np.array(queries, dtype=np.int64).reshape(-1, 2) \
        if len(queries) % 2 == 0 else np.array(queries, dtype=np.int64)


@given(case=node_id_queries())
def test_node_rows_by_range_equal_the_search(case):
    ids, queries = case
    chunk = MeshChunk("triangle", np.zeros(0, np.int64),
                      np.zeros((0, 3), np.int64), ids,
                      np.zeros((len(ids), 2)), np.zeros(0, np.int64),
                      np.zeros((0, 2), np.int64))
    rows, found = chunk._rows(queries)
    want = np.minimum(np.searchsorted(ids, queries), len(ids) - 1)
    assert rows.dtype == np.intp and rows.shape == queries.shape
    assert rows.tolist() == want.tolist()
    assert found.tolist() == (ids[want] == queries).tolist()

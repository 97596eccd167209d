"""The node rows and boundary carriers a chunk keeps and hands down.

``MeshChunk`` keeps its ``conn`` as rows of ``node_ids`` and each boundary
face's carrier once they are found, and ``split_chunk`` hands both down to
its sub-chunks.  Whatever a chunk holds must equal what a chunk of the same
arrays with nothing derived finds from scratch: after any chain of carves
(owners with -1, empty groups), after ``dataclasses.replace`` of the arrays
they come from, after ``merge_chunks`` and after a pack/unpack round.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_era
from dict_era import dict_chunk
from hierpart import mesh as mesh_module
from hierpart.formats import load_mesh, save_mesh
from hierpart.mesh import (MeshChunk, _boundary_carriers, _element_faces,
                           merge_chunks, pack_chunk, split_chunk, unpack_chunk)
from hierpart.meshgen import tet_box, triangle_grid
from test_mesh_arrays import outcome, record_chunks


def fresh(chunk: MeshChunk) -> MeshChunk:
    """A chunk of the same arrays with nothing derived."""
    return MeshChunk(chunk.kind, *chunk._arrays(), chunk.weights)


def assert_kept_equal_fresh(chunk: MeshChunk) -> None:
    """Each derived array the chunk holds equals one found from scratch."""
    for kept, derive in ((chunk._conn_rows, MeshChunk._node_rows),
                         (chunk._carriers, _boundary_carriers)):
        if kept is not None:
            want = derive(fresh(chunk))
            assert kept.dtype == want.dtype
            assert np.array_equal(kept, want)


def carve(chunk: MeshChunk, owner, parts: int) -> list[MeshChunk] | None:
    """``split_chunk``, checked against the split of a fresh copy: the same
    sub-chunks or the same error, and sub-chunks whose handed-down arrays
    equal fresh ones.  None when the split fails."""
    got = outcome(split_chunk, chunk, owner, parts)
    assert got == outcome(split_chunk, fresh(chunk), owner, parts)
    if isinstance(got, tuple):
        return None
    subs = split_chunk(chunk, owner, parts)
    assert_kept_equal_fresh(chunk)
    for sub in subs:
        assert sub._conn_rows is not None and sub._carriers is not None
        assert_kept_equal_fresh(sub)
    return subs


def with_faces(chunk: MeshChunk, extra: np.ndarray) -> MeshChunk:
    """The chunk with ``extra`` boundary faces (tag 9) added."""
    return MeshChunk.from_arrays(
        chunk.kind, chunk.element_ids, chunk.conn, chunk.node_ids,
        chunk.coords, np.concatenate([chunk.boundary_tags,
                                      np.full(len(extra), 9)]),
        np.concatenate([chunk.boundary_conn, extra]))


@st.composite
def meshes(draw):
    """A generated triangle or tet mesh, maybe with extra boundary faces
    on interior faces and faces repeating a node, or a random record
    chunk (unknown references, faces without a carrier)."""
    shape = draw(st.sampled_from(["triangle", "tet", "records"]))
    if shape == "records":
        return draw(record_chunks())
    if shape == "triangle":
        chunk = triangle_grid(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    else:
        chunk = tet_box(*(draw(st.integers(1, 2)) for _ in range(3)))
    faces = _element_faces(chunk.conn, chunk.nodes_per_face)
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        e = draw(st.integers(0, chunk.n_elements - 1))
        face = faces[e, draw(st.integers(0, faces.shape[1] - 1))].tolist()
        if draw(st.booleans()):  # repeat one of its nodes
            face[0] = face[-1]
        extra.append(draw(st.permutations(face)))
    if not extra:
        return chunk
    return with_faces(chunk, np.array(extra, dtype=np.int64))


def owners(n: int, parts: int):
    return st.lists(st.integers(-1, parts - 1), min_size=n, max_size=n)


@settings(max_examples=150, deadline=None)
@given(chunk=meshes(), data=st.data())
def test_carves_hand_down_what_a_fresh_chunk_derives(chunk, data):
    level = [chunk]
    for _ in range(data.draw(st.integers(1, 3))):
        parent = data.draw(st.sampled_from(level))
        parts = data.draw(st.integers(1, 4))
        subs = carve(parent, data.draw(owners(parent.n_elements, parts)),
                     parts)
        if subs is None:
            return
        level = subs
    sub = data.draw(st.sampled_from(level))
    # Chunks built from other arrays start with nothing derived.
    rebuilt = [
        replace(sub, conn=np.roll(sub.conn, 1, axis=1)),
        replace(sub, node_ids=parent.node_ids, coords=parent.coords),
        replace(sub, boundary_tags=parent.boundary_tags,
                boundary_conn=parent.boundary_conn),
        merge_chunks(sub.kind, level),
        unpack_chunk(pack_chunk(sub)),
    ]
    for other in rebuilt:
        assert other._conn_rows is None and other._carriers is None
        parts = data.draw(st.integers(1, 3))
        carve(other, data.draw(owners(other.n_elements, parts)), parts)


def test_the_lowest_id_carries_a_face_two_elements_hold():
    mesh = tet_box(2, 1, 1)
    faces = _element_faces(mesh.conn, 3)
    # An interior face held by two elements, neither of them element 0.
    held = (faces[:, :, None, None, :] == faces[None, None]).all(axis=-1)
    counts = held.any(axis=-1).sum(axis=-1)     # holders of each face
    e, j = next((e, j) for e, j in zip(*np.nonzero(counts == 2)) if e > 0
                and not held[e, j, :e].any())
    holders = np.flatnonzero(held[e, j].any(axis=-1))
    face = faces[e, j][None, ::-1]
    chunk = with_faces(mesh, face)
    (at,) = np.flatnonzero(chunk.boundary_tags == 9)
    assert _boundary_carriers(chunk)[at] == holders[0] == e
    # Element 0 left out: the carve hands the lower holder down at its
    # position in the sub-chunk.
    owner = np.zeros(chunk.n_elements, dtype=np.int64)
    owner[0] = -1
    (sub,) = carve(chunk, owner, 1)
    (at,) = np.flatnonzero(sub.boundary_tags == 9)
    assert sub._carriers[at] == e - 1
    # A chunk of the face and every element but the lower holder finds
    # the other one.
    keep = np.arange(chunk.n_elements) != e
    other = replace(chunk, element_ids=chunk.element_ids[keep],
                    conn=chunk.conn[keep], boundary_tags=np.array([9]),
                    boundary_conn=face)
    assert other.element_ids[_boundary_carriers(other)] == [holders[1]]


def test_a_face_repeating_a_node_goes_to_the_lowest_element_holding_it():
    mesh = triangle_grid(2, 2)
    node = int(mesh.conn[3, 0])
    chunk = with_faces(mesh, np.array([[node, node]]))
    (at,) = np.flatnonzero(chunk.boundary_tags == 9)
    lowest = int(np.flatnonzero((mesh.conn == node).any(axis=1))[0])
    assert _boundary_carriers(chunk)[at] == lowest
    owner = np.arange(chunk.n_elements) % 3
    for sub in carve(chunk, owner, 3):
        assert_kept_equal_fresh(sub)


def test_a_face_whose_carrier_is_left_out_keeps_its_error_text():
    (sub,) = carve(triangle_grid(2, 2), np.zeros(8, dtype=np.int64), 1)
    # The carved chunk's faces over element 0 alone: most lose their
    # carrier, and the carriers the carve handed down do not come along.
    bare = replace(sub, element_ids=sub.element_ids[:1], conn=sub.conn[:1])
    got = outcome(split_chunk, bare, [0], 1)
    assert got == outcome(dict_era.split_chunk, dict_chunk(bare),
                          [bare.element_ids.tolist()])
    assert got[1].endswith("has no local containing element")


def test_a_carved_chunk_carves_with_no_node_search_or_face_key_sort():
    mesh = tet_box(3, 3, 3)
    subs = split_chunk(mesh, np.arange(mesh.n_elements) % 4, 4)
    with mock.patch.object(MeshChunk, "_rows", autospec=True,
                           side_effect=MeshChunk._rows) as rows, \
            mock.patch.object(mesh_module, "_face_keys",
                              side_effect=mesh_module._face_keys) as keys:
        again = [split_chunk(sub, np.arange(sub.n_elements) % 3, 3)
                 for sub in subs]
        for sub in subs + [c for carved in again for c in carved]:
            sub.centroids()
        calls = rows.call_count, keys.call_count
    assert calls == (0, 0)
    for carved in again:
        for sub in carved:
            assert_kept_equal_fresh(sub)


def test_a_loaded_mesh_keeps_the_rows_its_reference_check_found(tmp_path):
    path = tmp_path / "mesh.json"
    save_mesh(path, tet_box(2, 2, 2))
    mesh = load_mesh(path)
    assert mesh._conn_rows is not None and mesh._carriers is None
    assert_kept_equal_fresh(mesh)
    # The equality, the repr and the wire form ignore what is derived.
    assert mesh == fresh(mesh)
    assert repr(mesh) == repr(fresh(mesh))
    assert pack_chunk(mesh) == pack_chunk(fresh(mesh))

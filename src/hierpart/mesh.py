"""Unstructured mesh chunks and the distributed operations over them.

A mesh is triangles in 2D or tetrahedra in 3D, one kind per mesh, with
dense global ids for nodes and elements.  Each rank holds a chunk: its
elements, the node records those elements reference (nodes on part
boundaries are replicated, elements never are), and the boundary faces
carried by its elements.

A chunk is stored the way array-based mesh databases store topology: sorted
element ids with one connectivity row each, sorted node ids with one
coordinate row each, and boundary tags with one face row each.  An optional
float64 weight column, aligned with the element ids, holds each element's
compute weight (None means unit weights); carve, merge and migration keep
it aligned, so a weight always travels with its element.  Carving,
merging, centroids, the wire form and the dual graph are whole-array
operations over these; nothing on those paths builds a Python object per
element.

The sequential dual graph is one CSR type, ``DualGraph``, built by one
sorted face-key pass; its id -> neighbours mapping view is for tests.

The distributed operations need no all-to-all step.  The dual graph is
the sequential face pass run at the faces' owners, and shared-node
discovery asks the nodes' owners: each is one rendezvous of int64 arrays.
Migration rides on blind exchanges.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from . import _codec
from .directory import (CoHolders, _ask_owners, _fresh, _run_pairs, _team_of,
                        _unique, blind_exchange, co_holders)
from .runtime import ProtocolError, RankContext, _normalize_team

# kind -> (code, spatial dim, nodes per element, nodes per face)
KINDS = {
    "triangle": (1, 2, 3, 2),
    "tetrahedron": (2, 3, 4, 3),
}
_KIND_BY_CODE = {code: name for name, (code, _, _, _) in KINDS.items()}


def kind_info(kind: str) -> tuple[int, int, int, int]:
    try:
        return KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown element kind {kind!r}; expected one of "
                         f"{sorted(KINDS)}") from None


@dataclass(eq=False)
class MeshChunk:
    """One rank's share of a mesh (or, on a single rank, the whole mesh).

    Elements and nodes are in ascending id order, boundary faces in
    ascending (tag, face node ids) order.  ``from_arrays`` and
    ``from_records`` sort their input; every operation in this module keeps
    the order and never writes into a chunk's arrays.  ``weights`` is
    None for unit weights or one float64 per element, in element order.

    Two facts derived from the arrays are kept once found: ``conn`` as rows
    of ``node_ids`` (``_node_rows``) and the position of each boundary
    face's carrier (``_boundary_carriers``).  ``split_chunk`` hands both
    down to its sub-chunks, so a carved chunk carves again without
    searching for either.  They are not init fields: the constructor and
    ``dataclasses.replace`` start without them, so a chunk built from other
    arrays derives them afresh, and they stay out of ``==`` and ``repr``.
    On the wire the node rows are the encoding of the connectivity, so an
    unpacked chunk holds them; carriers are still derived.
    """

    kind: str
    element_ids: np.ndarray     # int64[n]
    conn: np.ndarray            # int64[n, nodes per element]
    node_ids: np.ndarray        # int64[m]
    coords: np.ndarray          # float64[m, dim]
    boundary_tags: np.ndarray   # int64[b]
    boundary_conn: np.ndarray   # int64[b, nodes per face]
    weights: np.ndarray | None = None   # float64[n]
    # intp[n, nodes per element] and int64[b], or None until derived.
    _conn_rows: np.ndarray | None = field(default=None, init=False, repr=False)
    _carriers: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_arrays(cls, kind: str, element_ids, conn, node_ids, coords,
                    boundary_tags, boundary_conn, weights=None) -> "MeshChunk":
        """Chunk from record arrays in any order, the weights (if given)
        aligned with the element ids.  Ids must be distinct."""
        _, dim, npe, npf = kind_info(kind)
        eids = np.asarray(element_ids, dtype=np.int64).reshape(-1)
        nids = np.asarray(node_ids, dtype=np.int64).reshape(-1)
        tags = np.asarray(boundary_tags, dtype=np.int64).reshape(-1)
        bconn = np.asarray(boundary_conn, dtype=np.int64).reshape(
            len(tags), npf)
        e = np.argsort(eids, kind="stable")
        n = np.argsort(nids, kind="stable")
        b = _face_order(tags, bconn)
        return cls(kind, eids[e],
                   np.asarray(conn, dtype=np.int64).reshape(len(eids), npe)[e],
                   nids[n],
                   np.asarray(coords, dtype=np.float64).reshape(
                       len(nids), dim)[n],
                   tags[b], bconn[b],
                   None if weights is None else np.asarray(
                       weights, dtype=np.float64).reshape(len(eids))[e])

    @classmethod
    def from_records(cls, kind: str,
                     nodes: Mapping[int, Sequence[float]] | None = None,
                     elements: Mapping[int, Sequence[int]] | None = None,
                     boundary: Iterable[tuple[int, Sequence[int]]] = (),
                     ) -> "MeshChunk":
        """Chunk from records: node id -> coordinates, element id -> node
        ids, and (tag, face node ids) pairs.  A record of the wrong length
        raises ValueError naming it."""
        _, dim, npe, npf = kind_info(kind)
        nodes = nodes or {}
        elements = elements or {}
        boundary = list(boundary)
        for nid, xyz in nodes.items():
            if len(xyz) != dim:
                raise ValueError(f"node {nid}: expected {dim} coordinates, "
                                 f"got {len(xyz)}")
        for eid, conn in elements.items():
            if len(conn) != npe:
                raise ValueError(f"element {eid}: expected {npe} nodes, "
                                 f"got {len(conn)}")
        for i, (tag, conn) in enumerate(boundary):
            if len(conn) != npf:
                raise ValueError(f"boundary face {i} (tag {tag}): expected "
                                 f"{npf} nodes, got {len(conn)}")
        return cls.from_arrays(kind, list(elements), list(elements.values()),
                               list(nodes), list(nodes.values()),
                               [t for t, _ in boundary],
                               [c for _, c in boundary])

    @classmethod
    def empty(cls, kind: str) -> "MeshChunk":
        return cls.from_arrays(kind, [], [], [], [], [], [])

    # Record views, built on demand for tests and tools; no verb builds one.

    @property
    def elements(self) -> dict[int, tuple[int, ...]]:
        return dict(zip(self.element_ids.tolist(),
                        map(tuple, self.conn.tolist())))

    @property
    def nodes(self) -> dict[int, tuple[float, ...]]:
        return dict(zip(self.node_ids.tolist(),
                        map(tuple, self.coords.tolist())))

    @property
    def boundary(self) -> list[tuple[int, tuple[int, ...]]]:
        return list(zip(self.boundary_tags.tolist(),
                        map(tuple, self.boundary_conn.tolist())))

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (self.element_ids, self.conn, self.node_ids, self.coords,
                self.boundary_tags, self.boundary_conn)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeshChunk):
            return NotImplemented
        return (self.kind == other.kind
                and (self.weights is None) == (other.weights is None)
                and all(np.array_equal(a, b)
                        for a, b in zip(self._arrays(), other._arrays()))
                and (self.weights is None
                     or np.array_equal(self.weights, other.weights)))

    @property
    def dim(self) -> int:
        return kind_info(self.kind)[1]

    @property
    def nodes_per_element(self) -> int:
        return kind_info(self.kind)[2]

    @property
    def nodes_per_face(self) -> int:
        return kind_info(self.kind)[3]

    @property
    def n_elements(self) -> int:
        return len(self.element_ids)

    def _rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row of each node id in ``node_ids``, and whether it is there.

        When the sorted, distinct ids are one contiguous range, a row is
        the id minus the first and "there" is a range test; otherwise each
        id is searched for.  Both give an unknown id the row its search
        would, clamped to the rows there are."""
        m = len(self.node_ids)
        if not m:
            return (np.zeros(ids.shape, dtype=np.intp),
                    np.zeros(ids.shape, dtype=bool))
        first, last = int(self.node_ids[0]), int(self.node_ids[-1])
        if last - first == m - 1:
            rows = np.minimum(np.maximum(ids, first), last) - first
            return rows.astype(np.intp, copy=False), rows + first == ids
        rows = np.minimum(np.searchsorted(self.node_ids, ids), m - 1)
        return rows, self.node_ids[rows] == ids

    def _node_rows(self) -> np.ndarray:
        """``conn`` as rows of ``node_ids`` and ``coords``, searched for at
        most once per chunk; raises ValueError naming an element that
        references an unknown node."""
        if self._conn_rows is None:
            rows, found = self._rows(self.conn)
            if not found.all():
                i, j = np.argwhere(~found)[0]
                raise ValueError(f"element {self.element_ids[i]} references "
                                 f"unknown node {self.conn[i, j]}")
            self._conn_rows = rows
        return self._conn_rows

    def references_resolve(self) -> bool:
        """Every element and boundary node is a known node, and no element
        repeats a node.  The element rows it finds are kept as the chunk's
        ``_node_rows``."""
        rows, found = self._rows(self.conn)
        if not (found.all() and self._rows(self.boundary_conn)[1].all()
                and not any((self.conn[:, i] == self.conn[:, j]).any()
                            for i, j in combinations(
                                range(self.nodes_per_element), 2))):
            return False
        self._conn_rows = rows
        return True

    def validate(self) -> None:
        """Check reference integrity; raises ValueError naming the offender."""
        if self.references_resolve():
            return
        raise ValueError(reference_problem(
            zip(self.element_ids.tolist(), map(tuple, self.conn.tolist())),
            self.node_ids.tolist(), self.boundary, self.nodes_per_element))

    def centroids(self) -> tuple[np.ndarray, np.ndarray]:
        """(element ids, centroid coordinates), sorted by element id: the
        ``gather_mean`` of the chunk's coordinates over its node rows."""
        return self.element_ids, gather_mean(self.coords, self._node_rows())


def gather_mean(coords: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Centroid of each (elements, nodes per element) row of indices into
    ``coords``.

    One connectivity column is gathered at a time and added, in
    connectivity order, to a sum that starts at +0.0, then the sum is
    divided once by the count, as ``np.mean`` of each element's coordinates
    adds and divides them: every centroid equals it bit for bit (a sum of
    -0.0s too), whoever computes it, without the (elements, nodes per
    element, dim) gather.
    """
    total = np.zeros((len(rows), coords.shape[1]), dtype=coords.dtype)
    for column in rows.T:
        total += coords[column]
    total /= rows.shape[1]
    return total


def reference_problem(elements: Iterable[tuple[int, tuple]],
                      node_ids: Iterable[int],
                      boundary: Iterable[tuple[int, tuple]],
                      npe: int) -> str | None:
    """The first broken reference, in the order given, as a message.

    Elements come first, each checked for a repeated node and then for its
    first unknown node; then boundary faces, numbered in the order given.
    None when every reference resolves.
    """
    known = set(node_ids)
    for eid, conn in elements:
        if len(set(conn)) != npe:
            return f"element {eid}: repeated node in {conn}"
        for n in conn:
            if n not in known:
                return f"element {eid} references unknown node {n}"
    for i, (tag, conn) in enumerate(boundary):
        for n in conn:
            if n not in known:
                return (f"boundary face {i} (tag {tag}) references unknown "
                        f"node {n}")
    return None


# -- face keys ------------------------------------------------------------------

def _face_order(tags: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Indices putting boundary faces in ascending (tag, node ids) order."""
    return np.lexsort((*faces.T[::-1], tags))


def _element_faces(conn: np.ndarray, npf: int) -> np.ndarray:
    """(elements, faces per element, npf): each element's faces, the
    npf-combinations of its sorted connectivity row."""
    combos = list(combinations(range(conn.shape[1]), npf))
    return np.sort(conn, axis=1)[:, combos]


def _face_keys(*faces: np.ndarray) -> list[np.ndarray]:
    """One int64 key per row of each (rows, npf) array of sorted node ids.

    Keys are computed jointly, so two rows of any of the arrays get equal
    keys exactly when they are equal.  A row is read as a number in base
    (id span) when that fits in int64, and ranked by ``np.unique`` when not.
    """
    every = np.concatenate(faces)
    keys = np.zeros(len(every), dtype=np.int64)
    if len(every):
        lo = int(every.min())
        span = int(every.max()) - lo + 1
        if span ** every.shape[1] <= np.iinfo(np.int64).max:
            for column in (every - lo).T:
                keys = keys * span + column
        else:
            keys = np.unique(every, axis=0, return_inverse=True)[1].reshape(-1)
    return np.split(keys, np.cumsum([len(f) for f in faces])[:-1])


def _face_runs(faces: np.ndarray, elem: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """The face pass's sort: (face keys, positions) of the distinct (face,
    element) rows, ascending, so each run of equal keys is one face and its
    elements.  An element lists a face twice only when it repeats a node."""
    (key,) = _face_keys(faces)
    order = np.lexsort((elem, key))
    fresh = _fresh(key[order], elem[order])
    return key[order][fresh], order[fresh]


@dataclass(eq=False)
class DualGraph(Mapping):
    """An element dual graph in METIS's compressed sparse row form: vertex
    i has id ``ids[i]``, in the order the graph was built in, and
    neighbours at positions ``adjncy[xadj[i]:xadj[i + 1]]``, ascending by
    id.  Symmetric, without self-loops.  As a ``Mapping`` it is a read-only
    view, id -> neighbour ids, for tests and tools; no verb reads it."""

    ids: np.ndarray         # int64[n]
    xadj: np.ndarray        # int64[n + 1]
    adjncy: np.ndarray      # intp[xadj[-1]]

    @classmethod
    def of(cls, adjacency: Mapping[int, Sequence[int]]) -> "DualGraph":
        """A DualGraph as it is, any other mapping in ascending id order,
        without self-loops and repeats.  The first (v, u) pair, in sorted
        order, whose u is no vertex or does not list v back is an error."""
        if isinstance(adjacency, DualGraph):
            return adjacency
        vertices = sorted(adjacency)
        index = {v: i for i, v in enumerate(vertices)}
        nbr_sets = [set(adjacency[v]) - {v} for v in vertices]
        rows = [sorted(nbrs) for nbrs in nbr_sets]
        for v, row in zip(vertices, rows):
            for u in row:
                if u not in index or v not in nbr_sets[index[u]]:
                    raise ValueError(f"adjacency not symmetric at edge "
                                     f"({v}, {u})")
        return cls(np.array(vertices, dtype=np.int64),
                   np.cumsum([0, *map(len, rows)]),
                   np.array([index[u] for row in rows for u in row],
                            dtype=np.intp))

    @cached_property
    def _position(self) -> dict[int, int]:
        return {e: i for i, e in enumerate(self.ids.tolist())}

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids.tolist())

    def __getitem__(self, v) -> list[int]:
        i = self._position[v]
        return self.ids[self.adjncy[self.xadj[i]:self.xadj[i + 1]]].tolist()


def adjacency_from_elements(element_ids, conn, kind: str) -> DualGraph:
    """Dual graph of an element table: neighbors share a full face.

    ``element_ids`` are distinct, one ``conn`` row each; the graph's
    vertices are in the order given.  One sort of all element faces by key:
    each run of equal keys is one face, and its elements are pairwise
    neighbors.
    """
    _, _, npe, npf = kind_info(kind)
    ids = np.asarray(element_ids, dtype=np.int64).reshape(-1)
    faces = _element_faces(
        np.asarray(conn, dtype=np.int64).reshape(len(ids), npe), npf)
    per = faces.shape[1]
    key, at = _face_runs(faces.reshape(-1, npf),
                         np.arange(len(ids) * per) // per)
    a, b = _run_pairs(key)
    src, dst = at[a] // per, at[b] // per
    order = np.lexsort((ids[dst], src))
    src, dst = src[order], dst[order]
    fresh = _fresh(src, dst)
    counts = np.bincount(src[fresh], minlength=len(ids))
    return DualGraph(ids, np.concatenate(([0], np.cumsum(counts))), dst[fresh])


def local_dual_graph(chunk: MeshChunk) -> DualGraph:
    """Sequential dual graph of one chunk, for whole-mesh or leader-local use."""
    return adjacency_from_elements(chunk.element_ids, chunk.conn, chunk.kind)


# -- carve and merge ------------------------------------------------------------

def _boundary_carriers(chunk: MeshChunk) -> np.ndarray:
    """Position of the element carrying each boundary face, found at most
    once per chunk.

    A boundary face travels with the element containing all its nodes; if
    the input is degenerate and several do, the lowest element id wins so
    migration stays deterministic.  A face of distinct nodes is contained
    exactly when it is one of the element's faces, and only an element
    holding at least nodes-per-face of the boundary faces' nodes can have
    one, so one join of sorted face keys over those candidates finds its
    carrier; a face repeating a node is checked against every element.
    """
    if chunk._carriers is not None:
        return chunk._carriers
    npf = chunk.nodes_per_face
    faces = np.sort(chunk.boundary_conn, axis=1)
    carrier = np.full(len(faces), -1, dtype=np.int64)
    if len(faces):
        rows, found = chunk._rows(faces)
        on_boundary = np.zeros(len(chunk.node_ids), dtype=bool)
        on_boundary[rows[found]] = True
        candidates = np.flatnonzero(np.count_nonzero(
            on_boundary[chunk._node_rows()], axis=1) >= npf)
        efaces = _element_faces(chunk.conn[candidates], npf)
        per = efaces.shape[1]
        ekey, bkey = _face_keys(efaces.reshape(-1, npf), faces)
        # Stable, so the lowest element comes first among equal keys.
        order = np.argsort(ekey, kind="stable")
        ekey = ekey[order]
        if len(ekey):
            at = np.minimum(np.searchsorted(ekey, bkey), len(ekey) - 1)
            hit = ekey[at] == bkey
            carrier[hit] = candidates[order[at[hit]] // per]
    for i in np.flatnonzero((faces[:, 1:] == faces[:, :-1]).any(axis=1)):
        holds = np.ones(chunk.n_elements, dtype=bool)
        for n in _unique(faces[i]):
            holds &= (chunk.conn == n).any(axis=1)
        carrier[i] = np.argmax(holds) if holds.any() else -1
    missing = np.flatnonzero(carrier < 0)
    if len(missing):
        i = missing[0]
        face = tuple(chunk.boundary_conn[i].tolist())
        raise ValueError(f"boundary face {face} (tag {chunk.boundary_tags[i]}) "
                         f"has no local containing element")
    chunk._carriers = carrier
    return carrier


def split_chunk(chunk: MeshChunk, owner, parts: int) -> list[MeshChunk]:
    """Carve a chunk into ``parts`` sub-chunks.

    ``owner[i]`` is the sub-chunk of the chunk's i-th element (in id order),
    or -1 to leave it out.  Each sub-chunk holds its elements, the nodes
    they reference and the boundary faces they carry, all in ascending
    order: a stable sort by owner keeps each group's elements, weights and
    faces in order, and one sort of (owner, node row) pairs gives each
    group's nodes.

    The chunk's node rows and carriers are derived at most once, and each
    sub-chunk gets its own handed down: its elements' (group, node row)
    pairs found among the sorted pairs with one ``searchsorted``, and each
    face's carrier as its position in the sub-chunk.  A carved chunk thus
    carves again with no node search and no face-key sort.
    """
    owner = np.asarray(owner, dtype=np.int64).reshape(-1)
    if len(owner) != chunk.n_elements:
        raise ValueError(f"{len(owner)} owners for {chunk.n_elements} elements")
    if len(owner) and not (-1 <= owner.min() and owner.max() < parts):
        raise ValueError(f"owners must lie in -1..{parts - 1}")
    rows = chunk._node_rows()
    carrier = _boundary_carriers(chunk)

    def spans(labels: np.ndarray) -> tuple[np.ndarray, list[int]]:
        # Slot 0 ends the left-out records, slot g + 1 group g.
        ends = np.cumsum(np.bincount(labels + 1, minlength=parts + 1))
        return np.argsort(labels, kind="stable"), ends.tolist()

    e_order, e_end = spans(owner)
    f_order, f_end = spans(owner[carrier])
    m = max(len(chunk.node_ids), 1)
    kept = e_end[0]     # e_order's first kept element
    keys = (owner[:, None] * m + rows)[e_order[kept:]]
    pairs = _unique(keys)
    n_end = [0] + np.searchsorted(pairs // m, np.arange(parts),
                                  side="right").tolist()
    # Each kept element's node rows in its sub-chunk: the positions of its
    # pairs, less the first position of its group's.
    sub_rows = np.searchsorted(pairs, keys) - np.repeat(
        n_end[:-1], np.diff(e_end))[:, None]
    at = np.empty(len(owner), dtype=np.int64)
    at[e_order] = np.arange(len(owner))
    sub_carrier = at[carrier[f_order]]
    eids, conn = chunk.element_ids[e_order], chunk.conn[e_order]
    w = None if chunk.weights is None else chunk.weights[e_order]
    nrow = pairs % m
    nids, coords = chunk.node_ids[nrow], chunk.coords[nrow]
    tags = chunk.boundary_tags[f_order]
    bconn = chunk.boundary_conn[f_order]
    out = []
    for g in range(parts):
        e = slice(e_end[g], e_end[g + 1])
        n = slice(n_end[g], n_end[g + 1])
        f = slice(f_end[g], f_end[g + 1])
        sub = MeshChunk(chunk.kind, eids[e], conn[e], nids[n], coords[n],
                        tags[f], bconn[f], None if w is None else w[e])
        sub._conn_rows = sub_rows[e_end[g] - kept:e_end[g + 1] - kept]
        sub._carriers = sub_carrier[f] - e_end[g]
        out.append(sub)
    return out


def subset_chunk(chunk: MeshChunk, element_ids: Iterable[int]) -> MeshChunk:
    """Chunk restricted to the given elements, their nodes and boundary faces."""
    ids = np.fromiter(element_ids, dtype=np.int64)
    at = np.searchsorted(chunk.element_ids, ids)
    known = at < chunk.n_elements
    known[known] = chunk.element_ids[at[known]] == ids[known]
    if not known.all():
        raise ValueError(f"element {ids[np.argmin(known)]} not in chunk")
    owner = np.full(chunk.n_elements, -1, dtype=np.int64)
    owner[at] = 0
    return split_chunk(chunk, owner, 1)[0]


def _last_per_id(ids: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Records sorted by id; of several with one id, the last one given."""
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    last = np.ones(len(ids), dtype=bool)
    last[:-1] = ids[1:] != ids[:-1]
    keep = order[last]
    return (ids[last], *(c[keep] for c in columns))


def merge_chunks(kind: str, chunks: Iterable[MeshChunk]) -> MeshChunk:
    """One chunk holding every record of the given chunks; where several
    hold the same element or node id, the last one's record (and weight)
    is kept.  The chunks must be all weighted or all unweighted."""
    chunks = list(chunks)
    for ch in chunks:
        if ch.kind != kind:
            raise ValueError(f"cannot merge {ch.kind} chunk into {kind} mesh")
    if not chunks:
        return MeshChunk.empty(kind)
    weighted = [ch.weights is not None for ch in chunks]
    if any(weighted) and not all(weighted):
        raise ValueError("weights given on some ranks but not all")
    eids, conn, nids, coords, tags, bconn = (
        np.concatenate(arrays) for arrays in zip(*(ch._arrays()
                                                   for ch in chunks)))
    columns = [conn]
    if weighted[0]:
        columns.append(np.concatenate([ch.weights for ch in chunks]))
    eids, conn, *weights = _last_per_id(eids, *columns)
    b = _face_order(tags, bconn)
    return MeshChunk(kind, eids, conn, *_last_per_id(nids, coords),
                     tags[b], bconn[b], *weights)


# -- wire form ----------------------------------------------------------------

def pack_chunk(chunk: MeshChunk) -> bytes:
    """The chunk's geometry; the weight column is not part of it.

    The sorted id columns (element ids, node ids, boundary tags) travel in
    gap form, and the element and boundary connectivity as rows of the
    chunk's own node list, whose span is at most the node ids'.  A chunk
    with an element or boundary node missing from its node list is refused.
    """
    gaps, i64 = _codec.pack_gaps, _codec.pack_i64
    rows = chunk._node_rows()
    brows, found = chunk._rows(chunk.boundary_conn)
    if not found.all():
        i, j = np.argwhere(~found)[0]
        raise ValueError(f"boundary face {i} (tag {chunk.boundary_tags[i]}) "
                         f"references unknown node "
                         f"{chunk.boundary_conn[i, j]}")
    return _codec.pack_blocks([
        i64([kind_info(chunk.kind)[0]]),
        gaps(chunk.element_ids), i64(rows),
        gaps(chunk.node_ids), _codec.pack_f64(chunk.coords),
        gaps(chunk.boundary_tags), i64(brows),
    ])


def _unpack_node_rows(data: bytes, width: int, node_ids: np.ndarray,
                      what: str) -> np.ndarray:
    """The (rows, width) rows of ``node_ids`` a ``pack_chunk`` block holds;
    a ragged block, or a row outside ``node_ids``, raises ValueError naming
    ``what`` and the bad row."""
    nodes = len(node_ids)
    flat = _codec.unpack_i64(data)
    if len(flat) % width:
        raise ValueError(f"malformed {what}: row {len(flat) // width} holds "
                         f"{len(flat) % width} of {width} nodes")
    rows = flat.reshape(-1, width)
    if len(flat) and not (0 <= flat.min() and flat.max() < nodes):
        i, j = np.argwhere((rows < 0) | (rows >= nodes))[0]
        raise ValueError(f"malformed {what}: row {i} names node row "
                         f"{rows[i, j]} of {nodes}")
    return rows.astype(np.intp, copy=False)


def unpack_chunk(data: bytes) -> MeshChunk:
    """The chunk ``pack_chunk`` packed, holding its connectivity's node
    rows as ``_node_rows``, so it carves and takes centroids without a
    node search."""
    (code_raw, eids_raw, conn_raw, nids_raw, coords_raw,
     tags_raw, bconn_raw) = _codec.unpack_blocks(data)
    kind = _KIND_BY_CODE[_codec.unpack_one_i64(code_raw)]
    _, dim, npe, npf = kind_info(kind)
    gaps = _codec.unpack_gaps
    nids = gaps(nids_raw)
    rows = _unpack_node_rows(conn_raw, npe, nids, f"{kind} connectivity")
    brows = _unpack_node_rows(bconn_raw, npf, nids, f"{kind} boundary")
    chunk = MeshChunk(kind, gaps(eids_raw), nids[rows], nids,
                      _codec.unpack_f64(coords_raw).reshape(-1, dim),
                      gaps(tags_raw), nids[brows])
    chunk._conn_rows = rows
    return chunk


# -- distributed operations -------------------------------------------------------

def build_dual_graph(ctx: RankContext, chunk: MeshChunk, n_nodes: int,
                     team: Sequence[int] | None = None) -> dict[int, list[int]]:
    """Element adjacency across full shared faces; collective over the team.

    The face pass of ``adjacency_from_elements``, run at the faces' owners
    in one rendezvous: each rank sends every face of its elements (sorted
    node ids, then the element id) to the owner of the face's lowest node
    in [0, n_nodes), and each owner answers every sender with the (its
    element, neighbour) pairs of the faces it sent.  Returns {local element:
    ascending neighbour ids} for every local element.
    """
    npf = chunk.nodes_per_face
    faces = _element_faces(chunk.conn, npf)
    rows = np.column_stack((faces.reshape(-1, npf),
                            np.repeat(chunk.element_ids, faces.shape[1])))
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    pairs = _ask_owners(ctx, rows, n_nodes, _team_of(ctx, team), _pair_faces)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    # Elements sharing several faces are paired at each face's owner.
    fresh = _fresh(pairs[:, 0], pairs[:, 1])
    ends = np.searchsorted(pairs[fresh, 0], chunk.element_ids, "right").tolist()
    nbrs = pairs[fresh, 1].tolist()
    return {e: nbrs[a:b] for e, a, b in
            zip(chunk.element_ids.tolist(), [0, *ends], ends)}


def _pair_faces(src: np.ndarray, rows: np.ndarray) -> tuple:
    # At a face owner: each element with each other element of every face
    # it sent.
    elem = rows[:, -1]
    key, at = _face_runs(rows[:, :-1], elem)
    # A run longer than two is a face of a non-manifold mesh.
    for k in _unique(key[2:][key[2:] == key[:-2]]):
        # Imported here alone: loading logging costs every verb's start-up.
        import logging
        a, b = np.searchsorted(key, k, "left"), np.searchsorted(key, k, "right")
        logging.getLogger(__name__).warning(
            "face %s shared by %d elements %s; mesh is not manifold",
            tuple(rows[at[a], :-1].tolist()), b - a, elem[at[a:b]].tolist())
    i, j = _run_pairs(key)
    return at[i], at[j], elem, elem


def migrate(ctx: RankContext, chunk: MeshChunk,
            assignment: Mapping[int, int] | np.ndarray,
            team: Sequence[int] | None = None) -> MeshChunk:
    """Redistribute elements so each lands on its assigned rank.

    Collective over the team.  ``assignment`` is the destination rank of
    each local element, either as an int64 array aligned with the chunk's
    element ids or as a mapping that must cover every local element.  Only
    elements whose owner changes are packed and sent: the chunk is carved
    into what stays and one group per receiving rank, and a rank that sends
    nothing keeps its chunk as it is, carving nothing.  A rank that
    receives nothing returns what stays without a merge.  Node records are
    replicated onto each receiving rank, boundary faces travel with their
    carrying element, and the rebuilt chunk is ordered by global id so the
    result is independent of arrival order.  A weighted chunk's leaving
    weights follow in a second round, each receiver's sub-chunk ids and
    weights in one ``exchange_keyed_values`` call on every rank, so the
    result carries each element's weight; every team member must be
    weighted alike.
    """
    team_t = _normalize_team(team, ctx.size)
    if isinstance(assignment, Mapping):
        # -1 is no rank, so a missing element falls outside every team.
        dest = np.fromiter((assignment.get(e, -1)
                            for e in chunk.element_ids.tolist()),
                           dtype=np.int64, count=chunk.n_elements)
    else:
        dest = np.asarray(assignment, dtype=np.int64).reshape(-1)
        if len(dest) != chunk.n_elements:
            raise ValueError(f"{len(dest)} destinations for "
                             f"{chunk.n_elements} elements")
    members = np.array(team_t, dtype=np.int64)
    owner = np.minimum(np.searchsorted(members, dest), len(members) - 1)
    inside = members[owner] == dest
    if not inside.all():
        i = int(np.argmin(inside))
        eid = int(chunk.element_ids[i])
        if isinstance(assignment, Mapping) and eid not in assignment:
            raise ValueError(f"element {eid} missing from migration assignment")
        raise ValueError(f"element {eid} assigned to rank {dest[i]} "
                         f"outside team {team_t}")

    leave = dest != ctx.rank
    own, sent = chunk, {}
    if leave.any():
        # Group 0 is what stays, group i the i-th receiving team member.
        receivers = np.flatnonzero(np.bincount(owner[leave],
                                               minlength=len(team_t)))
        label = np.zeros(len(team_t), dtype=np.int64)
        label[receivers] = np.arange(1, len(receivers) + 1)
        own, *subs = split_chunk(chunk, np.where(leave, label[owner], 0),
                                 len(receivers) + 1)
        sent = {team_t[r]: sub for r, sub in zip(receivers.tolist(), subs)}
    received = [unpack_chunk(blob) for _, blob in blind_exchange(
        ctx, {d: pack_chunk(sub) for d, sub in sent.items()}, team=team_t)]
    if chunk.weights is not None:
        got = exchange_keyed_values(
            ctx, {d: (sub.element_ids, sub.weights) for d, sub in sent.items()},
            team=team_t)
        if len(got) != len(received) or not all(
                np.array_equal(keys, piece.element_ids)
                for (keys, _), piece in zip(got, received)):
            raise ProtocolError(f"rank {ctx.rank}: the weights that arrived "
                                f"do not match the elements")
        for (_, values), piece in zip(got, received):
            piece.weights = values
    if not received:
        return own
    return merge_chunks(chunk.kind, [own, *received])


def exchange_keyed_values(ctx: RankContext,
                          outgoing: Mapping[int, tuple[np.ndarray, np.ndarray]],
                          team: Sequence[int] | None = None
                          ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Send each rank in ``outgoing`` its (ascending int64 keys, float64
    values) in one message; collective over the team, as :func:`migrate`
    sends a weighted chunk's leaving weights.  Returns the (keys, values)
    of each source that sent here, in the source order of the pieces
    ``blind_exchange`` delivers."""
    received = blind_exchange(
        ctx, {d: _codec.pack_kv_f64(k, v) for d, (k, v) in outgoing.items()},
        team=team)
    return [_codec.unpack_kv_f64(blob) for _, blob in received]


def find_shared_nodes(ctx: RankContext, chunk: MeshChunk, n_nodes: int,
                      team: Sequence[int] | None = None) -> CoHolders:
    """Nodes this rank shares with each other rank, {other rank: ascending
    node ids}: ``directory.co_holders`` of the chunk's node ids, collective
    over the team, whose node leaders alone use the network.  The table
    also names each node's leader and, at a leader, holds its node's survey
    rows, from which ``halo.schedule_for_rank`` builds the leader's routes."""
    return co_holders(ctx, chunk.conn, n_nodes, team)


def _even_sizes(n: int, parts: int) -> list[int]:
    """Sizes of ``parts`` contiguous, near-equal blocks of n items, the
    larger blocks first."""
    return [n // parts + (p < n % parts) for p in range(parts)]


def split_ids_evenly(ids: Sequence[int], parts: int) -> list[list[int]]:
    """Split sorted ids into ``parts`` contiguous, near-equal blocks."""
    ordered = sorted(ids)
    out = []
    start = 0
    for size in _even_sizes(len(ordered), parts):
        out.append(ordered[start:start + size])
        start += size
    return out


def split_contiguous(chunk: MeshChunk, parts: int) -> list[MeshChunk]:
    """Carve a chunk into contiguous element-id blocks, one per part."""
    owner = np.repeat(np.arange(parts), _even_sizes(chunk.n_elements, parts))
    return split_chunk(chunk, owner, parts)


# -- local measures -------------------------------------------------------------

def _graph_and_owner(adjacency: Mapping[int, Sequence[int]],
                     assignment: Mapping[int, int] | np.ndarray
                     ) -> tuple[DualGraph, np.ndarray]:
    """``DualGraph.of(adjacency)`` and the part of each of its vertices."""
    graph = DualGraph.of(adjacency)
    if isinstance(assignment, Mapping):
        assignment = [assignment[v] for v in graph.ids.tolist()]
    return graph, np.asarray(assignment, dtype=np.int64)


def halo_growth(adjacency: Mapping[int, Sequence[int]],
                assignment: Mapping[int, int] | np.ndarray,
                layers: int) -> float:
    """Replication overhead, in percent, of growing each part by k layers.

    Each part's element set is expanded ``layers`` times by its dual-graph
    neighborhood; the overhead is (sum of grown sizes - N) / N * 100.
    ``adjacency`` is a DualGraph or a mapping ``DualGraph.of`` converts, and
    ``assignment`` maps its ids to parts or is an owner array aligned with
    them.
    """
    return _halo_growths(adjacency, assignment, (layers,))[0]


def _halo_growths(adjacency: Mapping[int, Sequence[int]],
                  assignment: Mapping[int, int] | np.ndarray,
                  layers: Sequence[int]) -> list[float]:
    """``halo_growth`` for each of ``layers``, from one growth of each part
    to the most layers asked for.  The grown sets are one sorted array of
    part * N + vertex keys; each layer expands only the keys the last one
    added."""
    if min(layers) < 0:
        raise ValueError("layers must be >= 0")
    if len(assignment) == 0:
        raise ValueError("empty assignment")
    graph, owner = _graph_and_owner(adjacency, assignment)
    n = len(graph)
    grown = frontier = np.sort(owner * n + np.arange(n))
    sizes = [n]     # the grown size after each layer
    for _ in range(max(layers)):
        part, vertex = np.divmod(frontier, n)
        start = graph.xadj[vertex]
        counts = graph.xadj[vertex + 1] - start
        # Each frontier key's neighbour positions, row after row.
        at = np.repeat(start - np.cumsum(counts) + counts, counts) + \
            np.arange(counts.sum())
        reached = _unique(np.repeat(part * n, counts) + graph.adjncy[at])
        at = np.minimum(np.searchsorted(grown, reached), len(grown) - 1)
        frontier = reached[grown[at] != reached]
        grown = np.sort(np.concatenate((grown, frontier)))
        sizes.append(len(grown))
    return [(sizes[k] - n) / n * 100.0 for k in layers]

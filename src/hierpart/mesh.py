"""Unstructured mesh chunks and the distributed operations over them.

A mesh is triangles in 2D or tetrahedra in 3D, one kind per mesh, with
dense global ids for nodes and elements.  Each rank holds a chunk: its
elements, the node records those elements reference (nodes on part
boundaries are replicated, elements never are), and the boundary faces
carried by its elements.

The distributed operations (dual graph, migration, shared-node discovery)
ride on the rendezvous directory, so none of them needs an all-to-all step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _codec
from .directory import Directory, blind_exchange
from .runtime import RankContext, _normalize_team

log = logging.getLogger(__name__)

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


@dataclass
class MeshChunk:
    """One rank's share of a mesh (or, on a single rank, the whole mesh)."""

    kind: str
    nodes: dict[int, tuple[float, ...]] = field(default_factory=dict)
    elements: dict[int, tuple[int, ...]] = field(default_factory=dict)
    boundary: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)

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
        return len(self.elements)

    def validate(self) -> None:
        """Check reference integrity; raises ValueError naming the offender."""
        npe = self.nodes_per_element
        npf = self.nodes_per_face
        dim = self.dim
        for nid, coords in self.nodes.items():
            if len(coords) != dim:
                raise ValueError(f"node {nid}: expected {dim} coordinates, "
                                 f"got {len(coords)}")
        for eid, conn in self.elements.items():
            if len(conn) != npe:
                raise ValueError(f"element {eid}: expected {npe} nodes, "
                                 f"got {len(conn)}")
            if len(set(conn)) != npe:
                raise ValueError(f"element {eid}: repeated node in {conn}")
            for n in conn:
                if n not in self.nodes:
                    raise ValueError(f"element {eid} references unknown node {n}")
        for i, (tag, conn) in enumerate(self.boundary):
            if len(conn) != npf:
                raise ValueError(f"boundary face {i} (tag {tag}): expected "
                                 f"{npf} nodes, got {len(conn)}")
            for n in conn:
                if n not in self.nodes:
                    raise ValueError(f"boundary face {i} (tag {tag}) references "
                                     f"unknown node {n}")

    def centroids(self) -> tuple[np.ndarray, np.ndarray]:
        """(element ids, centroid coordinates), sorted by element id.

        One gather-mean over an (elements, nodes per element) row-index
        array; it sums each element's nodes in connectivity order, so every
        centroid equals ``np.mean`` of that element's coordinates bit for bit.
        """
        eids = sorted(self.elements)
        ids = np.array(eids, dtype=np.int64)
        if not eids:
            return ids, np.empty((0, self.dim), dtype=np.float64)
        row = {n: i for i, n in enumerate(self.nodes)}
        xyz = np.array(list(self.nodes.values()), dtype=np.float64)
        conn = np.array([[row[n] for n in self.elements[e]] for e in eids],
                        dtype=np.intp)
        return ids, xyz[conn].mean(axis=1)

    def sorted_copy(self) -> "MeshChunk":
        """Same chunk with elements and nodes in ascending global id order."""
        return MeshChunk(
            kind=self.kind,
            nodes={n: self.nodes[n] for n in sorted(self.nodes)},
            elements={e: self.elements[e] for e in sorted(self.elements)},
            boundary=sorted(self.boundary),
        )


def element_faces(conn: Sequence[int], kind: str) -> list[tuple[int, ...]]:
    """The element's faces as sorted node tuples (edges in 2D)."""
    npf = kind_info(kind)[3]
    return [tuple(sorted(c)) for c in combinations(conn, npf)]


def adjacency_from_elements(elements: Mapping[int, Sequence[int]],
                            kind: str) -> dict[int, list[int]]:
    """Dual graph of an in-memory element table: neighbors share a full face."""
    npf = kind_info(kind)[3]
    face_users: dict[tuple[int, ...], list[int]] = {}
    for eid in sorted(elements):
        # Combinations of the sorted connectivity are sorted faces.
        for face in combinations(sorted(elements[eid]), npf):
            face_users.setdefault(face, []).append(eid)
    adj: dict[int, set[int]] = {int(e): set() for e in elements}
    for users in face_users.values():
        if len(users) > 1:
            for a in users:
                for b in users:
                    if a != b:
                        adj[a].add(b)
    return {e: sorted(nbrs) for e, nbrs in adj.items()}


def local_dual_graph(chunk: MeshChunk) -> dict[int, list[int]]:
    """Sequential dual graph of one chunk, for whole-mesh or leader-local use."""
    return adjacency_from_elements(chunk.elements, chunk.kind)


def merge_chunks(kind: str, chunks: Iterable[MeshChunk]) -> MeshChunk:
    out = MeshChunk(kind)
    for ch in chunks:
        if ch.kind != kind:
            raise ValueError(f"cannot merge {ch.kind} chunk into {kind} mesh")
        out.nodes.update(ch.nodes)
        out.elements.update(ch.elements)
        out.boundary.extend(ch.boundary)
    return out.sorted_copy()


def _boundary_carriers(chunk: MeshChunk) -> dict[int, list[tuple[int, tuple[int, ...]]]]:
    """Map each local element to the boundary faces it carries.

    A boundary face travels with the unique element containing all its
    nodes; if the input is degenerate and several match, the lowest element
    id wins so migration stays deterministic.
    """
    node_elems: dict[int, list[int]] = {}
    for eid in sorted(chunk.elements):
        for n in chunk.elements[eid]:
            node_elems.setdefault(n, []).append(eid)
    carriers: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
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


def split_chunk(chunk: MeshChunk, groups: Iterable[Iterable[int]]
                ) -> list[MeshChunk]:
    """Carve a chunk into one sub-chunk per group of element ids.

    Each sub-chunk holds its group's elements, the nodes they reference and
    the boundary faces they carry, all in ascending order.  The carrier map
    is built once for all groups.
    """
    carriers = _boundary_carriers(chunk)
    out = []
    for ids in groups:
        eids = sorted(ids)
        elements = {e: chunk.elements[e] for e in eids}
        nids = sorted({n for conn in elements.values() for n in conn})
        out.append(MeshChunk(
            chunk.kind,
            nodes={n: chunk.nodes[n] for n in nids},
            elements=elements,
            boundary=sorted(f for e in eids for f in carriers.get(e, ())),
        ))
    return out


def subset_chunk(chunk: MeshChunk, element_ids: Iterable[int]) -> MeshChunk:
    """Chunk restricted to the given elements, their nodes and boundary faces."""
    return split_chunk(chunk, [element_ids])[0]


# -- wire form ----------------------------------------------------------------

def pack_chunk(chunk: MeshChunk) -> bytes:
    code, dim, npe, npf = kind_info(chunk.kind)
    eids = sorted(chunk.elements)
    nids = sorted(chunk.nodes)
    conn = [n for e in eids for n in chunk.elements[e]]
    coords = [c for n in nids for c in chunk.nodes[n]]
    bnd = sorted(chunk.boundary)
    return _codec.pack_blocks([
        _codec.pack_i64([code]),
        _codec.pack_i64(eids),
        _codec.pack_i64(conn),
        _codec.pack_i64(nids),
        _codec.pack_f64(coords),
        _codec.pack_i64([t for t, _ in bnd]),
        _codec.pack_i64([n for _, c in bnd for n in c]),
    ])


def unpack_chunk(data: bytes) -> MeshChunk:
    (code_raw, eids_raw, conn_raw, nids_raw, coords_raw,
     tags_raw, bconn_raw) = _codec.unpack_blocks(data)
    kind = _KIND_BY_CODE[_codec.unpack_one_i64(code_raw)]
    _, dim, npe, npf = kind_info(kind)

    def rows(raw: bytes, unpack, width: int):
        # One .tolist() per block gives Python ints and floats directly.
        return map(tuple, unpack(raw).reshape(-1, width).tolist())

    return MeshChunk(
        kind,
        nodes=dict(zip(_codec.unpack_i64(nids_raw).tolist(),
                       rows(coords_raw, _codec.unpack_f64, dim))),
        elements=dict(zip(_codec.unpack_i64(eids_raw).tolist(),
                          rows(conn_raw, _codec.unpack_i64, npe))),
        boundary=list(zip(_codec.unpack_i64(tags_raw).tolist(),
                          rows(bconn_raw, _codec.unpack_i64, npf))),
    )


# -- distributed operations -------------------------------------------------------

def build_dual_graph(ctx: RankContext, chunk: MeshChunk, n_nodes: int,
                     team: Sequence[int] | None = None) -> dict[int, list[int]]:
    """Element adjacency across full shared faces; collective over the team.

    Each rank publishes (node -> incident element) into a directory keyed by
    node id, queries back the incidence lists of its own nodes, and keeps as
    neighbors the element pairs sharing a whole face (2 common nodes for
    triangles, 3 for tetrahedra).  Returns adjacency for local elements only.
    """
    npf = chunk.nodes_per_face
    pairs = [
        (n, _codec.pack_one_i64(eid))
        for eid in sorted(chunk.elements)
        for n in chunk.elements[eid]
    ]
    directory = Directory.build(ctx, pairs, n_nodes, team=team)
    my_nodes = sorted({n for conn in chunk.elements.values() for n in conn})
    incidence_raw = directory.query(my_nodes)
    incidence = {
        n: list(map(_codec.unpack_one_i64, vals))
        for n, vals in incidence_raw.items()
    }

    adjacency: dict[int, list[int]] = {}
    for eid in sorted(chunk.elements):
        shared: dict[int, int] = {}
        for n in chunk.elements[eid]:
            for other in incidence[n]:
                if other != eid:
                    shared[other] = shared.get(other, 0) + 1
        adjacency[eid] = sorted(f for f, c in shared.items() if c >= npf)

    _warn_nonmanifold(chunk, incidence)
    return adjacency


def _warn_nonmanifold(chunk: MeshChunk, incidence: Mapping[int, list[int]]) -> None:
    # A face shared by more than two elements breaks manifoldness; report it
    # once per face but keep going.
    seen: set[tuple[int, ...]] = set()
    for eid in sorted(chunk.elements):
        for face in element_faces(chunk.elements[eid], chunk.kind):
            if face in seen:
                continue
            seen.add(face)
            users: set[int] | None = None
            for n in face:
                inc = set(incidence[n])
                users = inc if users is None else users & inc
            if users is not None and len(users) > 2:
                log.warning("face %s shared by %d elements %s; mesh is not "
                            "manifold", face, len(users), sorted(users))


def migrate(ctx: RankContext, chunk: MeshChunk, assignment: Mapping[int, int],
            team: Sequence[int] | None = None) -> MeshChunk:
    """Redistribute elements so each lands on its assigned rank.

    Collective over the team.  Every local element must appear in
    ``assignment``.  Only elements whose owner changes are packed and sent;
    the rank's own sub-chunk is merged as carved.  Node records are
    replicated onto each receiving rank, boundary faces travel with their
    carrying element, and the rebuilt chunk is ordered by global id so the
    result is independent of arrival order.
    """
    team_t = _normalize_team(team, ctx.size)
    by_dest: dict[int, list[int]] = {}
    for eid in sorted(chunk.elements):
        try:
            dest = assignment[eid]
        except KeyError:
            raise ValueError(f"element {eid} missing from migration assignment") from None
        if dest not in team_t:
            raise ValueError(f"element {eid} assigned to rank {dest} outside "
                             f"team {team_t}")
        by_dest.setdefault(dest, []).append(eid)

    pieces, outgoing = [], {}
    for dest, sub in zip(by_dest, split_chunk(chunk, by_dest.values())):
        if dest == ctx.rank:
            pieces.append(sub)
        else:
            outgoing[dest] = pack_chunk(sub)
    received = blind_exchange(ctx, outgoing, team=team_t)
    pieces.extend(unpack_chunk(blob) for _, blob in received)
    return merge_chunks(chunk.kind, pieces)


def exchange_keyed_values(ctx: RankContext, values: Mapping[int, bytes],
                          dest_of: Mapping[int, int],
                          team: Sequence[int] | None = None) -> dict[int, bytes]:
    """Ship per-key byte values to each key's destination rank.

    Companion to :func:`migrate` for side data keyed by element id (weights,
    adjacency rows) that must follow the elements.
    """
    by_dest: dict[int, list[tuple[int, bytes]]] = {}
    for key in sorted(values):
        by_dest.setdefault(dest_of[key], []).append((key, values[key]))
    outgoing = {dest: _codec.pack_kv(kvs) for dest, kvs in by_dest.items()}
    received = blind_exchange(ctx, outgoing, team=team)
    out: dict[int, bytes] = {}
    for _, blob in received:
        for key, value in _codec.unpack_kv(blob):
            out[key] = value
    return dict(sorted(out.items()))


def find_shared_nodes(ctx: RankContext, chunk: MeshChunk, n_nodes: int,
                      team: Sequence[int] | None = None) -> dict[int, list[int]]:
    """Nodes this rank shares with each other rank; collective over the team.

    Publishes (node -> this rank) into a directory and queries back the
    sharer sets of local nodes.  Returns {other rank: sorted node ids}; a
    node held by k ranks shows up in every one of their pairwise lists.
    """
    my_nodes = sorted({n for conn in chunk.elements.values() for n in conn})
    me = _codec.pack_one_i64(ctx.rank)
    directory = Directory.build(ctx, [(n, me) for n in my_nodes], n_nodes,
                                team=team)
    sharers_raw = directory.query(my_nodes)
    rows: dict[int, list[int]] = {}
    for n in my_nodes:
        sharers = sorted(map(_codec.unpack_one_i64, sharers_raw[n]))
        for r in sharers:
            if r != ctx.rank:
                rows.setdefault(r, []).append(n)
    return {r: sorted(ns) for r, ns in sorted(rows.items())}


def split_ids_evenly(ids: Sequence[int], parts: int) -> list[list[int]]:
    """Split sorted ids into ``parts`` contiguous, near-equal blocks."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    ordered = sorted(ids)
    n = len(ordered)
    out = []
    start = 0
    for p in range(parts):
        size = -(-(n - start) // (parts - p))
        out.append(ordered[start:start + size])
        start += size
    return out


def split_contiguous(chunk: MeshChunk, parts: int) -> list[MeshChunk]:
    """Carve a chunk into contiguous element-id blocks, one per part."""
    return split_chunk(chunk, split_ids_evenly(list(chunk.elements), parts))


# -- local measures -------------------------------------------------------------

def halo_growth(adjacency: Mapping[int, Sequence[int]],
                assignment: Mapping[int, int], layers: int) -> float:
    """Replication overhead, in percent, of growing each part by k layers.

    Each part's element set is expanded ``layers`` times by its dual-graph
    neighborhood; the overhead is (sum of grown sizes - N) / N * 100.
    """
    if layers < 0:
        raise ValueError("layers must be >= 0")
    n = len(assignment)
    if n == 0:
        raise ValueError("empty assignment")
    parts: dict[int, set[int]] = {}
    for eid, part in assignment.items():
        parts.setdefault(part, set()).add(eid)
    total = 0
    for members in parts.values():
        grown = set(members)
        for _ in range(layers):
            frontier = set()
            for e in grown:
                frontier.update(adjacency.get(e, ()))
            grown |= frontier
        total += len(grown)
    return (total - n) / n * 100.0

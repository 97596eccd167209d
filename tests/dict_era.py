"""The dict-era mesh chunk and its kernels, kept verbatim as test oracles.

Before chunks were stored as arrays, ``MeshChunk`` was a dict of node
tuples, a dict of element tuples and a list of (tag, face) pairs, and every
kernel looped over them in Python.  The code below is that version, with
the class renamed ``DictChunk``: the array kernels must give the same
chunks, bytes, graphs and error messages.  ``dict_chunk`` converts an array
chunk through its record views.

The second part keeps the dict-era weight and owner code: the loaders of
assignment and weights documents, the part loads and imbalance, the
overlap remap and the keyed-value exchange, from before weights and owners
became id-aligned arrays.

The third part keeps the quality block from before the dual graph became
one CSR type: the loop edge cut, the set-based halo growth and the
quality block over an element -> part dict.

The fourth part keeps a leader's halo routes as they were built from a
{member: {other rank: node ids}} table per member, before they were built
from the survey's (rank, node id, other holder) rows.

The fifth part keeps recursive coordinate bisection as it was when every
bisection sorted its own subset with a two-key ``lexsort``, before each
axis was sorted once per call.

The last part keeps the ``json.load`` readers of assignment, weights and
timing documents as they were when each column was checked whole and the
records were scanned only after a column check failed, together with the
record checks both the dict-era and the column-era readers share.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from itertools import chain, combinations
from operator import itemgetter
from typing import Any, Iterable, Mapping, NoReturn, Sequence

import numpy as np

from hierpart import _codec
from hierpart.balance import load_imbalance, part_loads
from hierpart.directory import _unique, blind_exchange
from hierpart.formats import SCHEMA, FormatError
from hierpart.halo import _union
from hierpart.mesh import _KIND_BY_CODE, KINDS, kind_info
from hierpart.metrics import GROWTH_LAYERS
from hierpart.partition import _check_weights


def dict_chunk(chunk) -> "DictChunk":
    """The dict-era form of an array chunk, through its record views."""
    return DictChunk(chunk.kind, chunk.nodes, chunk.elements, chunk.boundary)


@dataclass
class DictChunk:
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

    def sorted_copy(self) -> "DictChunk":
        """Same chunk with elements and nodes in ascending global id order."""
        return DictChunk(
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


def local_dual_graph(chunk: DictChunk) -> dict[int, list[int]]:
    """Sequential dual graph of one chunk, for whole-mesh or leader-local use."""
    return adjacency_from_elements(chunk.elements, chunk.kind)


def merge_chunks(kind: str, chunks: Iterable[DictChunk]) -> DictChunk:
    out = DictChunk(kind)
    for ch in chunks:
        if ch.kind != kind:
            raise ValueError(f"cannot merge {ch.kind} chunk into {kind} mesh")
        out.nodes.update(ch.nodes)
        out.elements.update(ch.elements)
        out.boundary.extend(ch.boundary)
    return out.sorted_copy()


def _boundary_carriers(chunk: DictChunk) -> dict[int, list[tuple[int, tuple[int, ...]]]]:
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


def split_chunk(chunk: DictChunk, groups: Iterable[Iterable[int]]
                ) -> list[DictChunk]:
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
        out.append(DictChunk(
            chunk.kind,
            nodes={n: chunk.nodes[n] for n in nids},
            elements=elements,
            boundary=sorted(f for e in eids for f in carriers.get(e, ())),
        ))
    return out


def subset_chunk(chunk: DictChunk, element_ids: Iterable[int]) -> DictChunk:
    """Chunk restricted to the given elements, their nodes and boundary faces."""
    return split_chunk(chunk, [element_ids])[0]


# -- wire form ----------------------------------------------------------------

def pack_chunk(chunk: DictChunk) -> bytes:
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


def unpack_chunk(data: bytes) -> DictChunk:
    (code_raw, eids_raw, conn_raw, nids_raw, coords_raw,
     tags_raw, bconn_raw) = _codec.unpack_blocks(data)
    kind = _KIND_BY_CODE[_codec.unpack_one_i64(code_raw)]
    _, dim, npe, npf = kind_info(kind)

    def rows(raw: bytes, unpack, width: int):
        # One .tolist() per block gives Python ints and floats directly.
        return map(tuple, unpack(raw).reshape(-1, width).tolist())

    return DictChunk(
        kind,
        nodes=dict(zip(_codec.unpack_i64(nids_raw).tolist(),
                       rows(coords_raw, _codec.unpack_f64, dim))),
        elements=dict(zip(_codec.unpack_i64(eids_raw).tolist(),
                          rows(conn_raw, _codec.unpack_i64, npe))),
        boundary=list(zip(_codec.unpack_i64(tags_raw).tolist(),
                          rows(bconn_raw, _codec.unpack_i64, npf))),
    )



# -- loader ------------------------------------------------------------------------

def mesh_from_payload(raw: Mapping[str, Any]) -> DictChunk:
    """Build and check a chunk from a mesh document's payload.

    Each section is checked a whole column at a time; only when a check
    fails is the section scanned record by record, to name the first
    offending record.
    """
    if not isinstance(raw, Mapping):
        raise ValueError("mesh must be an object")
    elements = raw.get("elements", [])
    if not isinstance(elements, list):
        raise ValueError("element records must be a list")
    if not elements:
        raise ValueError("mesh has no elements")
    first = elements[0]
    kind = first[1] if isinstance(first, list) and len(first) > 1 else None
    if kind not in KINDS:
        raise ValueError(f"unknown element kind {kind!r}; "
                         f"expected one of {sorted(KINDS)}")
    chunk = DictChunk(kind)
    dim = chunk.dim
    npe = chunk.nodes_per_element
    npf = chunk.nodes_per_face

    cols = _columns(elements, 2 + npe)
    if (cols and cols[1].count(kind) == len(elements)
            and _ints(cols[0], *cols[2:]) and min(cols[0]) >= 0):
        chunk.elements = dict(zip(cols[0], zip(*cols[2:])))
    if len(chunk.elements) != len(elements):  # a failed check or a repeated id
        _first_bad("element", elements, _element_problem, kind, npe)
    element_nodes = cols[2:]

    nodes = raw.get("nodes", [])
    cols = _columns(nodes, 1 + dim)
    if (cols and _ints(cols[0]) and min(cols[0], default=0) >= 0
            and _numbers(*cols[1:])):
        coords = zip(*(map(float, c) for c in cols[1:]))
        chunk.nodes = dict(zip(cols[0], coords))
    if len(chunk.nodes) != len(nodes):
        _first_bad("node", nodes, _node_problem, dim)

    boundary = raw.get("boundary", [])
    cols = _columns(boundary, 1 + npf)
    if not (cols and _ints(*cols)):
        _first_bad("boundary", boundary, _boundary_problem, npf)
    tags, *face_nodes = cols
    chunk.boundary = list(zip(tags, zip(*face_nodes)))

    # Reference integrity; validate() names the offender when it fails.
    used = set().union(*element_nodes, *face_nodes)
    repeats = set(map(len, map(set, chunk.elements.values()))) != {npe}
    if repeats or not chunk.nodes.keys() >= used:
        chunk.validate()
    return chunk


def _columns(records, width: int) -> list[list] | None:
    """The records' columns, or None unless every record is a list of
    ``width`` items."""
    if not (isinstance(records, list) and set(map(type, records)) <= {list}
            and set(map(len, records)) <= {width}):
        return None
    # One pass per column; zip(*records) would make a GC-tracked iterator
    # per record.
    return [list(map(itemgetter(i), records)) for i in range(width)]


def _ints(*columns) -> bool:
    """Every item is a JSON integer (a bool is not)."""
    return set(map(type, chain(*columns))) <= {int}


def _numbers(*columns) -> bool:
    return set(map(type, chain(*columns))) <= {int, float}


def _first_bad(section: str, records, problem, *args) -> NoReturn:
    """Raise ValueError naming the first record ``problem`` objects to.

    ``problem(record, seen, *args)`` returns a message or None; ``seen`` is
    a set it may use to spot repeated ids.  Loaders call this only after a
    whole-column check failed, so some record is at fault.
    """
    if not isinstance(records, list):
        raise ValueError(f"{section} records must be a list")
    seen: set = set()
    for i, rec in enumerate(records):
        message = problem(rec, seen, *args)
        if message:
            raise ValueError(f"{section} record {i}: {message}")
    raise AssertionError(f"a column check failed on {section} records, "
                         f"but no record is at fault")


def _id_problem(noun: str, rid, seen: set) -> str | None:
    if type(rid) is not int:
        return f"{noun} id must be an integer, got {rid!r}"
    if rid < 0 or rid in seen:
        return f"{'negative' if rid < 0 else 'duplicate'} {noun} id {rid}"
    seen.add(rid)
    return None


def _element_problem(rec, seen, kind, npe) -> str | None:
    if not (isinstance(rec, list) and len(rec) == 2 + npe and rec[1] == kind):
        return f"expected [id, {kind!r}, {npe} node ids]"
    if problem := _id_problem("element", rec[0], seen):
        return problem
    return None if _ints(rec[2:]) else f"node ids must be integers, got {rec[2:]}"


def _node_problem(rec, seen, dim) -> str | None:
    if not (isinstance(rec, list) and len(rec) == 1 + dim):
        return f"expected [id, {dim} coordinates]"
    if problem := _id_problem("node", rec[0], seen):
        return problem
    return None if _numbers(rec[1:]) else f"coordinates must be numbers, got {rec[1:]}"


def _boundary_problem(rec, seen, npf) -> str | None:
    if not (isinstance(rec, list) and len(rec) == 1 + npf):
        return f"expected [tag, {npf} node ids]"
    return None if _ints(rec) else f"tag and node ids must be integers, got {rec}"


# -- weights and owners as dicts ---------------------------------------------------

def load_assignment(path) -> dict[int, int]:
    raw = _load_doc(path, "assignment")
    cols = _columns(raw, 2)
    out = dict(zip(*cols)) if cols and _ints(*cols) else {}
    if not (cols and len(out) == len(raw)):
        _first_bad_in(path, "assignment", raw, _assignment_problem)
    if not out:
        raise FormatError(path, "assignment is empty")
    return out


def load_weights(path) -> dict[int, float]:
    raw = _load_doc(path, "weights")
    cols = _columns(raw, 2)
    out = {}
    if cols and _ints(cols[0]) and _numbers(cols[1]):
        w = list(map(float, cols[1]))
        if all(map(math.isfinite, w)) and min(w, default=1.0) > 0:
            out = dict(zip(cols[0], w))
    if not (cols and len(out) == len(raw)):
        _first_bad_in(path, "weight", raw, _weight_problem)
    return out


def imbalance(assignment: Mapping[int, int],
              weights: Mapping[int, float] | None = None,
              nparts: int | None = None) -> float:
    """Max part load over mean part load; 1.0 is perfect."""
    if not assignment:
        raise ValueError("empty assignment")
    if nparts is None:
        nparts = max(assignment.values()) + 1
    loads = [0.0] * nparts
    for e, p in assignment.items():
        if not (0 <= p < nparts):
            raise ValueError(f"element {e} assigned to part {p}, outside 0..{nparts - 1}")
        loads[p] += 1.0 if weights is None else float(weights[e])
    mean = sum(loads) / nparts
    if mean <= 0:
        raise ValueError("total weight is zero")
    return max(loads) / mean


def partition_loads(assignment: Mapping[int, int], nparts: int,
                    weights: Mapping[int, float] | None = None
                    ) -> dict[int, float]:
    loads = {p: 0.0 for p in range(nparts)}
    for e, p in assignment.items():
        loads[p] += 1.0 if weights is None else float(weights[e])
    return loads


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


def pack_one_f64(value: float) -> bytes:
    """One weight as the dict-era hand-off packed it: the 8 bytes of
    ``pack_f64([value])`` through one ``struct`` call."""
    return struct.pack("<d", value)


def unpack_one_f64(data: bytes) -> float:
    return struct.unpack("<d", data)[0]


def exchange_keyed_values(ctx, values: Mapping[int, bytes],
                          dest_of: Mapping[int, int],
                          team: Sequence[int] | None = None) -> dict[int, bytes]:
    """Ship per-key byte values to each key's destination rank."""
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


def edge_cut(adjacency: Mapping[int, Sequence[int]],
             assignment: Mapping[int, int]) -> int:
    """Dual-graph edges whose endpoints live in different parts."""
    cut = 0
    for v, nbrs in adjacency.items():
        for u in nbrs:
            if u > v and assignment[u] != assignment[v]:
                cut += 1
    return cut


def halo_growth(adjacency: Mapping[int, Sequence[int]],
                assignment: Mapping[int, int], layers: int) -> float:
    """Replication overhead, in percent, of growing each part by k layers."""
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


def quality_metrics(adjacency: Mapping[int, Sequence[int]],
                    assignment: Mapping[int, int], nparts: int,
                    weights: Mapping[int, float] | np.ndarray | None = None
                    ) -> dict[str, Any]:
    """The quality block; ``weights`` maps element ids to weights or is a
    column aligned with the assignment's iteration order, and each part's
    weights are added in that order."""
    n = len(assignment)
    owner = np.fromiter(assignment.values(), dtype=np.int64, count=n)
    if isinstance(weights, Mapping):
        weights = np.fromiter(map(weights.__getitem__, assignment),
                              dtype=np.float64, count=n)
    out: dict[str, Any] = {
        "elements": len(assignment),
        "partitions": nparts,
        "edge_cut": edge_cut(adjacency, assignment),
        "element_imbalance": load_imbalance(part_loads(owner, None, nparts)),
        "halo_growth_pct": {
            str(k): halo_growth(adjacency, assignment, k) for k in GROWTH_LAYERS
        },
    }
    if weights is not None:
        out["weight_imbalance"] = load_imbalance(
            part_loads(owner, weights, nparts))
    return out


# -- halo routes from per-member tables ---------------------------------------

def _routes(node: Mapping[int, Mapping[int, Sequence[int]]], vertex: int,
            size: int, leader_of) -> tuple:
    """``gather``, ``sends``, ``recvs`` and ``hands`` of a leader whose
    level-0 vertex ``vertex`` holds the ranks of ``node``, which maps each
    to its shared-node table."""
    members = sorted(node)
    # Each member's internode rows by remote rank.
    inter = [{o: _unique(np.asarray(keys, dtype=np.int64))
              for o, keys in sorted(node[m].items())
              if o // size != vertex and len(keys)} for m in members]
    pool = [_union(rows.values()) for rows in inter]
    offsets = np.cumsum([0] + [len(x) for x in pool])
    sends: dict[int, list[np.ndarray]] = {}
    for rows, own, at in zip(inter, pool, offsets.tolist()):
        by_leader: dict[int, list[np.ndarray]] = {}
        for o, keys in rows.items():
            by_leader.setdefault(leader_of(o), []).append(keys)
        for lead, parts in by_leader.items():
            sends.setdefault(lead, []).append(
                at + np.searchsorted(own, _union(parts)))
    # What each remote rank sends this node: the union of its rows with
    # the members.  Remote ranks ascend with their leaders, so in
    # ascending rank order these sit as the inbound pool holds them.
    remote: dict[int, list[np.ndarray]] = {}
    for rows in inter:
        for o, keys in rows.items():
            remote.setdefault(o, []).append(keys)
    inbound = {o: _union(remote[o]) for o in sorted(remote)}
    start = dict(zip(inbound, np.cumsum(
        [0] + [len(x) for x in inbound.values()]).tolist()))
    recvs: dict[int, int] = {}
    for o, keys in inbound.items():
        recvs[leader_of(o)] = recvs.get(leader_of(o), 0) + len(keys)
    hands = tuple(
        (m, np.concatenate([start[o] + np.searchsorted(inbound[o], keys)
                            for o, keys in rows.items()]))
        for m, rows in zip(members, inter) if rows)
    return (tuple((m, len(x)) for m, x in zip(members[1:], pool[1:]) if len(x)),
            tuple((lead, np.concatenate(parts))
                  for lead, parts in sorted(sends.items())),
            tuple(sorted(recvs.items())), hands)


# -- rcb with a lexsort per bisection -------------------------------------------

def rcb(ids: Sequence[int], points: np.ndarray, weights: np.ndarray | None,
        k: int, m: int = 1) -> dict[int, int]:
    """Recursive coordinate bisection into parts 0..k-1.

    Splits along the axis of largest extent at the weighted median, sending
    weight fraction floor(k/2)/k to the low side.  Points are ordered by
    (coordinate, id) so equal coordinates break toward lower ids on the low
    side, making the split a pure function of the input set.  Every part
    gets at least ``m`` points, whatever the weights.  The result maps each
    id to its part, in the order of ``ids``.
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
        _check_weights(ids, weights, k)

    part = np.zeros(len(ids), dtype=np.int64)

    def recurse(sel: np.ndarray, parts: int, offset: int) -> None:
        if parts == 1:
            part[sel] = offset
            return
        if sel.size < parts * m:
            raise ValueError(f"too few points: {sel.size} left for {parts} "
                             f"parts of at least {m} each")
        low_parts = parts // 2
        coords = points[sel]
        extents = coords.max(axis=0) - coords.min(axis=0)
        axis = int(np.argmax(extents))
        order = np.lexsort((ids[sel], coords[:, axis]))
        s = sel[order]
        cum = np.cumsum(weights[s])
        target = cum[-1] * low_parts / parts
        i = int(np.searchsorted(cum, target, side="left"))
        # Each side keeps at least m points per part it must fill.  A
        # prefix's distance to the target falls, then rises, so clamping
        # the two counts around the target gives the nearest feasible one.
        lo, hi = low_parts * m, s.size - (parts - low_parts) * m
        count = min({min(max(c, lo), hi) for c in (i, i + 1)},
                    key=lambda c: (abs(cum[c - 1] - target), c))
        recurse(s[:count], low_parts, offset)
        recurse(s[count:], parts - low_parts, offset + low_parts)

    recurse(np.arange(len(ids)), k, 0)
    return dict(zip(ids.tolist(), part.tolist()))


# -- column-era json.load readers ----------------------------------------------

def _load_doc(path, kind: str) -> Any:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise FormatError(path, str(err)) from err
    except json.JSONDecodeError as err:
        raise FormatError(path, f"invalid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise FormatError(path, "top level must be an object")
    if doc.get("schema") != SCHEMA:
        raise FormatError(path, f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    if kind not in doc:
        raise FormatError(path, f"missing {kind!r} entry")
    return doc[kind]


def _int64(values) -> np.ndarray | None:
    """Integers (a column, columns or one) as int64, or None if one is
    beyond int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return None


def _finite(columns) -> np.ndarray | None:
    """Number columns as one float64 array, or None if one is not finite."""
    try:
        values = np.array(columns, dtype=np.float64)
    except OverflowError:
        return None
    return values if np.isfinite(values).all() else None


def id_array(values) -> np.ndarray:
    """Integer ids as an int64 array; when one is beyond int64, as Python
    ints in an object array, so that the check naming it as unknown can
    still print it."""
    ids = _int64(values)
    return np.array(values, dtype=object) if ids is None else ids


def _repeats(ids: np.ndarray) -> bool:
    """Some id appears twice."""
    if (ids[1:] > ids[:-1]).all():   # ascending, as the package writes ids
        return False
    ordered = np.sort(ids)
    return bool((ordered[1:] == ordered[:-1]).any())


def read_assignment(path) -> tuple[np.ndarray, np.ndarray]:
    """The ``json.load`` path of the column-era ``read_assignment``."""
    raw = _load_doc(path, "assignment")
    cols = _columns(raw, 2)
    if cols and _ints(*cols):
        ids = id_array(cols[0])
        if not _repeats(ids):
            if not len(ids):
                raise FormatError(path, "assignment is empty")
            return ids, id_array(cols[1])
    _first_bad_in(path, "assignment", raw, _assignment_problem)


def _assignment_problem(rec, seen) -> str | None:
    if not (isinstance(rec, list) and len(rec) == 2):
        return "expected [element, part]"
    if not _ints(rec):
        return f"element and part must be integers, got {rec}"
    if rec[0] in seen:
        return f"element {rec[0]} assigned twice"
    seen.add(rec[0])
    return None


def _first_bad_in(path, section: str, records, problem) -> NoReturn:
    """:func:`_first_bad` for a whole document: the error names ``path``."""
    try:
        _first_bad(section, records, problem)
    except ValueError as err:
        raise FormatError(path, str(err)) from err


def read_weights(path) -> tuple[np.ndarray, np.ndarray]:
    """The ``json.load`` path of the column-era ``read_weights``."""
    raw = _load_doc(path, "weights")
    cols = _columns(raw, 2)
    if cols and _ints(cols[0]) and _numbers(cols[1]):
        ids, weights = id_array(cols[0]), _finite(cols[1])
        if weights is not None and (weights > 0).all() and not _repeats(ids):
            return ids, weights
    _first_bad_in(path, "weight", raw, _weight_problem)


def _weight_problem(rec, seen) -> str | None:
    if not (isinstance(rec, list) and len(rec) == 2):
        return "expected [element, weight]"
    e, w = rec
    if type(e) is not int:
        return f"element id must be an integer, got {e!r}"
    if not _numbers([w]):
        return f"weight must be a number, got {w!r}"
    try:
        w = float(w)
    except OverflowError:
        return "weight beyond the float64 range"
    if not math.isfinite(w):
        return f"non-finite weight {w}"
    if w <= 0:
        return f"non-positive weight {w}"
    if e in seen:
        return f"element {e} weighted twice"
    seen.add(e)
    return None


def load_timing(path) -> list[tuple[list[int], float]]:
    raw = _load_doc(path, "timing")
    if not isinstance(raw, list):
        raise FormatError(path, "timing records must be a list")
    out = []
    for i, rec in enumerate(raw):
        if not (isinstance(rec, dict) and "elems" in rec and "seconds" in rec):
            raise FormatError(path,
                              f"timing record {i}: expected {{elems, seconds}}")
        if not _numbers([rec["seconds"]]):
            raise FormatError(path, f"timing record {i}: seconds must be a "
                                    f"number, got {rec['seconds']!r}")
        seconds = float(rec["seconds"])
        if not math.isfinite(seconds):
            raise FormatError(path, f"timing record {i}: non-finite seconds {seconds}")
        elems = rec["elems"]
        if not (isinstance(elems, list) and _ints(elems)):
            raise FormatError(path, f"timing record {i}: elems must be a list "
                                    f"of integer element ids")
        out.append((elems, seconds))
    return out

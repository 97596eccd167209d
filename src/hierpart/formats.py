"""JSON document formats shared by the CLI and on-disk fixtures.

Every document is a single object ``{"schema": "treepart-1", <kind>: ...}``
so files are self-describing and the format can grow without breaking old
readers.  Writers emit sorted keys and a trailing newline, which makes the
output byte-stable for identical payloads.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping, Sequence

from .mesh import KINDS, MeshChunk
from .topology import TopologyTree, build_topology

SCHEMA = "treepart-1"


class FormatError(Exception):
    """A document failed to parse or violates its declared shape."""

    def __init__(self, path, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _load_doc(path, kind: str) -> Any:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
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


def dump_doc(path, kind: str, payload: Any) -> None:
    with open(path, "w") as fh:
        fh.write(_render({"schema": SCHEMA, kind: payload}, ""))
        fh.write("\n")


def _render(value: Any, indent: str) -> str:
    """JSON with record rows kept on one line; keys sorted, byte-stable."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        rows = [f'{inner}{json.dumps(str(k))}: {_render(v, inner)}'
                for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(rows) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return json.dumps(value)
        inner = indent + "  "
        if all(isinstance(v, (list, tuple)) for v in value):
            body = (",\n" + inner).join(map(json.dumps, value))
            # Each row opens one bracket; any other bracket or brace is a
            # nested container, which takes the general path below.
            if body.count("[") == len(value) and "{" not in body:
                return "[\n" + inner + body + "\n" + indent + "]"
        rows = [inner + _render(v, inner) for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + indent + "]"
    return json.dumps(value)


# -- mesh --------------------------------------------------------------------

def mesh_payload(chunk: MeshChunk) -> dict[str, Any]:
    return {
        "nodes": [[n, *map(float, xyz)] for n, xyz in sorted(chunk.nodes.items())],
        "elements": [[e, chunk.kind, *conn]
                     for e, conn in sorted(chunk.elements.items())],
        "boundary": [[tag, *conn] for tag, conn in sorted(chunk.boundary)],
    }


def save_mesh(path, chunk: MeshChunk) -> None:
    dump_doc(path, "mesh", mesh_payload(chunk))


def load_mesh(path) -> MeshChunk:
    raw = _load_doc(path, "mesh")
    try:
        return mesh_from_payload(raw)
    except (ValueError, TypeError, KeyError) as err:
        raise FormatError(path, str(err)) from err


def mesh_from_payload(raw: Mapping[str, Any]) -> MeshChunk:
    elements = raw.get("elements", [])
    if not elements:
        raise ValueError("mesh has no elements")
    kind = elements[0][1] if len(elements[0]) > 1 else None
    if kind not in KINDS:
        raise ValueError(f"unknown element kind {kind!r}; "
                         f"expected one of {sorted(KINDS)}")
    chunk = MeshChunk(kind)
    dim = chunk.dim
    npe = chunk.nodes_per_element
    npf = chunk.nodes_per_face
    for i, rec in enumerate(elements):
        if len(rec) != 2 + npe or rec[1] != kind:
            raise ValueError(f"element record {i}: expected "
                             f"[id, {kind!r}, {npe} node ids]")
        eid = int(rec[0])
        if eid < 0 or eid in chunk.elements:
            raise ValueError(f"element record {i}: "
                             f"{'negative' if eid < 0 else 'duplicate'} "
                             f"element id {eid}")
        chunk.elements[eid] = tuple(int(x) for x in rec[2:])
    for i, rec in enumerate(raw.get("nodes", [])):
        if len(rec) != 1 + dim:
            raise ValueError(f"node record {i}: expected [id, {dim} coordinates]")
        nid = int(rec[0])
        if nid < 0 or nid in chunk.nodes:
            raise ValueError(f"node record {i}: "
                             f"{'negative' if nid < 0 else 'duplicate'} "
                             f"node id {nid}")
        chunk.nodes[nid] = tuple(float(x) for x in rec[1:])
    for i, rec in enumerate(raw.get("boundary", [])):
        if len(rec) != 1 + npf:
            raise ValueError(f"boundary record {i}: expected [tag, {npf} node ids]")
        chunk.boundary.append((int(rec[0]), tuple(int(x) for x in rec[1:])))
    chunk.validate()
    return chunk


# -- topology ------------------------------------------------------------------

def save_topology(path, tree: TopologyTree) -> None:
    dump_doc(path, "topology", tree.to_doc())


def load_topology(path) -> TopologyTree:
    raw = _load_doc(path, "topology")
    try:
        return build_topology(raw)
    except (ValueError, TypeError, KeyError) as err:
        raise FormatError(path, str(err)) from err


# -- assignment, weights, timing -------------------------------------------------

def save_assignment(path, assignment: Mapping[int, int]) -> None:
    dump_doc(path, "assignment",
             [[int(e), int(p)] for e, p in sorted(assignment.items())])


def load_assignment(path) -> dict[int, int]:
    raw = _load_doc(path, "assignment")
    out: dict[int, int] = {}
    for i, rec in enumerate(raw):
        if not (isinstance(rec, list) and len(rec) == 2):
            raise FormatError(path, f"assignment record {i}: expected [element, part]")
        e, p = int(rec[0]), int(rec[1])
        if e in out:
            raise FormatError(path, f"element {e} assigned twice")
        out[e] = p
    if not out:
        raise FormatError(path, "assignment is empty")
    return out


def save_weights(path, weights: Mapping[int, float]) -> None:
    dump_doc(path, "weights",
             [[int(e), float(w)] for e, w in sorted(weights.items())])


def load_weights(path) -> dict[int, float]:
    raw = _load_doc(path, "weights")
    out: dict[int, float] = {}
    for i, rec in enumerate(raw):
        if not (isinstance(rec, list) and len(rec) == 2):
            raise FormatError(path, f"weight record {i}: expected [element, weight]")
        e, w = int(rec[0]), float(rec[1])
        if not math.isfinite(w):
            raise FormatError(path, f"weight record {i}: non-finite weight {w}")
        if w <= 0:
            raise FormatError(path, f"weight record {i}: non-positive weight {w}")
        if e in out:
            raise FormatError(path, f"weight record {i}: element {e} weighted twice")
        out[e] = w
    return out


def load_timing(path) -> list[tuple[list[int], float]]:
    raw = _load_doc(path, "timing")
    out = []
    for i, rec in enumerate(raw):
        if not (isinstance(rec, dict) and "elems" in rec and "seconds" in rec):
            raise FormatError(path,
                              f"timing record {i}: expected {{elems, seconds}}")
        seconds = float(rec["seconds"])
        if not math.isfinite(seconds):
            raise FormatError(path, f"timing record {i}: non-finite seconds {seconds}")
        out.append(([int(e) for e in rec["elems"]], seconds))
    return out


def save_timing(path, blocks: Sequence[tuple[Sequence[int], float]]) -> None:
    dump_doc(path, "timing",
             [{"elems": [int(e) for e in eids], "seconds": float(s)}
              for eids, s in blocks])


# -- report and per-rank parts ---------------------------------------------------

def save_report(path, report: Mapping[str, Any]) -> None:
    dump_doc(path, "report", dict(report))


def save_part(path, rank: int, chunk: MeshChunk, neighbors) -> None:
    """Per-rank output: the rank's mesh piece plus its halo neighbor table."""
    dump_doc(path, "part", {
        "rank": rank,
        "mesh": mesh_payload(chunk),
        "halo": [
            {"rank": other, "channel": channel, "nodes": list(nodes)}
            for other, nodes, channel in neighbors
        ],
    })

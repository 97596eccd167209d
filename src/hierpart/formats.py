"""JSON document formats shared by the CLI and on-disk fixtures.

Every document is a single object ``{"schema": "treepart-1", <kind>: ...}``
so files are self-describing and the format can grow without breaking old
readers.  Writers emit sorted keys and a trailing newline, which makes the
output byte-stable for identical payloads.

Every writer renders its document through ``_render``; a section of
record rows is a callable leaf that ``_row_list`` fills with one format
call.

Every document is read from disk once.  Mesh, assignment and weight
documents have two paths over those bytes.  The fast one takes only the
layout this module writes (sorted keys, two-space indents, one record row
per line) and reads each section's rows straight into int64 or float64
columns.  Any other layout, and any document that fails a check, takes the
``json.loads`` path, which accepts any JSON spelling: it checks each record
once, raises naming the first bad one, and only then converts the checked
records into arrays.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from functools import lru_cache, partial
from itertools import chain
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from .mesh import KINDS, MeshChunk, reference_problem
from .topology import TopologyTree, build_topology

SCHEMA = "treepart-1"


class FormatError(Exception):
    """A document failed to parse or violates its declared shape."""

    def __init__(self, path, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _load_doc(path, kind: str, data: bytes) -> Any:
    """The ``kind`` payload of ``data``, the bytes of ``path``, decoded as
    a UTF-8 text file reads them: an error's offset counts a CRLF once."""
    try:
        doc = json.loads(io.TextIOWrapper(io.BytesIO(data),
                                          encoding="utf-8").read())
    except UnicodeDecodeError as err:
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


@lru_cache(maxsize=1024)
def _key_text(name: str) -> str:
    """The JSON text of a dict key's ``str``, formatted once per key."""
    return json.dumps(name)


def _render(value: Any, indent: str) -> str:
    """JSON with record rows kept on one line; keys sorted, byte-stable.
    A callable leaf is text already rendered: ``value(indent)``.  An exact
    int is its ``str``, which is what ``json.dumps`` writes for it."""
    if type(value) is int:
        return str(value)
    if callable(value):
        return value(indent)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        rows = [f'{inner}{_key_text(str(k))}: {_render(v, inner)}'
                for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(rows) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return json.dumps(value)
        inner = indent + "  "
        rows = [inner + _render(v, inner) for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + indent + "]"
    return json.dumps(value)


def _row_list(row: str, values: Sequence, indent: str) -> str:
    """The list of rows that ``_render`` writes at ``indent``: each row is
    ``row`` %-formatted with the next of ``values``, all in one call rather
    than through a list per row."""
    if not values:
        return "[]"
    inner = indent + "  "
    n = len(values) // row.count("%")
    rows = (",\n" + inner).join([row] * n) % tuple(values)
    return "[\n" + inner + rows + "\n" + indent + "]"


# -- the fast row reader -------------------------------------------------------

class _Row(NamedTuple):
    """The record row of one section: ``width`` numbers, the first an
    integer id, the rest integers, or any JSON numbers if ``numbers``;
    ``kind``, if given, is a string field after the id."""

    width: int
    numbers: bool = False
    kind: str | None = None

    def skeleton(self) -> bytes:
        """The row as ``_render`` writes it, with its numbers left out."""
        fields = [""] * self.width
        if self.kind is not None:
            fields.insert(1, json.dumps(self.kind))
        return ("[" + ", ".join(fields) + "]").encode()


_INT_BYTES = b"0123456789-"
_NUMBER_BYTES = _INT_BYTES + b"+.eE"
# Every byte but those of an integer becomes a space, and those of a
# string's text go.
_INTS_ONLY = bytes(c if c in _INT_BYTES else 32 for c in range(256))
_STRING_BYTES = b'"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ'
_BRACKETS_BLANK = bytes(32 if c in b"[]\n" else c for c in range(256))
# The fast path keeps an integer only below this in magnitude, so that it
# never reaches the int64 limits, where np.fromstring saturates.
_INT_LIMIT = 10**18
_SLOT = "\0"


def _read_bytes(path) -> bytes:
    """The file's bytes; a file that cannot be read is a FormatError."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise FormatError(path, str(err)) from err


def _read_rows(data: bytes, kind: str,
               layout: Mapping[str, _Row] | _Row
               ) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """The rows of a document in the layout ``dump_doc`` writes, as
    (int64 ids, rest) per section; rest is an (n, width - 1) int64 or, for
    ``numbers`` rows, float64 array.

    ``layout`` is the row of the list under ``kind``, or the row of each
    list in the object under ``kind``.  Returns None for any other layout,
    any number outside what the column can hold, and an integer not below
    ``_INT_LIMIT`` in magnitude.  Nothing here builds a Python object per
    record.
    """
    single = isinstance(layout, _Row)
    payload = _SLOT if single else dict.fromkeys(layout, _SLOT)
    # The document rendered with a placeholder for each list: the text
    # around the lists must match it exactly.
    frame = (_render({"schema": SCHEMA, kind: payload}, "") + "\n").encode()
    head, *seps, tail = frame.split(json.dumps(_SLOT).encode())
    if not (data.startswith(head) and data.endswith(tail)):
        return None
    out, pos = [], len(head)
    for before, after, row in zip([head, *seps], [*seps, None],
                                  [layout] if single else layout.values()):
        end = len(data) - len(tail) if after is None else data.find(after, pos)
        line = before[before.rfind(b"\n") + 1:]
        indent = len(line) - len(line.lstrip())
        columns = end >= pos and _section_rows(data, pos, end, indent, row)
        if not columns:
            return None
        out.append(columns)
        pos = end + len(after or b"")
    return out


def _section_rows(data: bytes, start: int, end: int, indent: int, row: _Row
                  ) -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`_read_rows` for ``data[start:end]``, one list ``_render``
    wrote at ``indent`` spaces."""
    if end - start == 2 and data.startswith(b"[]", start):
        return (np.zeros(0, dtype=np.int64),
                np.zeros((0, row.width - 1),
                         dtype=np.float64 if row.numbers else np.int64))
    opening = b"[\n" + b" " * (indent + 2)
    closing = b"\n" + b" " * indent + b"]"
    if not (data.startswith(opening, start)
            and data.endswith(closing, start, end)
            and end - start >= len(opening) + len(closing)):
        return None
    rows = data[start + len(opening):end - len(closing)]
    sep = b",\n" + b" " * (indent + 2)
    bare, skeleton = rows.translate(
        None, _NUMBER_BYTES if row.numbers else _INT_BYTES), row.skeleton()
    n, extra = divmod(len(bare) + len(sep), len(skeleton) + len(sep))
    if extra or bare != (skeleton + sep) * (n - 1) + skeleton:
        return None
    if not row.numbers:
        values = _int_values(rows, n * row.width)
        if values is None:
            return None
        values = values.reshape(n, row.width)
        return values[:, 0], values[:, 1:]
    # With the brackets blanked out, the rows are one JSON array of every
    # number, which json itself parses.  A slot holds only number bytes, so
    # json reads each as an int or a float, or fails.
    try:
        flat = json.loads(b"[" + rows.translate(_BRACKETS_BLANK) + b"]")
        ids = np.array(flat[::row.width])
        del flat[::row.width]
        values = np.array(flat, dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    if ids.dtype != np.int64 or not _below_limit(ids):   # a float, or huge
        return None
    return ids, values.reshape(n, row.width - 1)


def _below_limit(values: np.ndarray) -> bool:
    return bool(((values > -_INT_LIMIT) & (values < _INT_LIMIT)).all())


def _int_values(rows: bytes, count: int) -> np.ndarray | None:
    """The ``count`` integers in ``rows``, whose skeleton is known to
    match, or None unless each is a JSON integer below ``_INT_LIMIT`` in
    magnitude.

    np.fromstring also reads 01, -, a sign after a space and numbers past
    int64, so the integers' spelling is checked on the bytes first: each
    slot holds one token, a minus sign only opens one, a digit follows it,
    and a 0 there is the whole number.
    """
    spaced = rows.translate(_INTS_ONLY, _STRING_BYTES)
    b = np.frombuffer(spaced, dtype=np.uint8)
    gap = b == 32
    start = np.flatnonzero(gap[:-1] > gap[1:]) + 1
    if len(start) != count:   # an empty slot
        return None
    minus = b[start] == 45
    lead = b[start + minus]
    after = b[np.minimum(start + minus + 1, len(b) - 1)]
    if not (((lead >= 48) & (lead <= 57) & ((lead != 48) | (after == 32))).all()
            and np.count_nonzero(b == 45) == np.count_nonzero(minus)):
        return None
    with warnings.catch_warnings():
        # numpy 1.x warns and stops at a number it cannot read.
        warnings.simplefilter("ignore")
        try:
            values = np.fromstring(spaced, dtype=np.int64, sep=" ")
        except ValueError:
            return None
    return values if len(values) == count and _below_limit(values) else None


# -- mesh --------------------------------------------------------------------

def mesh_payload(chunk: MeshChunk) -> dict[str, Any]:
    """The payload ``save_mesh`` writes, as lists of records; no verb
    builds one."""
    return {
        "nodes": [[n, *xyz] for n, xyz in zip(chunk.node_ids.tolist(),
                                               chunk.coords.tolist())],
        "elements": [[e, chunk.kind, *conn] for e, conn in
                     zip(chunk.element_ids.tolist(), chunk.conn.tolist())],
        "boundary": np.column_stack((chunk.boundary_tags,
                                     chunk.boundary_conn)).tolist(),
    }


def save_mesh(path, chunk: MeshChunk) -> None:
    """The document ``dump_doc`` writes for ``mesh_payload(chunk)``."""
    dump_doc(path, "mesh", partial(_mesh_text, chunk))


def _mesh_text(chunk: MeshChunk, indent: str) -> str:
    """``_render(mesh_payload(chunk), indent)``, one format call a section."""
    _, dim, npe, npf = KINDS[chunk.kind]
    coords = _float_texts(chunk.coords.ravel().tolist())
    boundary = np.column_stack((chunk.boundary_tags, chunk.boundary_conn))
    elements = np.column_stack((chunk.element_ids, chunk.conn))
    return _render({
        "boundary": partial(_row_list, "[%d" + ", %d" * npf + "]",
                            boundary.ravel().tolist()),
        "elements": partial(_row_list, "[%d, " + json.dumps(chunk.kind)
                            + ", %d" * npe + "]", elements.ravel().tolist()),
        "nodes": partial(_row_list, "[%d" + ", %s" * dim + "]", _flat_rows(
            chunk.node_ids.tolist(), *(coords[k::dim] for k in range(dim)))),
    }, indent)


def _float_texts(values: list[float]) -> list[str]:
    """Each float as json writes it, for the ``%s`` slots of a row."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def _flat_rows(*columns: list) -> list:
    """The columns' items row after row, as ``_row_list`` takes them."""
    return list(chain.from_iterable(zip(*columns)))


def load_mesh(path) -> MeshChunk:
    data = _read_bytes(path)
    chunk = _mesh_from_rows(data)
    if chunk is not None:
        return chunk
    return _named(path, mesh_from_payload, _load_doc(path, "mesh", data))


def _named(path, build, *args):
    """``build(*args)``; its ValueError, TypeError or KeyError becomes a
    FormatError naming ``path``."""
    try:
        return build(*args)
    except (ValueError, TypeError, KeyError) as err:
        raise FormatError(path, str(err)) from err


def _mesh_from_rows(data: bytes) -> MeshChunk | None:
    """The chunk of a mesh document in the layout ``save_mesh`` writes, or
    None unless it passes every check ``mesh_from_payload`` makes."""
    # The kind is the first string after a comma: the first element's.
    at = data.find(b', "') + 3
    kind = data[at:data.find(b'"', at)].decode("latin-1")
    if at < 3 or kind not in KINDS:
        return None
    _, dim, npe, npf = KINDS[kind]
    rows = _read_rows(data, "mesh", {"boundary": _Row(1 + npf),
                                     "elements": _Row(1 + npe, kind=kind),
                                     "nodes": _Row(1 + dim, numbers=True)})
    if rows is None:
        return None
    (tags, bconn), (eids, conn), (nids, coords) = rows
    if not (len(eids) and eids.min() >= 0 and nids.min(initial=0) >= 0
            and not _repeats(eids) and not _repeats(nids)
            and np.isfinite(coords).all()):
        return None
    chunk = MeshChunk.from_arrays(kind, eids, conn, nids, coords, tags, bconn)
    return chunk if chunk.references_resolve() else None


def mesh_from_payload(raw: Mapping[str, Any]) -> MeshChunk:
    """Build and check a chunk from a mesh document's payload.

    Each section is scanned record by record, and the first offending
    record is named; the checked records then become arrays.  References
    are checked last, on the sorted chunk.
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
    kinds = sorted(KINDS)
    if kind not in kinds:   # a list compares, where a dict would hash
        raise ValueError(f"unknown element kind {kind!r}; "
                         f"expected one of {kinds}")
    _, dim, npe, npf = KINDS[kind]
    nodes, boundary = raw.get("nodes", []), raw.get("boundary", [])
    _first_bad("element", elements, _element_problem, kind, npe)
    _first_bad("node", nodes, _node_problem, dim)
    _first_bad("boundary", boundary, _boundary_problem, npf)

    eids, _, *conn = _columns(elements, 2 + npe)
    nids, *coords = _columns(nodes, 1 + dim)
    tags, *bconn = _columns(boundary, 1 + npf)
    conn_array, bconn_array = _int64(conn), _int64(bconn)
    if conn_array is not None and bconn_array is not None:
        chunk = MeshChunk.from_arrays(
            kind, np.array(eids, dtype=np.int64), conn_array.T,
            np.array(nids, dtype=np.int64),
            np.array(coords, dtype=np.float64).T,
            np.array(tags, dtype=np.int64), bconn_array.T)
        if chunk.references_resolve():
            return chunk
    # Named in file order.  A node id beyond int64 names no node, like any
    # other unknown one.
    raise ValueError(reference_problem(zip(eids, zip(*conn)), nids,
                                       zip(tags, zip(*bconn)), npe))


def _int64(values) -> np.ndarray | None:
    """Integers (a column, columns or one) as int64, or None if one is
    beyond int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return None


def _columns(records: list[list], width: int) -> list[list]:
    """The columns of records that are each a list of ``width`` items."""
    # One flat list, then one slice per column: both run in C.
    items = list(chain.from_iterable(records))
    return [items[i::width] for i in range(width)]


def _ints(*columns) -> bool:
    """Every item is a JSON integer (a bool is not)."""
    return set(map(type, chain(*columns))) <= {int}


def _numbers(*columns) -> bool:
    return set(map(type, chain(*columns))) <= {int, float}


def _in_int64(value: int) -> bool:
    return -2**63 <= value < 2**63


def _is_finite(value: int | float) -> bool:
    """A JSON number is finite; an integer beyond float64 is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _first_bad(section: str, records, problem, *args) -> None:
    """Raise ValueError naming the first record ``problem`` objects to, if
    any.

    ``problem(record, seen, *args)`` returns a message or None; ``seen`` is
    a set it may use to spot repeated ids.
    """
    if not isinstance(records, list):
        raise ValueError(f"{section} records must be a list")
    seen: set = set()
    for i, rec in enumerate(records):
        message = problem(rec, seen, *args)
        if message:
            raise ValueError(f"{section} record {i}: {message}")


def _id_problem(noun: str, rid, seen: set) -> str | None:
    if type(rid) is not int:
        return f"{noun} id must be an integer, got {rid!r}"
    if rid < 0 or rid in seen:
        return f"{'negative' if rid < 0 else 'duplicate'} {noun} id {rid}"
    if not _in_int64(rid):
        return f"{noun} id {rid} beyond the int64 range"
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
    if not _numbers(rec[1:]):
        return f"coordinates must be numbers, got {rec[1:]}"
    return None if all(map(_is_finite, rec[1:])) else \
        f"coordinates must be finite, got {rec[1:]}"


def _boundary_problem(rec, seen, npf) -> str | None:
    if not (isinstance(rec, list) and len(rec) == 1 + npf):
        return f"expected [tag, {npf} node ids]"
    if not _ints(rec):
        return f"tag and node ids must be integers, got {rec}"
    return None if _in_int64(rec[0]) else \
        f"tag {rec[0]} beyond the int64 range"


# -- topology ------------------------------------------------------------------

def save_topology(path, tree: TopologyTree) -> None:
    dump_doc(path, "topology", tree.to_doc())


def load_topology(path) -> TopologyTree:
    return _named(path, build_topology,
                  _load_doc(path, "topology", _read_bytes(path)))


# -- assignment, weights, timing -------------------------------------------------

def save_assignment(path, assignment: Mapping[int, int]) -> None:
    """The assignment document of an element -> part mapping."""
    dump_doc(path, "assignment", partial(_row_list, "[%d, %d]", list(
        chain.from_iterable(sorted(assignment.items())))))


def write_assignment(path, ids: np.ndarray, parts: np.ndarray) -> None:
    """The assignment document of aligned ``ids``, ascending, and
    ``parts``."""
    dump_doc(path, "assignment", partial(
        _row_list, "[%d, %d]", np.column_stack((ids, parts)).ravel().tolist()))


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
    """(element ids, parts) of an assignment document, in file order;
    ``id_array`` arrays."""
    data = _read_bytes(path)
    rows = _read_rows(data, "assignment", _Row(2))
    if rows:
        (ids, parts), = rows
        if len(ids) and not _repeats(ids):
            return ids, parts[:, 0]
    raw = _load_doc(path, "assignment", data)
    _named(path, _first_bad, "assignment", raw, _assignment_problem)
    if not raw:
        raise FormatError(path, "assignment is empty")
    ids, parts = _columns(raw, 2)
    return id_array(ids), id_array(parts)


def load_assignment(path) -> dict[int, int]:
    """:func:`read_assignment` as an element -> part dict in file order."""
    ids, parts = read_assignment(path)
    return dict(zip(ids.tolist(), parts.tolist()))


def _assignment_problem(rec, seen) -> str | None:
    if not (isinstance(rec, list) and len(rec) == 2):
        return "expected [element, part]"
    if not _ints(rec):
        return f"element and part must be integers, got {rec}"
    if rec[0] in seen:
        return f"element {rec[0]} assigned twice"
    seen.add(rec[0])
    return None


def save_weights(path, weights: Mapping[int, float]) -> None:
    ids = sorted(weights)
    dump_doc(path, "weights", partial(_row_list, "[%d, %s]", _flat_rows(
        ids, _float_texts([float(weights[e]) for e in ids]))))


def read_weights(path) -> tuple[np.ndarray, np.ndarray]:
    """(element ids, weights) of a weights document, in file order: an
    ``id_array`` and a float64 array of finite, positive weights."""
    data = _read_bytes(path)
    rows = _read_rows(data, "weights", _Row(2, numbers=True))
    if rows:
        (ids, weights), = rows
        weights = weights[:, 0]
        if (np.isfinite(weights).all() and (weights > 0).all()
                and not _repeats(ids)):
            return ids, weights
    raw = _load_doc(path, "weights", data)
    _named(path, _first_bad, "weight", raw, _weight_problem)
    ids, weights = _columns(raw, 2)
    return id_array(ids), np.array(weights, dtype=np.float64)


def load_weights(path) -> dict[int, float]:
    """:func:`read_weights` as an element -> weight dict in file order."""
    ids, weights = read_weights(path)
    return dict(zip(ids.tolist(), weights.tolist()))


def _number_problem(noun: str, value) -> str | None:
    """Why ``value`` is not a finite JSON number, if it is not."""
    if not _numbers([value]):
        return f"{noun} must be a number, got {value!r}"
    if _is_finite(value):
        return None
    return (f"non-finite {noun} {value}" if type(value) is float
            else f"{noun} beyond the float64 range")


def _weight_problem(rec, seen) -> str | None:
    if not (isinstance(rec, list) and len(rec) == 2):
        return "expected [element, weight]"
    e, w = rec
    if type(e) is not int:
        return f"element id must be an integer, got {e!r}"
    if problem := _number_problem("weight", w):
        return problem
    if w <= 0:
        return f"non-positive weight {float(w)}"
    if e in seen:
        return f"element {e} weighted twice"
    seen.add(e)
    return None


def load_timing(path) -> list[tuple[list[int], float]]:
    raw = _load_doc(path, "timing", _read_bytes(path))
    _named(path, _first_bad, "timing", raw, _timing_problem)
    return [(rec["elems"], float(rec["seconds"])) for rec in raw]


def _timing_problem(rec, seen) -> str | None:
    if not (isinstance(rec, dict) and "elems" in rec and "seconds" in rec):
        return "expected {elems, seconds}"
    if problem := _number_problem("seconds", rec["seconds"]):
        return problem
    elems = rec["elems"]
    if not (isinstance(elems, list) and _ints(elems)):
        return "elems must be a list of integer element ids"
    return None


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
        "halo": [{"rank": other, "channel": channel, "nodes": list(nodes)}
                 for other, nodes, channel in neighbors],
        "mesh": partial(_mesh_text, chunk),
        "rank": rank,
    })

"""JSON document formats shared by the CLI and on-disk fixtures.

Every document is a single object ``{"schema": "treepart-1", <kind>: ...}``
so files are self-describing and the format can grow without breaking old
readers.  Writers emit sorted keys and a trailing newline, which makes the
output byte-stable for identical payloads.

Mesh, assignment and weight documents have two read paths.  The fast one
takes only the layout this module writes (sorted keys, two-space indents,
one record row per line) and reads each section's rows straight into int64
or float64 columns.  Any other layout, and any document that fails a check,
takes the ``json.load`` path, which accepts any JSON spelling and names the
offending record.
"""

from __future__ import annotations

import json
import math
import warnings
from itertools import chain
from typing import Any, Mapping, NamedTuple, NoReturn, Sequence

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
            text = json.dumps(value)
            # The list and each row open one bracket; any other bracket or
            # brace is a nested container, which takes the general path
            # below.  Without one, "], [" only ever separates two rows.
            if text.count("[") == len(value) + 1 and "{" not in text:
                rows = text[1:-1].replace("], [", "],\n" + inner + "[")
                return "[\n" + inner + rows + "\n" + indent + "]"
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


def _read_bytes(path) -> bytes | None:
    """The file's bytes, or None if it cannot be read; the ``json.load``
    path then reports why."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _read_rows(data: bytes | None, kind: str,
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
    if data is None:
        return None
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
    with open(path, "w") as fh:
        fh.write('{\n  "mesh": ' + _mesh_text(chunk, "  ") + ',\n  "schema": '
                 + json.dumps(SCHEMA) + "\n}\n")


def _mesh_text(chunk: MeshChunk, indent: str) -> str:
    """``_render(mesh_payload(chunk), indent)``, one format call a section."""
    _, dim, npe, npf = KINDS[chunk.kind]
    # Each node id, then its coordinates as json writes them.
    nodes = [None] * chunk.node_ids.size * (1 + dim)
    nodes[::1 + dim] = chunk.node_ids.tolist()
    coords = (json.dumps(chunk.coords.ravel().tolist())[1:-1].split(", ")
              if chunk.coords.size else [])
    for k in range(dim):
        nodes[1 + k::1 + dim] = coords[k::dim]
    sections = {
        "boundary": ("[%d" + ", %d" * npf + "]", np.column_stack(
            (chunk.boundary_tags, chunk.boundary_conn)).ravel().tolist()),
        "elements": ("[%d, " + json.dumps(chunk.kind) + ", %d" * npe + "]",
                     np.column_stack((chunk.element_ids,
                                      chunk.conn)).ravel().tolist()),
        "nodes": ("[%d" + ", %s" * dim + "]", nodes),
    }
    inner = indent + "  "
    rows = [f'{inner}"{key}": {_row_list(row, values, inner)}'
            for key, (row, values) in sections.items()]
    return "{\n" + ",\n".join(rows) + "\n" + indent + "}"


def load_mesh(path) -> MeshChunk:
    chunk = _mesh_from_rows(_read_bytes(path))
    if chunk is not None:
        return chunk
    raw = _load_doc(path, "mesh")
    try:
        return mesh_from_payload(raw)
    except (ValueError, TypeError, KeyError) as err:
        raise FormatError(path, str(err)) from err


def _mesh_from_rows(data: bytes | None) -> MeshChunk | None:
    """The chunk of a mesh document in the layout ``save_mesh`` writes, or
    None unless it passes every check ``mesh_from_payload`` makes."""
    if data is None:
        return None
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

    Each section is checked a whole column at a time and converted to an
    array; only when a check fails is the section scanned record by record,
    to name the first offending record.  References are checked last, on
    the sorted chunk.
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
    _, dim, npe, npf = KINDS[kind]

    ecols = _columns(elements, 2 + npe)
    eids = None
    if (ecols and ecols[1].count(kind) == len(elements)
            and _ints(ecols[0], *ecols[2:]) and min(ecols[0]) >= 0):
        eids = _distinct_ids(ecols[0])
    if eids is None:  # a failed check, a repeated id or one beyond int64
        _first_bad("element", elements, _element_problem, kind, npe)

    nodes = raw.get("nodes", [])
    ncols = _columns(nodes, 1 + dim)
    nids = coords = None
    if (ncols and _ints(ncols[0]) and min(ncols[0], default=0) >= 0
            and _numbers(*ncols[1:])):
        nids = _distinct_ids(ncols[0])
        coords = _finite(ncols[1:])
    if nids is None or coords is None:
        _first_bad("node", nodes, _node_problem, dim)

    boundary = raw.get("boundary", [])
    bcols = _columns(boundary, 1 + npf)
    tags = _int64(bcols[0]) if bcols and _ints(*bcols) else None
    if tags is None:
        _first_bad("boundary", boundary, _boundary_problem, npf)

    conn, bconn = _int64(ecols[2:]), _int64(bcols[1:])
    if conn is not None and bconn is not None:
        chunk = MeshChunk.from_arrays(kind, eids, conn.T, nids, coords.T,
                                      tags, bconn.T)
        if chunk.references_resolve():
            return chunk
    # Named in file order.  A node id beyond int64 names no node, like any
    # other unknown one.
    raise ValueError(reference_problem(
        zip(ecols[0], zip(*ecols[2:])), ncols[0],
        zip(bcols[0], zip(*bcols[1:])), npe))


def _int64(values) -> np.ndarray | None:
    """Integers (a column, columns or one) as int64, or None if one is
    beyond int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return None


def _distinct_ids(column) -> np.ndarray | None:
    """The id column as int64, or None if an id repeats or is beyond int64."""
    ids = _int64(column)
    return None if ids is None or _repeats(ids) else ids


def _finite(columns) -> np.ndarray | None:
    """Number columns as one float64 array, or None if one is not finite."""
    try:
        values = np.array(columns, dtype=np.float64)
    except OverflowError:
        return None
    return values if np.isfinite(values).all() else None


def _columns(records, width: int) -> list[list] | None:
    """The records' columns, or None unless every record is a list of
    ``width`` items."""
    if not (isinstance(records, list) and set(map(type, records)) <= {list}
            and set(map(len, records)) <= {width}):
        return None
    # One flat list, then one slice per column: both run in C.
    items = list(chain.from_iterable(records))
    return [items[i::width] for i in range(width)]


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
    if _int64(rid) is None:
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
    return None if _finite([rec[1:]]) is not None else \
        f"coordinates must be finite, got {rec[1:]}"


def _boundary_problem(rec, seen, npf) -> str | None:
    if not (isinstance(rec, list) and len(rec) == 1 + npf):
        return f"expected [tag, {npf} node ids]"
    if not _ints(rec):
        return f"tag and node ids must be integers, got {rec}"
    return None if _int64(rec[0]) is not None else \
        f"tag {rec[0]} beyond the int64 range"


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
    """The assignment document of an element -> part mapping."""
    _write_assignment_rows(path, list(chain.from_iterable(
        sorted(assignment.items()))))


def write_assignment(path, ids: np.ndarray, parts: np.ndarray) -> None:
    """The assignment document of aligned ``ids``, ascending, and
    ``parts``."""
    _write_assignment_rows(path, np.column_stack((ids, parts)).ravel().tolist())


def _write_assignment_rows(path, flat: list[int]) -> None:
    """The document ``dump_doc`` renders for the [element, part] rows
    ``flat`` lists one after another."""
    body = _row_list("[%d, %d]", flat, "  ")
    with open(path, "w") as fh:
        fh.write('{\n  "assignment": ' + body + ',\n  "schema": '
                 + json.dumps(SCHEMA) + "\n}\n")


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
    rows = _read_rows(_read_bytes(path), "assignment", _Row(2))
    if rows:
        (ids, parts), = rows
        if len(ids) and not _repeats(ids):
            return ids, parts[:, 0]
    raw = _load_doc(path, "assignment")
    cols = _columns(raw, 2)
    if cols and _ints(*cols):
        ids = id_array(cols[0])
        if not _repeats(ids):
            if not len(ids):
                raise FormatError(path, "assignment is empty")
            return ids, id_array(cols[1])
    _first_bad_in(path, "assignment", raw, _assignment_problem)


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


def _first_bad_in(path, section: str, records, problem) -> NoReturn:
    """:func:`_first_bad` for a whole document: the error names ``path``."""
    try:
        _first_bad(section, records, problem)
    except ValueError as err:
        raise FormatError(path, str(err)) from err


def save_weights(path, weights: Mapping[int, float]) -> None:
    dump_doc(path, "weights",
             [[int(e), float(w)] for e, w in sorted(weights.items())])


def read_weights(path) -> tuple[np.ndarray, np.ndarray]:
    """(element ids, weights) of a weights document, in file order: an
    ``id_array`` and a float64 array of finite, positive weights."""
    rows = _read_rows(_read_bytes(path), "weights", _Row(2, numbers=True))
    if rows:
        (ids, weights), = rows
        weights = weights[:, 0]
        if (np.isfinite(weights).all() and (weights > 0).all()
                and not _repeats(ids)):
            return ids, weights
    raw = _load_doc(path, "weights")
    cols = _columns(raw, 2)
    if cols and _ints(cols[0]) and _numbers(cols[1]):
        ids, weights = id_array(cols[0]), _finite(cols[1])
        if weights is not None and (weights > 0).all() and not _repeats(ids):
            return ids, weights
    _first_bad_in(path, "weight", raw, _weight_problem)


def load_weights(path) -> dict[int, float]:
    """:func:`read_weights` as an element -> weight dict in file order."""
    ids, weights = read_weights(path)
    return dict(zip(ids.tolist(), weights.tolist()))


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


def save_timing(path, blocks: Sequence[tuple[Sequence[int], float]]) -> None:
    dump_doc(path, "timing",
             [{"elems": [int(e) for e in eids], "seconds": float(s)}
              for eids, s in blocks])


# -- report and per-rank parts ---------------------------------------------------

def save_report(path, report: Mapping[str, Any]) -> None:
    dump_doc(path, "report", dict(report))


def save_part(path, rank: int, chunk: MeshChunk, neighbors) -> None:
    """Per-rank output: the rank's mesh piece plus its halo neighbor table.

    The document ``dump_doc`` writes for ``{"rank": rank, "mesh":
    mesh_payload(chunk), "halo": [...]}``."""
    halo = _render([{"rank": other, "channel": channel, "nodes": list(nodes)}
                    for other, nodes, channel in neighbors], "    ")
    with open(path, "w") as fh:
        fh.write('{\n  "part": {\n    "halo": ' + halo + ',\n    "mesh": '
                 + _mesh_text(chunk, "    ") + ',\n    "rank": '
                 + json.dumps(rank) + '\n  },\n  "schema": '
                 + json.dumps(SCHEMA) + "\n}\n")

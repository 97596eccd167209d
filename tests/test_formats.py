"""Document round-trips, schema checks, and the byte-stable renderer."""

from __future__ import annotations

import copy
import json
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierpart import formats
from hierpart.formats import (SCHEMA, FormatError, _render, dump_doc,
                              load_assignment, load_mesh, load_timing,
                              load_topology, load_weights, mesh_from_payload,
                              mesh_payload, read_assignment, read_weights,
                              save_assignment, save_mesh, save_part,
                              save_report, save_timing, save_topology,
                              save_weights, write_assignment)
from hierpart.mesh import KINDS, MeshChunk
from hierpart.meshgen import tet_box, triangle_grid
from hierpart.topology import build_topology

import dict_era
from dict_era import DictChunk


def test_mesh_round_trip_triangles(tmp_path):
    mesh = triangle_grid(3, 2)
    path = tmp_path / "mesh.json"
    save_mesh(path, mesh)
    back = load_mesh(path)
    assert back.kind == mesh.kind
    assert back.elements == mesh.elements
    assert back.nodes == mesh.nodes
    assert sorted(back.boundary) == sorted(mesh.boundary)


def test_mesh_round_trip_tets(tmp_path):
    mesh = tet_box(2, 1, 1)
    path = tmp_path / "mesh.json"
    save_mesh(path, mesh)
    back = load_mesh(path)
    assert back.elements == mesh.elements
    assert back.nodes == mesh.nodes


def test_mesh_document_shape(tmp_path):
    mesh = triangle_grid(1, 1)
    path = tmp_path / "mesh.json"
    save_mesh(path, mesh)
    doc = json.loads(path.read_text())
    assert doc["schema"] == SCHEMA
    # Element records carry the kind per row: [id, kind, nodes...].
    assert doc["mesh"]["elements"][0][1] == "triangle"
    assert len(doc["mesh"]["elements"][0]) == 5
    assert len(doc["mesh"]["nodes"][0]) == 3  # 2D: [id, x, y]


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "other-9", "mesh": {}}))
    with pytest.raises(FormatError, match="schema"):
        load_mesh(path)


def test_load_rejects_missing_kind_entry(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": SCHEMA}))
    with pytest.raises(FormatError, match="missing 'mesh'"):
        load_mesh(path)


def test_load_rejects_invalid_json_with_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(FormatError, match="invalid JSON") as err:
        load_mesh(path)
    assert str(path) in str(err.value)


def test_load_missing_file_is_a_format_error(tmp_path):
    with pytest.raises(FormatError):
        load_mesh(tmp_path / "absent.json")


_EVERY_LOADER = [load_mesh, load_topology, read_assignment, read_weights,
                 load_timing]


@pytest.mark.parametrize("load", _EVERY_LOADER, ids=lambda f: f.__name__)
def test_a_top_level_that_is_not_an_object_is_named(tmp_path, load):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([SCHEMA, {}]))
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: top "
                                          f"level must be an object$"):
        load(path)


@pytest.mark.parametrize("load", _EVERY_LOADER, ids=lambda f: f.__name__)
def test_each_document_is_opened_once(tmp_path, load):
    # One-line documents take the json.loads path, which parses the bytes
    # the row reader was given.
    save = {load_mesh: lambda p: save_mesh(p, triangle_grid(2, 1)),
            load_topology: lambda p: save_topology(
                p, build_topology([("node", 2)])),
            read_assignment: lambda p: save_assignment(p, {0: 1, 1: 0}),
            read_weights: lambda p: save_weights(p, {0: 1.5, 1: 2.0}),
            load_timing: lambda p: save_timing(p, [([0, 1], 0.5)])}[load]
    path = tmp_path / "doc.json"
    save(path)
    path.write_text(json.dumps(json.loads(path.read_text())))
    opened = []
    real_open = open

    def spy(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    with mock.patch("builtins.open", spy):
        load(path)
    assert opened == [path]


def test_mesh_error_names_offending_record(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema": SCHEMA,
        "mesh": {"nodes": [[0, 0.0, 0.0]],
                 "elements": [[0, "triangle", 1, 2]],
                 "boundary": []},
    }))
    with pytest.raises(FormatError, match="element record 0"):
        load_mesh(path)


def test_empty_mesh_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema": SCHEMA,
        "mesh": {"nodes": [], "elements": [], "boundary": []},
    }))
    with pytest.raises(FormatError, match="no elements"):
        load_mesh(path)


def test_topology_round_trip(tmp_path):
    tree = build_topology([("node", 2), ("socket", 3), ("core", 4)])
    path = tmp_path / "topo.json"
    save_topology(path, tree)
    back = load_topology(path)
    assert back.total_ranks == 24
    assert [back.level_name(i) for i in range(3)] == ["node", "socket", "core"]
    assert [arity for _, arity in back.levels] == [2, 3, 4]


def test_assignment_round_trip_and_checks(tmp_path):
    path = tmp_path / "assign.json"
    save_assignment(path, {5: 1, 2: 0})
    assert load_assignment(path) == {2: 0, 5: 1}

    path.write_text(json.dumps({"schema": SCHEMA,
                                "assignment": [[0, 0], [0, 1]]}))
    with pytest.raises(FormatError, match="assigned twice"):
        load_assignment(path)

    path.write_text(json.dumps({"schema": SCHEMA, "assignment": []}))
    with pytest.raises(FormatError, match="empty"):
        load_assignment(path)

    path.write_text(json.dumps({"schema": SCHEMA, "assignment": {"0": 0}}))
    with pytest.raises(FormatError, match="assignment records must be a list"):
        load_assignment(path)


def test_weights_round_trip_and_positivity(tmp_path):
    path = tmp_path / "weights.json"
    save_weights(path, {3: 2.5, 1: 1.0})
    assert load_weights(path) == {1: 1.0, 3: 2.5}

    path.write_text(json.dumps({"schema": SCHEMA, "weights": [[0, 0.0]]}))
    with pytest.raises(FormatError, match="non-positive"):
        load_weights(path)

    path.write_text(json.dumps({"schema": SCHEMA, "weights": [[0, 1], [1, 0]]}))
    with pytest.raises(FormatError,
                       match="weight record 1: non-positive weight 0.0"):
        load_weights(path)


def test_timing_round_trip(tmp_path):
    path = tmp_path / "timing.json"
    save_timing(path, [([0, 1], 0.5), ([2], 0.125)])
    assert load_timing(path) == [([0, 1], 0.5), ([2], 0.125)]

    path.write_text(json.dumps({"schema": SCHEMA,
                                "timing": [{"elements": [0], "seconds": 1}]}))
    with pytest.raises(FormatError, match="elems"):
        load_timing(path)

    path.write_text(json.dumps({"schema": SCHEMA, "timing": 5}))
    with pytest.raises(FormatError, match="timing records must be a list"):
        load_timing(path)


def test_report_and_part_documents(tmp_path):
    report = {"config": {"command": "partition"}, "quality": {"edge_cut": 3}}
    save_report(tmp_path / "report.json", report)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["report"]["quality"]["edge_cut"] == 3

    mesh = triangle_grid(1, 1)
    save_part(tmp_path / "part.json", 2, mesh,
              [(3, (4, 5), "internode")])
    doc = json.loads((tmp_path / "part.json").read_text())
    assert doc["part"]["rank"] == 2
    assert doc["part"]["halo"] == [
        {"rank": 3, "channel": "internode", "nodes": [4, 5]}]


def test_renderer_byte_stable_under_key_order(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    dump_doc(a, "report", {"x": 1, "y": [1, 2], "z": {"k": True}})
    dump_doc(b, "report", {"z": {"k": True}, "y": [1, 2], "x": 1})
    assert a.read_bytes() == b.read_bytes()


def test_renderer_keeps_records_on_one_line(tmp_path):
    path = tmp_path / "mesh.json"
    save_mesh(path, triangle_grid(2, 2))
    lines = path.read_text().splitlines()
    elem_lines = [ln for ln in lines if '"triangle"' in ln]
    assert len(elem_lines) == 8  # one per element, not one per field
    assert lines[-1].strip() == "}"
    assert path.read_text().endswith("}\n")


def oracle_render(value, indent):
    """The renderer as first written: one recursive call per list item."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        rows = [f'{inner}{json.dumps(str(k))}: {oracle_render(v, inner)}'
                for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(rows) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return json.dumps(value)
        inner = indent + "  "
        rows = [inner + oracle_render(v, inner) for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + indent + "]"
    return json.dumps(value)


# Strings full of brackets and braces, so a flat row can look nested.
_SCALARS = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
            | st.floats(allow_nan=False)
            | st.text(alphabet="[]{}\",: ab", max_size=6))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(alphabet="ab[", max_size=3),
                                     inner, max_size=4)),
    max_leaves=30)


@given(value=_VALUES)
def test_render_matches_recursive_renderer(value):
    assert _render(value, "") == oracle_render(value, "")


@pytest.mark.parametrize("rows", [
    [[0, 1], [2, 3]],
    [(0, "tri"), [1, "a[b"]],
    [[0, [1, 2]], [3]],
    [[], [1]],
    [[0, {"a": 1}], [1]],
    [[0], {"a": [1, 2]}],
    [[0, float("nan")], [1, float("inf")], [2, -float("inf")]],
    [[-0.0, 0.0], [0, -0.0]],
    [[1e16, 1.5e-7], [-1e16, 123456789012345678]],
    [(0, 1.0), (2, "b")],
    [(0, (1, 2)), (3,)],
])
def test_render_rows_hand_cases(rows):
    assert _render({"rows": rows}, "") == oracle_render({"rows": rows}, "")


# Any int or float, NaN and the infinities included, and keys that need
# escapes or are not strings; the keys of one dict share a type, so they
# sort.
_ANY_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.text(max_size=4))
_KEY_TYPES = (st.text(alphabet='"\\\n\t\x00é\U0001f600ab/', max_size=4),
              st.integers(), st.floats(allow_nan=False), st.booleans())
_ANY_VALUES = st.recursive(
    _ANY_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.one_of([st.dictionaries(keys, inner, max_size=4)
                                for keys in _KEY_TYPES])),
    max_leaves=20)


@given(value=_ANY_VALUES)
def test_render_formats_scalars_and_keys_as_plain_json(value):
    assert _render(value, "  ") == oracle_render(value, "  ")


def test_render_keys_that_hash_alike_keep_their_own_text():
    # 1, 1.0 and True are equal dict keys, but each has its own str.
    for key, text in [(1, '"1"'), (True, '"True"'), (1.0, '"1.0"'),
                      (1, '"1"')]:
        assert _render({key: True}, "") == "{\n  " + text + ": true\n}"


def test_integer_coordinates_and_weights_load_as_floats(tmp_path):
    mesh = triangle_grid(2, 1)
    payload = mesh_payload(mesh)
    payload["nodes"] = [[n, *map(int, xyz)] for n, *xyz in payload["nodes"]]
    back = mesh_from_payload(payload)
    assert back.nodes == mesh.nodes
    assert {type(c) for xyz in back.nodes.values() for c in xyz} == {float}

    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"schema": SCHEMA, "weights": [[0, 2], [1, 1.5]]}))
    weights = load_weights(path)
    assert weights == {0: 2.0, 1: 1.5}
    assert type(weights[0]) is float


def test_mesh_payload_must_be_an_object(tmp_path):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"schema": SCHEMA, "mesh": [1]}))
    with pytest.raises(FormatError, match="mesh must be an object"):
        load_mesh(path)


def oracle_mesh_from_payload(raw):
    """The loader as first written: every record converted and checked
    field by field, then the chunk validated."""
    elements = raw.get("elements", [])
    if not elements:
        raise ValueError("mesh has no elements")
    kind = elements[0][1] if len(elements[0]) > 1 else None
    if kind not in KINDS:
        raise ValueError(f"unknown element kind {kind!r}; "
                         f"expected one of {sorted(KINDS)}")
    chunk = DictChunk(kind)
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


# One edit of a mesh payload: (section, record, field, new value), where the
# value may also drop, copy over or lengthen the record.  New values are
# JSON integers, or element kinds put in an element's kind field: inputs the
# first loader read the way the column checks do.
_EDITS = st.tuples(
    st.sampled_from(["elements", "nodes", "boundary"]),
    st.integers(0, 40), st.integers(0, 4),
    st.integers(-2, 30) | st.sampled_from(["triangle", "tetrahedron",
                                           "drop", "append", "copy"]))


def _apply(payload, edit):
    section, r, f, value = edit
    records = payload[section]
    if not records:
        return
    r %= len(records)
    if value == "copy":
        records[r] = list(records[(r + 1) % len(records)])
    elif value == "drop":
        del records[r]
    elif value == "append":
        records[r].append(records[r][-1])
    elif isinstance(value, str):
        elements = payload["elements"]
        elements[r % len(elements)][1] = value
    else:
        records[r][f % len(records[r])] = value


def _outcome(load, payload):
    try:
        return "ok", _items(load(payload))
    except ValueError as err:
        return "error", str(err)


def _items(chunk):
    # An array chunk holds its records in id order, a dict-era chunk in
    # file order.
    return (chunk.kind, sorted(chunk.nodes.items()),
            sorted(chunk.elements.items()), sorted(chunk.boundary))


@settings(max_examples=300, deadline=None)
@given(mesh=st.sampled_from([triangle_grid(3, 2), tet_box(1, 1, 1)]),
       edits=st.lists(_EDITS, max_size=3))
def test_block_checks_report_what_the_record_loop_reported(mesh, edits):
    # Against the first loader and the dict-era column loader: the array
    # loader keeps both the records and the first error message.
    payload = mesh_payload(mesh)
    for edit in edits:
        _apply(payload, edit)
    got = _outcome(mesh_from_payload, json.loads(json.dumps(payload)))
    assert got == _outcome(oracle_mesh_from_payload,
                           json.loads(json.dumps(payload)))
    assert got == _outcome(dict_era.mesh_from_payload, payload)


def oracle_save_assignment(path, assignment):
    """save_assignment as first written: one [e, p] list per row, rendered
    by dump_doc."""
    dump_doc(path, "assignment",
             [[int(e), int(p)] for e, p in sorted(assignment.items())])


@settings(max_examples=100, deadline=None)
@given(assignment=st.dictionaries(st.integers(-10**12, 10**12),
                                  st.integers(-5, 10**6), max_size=40))
def test_save_assignment_writes_the_row_list_document(tmp_path_factory,
                                                      assignment):
    d = tmp_path_factory.mktemp("assign")
    save_assignment(d / "new.json", assignment)
    oracle_save_assignment(d / "old.json", assignment)
    assert (d / "new.json").read_bytes() == (d / "old.json").read_bytes()
    if assignment:
        assert load_assignment(d / "new.json") == assignment


def test_non_finite_coordinates_name_the_node_record():
    payload = mesh_payload(triangle_grid(2, 1))
    for bad in (float("nan"), float("inf"), float("-inf"), 10**400):
        edited = json.loads(json.dumps(payload))
        edited["nodes"][3][1] = bad
        with pytest.raises(ValueError, match="node record 3: coordinates "
                                             "must be finite"):
            mesh_from_payload(edited)


def test_negative_node_reference_is_an_unknown_node():
    payload = mesh_payload(triangle_grid(2, 1))
    payload["elements"][1][3] = -1
    with pytest.raises(ValueError, match="element 1 references unknown node -1"):
        mesh_from_payload(payload)


# -- the fast row reader against the json.load path -----------------------------

def _bits(value):
    """Arrays compared bit for bit, dtype and shape included."""
    if isinstance(value, np.ndarray):
        # An object array holds ids beyond int64 as Python ints.
        return (value.dtype.str, value.shape,
                value.tolist() if value.dtype == object else value.tobytes())
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return (value.kind, _bits(value._arrays()), value.weights is None)


def _outcome_of(load, path):
    try:
        return "ok", _bits(load(path))
    except FormatError as err:
        return "error", str(err)


def _both_paths(load, path):
    """(outcome of ``load``, outcome of its json.loads path): with the row
    reader finding no rows, every loader takes the json.loads path."""
    got = _outcome_of(load, path)
    with mock.patch.object(formats, "_read_rows", lambda *args: None):
        return got, _outcome_of(load, path)


# Ids of one document come from one of these ranges: small ones, ones on
# either side of the row reader's 10**18 limit, or any up to 2**62.
_ID_RANGES = st.sampled_from([(0, 10**6), (10**18 - 10**3, 10**18 - 1),
                              (10**18 - 10**3, 10**18 + 10**3), (0, 2**62)])


def _ids(draw, n, signed=False):
    low, high = draw(_ID_RANGES)
    return draw(st.lists(st.integers(-high if signed else low, high),
                         min_size=n, max_size=n, unique=not signed))


@st.composite
def _meshes(draw):
    """A small mesh with ids up to 2**62 and any finite coordinates."""
    if draw(st.booleans()):
        mesh = triangle_grid(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    else:
        mesh = tet_box(draw(st.integers(1, 2)), 1, draw(st.integers(1, 2)))
    n, m, b = mesh.n_elements, len(mesh.node_ids), len(mesh.boundary_tags)
    eids, nids = np.array(_ids(draw, n)), np.array(_ids(draw, m))
    coords = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=mesh.coords.size,
                           max_size=mesh.coords.size))
    tags = _ids(draw, b, signed=True)
    rows = np.searchsorted(mesh.node_ids, mesh.conn)
    faces = np.searchsorted(mesh.node_ids, mesh.boundary_conn)
    return MeshChunk.from_arrays(mesh.kind, eids, nids[rows], nids,
                                 np.reshape(coords, mesh.coords.shape),
                                 tags, nids[faces])


def _fast(path, kind, layout) -> bool:
    return formats._read_rows(formats._read_bytes(path), kind,
                              layout) is not None


def _small(*arrays) -> bool:
    return all((abs(a) < 10**18).all() for a in arrays)


@settings(max_examples=60, deadline=None)
@given(mesh=_meshes())
def test_written_meshes_load_as_the_json_path_reads_them(tmp_path_factory,
                                                         mesh):
    path = tmp_path_factory.mktemp("mesh") / "mesh.json"
    save_mesh(path, mesh)
    got, want = _both_paths(load_mesh, path)
    assert got == want == ("ok", _bits(mesh))
    _, dim, npe, npf = KINDS[mesh.kind]
    layout = {"boundary": formats._Row(1 + npf),
              "elements": formats._Row(1 + npe, kind=mesh.kind),
              "nodes": formats._Row(1 + dim, numbers=True)}
    assert _fast(path, "mesh", layout) == _small(
        mesh.element_ids, mesh.conn, mesh.node_ids, mesh.boundary_tags)


@st.composite
def _tables(draw, values=None, min_size=0):
    """An id -> value table, the ids, and the values if ``values`` is None,
    drawn from one of _ID_RANGES."""
    n = draw(st.integers(min_size, 30))
    column = (_ids(draw, n, signed=True) if values is None
              else draw(st.lists(values, min_size=n, max_size=n)))
    return dict(zip(_ids(draw, n), column))


@settings(max_examples=60, deadline=None)
@given(assignment=_tables(min_size=1),
       as_arrays=st.booleans())
def test_written_assignments_load_as_the_json_path_reads_them(
        tmp_path_factory, assignment, as_arrays):
    path = tmp_path_factory.mktemp("assign") / "assignment.json"
    ids = np.array(sorted(assignment), dtype=np.int64)
    parts = np.array([assignment[e] for e in ids.tolist()], dtype=np.int64)
    if as_arrays:
        write_assignment(path, ids, parts)
    else:
        save_assignment(path, assignment)
    got, want = _both_paths(read_assignment, path)
    assert got == want == ("ok", _bits((ids, parts)))
    assert _fast(path, "assignment", formats._Row(2)) == _small(ids, parts)


@settings(max_examples=60, deadline=None)
@given(weights=_tables(st.floats(min_value=5e-324, allow_infinity=False)))
def test_written_weights_load_bit_for_bit(tmp_path_factory, weights):
    path = tmp_path_factory.mktemp("weights") / "weights.json"
    save_weights(path, weights)
    got, want = _both_paths(read_weights, path)
    ids = np.array(sorted(weights), dtype=np.int64)
    assert got == want == ("ok", _bits((
        ids, np.array([weights[e] for e in ids.tolist()], dtype=np.float64))))
    assert _fast(path, "weights", formats._Row(2, numbers=True)) == _small(ids)


# Each edit of one number, or of the text around the rows, that the row
# reader must either read exactly as json does or leave to the json path.
_TOKEN_EDITS = {
    "leading zero": lambda t: "-0" + t[1:] if t[:1] == "-" else "0" + t,
    "trailing point": lambda t: t + ".",
    "bare fraction": lambda t: ".5",
    "plus sign": lambda t: "+" + t,
    "2**63": lambda t: str(2**63),
    "-2**63": lambda t: str(-2**63),
    "10**18": lambda t: str(10**18),
    "a float": lambda t: t + ".0" if t.lstrip("-").isdigit() else t,
    "an exponent": lambda t: t + "e0",
    "NaN": lambda t: "NaN",
    "-Infinity": lambda t: "-Infinity",
    "true": lambda t: "true",
    "a string": lambda t: '"1"',
    "minus zero": lambda t: "-0",
    "a lone minus": lambda t: "-",
    "a double minus": lambda t: "--" + t.lstrip("-"),
    "a minus inside": lambda t: t + "-1",
    "no number": lambda t: "",
    "negative": lambda t: "-" + t.lstrip("-"),
    "zero": lambda t: "0",
    "huge float": lambda t: "1e400",
    "tiny float": lambda t: "5e-325",
}
_TEXT_EDITS = ("duplicate id", "CRLF line ends", "an extra space",
               "missing row comma", "row swap", "one line")


def _edit(text: str, edit: str, r: int, f: int) -> str:
    lines = text.split("\n")
    rows = [i for i, ln in enumerate(lines) if ln.lstrip().startswith("[")
            and ln.rstrip(",").endswith("]")]
    if not rows:   # after "one line"
        return text
    i = rows[r % len(rows)]
    head, row = lines[i][:len(lines[i]) - len(lines[i].lstrip())], \
        lines[i].strip()
    comma = row.endswith(",")
    fields = row.rstrip(",")[1:-1].split(", ")
    f %= len(fields)
    if edit in _TOKEN_EDITS:
        if fields[f].startswith('"'):   # an element's kind
            fields[f] = _TOKEN_EDITS[edit]("1")
        else:
            fields[f] = _TOKEN_EDITS[edit](fields[f])
    elif edit == "duplicate id":
        other = lines[rows[(r + 1) % len(rows)]].strip().rstrip(",")
        fields[0] = other[1:-1].split(", ")[0]
    elif edit == "CRLF line ends":
        return text.replace("\n", "\r\n")
    elif edit == "an extra space":
        fields[f] = " " + fields[f]
    elif edit == "missing row comma":
        comma = False
    elif edit == "row swap":
        j = rows[(r + 1) % len(rows)]
        lines[i], lines[j] = lines[j], lines[i]
        return "\n".join(lines)
    elif edit == "one line":
        try:
            return json.dumps(json.loads(text))
        except ValueError:
            return text
    lines[i] = head + "[" + ", ".join(fields) + "]" + ("," if comma else "")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def canonical(tmp_path_factory):
    d = tmp_path_factory.mktemp("canonical")
    save_mesh(d / "tri.json", triangle_grid(2, 2))
    save_mesh(d / "tet.json", tet_box(1, 1, 1))
    save_assignment(d / "assignment.json", {e: e % 3 for e in range(9)})
    save_weights(d / "weights.json", {e: 1.5 + e for e in range(9)})
    return {name: (d / f"{name}.json").read_text()
            for name in ("tri", "tet", "assignment", "weights")}


_LOADERS = {"tri": load_mesh, "tet": load_mesh,
            "assignment": read_assignment, "weights": read_weights}


@settings(max_examples=400, deadline=None)
@given(doc=st.sampled_from(sorted(_LOADERS)),
       edits=st.lists(st.tuples(st.sampled_from(sorted(_TOKEN_EDITS)
                                                + list(_TEXT_EDITS)),
                                st.integers(0, 60), st.integers(0, 6)),
                      min_size=1, max_size=2))
def test_edited_documents_load_as_the_json_path_reads_them(
        tmp_path_factory, canonical, doc, edits):
    text = canonical[doc]
    for edit, r, f in edits:
        text = _edit(text, edit, r, f)
    path = tmp_path_factory.mktemp("edited") / "doc.json"
    path.write_text(text, newline="")
    got, want = _both_paths(_LOADERS[doc], path)
    assert got == want


@pytest.mark.parametrize("edit", sorted(_TOKEN_EDITS) + list(_TEXT_EDITS))
@pytest.mark.parametrize("doc", sorted(_LOADERS))
def test_each_edit_loads_as_the_json_path_reads_it(tmp_path, canonical, doc,
                                                   edit):
    # Every edit on every document at least once, on an id and a value.
    for f in (0, 2):
        path = tmp_path / f"doc{f}.json"
        path.write_text(_edit(canonical[doc], edit, 3, f), newline="")
        got, want = _both_paths(_LOADERS[doc], path)
        assert got == want


def _payload_documents(d, mesh):
    """save_mesh's and save_part's documents, and dump_doc's renderings
    of their payloads."""
    halo = [(1, (4, 5), "intranode"), (7, [], "internode")]
    save_mesh(d / "mesh.json", mesh)
    dump_doc(d / "mesh_payload.json", "mesh", mesh_payload(mesh))
    save_part(d / "part.json", 3, mesh, halo)
    dump_doc(d / "part_payload.json", "part", {
        "rank": 3, "mesh": mesh_payload(mesh),
        "halo": [{"rank": r, "channel": c, "nodes": list(n)}
                 for r, n, c in halo]})
    return [(d / f"{name}.json").read_bytes()
            for name in ("mesh", "mesh_payload", "part", "part_payload")]


@settings(max_examples=40, deadline=None)
@given(mesh=_meshes())
def test_mesh_and_part_rows_render_as_the_payload_does(tmp_path_factory,
                                                       mesh):
    mesh_doc, mesh_want, part_doc, part_want = _payload_documents(
        tmp_path_factory.mktemp("payload"), mesh)
    assert mesh_doc == mesh_want
    assert part_doc == part_want


def test_non_finite_and_empty_rows_render_as_the_payload_does(tmp_path):
    mesh = triangle_grid(2, 1)
    coords = mesh.coords * 1e-300 - 0.0
    coords[0, 0], coords[1, 1], coords[2, 0] = np.nan, np.inf, -np.inf
    odd = replace(mesh, coords=coords)
    bare = replace(mesh, boundary_tags=mesh.boundary_tags[:0],
                   boundary_conn=mesh.boundary_conn[:0])
    for chunk in (odd, bare, MeshChunk.empty("tetrahedron")):
        mesh_doc, mesh_want, part_doc, part_want = _payload_documents(
            tmp_path, chunk)
        assert mesh_doc == mesh_want
        assert part_doc == part_want


# -- the json.load path against the column-era readers ----------------------------

_RECORD_LOADERS = {"assignment": (read_assignment, dict_era.read_assignment),
                   "weights": (read_weights, dict_era.read_weights),
                   "timing": (load_timing, dict_era.load_timing)}
# What an edit may put in place of a field, an id or a whole record:
# bools, floats where ids go, integers beyond int64 and float64, and other
# JSON values.
_FIELD_VALUES = st.sampled_from([
    True, False, 1.5, 2.0, -0.0, 2**63, -2**63 - 1, 10**18, 10**400,
    -10**400, 1e308, float("nan"), float("-inf"), "1", None, [], {}, 0, -1])
_RECORD_EDITS = st.tuples(
    st.sampled_from(["field", "id", "record", "missing key", "extra key",
                     "duplicate id", "row swap"]),
    st.integers(0, 30), st.integers(0, 4), _FIELD_VALUES)
# Edits of the document text: a _TOKEN_EDITS edit of one number, or one of
# _TEXT_EDITS.  The text is one line, so "one line" leaves it as it is.
_LINE_EDITS = st.tuples(
    st.sampled_from(sorted(_TOKEN_EDITS) + list(_TEXT_EDITS)),
    st.integers(0, 60))
_NUMBER_TOKENS = re.compile(r'"[^"]*"|(-?[0-9][0-9.eE+-]*)')


@st.composite
def _record_documents(draw):
    """(kind, records) of an assignment, weights or timing document."""
    kind = draw(st.sampled_from(sorted(_RECORD_LOADERS)))
    ids = _ids(draw, draw(st.integers(0, 8)))
    if kind == "assignment":
        return kind, [[e, draw(st.integers(-3, 40))] for e in ids]
    if kind == "weights":
        return kind, [[e, draw(st.floats(1e-3, 1e3) | st.integers(1, 9))]
                      for e in ids]
    cuts = sorted(draw(st.lists(st.integers(0, len(ids)), max_size=3)))
    blocks = [ids[a:b] for a, b in zip([0, *cuts], [*cuts, len(ids)])]
    return kind, [{"elems": block, "seconds": draw(st.floats(0, 10))}
                  for block in blocks]


def _edit_record(records, edit):
    kind, r, f, value = edit
    if not records:
        return
    r %= len(records)
    rec, other = records[r], records[(r + 1) % len(records)]
    value = copy.deepcopy(value)
    if kind == "record":
        records[r] = value
    elif kind == "row swap":
        records[r], records[(r + 1) % len(records)] = other, rec
    elif not (isinstance(rec, (list, dict)) and rec):
        return
    elif kind in ("field", "missing key"):
        field = sorted(rec)[f % len(rec)] if isinstance(rec, dict) \
            else f % len(rec)
        if kind == "field":
            rec[field] = value
        else:
            del rec[field]
    elif kind == "extra key":
        if isinstance(rec, dict):
            rec["x"] = value
        else:
            rec.append(value)
    else:   # "id" or "duplicate id": a record's id, or one of a block's
        at = 0
        if isinstance(rec, dict):
            rec = rec.get("elems")
            other = other.get("elems") if isinstance(other, dict) else None
            at = f % len(rec) if isinstance(rec, list) and rec else 0
        if not (isinstance(rec, list) and rec):
            return
        if kind == "id":
            rec[at] = value
        elif isinstance(other, list) and other:
            rec[at] = other[0]


def _edit_line(text: str, edit) -> str:
    name, k = edit
    if name in _TOKEN_EDITS or name == "an extra space":
        numbers = [m for m in _NUMBER_TOKENS.finditer(text) if m.group(1)]
        if not numbers:
            return text
        m = numbers[k % len(numbers)]
        token = (_TOKEN_EDITS[name](m.group(1)) if name in _TOKEN_EDITS
                 else " " + m.group(1))
        return text[:m.start()] + token + text[m.end():]
    if name == "CRLF line ends":
        return text.replace(", ", ",\r\n")
    if name == "missing row comma":
        gaps = [m.start() for m in re.finditer(r"[\]}], [\[{]", text)]
        if gaps:
            at = gaps[k % len(gaps)] + 1
            return text[:at] + text[at + 1:]
    return text   # "one line"; "duplicate id" and "row swap" edit records


def _read_outcome(load, path):
    try:
        got = load(path)
    except FormatError as err:
        return "error", str(err)
    return "ok", got if isinstance(got, list) else _bits(got)


def _overflows(value) -> bool:
    try:
        float(value)
    except OverflowError:
        return True
    return False


@settings(max_examples=400, deadline=None)
@example(doc=("timing", [{"elems": [0], "seconds": 1.0}]),
         record_edits=[("field", 0, 1, 10**400)], line_edits=[])
@given(doc=_record_documents(), record_edits=st.lists(_RECORD_EDITS,
                                                       max_size=3),
       line_edits=st.lists(_LINE_EDITS, max_size=2))
def test_one_line_documents_load_as_the_column_era_readers_did(
        tmp_path_factory, doc, record_edits, line_edits):
    kind, records = doc
    for edit in record_edits:
        _edit_record(records, edit)
    text = json.dumps({"schema": SCHEMA, kind: records})
    for edit in line_edits:
        text = _edit_line(text, edit)
    path = tmp_path_factory.mktemp("one-line") / f"{kind}.json"
    path.write_text(text, newline="")
    load, oracle = _RECORD_LOADERS[kind]
    got = _read_outcome(load, path)
    try:
        want = _read_outcome(oracle, path)
    except OverflowError:
        # The column-era timing reader raised on seconds beyond float64, in
        # the first record whose seconds it read but could not convert.
        assert kind == "timing"
        i = next(i for i, rec in enumerate(json.loads(text)["timing"])
                 if _overflows(rec["seconds"]))
        want = "error", (f"{path}: timing record {i}: seconds beyond the "
                         f"float64 range")
    assert got == want

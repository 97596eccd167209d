"""Document round-trips, schema checks, and the byte-stable renderer."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpart.formats import (SCHEMA, FormatError, _render, dump_doc,
                              load_assignment, load_mesh, load_timing,
                              load_topology, load_weights, mesh_from_payload,
                              mesh_payload, save_assignment, save_mesh,
                              save_part, save_report, save_timing,
                              save_topology, save_weights)
from hierpart.mesh import KINDS
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

"""End-to-end CLI runs: outputs, exit codes, and byte determinism."""

from __future__ import annotations

import csv
import gc
import json
from pathlib import Path

import pytest

from hierpart.cli import _GC_GEN0_THRESHOLD, main
from hierpart.formats import (load_assignment, load_mesh, load_topology,
                              save_assignment, save_mesh, save_timing,
                              save_topology, save_weights)
from hierpart.meshgen import triangle_grid
from hierpart.topology import build_topology


@pytest.fixture()
def inputs(tmp_path):
    mesh = triangle_grid(8, 8)
    mesh_path = tmp_path / "mesh.json"
    topo_path = tmp_path / "topo.json"
    save_mesh(mesh_path, mesh)
    save_topology(topo_path, build_topology([("node", 2), ("core", 2)]))
    return {"mesh": mesh, "mesh_path": mesh_path, "topo_path": topo_path,
            "tmp": tmp_path}


def run_partition(inputs, out, extra=()):
    return main(["partition", "--mesh", str(inputs["mesh_path"]),
                 "--topo", str(inputs["topo_path"]), "--out", str(out),
                 "--no-timestamp", *extra])


def test_partition_writes_all_outputs(inputs, capsys):
    out = inputs["tmp"] / "run"
    assert run_partition(inputs, out) == 0
    printed = capsys.readouterr().out
    assert "partitioned 128 elements into 4 parts" in printed

    assignment = load_assignment(out / "assignment.json")
    assert sorted(assignment) == sorted(inputs["mesh"].elements)
    assert set(assignment.values()) == {0, 1, 2, 3}

    report = json.loads((out / "report.json").read_text())["report"]
    assert report["config"]["command"] == "partition"
    assert report["config"]["method"] == "rcb"
    assert "timestamp" not in report
    assert report["quality"]["element_imbalance"] <= 1.02 + 1e-9
    assert report["traffic"]["total_messages"] > 0

    rows = list(csv.reader((out / "levels.csv").read_text().splitlines()))
    assert rows[0] == ["level", "bytes", "seconds_proxy"]
    assert {r[0] for r in rows[1:]} >= {"bootstrap", "collect"}

    for rank in range(4):
        part = json.loads((out / f"part-{rank:04d}.json").read_text())["part"]
        assert part["rank"] == rank
        assert part["mesh"]["elements"]


def test_partition_deterministic_across_seeds(inputs):
    outs = []
    for seed in ("0", "3", "11", "42", "97"):
        out = inputs["tmp"] / f"seed{seed}"
        assert run_partition(inputs, out, ("--seed", seed)) == 0
        outs.append((out / "assignment.json").read_bytes()
                    + (out / "report.json").read_bytes()
                    + (out / "levels.csv").read_bytes())
    assert len(set(outs)) == 1


def test_partition_graph_method(inputs, capsys):
    out = inputs["tmp"] / "graph"
    assert run_partition(inputs, out, ("--method", "graph")) == 0
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["config"]["method"] == "graph"
    assert report["quality"]["edge_cut"] > 0


def test_partition_method_list_and_approach(inputs):
    out = inputs["tmp"] / "mixed"
    code = run_partition(inputs, out,
                         ("--method", "graph,rcb", "--approach", "1"))
    assert code == 0
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["config"]["method"] == ["graph", "rcb"]
    assert report["config"]["approach"] == 1


def test_rebalance_flow(inputs, capsys):
    out1 = inputs["tmp"] / "first"
    assert run_partition(inputs, out1) == 0

    # Skew the weights: elements on rank 0 cost 4x.
    assignment = load_assignment(out1 / "assignment.json")
    weights = {e: (4.0 if p == 0 else 1.0) for e, p in assignment.items()}
    wpath = inputs["tmp"] / "weights.json"
    save_weights(wpath, weights)

    out2 = inputs["tmp"] / "second"
    code = main(["rebalance", "--mesh", str(inputs["mesh_path"]),
                 "--topo", str(inputs["topo_path"]),
                 "--assignment", str(out1 / "assignment.json"),
                 "--level", "0", "--weights", str(wpath),
                 "--out", str(out2), "--no-timestamp"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "rebalanced level 0" in printed

    report = json.loads((out2 / "report.json").read_text())["report"]
    rb = report["rebalance"]
    assert rb["imbalance_after"] < rb["imbalance_before"]
    assert 0 < rb["moved_elements"] <= rb["elements"]

    rows = list(csv.reader((out2 / "balance.csv").read_text().splitlines()))
    assert rows[0] == ["partition", "pre", "post"]
    assert len(rows) == 5
    post = [float(r[2]) for r in rows[1:]]
    assert max(post) < max(float(r[1]) for r in rows[1:])


def test_rebalance_balanced_input_moves_nothing(inputs):
    out1 = inputs["tmp"] / "base"
    assert run_partition(inputs, out1) == 0
    out2 = inputs["tmp"] / "noop"
    code = main(["rebalance", "--mesh", str(inputs["mesh_path"]),
                 "--topo", str(inputs["topo_path"]),
                 "--assignment", str(out1 / "assignment.json"),
                 "--level", "0", "--out", str(out2), "--no-timestamp"])
    assert code == 0
    report = json.loads((out2 / "report.json").read_text())["report"]
    assert report["rebalance"]["moved_elements"] == 0
    assert load_assignment(out2 / "assignment.json") == \
        load_assignment(out1 / "assignment.json")


def test_rebalance_with_timing_input(inputs):
    out1 = inputs["tmp"] / "base"
    assert run_partition(inputs, out1) == 0
    assignment = load_assignment(out1 / "assignment.json")
    by_rank: dict[int, list[int]] = {}
    for e, p in assignment.items():
        by_rank.setdefault(p, []).append(e)
    blocks = [(sorted(eids), 2.0 if p == 0 else 0.5)
              for p, eids in sorted(by_rank.items())]
    tpath = inputs["tmp"] / "timing.json"
    save_timing(tpath, blocks)

    out2 = inputs["tmp"] / "timed"
    code = main(["rebalance", "--mesh", str(inputs["mesh_path"]),
                 "--topo", str(inputs["topo_path"]),
                 "--assignment", str(out1 / "assignment.json"),
                 "--level", "0", "--timing", str(tpath),
                 "--out", str(out2), "--no-timestamp"])
    assert code == 0
    report = json.loads((out2 / "report.json").read_text())["report"]
    assert report["rebalance"]["imbalance_after"] < \
        report["rebalance"]["imbalance_before"]


def test_metrics_flow(inputs, capsys):
    out1 = inputs["tmp"] / "base"
    assert run_partition(inputs, out1) == 0
    out2 = inputs["tmp"] / "metrics"
    code = main(["metrics", "--mesh", str(inputs["mesh_path"]),
                 "--topo", str(inputs["topo_path"]),
                 "--assignment", str(out1 / "assignment.json"),
                 "--out", str(out2), "--no-timestamp"])
    assert code == 0
    assert "metrics for 128 elements" in capsys.readouterr().out
    report = json.loads((out2 / "report.json").read_text())["report"]
    assert report["config"]["command"] == "metrics"
    assert report["quality"]["edge_cut"] > 0
    assert report["comm"]["pairs"]
    assert not (out2 / "assignment.json").exists()


def test_metrics_single_part_zero_cut(tmp_path):
    mesh = triangle_grid(2, 2)
    save_mesh(tmp_path / "mesh.json", mesh)
    save_topology(tmp_path / "topo.json", build_topology([("node", 1)]))
    save_assignment(tmp_path / "assign.json", {e: 0 for e in mesh.elements})
    out = tmp_path / "out"
    code = main(["metrics", "--mesh", str(tmp_path / "mesh.json"),
                 "--topo", str(tmp_path / "topo.json"),
                 "--assignment", str(tmp_path / "assign.json"),
                 "--out", str(out), "--no-timestamp"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())["report"]
    assert report["quality"]["edge_cut"] == 0
    assert report["comm"]["imbalance"] == 1.0
    assert report["comm"]["pairs"] == []


# -- failure paths ------------------------------------------------------------------


def test_usage_errors_exit_1(inputs, capsys):
    assert main(["partition", "--mesh", str(inputs["mesh_path"])]) == 1
    assert "usage error" in capsys.readouterr().err

    out = inputs["tmp"] / "x"
    assert run_partition(inputs, out, ("--method", "spectral")) == 1
    assert run_partition(inputs, out, ("--approach", "7")) == 1

    wpath = inputs["tmp"] / "weights.json"
    save_weights(wpath, {0: 1.0})
    tpath = inputs["tmp"] / "timing.json"
    save_timing(tpath, [([0], 1.0)])
    code = run_partition(inputs, out,
                         ("--weights", str(wpath), "--timing", str(tpath)))
    assert code == 1


def test_bad_inputs_exit_2(inputs, capsys, tmp_path):
    out = inputs["tmp"] / "x"
    code = main(["partition", "--mesh", str(tmp_path / "missing.json"),
                 "--topo", str(inputs["topo_path"]), "--out", str(out)])
    assert code == 2
    assert "input error" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code = main(["partition", "--mesh", str(broken),
                 "--topo", str(inputs["topo_path"]), "--out", str(out)])
    assert code == 2

    # Too few elements for the rank count.
    tiny = tmp_path / "tiny.json"
    save_mesh(tiny, triangle_grid(1, 1))
    save_topology(tmp_path / "topo8.json",
                  build_topology([("node", 8)]))
    code = main(["partition", "--mesh", str(tiny),
                 "--topo", str(tmp_path / "topo8.json"), "--out", str(out)])
    assert code == 2

    # Assignment referencing ranks beyond the topology.
    save_assignment(tmp_path / "assign.json",
                    {e: 9 for e in inputs["mesh"].elements})
    code = main(["metrics", "--mesh", str(inputs["mesh_path"]),
                 "--topo", str(inputs["topo_path"]),
                 "--assignment", str(tmp_path / "assign.json"),
                 "--out", str(out)])
    assert code == 2

    # Incomplete weights.
    wpath = tmp_path / "short_weights.json"
    save_weights(wpath, {0: 1.0})
    code = run_partition(inputs, out, ("--weights", str(wpath)))
    assert code == 2


def _edit_mesh(inputs, edit):
    """Write a copy of the fixture mesh with ``edit`` applied to its payload."""
    doc = json.loads(inputs["mesh_path"].read_text())
    edit(doc["mesh"])
    path = inputs["tmp"] / "edited_mesh.json"
    path.write_text(json.dumps(doc))
    return path


def _repeat_element(mesh):
    mesh["elements"][5][0] = mesh["elements"][4][0]


def _negative_element(mesh):
    mesh["elements"][5][0] = -3


def _repeat_node(mesh):
    mesh["nodes"][7][0] = mesh["nodes"][6][0]


def _negative_node(mesh):
    old = mesh["nodes"][7][0]
    mesh["nodes"][7][0] = -1
    for rec in mesh["elements"]:
        rec[2:] = [-1 if n == old else n for n in rec[2:]]


def _fractional_element(mesh):
    mesh["elements"][0][0] = 0.9
    mesh["elements"][0][4] = str(mesh["elements"][0][4])


def _boolean_element(mesh):
    mesh["elements"][1][0] = True


def _string_element_node(mesh):
    mesh["elements"][3][4] = str(mesh["elements"][3][4])


def _float_node(mesh):
    mesh["nodes"][2][0] = 2.0


def _string_boundary_node(mesh):
    mesh["boundary"][1][2] = str(mesh["boundary"][1][2])


def _string_coordinate(mesh):
    mesh["nodes"][4][1] = "0.5"


def _element_object(mesh):
    mesh["elements"] = {str(rec[0]): rec[1:] for rec in mesh["elements"]}


def _unheld_boundary_face(mesh):
    # Triangles (0, 1, 10) and (0, 10, 9) share the diagonal (0, 10); the
    # other diagonal is a face of neither.
    mesh["boundary"][0] = [1, 1, 9]


@pytest.mark.parametrize("edit, message", [
    (_repeat_element, "element record 5: duplicate element id 4"),
    (_negative_element, "element record 5: negative element id -3"),
    (_repeat_node, "node record 7: duplicate node id 6"),
    (_negative_node, "node record 7: negative node id -1"),
    (_fractional_element, "element record 0: element id must be an integer, "
                          "got 0.9"),
    (_boolean_element, "element record 1: element id must be an integer, "
                       "got True"),
    (_string_element_node, "element record 3: node ids must be integers"),
    (_float_node, "node record 2: node id must be an integer, got 2.0"),
    (_string_boundary_node,
     "boundary record 1: tag and node ids must be integers"),
    (_string_coordinate, "node record 4: coordinates must be numbers"),
    (_element_object, "element records must be a list"),
    (_unheld_boundary_face,
     "boundary face (1, 9) (tag 1) has no local containing element"),
])
def test_bad_mesh_ids_exit_2_naming_the_record(inputs, capsys, edit, message):
    mesh_path = _edit_mesh(inputs, edit)
    code = main(["partition", "--mesh", str(mesh_path),
                 "--topo", str(inputs["topo_path"]),
                 "--out", str(inputs["tmp"] / "x")])
    assert code == 2
    assert f"input error: {mesh_path}: {message}" in capsys.readouterr().err


def _weights_with_unknown(elements):
    return [[e, 1.0] for e in elements] + [[999999, 1.0]]


def _timing_with_unknown(elements):
    return [{"elems": list(elements), "seconds": 1.0},
            {"elems": [999999], "seconds": 1.0}]


@pytest.mark.parametrize("records, message", [
    ([[0, float("nan")]], "weight record 0: non-finite weight nan"),
    ([[0, 1.0], [1, float("inf")]], "weight record 1: non-finite weight inf"),
    ([[0, 1.0], [1, 2.0], [0, 3.0]], "weight record 2: element 0 weighted twice"),
    (_weights_with_unknown, "weights given for unknown elements [999999]"),
    (_timing_with_unknown, "timing data given for unknown elements [999999]"),
    ([{"elems": [0], "seconds": float("nan")}],
     "timing record 0: non-finite seconds nan"),
    ([{"elems": [0], "seconds": 1.0}, {"elems": [1], "seconds": float("inf")}],
     "timing record 1: non-finite seconds inf"),
    ([[0, 1.0], [1.5, 1.0]],
     "weight record 1: element id must be an integer, got 1.5"),
    ([[False, 1.0]], "weight record 0: element id must be an integer, got False"),
    ([[0, "1.0"]], "weight record 0: weight must be a number, got '1.0'"),
    ([{"elems": [0, 1.0], "seconds": 1.0}],
     "timing record 0: elems must be a list of integer element ids"),
    ([{"elems": [0], "seconds": None}],
     "timing record 0: seconds must be a number, got None"),
    ([{"elems": [], "seconds": 1.0}], "timing block 0 lists no elements"),
    ([{"elems": list(range(128)), "seconds": 1.0},
      {"elems": [], "seconds": -1.0}], "timing block 1 lists no elements"),
    ([{"elems": list(range(128)), "seconds": -1.0}],
     "timing block 0 has negative time -1.0"),
    ([{"elems": list(range(128)), "seconds": 1.0},
      {"elems": [5], "seconds": 1.0}],
     "element 5 appears in more than one timing block"),
    ([{"elems": list(range(3, 128)), "seconds": 1.0}],
     "no timing data for elements [0, 1, 2]"),
    ([{"elems": list(range(100, 128)), "seconds": 1.0}],
     "no timing data for elements [0, 1, 2, 3, 4]..."),
    ([[e, 1.0] for e in range(1, 128)], "weights missing for elements [0]"),
    ([[e, 1.0] for e in range(120)],
     "weights missing for elements [120, 121, 122, 123, 124]..."),
])
def test_bad_weight_records_exit_2_naming_the_record(inputs, capsys, records,
                                                     message):
    # A callable builds its records from the mesh's element ids; timing
    # blocks go through --timing, plain records through --weights.
    if callable(records):
        records = records(sorted(inputs["mesh"].elements))
    kind = "timing" if isinstance(records[0], dict) else "weights"
    path = inputs["tmp"] / f"{kind}.json"
    path.write_text(json.dumps({"schema": "treepart-1", kind: records}))
    code = run_partition(inputs, inputs["tmp"] / "x", (f"--{kind}", str(path)))
    assert code == 2
    # Every message names the file it is about.
    assert f"input error: {path}: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("record, message", [
    ([0.5, 0], "assignment record 3: element and part must be integers, "
               "got [0.5, 0]"),
    ([3, 1.0], "assignment record 3: element and part must be integers, "
               "got [3, 1.0]"),
    ([3, True], "assignment record 3: element and part must be integers"),
    ([3, "1"], "assignment record 3: element and part must be integers"),
    ([3], "assignment record 3: expected [element, part]"),
    ([2, 0], "assignment record 3: element 2 assigned twice"),
])
def test_bad_assignment_records_exit_2_naming_the_record(inputs, capsys,
                                                         record, message):
    records = [[e, e % 4] for e in sorted(inputs["mesh"].elements)]
    records[3] = record
    path = inputs["tmp"] / "assignment.json"
    path.write_text(json.dumps({"schema": "treepart-1",
                                "assignment": records}))
    code = main(["metrics", "--mesh", str(inputs["mesh_path"]),
                 "--topo", str(inputs["topo_path"]), "--assignment", str(path),
                 "--out", str(inputs["tmp"] / "x")])
    assert code == 2
    assert message in capsys.readouterr().err


def _without_element_0(records):
    return records[1:]


def _with_unknown_element(records):
    return records + [[999, 0]]


def _with_rank_beyond_the_tree(records):
    records[3] = [3, 4]
    return records


@pytest.mark.parametrize("verb", [["rebalance", "--level", "0"], ["metrics"]])
@pytest.mark.parametrize("edit, message", [
    (_without_element_0,
     "assignment does not match mesh elements (missing [0], unknown [])"),
    (_with_unknown_element,
     "assignment does not match mesh elements (missing [], unknown [999])"),
    (_with_rank_beyond_the_tree,
     "element 3 assigned to rank 4, but the topology has 4 ranks"),
])
def test_assignment_off_the_mesh_or_tree_exits_2_naming_the_file(
        inputs, capsys, verb, edit, message):
    records = edit([[e, e % 4] for e in sorted(inputs["mesh"].elements)])
    path = inputs["tmp"] / "assignment.json"
    path.write_text(json.dumps({"schema": "treepart-1",
                                "assignment": records}))
    code = main([*verb, "--mesh", str(inputs["mesh_path"]),
                 "--topo", str(inputs["topo_path"]), "--assignment", str(path),
                 "--out", str(inputs["tmp"] / "x")])
    assert code == 2
    assert f"input error: {path}: {message}" in capsys.readouterr().err


def test_gc_threshold_raised_for_the_verb_and_restored(inputs, monkeypatch):
    seen = []
    monkeypatch.setattr("hierpart.cli.load_topology", lambda path: (
        seen.append(gc.get_threshold()) or load_topology(path)))
    before = gc.get_threshold()
    out = inputs["tmp"] / "x"
    assert run_partition(inputs, out) == 0                      # success
    assert gc.get_threshold() == before
    assert seen == [(_GC_GEN0_THRESHOLD, *before[1:])]
    assert run_partition(inputs, out, ("--method", "spectral")) == 1  # usage
    assert gc.get_threshold() == before
    assert run_partition(inputs, out, ("--bpl", "9")) == 2      # input
    assert gc.get_threshold() == before


@pytest.mark.parametrize("method", ["rcb", "graph"])
@pytest.mark.parametrize("approach", ["1", "2"])
def test_skewed_weights_leave_no_rank_empty(tmp_path, method, approach):
    # Two elements at 1000x the rest: every split must still leave each
    # child group at least one element per leaf below it.
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    mesh = load_mesh(fixtures / "demo_mesh.json")
    weights = tmp_path / "weights.json"
    save_weights(weights, {e: (1000.0 if e in (0, 1) else 1.0)
                           for e in mesh.elements})
    out = tmp_path / "out"
    code = main(["partition", "--mesh", str(fixtures / "demo_mesh.json"),
                 "--topo", str(fixtures / "topo_2x2x2.json"),
                 "--weights", str(weights), "--method", method,
                 "--approach", approach, "--out", str(out), "--no-timestamp"])
    assert code == 0
    assignment = load_assignment(out / "assignment.json")
    assert sorted(assignment) == sorted(mesh.elements)
    assert sorted(set(assignment.values())) == list(range(8))


@pytest.mark.parametrize("verb", ["partition", "rebalance"])
@pytest.mark.parametrize("tolerance", ["nan", "inf", "0.5"])
def test_bad_tolerance_exits_2(inputs, capsys, verb, tolerance):
    args = [verb, "--mesh", str(inputs["mesh_path"]),
            "--topo", str(inputs["topo_path"]),
            "--out", str(inputs["tmp"] / "x"), "--tolerance", tolerance]
    if verb == "rebalance":
        start = inputs["tmp"] / "start.json"
        save_assignment(start, {e: e % 4 for e in inputs["mesh"].elements})
        args += ["--assignment", str(start), "--level", "0"]
    assert main(args) == 2
    assert (f"tolerance must be a finite number >= 1.0, got {float(tolerance)}"
            in capsys.readouterr().err)


def test_bad_level_exits_2(inputs):
    out1 = inputs["tmp"] / "base"
    assert run_partition(inputs, out1) == 0
    code = main(["rebalance", "--mesh", str(inputs["mesh_path"]),
                 "--topo", str(inputs["topo_path"]),
                 "--assignment", str(out1 / "assignment.json"),
                 "--level", "9", "--out", str(inputs["tmp"] / "x")])
    assert code == 2


@pytest.mark.parametrize("verb, flag", [("partition", "--bpl"),
                                        ("rebalance", "--level")])
@pytest.mark.parametrize("value", ["2", "-1"])
def test_level_outside_the_tree_is_named_by_its_flag(inputs, capsys,
                                                     monkeypatch, verb, flag,
                                                     value):
    # The tree's one level check runs before the ranks start.
    def no_run(*args, **kwargs):
        raise AssertionError("runtime started")

    monkeypatch.setattr("hierpart.cli.Runtime", no_run)
    args = [verb, "--mesh", str(inputs["mesh_path"]),
            "--topo", str(inputs["topo_path"]),
            "--out", str(inputs["tmp"] / "x"), flag, value]
    if verb == "rebalance":
        start = inputs["tmp"] / "start.json"
        save_assignment(start, {e: e % 4 for e in inputs["mesh"].elements})
        args += ["--assignment", str(start)]
    assert main(args) == 2
    assert capsys.readouterr().err == \
        f"input error: {flag} {value} outside 0..1\n"


def test_timestamp_present_by_default(inputs):
    out = inputs["tmp"] / "stamped"
    code = main(["partition", "--mesh", str(inputs["mesh_path"]),
                 "--topo", str(inputs["topo_path"]), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())["report"]
    assert "timestamp" in report


@pytest.mark.parametrize("payload, message", [
    (5, "topology must be an object with a 'levels' list or a list of "
        "[name, arity] pairs, got int"),
    ("node", "topology must be an object with a 'levels' list or a list of "
             "[name, arity] pairs, got str"),
    ([["node"]], "topology level 0 must be a [name, arity] pair, "
                 "got ['node']"),
], ids=["number", "string", "short-pair"])
def test_bad_topology_shape_exits_2_naming_it(inputs, capsys, payload,
                                              message):
    topo = inputs["tmp"] / "bad_topo.json"
    topo.write_text(json.dumps({"schema": "treepart-1", "topology": payload}))
    code = main(["partition", "--mesh", str(inputs["mesh_path"]),
                 "--topo", str(topo), "--out", str(inputs["tmp"] / "x")])
    assert code == 2
    assert f"{topo}: {message}" in capsys.readouterr().err


def test_method_list_longer_than_the_hierarchy_exits_2(inputs, capsys):
    # The 2x2 tree makes two splits from the root: a third entry is an
    # error, while a single entry repeats for every split.
    out = inputs["tmp"] / "x"
    assert run_partition(inputs, out, ("--method", "graph,rcb,graph")) == 2
    assert ("method lists 3 back-ends, one per split, but the hierarchy "
            "makes only 2\n" in capsys.readouterr().err)
    assert run_partition(inputs, out, ("--method", "graph,rcb,graph",
                                       "--bpl", "1")) == 2
    assert "lists 3 back-ends, one per split, but the hierarchy makes " \
        "only 1\n" in capsys.readouterr().err
    assert run_partition(inputs, out, ("--method", "graph,rcb")) == 0
    assert run_partition(inputs, out, ("--method", "graph")) == 0


@pytest.mark.parametrize("verb", ["partition", "rebalance", "metrics"])
@pytest.mark.parametrize("cost", ["0", "nan", "2"])
def test_bad_cost_intra_exits_2_before_the_run(inputs, capsys, monkeypatch,
                                               verb, cost):
    runs = []
    monkeypatch.setattr("hierpart.cli.Runtime.run",
                        lambda self, program: runs.append(program))
    args = [verb, "--mesh", str(inputs["mesh_path"]),
            "--topo", str(inputs["topo_path"]),
            "--out", str(inputs["tmp"] / "x"), "--cost-intra", cost]
    if verb != "partition":
        start = inputs["tmp"] / "start.json"
        save_assignment(start, {e: e % 4 for e in inputs["mesh"].elements})
        args += ["--assignment", str(start)]
    if verb == "rebalance":
        args += ["--level", "0"]
    assert main(args) == 2
    assert (f"need 0 < intranode <= internode, got intranode={float(cost)}"
            in capsys.readouterr().err)
    assert runs == []
    assert not (inputs["tmp"] / "x").exists()


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_coordinate_exits_2_naming_the_node(tmp_path, capsys,
                                                       value):
    # json reads NaN, Infinity and -Infinity as floats; a part file must
    # never carry them.
    doc = json.loads((FIXTURES / "demo_mesh.json").read_text())
    doc["mesh"]["nodes"][1][2] = value
    mesh_path = tmp_path / "mesh.json"
    mesh_path.write_text(json.dumps(doc))
    code = main(["partition", "--mesh", str(mesh_path),
                 "--topo", str(FIXTURES / "topo_2x2x2.json"),
                 "--out", str(tmp_path / "out"), "--no-timestamp"])
    assert code == 2
    assert (f"node record 1: coordinates must be finite, got [1.0, {value}]"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def _huge_element_id(mesh):
    mesh["elements"][6][0] = 2**63


def _huge_node_id(mesh):
    mesh["nodes"][3][0] = 2**70


def _huge_tag(mesh):
    mesh["boundary"][2][0] = -2**64


def _huge_element_node(mesh):
    mesh["elements"][4][3] = 2**64


def _huge_coordinate(mesh):
    mesh["nodes"][5][2] = 10**400


@pytest.mark.parametrize("edit, message", [
    (_huge_element_id,
     "element record 6: element id 9223372036854775808 beyond the int64 range"),
    (_huge_node_id,
     "node record 3: node id 1180591620717411303424 beyond the int64 range"),
    (_huge_tag, "boundary record 2: tag -18446744073709551616 beyond the "
                "int64 range"),
    (_huge_element_node, "element 4 references unknown node "
                         "18446744073709551616"),
    (_huge_coordinate, "node record 5: coordinates must be finite"),
], ids=["element-id", "node-id", "tag", "element-node", "coordinate"])
def test_integers_beyond_int64_exit_2_naming_the_record(inputs, capsys, edit,
                                                        message):
    mesh_path = _edit_mesh(inputs, edit)
    code = main(["partition", "--mesh", str(mesh_path),
                 "--topo", str(inputs["topo_path"]),
                 "--out", str(inputs["tmp"] / "x")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_verbs_never_build_record_views(tmp_path, monkeypatch):
    # The verbs read a chunk's arrays only: the per-element dict and tuple
    # views exist for tests and tools.
    from hierpart.mesh import MeshChunk

    def forbidden(self):
        raise AssertionError("a verb built a record view")

    for view in ("elements", "nodes", "boundary"):
        monkeypatch.setattr(MeshChunk, view, property(forbidden))
    mesh = str(FIXTURES / "demo_mesh.json")
    topo = str(FIXTURES / "topo_2x2x2.json")
    weights = tmp_path / "weights.json"
    save_weights(weights, {e: 1.0 + e % 3 for e in range(512)})
    timing = tmp_path / "timing.json"
    save_timing(timing, [(range(b, b + 64), 0.5 + b / 512)
                         for b in range(0, 512, 64)])
    common = ["--mesh", mesh, "--topo", topo, "--no-timestamp"]
    start = tmp_path / "start"
    runs = [["partition", "--out", str(start)]]
    for method in ("rcb", "graph", "graph,rcb"):
        for approach in ("1", "2"):
            runs.append(["partition", "--method", method, "--approach",
                         approach, "--weights", str(weights)])
    runs += [
        ["partition", "--bpl", "1", "--timing", str(timing)],
        ["rebalance", "--assignment", str(start / "assignment.json"),
         "--level", "0", "--weights", str(weights)],
        ["rebalance", "--assignment", str(start / "assignment.json"),
         "--level", "1", "--method", "graph", "--timing", str(timing)],
        ["metrics", "--assignment", str(start / "assignment.json"),
         "--weights", str(weights)],
    ]
    for i, run in enumerate(runs):
        out = [] if "--out" in run else ["--out", str(tmp_path / f"o{i}")]
        assert main([*run, *common, *out]) == 0, run


def test_verbs_never_read_the_dual_graph_mapping_view(tmp_path, monkeypatch):
    # The graph back-end and the quality block read a DualGraph's CSR
    # arrays; its id -> neighbours view exists for tests and tools.
    from hierpart.mesh import DualGraph

    def forbidden(*args):
        raise AssertionError("a verb read the dual graph's mapping view")

    for method in ("__getitem__", "__iter__"):
        monkeypatch.setattr(DualGraph, method, forbidden)
    mesh = str(FIXTURES / "demo_mesh.json")
    topo = str(FIXTURES / "topo_2x2x2.json")
    weights = tmp_path / "weights.json"
    save_weights(weights, {e: 1.0 + (e % 7) / 10 for e in range(512)})
    common = ["--mesh", mesh, "--topo", topo, "--no-timestamp"]
    start = tmp_path / "start"
    assignment = str(start / "assignment.json")
    runs = [["partition", "--method", "graph", "--out", str(start)]]
    for method in ("rcb", "graph", "graph,rcb"):
        for approach in ("1", "2"):
            runs.append(["partition", "--method", method, "--approach",
                         approach, "--weights", str(weights)])
    runs += [["metrics", "--assignment", assignment],
             ["metrics", "--assignment", assignment, "--weights", str(weights)]]
    for level in ("0", "1"):
        runs.append(["rebalance", "--assignment", assignment, "--level", level,
                     "--method", "graph", "--weights", str(weights)])
    for i, run in enumerate(runs):
        out = [] if "--out" in run else ["--out", str(tmp_path / f"o{i}")]
        assert main([*run, *common, *out]) == 0, run


def test_verbs_never_use_the_dict_front_ends(tmp_path, monkeypatch):
    # The verbs read assignments and weights as id-aligned arrays and add
    # loads with the array cores; the dict front-ends exist for callers
    # that hold dicts.  Each front-end is replaced wherever a module holds
    # it.
    import sys

    from hierpart import balance, formats

    def forbidden(*args, **kwargs):
        raise AssertionError("a verb called a dict front-end")

    for home, name in ((formats, "load_assignment"), (formats, "load_weights"),
                       (balance, "imbalance")):
        original = getattr(home, name)
        for module in [m for n, m in sys.modules.items()
                       if n == "hierpart" or n.startswith("hierpart.")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)
    mesh = str(FIXTURES / "demo_mesh.json")
    topo = str(FIXTURES / "topo_2x2x2.json")
    weights = tmp_path / "weights.json"
    save_weights(weights, {e: 1.0 + (e % 7) / 10 for e in range(512)})
    timing = tmp_path / "timing.json"
    save_timing(timing, [(range(b, b + 64), 0.5 + b / 512)
                         for b in range(0, 512, 64)])
    common = ["--mesh", mesh, "--topo", topo, "--no-timestamp"]
    start = tmp_path / "start"
    assignment = str(start / "assignment.json")
    runs = [["partition", "--out", str(start)]]
    for approach in ("1", "2"):
        runs.append(["partition", "--approach", approach,
                     "--weights", str(weights)])
    runs += [["partition", "--timing", str(timing)]]
    for method in ("rcb", "graph"):
        for level in ("0", "1"):
            runs.append(["rebalance", "--assignment", assignment, "--level",
                         level, "--method", method, "--weights", str(weights)])
    runs += [
        ["rebalance", "--assignment", assignment, "--level", "0"],
        ["rebalance", "--assignment", assignment, "--level", "0",
         "--timing", str(timing)],
        ["metrics", "--assignment", assignment],
        ["metrics", "--assignment", assignment, "--weights", str(weights)],
        ["metrics", "--assignment", assignment, "--timing", str(timing)],
    ]
    for i, run in enumerate(runs):
        out = [] if "--out" in run else ["--out", str(tmp_path / f"o{i}")]
        assert main([*run, *common, *out]) == 0, run

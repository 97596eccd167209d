"""End-to-end CLI runs: outputs, exit codes, and byte determinism."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hierpart
from hierpart.cli import main
from hierpart.formats import (load_assignment, load_mesh, save_assignment,
                              save_mesh, save_timing, save_topology,
                              save_weights)
from hierpart.meshgen import tet_box, triangle_grid
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

    start = inputs["tmp"] / "start.json"
    save_assignment(start, {e: e % 4 for e in inputs["mesh"].elements})
    capsys.readouterr()
    assert main(["rebalance", "--mesh", str(inputs["mesh_path"]),
                 "--topo", str(inputs["topo_path"]), "--out", str(out),
                 "--assignment", str(start), "--level", "0",
                 "--method", "rcb,graph"]) == 1
    assert capsys.readouterr().err == (
        "usage error: rebalance takes a single --method\n")


def test_unknown_method_in_a_list_exits_1_with_the_library_message(
        inputs, capsys):
    out = inputs["tmp"] / "x"
    assert run_partition(inputs, out, ("--method", "rcb,metis")) == 1
    assert capsys.readouterr().err == (
        "usage error: unknown method 'metis'; expected one of "
        "('rcb', 'graph')\n")
    assert not out.exists()


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

    # Too few elements for the rank count: the mesh file is named.
    tiny = tmp_path / "tiny.json"
    save_mesh(tiny, triangle_grid(1, 1))
    save_topology(tmp_path / "topo8.json",
                  build_topology([("node", 8)]))
    capsys.readouterr()
    code = main(["partition", "--mesh", str(tiny),
                 "--topo", str(tmp_path / "topo8.json"), "--out", str(out)])
    assert code == 2
    assert (f"input error: {tiny}: mesh has 2 elements; need at least one "
            f"per rank (8)" in capsys.readouterr().err)

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

    # A document that is not UTF-8 text: the file is named.
    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(b"\xff\xfe{\x00}\x00")
    for argv in (
            ["partition", "--mesh", str(garbled)],
            ["metrics", "--mesh", str(inputs["mesh_path"]),
             "--assignment", str(garbled)],
            ["partition", "--mesh", str(inputs["mesh_path"]),
             "--weights", str(garbled)]):
        capsys.readouterr()
        code = main([*argv, "--topo", str(inputs["topo_path"]),
                     "--out", str(out)])
        assert code == 2
        assert f"input error: {garbled}: " in capsys.readouterr().err


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


def _list_kind(mesh):
    mesh["elements"][0][1] = ["triangle"]


def _object_kind(mesh):
    mesh["elements"][0][1] = {"kind": "triangle"}


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
    (_list_kind, "unknown element kind ['triangle']; expected one of "
                 "['tetrahedron', 'triangle']"),
    (_object_kind, "unknown element kind {'kind': 'triangle'}; expected one "
                   "of ['tetrahedron', 'triangle']"),
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
    ([{"elems": [0], "seconds": 1.0}, {"elems": [1], "seconds": 10**400}],
     "timing record 1: seconds beyond the float64 range"),
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
    ([{"elems": [*range(128), 5], "seconds": 1.0}],
     "element 5 repeats in timing block 0"),
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


def _weights_of(weight):
    return lambda elements: [[e, weight] for e in elements]


def _timing_of(seconds):
    return lambda elements: [{"elems": [e], "seconds": seconds}
                             for e in elements]


@pytest.mark.parametrize("method", ["rcb", "graph"])
@pytest.mark.parametrize("records, message", [
    # Each value is finite, but their total is not.
    (_weights_of(1e308), "weights total inf"),
    (_timing_of(1e308), "timing data total inf"),
    # The total, 2^1023, is finite, but an rcb cut's target (the total
    # times the parts on its low side) would not be on 4 ranks.
    (_weights_of(2.0 ** 1016), f"weights total {2.0 ** 1023:g}"),
], ids=["weights-1e308", "timing-1e308", "weights-2^1016"])
def test_a_weight_total_beyond_float64_exits_2(inputs, capsys, method,
                                               records, message):
    records = records(sorted(inputs["mesh"].elements))
    assert len(records) == 2 ** 7
    kind = "timing" if isinstance(records[0], dict) else "weights"
    path = inputs["tmp"] / f"{kind}.json"
    path.write_text(json.dumps({"schema": "treepart-1", kind: records}))
    out = inputs["tmp"] / "x"
    code = run_partition(inputs, out, (f"--{kind}", str(path),
                                       "--method", method))
    assert code == 2
    assert (f"input error: {path}: {message} beyond the float64 range when "
            f"split 4 ways\n") in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("method", ["rcb", "graph"])
def test_a_weight_total_within_float64_when_split_runs_clean(inputs, method):
    # 2^1021 times the 4 ranks is 2^1023, the largest power of two a float64
    # holds; the run must not overflow anywhere.
    path = inputs["tmp"] / "weights.json"
    path.write_text(json.dumps({"schema": "treepart-1", "weights": _weights_of(
        2.0 ** 1014)(sorted(inputs["mesh"].elements))}))
    out = inputs["tmp"] / "x"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_partition(inputs, out, ("--weights", str(path),
                                           "--method", method)) == 0
    report = json.loads((out / "report.json").read_text())["report"]
    assert np.isfinite(report["quality"]["weight_imbalance"])


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


@pytest.mark.parametrize("method", ["rcb", "graph"])
@pytest.mark.parametrize("on_node_1, held", [(set(), 0), ({7}, 1)],
                         ids=["none", "one"])
def test_rebalance_of_a_group_with_fewer_elements_than_ranks_exits_2(
        tmp_path, capsys, method, on_node_1, held):
    # Every element but ``on_node_1`` on rank 0 of topo_2x2: node 1's
    # level-0 group cannot give each of its 2 ranks an element.  metrics
    # takes the same file, and so does a rebalance at the leaf level, whose
    # groups hold one rank each.
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    mesh = load_mesh(fixtures / "demo_mesh.json")
    path = tmp_path / "assignment.json"
    save_assignment(path, {e: (2 if e in on_node_1 else 0)
                           for e in mesh.elements})
    args = ["--mesh", str(fixtures / "demo_mesh.json"),
            "--topo", str(fixtures / "topo_2x2.json"),
            "--assignment", str(path), "--no-timestamp"]
    assert main(["rebalance", *args, "--level", "0", "--method", method,
                 "--out", str(tmp_path / "r0")]) == 2
    assert (f"input error: {path}: level-0 group 1 holds {held} elements "
            f"for its 2 ranks; rebalance needs at least one element per rank"
            in capsys.readouterr().err)
    assert not (tmp_path / "r0").exists()
    assert main(["rebalance", *args, "--level", "1", "--method", method,
                 "--out", str(tmp_path / "r1")]) == 0
    assert main(["metrics", *args, "--out", str(tmp_path / "m")]) == 0


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


@pytest.mark.parametrize("method", ["rcb", "graph"])
@pytest.mark.parametrize("to_wire, back", [
    (lambda ids: ids + 2**40, lambda e: e - 2**40),
    (lambda ids: ids * 2**33, lambda e: e // 2**33),
], ids=["shifted", "scaled"])
def test_far_ids_partition_like_the_plain_demo(tmp_path, method, to_wire,
                                               back):
    # Ids near 2^40 travel as small offsets from a large block minimum;
    # ids spread by 2^33 need the 8-byte offsets.  Neither changes where
    # an element goes.
    mesh = load_mesh(FIXTURES / "demo_mesh.json")
    far = replace(mesh, element_ids=to_wire(mesh.element_ids),
                  conn=to_wire(mesh.conn), node_ids=to_wire(mesh.node_ids),
                  boundary_conn=to_wire(mesh.boundary_conn))
    save_mesh(tmp_path / "far.json", far)
    got = {}
    for name, path in (("plain", FIXTURES / "demo_mesh.json"),
                       ("far", tmp_path / "far.json")):
        assert main(["partition", "--mesh", str(path),
                     "--topo", str(FIXTURES / "topo_2x2x2.json"),
                     "--method", method, "--out", str(tmp_path / name),
                     "--no-timestamp"]) == 0
        got[name] = load_assignment(tmp_path / name / "assignment.json")
    assert {back(e): p for e, p in got["far"].items()} == got["plain"]


def test_a_partition_leaves_numpy_ma_unimported(tmp_path):
    # On numpy >= 2 a plain np.unique imports numpy.ma on its first call,
    # some 15 ms.  A fresh interpreter shows what a run loads.
    script = f"""
import sys
from hierpart.cli import main
before = set(sys.modules)
assert main(["partition", "--mesh", {str(FIXTURES / "demo_mesh.json")!r},
             "--topo", {str(FIXTURES / "topo_2x2x2.json")!r},
             "--out", {str(tmp_path / "out")!r}, "--no-timestamp"]) == 0
print(sorted(m for m in set(sys.modules) - before
             if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""
    src = Path(hierpart.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "[]"


def test_importing_formats_loads_neither_partitioner_nor_balancer():
    script = """
import sys
import hierpart
from hierpart import formats
print(sorted(m for m in sys.modules if m.startswith("hierpart.")))
from hierpart import rebalance, HierarchicalPlan
print(rebalance.__module__, HierarchicalPlan.__module__)
"""
    src = Path(hierpart.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    loaded, exports = run.stdout.splitlines()[-2:]
    assert loaded == str(["hierpart._codec", "hierpart.directory",
                          "hierpart.formats", "hierpart.mesh",
                          "hierpart.runtime", "hierpart.topology"])
    assert exports == "hierpart.balance hierpart.partition"


@st.composite
def _verb_inputs(draw):
    """A small valid mesh, tree, plan and weight table, as ROADMAP item 11
    describes them."""
    if draw(st.booleans()):
        mesh = triangle_grid(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    else:
        mesh = tet_box(draw(st.integers(1, 3)), draw(st.integers(1, 2)),
                       draw(st.integers(1, 2)))
    shape = draw(st.sampled_from(["plain", "flat", "point", "jitter"]))
    coords = mesh.coords.copy()
    if shape == "flat":
        coords[:, 0] = 0.0
    elif shape == "point":
        coords[:] = 1.0
    elif shape == "jitter":
        coords += np.random.default_rng(draw(st.integers(0, 99))).uniform(
            -0.25, 0.25, coords.shape)
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    nparts = int(np.prod(arities))
    assume(nparts <= mesh.n_elements)
    n = mesh.n_elements
    table = draw(st.sampled_from(["unit", "wide", "extreme"]))
    values = {
        "unit": None,
        "wide": draw(st.lists(st.floats(1, 1e6), min_size=n, max_size=n)),
        "extreme": draw(st.lists(st.sampled_from(
            [1e-300, 1.0, 1e300 / (n * nparts)]), min_size=n, max_size=n)),
    }[table]
    weights = None if values is None else dict(
        zip(mesh.element_ids.tolist(), values))
    bpl = draw(st.integers(0, len(arities) - 1))
    methods = st.sampled_from(["rcb", "graph"])
    # A single back-end, or one for each split below the bootstrap level.
    method = draw(st.lists(methods, min_size=1,
                           max_size=len(arities) - bpl).map(",".join))
    return {
        "mesh": replace(mesh, coords=coords),
        "tree": build_topology([(f"l{i}", a) for i, a in enumerate(arities)]),
        "weights": weights,
        "plan": ["--method", method,
                 "--approach", str(draw(st.sampled_from([1, 2]))),
                 "--bpl", str(bpl)],
        "rebalance": ["--method", draw(methods),
                      "--level", str(draw(st.integers(0, len(arities) - 1)))],
    }


@settings(max_examples=12, deadline=None)
@given(case=_verb_inputs())
def test_verbs_run_on_any_small_valid_input(tmp_path_factory, case):
    d = tmp_path_factory.mktemp("verbs")
    mesh, nparts = case["mesh"], case["tree"].total_ranks
    save_mesh(d / "mesh.json", mesh)
    save_topology(d / "topo.json", case["tree"])
    common = ["--mesh", str(d / "mesh.json"), "--topo", str(d / "topo.json"),
              "--no-timestamp"]
    if case["weights"] is not None:
        save_weights(d / "weights.json", case["weights"])
        common += ["--weights", str(d / "weights.json")]

    def owned_once_by_every_rank(out):
        owner = load_assignment(out / "assignment.json")
        assert sorted(owner) == mesh.element_ids.tolist()
        assert set(owner.values()) == set(range(nparts))

    assert main(["partition", *common, *case["plan"],
                 "--out", str(d / "p")]) == 0
    owned_once_by_every_rank(d / "p")
    assert main(["rebalance", *common, *case["rebalance"],
                 "--assignment", str(d / "p" / "assignment.json"),
                 "--out", str(d / "r")]) == 0
    owned_once_by_every_rank(d / "r")
    assert main(["metrics", *common,
                 "--assignment", str(d / "r" / "assignment.json"),
                 "--out", str(d / "m")]) == 0
    assert (d / "m" / "report.json").is_file()

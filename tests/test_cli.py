"""End-to-end CLI runs: outputs, exit codes, and byte determinism."""

from __future__ import annotations

import csv
import json

import pytest

from hierpart.cli import main
from hierpart.formats import (load_assignment, save_assignment, save_mesh,
                              save_timing, save_topology, save_weights)
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

    rows = list(csv.reader((out / "levels.csv").open()))
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

    rows = list(csv.reader((out2 / "balance.csv").open()))
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


@pytest.mark.parametrize("edit, message", [
    (_repeat_element, "element record 5: duplicate element id 4"),
    (_negative_element, "element record 5: negative element id -3"),
    (_repeat_node, "node record 7: duplicate node id 6"),
    (_negative_node, "node record 7: negative node id -1"),
])
def test_bad_mesh_ids_exit_2_naming_the_record(inputs, capsys, edit, message):
    mesh_path = _edit_mesh(inputs, edit)
    code = main(["partition", "--mesh", str(mesh_path),
                 "--topo", str(inputs["topo_path"]),
                 "--out", str(inputs["tmp"] / "x")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("records, message", [
    ([[0, float("nan")]], "weight record 0: non-finite weight nan"),
    ([[0, 1.0], [1, float("inf")]], "weight record 1: non-finite weight inf"),
    ([[0, 1.0], [1, 2.0], [0, 3.0]], "weight record 2: element 0 weighted twice"),
])
def test_bad_weight_records_exit_2_naming_the_record(inputs, capsys, records,
                                                     message):
    wpath = inputs["tmp"] / "weights.json"
    wpath.write_text(json.dumps({"schema": "treepart-1", "weights": records}))
    code = run_partition(inputs, inputs["tmp"] / "x", ("--weights", str(wpath)))
    assert code == 2
    assert message in capsys.readouterr().err


def test_bad_level_exits_2(inputs):
    out1 = inputs["tmp"] / "base"
    assert run_partition(inputs, out1) == 0
    code = main(["rebalance", "--mesh", str(inputs["mesh_path"]),
                 "--topo", str(inputs["topo_path"]),
                 "--assignment", str(out1 / "assignment.json"),
                 "--level", "9", "--out", str(inputs["tmp"] / "x")])
    assert code == 2


def test_timestamp_present_by_default(inputs):
    out = inputs["tmp"] / "stamped"
    code = main(["partition", "--mesh", str(inputs["mesh_path"]),
                 "--topo", str(inputs["topo_path"]), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())["report"]
    assert "timestamp" in report
